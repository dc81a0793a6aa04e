"""The benchmark's tracer still patches modext and counts what it claims."""

import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from modext.corpus import corpus_matroid  # noqa: E402
from modext.generators import named_input  # noqa: E402
from modext.matroid import Matroid  # noqa: E402
from perfbench.job import certify  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

from oracles import bare_matroid, reference_lattice  # noqa: E402


def _traced_certify(m, monkeypatch=None):
    """Certify under the benchmark's tracer; with `monkeypatch`, calls of
    `Matroid.covers` are counted too."""
    closure = Matroid.closure
    tracer = Tracer()
    api = tracer.install()
    if monkeypatch is not None:
        monkeypatch.setattr(Matroid, "covers",
                            tracer.wrap("matroid.covers", Matroid.covers, span=False))
    try:
        verdict = certify(m, api, tamper=True)
    finally:
        tracer.uninstall()
        if monkeypatch is not None:
            monkeypatch.undo()
    assert Matroid.closure is closure
    assert verdict.failures == ()
    return verdict, tracer


def _instrumented_certify(m):
    """The tracer of a certify run on m with its backend rank oracle timed."""
    tracer = Tracer()
    api = tracer.install()
    try:
        tracer.instrument(m)
        verdict = certify(m, api, tamper=True)
    finally:
        tracer.uninstall()
    assert verdict.failures == ()
    return tracer


def test_traced_certify_closes_each_flat_once(monkeypatch):
    # enumeration closes only the bottom and asks each maker flat (the
    # lex-least reference child of some flat) for its covers once: a bare
    # rank function, read through the rank-query kernel, a frame and a
    # linear matroid, each through its backend kernel
    q3 = corpus_matroid("q3-z3")
    for m, flats in ((bare_matroid(q3.n, q3.rank), 35), (q3, 35),
                     (named_input("braid-4").dependence_matroid(), 15)):
        verdict, tracer = _traced_certify(m, monkeypatch)
        assert verdict.flats == flats
        assert tracer.by_parent["matroid.closure", "lattice.enumerate_flats"] == 1
        levels, children, _, _ = reference_lattice(m)
        makers = {children[c][0] for level in levels[1:] for c in level}
        assert (tracer.by_parent["matroid.covers", "lattice.enumerate_flats"]
                == len(makers) < verdict.flats - 1)


def test_gain_graph_oracles_are_counted_once_per_rank_miss():
    # the benchmark's gaingraph.kernel_calls sums the calls of the rank
    # functions that `instrument` wraps and files under the module defining
    # them, so the frame and lift rank functions must live in gaingraph
    for name, counter in (("q3-z3", "gaingraph.frame_oracle"),
                          ("bowtie-lift", "gaingraph.lift_oracle")):
        m = corpus_matroid(name)
        tracer = _instrumented_certify(m)
        misses = len(m._memo) - 1  # the memo starts with the empty set's rank
        assert tracer.calls[counter] == misses > 0
        assert tracer.sum_calls("_oracle", layer="gaingraph") == misses


def test_linear_oracles_are_counted_once_per_rank_miss():
    # the benchmark's algebra.row_rank_calls counts the row-rank kernels
    # that `install` patches on modext.matroid, so the linear rank functions
    # must call them there, once per rank miss
    for m, kernel in ((named_input("braid-4").dependence_matroid(), "algebra.integer_row_rank"),
                      (corpus_matroid("pg-2-3"), "algebra.gf_row_rank")):
        tracer = _instrumented_certify(m)
        misses = len(m._memo) - 1
        assert tracer.calls[kernel] == tracer.calls["matroid.linear_oracle"] == misses > 0
        assert tracer.sum_calls("_row_rank") == misses
