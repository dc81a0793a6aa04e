"""The benchmark's tracer still patches modext and counts what it claims."""

import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from modext.generators import named_input  # noqa: E402
from modext.matroid import Matroid  # noqa: E402
from perfbench.job import certify  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def test_traced_certify_closes_each_flat_once():
    m = named_input("braid-4").dependence_matroid()
    closure = Matroid.closure
    tracer = Tracer()
    api = tracer.install()
    try:
        verdict = certify(m, api, tamper=True)
    finally:
        tracer.uninstall()
    assert Matroid.closure is closure
    assert verdict.failures == ()
    assert verdict.flats == 15
    assert tracer.by_parent["matroid.closure", "lattice.enumerate_flats"] == verdict.flats
