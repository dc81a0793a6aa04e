"""Spans and counters recorded around the calls into each modext layer.

The tracer wraps functions from the benchmark's side; modext itself is not
edited.  Pipeline functions, `Matroid.closure`, `FlatLattice.charpoly`,
`FlatLattice.mobius` and `FlatLattice.interval_charpoly` each record a span
(name, start, end, parent span, job id), kept in memory and written out at
exit.  The hot calls keep an aggregated counter and timer instead of a span:
the rank-equation scan, the backend rank oracles, the row-rank kernels, and
`Matroid.rank` (a counter only).

Every wrapped call adds its duration to its parent's child time, so each
name's self time is its duration minus the part its traced children cover.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace

import modext
import modext.divisional
import modext.joins
import modext.matroid
import modext.modularity
import modext.verify
from modext.lattice import FlatLattice
from modext.matroid import Matroid
from perfbench.job import PIPELINE


def _name(fn) -> str:
    """'layer.function': the modext module a function is defined in, then its name."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """In-memory spans and per-name counters of one traced run."""

    def __init__(self):
        self.spans = []                 # (id, parent id, job id, name, start, end)
        self.calls = Counter()          # name -> calls
        self.total_s = defaultdict(float)   # name -> inclusive time
        self.self_s = defaultdict(float)    # name -> self time
        self.by_parent = Counter()      # (name, parent name) -> calls
        self.job = 0
        self._rank_calls = [0]
        # frame: [span id, child time, name]; the root frame stands for the harness
        self._stack = [[None, 0.0, "harness"]]
        self._next_id = 0
        self._undo = []

    # -- wrappers

    def wrap(self, name: str, fn, *, span: bool):
        """`fn` with its time, self time and calls recorded under `name`,
        whose prefix up to the first dot names the layer."""
        stack, spans = self._stack, self.spans
        calls, total_s, self_s, by_parent = self.calls, self.total_s, self.self_s, self.by_parent

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                d = end - start
                parent[1] += d
                calls[name] += 1
                total_s[name] += d
                self_s[name] += d - frame[1]
                by_parent[name, parent[2]] += 1
                if span:
                    spans.append((sid, parent[0], self.job, name, start, end))

        return traced

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> SimpleNamespace:
        """Patch the layer boundaries; returns the traced pipeline API."""
        counter = self._rank_calls
        plain_rank = Matroid.rank

        def rank(m, subset):
            counter[0] += 1
            return plain_rank(m, subset)

        self._patch(Matroid, "rank", rank)
        for owner, attr in ((Matroid, "closure"), (FlatLattice, "charpoly"),
                            (FlatLattice, "mobius"), (FlatLattice, "interval_charpoly")):
            fn = getattr(owner, attr)
            self._patch(owner, attr, self.wrap(_name(fn), fn, span=True))
        for attr in ("integer_row_rank", "gf_row_rank"):
            fn = getattr(modext.matroid, attr)
            self._patch(modext.matroid, attr, self.wrap(_name(fn), fn, span=False))
        fn = modext.modularity.violating_flat_in_context
        scan = self.wrap(_name(fn), fn, span=False)
        for module in (modext.modularity, modext.joins, modext.divisional, modext.verify):
            self._patch(module, "violating_flat_in_context", scan)
        return SimpleNamespace(**{
            attr: self.wrap(_name(getattr(modext, attr)), getattr(modext, attr), span=True)
            for attr in PIPELINE})

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def instrument(self, m: Matroid) -> Matroid:
        """Time the backend rank oracle of a freshly built matroid."""
        layer = _name(m._rank_fn).split(".")[0]
        m._rank_fn = self.wrap(f"{layer}.{m.backend}_oracle", m._rank_fn, span=False)
        return m

    def job_span(self, fn):
        return self.wrap("harness.job", fn, span=True)

    # -- results

    @property
    def rank_calls(self) -> int:
        return self._rank_calls[0]

    def layer_self_s(self) -> dict:
        out = defaultdict(float)
        for name, t in self.self_s.items():
            out[name.split(".")[0]] += t
        return dict(out)

    def sum_calls(self, suffix: str, layer: str = "") -> int:
        return sum(c for name, c in self.calls.items()
                   if name.endswith(suffix) and name.startswith(layer))

    def sum_total_s(self, suffix: str) -> float:
        return sum(t for name, t in self.total_s.items() if name.endswith(suffix))

    def write(self, path):
        """Write spans as JSON lines: one header line, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "job", "name", "start", "end"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
