"""Seeded inputs of the three workloads, as plain data, and their matroids.

An input spec is a JSON-ready dict, so the generated inputs can be digested
and shown.  `build` turns a spec into a fresh `Matroid` through the public
constructors only, so every job starts from a cold rank memo.

Spec kinds:
  {"kind": "linear", "p": 0 | prime, "columns": [[...], ...]}  (p = 0 is Q)
  {"kind": "graph", "vertices": n, "edges": [[u, v], ...]}
  {"kind": "frame" | "lift", "group": "sign" | "z3", "vertices": n,
   "edges": [[u, v, gain], ...], "loops": [v, ...]}
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import modext
from modext.gaingraph import FiniteGroup, GainGraph
from modext.generators import named_input

# The input whose time to verdict is reported as largest_job_s.
LARGEST = {"large-linear": "braid-7", "large-graph": "K8"}

# Census size classes per backend, (vertices, edges), (rank, atoms),
# (group, vertices, atoms) and (vertices, edges); each holds CENSUS_REPEATS
# inputs, so every backend and size has the same weight in a pass.
GRAPH_CLASSES = ((5, 6), (5, 8), (6, 8), (6, 10), (7, 10), (7, 12), (7, 14))
BINARY_CLASSES = ((3, 5), (3, 6), (3, 7), (4, 7), (4, 9), (4, 11), (4, 13))
FRAME_CLASSES = (("sign", 3, 7), ("sign", 3, 9), ("sign", 4, 10), ("sign", 4, 12),
                 ("z3", 3, 10), ("z3", 3, 11), ("z3", 4, 12))
LIFT_CLASSES = ((4, 7), (4, 9), (4, 11), (4, 12), (5, 9), (5, 11), (5, 12))
CENSUS_REPEATS = 4  # inputs drawn per class and backend in one pass


def generate(workload: str, seed: int) -> list:
    """The (name, spec) pairs of one pass of the workload, in job order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "large-linear":
        return [(name, _recoordinatize(_arrangement_spec(name), rng))
                for name in ("braid-7", "dn-5", "ziegler-19")]
    if workload == "large-graph":
        k8 = {"kind": "graph", "vertices": 8,
              "edges": [[u, v] for u, v in combinations(range(8), 2)]}
        return [("K8", k8), ("kl-4-z3", _gain_spec("frame", "kl-4-z3")),
                ("k-5-sign", _gain_spec("lift", "k-5-sign"))]
    if workload == "census":
        return _census(rng)
    raise ValueError(f"unknown workload {workload!r}")


def digest(specs) -> str:
    """SHA-256 of the canonical JSON of a list of (name, spec) pairs."""
    blob = json.dumps(specs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build(spec) -> modext.Matroid:
    """A fresh matroid for a spec, built with the public constructors."""
    kind = spec["kind"]
    if kind == "linear":
        p = spec["p"]
        field = modext.Field.gf(p) if p else modext.Field.rational()
        rows = [list(r) for r in zip(*spec["columns"])]
        return modext.linear_matroid(modext.FieldMatrix(field, rows),
                                     max_atoms=len(spec["columns"]))
    if kind == "graph":
        return modext.graphic_matroid(spec["vertices"], spec["edges"],
                                      max_atoms=len(spec["edges"]))
    graph = _gain_graph(spec)
    return modext.frame_matroid(graph) if kind == "frame" else modext.lift_matroid(graph)


def _gain_graph(spec) -> GainGraph:
    group = FiniteGroup.sign() if spec["group"] == "sign" else FiniteGroup.zmod(3)
    return GainGraph(spec["vertices"], group, spec["edges"], spec["loops"])


def atom_count(spec) -> int:
    kind = spec["kind"]
    if kind == "linear":
        return len(spec["columns"])
    if kind == "lift":
        return len(spec["edges"]) + 1
    return len(spec["edges"]) + len(spec.get("loops", ()))


# ---------------------------------------------------------------------------
# the large inputs


def _arrangement_spec(name: str) -> dict:
    arr = named_input(name)
    p = 0 if arr.field.is_rational else arr.field.p
    columns = []
    for form in arr.forms:
        if p:
            columns.append([int(x) for x in form])
        else:
            columns.append([str(x) for x in form])
    return {"kind": "linear", "p": p, "columns": columns}


def _gain_spec(kind: str, name: str) -> dict:
    g = named_input(name)
    group = "sign" if g.group.order == 2 else "z3"
    return {"kind": kind, "group": group, "vertices": g.n,
            "edges": [[e.u, e.v, e.gain] for e in g.edges], "loops": list(g.loops)}


def _recoordinatize(spec, rng) -> dict:
    """The same hyperplanes in permuted coordinates, with signs flipped over Q.

    The matroid, its atom order and so the lexicographic order of its flats
    stay fixed: permuting atoms would move where the modular scan first
    finds a violating flat, which changes the work by more than the code
    changes it.
    """
    dim = len(spec["columns"][0])
    order = rng.sample(range(dim), dim)
    columns = [[col[k] for k in order] for col in spec["columns"]]
    if not spec["p"]:
        flips = [k for k in range(dim) if rng.random() < 0.5]
        for col in columns:
            for k in flips:
                col[k] = str(-Fraction(col[k]))
    return dict(spec, columns=columns)


# ---------------------------------------------------------------------------
# the census stream


def _census(rng) -> list:
    """One pass: a fixed stratified pool, presented anew by the seed.

    The pool is drawn once from a fixed stream, so every seed has the same
    matroids and the same amount of work.  The seed relabels vertices,
    switches gains, changes the GF(2) basis, shuffles atom order and
    shuffles the jobs: the program sees different inputs, but isomorphic
    ones.
    """
    pool_rng = random.Random("census-pool")
    out = []
    for backend, classes, draw in (("graph", GRAPH_CLASSES, _random_graph),
                                   ("gf2", BINARY_CLASSES, _random_binary),
                                   ("frame", FRAME_CLASSES, _random_frame),
                                   ("lift", LIFT_CLASSES, _random_lift)):
        for cls in classes:
            for k in range(CENSUS_REPEATS):
                name = f"{backend}-{'-'.join(map(str, cls))}#{k}"
                out.append((name, _present(draw(pool_rng, *cls), rng)))
    rng.shuffle(out)
    return out


def _random_graph(rng, n, m) -> dict:
    edges = rng.sample(list(combinations(range(n), 2)), m)
    return {"kind": "graph", "vertices": n, "edges": [list(e) for e in edges]}


def _random_binary(rng, r, n) -> dict:
    vectors = range(1, 2 ** r)
    while True:
        chosen = rng.sample(vectors, n)
        if gf2_rank(chosen) == r:
            break
    return {"kind": "linear", "p": 2, "columns": [_bits(v, r) for v in chosen]}


def _bits(v, r) -> list:
    return [(v >> i) & 1 for i in range(r)]


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of vectors packed into ints."""
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def _random_frame(rng, group, n, atoms) -> dict:
    order = 2 if group == "sign" else 3
    # Atoms are edges (u, v, gain) and loops (v,).
    pool = [(u, v, g) for u, v in combinations(range(n), 2) for g in range(order)]
    pool += [(v,) for v in range(n)]
    chosen = rng.sample(pool, atoms)
    return {"kind": "frame", "group": group, "vertices": n,
            "edges": [list(a) for a in chosen if len(a) == 3],
            "loops": sorted(a[0] for a in chosen if len(a) == 1)}


def _random_lift(rng, n, edge_count) -> dict:
    pool = [(u, v, g) for u, v in combinations(range(n), 2) for g in range(2)]
    return {"kind": "lift", "group": "sign", "vertices": n,
            "edges": [list(e) for e in rng.sample(pool, edge_count)], "loops": []}


def _present(spec, rng) -> dict:
    """An isomorphic copy of a census input with shuffled atom order."""
    if spec["kind"] == "linear":
        r = len(spec["columns"][0])
        while True:     # a random invertible change of basis over GF(2)
            basis = [rng.randrange(1, 2 ** r) for _ in range(r)]
            if gf2_rank(basis) == r:
                break
        columns = []
        for col in spec["columns"]:
            image = 0
            for i, bit in enumerate(col):
                if bit:
                    image ^= basis[i]
            columns.append(_bits(image, r))
        rng.shuffle(columns)
        return dict(spec, columns=columns)
    n = spec["vertices"]
    relabel = rng.sample(range(n), n)
    if spec["kind"] == "graph":
        edges = [[relabel[u], relabel[v]] for u, v in spec["edges"]]
        rng.shuffle(edges)
        return dict(spec, edges=edges)
    # Switching by a potential keeps every cycle's gain sum, so balance, and
    # with it the frame and lift matroids, are unchanged.
    order = 2 if spec["group"] == "sign" else 3
    eta = [rng.randrange(order) for _ in range(n)]
    edges = [[relabel[u], relabel[v], (g + eta[v] - eta[u]) % order]
             for u, v, g in spec["edges"]]
    rng.shuffle(edges)
    return dict(spec, edges=edges, loops=sorted(relabel[v] for v in spec["loops"]))
