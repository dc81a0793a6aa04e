"""Seeded random matroids that several test modules check lattices and
modularity on."""

import random
from itertools import combinations

from modext.algebra import Field, FieldMatrix, gf_row_rank
from modext.errors import NotSimple
from modext.gaingraph import FiniteGroup, GainGraph, frame_matroid, lift_matroid
from modext.matroid import Matroid, graphic_matroid, iter_atoms, linear_matroid


def has_backend_kernel(m):
    """Whether m reads its classes off a backend kernel handed over by its
    constructor, not off the rank-query kernel of a bare rank function."""
    return "_rank_classes" not in m._classes_fn.__qualname__


def random_matroids(seed=8):
    """Simple matroids of every backend on at most 12 atoms: matrices over Q,
    GF(2) and GF(3), graphs, and frame and lift matroids of gain graphs."""
    rng = random.Random(seed)
    out = []
    for field in (Field.rational(), Field.gf(2), Field.gf(3)):
        built = 0
        while built < 8:
            rank, n = rng.randint(2, 4), rng.randint(3, 9)
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rank)]
            try:
                out.append(linear_matroid(FieldMatrix(field, rows)))
                built += 1
            except NotSimple:
                pass
    for _ in range(8):
        nv = rng.randint(3, 6)
        pairs = list(combinations(range(nv), 2))
        out.append(graphic_matroid(nv, rng.sample(pairs, rng.randint(2, min(9, len(pairs))))))
    for group in (FiniteGroup.sign(), FiniteGroup.zmod(3)):
        for _ in range(4):
            nv = rng.randint(2, 4)
            pool = [(u, v, k) for u, v in combinations(range(nv), 2) for k in range(group.order)]
            edges = rng.sample(pool, rng.randint(1, min(8, len(pool))))
            out.append(lift_matroid(GainGraph(nv, group, edges)))
            loops = [v for v in range(nv) if rng.random() < 0.3]
            out.append(frame_matroid(GainGraph(nv, group, edges, loops)))
    return out


def s3_group():
    """The symmetric group S3 as a multiplication table, the identity first:
    element i is the permutation PERMS[i] of (0, 1, 2), and i * j is the
    permutation k -> PERMS[i][PERMS[j][k]]."""
    perms = ((0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]
    return FiniteGroup(("e", "(01)", "(12)", "(02)", "(012)", "(021)"), table)


def s3_gain_matroids(seed=3, count=8):
    """Frame matroids (with loops) and lift matroids of seeded gain graphs
    over the non-abelian group S3, on at most 12 atoms: where the order of
    the factors of a gain product shows, which it cannot over sign or Z3."""
    group = s3_group()
    assert any(group.op(a, b) != group.op(b, a) for a in range(6) for b in range(6))
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nv = rng.randint(3, 5)
        pool = [(u, v, k) for u, v in combinations(range(nv), 2) for k in range(6)]
        edges = rng.sample(pool, rng.randint(5, 10))
        loops = [v for v in range(nv) if rng.random() < 0.4][:2]
        out.append(frame_matroid(GainGraph(nv, group, edges, loops)))
        out.append(lift_matroid(GainGraph(nv, group, edges)))
    return out


def non_simple_gf3_matroids(seed=5, count=30):
    """Matroids of explicit GF(3) columns, each with a zero column (a loop,
    which joins the bottom flat) and two columns parallel to others."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        cols = [[rng.randrange(3) for _ in range(3)] for _ in range(rng.randint(2, 8))]
        cols += [[0, 0, 0], [2 * x % 3 for x in cols[0]], list(cols[1])]
        rng.shuffle(cols)

        def rank_fn(mask, cols=cols):
            return gf_row_rank([cols[a] for a in iter_atoms(mask)], 3)

        out.append(Matroid(len(cols), rank_fn))
    return out
