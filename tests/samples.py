"""Seeded random matroids that several test modules check lattices and
modularity on."""

import random
from itertools import combinations

from modext.algebra import Field, FieldMatrix, gf_row_rank
from modext.errors import NotSimple
from modext.gaingraph import FiniteGroup, GainGraph, frame_matroid, lift_matroid
from modext.matroid import Matroid, graphic_matroid, iter_atoms, linear_matroid


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
