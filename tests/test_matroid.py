"""Matroid construction, rank/closure behaviour, minors, circuits."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from modext.algebra import Field, FieldMatrix, gf_row_rank, matrix_rank
from modext.corpus import corpus_matroid
from modext.errors import InvalidInput, NotAFlat, NotSimple, TooLarge
from modext.gaingraph import frame_matroid, lift_matroid
from modext.generators import named_input
from modext.lattice import enumerate_flats
from modext.matroid import (Matroid, atom_tuple, graphic_matroid, linear_matroid, load_matroid,
                            mask_of)

from oracles import (brute_closure, circuits, contract_simplify, field_rank, is_flat, restrict,
                     simplicity_violation)
from samples import has_backend_kernel, non_simple_gf3_matroids, random_matroids, s3_gain_matroids


def u23():
    return linear_matroid(FieldMatrix(Field.gf(2), [[1, 0, 1], [0, 1, 1]]))


def test_u23_ranks_and_closure():
    m = u23()
    assert m.n == 3 and m.rank(m.full_mask) == 2
    assert m.rank(0b111) == 2
    for a in range(3):
        assert m.rank(1 << a) == 1
        assert m.closure(1 << a) == 1 << a
    assert m.closure(0b011) == 0b111
    assert is_flat(m, 0b111) and not is_flat(m, 0b011)


def test_simplicity_rejected():
    with pytest.raises(NotSimple):  # zero column = loop
        linear_matroid(FieldMatrix(Field.gf(2), [[1, 0], [0, 0]]))
    with pytest.raises(NotSimple):  # parallel columns
        linear_matroid(FieldMatrix(Field.gf(3), [[1, 2], [2, 4 % 3]]))
    with pytest.raises(NotSimple):  # graphic: parallel edges
        graphic_matroid(2, [(0, 1), (0, 1)])
    with pytest.raises(InvalidInput):  # graphic: loop edge
        graphic_matroid(2, [(0, 0)])


def _planted_columns(field, rng):
    """Random columns over the field, some of them planted: zero columns,
    and multiples of earlier columns (over Q negated, non-primitive integer
    and rational multiples), each put at a random position."""
    nrows, n = rng.randint(1, 4), rng.randint(1, 7)
    if field.is_rational:
        def entry():
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        scalars = [Fraction(-1), Fraction(2), Fraction(-3), Fraction(4),
                   Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]
    else:
        def entry():
            return rng.randrange(field.p)
        scalars = list(range(1, field.p))
    cols = [[entry() for _ in range(nrows)] for _ in range(n)]
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        scale = rng.choice(scalars)
        col = [field.mul(scale, x) for x in rng.choice(cols)]
        cols.insert(rng.randint(0, len(cols)), col)
    if rng.random() < 0.2:
        cols.insert(rng.randint(0, len(cols)), [field.zero()] * nrows)
    return cols


@pytest.mark.parametrize("field", [Field.rational(), Field.gf(2), Field.gf(3), Field.gf(5)],
                         ids=repr)
def test_simplicity_check_matches_the_pairwise_scan(field):
    rng = random.Random(23 + (field.p or 0))
    outcomes = set()
    for _ in range(300):
        cols = _planted_columns(field, rng)
        matrix = FieldMatrix(field, list(zip(*cols)))
        expected = simplicity_violation(field, cols)
        if expected is None:
            assert linear_matroid(matrix).n == len(cols), cols
            outcomes.add("simple")
            continue
        with pytest.raises(NotSimple) as info:
            linear_matroid(matrix)
        assert (list(info.value.columns), str(info.value)) == expected, cols
        outcomes.add("zero" if len(expected[0]) == 1 else "parallel")
    assert outcomes == {"simple", "zero", "parallel"}


def test_rescaled_rational_columns_give_the_same_lattice():
    # every column scaled by its own nonzero rational, three times over
    rng = random.Random(29)
    field = Field.rational()
    columns = [list(named_input(name).forms)
               for name in ("bn-3", "braid-4", "dn-4", "example-7", "example-13")]
    while len(columns) < 20:
        cols = _planted_columns(field, rng)
        if len(cols) > 2 and simplicity_violation(field, cols) is None:
            columns.append(cols)

    def lattice(cols):
        return enumerate_flats(linear_matroid(FieldMatrix(field, list(zip(*cols)))))

    for cols in columns:
        ref = lattice(cols)
        for _ in range(3):
            scaled = []
            for col in cols:
                scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                scaled.append([scale * x for x in col])
            lat = lattice(scaled)
            assert lat.levels == ref.levels, cols
            assert list(lat.covers.items()) == list(ref.covers.items()), cols
            assert lat.atom_index == ref.atom_index, cols


def test_guardrail():
    with pytest.raises(TooLarge):
        Matroid(30, lambda s: bin(s).count("1"))
    Matroid(30, lambda s: bin(s).count("1"), max_atoms=32)  # opt-in is fine


def test_graphic_rank_is_spanning_forest_size():
    # an inline union-find is the reference for the GF(2) incidence kernel
    rng = random.Random(3)
    for _ in range(25):
        nv = rng.randint(1, 6)
        pool = list(combinations(range(nv), 2))
        rng.shuffle(pool)
        edges = pool[: rng.randint(0, len(pool))]
        m = graphic_matroid(nv, edges)
        if len(edges) <= 10:
            masks = range(1 << len(edges))
        else:
            masks = [rng.randrange(1 << len(edges)) for _ in range(40)]
        for mask in masks:
            chosen = [edges[i] for i in atom_tuple(mask)]
            # forest size = nv - number of components on nv vertices
            parent = list(range(nv))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            comps = nv
            for u, v in chosen:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    comps -= 1
            assert m.rank(mask) == nv - comps


@pytest.mark.parametrize("name", ["fano", "ziegler-11", "bowtie-lift-9"])
def test_binary_ranks_match_modular_elimination(name):
    forms = named_input("pg-2-2" if name == "fano" else name).forms
    m = corpus_matroid(name)
    for mask in range(1 << m.n):
        rows = [forms[a] for a in atom_tuple(mask)]
        expected = gf_row_rank(rows, 2)
        assert m.rank(mask) == expected, rows
        assert matrix_rank(FieldMatrix(Field.gf(2), rows)) == expected, rows


def test_random_binary_ranks_match_modular_elimination():
    rng = random.Random(17)
    for _ in range(30):
        nrows = rng.randint(1, 5)
        n = rng.randint(1, min(9, (1 << nrows) - 1))
        # distinct nonzero columns over GF(2) give a simple matroid
        cols = [[x >> i & 1 for i in range(nrows)]
                for x in rng.sample(range(1, 1 << nrows), n)]
        matrix = FieldMatrix(Field.gf(2), [[c[i] for c in cols] for i in range(nrows)])
        m = linear_matroid(matrix)
        for mask in range(1 << n):
            rows = [cols[a] for a in atom_tuple(mask)]
            assert m.rank(mask) == gf_row_rank(rows, 2), (cols, mask)


@pytest.mark.parametrize("field", [Field.rational(), Field.gf(3), Field.gf(5)], ids=repr)
def test_linear_ranks_match_field_elimination(field):
    rng = random.Random(29 + (field.p or 0))
    checked = 0
    while checked < 20:
        cols = _planted_columns(field, rng)
        if simplicity_violation(field, cols) is not None:
            continue
        m = linear_matroid(FieldMatrix(field, list(zip(*cols))))
        for mask in range(1 << m.n):
            rows = [cols[a] for a in atom_tuple(mask)]
            assert m.rank(mask) == field_rank(field, rows), (cols, mask)
        checked += 1


def test_restrict_and_contract():
    m = u23()
    flat = m.closure(0b001)
    sub = restrict(m, flat)
    assert sub.n == 1 and sub.rank(sub.full_mask) == 1
    with pytest.raises(NotAFlat):
        restrict(m, 0b011)
    q, atom_map = contract_simplify(m, 0b001)
    # contracting an atom of a 3-point line leaves a single parallel class
    assert q.rank(q.full_mask) == 1 and q.n == 1
    assert set(atom_map) == {1, 2} and set(atom_map.values()) == {0}


def test_minors_keep_the_atom_cap():
    edges = list(combinations(range(8), 2))
    m = graphic_matroid(8, edges, max_atoms=28)
    sub = restrict(m, m.full_mask)
    assert sub.n == 28 and sub.max_atoms == 28 and sub.rank(sub.full_mask) == 7
    q, _ = contract_simplify(m, 0)
    assert q.n == 28 and q.max_atoms == 28 and q.rank(q.full_mask) == 7


def test_contract_simplify_of_fano_atom(corpus):
    m, _ = corpus("fano")
    q, _ = contract_simplify(m, 0b1)
    assert q.rank(q.full_mask) == 2 and q.n == 3  # PG(2,2)/point = 3-point line


def test_circuits_u23():
    m = u23()
    assert circuits(m) == (0b111,)


def test_circuits_are_minimal_dependent(corpus):
    m, _ = corpus("example-7")
    for c in circuits(m):
        k = bin(c).count("1")
        assert m.rank(c) == k - 1
        for a in atom_tuple(c):
            smaller = c & ~(1 << a)
            assert m.rank(smaller) == bin(smaller).count("1")


def test_closure_matches_brute(corpus):
    for name in ("u23", "fano", "example-7", "k4"):
        m, _ = corpus(name)
        rng = random.Random(11)
        for _ in range(80):
            s = rng.randrange(1 << m.n)
            assert m.closure(s) == brute_closure(m, s)


def _kernel_matroids():
    """Matroids of every public constructor, each with its classes kernel:
    graphs, matrices over Q, GF(2) and GF(3), frame matroids with loops and
    lift matroids with inf, over sign, Z3 and the non-abelian S3, from the
    random samples, the corpus and two larger gain graphs."""
    ms = random_matroids() + s3_gain_matroids() + [
        corpus_matroid(name) for name in ("k5", "fano", "pg-2-3", "bn-3", "example-13",
                                          "ziegler-19", "q3-z3", "bowtie-frame", "bowtie-lift")]
    ms += [frame_matroid(named_input("kl-4-z3")), lift_matroid(named_input("k-5-sign"))]
    kinds = {(m.backend, m.labels is not None and any(
        x.startswith("loop") or x == "inf" for x in m.labels)) for m in ms}
    assert {("graphic", False), ("linear", False), ("frame", True), ("lift", True)} <= kinds
    assert all(has_backend_kernel(m) for m in ms)
    return ms


def _brute_classes(m, subset, candidates):
    """The candidates in cl(subset), then, in first-atom order, those in
    each cover of cl(subset), from rank closures alone."""
    flat = brute_closure(m, subset)
    rest, out = candidates & ~flat, []
    while rest:
        c = brute_closure(m, subset | (rest & -rest)) & rest
        rest &= ~c
        out.append(c)
    return candidates & flat, out


def _kernel_classes(m, subset, candidates):
    groups = dict(m._classes_fn(subset, candidates))
    return groups.pop(0, 0), list(groups.values())


def test_closure_kernels_match_rank_closure_on_every_subset():
    # every sample on at most 10 atoms through its backend kernel, if it
    # has one, and as a bare rank function through the rank-query kernel;
    # the non-simple GF(3) samples bring loops and parallel atoms
    samples = [m for m in _kernel_matroids() + non_simple_gf3_matroids() if m.n <= 10]
    for i, m in enumerate(samples):
        bare = Matroid(m.n, m.rank)
        for s in range(1 << m.n):
            expected = _brute_classes(m, s, m.full_mask)
            for k in (m, bare):
                assert _kernel_classes(k, s, m.full_mask) == expected, (i, k, s)
                assert k.closure(s) == s | expected[0], (i, k, s)


def test_closure_kernels_match_rank_closure_on_enumeration_calls():
    # the (subset, candidates) pairs enumeration hands the kernel, for the
    # bottom's closure and each maker flat's covers, then random ones
    rng = random.Random(12)
    for i, m in enumerate(_kernel_matroids()):
        calls = []
        kernel = m._classes_fn

        def recorded(subset, candidates, _kernel=kernel):
            calls.append((subset, candidates))
            return _kernel(subset, candidates)

        m._classes_fn = recorded
        enumerate_flats(m)
        m._classes_fn = kernel
        assert len(calls) > 1, (i, m)
        calls += [(rng.randrange(1 << m.n), rng.randrange(1 << m.n)) for _ in range(60)]
        for s, cand in calls:
            assert _kernel_classes(m, s, cand) == _brute_classes(m, s, cand), (i, m, s, cand)


def test_kernel_and_rank_closure_enumerate_the_same_lattice(all_corpus_names):
    for name in all_corpus_names:
        m = corpus_matroid(name)
        lat = enumerate_flats(m)
        ref = enumerate_flats(Matroid(m.n, m.rank))
        assert lat.levels == ref.levels, name
        assert list(lat.covers.items()) == list(ref.covers.items()), name
        assert lat.atom_index == ref.atom_index, name


def test_cover_kernels_match_the_closure_loop(corpus, all_corpus_names):
    # Matroid(n, rank) reads its covers off rank queries alone; the span is
    # the flat itself or a basis of it, and the rest all atoms outside it or
    # the outside parts of every other cover
    ms = [corpus(name) for name in all_corpus_names]
    ms += [(m, enumerate_flats(m)) for m in random_matroids() + s3_gain_matroids()]
    backends = set()
    for i, (m, lat) in enumerate(ms):
        loop = Matroid(m.n, m.rank)
        backends.add(m.backend)
        assert has_backend_kernel(m) and not has_backend_kernel(loop), (i, m)
        for f in lat.flats():
            basis = 0
            for a in atom_tuple(f):
                if m.rank(basis | 1 << a) > m.rank(basis):
                    basis |= 1 << a
            rest = m.full_mask & ~f
            expected = [f | c for c in loop.covers(basis, rest)]
            assert expected == list(lat.covers[f]), (i, m, f)
            some = lat.covers[f][::2]
            part = sum(c & ~f for c in some)  # the parts are disjoint
            assert [f | c for c in loop.covers(basis, part)] == list(some), (i, m, f)
            for span in (basis, f):
                assert [f | c for c in m.covers(span, rest)] == expected, (i, m, f)
                assert [f | c for c in m.covers(span, part)] == list(some), (i, m, f)
    assert backends == {"graphic", "linear", "frame", "lift"}


def test_closure_rejects_atoms_outside_the_ground_set():
    for m in _kernel_matroids() + [Matroid(3, lambda s: min(2, s.bit_count()))]:
        with pytest.raises(InvalidInput):
            m.closure(1 << m.n)
        with pytest.raises(InvalidInput):
            m.covers(0, m.full_mask | 1 << m.n)


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert atom_tuple(0b100101) == (0, 2, 5)
    assert mask_of([]) == 0


def test_load_matroid_roundtrip():
    m = u23()
    data = {"type": "linear",
            "field": {"kind": "gf", "p": 2},
            "matrix": [[1, 0, 1], [0, 1, 1]],
            "labels": ["a", "b", "c"]}
    m2 = load_matroid(data)
    assert m2.n == m.n
    for s in range(1 << 3):
        assert m2.rank(s) == m.rank(s)
    assert m2.labels[2] == "c"


def test_empty_matroid():
    m = graphic_matroid(0, [])
    assert m.n == 0 and m.rank(m.full_mask) == 0
    assert m.closure(0) == 0 and is_flat(m, 0)
