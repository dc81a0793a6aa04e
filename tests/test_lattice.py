"""Lattice of flats: enumeration, Moebius values, characteristic polynomials."""

from itertools import combinations

import pytest

from modext.algebra import IntPolynomial
from modext.corpus import corpus_matroid
from modext.errors import NotAFlat, TooLarge
from modext.lattice import enumerate_flats
from modext.matroid import Matroid, atom_tuple

from oracles import (brute_flats, brute_mobius, contract_simplify, popcount, reference_lattice,
                     restrict, whitney_charpoly_coeffs)
from samples import (has_backend_kernel, non_simple_gf3_matroids, random_matroids,
                     s3_gain_matroids)

SMALL_FLATS = 250  # members with at most this many flats get pairwise checks


def _small(corpus, names):
    for name in names:
        m, lat = corpus(name)
        if len(lat) <= SMALL_FLATS:
            yield name, m, lat


def _brute_interval_charpoly(m, flats, bottom, top):
    """chi of [bottom, top] from mu(bottom, X) = -sum over bottom <= Y < X."""
    mu = {}
    for x in sorted((f for f in flats if f & bottom == bottom and f & top == f), key=popcount):
        mu[x] = 1 if x == bottom else -sum(v for y, v in mu.items() if y & x == y)
    coeffs = [0] * (m.rank(top) - m.rank(bottom) + 1)
    for x, v in mu.items():
        coeffs[m.rank(top) - m.rank(x)] += v
    return IntPolynomial(coeffs)


def test_u23_lattice(corpus):
    m, lat = corpus("u23")
    assert len(lat) == 5  # bottom, three atoms, top
    assert lat.bottom == 0 and lat.top == 0b111
    assert lat.rank == 2
    assert sorted(lat.flats()) == sorted(brute_flats(m))
    assert lat.charpoly() == IntPolynomial([2, -3, 1])  # (t-1)(t-2)


def test_flat_enumeration_matches_brute(corpus):
    for name in ("u23", "u34", "fano", "example-7", "c4", "bn-2", "fish-sign"):
        m, lat = corpus(name)
        assert sorted(lat.flats()) == sorted(brute_flats(m)), name


def test_each_flat_is_closed_once(monkeypatch, all_corpus_names, reference):
    # One `covers` call per maker flat (the lex-least reference child of
    # some flat) makes every flat but the bottom exactly once, at its
    # maker, so only the bottom is a closure: with the classes kernel every
    # public constructor hands over, and with the rank-query kernel of a
    # bare rank function alike.
    closures, cover_calls = [], []
    closure, covers = Matroid.closure, Matroid.covers

    def counted_closure(m, *args):
        closures.append(args)
        return closure(m, *args)

    def counted_covers(m, *args):
        out = covers(m, *args)
        cover_calls.append((args[0], list(out)))
        return out

    monkeypatch.setattr(Matroid, "closure", counted_closure)
    monkeypatch.setattr(Matroid, "covers", counted_covers)
    for name in all_corpus_names:
        kernel = corpus_matroid(name)
        bare = Matroid(kernel.n, kernel.rank)
        children = reference(name)[1]
        assert has_backend_kernel(kernel) and not has_backend_kernel(bare), name
        for m in (kernel, bare):
            closures.clear()
            cover_calls.clear()
            lat = enumerate_flats(m)
            # each call hands over an independent span; the flat it spans is
            # the one flat of its size's level that holds it
            calls = []
            for span, parts in cover_calls:
                [f] = [g for g in lat.levels[span.bit_count()] if g & span == span]
                calls.append((f, [f | c for c in parts]))
            made = [c for _, out in calls for c in out]
            assert sorted(made) == sorted(f for f in lat.flats() if f != lat.bottom), name
            makers = [f for f, _ in calls]
            assert makers == list(dict.fromkeys(children[c][0] for c in made)), name
            assert all(children[c][0] == f for f, out in calls for c in out), name
            assert len(closures) == 1, name


def test_covers_are_saturated(corpus):
    for name in ("fano", "example-7", "k4"):
        m, lat = corpus(name)
        for f in lat.flats():
            for g in lat.covers[f]:
                assert g & f == f and g != f
                assert lat.rank_of[g] == lat.rank_of[f] + 1
                assert m.closure(g) == g
                # no flat strictly between f and g
                for h in lat.flats():
                    assert not (h & f == f and h & g == h and f != h != g)


def test_covers_partition_the_atoms_outside(corpus, all_corpus_names):
    for name in all_corpus_names:
        m, lat = corpus(name)
        for f in lat.flats():
            seen = 0
            for g in lat.covers[f]:
                assert (g & ~f) & seen == 0, (name, f, g)
                seen |= g & ~f
            assert seen == m.full_mask & ~f, (name, f)


def test_lattice_is_built_in_lex_order(corpus, all_corpus_names, reference):
    # enumeration hands over levels and covers already lex-sorted, and the
    # covers, inverted by walking the flats in (rank, lex) order, are
    # exactly the reference children, in their order
    for name in all_corpus_names:
        _, lat = corpus(name)
        for level in lat.levels:
            assert level == sorted(level, key=atom_tuple), name
        assert set(lat.covers) == set(lat.rank_of), name
        inverse = {f: [] for f in lat.flats()}
        for f in lat.flats():
            flats = lat.covers[f]
            assert type(flats) is tuple, (name, f)
            assert list(flats) == sorted(flats, key=atom_tuple), (name, f)
            for c in flats:
                inverse[c].append(f)
        assert {f: tuple(cs) for f, cs in inverse.items()} == reference(name)[1], name


def _assert_matches_reference(name, m, lat):
    levels, _, covers, atom_index = reference_lattice(m)
    assert lat.levels == levels, name
    assert list(lat.covers.items()) == list(covers.items()), name
    assert lat.atom_index == atom_index, name


def test_enumeration_matches_reference_order_included(corpus, all_corpus_names):
    # levels, covers and atom index, each in its order, against a
    # plain closure of f | {a} for every flat f and atom a, sorted by atom tuple
    for name, m, lat in _small(corpus, all_corpus_names):
        _assert_matches_reference(name, m, lat)
    for i, m in enumerate(random_matroids()):
        _assert_matches_reference(("random", i), m, enumerate_flats(m))
    for i, m in enumerate(s3_gain_matroids()):
        _assert_matches_reference(("s3", i), m, enumerate_flats(m))
    for i, m in enumerate(non_simple_gf3_matroids()):
        _assert_matches_reference(("non-simple", i), m, enumerate_flats(m))


def _assert_contraction_atoms_are_the_covers(name, m, lat):
    # the atoms of si(M/f) are f's covers, in lex order, each the class of
    # the atoms outside f that atom_map sends to it
    for f in lat.flats():
        q, atom_map = contract_simplify(m, f)
        classes = [f] * q.n
        for a, i in atom_map.items():
            classes[i] |= 1 << a
        assert tuple(classes) == lat.covers[f], (name, f)


def test_contraction_atoms_are_the_covers(corpus, all_corpus_names):
    for name, m, lat in _small(corpus, all_corpus_names):
        _assert_contraction_atoms_are_the_covers(name, m, lat)


def test_random_lattices_match_brute_force_and_contractions():
    for i, m in enumerate(random_matroids()):
        lat = enumerate_flats(m)
        assert sorted(lat.flats()) == brute_flats(m), (i, m)
        _assert_contraction_atoms_are_the_covers((i, m), m, lat)


def test_non_simple_explicit_lattices_match_brute_force():
    for trial, m in enumerate(non_simple_gf3_matroids()):
        lat = enumerate_flats(m)
        flats = brute_flats(m)
        assert sorted(lat.flats()) == flats and lat.bottom == flats[0] != 0, trial
        for f in lat.flats():
            assert lat.rank_of[f] == m.rank(f), (trial, f)
            outside = [c & ~f for c in lat.covers[f]]
            assert sum(outside) == m.full_mask & ~f, (trial, f)
            assert all(a & b == 0 for a, b in combinations(outside, 2)), (trial, f)


def test_mobius_matches_brute(corpus, all_corpus_names, reference):
    # a value for every flat and nothing else, on lattices with and without
    # loops; the corpus members' flats come from the reference lattice
    for name in all_corpus_names:
        _, lat = corpus(name)
        flats = sorted(f for level in reference(name)[0] for f in level)
        assert lat.mobius() == brute_mobius(lat.matroid, flats), name
    for i, m in enumerate(random_matroids() + non_simple_gf3_matroids()):
        assert enumerate_flats(m).mobius() == brute_mobius(m), i


def test_charpoly_matches_whitney_sum(corpus):
    for name in ("u23", "u34", "fano", "example-7", "k5", "bn-3", "dn-3"):
        m, lat = corpus(name)
        assert lat.charpoly() == IntPolynomial(whitney_charpoly_coeffs(m)), name


def test_charpoly_known_values(corpus):
    _, lat = corpus("fano")
    assert lat.charpoly() == IntPolynomial.from_roots([1, 2, 4])
    _, lat = corpus("k4")
    assert lat.charpoly() == IntPolynomial.from_roots([1, 2, 3])
    _, lat = corpus("bn-3")
    assert lat.charpoly() == IntPolynomial.from_roots([1, 3, 5])


def test_interval_charpoly_is_restriction_charpoly(corpus):
    m, lat = corpus("example-7")
    for f in lat.flats():
        sub = restrict(m, f)
        assert lat.interval_charpoly(lat.bottom, f) == enumerate_flats(sub).charpoly()


def test_interval_charpoly_is_contraction_charpoly(corpus):
    m, lat = corpus("example-7")
    for f in lat.flats():
        q, _ = contract_simplify(m, f)
        assert lat.upper_charpoly(f) == enumerate_flats(q).charpoly()


def test_interval_charpoly_matches_brute_mobius(corpus, all_corpus_names):
    for name, m, lat in _small(corpus, all_corpus_names):
        flats = brute_flats(m)
        for b in lat.flats():
            for t in (f for f in lat.flats() if f & b == b):
                assert (lat.interval_charpoly(b, t)
                        == _brute_interval_charpoly(m, flats, b, t)), (name, b, t)


def test_interval_charpolys_of_samples_match_brute_mobius():
    # every [B, T], B != bottom and T != top included, on lattices with and
    # without loops, and every [F, top] through the upper_charpoly cache
    samples = random_matroids() + non_simple_gf3_matroids()
    inner = 0
    for i, m in enumerate(samples):
        lat = enumerate_flats(m)
        flats = brute_flats(m)
        for b in lat.flats():
            for t in (f for f in lat.flats() if f & b == b):
                assert (lat.interval_charpoly(b, t)
                        == _brute_interval_charpoly(m, flats, b, t)), (i, b, t)
                inner += b != lat.bottom and t != lat.top and lat.rank_of[t] - lat.rank_of[b] > 1
            assert lat.upper_charpoly(b) == _brute_interval_charpoly(m, flats, b, lat.top), (i, b)
    assert inner > 100


def test_interval_requires_comparable_flats(corpus):
    _, lat = corpus("u23")
    with pytest.raises(NotAFlat):
        lat.interval_charpoly(0b011, lat.top)


def test_max_flats_guardrail(corpus):
    m, _ = corpus("fano")
    with pytest.raises(TooLarge):
        enumerate_flats(m, max_flats=5)
    # the guardrail counts every flat: the exact count passes, one less raises
    for name in ("u23", "fano", "k4", "example-7", "bn-3", "fish-sign", "ziegler-19"):
        m, lat = corpus(name)
        assert len(enumerate_flats(m, max_flats=len(lat))) == len(lat), name
        with pytest.raises(TooLarge):
            enumerate_flats(m, max_flats=len(lat) - 1)


def test_charpoly_of_empty_and_single():
    from modext.matroid import graphic_matroid
    m0 = graphic_matroid(0, [])
    assert enumerate_flats(m0).charpoly() == IntPolynomial.one()
    m1 = graphic_matroid(2, [(0, 1)])
    assert enumerate_flats(m1).charpoly() == IntPolynomial([-1, 1])  # t - 1

