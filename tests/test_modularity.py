"""Modularity criteria, roundness, supersolvable chains."""

import random

import pytest

from modext.errors import NotAFlat, NotComparable
from modext.joins import modular_joins_in_context
from modext.lattice import enumerate_flats
from modext.matroid import Matroid, atom_tuple, mask_of
from modext.modularity import (is_modular_flat, is_modular_in_context, is_round,
                               missed_line, modular_coatoms_in_context, modular_flats,
                               modular_flats_in_context, round_in_context,
                               supersolvable_chain, violating_flat_in_context)

from oracles import (brute_flats, brute_lines_outside, brute_modular, brute_round,
                     brute_supersolvable, circuits, coatom_pairing, reference_lattice,
                     short_circuit_check)
from samples import non_simple_gf3_matroids, random_matroids


def test_rank_equation_matches_brute(corpus):
    for name in ("u23", "u34", "fano", "example-7", "fish-sign", "c4"):
        m, lat = corpus(name)
        flats = brute_flats(m)
        for f in flats:
            got = bool(is_modular_flat(m, f, lattice=lat))
            assert got == brute_modular(m, f, flats), (name, atom_tuple(f))


def test_rank_equation_witness_matches_rank_scan(corpus, all_corpus_names):
    for name in all_corpus_names:
        m, lat = corpus(name)
        if len(lat) > 250:
            continue
        rank_of = lat.rank_of
        for ctx in (lat.top, *lat.coatoms()):
            for z in lat.flats():
                expected = next((y for y in lat.below(ctx)
                                 if rank_of[z] + rank_of[y] != rank_of[z & y] + m.rank(z | y)),
                                None)
                assert violating_flat_in_context(lat, z, ctx) == expected, (name, z, ctx)


def _assert_meet_test_matches_rank_scan(label, lat):
    for ctx in lat.flats():
        for z in lat.below(ctx):
            expected = violating_flat_in_context(lat, z, ctx) is None
            assert is_modular_in_context(lat, z, ctx) == expected, (label, z, ctx)


def test_meet_test_matches_rank_scan(corpus, all_corpus_names):
    for name in all_corpus_names:
        m, lat = corpus(name)
        if len(lat) <= 250:
            _assert_meet_test_matches_rank_scan(name, lat)


def test_meet_test_matches_rank_scan_on_random_matroids():
    # the non-simple ones put a loop in every flat, so the test must not
    # count the bottom's atoms as a meet
    for i, m in enumerate(random_matroids() + non_simple_gf3_matroids()):
        _assert_meet_test_matches_rank_scan(i, enumerate_flats(m))


def test_meet_test_matches_rank_scan_in_scrambled_order(corpus, all_corpus_names):
    # the verdicts are kept per context and level on the lattice, so
    # verdicts asked with contexts and levels interleaved, or in reverse,
    # must not let one context's masks decide another's verdict
    rng = random.Random(16)
    samples = [(name, corpus(name)[0]) for name in all_corpus_names
               if len(corpus(name)[1]) <= 250]
    samples += list(enumerate(random_matroids() + non_simple_gf3_matroids()))
    for label, m in samples:
        lat = enumerate_flats(m)
        expected = {(z, ctx): violating_flat_in_context(lat, z, ctx) is None
                    for ctx in lat.flats() for z in lat.below(ctx)}
        pairs = list(expected)
        for order in (pairs[::-1], rng.sample(pairs, len(pairs))):
            fresh = enumerate_flats(m)
            for z, ctx in order:
                assert is_modular_in_context(fresh, z, ctx) == expected[z, ctx], (label, z, ctx)


def _assert_context_verdicts_match_checkers(label, lat, children, contexts, coatoms_first):
    for ctx in contexts:
        coatoms = tuple(z for z in children[ctx] if missed_line(lat, z, ctx) is None)
        flats = tuple(f for f in lat.below(ctx) if violating_flat_in_context(lat, f, ctx) is None)
        if coatoms_first:
            assert tuple(modular_coatoms_in_context(lat, ctx)) == coatoms, (label, ctx)
        assert modular_flats_in_context(lat, ctx) == flats, (label, ctx)
        assert tuple(modular_coatoms_in_context(lat, ctx)) == coatoms, (label, ctx)


def test_context_verdicts_match_the_checkers(corpus, all_corpus_names, reference):
    # every context, on a lattice that met its contexts in order and on a
    # fresh one that meets them scrambled, coatoms first: the verdict
    # masks kept per context and level pair must agree with the
    # rank-equation scan and the triangle test on every one
    rng = random.Random(19)
    samples = [(name, corpus(name)[0], reference(name)[1]) for name in all_corpus_names]
    randoms = [(i, m, reference_lattice(m)[1]) for i, m in enumerate(random_matroids())]
    samples += randoms
    samples += [(len(randoms) + i, m, reference_lattice(m)[1])
                for i, m in enumerate(non_simple_gf3_matroids())]
    samples += [(("bare", i), Matroid(m.n, m.rank), children) for i, m, children in randoms]
    for label, m, children in samples:
        lat = enumerate_flats(m)
        contexts = list(lat.flats())
        _assert_context_verdicts_match_checkers(label, lat, children, contexts, False)
        _assert_context_verdicts_match_checkers(
            label, enumerate_flats(m), children, rng.sample(contexts, len(contexts)), True)


def test_modularity_verdicts_require_flats(corpus):
    m, lat = corpus("fano")
    not_a_flat = mask_of([0, 1])
    assert not_a_flat not in lat
    with pytest.raises(NotAFlat):
        is_modular_flat(m, not_a_flat, lattice=lat)
    with pytest.raises(NotAFlat):
        is_modular_in_context(lat, not_a_flat, lat.top)
    with pytest.raises(NotAFlat):
        is_modular_in_context(lat, lat.bottom, not_a_flat)
    with pytest.raises(NotAFlat):
        list(modular_coatoms_in_context(lat, not_a_flat))
    with pytest.raises(NotAFlat):
        list(modular_joins_in_context(lat, not_a_flat))
    with pytest.raises(NotComparable):
        is_modular_in_context(lat, mask_of([0]), mask_of([1]))


def test_trivial_flats_always_modular(corpus):
    for name in ("u34", "example-7", "bn-2"):
        m, lat = corpus(name)
        assert is_modular_flat(m, lat.bottom, lattice=lat)
        assert is_modular_flat(m, lat.top, lattice=lat)
        for a in range(m.n):  # atoms are modular in a simple matroid
            assert is_modular_flat(m, 1 << a, lattice=lat)


def test_fano_everything_modular(corpus):
    m, lat = corpus("fano")
    assert len(modular_flats(m, lattice=lat)) == len(lat) == 16


def test_fish_witness(corpus):
    m, lat = corpus("fish-sign")
    x = mask_of([1, 2])
    w = is_modular_flat(m, x, lattice=lat)
    assert not w.modular
    y = w.violating_flat
    assert m.rank(x) + m.rank(y) != m.rank(x & y) + m.rank(x | y)


def test_criterion_agreement_on_corpus(corpus):
    for name in ("u23", "u34", "fano", "example-7", "c4", "c5", "bn-2",
                 "fish-sign", "q2-z3"):
        m, lat = corpus(name)
        circs = circuits(m)
        for f in lat.flats():
            eq = bool(is_modular_flat(m, f, lattice=lat))
            if f:
                sc = short_circuit_check(m, f, circs) is None
                assert eq == sc, (name, atom_tuple(f))
        for z in lat.coatoms():
            eq = bool(is_modular_flat(m, z, lattice=lat))
            tri = missed_line(lat, z, lat.top) is None
            assert eq == tri, (name, atom_tuple(z))


def test_short_circuit_witness_is_a_short_circuit(corpus):
    m, lat = corpus("fish-sign")
    x = mask_of([1, 2])
    w = short_circuit_check(m, x)
    assert w is not None
    c, e = w
    # the witness circuit straddles x and its atom e admits no short circuit
    assert c & x and c & ~x
    assert (1 << e) & c and not (1 << e) & x
    out = c & ~x
    for x0 in atom_tuple(x):
        t = out | (1 << x0)
        assert m.rank(t) != m.rank(t & ~(1 << e))


def test_triangle_test_matches_rank_scan_on_random_matroids():
    # a loop lies on every line and parallel atoms span none, so neither
    # may count for or against a coatom of a non-simple matroid
    for i, m in enumerate(random_matroids() + non_simple_gf3_matroids()):
        lat = enumerate_flats(m)
        for x in lat.coatoms():
            expected = violating_flat_in_context(lat, x, lat.top) is None
            assert (missed_line(lat, x, lat.top) is None) == expected, (i, x)


def test_missed_line_matches_rank_reference(corpus, all_corpus_names):
    # on every cover step, the first pair whose line holds no atom of the
    # lower flat, as the rank oracle alone finds it
    samples = [(name, corpus(name)[0]) for name in all_corpus_names
               if len(corpus(name)[1]) <= 250]
    samples += list(enumerate(random_matroids() + non_simple_gf3_matroids()))
    for label, m in samples:
        lat = enumerate_flats(m)
        children = reference_lattice(m)[1]
        for ctx in lat.flats():
            for z in children[ctx]:
                expected = next((pair for pair, hits in brute_lines_outside(m, z, ctx)
                                 if not hits), None)
                assert missed_line(lat, z, ctx) == expected, (label, z, ctx)


def test_triangle_witness_pair(corpus):
    m, lat = corpus("example-13")
    for z in lat.coatoms():
        pair = missed_line(lat, z, lat.top)
        if pair is None:
            continue
        a, b = pair
        pair_mask = (1 << a) | (1 << b)
        assert pair_mask & z == 0
        hits = [f for f in atom_tuple(z)
                if m.rank(pair_mask | (1 << f)) == 2]
        assert len(hits) != 1


def test_coatom_pairing(corpus):
    m, lat = corpus("example-7")
    x = mask_of([1, 2, 5, 6])
    pairing = coatom_pairing(m, x)
    outside = [a for a in range(m.n) if not (1 << a) & x]
    assert set(pairing) == {(a, b) for a in outside for b in outside if a < b}
    for (a, b), f in pairing.items():
        # f is the unique atom of x making a triangle with a and b
        assert (1 << f) & x
        assert m.rank((1 << a) | (1 << b) | (1 << f)) == 2


def test_coatom_pairing_triples_dependent(corpus):
    m, lat = corpus("fano")
    for x in lat.coatoms():
        pairing = coatom_pairing(m, x)
        outside = atom_tuple(m.full_mask & ~x)
        from itertools import combinations
        for a, b, c in combinations(outside, 3):
            triple = (1 << pairing[(a, b)]) | (1 << pairing[(a, c)]) \
                | (1 << pairing[(b, c)])
            assert m.rank(triple) < bin(triple).count("1")


def test_coatom_pairing_of_non_simple_matroids():
    # parallel atoms of the coatom on one outside line are one completion,
    # paired through the lowest atom of their class
    paired = 0
    for i, m in enumerate(non_simple_gf3_matroids()):
        lat = enumerate_flats(m)
        for x in lat.coatoms():
            if not is_modular_in_context(lat, x, lat.top):
                continue
            pairing = coatom_pairing(m, x)
            assert set(pairing) == {pair for pair, _ in brute_lines_outside(m, x, lat.top)}
            for (a, b), f in pairing.items():
                line = (1 << a) | (1 << b)
                on_line = [g for g in atom_tuple(x & ~lat.bottom) if m.rank(line | 1 << g) == 2]
                assert f == on_line[0], (i, x, a, b)
                assert all(m.rank(1 << f | 1 << g) == 1 for g in on_line), (i, x, a, b)
            paired += 1
    assert paired == 53


def test_roundness_matches_brute(corpus):
    for name in ("u23", "u34", "fano", "c4", "k4", "bn-2", "fish-sign",
                 "example-7"):
        m, lat = corpus(name)
        assert is_round(m, lattice=lat).round == brute_round(m), name


def test_roundness_witness_covers(corpus):
    m, lat = corpus("c4")
    verdict = is_round(m, lattice=lat)
    assert not verdict.round
    f1, f2 = verdict.witness
    assert f1 | f2 == lat.top and f1 != lat.top and f2 != lat.top


def test_round_in_context_is_the_lex_first_union_of_children(corpus, all_corpus_names,
                                                             reference):
    # within every flat x, the verdict and the witness are those of the
    # first pair of reference children of x, in lex order, whose union is x
    lattices = [(name, corpus(name)[1], reference(name)[1]) for name in all_corpus_names]
    lattices += [(i, enumerate_flats(m), reference_lattice(m)[1])
                 for i, m in enumerate(random_matroids() + non_simple_gf3_matroids())]
    unions = 0
    for label, lat, children in lattices:
        for x in lat.flats():
            coats = children[x]
            pair = next(((c1, c2) for i, c1 in enumerate(coats) for c2 in coats[i + 1:]
                         if c1 | c2 == x), None)
            assert round_in_context(lat, x) == (pair is None, pair), (label, x)
            unions += pair is not None
    assert unions > 1000


def test_complete_graphs_round(corpus):
    for name, expected in (("k4", True), ("k5", True), ("c4", False),
                           ("c5", False)):
        m, lat = corpus(name)
        assert is_round(m, lattice=lat).round == expected


def test_supersolvable_matches_brute(corpus):
    for name in ("u23", "u34", "fano", "example-7", "c4", "c5", "k4",
                 "fish-sign", "bn-2", "q2-z3", "dn-3"):
        m, lat = corpus(name)
        got = supersolvable_chain(m, lattice=lat) is not None
        assert got == brute_supersolvable(m), name


def test_supersolvable_chain_structure(corpus):
    m, lat = corpus("fano")
    cert = supersolvable_chain(m, lattice=lat)
    flats = cert.flats
    assert flats[0] == lat.bottom and flats[-1] == lat.top
    for lo, hi in zip(flats, flats[1:]):
        assert lo & hi == lo
        assert lat.rank_of[hi] == lat.rank_of[lo] + 1
        assert violating_flat_in_context(lat, lo, hi) is None


def test_chain_flats_modular_in_whole_lattice(corpus):
    # peeling is equivalent to a chain modular in the full lattice
    for name in ("fano", "k4", "bn-3", "ziegler-11"):
        m, lat = corpus(name)
        cert = supersolvable_chain(m, lattice=lat)
        assert cert is not None
        for f in cert.flats:
            assert is_modular_flat(m, f, lattice=lat), name


def test_published_chain_for_ziegler_11(corpus):
    m, lat = corpus("ziegler-11")
    chain = [mask_of([3]), mask_of([3, 4, 5]), mask_of([0, 3, 4, 5, 6, 7, 8])]
    ranks = [1, 2, 3]
    for f, r in zip(chain, ranks):
        assert f in lat and lat.rank_of[f] == r
        assert is_modular_flat(m, f, lattice=lat)


def _lex_first_peel(lat, children):
    # from the top down, the first reference child of each flat, in lex
    # order, whose lines outside it all hold an atom of it (the coatom
    # triangle test); None at the first flat with no such child
    chain = [lat.top]
    while chain[-1] != lat.bottom:
        ctx = chain[-1]
        z = next((z for z in children[ctx] if missed_line(lat, z, ctx) is None), None)
        if z is None:
            return None
        chain.append(z)
    return tuple(reversed(chain))


def test_chain_is_the_lex_first_peel(corpus, all_corpus_names, reference):
    lattices = [(name, corpus(name)[1], reference(name)[1]) for name in all_corpus_names]
    lattices += [(i, enumerate_flats(m), reference_lattice(m)[1])
                 for i, m in enumerate(random_matroids() + non_simple_gf3_matroids())]
    chains = 0
    for label, lat, children in lattices:
        cert = supersolvable_chain(lat.matroid, lattice=lat)
        assert (None if cert is None else cert.flats) == _lex_first_peel(lat, children), label
        chains += cert is not None
    assert chains >= 70


def test_not_supersolvable_members(corpus):
    for name in ("example-13", "ziegler-19", "bowtie-frame", "dn-4", "u34"):
        m, lat = corpus(name)
        assert supersolvable_chain(m, lattice=lat) is None, name


def test_example_13_no_modular_coatoms(corpus):
    m, lat = corpus("example-13")
    for z in lat.coatoms():
        assert violating_flat_in_context(lat, z, lat.top) is not None
