"""Divisional atoms, flags, and the division theorem bookkeeping."""

import sys
from pathlib import Path

import pytest

import modext.divisional
from modext.algebra import IntPolynomial, integer_roots, poly_exact_div
from modext.divisional import (atom_quotient, divisional_flag, is_divisional_atom,
                               stanley_division_check)
from modext.errors import InternalInconsistency, InvalidInput
from modext.lattice import FlatLattice, enumerate_flats
from modext.modularity import modular_flats, supersolvable_chain

from oracles import contract_simplify, flag_quotient_product
from samples import random_matroids

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import inputs  # noqa: E402


def test_atom_quotient_must_be_linear_monic():
    chi = IntPolynomial.from_roots([1, 2, 3])
    assert atom_quotient(chi, IntPolynomial.from_roots([2, 3])) == IntPolynomial([-1, 1])
    assert atom_quotient(chi, IntPolynomial.from_roots([4])) is None
    # a quotient of another degree is printed as its coefficient list
    with pytest.raises(InternalInconsistency, match=r"atom quotient \[2, -3, 1\] is not"):
        atom_quotient(chi, IntPolynomial.from_roots([3]))


def test_stanley_division_on_modular_flats(corpus):
    for name in ("fano", "example-7", "k4", "bn-3", "fish-sign", "u34"):
        m, lat = corpus(name)
        chi = lat.charpoly()
        for x in modular_flats(m, lattice=lat):
            assert stanley_division_check(m, x, lattice=lat)
            quotient = poly_exact_div(chi, lat.interval_charpoly(lat.bottom, x))
            assert quotient is not None, name


def test_divisional_atom_rejects_atoms_outside_the_ground_set(corpus):
    m, lat = corpus("k4")
    for e in (-1, m.n, m.n + 3):
        for kwargs in ({}, {"lattice": lat}):
            with pytest.raises(InvalidInput, match=f"^atom {e} outside ground set of size 6$"):
                is_divisional_atom(m, e, **kwargs)


def test_divisional_atom_definition(corpus, all_corpus_names):
    # the interval [a, top] against the lattice of an explicit contraction
    for name in all_corpus_names:
        m, lat = corpus(name)
        chi = lat.charpoly()
        for a in range(m.n):
            q, _ = contract_simplify(m, 1 << a)
            expected = poly_exact_div(chi, enumerate_flats(q).charpoly())
            for ok, quotient in (is_divisional_atom(m, a, lattice=lat),
                                 is_divisional_atom(m, a)):
                assert ok == (expected is not None), (name, a)
                assert quotient == expected, (name, a)
                if ok:
                    assert quotient * enumerate_flats(q).charpoly() == chi


def test_flag_shape_and_telescoping(corpus, all_corpus_names):
    # the roots are read off cover counts: each must be the root of the
    # exact quotient of its step's interval charpolys
    for name in ("example-13", "ziegler-19", "dn-4", "fano", "bowtie-lift"):
        m, lat = corpus(name)
        assert divisional_flag(m, lattice=lat) is not None, name
    lattices = [corpus(name) for name in all_corpus_names]
    lattices += [(m, enumerate_flats(m)) for m in random_matroids()]
    flagged = 0
    for m, lat in lattices:
        flag = divisional_flag(m, lattice=lat)
        if flag is None:
            continue
        flagged += 1
        flats = flag.flats
        assert flats[0] == lat.bottom and flats[-1] == lat.top
        assert len(flag.quotient_roots) == len(flats) - 1
        for i, root in enumerate(flag.quotient_roots):
            lower = lat.interval_charpoly(flats[i], lat.top)
            upper = lat.interval_charpoly(flats[i + 1], lat.top)
            assert poly_exact_div(lower, upper) == IntPolynomial([-root, 1])
        assert flag_quotient_product(flag) == lat.charpoly()
    assert flagged >= 50


def test_flag_roots_multiset_equals_charpoly_roots(corpus):
    m, lat = corpus("example-13")
    flag = divisional_flag(m, lattice=lat)
    assert sorted(flag.quotient_roots) == [1, 3, 3, 3, 3]
    m, lat = corpus("dn-4")
    flag = divisional_flag(m, lattice=lat)
    assert sorted(flag.quotient_roots) == [1, 3, 3, 5]


def test_no_flag_for_uniform_3_4(corpus):
    m, lat = corpus("u34")
    assert divisional_flag(m, lattice=lat) is None
    for a in range(m.n):
        ok, _ = is_divisional_atom(m, a, lattice=lat)
        assert not ok


def test_supersolvable_implies_divisional(corpus):
    for name in ("fano", "k4", "k5", "bn-3", "ziegler-11", "example-7",
                 "braid-4", "q3-z3"):
        m, lat = corpus(name)
        if supersolvable_chain(m, lattice=lat) is not None:
            assert divisional_flag(m, lattice=lat) is not None, name


def test_corank_two_always_flagged(corpus):
    # every simple matroid of rank <= 2 carries a flag
    m, lat = corpus("u23")
    flag = divisional_flag(m, lattice=lat)
    assert flag is not None and sorted(flag.quotient_roots) == [1, 2]


def test_flag_json(corpus):
    m, lat = corpus("example-13")
    flag = divisional_flag(m, lattice=lat)
    data = flag.to_json()
    assert data["kind"] == "divisional-flag"
    assert len(data["flats"]) == len(flag.flats)
    assert data["quotient_roots"] == list(flag.quotient_roots)


def _verdicts(lattices):
    return [(divisional_flag(m, lattice=lat), supersolvable_chain(m, lattice=lat))
            for m, lat in lattices]


def test_split_refutation_never_changes_a_verdict(monkeypatch, corpus, all_corpus_names):
    # with every chi counted as split, the flag search runs on every input
    # and must return what the refuted one returns; the chain peel has no
    # root test, so its verdicts must not move either
    lattices = [corpus(name) for name in all_corpus_names]
    for _, spec in inputs.generate("census", 1):
        m = inputs.build(spec)
        lattices.append((m, enumerate_flats(m)))
    refuted = _verdicts(lattices)
    assert sum(integer_roots(lat.charpoly()) is None for _, lat in lattices) >= 40
    monkeypatch.setattr(modext.divisional, "integer_roots", lambda p: [])
    # fresh lattices, so that no cached interval charpoly is shared
    searched = _verdicts([(m, enumerate_flats(m)) for m, _ in lattices])
    assert searched == refuted


def test_no_interval_charpoly_when_chi_does_not_split(monkeypatch, corpus):
    calls = []
    plain = FlatLattice.interval_charpoly

    def counted(lat, bottom, top):
        calls.append((bottom, top))
        return plain(lat, bottom, top)

    monkeypatch.setattr(FlatLattice, "interval_charpoly", counted)
    for name in ("c4", "c5", "u34", "fish-sign"):
        m, _ = corpus(name)
        lat = enumerate_flats(m)
        assert integer_roots(lat.charpoly()) is None, name
        assert divisional_flag(m, lattice=lat) is None, name
        assert calls == [], name
