"""Modular joins, the product identity, and the certified class."""

import gc
import weakref
from collections import Counter

import pytest

from modext import modularity
from modext.algebra import IntPolynomial, poly_exact_div
from modext.certificates import (EmptyCertificate, ModularCoatomCertificate,
                                 ModularJoinCertificate)
from modext.corpus import corpus_matroid
from modext.divisional import divisional_flag, is_divisional_atom
from modext.errors import InvalidInput
from modext.joins import (brylawski_identity_check, find_modular_joins,
                          join_divisional_lift_check, me_certify,
                          modular_joins_in_context)
from modext.lattice import FlatLattice, enumerate_flats
from modext.matroid import Matroid, atom_tuple, graphic_matroid, mask_of
from modext.modularity import (is_modular_flat, is_round, modular_flats,
                               supersolvable_chain)
from modext.verify import verify_certificate

from oracles import brute_modular_joins, restrict
from samples import random_matroids


def test_no_joins_for_round_matroids(corpus):
    for name in ("u23", "fano", "k4", "bn-2"):
        m, lat = corpus(name)
        assert is_round(m, lattice=lat).round
        assert find_modular_joins(m, lattice=lat) == []


def test_example_13_join(corpus):
    m, lat = corpus("example-13")
    joins = find_modular_joins(m, lattice=lat)
    assert joins, "expected at least one decomposition"
    wanted = [d for d in joins if d.x == mask_of([0])]
    assert wanted
    d = wanted[0]
    assert d.e1 | d.e2 == lat.top and d.e1 & d.e2 == d.x
    assert d.x_round
    assert is_modular_flat(m, d.e1, lattice=lat)
    assert is_modular_flat(m, d.e2, lattice=lat)


def test_ziegler_19_join_over_three_point_flat(corpus):
    m, lat = corpus("ziegler-19")
    joins = find_modular_joins(m, lattice=lat)
    assert any(atom_tuple(d.x) == (0, 1, 2) for d in joins)


def test_product_identity_all_joins(corpus):
    for name in ("example-13", "ziegler-19", "example-7", "c4", "u34",
                 "fish-sign", "dn-4"):
        m, lat = corpus(name)
        for d in find_modular_joins(m, lattice=lat):
            assert brylawski_identity_check(m, d, lattice=lat), name


def test_product_identity_is_the_stated_equation(corpus):
    m, lat = corpus("example-13")
    d = [j for j in find_modular_joins(m, lattice=lat)
         if j.x == mask_of([0])][0]
    chi = lat.charpoly()
    chi_x = lat.interval_charpoly(lat.bottom, d.x)
    chi_1 = lat.interval_charpoly(lat.bottom, d.e1)
    chi_2 = lat.interval_charpoly(lat.bottom, d.e2)
    assert chi * chi_x == chi_1 * chi_2


def test_me_certificates_shape(corpus):
    m, lat = corpus("example-13")
    cert = me_certify(m, lattice=lat)
    assert isinstance(cert, ModularJoinCertificate)
    assert cert.x == mask_of([0])
    assert atom_tuple(cert.e1) == tuple(range(7))
    assert atom_tuple(cert.e2) == (0,) + tuple(range(7, 13))

    m, lat = corpus("fano")
    cert = me_certify(m, lattice=lat)
    assert isinstance(cert, ModularCoatomCertificate)

    empty = graphic_matroid(0, [])
    assert isinstance(me_certify(empty), EmptyCertificate)


def test_me_rejections(corpus):
    for name in ("u34", "dn-4", "c4", "c5", "fish-sign"):
        m, lat = corpus(name)
        assert me_certify(m, lattice=lat) is None, name


def test_me_acceptances(corpus):
    for name in ("u23", "fano", "k5", "bn-3", "q2-z3", "q3-z3", "braid-4",
                 "example-7", "ziegler-11", "ziegler-19", "bowtie-frame",
                 "bowtie-lift", "example-13"):
        m, lat = corpus(name)
        assert me_certify(m, lattice=lat) is not None, name


def test_me_certificates_verify(corpus):
    for name in ("u23", "fano", "example-13", "ziegler-19", "bowtie-frame",
                 "bn-3", "example-7"):
        m, lat = corpus(name)
        cert = me_certify(m, lattice=lat)
        report = verify_certificate(m, cert, lattice=lat)
        assert report.ok, (name, report.failures)


@pytest.mark.parametrize("name,x_atoms,expected", [
    ("example-13", (0,), (3, 4, 6)),
    ("ziegler-19", (0, 1, 2), (8, 9, 10)),
])
def test_join_divisional_lift(corpus, name, x_atoms, expected):
    m, lat = corpus(name)
    d = [j for j in find_modular_joins(m, lattice=lat)
         if atom_tuple(j.x) == x_atoms][0]
    m1 = restrict(m, d.e1)
    e1_atoms = atom_tuple(d.e1)
    divisional = tuple(
        parent for parent in e1_atoms
        if parent not in x_atoms
        and is_divisional_atom(m1, e1_atoms.index(parent))[0]
    )
    assert divisional == expected
    # every divisional atom of M|E1 outside X lifts to a divisional atom of M
    for parent in divisional:
        assert join_divisional_lift_check(m, d, parent)
        assert is_divisional_atom(m, parent, lattice=lat)[0]


def test_minor_charpolys_are_lattice_intervals(corpus, monkeypatch):
    # is_divisional_atom and the lift check read the lattice they are
    # given; without one, the lift check builds only the lattice of m
    m, lat = corpus("ziegler-19")
    d = [j for j in find_modular_joins(m, lattice=lat)
         if atom_tuple(j.x) == (0, 1, 2)][0]
    built = []
    init = FlatLattice.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(FlatLattice, "__init__", counting)
    for a in range(m.n):
        is_divisional_atom(m, a, lattice=lat)
    assert built == []
    assert join_divisional_lift_check(m, d, 8)
    assert len(built) == 1
    assert join_divisional_lift_check(m, d, 8, lattice=lat)
    assert len(built) == 1


def test_join_divisional_lift_rejects_bad_atoms(corpus):
    m, lat = corpus("ziegler-19")
    d = [j for j in find_modular_joins(m, lattice=lat)
         if atom_tuple(j.x) == (0, 1, 2)][0]
    with pytest.raises(InvalidInput):
        join_divisional_lift_check(m, d, 0)  # inside X
    with pytest.raises(InvalidInput):
        join_divisional_lift_check(m, d, 11)  # on the E2 side
    with pytest.raises(InvalidInput):
        join_divisional_lift_check(m, d, 3)  # in E1 - X but not divisional
    for e in (-1, m.n):  # outside the ground set
        with pytest.raises(InvalidInput, match=f"^atom {e} outside ground set of size 19$"):
            join_divisional_lift_check(m, d, e)


def test_join_divisional_lift_on_non_simple_matroids():
    # K4 minus an edge is the parallel connection of the triangles 012 and
    # 134 over edge 1; atom 5 is a loop, or an edge parallel to edge 0, so
    # the bare atom 0 is not a flat and the check must contract cl(0)
    k4e = graphic_matroid(4, [(0, 2), (0, 1), (1, 2), (0, 3), (1, 3)])
    # label -> (atom 5 folded onto the graph, the atoms of E1 - X to check)
    extras = {"loop": (lambda s: s & 31, (0,)),
              "parallel": (lambda s: s & 31 | s >> 5 & 1, (0, 5))}
    for label, (fold, atoms) in extras.items():
        m = Matroid(6, lambda s, fold=fold: k4e.rank(fold(s)))
        lat = enumerate_flats(m)
        assert m.closure(m.atom_bit(0)) == mask_of([0, 5]), label
        d = next(j for j in find_modular_joins(m, lattice=lat) if j.e1 & 1)
        assert atom_tuple(d.x & ~lat.bottom) == (1,), label
        for e in atoms:
            assert join_divisional_lift_check(m, d, e), (label, e)
            assert join_divisional_lift_check(m, d, e, lattice=lat), (label, e)


def test_searches_leave_no_reference_cycle():
    # with the cyclic collector off, the matroid and its lattice must be
    # freed as soon as the last reference to them goes
    for search in (supersolvable_chain, divisional_flag, me_certify):
        gc.disable()
        try:
            m = corpus_matroid("example-13")
            lat = enumerate_flats(m)
            search(m, lattice=lat)
            refs = weakref.ref(m), weakref.ref(lat)
            del m, lat
            assert [r() for r in refs] == [None, None], search.__name__
        finally:
            gc.enable()


def test_joins_in_context_match_all_pairs_reference(corpus, all_corpus_names):
    # the partner scan starts at the rank bound r(ctx) - r(e1) and must
    # find the same joins, in the same order, as trying every pair
    samples = [(name, corpus(name)) for name in all_corpus_names
               if len(corpus(name)[1]) <= 250]
    samples += [(i, (m, enumerate_flats(m))) for i, m in enumerate(random_matroids())]
    for label, (m, lat) in samples:
        for ctx in lat.flats():
            got = [(d.e1, d.e2, d.x, d.x_round) for d in modular_joins_in_context(lat, ctx)]
            assert got == brute_modular_joins(m, lat.below(ctx)), (label, ctx)


def test_join_construction_from_pieces(corpus):
    # restricting example-13 to either side of its join gives matroids that
    # certify on their own, matching the class closure statement
    m, lat = corpus("example-13")
    cert = me_certify(m, lattice=lat)
    for side in (cert.e1, cert.e2):
        sub = restrict(m, side)
        assert me_certify(sub) is not None


@pytest.mark.parametrize("name", ["ziegler-19", "example-13"])
def test_the_prover_runs_no_rank_equation_scan(monkeypatch, name):
    m = corpus_matroid(name)
    lat = enumerate_flats(m)
    scanned = Counter()
    scan = modularity.violating_flat_in_context

    def counting(lat_, z, ctx):
        scanned[z, ctx] += 1
        return scan(lat_, z, ctx)

    for module in ("modularity", "joins", "divisional", "verify"):
        monkeypatch.setattr(f"modext.{module}.violating_flat_in_context", counting)
    mods = set(modular_flats(m, lattice=lat))
    find_modular_joins(m, lattice=lat)
    supersolvable_chain(m, lattice=lat)
    me_certify(m, lattice=lat)
    assert not scanned
    # a verdict of is_modular_flat scans only to name a non-modular flat's witness
    for f in lat.flats():
        w = is_modular_flat(m, f, lattice=lat)
        assert bool(w) == (f in mods)
        assert scanned == ({} if w else {(f, lat.top): 1})
        assert w.violating_flat == (None if w else scan(lat, f, lat.top))
        scanned.clear()
    assert len(mods) < len(lat)


@pytest.mark.parametrize("name", ["ziegler-19", "example-13", "k5"])
def test_modular_verdicts_are_decided_once_per_context(monkeypatch, name):
    m = corpus_matroid(name)
    lat = enumerate_flats(m)
    passes = Counter()
    decide = modularity._decide_levels

    def counting(lat_, ctx, lo, hi):
        passes[ctx, lo, hi] += 1
        return decide(lat_, ctx, lo, hi)

    monkeypatch.setattr(modularity, "_decide_levels", counting)
    mods = modular_flats(m, lattice=lat)
    # one pass per level pair {lo, hi} at the top, lo + hi = rank + 1, 2 <= lo <= hi
    assert passes == {(lat.top, lo, lat.rank + 1 - lo): 1
                      for lo in range(2, (lat.rank + 1) // 2 + 1)}
    before = Counter(passes)
    joins = find_modular_joins(m, lattice=lat)
    assert passes == before
    me_certify(m, lattice=lat)
    supersolvable_chain(m, lattice=lat)
    me_certify(m, lattice=lat)
    assert set(passes.values()) == {1}
    # the coatom peels of the ME and chain searches add only the pass of a
    # context's coatom level, pairing it with its rank-2 flats
    peeled = passes - before
    assert peeled and all(ctx != lat.top and (lo, hi) == (2, lat.rank_of[ctx] - 1)
                          for ctx, lo, hi in peeled)
    assert mods == tuple(f for f in lat.flats()
                         if modularity.violating_flat_in_context(lat, f, lat.top) is None)
    assert joins == find_modular_joins(m, lattice=enumerate_flats(m))
    assert modularity.modular_flats_in_context(lat, lat.top) is mods
