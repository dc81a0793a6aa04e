"""Acceptance gate: ten numbered end-to-end criteria.

Each test prints one `criterion N: PASS/FAIL` line (visible with -s, and
in the captured output on failure).  Criteria 1-3 carry wall-clock
budgets that are asserted, not just observed.
"""

import itertools
import random
import time

from modext.algebra import Field, FieldMatrix, IntPolynomial, poly_exact_div
from modext.arrangement import linear_matroid, pg_arrangement
from modext.certificates import ModularJoinCertificate
from modext.corpus import bowtie, corpus_matroid, corpus_names
from modext.errors import NotSimple
from modext.divisional import divisional_flag, stanley_division_check
from modext.gaingraph import (FiniteGroup, complete_gain_graph, frame_matroid,
                              lift_matroid, link_simplicial_vertices,
                              realize_frame_arrangement,
                              realize_lift_arrangement)
from modext.joins import (brylawski_identity_check, find_modular_joins,
                          me_certify)
from modext.lattice import enumerate_flats
from modext.matroid import atom_tuple, graphic_matroid, mask_of
from modext.modularity import (is_modular_flat, is_round, missed_line, modular_flats,
                               supersolvable_chain, violating_flat_in_context)

from oracles import (brute_chordal, brute_flats, brute_mobius, brute_modular, circuits,
                     popcount, rank_agreement, restrict, short_circuit_check,
                     whitney_charpoly_coeffs)

# The bowtie lift as a graph on P, Q, R, S, R', S' (vertices 0..5), edge i
# carrying atom i of bowtie-lift-9: two copies of K4 minus an edge glued
# along PQ, the edge of the atom z.
_BOWTIE_LIFT_GRAPH = [(0, 1), (1, 3), (2, 3), (1, 2), (0, 2),
                      (1, 5), (4, 5), (1, 4), (0, 4)]


def _report(number: int, ok: bool, detail: str):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _mobius_charpoly_coeffs(m):
    """Independent chi via Moebius summation over brute-forced flats."""
    mu = brute_mobius(m)
    r = m.rank((1 << m.n) - 1)
    coeffs = [0] * (r + 1)
    for f, value in mu.items():
        coeffs[r - m.rank(f)] += value
    return coeffs


def test_criterion_01_thirteen_hyperplane_example():
    started = time.monotonic()
    m = corpus_matroid("example-13")
    lat = enumerate_flats(m)
    assert lat.rank == 5

    cert = me_certify(m, lattice=lat)
    assert isinstance(cert, ModularJoinCertificate)
    assert atom_tuple(cert.x) == (0,) and lat.rank_of[cert.x] == 1
    assert m.labels[0] == "z"

    assert divisional_flag(m, lattice=lat) is not None
    assert supersolvable_chain(m, lattice=lat) is None

    chi = lat.charpoly()
    assert chi == IntPolynomial.from_roots([1, 3, 3, 3, 3])
    assert list(chi.coeffs) == _mobius_charpoly_coeffs(m)
    assert list(chi.coeffs) == whitney_charpoly_coeffs(m)

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(1, True, f"rank 5, join over the z atom, flag found, "
                     f"chi=(t-1)(t-3)^4 by two oracles, {elapsed:.2f}s")


def test_criterion_02_nineteen_hyperplane_ziegler():
    started = time.monotonic()
    m = corpus_matroid("ziegler-19")
    lat = enumerate_flats(m)

    cert = me_certify(m, lattice=lat)
    assert isinstance(cert, ModularJoinCertificate)
    assert atom_tuple(cert.x) == (0, 1, 2)
    assert lat.rank_of[cert.x] == 2 and m.rank(cert.x) == 2  # PG(1,2) flat

    assert divisional_flag(m, lattice=lat) is not None
    assert supersolvable_chain(m, lattice=lat) is None

    # both 11-atom halves are supersolvable, and the stated chain
    # x1 < {x1,x2} < {x1,x2,z1} < everything is modular throughout a half
    d = [j for j in find_modular_joins(m, lattice=lat)
         if atom_tuple(j.x) == (0, 1, 2)][0]
    for side in (d.e1, d.e2):
        half = restrict(m, side)
        assert supersolvable_chain(half) is not None
    half = corpus_matroid("ziegler-11")
    half_lat = enumerate_flats(half)
    stated = [mask_of(f) for f in
              ([3], [3, 4, 5], [0, 3, 4, 5, 6, 7, 8], list(range(11)))]
    for depth, flat in enumerate(stated):
        assert flat in half_lat and half_lat.rank_of[flat] == depth + 1
        assert violating_flat_in_context(half_lat, flat, half_lat.top) is None

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(2, True, f"join over PG(1,2), flag found, not supersolvable, "
                     f"both halves supersolvable via the stated chain, "
                     f"{elapsed:.2f}s")


def test_criterion_03_chordal_equivalence():
    started = time.monotonic()
    graphs = mismatches = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for pick in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if pick >> i & 1]
            graphs += 1
            chordal = brute_chordal(n, edges)
            m = graphic_matroid(n, edges)
            lat = enumerate_flats(m)
            verdicts = (
                supersolvable_chain(m, lattice=lat) is not None,
                me_certify(m, lattice=lat) is not None,
                divisional_flag(m, lattice=lat) is not None,
            )
            if verdicts != (chordal, chordal, chordal):
                mismatches += 1
    elapsed = time.monotonic() - started
    assert graphs == 1099
    assert elapsed < 300.0
    _report(3, mismatches == 0,
            f"{graphs} labeled graphs on <=5 vertices, "
            f"{mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_04_stanley_division(corpus):
    checks = 0
    for name in corpus_names():
        m, lat = corpus(name)
        chi = lat.charpoly()
        for x in modular_flats(m, lattice=lat):
            assert stanley_division_check(m, x, lattice=lat)
            restriction = lat.interval_charpoly(lat.bottom, x)
            assert poly_exact_div(chi, restriction) is not None
            checks += 1
    _report(4, True, f"chi(M|X) | chi(M) for {checks} modular flats "
                     f"across {len(corpus_names())} corpus members")


def test_criterion_05_brylawski_identity(corpus):
    decompositions = 0
    for name in corpus_names():
        m, lat = corpus(name)
        for d in find_modular_joins(m, lattice=lat):
            assert brylawski_identity_check(m, d, lattice=lat)
            lhs = lat.charpoly() * lat.interval_charpoly(lat.bottom, d.x)
            rhs = (lat.interval_charpoly(lat.bottom, d.e1)
                   * lat.interval_charpoly(lat.bottom, d.e2))
            assert lhs == rhs
            decompositions += 1
    _report(5, True, f"chi(M)*chi(M|X) = chi(M|E1)*chi(M|E2) for "
                     f"{decompositions} decompositions")


def test_criterion_06_realization_agreement():
    q = Field.rational()
    z3 = FiniteGroup.zmod(3)
    cases = []
    # the bowtie, with and without loops
    cases.append(("frame", bowtie(), q))
    cases.append(("frame", bowtie(loops=True), q))
    cases.append(("lift", bowtie(), Field.gf(2)))
    # complete gain graphs, n <= 3, three groups
    for n in (1, 2, 3):
        for group, frame_field, lift_field in (
                (FiniteGroup.trivial(), q, q),
                (FiniteGroup.sign(), q, Field.gf(2)),
                (z3, Field.gf(7), Field.gf(3))):
            g = complete_gain_graph(n, group)
            if g.num_atoms:
                cases.append(("frame", g, frame_field))
                cases.append(("lift", g, lift_field))
    # one deliberately oversized frame case: 18 atoms, sampled agreement
    cases.append(("frame", complete_gain_graph(4, z3), Field.gf(7)))

    checked = disagreements = sampled = 0
    for model, g, field in cases:
        if model == "frame":
            matroid = frame_matroid(g)
            arr = realize_frame_arrangement(g, field)
        else:
            matroid = lift_matroid(g)
            arr = realize_lift_arrangement(g, field)
        report = rank_agreement(matroid, arr.dependence_matroid())
        if not report["agree"]:
            disagreements += 1
        if report["mode"] == "sampled":
            sampled += 1
            assert report["checked"] >= 10 ** 4
        else:
            assert matroid.n <= 14
        checked += report["checked"]
    _report(6, disagreements == 0,
            f"{len(cases)} realizations, {checked} subsets compared "
            f"({sampled} sampled case), {disagreements} disagreements")


def test_criterion_07_roundness_table():
    exceptions = []
    grid = [(n, gname, group, loops)
            for n in (1, 2, 3)
            for gname, group in (("trivial", FiniteGroup.trivial()),
                                 ("sign", FiniteGroup.sign()),
                                 ("z3", FiniteGroup.zmod(3)))
            for loops in (False, True)]
    for n, gname, group, loops in grid:
        g = complete_gain_graph(n, group, loops=loops)
        verdict = is_round(frame_matroid(g))
        expected = not (n == 2 and gname == "sign" and not loops)
        if bool(verdict) != expected:
            exceptions.append((n, gname, loops))
    _report(7, not exceptions,
            f"{len(grid)} frame matroids round except K_2^sign; "
            f"unexpected: {exceptions}")


def test_criterion_08_finite_fields(corpus):
    fano, fano_lat = corpus("fano")
    assert len(modular_flats(fano, lattice=fano_lat)) == len(fano_lat) == 16
    assert is_round(fano, lattice=fano_lat)
    assert supersolvable_chain(fano, lattice=fano_lat) is not None
    chi = fano_lat.charpoly()
    assert chi == IntPolynomial.from_roots([1, 2, 4])
    assert list(chi.coeffs) == whitney_charpoly_coeffs(fano)
    # and the Fano matroid really is the full rank-3 binary geometry
    assert rank_agreement(fano, pg_arrangement(2, 2).dependence_matroid())["agree"]

    d4, d4_lat = corpus("dn-4")
    modular_coatoms = [z for z in d4_lat.coatoms()
                       if violating_flat_in_context(d4_lat, z, d4_lat.top) is None]
    assert modular_coatoms == []
    assert me_certify(d4, lattice=d4_lat) is None
    _report(8, True, "PG(2,2): 16/16 modular flats, round, supersolvable, "
                     "chi=(t-1)(t-2)(t-4); D4: no modular coatoms, not me")


def test_criterion_09_bowtie_lift(corpus):
    m, lat = corpus("bowtie-lift-9")
    me = me_certify(m, lattice=lat) is not None
    flagged = divisional_flag(m, lattice=lat) is not None
    no_link_simplicial = link_simplicial_vertices(bowtie()) == []
    chain = supersolvable_chain(m, lattice=lat)
    print(f"criterion 9 partial: me={me} flagged={flagged} "
          f"link_simplicial_empty={no_link_simplicial} "
          f"chain={'none' if chain is None else 'found'}")
    assert me and flagged and no_link_simplicial
    # The lift is the cycle matroid of a chordal graph, so by Stanley (1972)
    # it is supersolvable and the chain search must find a chain.  A census of
    # every loopless bowtie with sign, Z3 or Z4 gains found no 9-atom lift
    # that is ME or divisional without being supersolvable; the bowtie member
    # that separates those classes is example-13 (criterion 1).  The chain is
    # re-checked here by the oracles alone: saturated, every member modular
    # against all brute-force flats, and its atom steps factor Whitney's chi.
    graphic = rank_agreement(m, graphic_matroid(6, _BOWTIE_LIFT_GRAPH))
    assert graphic == {"agree": True, "mode": "exhaustive", "checked": 512}
    assert brute_chordal(6, _BOWTIE_LIFT_GRAPH)
    ok = chain is not None
    if ok:
        flats = brute_flats(m)
        steps = [popcount(b & ~a) for a, b in zip(chain.flats, chain.flats[1:])]
        ok = ([m.rank(f) for f in chain.flats] == list(range(6))
              and all(brute_modular(m, f, flats) for f in chain.flats)
              and list(IntPolynomial.from_roots(steps).coeffs)
              == whitney_charpoly_coeffs(m))
    _report(9, ok, "me-certified, divisionally flagged, no link-simplicial "
                   "vertices; graphic on a chordal graph, and "
                   + ("supersolvable_chain is a saturated modular chain "
                      "with chi=(t-1)(t-2)^4" if ok else
                      "supersolvable_chain is missing or fails the oracles"))


def test_criterion_10_axiom_suites():
    rng = random.Random(2024)
    fields = (Field.rational(), Field.gf(2), Field.gf(3))
    built = 0
    while built < 200:
        field = fields[built % 3]
        nrows = rng.randint(2, 4)
        ncols = rng.randint(3, 10)
        if field.is_rational:
            rows = [[rng.randint(-3, 3) for _ in range(ncols)]
                    for _ in range(nrows)]
        else:
            rows = [[rng.randrange(field.p) for _ in range(ncols)]
                    for _ in range(nrows)]
        try:
            m = linear_matroid(FieldMatrix(field, rows))
        except NotSimple:
            continue
        built += 1
        n = m.n
        full = (1 << n) - 1
        ranks = {mask: m.rank(mask) for mask in range(full + 1)}
        closures = {mask: m.closure(mask) for mask in range(full + 1)}

        # rank axioms: normalization, unit increase, local submodularity
        assert ranks[0] == 0
        for mask in range(full + 1):
            r = ranks[mask]
            outside = [i for i in range(n) if not mask >> i & 1]
            for i in outside:
                step = ranks[mask | 1 << i]
                assert step in (r, r + 1)
            for i, j in itertools.combinations(outside, 2):
                if ranks[mask | 1 << i] == r == ranks[mask | 1 << j]:
                    assert ranks[mask | 1 << i | 1 << j] == r

        # closure axioms: extensive, idempotent, monotone in steps, exchange
        for mask in range(full + 1):
            cl = closures[mask]
            assert mask & ~cl == 0
            assert closures[cl] == cl
            for i in range(n):
                if not mask >> i & 1:
                    assert cl & ~closures[mask | 1 << i] == 0
            for i in range(n):
                if cl >> i & 1:
                    continue
                widened = closures[mask | 1 << i]
                for j in range(n):
                    if widened >> j & 1 and not cl >> j & 1:
                        assert closures[mask | 1 << j] >> i & 1

        # lattice identities
        lat = enumerate_flats(m)
        mu = lat.mobius()
        for f in lat.flats():
            if f != lat.bottom:
                assert sum(mu[g] for g in lat.below(f)) == 0
        chi = lat.charpoly()
        if lat.rank >= 1:
            assert chi(1) == 0

        # the three modularity criteria agree flat by flat
        circs = circuits(m)
        for f in lat.flats():
            by_rank = bool(is_modular_flat(m, f, lattice=lat))
            if f != lat.bottom:
                assert by_rank == (short_circuit_check(m, f, circs) is None)
            if lat.rank_of[f] == lat.rank - 1:
                assert by_rank == (missed_line(lat, f, lat.top) is None)
    _report(10, True, "rank/closure axioms, Moebius recursion, chi(1)=0, "
                      "and 3-way modularity agreement on 200 random linear "
                      "matroids over Q, GF(2), GF(3)")
