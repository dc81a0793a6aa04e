"""Certificate verification: honest certificates pass, tampered ones say why."""

from itertools import combinations

import pytest

from modext import modularity
from modext.algebra import IntPolynomial
from modext.certificates import (ChainCertificate, DivisionalFlag,
                                 EmptyCertificate, FlagCertificate,
                                 ModularCoatomCertificate,
                                 ModularJoinCertificate,
                                 certificate_from_json)
from modext.corpus import corpus_matroid
from modext.divisional import divisional_flag, stanley_division_check
from modext.errors import InvalidInput, NotModular
from modext.joins import me_certify
from modext.lattice import enumerate_flats
from modext.matroid import Matroid, graphic_matroid, mask_of
from modext.modularity import (is_modular_flat, missed_line, supersolvable_chain,
                               violating_flat_in_context)
from modext.verify import verify_certificate

from oracles import coatom_pairing, reference_lattice
from samples import non_simple_gf3_matroids, random_matroids


def _single_failure(report):
    assert not report.ok
    assert len(report.failures) == 1
    return report.failures[0]


class TestHonestCertificates:
    def test_me_certificates_verify(self, corpus):
        for name in ("fano", "k4", "example-13", "ziegler-19", "bn-3"):
            m, lat = corpus(name)
            cert = me_certify(m, lattice=lat)
            assert cert is not None
            report = verify_certificate(m, cert, lattice=lat)
            assert report.ok and report.failures == ()

    def test_empty_certificate_on_empty_matroid(self):
        m = Matroid(0, lambda mask: 0)
        assert verify_certificate(m, EmptyCertificate()).ok

    def test_chain_certificates_verify(self, corpus):
        for name in ("fano", "braid-4", "ziegler-11", "bowtie-lift"):
            m, lat = corpus(name)
            cert = supersolvable_chain(m, lattice=lat)
            assert cert is not None
            assert verify_certificate(m, cert, lattice=lat).ok

    def test_flag_certificates_verify(self, corpus):
        for name in ("dn-4", "example-13", "fano"):
            m, lat = corpus(name)
            flag = divisional_flag(m, lattice=lat)
            assert flag is not None
            assert verify_certificate(m, FlagCertificate(flag), lattice=lat).ok

    def test_report_json_shape(self, corpus):
        m, lat = corpus("u23")
        report = verify_certificate(m, EmptyCertificate(), lattice=lat)
        data = report.to_json()
        assert data["ok"] is False
        assert data["failures"][0]["path"] == "$"
        assert "empty certificate" in data["failures"][0]["reason"]

    def test_json_round_trip_still_verifies(self, corpus):
        for name in ("example-13", "fano", "ziegler-19"):
            m, lat = corpus(name)
            cert = me_certify(m, lattice=lat)
            back = certificate_from_json(cert.to_json())
            assert verify_certificate(m, back, lattice=lat).ok
        with pytest.raises(InvalidInput):
            certificate_from_json({"kind": "modular-coatom"})
        with pytest.raises(InvalidInput):
            certificate_from_json({"kind": "telepathy"})
        with pytest.raises(InvalidInput):
            certificate_from_json("empty")


class TestTamperedCoatomCertificates:
    def test_coatom_not_a_flat(self, corpus):
        m, lat = corpus("fano")
        cert = me_certify(m, lattice=lat)
        assert isinstance(cert, ModularCoatomCertificate)
        # two collinear fano points span a third: a pair is never closed
        bad = ModularCoatomCertificate(mask_of([0, 1]), cert.child)
        path, reason = _single_failure(verify_certificate(m, bad, lattice=lat))
        assert path == "$" and "is not a flat" in reason

    def test_coatom_not_covering(self, corpus):
        m, lat = corpus("fano")
        cert = me_certify(m, lattice=lat)
        bad = ModularCoatomCertificate(mask_of([0]), cert.child)
        path, reason = _single_failure(verify_certificate(m, bad, lattice=lat))
        assert path == "$" and "is not covered by" in reason

    def test_coatom_not_modular(self, corpus):
        m, lat = corpus("c4")
        # opposite edges of a 4-cycle form a coatom that fails the rank
        # equation against the other opposite pair
        z = mask_of([0, 2])
        assert z in lat and lat.rank_of[z] == 2
        child = ChainCertificate((0, mask_of([0]), z))
        cert = ModularCoatomCertificate(z, child)
        report = verify_certificate(m, cert, lattice=lat)
        path, reason = _single_failure(report)
        assert path == "$"
        assert "coatom" in reason and "not modular within" in reason

    def test_failure_paths_descend(self, corpus):
        m, lat = corpus("fano")
        cert = me_certify(m, lattice=lat)
        # break the grandchild: swap its chain for one ending at some other
        # rank-1 flat than the one the parent names
        ctx = cert.child.coatom
        other = mask_of([next(a for a in range(m.n) if not ctx >> a & 1)])
        bad_child = ModularCoatomCertificate(cert.child.coatom,
                                             ChainCertificate((0, other)))
        bad = ModularCoatomCertificate(cert.coatom, bad_child)
        report = verify_certificate(m, bad, lattice=lat)
        assert not report.ok
        path, reason = report.failures[0]
        assert path == "$/child/child"
        assert "must run from the empty flat" in reason


class TestTamperedJoinCertificates:
    def test_wrong_intersection(self, corpus):
        m, lat = corpus("example-13")
        cert = me_certify(m, lattice=lat)
        assert isinstance(cert, ModularJoinCertificate)
        bad = ModularJoinCertificate(cert.e1, cert.e2, mask_of([0, 1]),
                                     cert.child1, cert.child2)
        report = verify_certificate(m, bad, lattice=lat)
        assert not report.ok
        assert any(path == "$" and "is not the intersection of the sides" in r
                   for path, r in report.failures)

    def test_sides_do_not_cover(self, corpus):
        m, lat = corpus("example-13")
        cert = me_certify(m, lattice=lat)
        bad = ModularJoinCertificate(cert.e1, mask_of([0]), cert.x,
                                     cert.child1, cert.child2)
        report = verify_certificate(m, bad, lattice=lat)
        path, reason = report.failures[0]
        assert path == "$" and "do not cover" in reason

    def test_side_equal_to_whole(self, corpus):
        m, lat = corpus("example-13")
        cert = me_certify(m, lattice=lat)
        bad = ModularJoinCertificate(lat.top, cert.e2, cert.x,
                                     cert.child1, cert.child2)
        report = verify_certificate(m, bad, lattice=lat)
        path, reason = report.failures[0]
        assert path == "$" and "must be proper flats" in reason

    def test_non_round_intersection(self):
        # the boolean matroid of a 4-edge path: every subset is a flat and
        # every flat is modular, so only roundness of x can fail
        m = graphic_matroid(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        chain1 = ChainCertificate((0, mask_of([0]), mask_of([0, 1]),
                                   mask_of([0, 1, 2])))
        chain2 = ChainCertificate((0, mask_of([1]), mask_of([1, 2]),
                                   mask_of([1, 2, 3])))
        cert = ModularJoinCertificate(
            mask_of([0, 1, 2]), mask_of([1, 2, 3]), mask_of([1, 2]),
            chain1, chain2)
        path, reason = _single_failure(verify_certificate(m, cert))
        assert path == "$"
        assert "is not round" in reason and "union of" in reason

    def test_children_verified_in_their_context(self, corpus):
        m, lat = corpus("example-13")
        cert = me_certify(m, lattice=lat)
        bad = ModularJoinCertificate(cert.e1, cert.e2, cert.x,
                                     cert.child1, EmptyCertificate())
        report = verify_certificate(m, bad, lattice=lat)
        path, reason = _single_failure(report)
        assert path == "$/e2" and "empty certificate" in reason


class TestTamperedChainCertificates:
    def test_wrong_endpoints(self, corpus):
        m, lat = corpus("fano")
        cert = supersolvable_chain(m, lattice=lat)
        bad = ChainCertificate(cert.flats[:-1])
        path, reason = _single_failure(verify_certificate(m, bad, lattice=lat))
        assert path == "$" and "must run from the empty flat" in reason
        bad = ChainCertificate(cert.flats[1:])
        path, reason = _single_failure(verify_certificate(m, bad, lattice=lat))
        assert "must run from the empty flat" in reason

    def test_gap_is_not_a_cover(self, corpus):
        m, lat = corpus("braid-4")
        cert = supersolvable_chain(m, lattice=lat)
        bad = ChainCertificate(cert.flats[:1] + cert.flats[2:])
        report = verify_certificate(m, bad, lattice=lat)
        assert not report.ok
        assert any("is not a cover" in reason for _, reason in report.failures)

    def test_non_flat_member(self, corpus):
        m, lat = corpus("fano")
        cert = supersolvable_chain(m, lattice=lat)
        bad = ChainCertificate((cert.flats[0], mask_of([0, 1])) + cert.flats[2:])
        report = verify_certificate(m, bad, lattice=lat)
        path, reason = _single_failure(report)
        assert path == "$" and "chain[1]" in reason and "is not a flat" in reason

    def test_non_modular_member(self, corpus):
        m, lat = corpus("k4")
        # a perfect matching is a flat but fails the rank equation against
        # the complementary matching
        bad = ChainCertificate((0, mask_of([0]), mask_of([0, 5]), lat.top))
        report = verify_certificate(m, bad, lattice=lat)
        path, reason = _single_failure(report)
        assert path == "$"
        assert "chain[2]" in reason and "not modular within" in reason


    def test_non_modular_step_below_the_top(self):
        # in K5 a matching is not modular within the K4 above it, and that
        # K4 is modular within K5; with a triangle for the matching every
        # step is modular, so by the tower property every member is too
        edges = list(combinations(range(5), 2))
        m = graphic_matroid(5, edges)
        lat = enumerate_flats(m)

        def flat(*pairs):
            return mask_of(edges.index(e) for e in pairs)

        k4 = flat(*combinations(range(4), 2))
        matching = (0, flat((0, 1)), flat((0, 1), (2, 3)), k4, lat.top)
        report = verify_certificate(m, ChainCertificate(matching), lattice=lat)
        path, reason = _single_failure(report)
        assert reason == ("chain[2] {0,7} is not modular within {0,1,2,4,5,7}: "
                          "the line through 1 and 5 misses it")
        triangle = (0, flat((0, 1)), flat((0, 1), (0, 2), (1, 2)), k4, lat.top)
        assert verify_certificate(m, ChainCertificate(triangle), lattice=lat).ok
        for f in triangle:
            assert violating_flat_in_context(lat, f, lat.top) is None


def _chain_through(lat, children, z, ctx):
    """A saturated chain from the bottom through z and a flat ctx covering
    it up to the top, down through the first reference child of each
    flat."""
    down = [z]
    while down[-1] != lat.bottom:
        down.append(children[down[-1]][0])
    up = [ctx]
    while up[-1] != lat.top:
        up.append(lat.covers[up[-1]][0])
    return tuple(reversed(down)) + tuple(up)


def _assert_coatom_check_matches_rank_scan(label, m, lat):
    children = reference_lattice(m)[1]
    for ctx in lat.flats():
        for z in children[ctx]:
            modular = violating_flat_in_context(lat, z, ctx) is None
            chain = _chain_through(lat, children, z, ctx)
            step = f"chain[{chain.index(z)}] "
            report = verify_certificate(m, ChainCertificate(chain), lattice=lat)
            assert modular != any(r.startswith(step) for _, r in report.failures), \
                (label, z, ctx)
            if ctx == lat.top:
                cert = ModularCoatomCertificate(z, EmptyCertificate())
                report = verify_certificate(m, cert, lattice=lat)
                assert modular != any(p == "$" for p, _ in report.failures), (label, z)


class TestCoatomCheckMatchesRankScan:
    """The verifier's triangle test of a coatom within a flat, run on every
    cover step of a chain and on a top-level modular-coatom node, agrees
    with the rank equation."""

    def test_corpus(self, corpus, all_corpus_names):
        for name in all_corpus_names:
            m, lat = corpus(name)
            if len(lat) <= 250:
                _assert_coatom_check_matches_rank_scan(name, m, lat)

    def test_random_and_non_simple_matroids(self):
        for i, m in enumerate(random_matroids() + non_simple_gf3_matroids()):
            _assert_coatom_check_matches_rank_scan(i, m, enumerate_flats(m))


class TestTamperedFlagCertificates:
    def _flag(self, corpus, name):
        m, lat = corpus(name)
        return m, lat, divisional_flag(m, lattice=lat)

    def test_wrong_quotient_root(self, corpus):
        m, lat, flag = self._flag(corpus, "dn-4")
        roots = list(flag.quotient_roots)
        roots[0] += 1
        bad = FlagCertificate(DivisionalFlag(flag.flats, tuple(roots)))
        report = verify_certificate(m, bad, lattice=lat)
        path, reason = _single_failure(report)
        assert path == "$"
        assert "flag step 0" in reason and f"(t - {roots[0]})" in reason

    def test_wrong_root_count(self, corpus):
        m, lat, flag = self._flag(corpus, "example-13")
        bad = FlagCertificate(DivisionalFlag(flag.flats, flag.quotient_roots[:-1]))
        path, reason = _single_failure(verify_certificate(m, bad, lattice=lat))
        assert "one quotient root per step" in reason

    def test_skipped_step(self, corpus):
        m, lat, flag = self._flag(corpus, "example-13")
        bad = FlagCertificate(DivisionalFlag(
            flag.flats[:2] + flag.flats[3:], flag.quotient_roots[1:]))
        path, reason = _single_failure(verify_certificate(m, bad, lattice=lat))
        assert "is not a cover" in reason

    def test_wrong_endpoints(self, corpus):
        m, lat, flag = self._flag(corpus, "fano")
        bad = FlagCertificate(DivisionalFlag(flag.flats[:-1],
                                             flag.quotient_roots[:-1]))
        path, reason = _single_failure(verify_certificate(m, bad, lattice=lat))
        assert "must run from the empty flat" in reason


def test_unknown_certificate_node(corpus):
    m, lat = corpus("u23")
    with pytest.raises(InvalidInput):
        verify_certificate(m, object(), lattice=lat)


class TestCheckersReadNoProverVerdicts:
    """With the prover's modularity verdict forced to "modular", the
    checkers still run their own rank-equation scan."""

    @pytest.fixture
    def fooled(self, monkeypatch):
        m = corpus_matroid("k4")
        lat = enumerate_flats(m)
        monkeypatch.setattr(modularity, "is_modular_in_context", lambda lat, z, ctx: True)
        matching = mask_of([0, 5])
        assert is_modular_flat(m, matching, lattice=lat)  # the prover is fooled
        return m, lat, matching

    def test_non_modular_chain_member_still_rejected(self, fooled):
        m, lat, matching = fooled
        bad = ChainCertificate((0, mask_of([0]), matching, lat.top))
        path, reason = _single_failure(verify_certificate(m, bad, lattice=lat))
        assert "chain[2]" in reason and "not modular within" in reason

    def test_stanley_division_check_still_raises(self, fooled):
        m, lat, matching = fooled
        with pytest.raises(NotModular):
            stanley_division_check(m, matching, lattice=lat)


def _tampered(cert):
    """A broken copy of a certificate: a chain's first two proper flats
    swapped, a flag's first root off by one, or an ME certificate's top
    step ending in the empty certificate."""
    if isinstance(cert, ChainCertificate):
        f = list(cert.flats)
        f[1], f[2] = f[2], f[1]
        return ChainCertificate(tuple(f))
    if isinstance(cert, FlagCertificate):
        roots = list(cert.flag.quotient_roots)
        roots[0] += 1
        return FlagCertificate(DivisionalFlag(cert.flag.flats, tuple(roots)))
    if isinstance(cert, ModularCoatomCertificate):
        return ModularCoatomCertificate(cert.coatom, EmptyCertificate())
    return ModularJoinCertificate(cert.e1, cert.e2, cert.x, EmptyCertificate(), cert.child2)


def _certificates(m, lat):
    """Every certificate the provers find, each followed by its tampered copy
    and by itself again; none below rank 2, where a chain has no two proper
    flats to swap."""
    if lat.rank < 2:
        return []
    certs = [supersolvable_chain(m, lattice=lat), me_certify(m, lattice=lat)]
    flag = divisional_flag(m, lattice=lat)
    certs.append(None if flag is None else FlagCertificate(flag))
    return [c for cert in certs if cert is not None for c in (cert, _tampered(cert), cert)]


class TestVerifierMemo:
    """`verify` checks each cover step and flag step once per lattice; what
    it keeps is its own, so every report is the one a fresh lattice gives,
    and the prover's caches cannot change it."""

    NAMES = ("fano", "braid-4", "example-13", "dn-4", "ziegler-11", "bowtie-lift",
             "q3-z3", "ziegler-19")

    def test_reports_match_fresh_lattices(self, corpus):
        for name in self.NAMES:
            m, _ = corpus(name)
            lat = enumerate_flats(m)
            certs = _certificates(m, lat)
            assert certs, name
            for i, cert in enumerate(certs):
                got = verify_certificate(m, cert, lattice=lat)
                fresh = verify_certificate(m, cert, lattice=enumerate_flats(m))
                assert got.failures == fresh.failures, (name, i)
                assert got.ok == (i % 3 != 1), (name, i)
            assert lat._verified, name

    def test_poisoned_prover_caches_change_no_report(self, corpus):
        wrong = IntPolynomial((7, 1))
        for name in self.NAMES:
            m, _ = corpus(name)
            lat = enumerate_flats(m)
            certs = _certificates(m, lat)
            expected = [verify_certificate(m, c, lattice=enumerate_flats(m)) for c in certs]
            for used in (lat, enumerate_flats(m)):
                for f in used.flats():
                    used._upper[f] = used._lower[f] = wrong
                assert [verify_certificate(m, c, lattice=used) for c in certs] == expected, name


def _lying(classes_fn):
    """`classes_fn` with the lowest atom of its first cover moved to the
    second, and its last cover emptied."""
    def classes(subset, candidates):
        groups = dict(classes_fn(subset, candidates))
        keys = [k for k in groups if k != 0]
        if len(keys) >= 2:
            moved = groups[keys[0]] & -groups[keys[0]]
            groups[keys[0]] ^= moved
            groups[keys[1]] |= moved
        if keys:
            groups[keys[-1]] = 0
        return groups

    return classes


def _merging(classes_fn):
    """`classes_fn` with its first two covers merged into one class."""
    def classes(subset, candidates):
        groups = dict(classes_fn(subset, candidates))
        keys = [k for k in groups if k != 0]
        if len(keys) >= 2:
            groups[keys[0]] |= groups.pop(keys[1])
        return groups

    return classes


def _splitting(classes_fn):
    """`classes_fn` with the lowest atom of each cover split off into a
    class of its own."""
    def classes(subset, candidates):
        groups = dict(classes_fn(subset, candidates))
        for k in [k for k in groups if k != 0]:
            low = groups[k] & -groups[k]
            if groups[k] != low:
                groups[k] ^= low
                groups["split", k] = low
        return groups

    return classes


def _misleading(classes_fn):
    """`classes_fn` with the lowest atom of the other covers added to each
    cover: an atom off the line, which the triangle test meets first on it
    whenever that atom lies in the lower flat below the line's own."""
    def classes(subset, candidates):
        groups = dict(classes_fn(subset, candidates))
        keys = [k for k in groups if k != 0]
        covered = 0
        for k in keys:
            covered |= groups[k]
        for k in keys:
            others = covered & ~groups[k]
            groups[k] |= others & -others
        return groups

    return classes


def _triangle_results(m, lat, children):
    """Every triangle verdict, pairing and verify report on a lattice: per
    coatom, and per cover step through a chain, plus every certificate."""
    out = []
    for x in lat.coatoms():
        out.append(missed_line(lat, x, lat.top))
        try:
            out.append(coatom_pairing(m, x))
        except ValueError as e:
            out.append(str(e))
    for ctx in lat.flats():
        for z in children[ctx]:
            chain = _chain_through(lat, children, z, ctx)
            out.append(verify_certificate(m, ChainCertificate(chain), lattice=lat))
    out.extend(verify_certificate(m, c, lattice=lat) for c in _certificates(m, lat))
    return out


def test_lying_kernel_changes_no_verdict(corpus, all_corpus_names, monkeypatch):
    # the kernel only proposes the lines the triangle test asks about; the
    # rank oracle decides, so a kernel that misplaces one atom and loses a
    # whole class, merges two lines, splits each line, or puts an atom off
    # a line on it changes no verdict, pairing or report
    samples = [corpus_matroid(name) for name in all_corpus_names
               if len(corpus(name)[1]) <= 250]
    samples += random_matroids() + non_simple_gf3_matroids()
    for i, m in enumerate(samples):
        children = reference_lattice(m)[1]
        expected = _triangle_results(m, enumerate_flats(m), children)
        honest = m._classes_fn
        for lie in (_lying, _merging, _splitting, _misleading):
            lied_to = enumerate_flats(m)
            monkeypatch.setattr(m, "_classes_fn", lie(honest))
            assert _triangle_results(m, lied_to, children) == expected, (i, lie.__name__)
            monkeypatch.setattr(m, "_classes_fn", honest)


def test_prover_mutant_chain_is_rejected(corpus, all_corpus_names, monkeypatch):
    # with every flat read as modular, the peel returns a chain on inputs
    # that have none, and the verifier must reject it
    def everything_modular(lat, ctx, lo, hi):
        for k in (lo, hi):
            lat._verdicts[ctx, k] = modularity._below_positions(lat, ctx, k)

    names = [name for name in all_corpus_names
             if supersolvable_chain(*corpus(name)) is None and len(corpus(name)[1]) <= 250]
    assert names
    monkeypatch.setattr(modularity, "_decide_levels", everything_modular)
    for name in names:
        m = corpus_matroid(name)
        lat = enumerate_flats(m)
        chain = supersolvable_chain(m, lattice=lat)
        assert chain is not None, name
        report = verify_certificate(m, chain, lattice=lat)
        assert not report.ok, name
        assert any("is not modular within" in r for _, r in report.failures), name
