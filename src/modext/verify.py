"""Replay certificates against a matroid and report every broken claim.

Verification never raises on a bad certificate: each failed claim becomes
a (path, reason) entry, where the path addresses the certificate node
("$", "$/e1/child", ...).  A certificate is accepted only if every node
checks out against the matroid.

Modularity is re-derived from the rank oracle, not from the prover's meet
test: a modular coatom, and each cover step lo -> hi of a chain, by the
triangle test of lo within hi (`modularity.missed_line`, where the
matroid's kernel proposes the lines through each atom, one rank query
confirms each line, and a pair it does not confirm is asked alone), so
by the tower property every chain member is modular within the chain's
top; a join side by the rank-equation scan.  Flat membership and rank,
`below` and interval charpolys are still read from the prover's lattice:
a claimed coatom, like a chain step, is a cover when it lies inside its
flat one rank below it; a join's X is round by the prover's
`round_in_context`, which scans the level below X for containment; and
every charpoly comes from the lattice's Mobius values.  A flag's first
interval, [bottom, ctx], reads the values that enumeration folded into
its walk, which the prover's charpoly sums too (ctx is the top for a
flag certificate, so it is the charpoly itself); every other step runs
its own Weisner pass over its interval.

The verifier keeps its own memo on the lattice (`FlatLattice._verified`),
which nothing else reads or writes: per cover step, the first pair of
atoms whose line misses the lower flat, or None, and per flag step the
raw interval charpoly.  So the ME certificate's coatom steps and a
tampered certificate reuse what the genuine ones checked on the same
lattice.  It never reads the prover's `_upper`, `_lower` or `_verdicts`.
"""

from __future__ import annotations

from .algebra import IntPolynomial
from .certificates import (
    ChainCertificate,
    EmptyCertificate,
    FlagCertificate,
    ModularCoatomCertificate,
    ModularJoinCertificate,
)
from .errors import Frozen, InvalidInput
from .lattice import FlatLattice, enumerate_flats
from .matroid import Matroid, atom_tuple
from .modularity import missed_line, round_in_context, violating_flat_in_context


class VerificationReport(Frozen):
    ok: bool
    failures: tuple

    def __init__(self, ok, failures):
        self.__dict__.update(ok=ok, failures=failures)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "failures": [{"path": p, "reason": r} for p, r in self.failures],
        }


def verify_certificate(m: Matroid, cert, lattice: FlatLattice | None = None
                       ) -> VerificationReport:
    """Check every claim of a certificate tree against the matroid: the
    modularity claims against its rank oracle, the rest against its
    lattice (by default enumerated afresh)."""
    lat = lattice if lattice is not None else enumerate_flats(m)
    failures = []
    _verify(lat, cert, lat.top, "$", failures)
    return VerificationReport(not failures, tuple(failures))


def _fail(failures, path, reason):
    failures.append((path, reason))


def _flat_str(flat: int) -> str:
    return "{" + ",".join(str(a) for a in atom_tuple(flat)) + "}"


def _check_flat(lat, flat, path, failures, what) -> bool:
    if flat in lat:
        return True
    _fail(failures, path, f"{what} {_flat_str(flat)} is not a flat")
    return False


def _not_modular(failures, path, what, flat, ctx, why):
    _fail(failures, path,
          f"{what} {_flat_str(flat)} is not modular within {_flat_str(ctx)}: {why}")


def _check_modular_in(lat, flat, ctx, path, failures, what):
    bad = violating_flat_in_context(lat, flat, ctx)
    if bad is not None:
        _not_modular(failures, path, what, flat, ctx,
                     f"rank equation fails against {_flat_str(bad)}")


def _check_modular_cover(lat, z, ctx, path, failures, what):
    """The triangle test of a flat z covered by ctx, run once per lattice."""
    key = (z, ctx)
    memo = lat._verified
    if key in memo:
        missed = memo[key]
    else:
        missed = memo[key] = missed_line(lat, z, ctx)
    if missed is not None:
        a, b = missed
        _not_modular(failures, path, what, z, ctx,
                     f"the line through {a} and {b} misses it")


def _chi(lat, lo, hi):
    """The raw charpoly of [lo, hi], computed once per lattice."""
    key = ("chi", lo, hi)
    got = lat._verified.get(key)
    if got is None:
        got = lat._verified[key] = lat.interval_charpoly(lo, hi)
    return got


def _verify(lat: FlatLattice, cert, ctx: int, path: str, failures: list):
    if isinstance(cert, EmptyCertificate):
        if ctx != lat.bottom:
            _fail(failures, path,
                  f"empty certificate applied to nonempty flat {_flat_str(ctx)}")
        return
    if isinstance(cert, ModularCoatomCertificate):
        z = cert.coatom
        if not _check_flat(lat, z, path, failures, "coatom"):
            return
        if z & ~ctx or lat.rank_of[z] != lat.rank_of[ctx] - 1:
            _fail(failures, path,
                  f"{_flat_str(z)} is not covered by {_flat_str(ctx)}")
            return
        _check_modular_cover(lat, z, ctx, path, failures, "coatom")
        _verify(lat, cert.child, z, path + "/child", failures)
        return
    if isinstance(cert, ModularJoinCertificate):
        e1, e2, x = cert.e1, cert.e2, cert.x
        ok = _check_flat(lat, e1, path, failures, "e1")
        ok = _check_flat(lat, e2, path, failures, "e2") and ok
        if not ok:
            return
        if e1 | e2 != ctx:
            _fail(failures, path,
                  f"{_flat_str(e1)} and {_flat_str(e2)} do not cover "
                  f"{_flat_str(ctx)}")
            return
        if e1 == ctx or e2 == ctx:
            _fail(failures, path, "join sides must be proper flats")
            return
        if x != e1 & e2:
            _fail(failures, path,
                  f"x {_flat_str(x)} is not the intersection of the sides")
        _check_modular_in(lat, e1, ctx, path, failures, "e1")
        _check_modular_in(lat, e2, ctx, path, failures, "e2")
        is_round, pair = round_in_context(lat, e1 & e2)
        if not is_round:
            c1, c2 = pair
            _fail(failures, path,
                  f"x {_flat_str(e1 & e2)} is not round: it is the union of "
                  f"{_flat_str(c1)} and {_flat_str(c2)}")
        _verify(lat, cert.child1, e1, path + "/e1", failures)
        _verify(lat, cert.child2, e2, path + "/e2", failures)
        return
    if isinstance(cert, ChainCertificate):
        flats = cert.flats
        if not flats or flats[0] != lat.bottom or flats[-1] != ctx:
            _fail(failures, path,
                  f"chain must run from the empty flat to {_flat_str(ctx)}")
            return
        for i, f in enumerate(flats):
            if not _check_flat(lat, f, path, failures, f"chain[{i}]"):
                return
        for i in range(len(flats) - 1):
            lo, hi = flats[i], flats[i + 1]
            if lo & ~hi or lat.rank_of[hi] != lat.rank_of[lo] + 1:
                _fail(failures, path,
                      f"chain step {_flat_str(lo)} -> {_flat_str(hi)} "
                      f"is not a cover")
            else:
                _check_modular_cover(lat, lo, hi, path, failures, f"chain[{i}]")
        return
    if isinstance(cert, FlagCertificate):
        _verify_flag(lat, cert.flag, ctx, path, failures)
        return
    raise InvalidInput(f"unknown certificate node {cert!r}")


def _verify_flag(lat: FlatLattice, flag, ctx: int, path: str, failures: list):
    flats, roots = flag.flats, flag.quotient_roots
    if not flats or flats[0] != lat.bottom or flats[-1] != ctx:
        _fail(failures, path,
              f"flag must run from the empty flat to {_flat_str(ctx)}")
        return
    if len(roots) != len(flats) - 1:
        _fail(failures, path, "flag needs one quotient root per step")
        return
    for i, f in enumerate(flats):
        if not _check_flat(lat, f, path, failures, f"flag[{i}]"):
            return
    for i in range(len(flats) - 1):
        lo, hi = flats[i], flats[i + 1]
        if lo & ~hi or lat.rank_of[hi] != lat.rank_of[lo] + 1:
            _fail(failures, path,
                  f"flag step {_flat_str(lo)} -> {_flat_str(hi)} is not a cover")
            return
    # the raw interval charpoly, not the prover's upper_charpoly or
    # lower_charpoly caches: [bottom, ctx] reads the Mobius values that
    # enumeration folded into its walk, which the prover's charpoly sums
    # too, and every other step runs its own pass, once per lattice
    uppers = [_chi(lat, f, ctx) for f in flats]
    for i in range(len(flats) - 1):
        quotient = IntPolynomial((-roots[i], 1))
        if uppers[i + 1] * quotient != uppers[i]:
            _fail(failures, path,
                  f"flag step {i}: chi above {_flat_str(flats[i])} is not "
                  f"(t - {roots[i]}) times chi above {_flat_str(flats[i + 1])}")
