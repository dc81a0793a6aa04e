"""Modular joins and the modularly-extended class.

A modular join presents the ground set as the union of two proper modular
flats E1 and E2 with intersection flat X.  The charpoly identity
chi(M) * chi(M|X) = chi(M|E1) * chi(M|E2) then holds exactly.

The modularly-extended class is the smallest one containing the empty
matroid and closed under (a) adding a modular coatom whose restriction is
in the class and (b) modular joins over a round intersection with both
sides in the class; `me_certify` searches for such a certificate
recursively over the lattice, memoized per flat.

Both read the joins of a flat from `modular_joins_in_context`, whose
verdicts come from `modularity.modular_flats_in_context`: read off the
lattice's atom index, with no rank-equation scan, decided once per context
and pair of levels and shared with `modular_flats`.
"""

from __future__ import annotations

from bisect import bisect_left

from .algebra import convolve
from .certificates import (
    EmptyCertificate,
    ModularCoatomCertificate,
    ModularJoinCertificate,
)
from .divisional import atom_quotient
from .errors import Frozen, IdentityViolation, InvalidInput, LiftViolation
from .lattice import FlatLattice, enumerate_flats
from .matroid import Matroid, atom_tuple
from .modularity import modular_coatoms_in_context, modular_flats_in_context, round_in_context
# Not called here: bound only so that a tracer patching the raw rank-equation
# scan in every module that imports it finds the name.
from .modularity import violating_flat_in_context  # noqa: F401


class JoinDecomposition(Frozen):
    """Two proper modular flats covering the ground set, with X = e1 & e2."""

    e1: int
    e2: int
    x: int
    x_round: bool

    def __init__(self, e1, e2, x, x_round):
        self.__dict__.update(e1=e1, e2=e2, x=x, x_round=x_round)

    def to_json(self) -> dict:
        return {
            "e1": list(atom_tuple(self.e1)),
            "e2": list(atom_tuple(self.e2)),
            "x": list(atom_tuple(self.x)),
            "x_round": self.x_round,
        }


def modular_joins_in_context(lat: FlatLattice, ctx: int):
    """Yield the modular joins of the restriction to ctx.

    One JoinDecomposition per unordered pair of proper flats of ctx, both
    modular within it, whose union is ctx; pairs come in the order of
    below(ctx), each annotated with the roundness of the restriction to
    the intersection.  e1's partners are scanned from the first flat of
    rank at least r(ctx) - r(e1): by semimodularity r(e1) + r(e2) >=
    r(e1 join e2), which is r(ctx) for a join.
    """
    mods = modular_flats_in_context(lat, ctx)[:-1]
    ranks = [lat.rank_of[f] for f in mods]
    r_ctx = lat.rank_of[ctx]
    for i, e1 in enumerate(mods):
        for e2 in mods[bisect_left(ranks, r_ctx - ranks[i], i + 1):]:
            if e1 | e2 == ctx:
                x = e1 & e2
                yield JoinDecomposition(e1, e2, x, round_in_context(lat, x)[0])


def find_modular_joins(m: Matroid, lattice: FlatLattice | None = None) -> list:
    """All modular join decompositions of the whole matroid, in the order
    of `modular_joins_in_context` at the top flat."""
    lat = lattice if lattice is not None else enumerate_flats(m)
    return list(modular_joins_in_context(lat, lat.top))


def brylawski_identity_check(m: Matroid, d: JoinDecomposition,
                             lattice: FlatLattice | None = None) -> bool:
    """Exact check of chi(M) * chi(M|X) == chi(M|E1) * chi(M|E2), the two
    products compared as coefficient lists.

    Raises IdentityViolation, whose message prints all four, on failure.
    """
    lat = lattice if lattice is not None else enumerate_flats(m)
    chi_m = lat.charpoly()
    chi_x = lat.lower_charpoly(d.x)
    chi_e1 = lat.lower_charpoly(d.e1)
    chi_e2 = lat.lower_charpoly(d.e2)
    if convolve(chi_m.coeffs, chi_x.coeffs) != convolve(chi_e1.coeffs, chi_e2.coeffs):
        raise IdentityViolation(chi_m, chi_x, chi_e1, chi_e2)
    return True


def me_certify(m: Matroid, lattice: FlatLattice | None = None):
    """Certificate that the matroid is modularly extended, or None.

    Recursion over restrictions to flats of the root lattice: the empty
    flat is certified outright; otherwise try every modular coatom of the
    restriction (lexicographic) whose own restriction certifies, then every
    modular join whose intersection is round with both sides certified.
    One memo table keyed by flat serves the whole search.

    Unlike `divisional_flag`, this search runs even when chi(M) does not
    split over Z.  A non-split chi would refute ME only through "ME
    implies a divisional flag", which is the paper's theorem; the search
    is what tests that theorem, on every input, against the flag's
    verdict.
    """
    lat = lattice if lattice is not None else enumerate_flats(m)
    return _cert(lat, {}, lat.top)


def _cert(lat: FlatLattice, memo: dict, ctx: int):
    """The certificate `me_certify` searches for, for the restriction to
    ctx, or None; verdicts are memoized per flat."""
    if ctx in memo:
        return memo[ctx]
    if ctx == lat.bottom:
        result = EmptyCertificate()
    else:
        result = None
        for z in modular_coatoms_in_context(lat, ctx):
            sub = _cert(lat, memo, z)
            if sub is not None:
                result = ModularCoatomCertificate(z, sub)
                break
        if result is None:
            for d in modular_joins_in_context(lat, ctx):
                if not d.x_round:
                    continue
                c1 = _cert(lat, memo, d.e1)
                if c1 is None:
                    continue
                c2 = _cert(lat, memo, d.e2)
                if c2 is None:
                    continue
                result = ModularJoinCertificate(d.e1, d.e2, d.x, c1, c2)
                break
    memo[ctx] = result
    return result


def join_divisional_lift_check(m: Matroid, d: JoinDecomposition, e: int,
                               lattice: FlatLattice | None = None) -> bool:
    """Check that a divisional atom of the factor M|E1 stays divisional in M.

    `e` is an atom of m lying in E1 - X and divisional in the restriction
    to E1 (verified; InvalidInput otherwise).  Confirms e is divisional in
    m and that the lifted contraction charpoly satisfies
    chi(si(M/e)) * chi(M|X) == chi(si(M1/e)) * chi(M|E2) exactly; raises
    LiftViolation on either failure.

    Every charpoly is an interval of the one lattice of m: chi(si(M/e)) is
    [cl(e), top], chi(si((M|E1)/e)) is [cl(e), E1], chi(M|X) is [0, X] and
    chi(M|E2) is [0, E2].  cl(e) also holds the loops and the atoms
    parallel to e.
    """
    bit = m.atom_bit(e)
    if not (d.e1 & bit) or (d.x & bit):
        raise InvalidInput(f"atom {e} is not in E1 minus X")
    lat = lattice if lattice is not None else enumerate_flats(m)
    flat = m.closure(bit)
    chi_m1e = lat.interval_charpoly(flat, d.e1)
    if atom_quotient(lat.lower_charpoly(d.e1), chi_m1e) is None:
        raise InvalidInput(f"atom {e} is not divisional in the restriction to E1")
    chi_me = lat.upper_charpoly(flat)
    if atom_quotient(lat.charpoly(), chi_me) is None:
        raise LiftViolation(f"atom {e} is divisional in M|E1 but not in M")
    chi_x = lat.lower_charpoly(d.x)
    chi_e2 = lat.lower_charpoly(d.e2)
    if chi_me * chi_x != chi_m1e * chi_e2:
        raise LiftViolation(
            f"contraction charpoly of atom {e} does not factor through the join: "
            f"{list(chi_me.coeffs)} * {list(chi_x.coeffs)} != "
            f"{list(chi_m1e.coeffs)} * {list(chi_e2.coeffs)}")
    return True
