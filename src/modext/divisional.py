"""Divisional atoms and divisional flags.

An atom e is divisional when the charpoly of the simplified contraction
si(M/e) divides chi(M) exactly.  A divisional flag is a saturated chain of
flats from bottom to top whose upward contraction charpolys divide each
in turn; the step quotients are forced to be linear, and their product
telescopes back to chi(M).

Both run on the lattice of flats: the lattice of si(M/X) is the interval
[X, top], so chi(si(M/X)) is an interval charpoly and no minor is built.
The test suite cross-checks the intervals against explicit contractions.
The flag search starts only when chi(M) splits over Z: the rational root
test (`algebra.integer_roots`) refutes every other flag at once, with no
interval charpoly computed.
"""

from __future__ import annotations

from .algebra import IntPolynomial, integer_roots, poly_exact_div
from .certificates import DivisionalFlag
from .errors import InternalInconsistency, NotModular
from .lattice import FlatLattice, enumerate_flats
from .matroid import Matroid, atom_tuple
from .modularity import violating_flat_in_context


def atom_quotient(chi: IntPolynomial, chi_upper: IntPolynomial):
    """chi / chi_upper for the charpolys below and above an atom, or None
    when the division is not exact; an exact quotient is linear monic."""
    q = poly_exact_div(chi, chi_upper)
    if q is not None and (q.degree != 1 or not q.is_monic):
        raise InternalInconsistency(f"atom quotient {q} is not linear monic")
    return q


def is_divisional_atom(m: Matroid, e: int, lattice: FlatLattice | None = None):
    """Whether atom e is divisional; returns (verdict, linear quotient or None)."""
    lat = lattice if lattice is not None else enumerate_flats(m)
    q = atom_quotient(lat.charpoly(), lat.upper_charpoly(m.closure(m.atom_bit(e))))
    return q is not None, q


def divisional_flag(m: Matroid, lattice: FlatLattice | None = None):
    """A divisional flag of the matroid, or None when none exists.

    A flag's step quotients t - q multiply back to chi(M), so when chi(M)
    does not split over Z (`integer_roots`) there is none and nothing is
    searched.  Only chi(M) needs the test: each chi_X the search reaches
    is chi(M) divided by the linear factors of the steps below X, so it
    splits whenever chi(M) does.

    Otherwise a depth-first search runs upward through the lattice: from
    flat X try each cover Y (lexicographic) whose upper-interval charpoly
    divides that of X; verdicts are memoized per flat.  The t^(k-1)
    coefficient of the charpoly of a rank-k interval [X, top] is minus its
    atom count, the number of covers of X, so a quotient chi_X / chi_Y can
    only be t - q with q the difference of the two cover counts, and Y is
    tried only when chi_X(q) = 0.  The top two steps always divide
    (chi = 1 and t - 1 there), so at corank <= 2 any saturated chain
    completes the flag.  Each step's root is that difference of cover
    counts, so no quotient is divided out again once the flag is found.
    """
    lat = lattice if lattice is not None else enumerate_flats(m)
    if integer_roots(lat.charpoly()) is None:
        return None
    flats = _flag_search(lat, {}, lat.bottom)
    if flats is None:
        return None
    covers = lat.covers
    return DivisionalFlag(flats, tuple(len(covers[x]) - len(covers[y])
                                       for x, y in zip(flats, flats[1:])))


def _flag_search(lat: FlatLattice, memo: dict, x: int):
    """The flag from x up to the top that `divisional_flag` searches for,
    as a tuple of flats, or None; verdicts are memoized per flat."""
    if x in memo:
        return memo[x]
    if x == lat.top:
        result = (x,)
    elif lat.rank - lat.rank_of[x] <= 2:
        result = (x,) + _flag_search(lat, memo, lat.covers[x][0])
    else:
        result = None
        chi_x = lat.upper_charpoly(x)
        atoms_x = len(lat.covers[x])
        for y in lat.covers[x]:
            if (chi_x(atoms_x - len(lat.covers[y]))
                    or poly_exact_div(chi_x, lat.upper_charpoly(y)) is None):
                continue
            sub = _flag_search(lat, memo, y)
            if sub is not None:
                result = (x,) + sub
                break
    memo[x] = result
    return result


def stanley_division_check(m: Matroid, x: int, lattice: FlatLattice | None = None) -> bool:
    """Whether chi of the restriction to a modular flat divides chi(M).

    Re-verifies modularity first and raises NotModular when x fails the
    rank equation.
    """
    lat = lattice if lattice is not None else enumerate_flats(m)
    lat.require(x)
    bad = violating_flat_in_context(lat, x, lat.top)
    if bad is not None:
        raise NotModular(
            f"{sorted(atom_tuple(x))} is not modular; rank equation fails "
            f"against {sorted(atom_tuple(bad))}")
    chi_lower = lat.lower_charpoly(x)
    return poly_exact_div(lat.charpoly(), chi_lower) is not None

