"""Modularity of flats, roundness, and supersolvability.

A flat X is modular when r(X) + r(Y) = r(X meet Y) + r(X join Y) for every
flat Y.  The prover has one verdict for this, the rank equation decided
from the lattice; the verifier re-derives it from the rank oracle by two
checks: a coatom triangle test (every line through two atoms outside a
coatom holds an atom of it) and a scan of the rank equation.

The prover's question "is z modular within ctx?" (modular flats, the
coatom peel, the modular joins, and the verdict of `is_modular_flat`) is
answered from the lattice's atom index, with no rank computed: z is
modular within ctx iff it meets every flat below ctx of rank
r(ctx) - r(z) + 1, a symmetric relation, so one pass per ctx and pair of
levels {r, r(ctx) + 1 - r} decides both levels (`_decide_levels`).  The
verdicts stay on the lattice as one bitmask per ctx and level:
`is_modular_in_context` reads one bit, and `modular_flats_in_context` and
`modular_coatoms_in_context` walk the positions the masks keep.  The
checkers re-derive modularity from the rank oracle instead: `verify` runs
the triangle test (`missed_line`) on each modular coatom and chain step,
and the rank-equation scan `violating_flat_in_context` on join sides;
`stanley_division_check` and the witness of a non-modular
`is_modular_flat` run the scan too.  In the triangle test the matroid's
kernel only proposes the lines through each atom; one rank query per
line confirms it, and a pair whose line it does not confirm is asked
alone.
"""

from __future__ import annotations

from .certificates import ChainCertificate
from .errors import Frozen, NotComparable
from .lattice import FlatLattice, enumerate_flats
from .matroid import Matroid, atom_tuple, iter_atoms


class ModularityWitness(Frozen):
    """Verdict of `is_modular_flat` on a flat; on failure, `violating_flat`
    is the first flat, in (rank, lex) order, violating the rank equation
    against it."""

    modular: bool
    flat: int
    violating_flat: int | None

    def __init__(self, modular, flat, violating_flat=None):
        self.__dict__.update(modular=modular, flat=flat, violating_flat=violating_flat)

    def __bool__(self) -> bool:
        return self.modular


class RoundnessVerdict(Frozen):
    """Roundness verdict; on failure, two proper flats covering the ground set."""

    round: bool
    witness: tuple | None

    def __init__(self, round, witness=None):
        self.__dict__.update(round=round, witness=witness)

    def __bool__(self) -> bool:
        return self.round

    def to_json(self) -> dict:
        out = {"round": self.round}
        if self.witness is not None:
            out["witness"] = [list(atom_tuple(f)) for f in self.witness]
        return out


def _lattice_for(m: Matroid, lattice: FlatLattice | None) -> FlatLattice:
    return lattice if lattice is not None else enumerate_flats(m)


# ---------------------------------------------------------------------------
# the rank equation, in and out of context


def violating_flat_in_context(lat: FlatLattice, z: int, ctx: int):
    """First flat Y <= ctx violating the rank equation against z, or None.

    Checks modularity of z within the restriction to the flat ctx; with
    ctx the top flat this is plain modularity.  Flats Y are scanned in the
    order of below(ctx); those comparable with z satisfy the equation, and
    for the others r(z join Y) = r(z | Y) is asked of the rank oracle.
    """
    rank_of = lat.rank_of
    r = rank_of[lat.require(z)]
    rank = lat.matroid.rank
    for y in lat.below(ctx):
        meet = z & y
        if meet != y and meet != z and rank_of[meet] + rank(z | y) != r + rank_of[y]:
            return y
    return None


def is_modular_in_context(lat: FlatLattice, z: int, ctx: int) -> bool:
    """Whether the flat z <= ctx is modular within the restriction to ctx.

    z is modular within ctx iff z meets every flat Y <= ctx of rank
    r(ctx) - r(z) + 1, where z meets Y when z meet Y is above the bottom.
    If z is modular, r(z meet Y) >= r(z) + r(Y) - r(ctx) = 1.  If not, some
    Y with z meet Y = bottom has r(z join Y) < r(z) + r(Y) (Brylawski 1975);
    adding to Y an atom a outside z join Y keeps it disjoint from z (an
    atom b of z in Y join a would, by exchange, put a in Y join b <= z join
    Y) and keeps the defect, so Y grows until z join Y = ctx, where
    r(Y) > r(ctx) - r(z): some flat of rank r(ctx) - r(z) + 1 below Y
    misses z.  Atoms, the bottom and ctx itself are always modular.

    So the levels r = r(z) and k = r(ctx) - r + 1 are decided together:
    z misses Y exactly when Y misses z, and r(ctx) - k + 1 = r, so a flat
    of either level is modular within ctx iff it misses no flat of the
    other level below ctx.  `_decide_levels` finds every such disjoint
    pair in one pass and keeps the verdicts on the lattice, per ctx and
    level, as a bitmask over the level's positions (`lat._verdicts`); this
    reads z's bit by ANDing `lat.atom_index[r]` into the mask over z's
    atoms outside the bottom (the loops lie in every flat): z is the only
    flat of rank r holding them all, so its bit is all that can be left.
    No rank is computed.
    """
    rank_of = lat.rank_of
    r = rank_of[lat.require(z)]
    r_ctx = rank_of[lat.require(ctx)]
    if z & ~ctx:
        raise NotComparable(
            f"{sorted(atom_tuple(z))} is not below {sorted(atom_tuple(ctx))}")
    if r <= 1 or r == r_ctx:
        return True
    modular = _modular_positions(lat, ctx, r)
    return bool(_and_over(lat.atom_index[r], modular, z & ~lat.bottom))


def _and_over(index, positions: int, atoms: int) -> int:
    """`positions` ANDed with `index[a]` for each atom a of `atoms`,
    stopping once none is left."""
    while atoms and positions:
        low = atoms & -atoms
        positions &= index[low.bit_length() - 1]
        atoms ^= low
    return positions


def _complement(lat: FlatLattice, k: int) -> list:
    """Per atom, the positions of the flats of level k not holding it: the
    level's atom index, each entry XORed with the full mask (cached)."""
    out = lat._complement.get(k)
    if out is None:
        full = (1 << len(lat.levels[k])) - 1
        out = lat._complement[k] = [full ^ has for has in lat.atom_index[k]]
    return out


def _below_positions(lat: FlatLattice, ctx: int, k: int) -> int:
    """The positions of the flats of level k below ctx: those holding no
    atom outside ctx."""
    return _and_over(_complement(lat, k), (1 << len(lat.levels[k])) - 1, lat.top & ~ctx)


def _modular_positions(lat: FlatLattice, ctx: int, k: int) -> int:
    """The positions of the flats of level k < r(ctx) below ctx that are
    modular within it.  The bottom and the atoms all are; any other level
    is decided with its partner level r(ctx) + 1 - k in one pass."""
    if k <= 1:
        return _below_positions(lat, ctx, k)
    got = lat._verdicts.get((ctx, k))
    if got is None:
        pair = lat.rank_of[ctx] + 1 - k
        _decide_levels(lat, ctx, min(k, pair), max(k, pair))
        got = lat._verdicts[ctx, k]
    return got


def _decide_levels(lat: FlatLattice, ctx: int, lo: int, hi: int) -> None:
    """Decide modularity within ctx for the flats below ctx of the levels
    lo <= hi, where lo + hi = r(ctx) + 1, and keep both verdict masks.

    One pass over the flats Y of level lo below ctx, in order: the flats
    of level hi below ctx that Y misses are the positions left by ANDing
    the complement index of level hi over the atoms of Y outside the
    bottom.  If any is left, Y and each of them are non-modular.  At
    lo = hi those flats are not walked again: their verdict is made, and
    a flat that one of them misses finds it when that flat is walked.
    """
    comp = _complement(lat, hi)
    below_hi = _below_positions(lat, ctx, hi)
    below_lo = below_hi if lo == hi else _below_positions(lat, ctx, lo)
    level = lat.levels[lo]
    bottom = lat.bottom
    bad_lo = bad_hi = 0
    walk = below_lo
    while walk:
        low = walk & -walk
        walk ^= low
        missed = _and_over(comp, below_hi, level[low.bit_length() - 1] & ~bottom)
        if missed:
            bad_lo |= low
            bad_hi |= missed
            if lo == hi:
                walk &= ~missed
    if lo == hi:
        bad_lo = bad_hi = bad_lo | bad_hi
    lat._verdicts[ctx, lo] = below_lo & ~bad_lo
    lat._verdicts[ctx, hi] = below_hi & ~bad_hi


def _flats_at(level, positions: int):
    """Yield the flats of a level at the given positions, in ascending
    order, which is lex order."""
    while positions:
        low = positions & -positions
        yield level[low.bit_length() - 1]
        positions ^= low


def modular_flats_in_context(lat: FlatLattice, ctx: int) -> tuple:
    """The flats of below(ctx), ctx included, that are modular within ctx,
    in that order: per level, the positions the verdict masks keep, walked
    in ascending order, with no scan of below(ctx).  Cached per ctx on the
    lattice, so `modular_flats`, the modular joins and the ME search share
    the tuple."""
    cached = lat._modular.get(ctx)
    if cached is None:
        out = []
        for k in range(lat.rank_of[lat.require(ctx)]):
            out.extend(_flats_at(lat.levels[k], _modular_positions(lat, ctx, k)))
        out.append(ctx)
        cached = lat._modular[ctx] = tuple(out)
    return cached


def modular_coatoms_in_context(lat: FlatLattice, ctx: int):
    """Yield the coatoms of ctx that are modular within it, lexicographically.

    The first call for a ctx decides its coatoms together with its rank-2
    flats (`_decide_levels`); later calls read the kept verdicts.
    """
    r_ctx = lat.rank_of[lat.require(ctx)]
    if r_ctx:
        yield from _flats_at(lat.levels[r_ctx - 1], _modular_positions(lat, ctx, r_ctx - 1))


def is_modular_flat(m: Matroid, x: int, lattice: FlatLattice | None = None) -> ModularityWitness:
    """Modularity against every flat; a non-modular flat's witness is the
    first flat, in (rank, lex) order, violating the rank equation."""
    lat = _lattice_for(m, lattice)
    if is_modular_in_context(lat, x, lat.top):
        return ModularityWitness(True, x)
    return ModularityWitness(False, x, violating_flat_in_context(lat, x, lat.top))


def modular_flats(m: Matroid, lattice: FlatLattice | None = None) -> tuple:
    """All modular flats, by rank then lexicographic atom order."""
    lat = _lattice_for(m, lattice)
    return modular_flats_in_context(lat, lat.top)


# ---------------------------------------------------------------------------
# coatom triangle test


def missed_line(lat: FlatLattice, z: int, ctx: int):
    """The first pair (a, b) of atoms a < b of ctx - z, in lex order, with
    r({a, b}) = 2 and no atom of z - bottom on its line, or None.

    A flat z covered by ctx is modular within ctx iff every line of ctx
    meets it, so None is the triangle test's verdict "modular".  Parallel
    atoms span no line, and a loop lies on every line without meeting it,
    so neither counts.

    Per atom a of ctx - z, one call `Matroid.covers(a, later | inside)`
    groups the later atoms of ctx - z and the atoms of z - bottom by their
    line through a, each group being one line's part, without a: the
    kernel proposes and the rank oracle confirms.  For a kernel line with
    later atoms B and atoms P of z - bottom, one query
    r({a} + B + {min P}) = 2 settles every pair (a, b) with b in B:
    r({a, b, min P}) <= 2 by monotonicity, so min P lies on the line ab or
    a is parallel to b.  Every b left is asked alone, in ascending order:
    (a, b) is the missed pair when r({a, b}) = 2 and no atom f of
    z - bottom has r({a, b, f}) = 2.  So the verdict rests on rank queries
    alone, whatever the kernel answers, and no flat of the lattice is
    read.
    """
    m = lat.matroid
    rank = m.rank
    inside = z & ~lat.bottom
    later = ctx & ~z
    while later:
        low = later & -later
        later ^= low
        if not later:
            return None
        left = later
        for line in m.covers(low, later | inside):
            part = line & inside
            ends = line & later
            if part and ends and rank(low | ends | (part & -part)) == 2:
                left &= ~ends
        for b in iter_atoms(left):
            pair = low | 1 << b
            if rank(pair) == 2 and not any(rank(pair | 1 << f) == 2
                                           for f in iter_atoms(inside)):
                return low.bit_length() - 1, b
    return None


# ---------------------------------------------------------------------------
# roundness


def round_in_context(lat: FlatLattice, ctx: int):
    """Roundness of the restriction to ctx: (verdict, witness-pair or None).

    A ground set is a union of two proper flats iff it is a union of two
    coatoms, so only pairs of flats covered by ctx are scanned, in lex
    order: the flats of level r(ctx) - 1 inside ctx, found by containment.
    Below rank 2 there is at most one coatom.
    """
    r = lat.rank_of[ctx]
    if r < 2:
        return True, None
    outside = ~ctx
    coats = [z for z in lat.levels[r - 1] if not z & outside]
    for i, c1 in enumerate(coats):
        for c2 in coats[i + 1:]:
            if c1 | c2 == ctx:
                return False, (c1, c2)
    return True, None


def is_round(m: Matroid, lattice: FlatLattice | None = None) -> RoundnessVerdict:
    """Whether the ground set is not a union of two proper flats."""
    lat = _lattice_for(m, lattice)
    ok, witness = round_in_context(lat, lat.top)
    return RoundnessVerdict(ok, witness)


# ---------------------------------------------------------------------------
# supersolvability


def supersolvable_chain(m: Matroid, lattice: FlatLattice | None = None):
    """A saturated chain of modular flats from bottom to top, or None.

    Peels from the top: at each flat ctx take its lex-first coatom
    modular within ctx, and stop with None at the first ctx that has
    none.  No search is needed.  Every lower interval [bottom, x] of a
    supersolvable lattice is supersolvable (Stanley 1972): meeting a
    modular chain with x gives one of [bottom, x].  So if the restriction
    to ctx has a modular chain, the restriction to every modular coatom z
    of ctx has one too, and when the first z fails, ctx fails as well.
    By the tower property every flat of the returned chain is modular in
    m itself.
    """
    lat = _lattice_for(m, lattice)
    chain = [lat.top]
    while chain[-1] != lat.bottom:
        z = next(modular_coatoms_in_context(lat, chain[-1]), None)
        if z is None:
            return None
        chain.append(z)
    return ChainCertificate(tuple(reversed(chain)))
