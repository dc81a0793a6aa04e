"""Modularity of flats, roundness, and supersolvability.

A flat X is modular when r(X) + r(Y) = r(X meet Y) + r(X join Y) for every
flat Y.  Three equivalent tests are implemented: the rank equation itself,
a coatom triangle test (every line through two atoms outside a coatom
holds an atom of it), and the short-circuit axiom over circuits.  Each
returns a ModularityWitness carrying the verdict plus the first offending
object on failure.

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
the triangle test (`lines_outside`) on each modular coatom and chain
step, and the rank-equation scan `violating_flat_in_context` on join
sides; `stanley_division_check` and the witness of a non-modular
`is_modular_flat` run the scan too.  In the triangle test the matroid's
kernel only proposes which atom to ask first; the rank oracle confirms.
"""

from __future__ import annotations

from itertools import chain

from .certificates import ChainCertificate
from .errors import (EmptyFlat, Frozen, NotACoatom, NotAFlat, NotComparable,
                     NotModularCoatom)
from .lattice import FlatLattice, enumerate_flats
from .matroid import Matroid, atom_tuple, circuits, iter_atoms


class ModularityWitness(Frozen):
    """Verdict of a modularity test plus the evidence behind it.

    On failure exactly one kind of evidence is set: `violating_flat` for the
    rank equation, `pair` for the coatom triangle test, or `circuit`+`atom`
    for the short-circuit axiom.
    """

    modular: bool
    criterion: str
    flat: int
    violating_flat: int | None
    pair: tuple | None
    circuit: int | None
    atom: int | None

    def __init__(self, modular, criterion, flat, violating_flat=None, pair=None,
                 circuit=None, atom=None):
        self.__dict__.update(modular=modular, criterion=criterion, flat=flat,
                             violating_flat=violating_flat, pair=pair,
                             circuit=circuit, atom=atom)

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
        return ModularityWitness(True, "rank-equation", x)
    bad = violating_flat_in_context(lat, x, lat.top)
    return ModularityWitness(False, "rank-equation", x, violating_flat=bad)


def modular_flats(m: Matroid, lattice: FlatLattice | None = None) -> tuple:
    """All modular flats, by rank then lexicographic atom order."""
    lat = _lattice_for(m, lattice)
    return modular_flats_in_context(lat, lat.top)


# ---------------------------------------------------------------------------
# coatom triangle test


def lines_outside(lat: FlatLattice, z: int, ctx: int):
    """Yield ((a, b), hits) for each pair of atoms a < b of ctx - z spanning
    a line, r({a, b}) = 2, in lex order, where `hits` lazily lists the
    atoms f of z - bottom on that line, r({a, b, f}) = 2.

    A flat z covered by ctx is modular within ctx iff every line of ctx
    meets it, so iff no `hits` is empty: the coatom triangle test.  Parallel
    atoms span no line, and a loop lies on every line without meeting it,
    so neither counts.

    The kernel proposes and the rank oracle confirms.  For each atom a,
    one `Matroid.covers` call groups the later atoms of ctx - z and the
    atoms of z - bottom by their line through a; `hits` first tries the
    atoms of z on the line of b, then the rest of z, each in ascending
    order.  Every pair and every atom yielded is confirmed by the rank
    oracle, so pairs and hits are those of the rank definition whatever
    the kernel answers; with an honest kernel the hits are exactly the
    atoms tried first, in ascending order.
    """
    m = lat.matroid
    rank = m.rank
    inside = z & ~lat.bottom
    later = ctx & ~z
    while later:
        low = later & -later
        later ^= low
        if not later:
            return
        a = low.bit_length() - 1
        on_line = {}    # later atom b -> the atoms of z on the kernel's line ab
        for line in m.covers(low, low, later | inside):
            part = line & inside
            for b in iter_atoms(line & later):
                on_line[b] = part
        for b in iter_atoms(later):
            pair = low | 1 << b
            if rank(pair) == 2:
                first = on_line.get(b, 0)
                yield (a, b), _confirmed(rank, pair, chain(iter_atoms(first),
                                                           iter_atoms(inside & ~first)))


def _confirmed(rank, pair: int, atoms):
    """The atoms f among `atoms` with r(pair + f) = 2, in the order given."""
    for f in atoms:
        if rank(pair | 1 << f) == 2:
            yield f


def _require_coatom(lat: FlatLattice, x: int):
    lat.require(x)
    if lat.rank_of[x] != lat.rank - 1:
        raise NotACoatom(f"{sorted(atom_tuple(x))} has rank {lat.rank_of[x]}, "
                         f"need {lat.rank - 1}")


def is_modular_coatom_triangle(m: Matroid, x: int,
                               lattice: FlatLattice | None = None) -> ModularityWitness:
    """Coatom modularity via triangles: every line through two atoms
    outside x must hold an atom of x (`lines_outside`)."""
    lat = _lattice_for(m, lattice)
    _require_coatom(lat, x)
    for pair, hits in lines_outside(lat, x, lat.top):
        if next(hits, None) is None:
            return ModularityWitness(False, "coatom-triangle", x, pair=pair)
    return ModularityWitness(True, "coatom-triangle", x)


def coatom_pairing(m: Matroid, x: int, lattice: FlatLattice | None = None) -> dict:
    """The pairing (a, b) -> f of a modular coatom, with uniqueness enforced.

    For each line through two atoms a, b outside x there must be exactly
    one parallel class of atoms of x on it, so that {a, b, f} is a circuit
    for its atoms f; otherwise NotModularCoatom is raised.  f is the
    class's lowest atom: the whole class lies on the line, and `hits`,
    sorted, lists it first.  The triple f(a,b), f(a,c), f(b,c) of any
    three outside atoms is dependent.
    """
    lat = _lattice_for(m, lattice)
    _require_coatom(lat, x)
    rank = m.rank
    out = {}
    for (a, b), hits in lines_outside(lat, x, lat.top):
        classes = []  # lowest atom of each parallel class on the line
        for f in sorted(hits):
            if all(rank(1 << f | 1 << g) == 2 for g in classes):
                classes.append(f)
        if len(classes) != 1:
            raise NotModularCoatom(
                f"pair ({a}, {b}) outside {sorted(atom_tuple(x))} has "
                f"{len(classes)} triangle completions")
        out[(a, b)] = classes[0]
    return out


# ---------------------------------------------------------------------------
# short-circuit axiom


def short_circuit_check(m: Matroid, x: int) -> ModularityWitness:
    """Modular short-circuit axiom over all circuits.

    For every circuit C and atom e in C - X there must be an atom x0 of X
    such that a circuit through e lies inside {x0} | (C - X); the inner
    existence test is the closure condition r(T) == r(T - {e}).
    """
    if x == 0:
        raise EmptyFlat("the short-circuit axiom is stated for nonempty flats")
    if not m.is_flat(x):
        raise NotAFlat(f"{sorted(atom_tuple(x))} is not a flat")
    for c in circuits(m):
        out = c & ~x
        if out == 0 or out == c:
            continue
        for e in iter_atoms(out):
            ok = False
            for x0 in iter_atoms(x):
                t = out | (1 << x0)
                if m.rank(t) == m.rank(t & ~(1 << e)):
                    ok = True
                    break
            if not ok:
                return ModularityWitness(False, "short-circuit", x, circuit=c, atom=e)
    return ModularityWitness(True, "short-circuit", x)


# ---------------------------------------------------------------------------
# roundness


def round_in_context(lat: FlatLattice, ctx: int):
    """Roundness of the restriction to ctx: (verdict, witness-pair or None).

    A ground set is a union of two proper flats iff it is a union of two
    coatoms, so only pairs of flats covered by ctx are scanned.
    """
    coats = lat.children.get(ctx, ())
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
