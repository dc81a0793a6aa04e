"""Modularity of flats, roundness, and supersolvability.

A flat X is modular when r(X) + r(Y) = r(X meet Y) + r(X join Y) for every
flat Y.  Three equivalent tests are implemented: the rank equation itself,
a coatom triangle test (every line through two atoms outside a coatom
holds an atom of it), and the short-circuit axiom over circuits.  Each
returns a ModularityWitness carrying the verdict plus the first offending
object on failure.

The prover's question "is z modular within ctx?" (modular flats, the
coatom peel, the modular joins, and the verdict of `is_modular_flat`) is
answered by `is_modular_in_context`, a meet test over the lattice's atom
index that computes no rank; `modular_flats_in_context` keeps the
verdicts for every flat below a ctx on the lattice.  The checkers
re-derive modularity from the rank oracle instead: `verify` runs the
triangle test (`lines_outside`) on each modular coatom and chain step,
and the rank-equation scan `violating_flat_in_context` on join sides;
`stanley_division_check` and the witness of a non-modular
`is_modular_flat` run the scan too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .certificates import ChainCertificate
from .errors import EmptyFlat, NotACoatom, NotAFlat, NotComparable, NotModularCoatom
from .lattice import FlatLattice, enumerate_flats
from .matroid import Matroid, atom_tuple, circuits, iter_atoms


@dataclass(frozen=True)
class ModularityWitness:
    """Verdict of a modularity test plus the evidence behind it.

    On failure exactly one kind of evidence is set: `violating_flat` for the
    rank equation, `pair` for the coatom triangle test, or `circuit`+`atom`
    for the short-circuit axiom.
    """

    modular: bool
    criterion: str
    flat: int
    violating_flat: int | None = None
    pair: tuple | None = None
    circuit: int | None = None
    atom: int | None = None

    def __bool__(self) -> bool:
        return self.modular


@dataclass(frozen=True)
class RoundnessVerdict:
    """Roundness verdict; on failure, two proper flats covering the ground set."""

    round: bool
    witness: tuple | None = None

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
    misses z.  Atoms and the bottom are always modular.

    Read off `lat.atom_index` at level k = r(ctx) - r(z) + 1: the flats
    below ctx that z misses are the positions set by no atom outside ctx
    and by no atom of z outside the bottom (the loops lie in every flat).
    State is kept per (ctx, k) in `lat._meet`: the positions of the flats
    below ctx, ANDed over the atoms outside ctx once, and the flats Y
    found missed by some z, most recently used first.  Each such Y proves
    any other z of rank r(z) that misses it non-modular, so one AND
    `y & (z & ~bottom)` per remembered Y is tried first; only then are
    the atoms of z ANDed in, stopping once no position is left, and a
    position left names a new Y to remember.  No rank is computed.
    """
    rank_of = lat.rank_of
    r = rank_of[lat.require(z)]
    k = rank_of[lat.require(ctx)] - r + 1
    if z & ~ctx:
        raise NotComparable(
            f"{sorted(atom_tuple(z))} is not below {sorted(atom_tuple(ctx))}")
    if r <= 1:
        return True
    has = lat.atom_index[k]
    state = lat._meet.get((ctx, k))
    if state is None:
        below = _unset(has, (1 << len(lat.levels[k])) - 1, lat.top & ~ctx)
        state = lat._meet[ctx, k] = (below, [])
    below, disjoint = state
    inside = z & ~lat.bottom
    for i, y in enumerate(disjoint):
        if not y & inside:
            if i:
                disjoint.insert(0, disjoint.pop(i))
            return False
    missed = _unset(has, below, inside)
    if missed:
        disjoint.insert(0, lat.levels[k][(missed & -missed).bit_length() - 1])
        return False
    return True


def _unset(has, positions: int, atoms: int) -> int:
    """`positions` less those that some atom of `atoms` sets in the level
    index `has`, stopping once none is left."""
    while atoms and positions:
        low = atoms & -atoms
        positions &= ~has[low.bit_length() - 1]
        atoms ^= low
    return positions


def modular_flats_in_context(lat: FlatLattice, ctx: int) -> tuple:
    """The flats of below(ctx), ctx included, that are modular within ctx,
    in that order.  Cached per ctx on the lattice, so `modular_flats`, the
    modular joins and the ME search decide each verdict once."""
    cached = lat._modular.get(ctx)
    if cached is None:
        cached = tuple(f for f in lat.below(ctx) if is_modular_in_context(lat, f, ctx))
        lat._modular[ctx] = cached
    return cached


def modular_coatoms_in_context(lat: FlatLattice, ctx: int):
    """Yield the coatoms of ctx that are modular within it, lexicographically.

    Lazy, so a search that stops at the first usable coatom tests no
    further ones.
    """
    for z in lat.children[lat.require(ctx)]:
        if is_modular_in_context(lat, z, ctx):
            yield z


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
    a line, r({a, b}) = 2, where `hits` lazily lists the atoms f of
    z - bottom on that line, r({a, b, f}) = 2.

    A flat z covered by ctx is modular within ctx iff every line of ctx
    meets it, so iff no `hits` is empty: the coatom triangle test.  Parallel
    atoms span no line, and a loop lies on every line without meeting it,
    so neither counts.  Every rank is asked of the matroid's oracle.
    """
    rank = lat.matroid.rank
    inside = atom_tuple(z & ~lat.bottom)
    for a, b in combinations(atom_tuple(ctx & ~z), 2):
        pair = (1 << a) | (1 << b)
        if rank(pair) == 2:
            yield (a, b), (f for f in inside if rank(pair | 1 << f) == 2)


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
    class's lowest atom: the whole class lies on the line, and `hits`
    lists it in ascending order.  The triple f(a,b), f(a,c), f(b,c) of any
    three outside atoms is dependent.
    """
    lat = _lattice_for(m, lattice)
    _require_coatom(lat, x)
    rank = m.rank
    out = {}
    for (a, b), hits in lines_outside(lat, x, lat.top):
        classes = []  # lowest atom of each parallel class on the line
        for f in hits:
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

    Depth-first search peeling modular coatoms of the current restriction,
    backtracking over all of them in lexicographic order; by the tower
    property every flat of the returned chain is modular in m itself.
    """
    lat = _lattice_for(m, lattice)
    memo = {}

    def chain_for(ctx):
        if ctx in memo:
            return memo[ctx]
        if ctx == lat.bottom:
            result = (ctx,)
        else:
            result = None
            for z in modular_coatoms_in_context(lat, ctx):
                sub = chain_for(z)
                if sub is not None:
                    result = sub + (ctx,)
                    break
        memo[ctx] = result
        return result

    chain = chain_for(lat.top)
    if chain is None:
        return None
    return ChainCertificate(chain)
