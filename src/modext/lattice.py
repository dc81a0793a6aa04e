"""The geometric lattice of flats: enumeration, Mobius function, charpoly.

Flats are bitmasks over the matroid's atoms; the partial order is subset
containment, meets are intersections, and the join of two flats is the
closure of their union (whose rank equals the rank of the plain union).

Everything is driven by the covering relation:

- Enumeration walks rank levels upward and closes each flat once: the
  covers of F partition the atoms outside F (Oxley, Matroid Theory, 1.4),
  so F closes F | {a} only for the lowest atom a in no cover of F found so
  far, by F or by an earlier flat of its level, testing only those atoms.
  That closure is one call of `Matroid.closure`, which hands the flat and
  its candidates to the backend's closure kernel (one basis or one
  component walk, no rank query per candidate) and asks the rank oracle
  per candidate only for matroids built from a bare rank function.
  A new flat's children are the flats of the level holding no atom
  outside it, found through a per-level atom index, and each of them
  records it as a cover found.  The lattice keeps that index
  (`atom_index`), from which the prover decides modularity.
- Mobius values follow Weisner's theorem (Stanley, EC1 Cor. 3.9.3): for
  X > B and an atom a of X outside B, mu(B, X) = -sum mu(B, Y) over the
  flats Y covered by X with B <= Y and a not in Y, one pass over cover
  edges.

Order: levels, covers and children list flats in lexicographic atom order
(`lex_key`).  `enumerate_flats` sorts each new level once, which decides
it: children are read off the sorted level below, and covers gathered by
walking the children in (rank, lex) order keep it, so `FlatLattice` sorts
nothing.

The lattice stores no joins.  A check that needs r(X join Y) asks the rank
oracle for r(X | Y), which is the same number.
"""

from __future__ import annotations

from .algebra import IntPolynomial
from .errors import NotAFlat, NotComparable, TooLarge
from .matroid import Matroid, atom_tuple, lex_key, remap_mask

DEFAULT_MAX_FLATS = 2 ** 20


class FlatLattice:
    """The lattice of flats of a simple matroid, fully enumerated.  Keeps
    `levels` and `children` (lex-sorted tuples, keyed in (rank, lex) order)
    as given, and derives `covers` from the children.

    `atom_index[k][a]`, for every level k below the top, has bit i set when
    `levels[k][i]` holds atom a: the flats of rank k below a flat X are the
    positions that no atom outside X sets, and those a flat Z meets are
    the positions its atoms outside the bottom set.
    """

    def __init__(self, matroid: Matroid, levels, children, atom_index):
        self.matroid = matroid
        self.levels = levels
        self.atom_index = atom_index
        self.rank_of = {}
        for k, level in enumerate(levels):
            for f in level:
                self.rank_of[f] = k
        self.children = children
        covers = {f: [] for f in self.rank_of}
        for c, cs in children.items():
            for f in cs:
                covers[f].append(c)
        self.covers = {f: tuple(cs) for f, cs in covers.items()}
        self._below = {}
        self._above = {}
        self._mobius = None
        self._charpoly = None
        self._upper = {}
        self._modular = {}  # ctx -> modular flats within it, filled by modularity

    # -- basic structure

    @property
    def bottom(self) -> int:
        return self.levels[0][0]

    @property
    def top(self) -> int:
        return self.levels[-1][0]

    @property
    def rank(self) -> int:
        return len(self.levels) - 1

    def flats(self):
        """All flats, by rank then lexicographic atom order."""
        for level in self.levels:
            yield from level

    def __len__(self):
        return len(self.rank_of)

    def __contains__(self, flat: int) -> bool:
        return flat in self.rank_of

    def require(self, flat: int) -> int:
        if flat not in self.rank_of:
            raise NotAFlat(f"{sorted(atom_tuple(flat))} is not a flat of this matroid")
        return flat

    def below(self, flat: int):
        """Flats contained in `flat`, ordered by rank then lex (cached)."""
        cached = self._below.get(flat)
        if cached is None:
            self.require(flat)
            cached = tuple(f for f in self.flats() if f & flat == f)
            self._below[flat] = cached
        return cached

    def above(self, flat: int):
        """Flats containing `flat`, ordered by rank then lex (cached)."""
        cached = self._above.get(flat)
        if cached is None:
            self.require(flat)
            cached = tuple(f for f in self.flats() if f & flat == flat)
            self._above[flat] = cached
        return cached

    def coatoms(self):
        """Flats covered by the top flat."""
        if self.rank == 0:
            return ()
        return tuple(self.levels[self.rank - 1])

    # -- Mobius function and characteristic polynomials

    def mobius(self) -> dict:
        """Mobius values mu(bottom, X) for every flat X (cached)."""
        if self._mobius is None:
            self._mobius = self._weisner(list(self.flats()), self.bottom)
        return self._mobius

    def charpoly(self) -> IntPolynomial:
        """Characteristic polynomial of the whole lattice (cached)."""
        if self._charpoly is None:
            mu = self.mobius()
            self._charpoly = _chi_from_mobius(mu, self.rank_of, self.rank)
        return self._charpoly

    def interval_charpoly(self, bottom: int, top: int) -> IntPolynomial:
        """Characteristic polynomial of the interval [bottom, top]."""
        self.require(bottom)
        self.require(top)
        if bottom & top != bottom:
            raise NotComparable(
                f"{sorted(atom_tuple(bottom))} is not below {sorted(atom_tuple(top))}")
        flats = [f for f in self.above(bottom) if f & top == f]
        mu = self._weisner(flats, bottom)
        top_rank = self.rank_of[top]
        return _chi_from_mobius(mu, self.rank_of, top_rank, shift=self.rank_of[bottom])

    def upper_charpoly(self, flat: int) -> IntPolynomial:
        """Charpoly of [flat, top]; equals the charpoly of the simplified
        contraction by the flat.  Cached per flat."""
        cached = self._upper.get(flat)
        if cached is None:
            cached = self.interval_charpoly(flat, self.top)
            self._upper[flat] = cached
        return cached

    def _weisner(self, flats, bottom: int) -> dict:
        """mu(bottom, X) for the flats X of an interval [bottom, top], given
        in rank order with bottom first, by Weisner's theorem."""
        children = self.children
        mu = {bottom: 1}
        for x in flats[1:]:
            a = x & ~bottom
            a &= -a
            mu[x] = -sum(mu.get(y, 0) for y in children[x] if not y & a)
        return mu

    # -- serialization

    def to_json(self) -> dict:
        mu = self.mobius()
        return {
            "rank": self.rank,
            "levels": [
                [{"atoms": list(atom_tuple(f)), "mobius": mu[f]} for f in level]
                for level in self.levels
            ],
        }

    def __repr__(self):
        return f"FlatLattice(rank={self.rank}, flats={len(self)})"


def _chi_from_mobius(mu: dict, rank_of: dict, top_rank: int, shift: int = 0) -> IntPolynomial:
    coeffs = [0] * (top_rank - shift + 1)
    for f, value in mu.items():
        coeffs[top_rank - rank_of[f]] += value
    return IntPolynomial(coeffs)


def enumerate_flats(m: Matroid, max_flats: int = DEFAULT_MAX_FLATS) -> FlatLattice:
    """Enumerate the lattice of flats of a simple matroid.

    Closes each flat of rank k+1 once, from the first flat of rank k below
    it; raises TooLarge when the flat count exceeds `max_flats`.
    """
    bottom = m.closure(0)
    levels = [[bottom]]
    children = {bottom: ()}
    atom_index = []
    total = 1
    full = m.full_mask
    current = [bottom]
    while current and current[0] != full:
        # has[a]: bit i set when current[i] holds atom a
        has = [0] * m.n
        for i, f in enumerate(current):
            bit = 1 << i
            while f:
                low = f & -f
                has[low.bit_length() - 1] |= bit
                f ^= low
        atom_index.append(has)
        level = (1 << len(current)) - 1
        found = [0] * len(current)    # union of the covers of current[i] found so far
        nxt = {}
        for i, f in enumerate(current):
            rest = full & ~f & ~found[i]
            while rest:
                c = m.closure(f | (rest & -rest), rest)
                rest &= ~c
                below = level & ~remap_mask(full & ~c, has)
                kids = []
                while below:
                    low = below & -below
                    j = low.bit_length() - 1
                    kids.append(current[j])
                    found[j] |= c
                    below ^= low
                nxt[c] = tuple(kids)
        total += len(nxt)
        if total > max_flats:
            raise TooLarge(f"flat count exceeds the guardrail of {max_flats}")
        current = sorted(nxt, key=lex_key)
        levels.append(current)
        children.update((c, nxt[c]) for c in current)
    return FlatLattice(m, levels, children, atom_index)


def mobius(lattice: FlatLattice) -> dict:
    """Mobius values mu(0, X) of a lattice, keyed by flat bitmask."""
    return dict(lattice.mobius())


def charpoly(m) -> IntPolynomial:
    """Characteristic polynomial of a matroid (or an already-built lattice)."""
    if isinstance(m, FlatLattice):
        return m.charpoly()
    return enumerate_flats(m).charpoly()


def interval_charpoly(lattice: FlatLattice, bottom: int, top: int) -> IntPolynomial:
    """Characteristic polynomial of an interval of the lattice of flats."""
    return lattice.interval_charpoly(bottom, top)
