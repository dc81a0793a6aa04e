"""The geometric lattice of flats: enumeration, Mobius function, charpoly.

Flats are bitmasks over the matroid's atoms; the partial order is subset
containment, meets are intersections, and the join of two flats is the
closure of their union (whose rank equals the rank of the plain union).

Everything is driven by the covering relation:

- Enumeration walks rank levels upward and makes each flat once.  Each
  flat F of the level walked keeps an independent set spanning it: its
  maker's set plus the atom it was made at (the bottom's set is empty).
  The covers of F partition the atoms outside F (Oxley, Matroid Theory,
  1.4), so F asks `Matroid.covers` once, for its covers not made yet,
  handing over its span and the atoms in none of its covers made so far.
  The kernel groups those atoms by cover from one pass over the span (one
  basis for graphs and matrices, one component walk for gain graphs); a
  bare rank function closes one cover at a time, a rank query per
  candidate.  The covers of F made so far are the flats of the next level
  that hold F, that is, hold its span: one AND of the next level's atom
  index over the span's atoms, stopping early at 0.  Walking that AND
  once appends F to each cover's children.  The index is built as the
  level is made, and the lattice keeps it (`atom_index`).
- The atom index answers "which flats of level k hold these atoms?" by
  one AND per atom.  `above(X)` ANDs it, at each level from r(X) up to
  the one below the top, over the atoms of X outside the bottom (the
  loops lie in every flat), walks the positions left in lex order and
  appends the top.  The prover's modular verdicts (`modularity`) read it
  too: per ctx and pair of levels {r, k} with r + k = r(ctx) + 1, one
  pass ANDs the atoms of each flat of the lower level below ctx into the
  upper level's complement index (per atom, the flats not holding it),
  and the verdicts stay on the lattice as one bitmask per ctx and level
  (`_verdicts`).  `below(X)` stays a containment scan: the verifier's
  rank-equation scan walks it, and must not rest on the index that the
  prover's verdicts read.
- Mobius values follow Weisner's theorem (Stanley, EC1 Cor. 3.9.3): for
  X > B and an atom a of X outside B, mu(B, X) = -sum mu(B, Y) over the
  flats Y covered by X with B <= Y and a not in Y, one pass over cover
  edges.  mu(bottom, X) depends on nothing above X, so `mobius()` computes
  it once for the whole lattice and an interval [bottom, T] sums it over
  the flats below T (`lower_charpoly` keeps it per T, as `upper_charpoly`
  keeps [B, top] per B); any other interval [B, T] runs one Weisner pass
  over the flats above B and below T (all of `above(B)` when T is the
  top), skipping the children not above B.

Order: levels, covers and children list flats in lexicographic order of
their ascending atom tuples (`atom_tuple`), and nothing is sorted:
walking level k in that order, enumeration makes level k+1 in that order.
Proof.  For a flat c of rank k+1, let beta(c) be the first atom at which
the initial segment c & [0, beta] reaches rank k+1, and m(c) =
cl(c & [0, beta)).  Then beta(c) = min(c - m(c)), and m(c) is the
lex-least child of c: the first atom e at which another child g differs
from m(c) lies in m(c), for an e in g - m(c) lies in c, so e >= beta,
and then g holds c & [0, beta), so g = m(c).  So c is made exactly
once, by m(c), at atom beta(c): when m(c) is walked no other child of c
has been, so c is not made yet, and `Matroid.covers` returns it among
the covers of m(c), whose lowest new atom min(c - m(c)) it is made at.
A flat makes its covers in ascending beta, the order `covers` returns.
Now take c1 <lex c2 and e = min(c1 ^ c2), which lies in c1.
- If beta1 < e or beta2 < e, the two initial segments agree through that
  beta, have rank k+1, and span both flats, so c1 = c2: impossible.
- If e < beta1, then m(c1) and m(c2) agree below e (both hold all of
  c1 & [0, e) = c2 & [0, e)) and e lies in m(c1) but not in c2, so
  m(c1) <lex m(c2).
- If e = beta1, then m(c1) = cl(c1 & [0, e)) = cl(c2 & [0, e)) is inside
  m(c2); both have rank k, so they are equal, and beta1 = e < beta2.
So flats are made in lex order.  A flat's children are appended as the
level below is walked, so they are lex-sorted too, and covers gathered by
walking the children in (rank, lex) order keep it: `FlatLattice` sorts
nothing.

The lattice stores no joins.  A check that needs r(X join Y) asks the rank
oracle for r(X | Y), which is the same number.
"""

from __future__ import annotations

from .algebra import IntPolynomial
from .errors import NotAFlat, NotComparable, TooLarge
from .matroid import Matroid, atom_tuple

DEFAULT_MAX_FLATS = 2 ** 20


class FlatLattice:
    """The lattice of flats of a matroid, fully enumerated.  Keeps `levels`
    and `children` (lex-sorted tuples, keyed in (rank, lex) order) as
    enumeration made them, and derives `covers` from the children.

    `atom_index[k][a]`, for every level k below the top, has bit i set when
    `levels[k][i]` holds atom a: it is the index enumeration built while it
    made level k.  The flats of rank k below a flat X are the positions
    that no atom outside X sets, those above X the positions that every
    atom of X outside the bottom sets (`above`), and those a flat Z meets
    are the positions its atoms outside the bottom set.
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
        self._lower = {}
        # filled by modularity: ctx -> the modular flats within it,
        # (ctx, k) -> the positions of level k modular within ctx, and
        # k -> atom_index[k] with each entry complemented
        self._modular = {}
        self._verdicts = {}
        self._complement = {}

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
        """Flats contained in `flat`, ordered by rank then lex (cached).

        A containment scan over every flat, not a read of `atom_index`:
        the verifier's rank-equation scan (`violating_flat_in_context`)
        walks these flats, and it must not depend on the index that the
        prover's meet test reads, or it would re-check nothing.
        """
        cached = self._below.get(flat)
        if cached is None:
            self.require(flat)
            cached = tuple(f for f in self.flats() if f & flat == f)
            self._below[flat] = cached
        return cached

    def above(self, flat: int):
        """Flats containing `flat`, ordered by rank then lex (cached).

        At each level from the flat's rank up, the flats holding it are
        the positions set in `atom_index` by all its atoms outside the
        bottom; the top holds every flat.
        """
        cached = self._above.get(flat)
        if cached is None:
            k = self.rank_of[self.require(flat)]
            atoms = atom_tuple(flat & ~self.bottom)
            out = []
            # the index stops at the level below the top
            for level, has in zip(self.levels[k:], self.atom_index[k:]):
                held = (1 << len(level)) - 1
                for a in atoms:
                    held &= has[a]
                while held:
                    low = held & -held
                    out.append(level[low.bit_length() - 1])
                    held ^= low
            out.append(self.top)
            cached = tuple(out)
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
        top_rank = self.rank_of[top]
        if bottom == self.bottom:
            # mu(bottom, X) does not depend on the top of the interval
            mu = self.mobius()
            outside = ~top
            return IntPolynomial([sum(mu[f] for f in self.levels[k] if not f & outside)
                                  for k in range(top_rank, -1, -1)])
        flats = self.above(bottom)
        if top != self.top:
            flats = [f for f in flats if f & top == f]
        mu = self._weisner(flats, bottom)
        return _chi_from_mobius(mu, self.rank_of, top_rank, shift=self.rank_of[bottom])

    def upper_charpoly(self, flat: int) -> IntPolynomial:
        """Charpoly of [flat, top]; equals the charpoly of the simplified
        contraction by the flat.  Cached per flat."""
        cached = self._upper.get(flat)
        if cached is None:
            cached = self.interval_charpoly(flat, self.top)
            self._upper[flat] = cached
        return cached

    def lower_charpoly(self, flat: int) -> IntPolynomial:
        """Charpoly of [bottom, flat]; equals the charpoly of the restriction
        to the flat.  Cached per flat."""
        cached = self._lower.get(flat)
        if cached is None:
            cached = self.interval_charpoly(self.bottom, flat)
            self._lower[flat] = cached
        return cached

    def _weisner(self, flats, bottom: int) -> dict:
        """mu(bottom, X) for the flats X of an interval [bottom, top], given
        in rank order with bottom first, by Weisner's theorem."""
        children = self.children
        mu = {bottom: 1}
        for x in flats[1:]:
            a = x & ~bottom
            a &= -a
            s = 0
            for y in children[x]:
                if not y & a and y & bottom == bottom:
                    s += mu[y]
            mu[x] = -s
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
    """Enumerate the lattice of flats of a matroid.

    Makes each flat of rank k+1 once, from its lex-least child, with one
    `Matroid.covers` call per such child, and makes each level in lex
    order; raises TooLarge when the flat count exceeds `max_flats`.
    """
    bottom = m.closure(0)
    full = m.full_mask
    levels = [[bottom]]
    children = {bottom: ()}
    atom_index = []
    # idx[a]: bit p set when the level's p-th flat holds atom a
    idx = [bottom >> a & 1 for a in range(m.n)]
    total = 1
    current = [bottom]
    spans = [0]               # spans[p]: an independent set spanning current[p]
    while current[0] != full:
        atom_index.append(idx)
        made = []             # the next level, in lex order
        made_spans = []
        kids = []             # kids[p]: the children of made[p] found so far
        idx = [0] * m.n
        for f, span in zip(current, spans):
            # the covers of f made so far hold every atom of its span
            known = (1 << len(made)) - 1
            atoms = span
            while atoms and known:
                low = atoms & -atoms
                known &= idx[low.bit_length() - 1]
                atoms ^= low
            rest = full & ~f
            while known:
                p = known.bit_length() - 1
                kids[p].append(f)
                rest &= ~made[p]
                known ^= 1 << p
            if not rest:
                continue
            for c in m.covers(f, span, rest):
                new = c & ~f
                bit = 1 << len(made)
                made.append(c)
                made_spans.append(span | (new & -new))
                kids.append([f])
                while c:
                    low = c & -c
                    idx[low.bit_length() - 1] |= bit
                    c ^= low
        total += len(made)
        if total > max_flats:
            raise TooLarge(f"flat count exceeds the guardrail of {max_flats}")
        levels.append(made)
        children.update(zip(made, map(tuple, kids)))
        current, spans = made, made_spans
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
