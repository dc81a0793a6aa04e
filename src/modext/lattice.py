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
  handing over its span and the atoms in none of its covers made so far:
  those outside one OR of F with them.  The kernel groups those atoms by
  cover from one pass over the span (one basis for graphs and matrices,
  one component walk for gain graphs; a bare rank function closes one
  cover at a time, a rank query per candidate) and returns each group,
  all of a new cover outside F, so that F | group is the cover.  The
  covers of F made so far are the flats of the next level that hold F,
  that is, hold its span: the index entry of the span's first atom ANDed
  with those of the others, stopping early at 0.  F's `covers` tuple is
  those flats, in ascending position (read off from the top bit down,
  then reversed once), then the covers F makes.
  The index is built as the level is made, and the lattice keeps it
  (`atom_index`): the covers F makes take consecutive positions, so each
  atom of F is written once with that whole block of bits, and each new
  cover writes only its atoms outside F.
- The atom index answers "which flats of level k hold these atoms?" by
  one AND per atom over the atoms outside the bottom (the loops lie in
  every flat).  The prover's modular verdicts (`modularity`) read it:
  per ctx and pair of levels {r, k} with r + k = r(ctx) + 1, one pass
  ANDs the atoms of each flat of the lower level below ctx into the
  upper level's complement index (per atom, the flats not holding it),
  and the verdicts stay on the lattice as one bitmask per ctx and level
  (`_verdicts`).  `below(X)` stays a containment scan: the verifier's
  rank-equation scan walks it, and must not rest on the index that the
  prover's verdicts read.  The verifier keeps its own results on the
  lattice (`_verified`), which the prover never reads.
- Mobius values follow Weisner's theorem (Stanley, EC1 Cor. 3.9.3): for
  X > B and an atom a of X outside B, mu(B, X) = -sum mu(B, Y) over the
  flats Y covered by X with B <= Y and a not in Y.  One routine
  (`_weisner`) computes mu(B, X) over an interval [B, T] and sums it per
  level, read upward with a the lowest atom of X outside B: walking the
  interval level by level from B, each flat Y adds -mu(B, Y) to each
  cover X <= T that holds an atom outside B below Y's lowest one (exactly
  the covers whose lowest atom outside B misses Y), and those covers come
  first in Y's `covers`.  Only flats of [B, T] are walked, and each is
  reached: mu never vanishes on a geometric lattice (Rota 1964).
  mu(bottom, X) depends on nothing above X, so `mobius()` and
  `charpoly()` share one pass over the whole lattice, and an interval
  [bottom, T] sums the kept values over the flats below T
  (`lower_charpoly` keeps it per T, as `upper_charpoly` keeps [B, top]
  per B); any other interval runs its own pass.

Order: levels and covers list flats in lexicographic order of their
ascending atom tuples (`atom_tuple`), and nothing is sorted:
walking level k in that order, enumeration makes level k+1 in that order.
Proof.  Call the flats that c covers its children.  For a flat c of rank
k+1, let beta(c) be the first atom at which
the initial segment c & [0, beta] reaches rank k+1, and m(c) =
cl(c & [0, beta)).  Then beta(c) = min(c - m(c)), and m(c) is the
lex-least child of c: the first atom e at which another child g differs
from m(c) lies in m(c), for an e in g - m(c) lies in c, so e >= beta,
and then g holds c & [0, beta), so g = m(c).  So c is made exactly
once, by m(c), at atom beta(c): when m(c) is walked no other child of c
has been, so c is not made yet, and `Matroid.covers` returns c - m(c)
among the parts of the covers of m(c), whose lowest atom min(c - m(c))
c is made at.  A flat makes its covers in ascending beta, the order
`covers` returns.
Now take c1 <lex c2 and e = min(c1 ^ c2), which lies in c1.
- If beta1 < e or beta2 < e, the two initial segments agree through that
  beta, have rank k+1, and span both flats, so c1 = c2: impossible.
- If e < beta1, then m(c1) and m(c2) agree below e (both hold all of
  c1 & [0, e) = c2 & [0, e)) and e lies in m(c1) but not in c2, so
  m(c1) <lex m(c2).
- If e = beta1, then m(c1) = cl(c1 & [0, e)) = cl(c2 & [0, e)) is inside
  m(c2); both have rank k, so they are equal, and beta1 = e < beta2.
So flats are made in lex order.  A flat's covers made before it is
walked hold lower positions than the covers it makes, so its `covers`
tuple, in ascending position, is lex-sorted too: `FlatLattice` sorts
nothing.

The lattice stores no joins.  A check that needs r(X join Y) asks the rank
oracle for r(X | Y), which is the same number.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .algebra import IntPolynomial
from .errors import NotAFlat, NotComparable, TooLarge
from .matroid import Matroid, atom_tuple

DEFAULT_MAX_FLATS = 2 ** 20


class FlatLattice:
    """The lattice of flats of a matroid, fully enumerated.  Keeps `levels`
    and `covers` (lex-sorted tuples, keyed in (rank, lex) order) as
    enumeration made them.

    `atom_index[k][a]`, for every level k below the top, has bit i set when
    `levels[k][i]` holds atom a: it is the index enumeration built while it
    made level k.  The flats of rank k below a flat X are the positions
    that no atom outside X sets, and those a flat Z meets are the
    positions its atoms outside the bottom set.
    """

    def __init__(self, matroid: Matroid, levels, covers, atom_index):
        self.matroid = matroid
        self.levels = levels
        self.covers = covers
        self.atom_index = atom_index
        self.rank_of = {}
        for k, level in enumerate(levels):
            for f in level:
                self.rank_of[f] = k
        self._below = {}
        self._full = None
        self._upper = {}
        self._lower = {}
        # filled by modularity: ctx -> the modular flats within it,
        # (ctx, k) -> the positions of level k modular within ctx, and
        # k -> atom_index[k] with each entry complemented
        self._modular = {}
        self._verdicts = {}
        self._complement = {}
        # filled and read by verify only: (lo, hi) -> the first pair of
        # atoms whose line misses lo, or None, and ("chi", lo, hi) -> the
        # charpoly of [lo, hi]
        self._verified = {}

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

    # -- Mobius function and characteristic polynomials

    def mobius(self) -> dict:
        """Mobius values mu(bottom, X) for every flat X (cached, with the
        charpoly that the same Weisner pass sums)."""
        if self._full is None:
            mu, sums = self._weisner(self.bottom, self.top)
            self._full = mu, IntPolynomial(sums[::-1])
        return self._full[0]

    def charpoly(self) -> IntPolynomial:
        """Characteristic polynomial of the whole lattice (cached)."""
        if self._full is None:
            self.mobius()
        return self._full[1]

    def interval_charpoly(self, bottom: int, top: int) -> IntPolynomial:
        """Characteristic polynomial of the interval [bottom, top]."""
        self.require(bottom)
        self.require(top)
        if bottom & top != bottom:
            raise NotComparable(
                f"{sorted(atom_tuple(bottom))} is not below {sorted(atom_tuple(top))}")
        if bottom != self.bottom:
            return IntPolynomial(self._weisner(bottom, top)[1][::-1])
        if top == self.top:
            return self.charpoly()
        # mu(bottom, X) does not depend on the top of the interval
        mu = self.mobius()
        outside = ~top
        return IntPolynomial([sum(mu[f] for f in self.levels[k] if not f & outside)
                              for k in range(self.rank_of[top], -1, -1)])

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

    def _weisner(self, bottom: int, top: int):
        """(mu, sums) for an interval [bottom, top]: mu(bottom, X) for each
        flat X of it, and for each rank k from r(bottom) to r(top) the sum
        of mu(bottom, X) over its flats of rank k, by Weisner's theorem.

        Walks the interval upward, level by level: each flat Y pushes
        -mu(bottom, Y) to each of its covers X <= top that holds an atom
        outside bottom below Y's lowest such atom, which is when X's lowest
        atom outside bottom misses Y.  The flats of the next level are the
        ones pushed to: mu never vanishes on a geometric lattice (Rota
        1964), so every flat of the interval is pushed to at least once.
        """
        covers = self.covers
        outside = ~top
        mu = {bottom: 1}
        sums = [1]
        level = mu
        for _ in range(self.rank_of[bottom], self.rank_of[top]):
            nxt = {}
            get = nxt.get
            for y, v in level.items():
                low = y & ~bottom
                lower = ((low & -low) - 1) & ~bottom
                # covers come in ascending lowest new atom, so those holding
                # an atom of `lower` come first
                for x in covers[y]:
                    if not x & lower:
                        break
                    if not x & outside:
                        nxt[x] = get(x, 0) - v
            mu.update(nxt)
            sums.append(sum(nxt.values()))
            level = nxt
        return mu, sums

    def __repr__(self):
        return f"FlatLattice(rank={self.rank}, flats={len(self)})"


def enumerate_flats(m: Matroid, max_flats: int = DEFAULT_MAX_FLATS) -> FlatLattice:
    """Enumerate the lattice of flats of a matroid.

    Makes each flat of rank k+1 once, from its lex-least child, with one
    `Matroid.covers` call per such child, and makes each level in lex
    order; raises TooLarge when the flat count exceeds `max_flats`.
    """
    bottom = m.closure(0)
    full = m.full_mask
    levels = [[bottom]]
    covers = {}
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
        idx = [0] * m.n
        for f, span in zip(current, spans):
            # the covers of f made so far hold every atom of its span
            out = []
            if span:
                low = span & -span
                known = idx[low.bit_length() - 1]
                atoms = span ^ low
                while atoms and known:
                    low = atoms & -atoms
                    known &= idx[low.bit_length() - 1]
                    atoms ^= low
                while known:
                    p = known.bit_length() - 1
                    out.append(made[p])
                    known ^= 1 << p
                out.reverse()
            rest = full & ~reduce(or_, out, f)
            if rest:
                first = len(made)
                for new in m.covers(span, rest):
                    c = f | new
                    bit = 1 << len(made)
                    made.append(c)
                    made_spans.append(span | (new & -new))
                    out.append(c)
                    while new:
                        low = new & -new
                        idx[low.bit_length() - 1] |= bit
                        new ^= low
                # every cover just made holds f: one write per atom of f sets
                # their whole block of positions
                block = (1 << len(made)) - (1 << first)
                atoms = f
                while atoms:
                    low = atoms & -atoms
                    idx[low.bit_length() - 1] |= block
                    atoms ^= low
            covers[f] = tuple(out)
        total += len(made)
        if total > max_flats:
            raise TooLarge(f"flat count exceeds the guardrail of {max_flats}")
        levels.append(made)
        current, spans = made, made_spans
    covers[full] = ()
    return FlatLattice(m, levels, covers, atom_index)

