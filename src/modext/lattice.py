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
  one component walk for gain graphs) and returns each group,
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
- Past enumeration one method reads the atom index, `avoiding`: the
  positions of level k, among some, whose flats hold no atom of a set A,
  one AND per atom of A against the level's complement index (per atom,
  the flats not holding it; kept in `_complement`), stopping early at 0.
  The flats of level k below X avoid the atoms outside X, and those a
  flat Z misses avoid its atoms outside the bottom.  Lower intervals and
  the prover's modular verdicts (`modularity`, kept per ctx and level in
  `_verdicts`) ask it.  `below(X)` stays a containment scan: the
  verifier's rank-equation scan walks it, and must not rest on the index
  that the prover's verdicts read.  The verifier keeps its own results
  on the lattice (`_verified`), which the prover never reads.
- Mobius values follow Weisner's theorem (Stanley, EC1 Cor. 3.9.3): for
  X > B and an atom a of X outside B, mu(B, X) = -sum mu(B, Y) over the
  flats Y covered by X with B <= Y and a not in Y.  Read upward with a
  the lowest atom of X outside B, each flat Y adds -mu(B, Y) to its
  leading covers: those holding an atom outside B below Y's lowest one,
  which are exactly the covers whose lowest atom outside B misses Y.
  From the bottom, enumeration folds this into its walk and keeps
  mu(bottom, X) as one list per level, by position (`mu`): the bottom
  gives its atoms -1, and a flat Y of level k >= 1 gives -mu(bottom, Y)
  to its known covers at positions below P, the count of flats made when
  the walk first reached a flat with Y's lowest atom outside the bottom.
  Proof.  A flat X of rank >= 2 is made by m(X) = cl(X & [0, beta(X)))
  (see Order), which holds X's lowest atom outside the bottom, for
  X & [0, beta(X)) has rank >= 1.  So that atom is the lowest of X's
  span, its maker's span plus beta(X), by induction on the rank.  A flat
  of a level comes after, in lex order, every flat of it with a lower
  lowest atom outside the bottom.  So each leading cover X of Y is
  made before the walk reaches a flat with Y's lowest atom: it is a known
  cover of Y, at a position below P.  Each flat at a position below P
  has, like its maker, a lowest atom below Y's, so a known cover there is
  leading; and no cover Y makes is, for it holds Y's lowest atom.
  `charpoly()` sums the lists per level, and an interval [bottom, T] sums
  them at the positions below T, those avoiding the atoms outside T
  (`lower_charpoly` keeps it per T); `mobius()` is their view keyed by
  flat, which no charpoly reads.  Any other interval [B, T] runs its own
  pass (`_weisner`), which pushes over `covers` upward from B;
  `upper_charpoly` keeps [B, top] per B.

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
    enumeration made them, and `mu[k][i]` = mu(bottom, `levels[k][i]`),
    which enumeration folded into its walk.

    `atom_index[k][a]`, for every level k below the top, has bit i set when
    `levels[k][i]` holds atom a: it is the index enumeration built while it
    made level k.  Outside enumeration only `avoiding` reads it.
    """

    def __init__(self, matroid: Matroid, levels, covers, atom_index, mu):
        self.matroid = matroid
        self.levels = levels
        self.covers = covers
        self.atom_index = atom_index
        self.mu = mu
        self.rank_of = {}
        for k, level in enumerate(levels):
            for f in level:
                self.rank_of[f] = k
        self._below = {}
        self._mobius = None
        self._charpoly = None
        self._upper = {}
        self._lower = {}
        # per level, atom_index with each entry complemented, for `avoiding`
        self._complement = [None] * len(atom_index)
        # filled by modularity: ctx -> the modular flats within it, and
        # (ctx, k) -> the positions of level k modular within ctx
        self._modular = {}
        self._verdicts = {}
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

    def avoiding(self, k: int, atoms: int, among: int | None = None) -> int:
        """The positions of level k < rank, among `among` (by default all),
        whose flats hold no atom of `atoms`, stopping once none is left."""
        complement = self._complement[k]
        if complement is None:
            full = (1 << len(self.levels[k])) - 1
            complement = self._complement[k] = [full ^ has for has in self.atom_index[k]]
        if among is None:
            among = (1 << len(self.levels[k])) - 1
        while atoms and among:
            a = atoms.bit_length() - 1
            among &= complement[a]
            atoms ^= 1 << a
        return among

    # -- Mobius function and characteristic polynomials

    def mobius(self) -> dict:
        """Mobius values mu(bottom, X) for every flat X, keyed by flat: a
        view of `mu`, built on first ask (cached), which no charpoly reads."""
        if self._mobius is None:
            self._mobius = {f: v for level, values in zip(self.levels, self.mu)
                            for f, v in zip(level, values)}
        return self._mobius

    def charpoly(self) -> IntPolynomial:
        """Characteristic polynomial of the whole lattice (cached)."""
        if self._charpoly is None:
            self._charpoly = IntPolynomial([sum(values) for values in reversed(self.mu)])
        return self._charpoly

    def interval_charpoly(self, bottom: int, top: int) -> IntPolynomial:
        """Characteristic polynomial of the interval [bottom, top].

        From the lattice's bottom it sums `mu` per level at the positions
        below top (`avoiding`), so it visits no flat outside the interval;
        from any other flat it runs `_weisner`.
        """
        self.require(bottom)
        self.require(top)
        if bottom & top != bottom:
            raise NotComparable(
                f"{sorted(atom_tuple(bottom))} is not below {sorted(atom_tuple(top))}")
        if bottom != self.bottom:
            return IntPolynomial(self._weisner(bottom, top)[::-1])
        if top == self.top:
            return self.charpoly()
        # mu(bottom, X) does not depend on the top of the interval, and the
        # flats of level k below top are the positions of `mu[k]` that
        # avoid the atoms outside top
        outside = self.top & ~top
        sums = []
        for k in range(self.rank_of[top], -1, -1):
            values = self.mu[k]
            free = self.avoiding(k, outside)
            total = 0
            while free:
                low = free & -free
                total += values[low.bit_length() - 1]
                free ^= low
            sums.append(total)
        return IntPolynomial(sums)

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
        to the flat.  Sums `mu` at the positions below the flat and builds
        no `mobius()`.  Cached per flat."""
        cached = self._lower.get(flat)
        if cached is None:
            cached = self.interval_charpoly(self.bottom, flat)
            self._lower[flat] = cached
        return cached

    def _weisner(self, bottom: int, top: int) -> list:
        """For an interval [bottom, top] whose bottom is not the lattice's,
        the sum of mu(bottom, X) over its flats X of rank k, for each k from
        r(bottom) to r(top), by Weisner's theorem.

        Walks upward from bottom, level by level: each flat Y pushes
        -mu(bottom, Y) to each of its covers X that holds an atom outside
        bottom below Y's lowest such atom, which is when X's lowest atom
        outside bottom misses Y.  The flats of the next level are the ones
        pushed to: mu never vanishes on a geometric lattice (Rota 1964),
        so every flat above bottom is pushed to at least once.  The flats
        outside top push only to flats outside top, so they are dropped
        once their level is done, and the push tests nothing per cover.
        """
        covers = self.covers
        new = ~bottom
        outside = 0 if top == self.top else ~top
        level = {bottom: 1}
        sums = [1]
        for _ in range(self.rank_of[bottom], self.rank_of[top]):
            nxt = {}
            get = nxt.get
            for y, v in level.items():
                low = y & new
                lower = ((low & -low) - 1) & new
                # covers come in ascending lowest new atom, so those holding
                # an atom of `lower` come first
                for x in covers[y]:
                    if not x & lower:
                        break
                    nxt[x] = get(x, 0) - v
            if outside:
                nxt = {x: v for x, v in nxt.items() if not x & outside}
            sums.append(sum(nxt.values()))
            level = nxt
        return sums

    def __repr__(self):
        return f"FlatLattice(rank={self.rank}, flats={len(self)})"


def enumerate_flats(m: Matroid, max_flats: int = DEFAULT_MAX_FLATS) -> FlatLattice:
    """Enumerate the lattice of flats of a matroid.

    Makes each flat of rank k+1 once, from its lex-least child, with one
    `Matroid.covers` call per such child, and makes each level in lex
    order; raises TooLarge when the flat count exceeds `max_flats`.
    Folds mu(bottom, X) in as it finds each flat's covers.
    """
    bottom = m.closure(0)
    full = m.full_mask
    levels = [[bottom]]
    covers = {}
    atom_index = []
    mu = [[1]]
    # idx[a]: bit p set when the level's p-th flat holds atom a
    idx = [bottom >> a & 1 for a in range(m.n)]
    total = 1
    current = [bottom]
    spans = [0]               # spans[p]: an independent set spanning current[p]
    while current[0] != full:
        atom_index.append(idx)
        made = []             # the next level, in lex order
        made_spans = []
        nmu = []              # mu(bottom, made[p])
        idx = [0] * m.n
        lead_atom = 0
        for f, span, v in zip(current, spans, mu[-1]):
            # the covers of f made so far hold every atom of its span
            out = []
            if span:
                low = span & -span
                if low != lead_atom:
                    # f is the first flat with this lowest atom: the flats
                    # made so far are those whose lowest atom lies below it
                    lead_atom = low
                    lead_mask = (1 << len(made)) - 1
                known = idx[low.bit_length() - 1]
                atoms = span ^ low
                while atoms and known:
                    low = atoms & -atoms
                    known &= idx[low.bit_length() - 1]
                    atoms ^= low
                # Weisner: f adds -mu(bottom, f) to its leading covers, the
                # known ones among those flats
                lead = known & lead_mask
                known ^= lead
                while known:
                    p = known.bit_length() - 1
                    out.append(made[p])
                    known ^= 1 << p
                while lead:
                    p = lead.bit_length() - 1
                    out.append(made[p])
                    nmu[p] -= v
                    lead ^= 1 << p
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
                # the atoms get -1 from the bottom, the one flat with an empty
                # span; no other flat leads a cover it makes
                nmu += [0 if span else -1] * (len(made) - first)
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
        mu.append(nmu)
        current, spans = made, made_spans
    covers[full] = ()
    return FlatLattice(m, levels, covers, atom_index, mu)
