"""Brute-force reference implementations used to cross-check the package.

Everything here recomputes results from first definitions.  The matroid
oracles only touch the rank function of the matroid under test, and the
minors are bare matroids over it; the gain graph oracles rebuild
independence from scratch (cycle enumeration plus gain products) and share
no code with the package at all.
"""

import random
from itertools import combinations, permutations

from modext.algebra import IntPolynomial
from modext.errors import NotAFlat
from modext.matroid import Matroid, atom_tuple, iter_atoms


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def atoms_of(mask: int):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def remap_mask(mask: int, images) -> int:
    """Union of images[i] over the atoms i of a bitmask."""
    out = 0
    for a in iter_atoms(mask):
        out |= images[a]
    return out


def is_flat(m, subset: int) -> bool:
    """Whether the matroid's closure leaves the subset as it is."""
    return m.closure(subset) == subset


def rank_classes(rank):
    """Classes kernel of a bare rank function, from rank queries alone.

    A candidate a lies in cl(subset) iff r(subset + a) = r(subset).  Any
    other lies in the cover cl(subset + a), which holds each candidate b
    outside cl(subset) with r(subset + a + b) = r(subset) + 1; the covers
    are keyed by their lowest candidate bit, taken in ascending order.
    """
    def classes(subset, candidates):
        r = rank(subset)
        groups = {}
        rest = 0
        for a in iter_atoms(candidates):
            if rank(subset | 1 << a) == r:
                groups[0] = groups.get(0, 0) | 1 << a
            else:
                rest |= 1 << a
        while rest:
            low = rest & -rest
            cover = low
            for b in iter_atoms(rest ^ low):
                if rank(subset | low | 1 << b) == r + 1:
                    cover |= 1 << b
            groups[low] = cover
            rest ^= cover
        return groups

    return classes


def bare_matroid(n, rank_fn, **kw):
    """A Matroid of a bare rank function, whose kernel is `rank_classes`
    over its own memoized rank: the rank-only reference for every backend
    kernel.  Keywords pass on to `Matroid`."""
    m = Matroid(n, rank_fn, classes_fn=rank_classes(lambda subset: m.rank(subset)), **kw)
    return m


# ---------------------------------------------------------------------------
# matroid oracles (use only m.n and m.rank)
# ---------------------------------------------------------------------------

def brute_closure(m, subset: int) -> int:
    r = m.rank(subset)
    out = subset
    for a in range(m.n):
        bit = 1 << a
        if not out & bit and m.rank(subset | bit) == r:
            out |= bit
    return out


def brute_flats(m):
    """All flats, as closures of every subset of the ground set."""
    flats = set()
    for s in range(1 << m.n):
        flats.add(brute_closure(m, s))
    return sorted(flats)


def reference_lattice(m):
    """(levels, children, covers, atom_index) of the lattice of flats, from
    first definitions: level k+1 is the set of closures of f | {a} over the
    flats f of level k and the atoms a outside f, sorted by atom tuple;
    children and covers by subset test between adjacent levels; and
    atom_index[k][a] has bit i set when levels[k][i] holds atom a, for every
    level below the top."""
    full = (1 << m.n) - 1
    levels = [[brute_closure(m, 0)]]
    while levels[-1][0] != full:
        made = {brute_closure(m, f | 1 << a)
                for f in levels[-1] for a in range(m.n) if not f >> a & 1}
        levels.append(sorted(made, key=atoms_of))
    children = {levels[0][0]: ()}
    covers = {}
    for lower, upper in zip(levels, levels[1:] + [[]]):
        for f in lower:
            covers[f] = tuple(c for c in upper if c & f == f)
        for c in upper:
            children[c] = tuple(f for f in lower if c & f == f)
    atom_index = [[sum(1 << i for i, f in enumerate(level) if f >> a & 1) for a in range(m.n)]
                  for level in levels[:-1]]
    return levels, children, covers, atom_index


def whitney_charpoly_coeffs(m):
    """chi(M, t) via the Whitney rank sum: sum over all subsets S of
    (-1)^|S| t^(r(M) - r(S)).  Returns coefficients, constant term first.
    No Moebius function, no lattice."""
    r = m.rank((1 << m.n) - 1)
    coeffs = [0] * (r + 1)
    for s in range(1 << m.n):
        sign = -1 if popcount(s) & 1 else 1
        coeffs[r - m.rank(s)] += sign
    return coeffs


def brute_mobius(m, flats=None):
    """mu(bottom, f) for every flat f, by the defining recursion."""
    if flats is None:
        flats = brute_flats(m)
    mu = {}
    for f in sorted(flats, key=lambda x: (popcount(x), x)):
        if f == flats[0]:
            mu[f] = 1
        else:
            mu[f] = -sum(mu[g] for g in flats if g != f and g & f == g)
    return mu


def brute_modular(m, x: int, flats=None) -> bool:
    """Rank equation r(X)+r(Y) = r(X meet Y)+r(X join Y) over all flats Y."""
    if flats is None:
        flats = brute_flats(m)
    rx = m.rank(x)
    for y in flats:
        if rx + m.rank(y) != m.rank(x & y) + m.rank(x | y):
            return False
    return True


def brute_round(m, flats=None) -> bool:
    if flats is None:
        flats = brute_flats(m)
    top = (1 << m.n) - 1
    proper = [f for f in flats if f != top]
    for f1, f2 in combinations(proper, 2):
        if f1 | f2 == top:
            return False
    return True


def brute_supersolvable(m, flats=None) -> bool:
    """Top-down peeling with modularity re-derived from the rank equation
    inside each restriction."""
    if flats is None:
        flats = brute_flats(m)

    def modular_within(x, ctx):
        rx = m.rank(x)
        for y in flats:
            if y & ctx != y:
                continue
            if rx + m.rank(y) != m.rank(x & y) + m.rank(x | y):
                return False
        return True

    memo = {}

    def peel(ctx):
        if ctx in memo:
            return memo[ctx]
        if ctx == 0:
            return True
        r = m.rank(ctx)
        ok = False
        for z in flats:
            if z & ctx == z and z != ctx and m.rank(z) == r - 1:
                if modular_within(z, ctx) and peel(z):
                    ok = True
                    break
        memo[ctx] = ok
        return ok

    return peel((1 << m.n) - 1)


def brute_covers(m, flat: int) -> list:
    """The flats covering a flat, in lex order: the closures of flat | {a}
    over the atoms a outside it, in ascending lowest new atom."""
    out, seen = [], flat
    for a in range(m.n):
        if not seen >> a & 1:
            c = brute_closure(m, flat | 1 << a)
            seen |= c
            out.append(c)
    return out


def brute_lines_outside(m, z: int, ctx: int) -> list:
    """[((a, b), hits)] for the pairs of atoms a < b of ctx - z with
    r({a, b}) = 2, in lex order, where hits lists in ascending order the
    atoms f of z outside cl(empty) with r({a, b, f}) = 2: the coatom
    triangle test from rank queries alone."""
    inside = atoms_of(z & ~brute_closure(m, 0))
    out = []
    for a, b in combinations(atoms_of(ctx & ~z), 2):
        pair = (1 << a) | (1 << b)
        if m.rank(pair) == 2:
            out.append(((a, b), [f for f in inside if m.rank(pair | 1 << f) == 2]))
    return out


def circuits(m) -> tuple:
    """All circuits (minimal dependent sets) as bitmasks, by size and then
    in lex order: a set of k atoms, k <= r(M) + 1, is one when its rank is
    k - 1 and every single deletion is independent."""
    out = []
    for size in range(1, min(m.n, m.rank((1 << m.n) - 1) + 1) + 1):
        for combo in combinations(range(m.n), size):
            mask = sum(1 << a for a in combo)
            if m.rank(mask) == size - 1 and all(m.rank(mask ^ 1 << a) == size - 1
                                                for a in combo):
                out.append(mask)
    return tuple(out)


def short_circuit_check(m, x: int, circs=None):
    """The modular short-circuit axiom for a nonempty flat X, over all
    circuits: for every circuit C and atom e of C - X some atom x0 of X
    has a circuit through e inside {x0} | (C - X), that is
    r(T) = r(T - {e}) for T = {x0} | (C - X).  Returns None when it holds,
    else (C, e) for the first circuit and atom that fail.  A caller that
    checks many flats of m passes `circuits(m)` as `circs`."""
    if brute_closure(m, x) != x:
        raise NotAFlat(f"{sorted(atom_tuple(x))} is not a flat")
    for c in circuits(m) if circs is None else circs:
        out = c & ~x
        if out == 0 or out == c:
            continue
        for e in atoms_of(out):
            if not any(m.rank(out | 1 << x0) == m.rank((out | 1 << x0) & ~(1 << e))
                       for x0 in atoms_of(x)):
                return c, e
    return None


def coatom_pairing(m, x: int) -> dict:
    """The pairing (a, b) -> f of a modular coatom x, over the lines of
    `brute_lines_outside`: each line through two atoms a < b outside x
    must hold exactly one parallel class of atoms of x, so that {a, b, f}
    is a circuit for its atoms f, and f is the class's lowest atom.
    ValueError when x is no coatom or a line has no such single class.
    The triple f(a,b), f(a,c), f(b,c) of any three outside atoms is
    dependent."""
    full = (1 << m.n) - 1
    if brute_closure(m, x) != x or m.rank(x) != m.rank(full) - 1:
        raise ValueError(f"{sorted(atom_tuple(x))} is not a coatom")
    out = {}
    for (a, b), hits in brute_lines_outside(m, x, full):
        classes = []  # lowest atom of each parallel class on the line
        for f in hits:
            if all(m.rank(1 << f | 1 << g) == 2 for g in classes):
                classes.append(f)
        if len(classes) != 1:
            raise ValueError(f"pair ({a}, {b}) outside {sorted(atom_tuple(x))} has "
                             f"{len(classes)} triangle completions")
        out[(a, b)] = classes[0]
    return out


def rank_agreement(m1, m2, correspondence=None, exhaustive_limit: int = 2 ** 14,
                   samples: int = 10 ** 4, seed: int = 0) -> dict:
    """Whether two matroids have equal rank functions atom for atom.

    `correspondence` maps atoms of m1 to atoms of m2 (identity when None).
    All subsets are compared when 2^n is within `exhaustive_limit`;
    otherwise `samples` uniformly random subsets from a seeded generator.
    Returns a report dict, with the first disagreeing subset and its two
    ranks when there is one; ValueError on different ground-set sizes or
    a correspondence that is no permutation.
    """
    if m1.n != m2.n:
        raise ValueError(f"ground sets have sizes {m1.n} and {m2.n}")
    n = m1.n
    if correspondence is None:
        correspondence = list(range(n))
    elif sorted(correspondence) != list(range(n)):
        raise ValueError("correspondence must be a permutation of the atoms")
    images = [1 << c for c in correspondence]
    total = 1 << n
    if total <= exhaustive_limit:
        mode, checked, subsets = "exhaustive", total, range(total)
    else:
        rng = random.Random(seed)
        mode, checked = "sampled", samples
        subsets = (rng.randrange(total) for _ in range(samples))
    for mask in subsets:
        r1, r2 = m1.rank(mask), m2.rank(remap_mask(mask, images))
        if r1 != r2:
            return {"agree": False, "mode": mode, "checked": checked,
                    "witness": atoms_of(mask), "ranks": [r1, r2]}
    return {"agree": True, "mode": mode, "checked": checked}


def brute_modular_joins(m, below) -> list:
    """[(e1, e2, x, round)] for the modular joins of the restriction to a
    flat ctx, given `below`, the flats under ctx in (rank, lex) order with
    ctx last: every pair e1 < e2 of proper flats, both modular within ctx
    by the rank equation against every flat of `below`, with e1 | e2 = ctx,
    in that order, where x = e1 & e2 and round says x is no union of two
    of its proper flats."""
    ctx = below[-1]
    mods = [x for x in below[:-1]
            if all(m.rank(x) + m.rank(y) == m.rank(x & y) + m.rank(x | y) for y in below)]
    out = []
    for e1, e2 in combinations(mods, 2):
        if e1 | e2 == ctx:
            x = e1 & e2
            proper = [f for f in below if f & x == f and f != x]
            out.append((e1, e2, x, all(f1 | f2 != x for f1, f2 in combinations(proper, 2))))
    return out


def restrict(m, flat: int):
    """M|flat as a bare matroid on atoms 0..|flat|-1, ranks asked of m (so
    its memo is shared), capped at m's atom count, which met m's cap."""
    if brute_closure(m, flat) != flat:
        raise NotAFlat(f"restriction requires a flat, got {sorted(atom_tuple(flat))}")
    bits = [1 << a for a in atom_tuple(flat)]
    return bare_matroid(len(bits), lambda sub: m.rank(remap_mask(sub, bits)), max_atoms=m.n)


def contract_simplify(m, flat: int):
    """(si(M/flat), atom_map): a bare matroid whose atoms are the flats
    covering `flat`, in lex order, ranked by r(flat | union of covers) -
    r(flat) on m; atom_map sends each atom of m outside the flat to the
    index of its cover; capped as `restrict` caps."""
    if brute_closure(m, flat) != flat:
        raise NotAFlat(f"contraction requires a flat, got {sorted(atom_tuple(flat))}")
    base = m.rank(flat)
    covers = brute_covers(m, flat)
    atom_map = dict(sorted((a, i) for i, c in enumerate(covers)
                           for a in atom_tuple(c & ~flat)))
    q = bare_matroid(len(covers), lambda sub: m.rank(flat | remap_mask(sub, covers)) - base,
                     max_atoms=m.n)
    return q, atom_map


def flag_quotient_product(flag) -> IntPolynomial:
    """Product of all step quotients t - a of a divisional flag (telescopes
    to chi(M))."""
    out = IntPolynomial.one()
    for a in flag.quotient_roots:
        out = out * IntPolynomial((-a, 1))
    return out


# ---------------------------------------------------------------------------
# matrix oracles (use only the field's scalar arithmetic)
# ---------------------------------------------------------------------------

def _proportional(field, u, v) -> bool:
    """Whether two nonzero vectors over the field differ by a scalar."""
    pivot = next(i for i, x in enumerate(u) if not field.is_zero(x))
    if field.is_zero(v[pivot]):
        return False
    lam = field.mul(v[pivot], field.inv(u[pivot]))
    return all(field.is_zero(field.sub(field.mul(lam, a), b)) for a, b in zip(u, v))


def field_rank(field, rows) -> int:
    """Rank of a matrix over the field by Gauss-Jordan elimination; the
    entries are anything `field.of` reads."""
    rows = [[field.of(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if not field.is_zero(rows[i][col])),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            factor = rows[i][col]
            if i != rank and not field.is_zero(factor):
                rows[i] = [field.sub(a, field.mul(factor, b)) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def simplicity_violation(field, cols):
    """(columns, message) of the NotSimple a matrix with these columns must
    raise, by a pairwise scan: the lowest zero column, else the lex-first
    pair of proportional columns; None when the columns are simple."""
    for j, col in enumerate(cols):
        if all(field.is_zero(x) for x in col):
            return [j], f"column {j} is zero"
    for i, j in combinations(range(len(cols)), 2):
        if _proportional(field, cols[i], cols[j]):
            return [i, j], f"columns {i} and {j} are proportional"
    return None


# ---------------------------------------------------------------------------
# graph oracles
# ---------------------------------------------------------------------------

def brute_chordal(n_vertices: int, edges) -> bool:
    """Chordality by trying every elimination ordering (fine for n <= 6)."""
    adj = {v: set() for v in range(n_vertices)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for order in permutations(range(n_vertices)):
        pos = {v: i for i, v in enumerate(order)}
        good = True
        for v in order:
            later = [w for w in adj[v] if pos[w] > pos[v]]
            for a, b in combinations(later, 2):
                if b not in adj[a]:
                    good = False
                    break
            if not good:
                break
        if good:
            return True
    return n_vertices == 0


# ---------------------------------------------------------------------------
# gain graph oracles (independent of modext.gaingraph internals)
# ---------------------------------------------------------------------------

class GainOracle:
    """Frame/lift rank from scratch.

    links: list of (u, v, gain) with gains read "u to v"; loops: list of
    (vertex, ) or vertex ints.  Atom order is links then loops, matching the
    package convention.  op/inv/identity describe the gain group.
    """

    def __init__(self, links, loops, op, inv, identity=0):
        self.links = list(links)
        self.loops = [l if isinstance(l, int) else l[0] for l in loops]
        self.op = op
        self.inv = inv
        self.identity = identity
        self.n_atoms = len(self.links) + len(self.loops)

    def _cycles(self, atom_set):
        """Every subset of atom_set that forms a single cycle, with its
        balance verdict.  Loops are length-one cycles."""
        link_atoms = [a for a in atom_set if a < len(self.links)]
        out = []
        for a in atom_set:
            if a >= len(self.links):
                out.append((frozenset([a]), False))  # loops: never balanced
        for size in range(2, len(link_atoms) + 1):
            for combo in combinations(link_atoms, size):
                verdict = self._cycle_balance(combo)
                if verdict is not None:
                    out.append((frozenset(combo), verdict))
        return out

    def _cycle_balance(self, combo):
        """None if combo is not a cycle; otherwise True/False for balance."""
        deg = {}
        for a in combo:
            u, v, _ = self.links[a]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        if any(d != 2 for d in deg.values()):
            return None
        # connected walk covering every edge exactly once, vertex degrees 2
        start = self.links[combo[0]][0]
        unused = set(combo)
        here = start
        total = self.identity
        while True:
            step = None
            for a in unused:
                u, v, g = self.links[a]
                if u == here:
                    step = (a, v, g)
                    break
                if v == here:
                    step = (a, u, self.inv(g))
                    break
            if step is None:
                return None  # disconnected: not a single cycle
            a, nxt, g = step
            unused.discard(a)
            total = self.op(total, g)
            here = nxt
            if here == start and not unused:
                return total == self.identity
            if here == start and unused:
                return None  # two cycles glued at a vertex

    def _components(self, atom_set):
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        def union(a, b):
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for a in atom_set:
            if a < len(self.links):
                u, v, _ = self.links[a]
                union(u, v)
            else:
                w = self.loops[a - len(self.links)]
                union(w, w)
        comps = {}
        for a in atom_set:
            if a < len(self.links):
                key = find(self.links[a][0])
            else:
                key = find(self.loops[a - len(self.links)])
            comps.setdefault(key, []).append(a)
        return list(comps.values())

    def frame_independent(self, atom_set) -> bool:
        cycles = self._cycles(atom_set)
        if any(balanced for _, balanced in cycles):
            return False
        for comp in self._components(atom_set):
            in_comp = set(comp)
            if sum(1 for cyc, _ in cycles if cyc <= in_comp) > 1:
                return False
        return True

    def lift_independent(self, atom_set, has_inf: bool) -> bool:
        cycles = self._cycles(atom_set)
        if any(balanced for _, balanced in cycles):
            return False
        return len(cycles) + (1 if has_inf else 0) <= 1

    def frame_rank(self, mask: int) -> int:
        atom_set = atoms_of(mask)
        best = 0
        for size in range(len(atom_set), 0, -1):
            if size <= best:
                break
            for combo in combinations(atom_set, size):
                if self.frame_independent(combo):
                    best = size
                    break
        return best

    def lift_rank(self, mask: int) -> int:
        """mask is over the lift ground set: bit 0 = the extra atom, bit i+1
        = gain graph atom i."""
        has_inf = bool(mask & 1)
        atom_set = [a - 1 for a in atoms_of(mask) if a >= 1]
        best = 0
        for size in range(len(atom_set), -1, -1):
            if size + (1 if has_inf else 0) <= best:
                break
            for combo in combinations(atom_set, size):
                if has_inf and size + 1 > best and self.lift_independent(combo, True):
                    best = size + 1
                if size > best and self.lift_independent(combo, False):
                    best = size
        return best


def oracle_for(g):
    """Build a GainOracle from a package GainGraph without trusting any of
    its derived machinery (only the stored edge/loop/group data)."""
    links = [(e.u, e.v, e.gain) for e in g.edges]
    loops = list(g.loops)
    return GainOracle(links, loops, g.group.op, g.group.inv)
