"""Gain graphs over finite groups and their frame and lift matroids.

A gain graph has edges {u,v}_g labelled by group elements, with
{u,v}_g = {v,u}_{g^-1}; edges are canonicalized to u < v.  Loops are kept
separately (a set of vertices) and count as unbalanced cycles.  A cycle is
balanced when its gain product along the traversal is the identity.

Matroid atoms are edges in listed order followed by loops in ascending
vertex order; the extended lift matroid prepends an extra atom `inf`.

One pass reads a subset's components, potentials and balance: the frame
and lift rank and cover kernels, asked for small subsets thousands of times
per lattice, fold the subset's atoms once (`_fold`).
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Field
from .arrangement import Arrangement
from .errors import (
    Frozen,
    HasLoops,
    InvalidInput,
    NoAdditiveEmbedding,
    NoMultiplicativeEmbedding,
    NotSimpleFrame,
    reading,
)
from .matroid import DEFAULT_MAX_ATOMS, Matroid, check_atom_count


# ---------------------------------------------------------------------------
# finite groups


class FiniteGroup:
    """A finite group given by its multiplication table.

    Elements are indices 0..order-1 with 0 the identity; `names` are their
    display strings.
    """

    def __init__(self, names, table):
        self.names = tuple(str(x) for x in names)
        n = len(self.names)
        if len(set(self.names)) != n or n == 0:
            raise InvalidInput("group element names must be nonempty and unique")
        self.table = tuple(tuple(int(x) for x in row) for row in table)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise InvalidInput("group table must be square of the group order")
        if any(x < 0 or x >= n for row in self.table for x in row):
            raise InvalidInput("group table entries out of range")
        for a in range(n):
            if self.table[0][a] != a or self.table[a][0] != a:
                raise InvalidInput("element 0 must be the identity")
        self.inverse = []
        for a in range(n):
            invs = [b for b in range(n) if self.table[a][b] == 0]
            if len(invs) != 1 or self.table[invs[0]][a] != 0:
                raise InvalidInput(f"element {a} lacks a two-sided inverse")
            self.inverse.append(invs[0])
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise InvalidInput("group table is not associative")

    @property
    def order(self) -> int:
        return len(self.names)

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.op(x, a)
            k += 1
        return k

    def generator(self):
        """An element of full order when the group is cyclic, else None."""
        for a in range(self.order):
            if self.element_order(a) == self.order:
                return a
        return None

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(str(name))
        except ValueError as exc:
            raise InvalidInput(f"unknown group element {name!r}") from exc

    # -- standard groups

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls(("1",), ((0,),))

    @classmethod
    def sign(cls) -> "FiniteGroup":
        return cls(("+1", "-1"), ((0, 1), (1, 0)))

    @classmethod
    def zmod(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise InvalidInput("zmod order must be positive")
        names = tuple(str(k) for k in range(n))
        table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
        return cls(names, table)

    @classmethod
    def from_json(cls, data, max_atoms: int = DEFAULT_MAX_ATOMS) -> "FiniteGroup":
        """A group of order at most `max_atoms`, as the named k-2-zM (M
        atoms) imposes; the order is checked before the table, whose
        validation is cubic in it, is built."""
        if not isinstance(data, dict) or "kind" not in data:
            raise InvalidInput(f"bad group descriptor {data!r}")
        kind = data["kind"]
        if kind == "trivial":
            return cls.trivial()
        if kind == "sign":
            return cls.sign()
        with reading(f"{kind!r} group"):
            if kind == "zmod":
                order = int(data.get("p", 0))
                check_atom_count(order, max_atoms)
                return cls.zmod(order)
            if kind == "table":
                check_atom_count(len(data["names"]), max_atoms)
                return cls(data["names"], data["table"])
        raise InvalidInput(f"unknown group kind {kind!r}")

    def __repr__(self):
        return f"FiniteGroup({'/'.join(self.names)})"


def multiplicative_embedding(group: FiniteGroup, field: Field):
    """Injective homomorphism into the multiplicative group of the field.

    Finite subgroups of a field's multiplicative group are cyclic, so one
    exists iff the group is cyclic of an order n with a primitive n-th root
    of unity in the field: n <= 2 over Q, n dividing p-1 over GF(p).
    Returns the tuple of images indexed by element.
    """
    n = group.order
    if n == 1:
        return (field.one(),)
    g = group.generator()
    if g is None:
        raise NoMultiplicativeEmbedding(
            f"group of order {n} is not cyclic, so it has no field embedding")
    if field.is_rational:
        if n != 2:
            raise NoMultiplicativeEmbedding(f"Q has no elements of order {n}")
        omega = Fraction(-1)
    else:
        p = field.p
        if (p - 1) % n != 0:
            raise NoMultiplicativeEmbedding(f"GF({p})^* has no subgroup of order {n}")
        gen = _gf_generator(p)
        omega = pow(gen, (p - 1) // n, p)
    values = [None] * n
    x, power = 0, field.one()
    for _ in range(n):
        values[x] = power
        x = group.op(x, g)
        power = field.mul(power, omega)
    return tuple(values)


def additive_embedding(group: FiniteGroup, field: Field):
    """Injective homomorphism into the additive group of the field.

    Over Q only the trivial group embeds; over GF(p) the group must be
    cyclic of order p (or trivial).
    """
    n = group.order
    if n == 1:
        return (field.zero(),)
    if field.is_rational:
        raise NoAdditiveEmbedding("Q has no finite additive subgroups beyond 0")
    p = field.p
    if n != p:
        raise NoAdditiveEmbedding(f"GF({p})+ has no subgroup of order {n}")
    g = group.generator()
    if g is None:
        raise NoAdditiveEmbedding(f"group of order {n} is not cyclic")
    values = [None] * n
    x = 0
    for k in range(n):
        values[x] = k % p
        x = group.op(x, g)
    return tuple(values)


def _gf_generator(p: int) -> int:
    """Smallest generator of GF(p)^*."""
    for g in range(2, p):
        x, k = g, 1
        while x != 1:
            x = x * g % p
            k += 1
        if k == p - 1:
            return g
    return 1  # p == 2


# ---------------------------------------------------------------------------
# gain graphs


class GainEdge(Frozen):
    """An edge {u,v}_g in canonical orientation u < v."""

    u: int
    v: int
    gain: int

    def __init__(self, u, v, gain):
        self.__dict__.update(u=u, v=v, gain=gain)

    def endpoints(self):
        return self.u, self.v

    def other(self, w: int) -> int:
        return self.v if w == self.u else self.u

    def gain_from(self, start: int, group: FiniteGroup) -> int:
        """Gain reading the edge as a step from `start` to the other end."""
        return self.gain if start == self.u else group.inv(self.gain)


class GainGraph:
    """A finite gain graph: vertices 0..n-1, canonical edges, loop set."""

    def __init__(self, n: int, group: FiniteGroup, edges, loops=()):
        if n < 0:
            raise InvalidInput("negative vertex count")
        self.n = n
        self.group = group
        canon = []
        for e in edges:
            u, v, g = e
            u, v = int(u), int(v)
            g = group.index_of(g) if isinstance(g, str) else int(g)
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInput(f"edge {e!r} out of vertex range")
            if u == v:
                raise InvalidInput(f"edge {e!r} is a loop; list loops separately")
            if not (0 <= g < group.order):
                raise InvalidInput(f"edge {e!r} has an unknown gain")
            if u > v:
                u, v, g = v, u, group.inv(g)
            canon.append(GainEdge(u, v, g))
        self.edges = tuple(canon)
        loops = sorted({int(v) for v in loops})
        if loops and not (0 <= loops[0] and loops[-1] < n):
            raise InvalidInput("loop vertex out of range")
        self.loops = tuple(loops)

    # -- atoms: edges first, then loops

    @property
    def num_atoms(self) -> int:
        return len(self.edges) + len(self.loops)

    def atom_label(self, i: int) -> str:
        if i < len(self.edges):
            e = self.edges[i]
            return f"{{{e.u},{e.v}}}_{self.group.names[e.gain]}"
        return f"loop({self.loops[i - len(self.edges)]})"

    def atom_labels(self) -> tuple:
        return tuple(self.atom_label(i) for i in range(self.num_atoms))

    def incident(self, v: int):
        """Indices of edges touching vertex v."""
        return [i for i, e in enumerate(self.edges) if v in (e.u, e.v)]

    def edges_between(self, u: int, v: int):
        a, b = min(u, v), max(u, v)
        return [e for e in self.edges if (e.u, e.v) == (a, b)]

    @classmethod
    def from_json(cls, data, max_atoms: int = DEFAULT_MAX_ATOMS) -> "GainGraph":
        """Read the graph; its group's order is capped at `max_atoms`."""
        if not isinstance(data, dict):
            raise InvalidInput("gain graph descriptor must be an object")
        with reading("gain graph descriptor"):
            return cls(int(data["vertices"]), FiniteGroup.from_json(data["group"], max_atoms),
                       data["edges"], data.get("loops", ()))

    def __repr__(self):
        return (f"GainGraph(n={self.n}, group={self.group!r}, "
                f"edges={len(self.edges)}, loops={len(self.loops)})")


# ---------------------------------------------------------------------------
# frame and lift matroids


def _check_no_repeated_edges(g: GainGraph) -> None:
    """Raise NotSimpleFrame when two edges share their ends and gain: they
    would be parallel atoms of the frame and of the lift matroid."""
    seen = {}
    for i, e in enumerate(g.edges):
        key = (e.u, e.v, e.gain)
        if key in seen:
            raise NotSimpleFrame([seen[key], i], f"repeated edge {g.atom_label(i)}")
        seen[key] = i


def _fold(atoms: int, ends, table, inv):
    """The components of a subset, from one pass over its atoms in ascending
    order, `ends` giving each atom's (u, v, gain), a loop's (w, w, None).

    Returns (label, pot, unbalanced, number of components): each touched
    vertex's component label, one of its vertices, and its potential, the
    gain of a path from that vertex; and the labels of the components with
    a loop or a cycle that disagrees with the potentials.  An edge {u,v}_h
    joining two components relabels v's with pot(x) <- pot(u)*h*pot(v)^-1
    *pot(x), a left multiplication, as non-abelian gain groups need."""
    label, pot, unbalanced, components = {}, {}, set(), 0
    while atoms:
        low = atoms & -atoms
        atoms ^= low
        u, v, h = ends[low.bit_length() - 1]
        r, s = label.get(u), label.get(v)
        if r is None:
            if h is None or s is None:
                label[u], pot[u], r = u, 0, u
                components += 1
            else:
                label[u], pot[u] = s, table[pot[v]][inv[h]]
                continue
        if h is None:
            unbalanced.add(r)
        elif s is None:
            label[v], pot[v] = r, table[pot[u]][h]
        elif r == s:
            if table[pot[u]][h] != pot[v]:
                unbalanced.add(r)
        else:
            row = table[table[table[pot[u]][h]][inv[pot[v]]]]
            for x, y in label.items():
                if y == s:
                    label[x], pot[x] = r, row[pot[x]]
            components -= 1
            if s in unbalanced:
                unbalanced.discard(s)
                unbalanced.add(r)
    return label, pot, unbalanced, components


def frame_matroid(g: GainGraph, max_atoms: int = DEFAULT_MAX_ATOMS) -> Matroid:
    """The frame matroid: rank = sum over components of |V| - 1 + [unbalanced].

    A component is unbalanced when it holds a loop or an unbalanced cycle
    (Zaslavsky, "Biased graphs II: the three matroids", JCTB 1991).
    Repeated identical edges would be parallel atoms, so they raise
    NotSimpleFrame.

    Rank and covers read one `_fold` of the subset: rank = touched vertices
    - components + unbalanced components.  The kernel keys each candidate
    in the same loop, by its ends' component labels, an untouched vertex
    being its own balanced component at potential 0.  An atom is in the
    closure when both its components are unbalanced, or it is an edge
    inside one that agrees with the potentials.  Otherwise its cover is
    keyed (c,) when it unbalances the balanced component c, and
    (c1, c2, shift) when it joins two balanced ones, c1 < c2 and shift =
    pot(u)*h*pot(v)^-1 reading the edge {u,v}_h from c1's side.
    """
    _check_no_repeated_edges(g)
    table, inv = g.group.table, g.group.inverse
    ends = [(e.u, e.v, e.gain) for e in g.edges] + [(w, w, None) for w in g.loops]

    def rank_fn(mask):
        label, _, unbalanced, components = _fold(mask, ends, table, inv)
        return len(label) - components + len(unbalanced)

    def classes_fn(subset, candidates):
        label, pot, unbalanced, _ = _fold(subset, ends, table, inv)
        groups = {}
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            u, v, h = ends[low.bit_length() - 1]
            r, s = label.get(u, u), label.get(v, v)
            if r in unbalanced:
                key = 0 if s in unbalanced else (s,)
            elif s in unbalanced:
                key = (r,)
            elif r == s:
                key = 0 if h is not None and table[pot[u]][h] == pot[v] else (r,)
            else:
                h = table[table[pot.get(u, 0)][h]][inv[pot.get(v, 0)]]
                key = (r, s, h) if r < s else (s, r, inv[h])
            groups[key] = groups.get(key, 0) | low
        return groups

    return Matroid(g.num_atoms, rank_fn, classes_fn=classes_fn, backend="frame",
                   max_atoms=max_atoms)


def lift_matroid(g: GainGraph, max_atoms: int = DEFAULT_MAX_ATOMS) -> Matroid:
    """The extended lift matroid on {inf} followed by the edges.

    For an edge set S with c(S) components on |V(S)| vertices,
    rank = |V(S)| - c(S) + [inf in S or S holds an unbalanced cycle]
    (Zaslavsky, "Biased graphs II: the three matroids", JCTB 1991).
    Loops are rejected, and repeated identical edges raise NotSimpleFrame.

    Rank and covers read one `_fold` of the edges of the subset, which is
    lifted when it holds inf or an unbalanced cycle; the kernel keys each
    candidate in the same loop, as the frame matroid's does.  inf and each
    edge inside one component are in the closure when the subset is lifted
    or the edge agrees, and otherwise share the lifting class, keyed ().  An
    edge joining two components is keyed (c1, c2, shift), or (c1, c2) when
    the subset is lifted.
    """
    if g.loops:
        raise HasLoops("the extended lift matroid is defined for loopless gain graphs")
    _check_no_repeated_edges(g)
    table, inv = g.group.table, g.group.inverse
    ends = [(e.u, e.v, e.gain) for e in g.edges]

    def rank_fn(mask):
        label, _, unbalanced, components = _fold(mask >> 1, ends, table, inv)
        return len(label) - components + (1 if mask & 1 or unbalanced else 0)

    def classes_fn(subset, candidates):
        label, pot, unbalanced, _ = _fold(subset >> 1, ends, table, inv)
        lifted = subset & 1 or unbalanced
        groups = {0 if lifted else (): 1} if candidates & 1 else {}
        candidates >>= 1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            u, v, h = ends[low.bit_length() - 1]
            r, s = label.get(u, u), label.get(v, v)
            if r == s:
                key = 0 if lifted or table[pot[u]][h] == pot[v] else ()
            elif lifted:
                key = (r, s) if r < s else (s, r)
            else:
                h = table[table[pot.get(u, 0)][h]][inv[pot.get(v, 0)]]
                key = (r, s, h) if r < s else (s, r, inv[h])
            groups[key] = groups.get(key, 0) | low << 1
        return groups

    return Matroid(len(g.edges) + 1, rank_fn, classes_fn=classes_fn, backend="lift",
                   max_atoms=max_atoms)


# ---------------------------------------------------------------------------
# simplicial vertices


def _has_edge_with_gain(g: GainGraph, u: int, w: int, gain_from_u: int) -> bool:
    return any(e.gain_from(u, g.group) == gain_from_u for e in g.edges_between(u, w))


def _paths_close(g: GainGraph, v: int, inc) -> bool:
    """Clause (i) at v, whose incident edges are `inc`: every two-edge path
    u -e1- v -e2- w with u != w closes with an edge {u,w} of the composed
    gain."""
    group = g.group
    for i in inc:
        e1 = g.edges[i]
        u = e1.other(v)
        g1 = e1.gain_from(u, group)  # u -> v
        for j in inc:
            e2 = g.edges[j]
            w = e2.other(v)
            if w == u:
                continue
            h = e2.gain_from(v, group)  # v -> w
            if not _has_edge_with_gain(g, u, w, group.op(g1, h)):
                return False
    return True


def bias_simplicial_vertices(g: GainGraph) -> list:
    """Vertices v that are bias simplicial.

    (i) any two-edge path u -e1- v -e2- w with u != w closes with an edge
    {u,w} of the composed gain; (ii) parallel edges at v with different
    gains force a loop at the other endpoint; (iii) a loop at v forces a
    loop at every neighbour.
    """
    loops = set(g.loops)
    out = []
    for v in range(g.n):
        inc = g.incident(v)
        ok = _paths_close(g, v, inc)
        if ok:
            for i in inc:
                for j in inc:
                    if i < j:
                        e1, e2 = g.edges[i], g.edges[j]
                        if e1.endpoints() == e2.endpoints() and e1.gain != e2.gain:
                            if e1.other(v) not in loops:
                                ok = False
                                break
                if not ok:
                    break
        if ok and v in loops:
            ok = all(g.edges[i].other(v) in loops for i in inc)
        if ok:
            out.append(v)
    return out


def link_simplicial_vertices(g: GainGraph) -> list:
    """Vertices satisfying the path-closure clause alone; loopless only."""
    if g.loops:
        raise HasLoops("link simpliciality is defined for loopless gain graphs")
    return [v for v in range(g.n) if _paths_close(g, v, g.incident(v))]


# ---------------------------------------------------------------------------
# standard graphs and realizations


def complete_gain_graph(n: int, group: FiniteGroup, loops: bool = False) -> GainGraph:
    """K_n^G: all gains on every vertex pair; loops everywhere when asked."""
    edges = [(u, v, g) for u in range(n) for v in range(u + 1, n)
             for g in range(group.order)]
    return GainGraph(n, group, edges, range(n) if loops else ())


def realize_frame_arrangement(g: GainGraph, field: Field,
                              max_atoms: int = DEFAULT_MAX_ATOMS) -> Arrangement:
    """Hyperplanes x_u - emb(g) x_v = 0 per edge and x_w = 0 per loop.

    Needs an injective multiplicative embedding of the gain group; atom
    order matches the gain graph's.
    """
    emb = multiplicative_embedding(g.group, field)
    forms = []
    for e in g.edges:
        row = [field.zero()] * g.n
        row[e.u] = field.one()
        row[e.v] = field.neg(emb[e.gain])
        forms.append(row)
    for w in g.loops:
        row = [field.zero()] * g.n
        row[w] = field.one()
        forms.append(row)
    return Arrangement(field, g.n, forms, max_atoms=max_atoms)


def realize_lift_arrangement(g: GainGraph, field: Field,
                             max_atoms: int = DEFAULT_MAX_ATOMS) -> Arrangement:
    """Hyperplanes z = 0 (first, for inf) and x_u - x_v - emb(g) z = 0.

    Coordinates are (z, x_0, ..., x_{n-1}); needs an injective additive
    embedding of the gain group; loopless gain graphs only.
    """
    if g.loops:
        raise HasLoops("lift realization is defined for loopless gain graphs")
    emb = additive_embedding(g.group, field)
    dim = g.n + 1
    z_form = [field.one()] + [field.zero()] * g.n
    forms = [z_form]
    for e in g.edges:
        row = [field.zero()] * dim
        row[0] = field.neg(emb[e.gain])
        row[1 + e.u] = field.one()
        row[1 + e.v] = field.neg(field.one())
        forms.append(row)
    return Arrangement(field, dim, forms, max_atoms=max_atoms)
