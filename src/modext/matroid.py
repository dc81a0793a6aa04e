"""Simple matroids given by exact oracles: a rank function and a kernel.

Ground sets are atoms 0..n-1 and subsets are plain Python ints used as
bitmasks (bit a set <=> atom a in the subset), which keeps subset algebra
to single machine operations at desk scale.  A Matroid wraps a pure rank
function with a memo table, and one kernel, `classes(subset, candidates)`:
it groups the candidates outside cl(subset) by the cover of cl(subset)
they lie in, in first-atom order, keying the candidates in cl(subset) by
0, so that closure reads class 0 and covers the others.  Every public
constructor hands over a kernel that does this in one pass over the
subset (one basis for graphs and matrices, one component walk for gain
graphs).  Graphs and matrices take the basis from `algebra`, whose size
is also their rank: a reduced echelon XOR basis over GF(2) (`gf2_basis`),
a fraction-free echelon basis over GF(p) and Q (`echelon_basis`, where
columns and residues stay primitive so that a residue is its own key up
to sign).  Each candidate is reduced once, to a canonical residue, and
atoms with equal residues lie in one cover.  The same kernel on the empty
subset finds a matrix's zero and parallel columns.  A bare rank function
gets `_rank_classes`, which reads the classes off rank queries.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .algebra import (Field, FieldMatrix, echelon_basis, echelon_reduce, gf2_basis, gf2_pack,
                      gf_row_rank, integer_row_rank, _clear_row_denominators)
from .errors import InvalidInput, NotSimple, TooLarge, reading

DEFAULT_MAX_ATOMS = 24


# ---------------------------------------------------------------------------
# bitmask subset helpers


def mask_of(atoms) -> int:
    """Bitmask of an iterable of atom indices."""
    m = 0
    for a in atoms:
        m |= 1 << a
    return m


def iter_atoms(mask: int):
    """Yield atom indices of a bitmask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def atom_tuple(mask: int) -> tuple:
    """Ascending tuple of atom indices in a bitmask."""
    return tuple(iter_atoms(mask))


def check_atom_count(n: int, max_atoms: int) -> None:
    """Raise TooLarge when n atoms exceed the guardrail `max_atoms`."""
    if n > max_atoms:
        raise TooLarge(f"{n} atoms exceeds the guardrail of {max_atoms}")


# ---------------------------------------------------------------------------
# the matroid itself


class Matroid:
    """A simple matroid on atoms 0..n-1 with a memoized exact rank oracle.

    `rank_fn` must be a pure function of the subset bitmask satisfying the
    rank axioms; constructors in this module validate simplicity before
    handing one over.  `classes_fn(subset, candidates)` maps each key to
    the candidates it holds, in first-atom order: key 0 to those in
    cl(subset), and one key per cover of cl(subset) to those in that
    cover, under the same rank function; without one, `_rank_classes`
    asks the memoized rank.  The subset need not be a flat (enumeration
    hands over a set spanning one).  `closure` reads class 0, and `covers`
    returns the other classes as the kernel made them, each the part of
    one cover among the candidates.  `backend` records where the oracle
    came from ("linear", "graphic", "frame", "lift", or "explicit").
    """

    def __init__(self, n, rank_fn, *, classes_fn=None, labels=None,
                 backend="explicit", max_atoms=DEFAULT_MAX_ATOMS):
        check_atom_count(n, max_atoms)
        if n < 0:
            raise InvalidInput("negative ground-set size")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise InvalidInput("label count does not match ground-set size")
            if len(set(labels)) != n:
                raise InvalidInput("labels must be unique")
        self.n = n
        self.labels = labels
        self.backend = backend
        self.max_atoms = max_atoms
        self.full_mask = (1 << n) - 1
        self._rank_fn = rank_fn
        self._classes_fn = classes_fn if classes_fn is not None else _rank_classes(self.rank)
        self._memo = {0: 0}

    # -- rank and closure

    def rank(self, subset: int) -> int:
        """Rank of a subset bitmask (memoized)."""
        memo = self._memo
        r = memo.get(subset)
        if r is None:
            self._check_inside(subset)
            r = self._rank_fn(subset)
            memo[subset] = r
        return r

    def closure(self, subset: int) -> int:
        """Smallest flat containing the subset: the subset plus the
        kernel's class 0 of the atoms outside it."""
        self._check_inside(subset)
        return subset | self._classes_fn(subset, self.full_mask & ~subset).get(0, 0)

    def covers(self, span: int, rest: int):
        """The kernel's classes of `rest` other than class 0, as a view: the
        parts in `rest` of the covers of cl(span), in ascending lowest
        atom.  The atoms of `rest` in cl(span) are left out.

        When `rest` lies outside F = cl(span) and is a union of the parts
        outside F of some covers of F, each part is all of one of those
        covers outside F, so F | part is the cover, and they come in lex
        order, as each holds F.  Enumeration makes its covers that way; the
        triangle test hands over one atom as `span` and reads the parts
        alone.
        """
        self._check_inside(span | rest)
        classes = self._classes_fn(span, rest)
        classes.pop(0, None)
        return classes.values()

    def _check_inside(self, subset: int) -> None:
        if subset & ~self.full_mask:
            raise InvalidInput(f"subset {bin(subset)} outside ground set of size {self.n}")

    def atom_bit(self, atom: int) -> int:
        """1 << atom; InvalidInput naming the atom when it is not in the ground set."""
        if not 0 <= atom < self.n:
            raise InvalidInput(f"atom {atom} outside ground set of size {self.n}")
        return 1 << atom

    def check_simple(self) -> None:
        """Raise NotSimple when a rank-0 atom or a parallel pair exists."""
        for a in range(self.n):
            if self.rank(1 << a) == 0:
                raise NotSimple([a], f"atom {a} has rank 0")
        for a, b in combinations(range(self.n), 2):
            if self.rank((1 << a) | (1 << b)) < 2:
                raise NotSimple([a, b], f"atoms {a} and {b} are parallel")

    def __repr__(self):
        return f"Matroid(n={self.n}, backend={self.backend!r})"


def _rank_classes(rank):
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


# ---------------------------------------------------------------------------
# constructors


def linear_matroid(matrix: FieldMatrix, labels=None, max_atoms=DEFAULT_MAX_ATOMS) -> Matroid:
    """Matroid of the columns of an exact matrix; atom i is column i.

    Raises NotSimple (listing the offending columns) on zero or pairwise
    proportional columns: the lowest zero column, else the lex-first
    proportional pair.  Both come from one call of the classes kernel on
    the empty subset: class 0 holds the zero columns, and every other
    class the columns that are nonzero multiples of one another, in
    first-atom order, so the first class of two or more atoms starts with
    the lex-first pair.  Over Q each column is cleared of denominators and
    divided by its content, once.
    """
    field = matrix.field
    ncols = matrix.ncols
    cols = [matrix.column(j) for j in range(ncols)]
    if field.is_rational:
        int_cols = []
        for c in cols:
            c = _clear_row_denominators(c)
            g = gcd(*c)
            int_cols.append(tuple([s // g for s in c] if g > 1 else c))

        def rank_fn(mask, _cols=int_cols):
            return integer_row_rank([_cols[a] for a in iter_atoms(mask)])
        classes_fn = _echelon_classes(int_cols, 0)
    elif field.p == 2:
        vectors = [gf2_pack(c) for c in cols]
        rank_fn = _gf2_rank_fn(vectors)
        classes_fn = _gf2_classes(vectors)
    else:
        def rank_fn(mask, _cols=cols, _p=field.p):
            return gf_row_rank([_cols[a] for a in iter_atoms(mask)], _p)
        classes_fn = _echelon_classes(cols, field.p)

    groups = classes_fn(0, (1 << ncols) - 1)
    zero = groups.pop(0, 0)
    if zero:
        j = (zero & -zero).bit_length() - 1
        raise NotSimple([j], f"column {j} is zero")
    for c in groups.values():
        if c & (c - 1):
            i, j = atom_tuple(c)[:2]
            raise NotSimple([i, j], f"columns {i} and {j} are proportional")

    return Matroid(ncols, rank_fn, classes_fn=classes_fn, labels=labels, backend="linear",
                   max_atoms=max_atoms)


def _gf2_rank_fn(vectors):
    """Rank oracle of the GF(2) vectors packed into ints, atom i being vectors[i]."""
    def rank_fn(mask):
        return len(gf2_basis(vectors, mask)[0])

    return rank_fn


def _gf2_classes(vectors):
    """Classes kernel of the same vectors: each candidate's residue against
    the reduced XOR basis of the subset's vectors (see `gf2_basis`) is its
    key, 0 in the span and one key per coset."""
    def classes(subset, candidates):
        basis, pivots = gf2_basis(vectors, subset)
        groups = {}
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            v = vectors[low.bit_length() - 1]
            held = v & pivots
            while held:
                bit = held & -held
                v ^= basis[bit]
                held ^= bit
            groups[v] = groups.get(v, 0) | low
        return groups

    return classes


def _echelon_classes(cols, p):
    """Classes kernel of integer columns over GF(p), or over Q when p is 0.

    Each candidate is reduced against the fraction-free echelon basis of
    the subset's columns (see `echelon_basis`), to a nonzero multiple of
    its residue that is zero at every pivot, or to 0.  The residue is made
    canonical over GF(p) by scaling its leading entry to 1.  Over Q the
    columns come primitive (content 1) and every reduction step divides by
    the content, so the residue is already primitive: negated when its
    leading entry is negative, it is the key.
    """
    def classes(subset, candidates):
        basis = echelon_basis(cols, subset, p)
        groups = {}
        for a in iter_atoms(candidates):
            v = echelon_reduce(cols[a], basis, p)
            lead = 0
            for lead in v:
                if lead:
                    break
            if not lead:
                key = 0
            elif p:
                inv = pow(lead, -1, p)
                key = tuple(s * inv % p for s in v)
            else:
                key = tuple(v) if lead > 0 else tuple([-s for s in v])
            groups[key] = groups.get(key, 0) | 1 << a
        return groups

    return classes


def graphic_matroid(n_vertices: int, edges, labels=None, max_atoms=DEFAULT_MAX_ATOMS) -> Matroid:
    """Cycle matroid of a simple graph on vertices 0..n_vertices-1.

    Atom i is edge i.  Loops and repeated edges are rejected because the
    matroid would not be simple.  Ranks come from the GF(2) vertex-edge
    incidence matrix, which represents every cycle matroid (Oxley, Matroid
    Theory, 5.1): edge uv is the packed vector (1 << i) | (1 << j), where
    i and j number u and v by first appearance in the edge list, so no
    vector is longer than twice the edge count, whatever the vertex
    numbers; that only permutes the rows.  The rank of a subset is that of its
    vectors over GF(2).  Labels keep the input's vertex numbers.
    """
    if n_vertices < 0:
        raise InvalidInput("negative vertex count")
    edge_list = []
    seen = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise InvalidInput(f"edge {e!r} out of vertex range")
        if u == v:
            raise InvalidInput(f"loop at vertex {u} is not allowed in a simple graph")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise NotSimple([len(edge_list)], f"repeated edge {key}")
        seen.add(key)
        edge_list.append(key)
    edge_list = tuple(edge_list)
    if labels is None and edge_list:
        labels = tuple(f"{u}-{v}" for u, v in edge_list)

    row = {}
    vectors = [1 << row.setdefault(u, len(row)) | 1 << row.setdefault(v, len(row))
               for u, v in edge_list]
    return Matroid(len(edge_list), _gf2_rank_fn(vectors), classes_fn=_gf2_classes(vectors),
                   labels=labels, backend="graphic", max_atoms=max_atoms)


# ---------------------------------------------------------------------------
# JSON loading


def load_matroid(data, max_atoms=DEFAULT_MAX_ATOMS) -> Matroid:
    """Build a matroid from a JSON descriptor.

    Supported descriptors:
      {"type": "linear", "field": {...}, "matrix": [[...], ...], "labels": [...]}
      {"type": "graph", "vertices": n, "edges": [[u, v], ...]}
    """
    if not isinstance(data, dict):
        raise InvalidInput("matroid descriptor must be an object")
    kind = data.get("type")
    if kind == "linear":
        with reading("linear descriptor"):
            matrix = FieldMatrix(Field.from_json(data["field"]), data["matrix"])
            return linear_matroid(matrix, labels=data.get("labels"), max_atoms=max_atoms)
    if kind == "graph":
        with reading("graph descriptor"):
            return graphic_matroid(int(data["vertices"]), data["edges"],
                                   labels=data.get("labels"), max_atoms=max_atoms)
    raise InvalidInput(f"unknown matroid type {kind!r}")
