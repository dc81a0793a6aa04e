"""Reference answers that do not come from the code under test.

Large inputs are checked against closed forms and published verdicts.
Census inputs are checked against a Whitney subset-sum characteristic
polynomial, computed from this module's own rank functions (union-find for
graphs and gain graphs, bit-packed elimination over GF(2)), and, for
graphs, against Stanley's theorem: a graphic matroid is supersolvable
exactly when its graph is chordal.  Theorems that tie the verdicts to the
characteristic polynomial are checked on every input.
"""

from __future__ import annotations

from itertools import combinations

from perfbench.inputs import atom_count, gf2_rank


# ---------------------------------------------------------------------------
# polynomials as coefficient tuples, constant term first


def poly_from_roots(roots) -> tuple:
    coeffs = [1]
    for a in roots:
        shifted = [0] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= a * c
        coeffs = shifted
    return tuple(coeffs)


def bell(n: int) -> int:
    """Number of set partitions of an n-set, by the Bell triangle."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


# ---------------------------------------------------------------------------
# closed forms for the large inputs


def braid_roots(n):
    """chi(A_{n-1}) = (t-1)(t-2)...(t-(n-1)); the lattice is the partition
    lattice of an n-set (Bell(n) flats), and K_n is chordal."""
    return tuple(range(1, n))


def type_d_roots(n):
    """chi(D_n) has the exponents 1, 3, ..., 2n-3 and n-1 as roots."""
    return tuple(sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]))


def dowling_roots(n, m):
    """chi(Q_n(G)) = prod_{j<n} (t - 1 - j m) for a group of order m (Dowling 1973)."""
    return tuple(1 + j * m for j in range(n))


def complete_lift_roots(n, m):
    """Extended lift of the complete gain graph K_n over a group of order m.

    Away from z = 0 the arrangement x_i - x_j in H (|H| = m) has
    q (q - m) ... (q - (n-1) m) points over GF(q): each new coordinate avoids
    one coset per earlier one.  Coning adds t - 1, essentializing drops t.
    """
    return (1,) + tuple(j * m for j in range(1, n))


def large_reference(name: str) -> dict:
    """Characteristic polynomial, flat count when known, and verdicts."""
    facts = {
        # supersolvable: K_7 is chordal (Stanley 1972)
        "braid-7": dict(roots=braid_roots(7), flats=bell(7), ss=True, me=True, div=True),
        # D_n, n >= 4, is not supersolvable; Coxeter arrangements are
        # divisionally free (Abe 2016); D_5 is not modularly extended
        "dn-5": dict(roots=type_d_roots(5), ss=False, me=False, div=True),
        # the paper's 19-hyperplane example: ME through a modular join over
        # PG(1,2), not supersolvable, chi = (t-1)(t-2)(t-4)^4
        "ziegler-19": dict(roots=(1, 2, 4, 4, 4, 4), ss=False, me=True, div=True),
        "K8": dict(roots=braid_roots(8), flats=bell(8), ss=True, me=True, div=True),
        # Dowling geometries are supersolvable
        "kl-4-z3": dict(roots=dowling_roots(4, 3), ss=True, me=True, div=True),
        # peeling vertices gives the modular chain of the complete lift
        "k-5-sign": dict(roots=complete_lift_roots(5, 2), ss=True, me=True, div=True),
    }[name]
    ref = {"charpoly": poly_from_roots(facts.pop("roots"))}
    ref.update(facts)
    return ref


# ---------------------------------------------------------------------------
# independent rank functions and the Whitney subset sum


def rank_function(spec):
    """An exact rank function on atom bitmasks, written from the definitions."""
    kind = spec["kind"]
    if kind == "graph":
        return _gain_rank(spec["vertices"], [(u, v, 0) for u, v in spec["edges"]], (),
                          order=1, frame=True, inf=False)
    if kind == "linear":
        if spec["p"] != 2:
            raise ValueError("census matrices are binary")
        vectors = [sum(int(x) << i for i, x in enumerate(col)) for col in spec["columns"]]
        return lambda mask: gf2_rank(v for i, v in enumerate(vectors) if mask >> i & 1)
    order = 2 if spec["group"] == "sign" else 3
    if kind == "frame":
        return _gain_rank(spec["vertices"], spec["edges"], spec["loops"],
                          order=order, frame=True, inf=False)
    # extended lift: atom 0 is inf, atom i >= 1 is edge i - 1
    return _gain_rank(spec["vertices"], spec["edges"], (), order=order,
                      frame=False, inf=True)


def _gain_rank(nv, edges, loops, *, order, frame, inf):
    """Rank in the frame or extended lift matroid of a gain graph over Z_order.

    Union-find keeps each vertex's potential relative to its root; an edge
    (u, v, g) is consistent when pot(v) - pot(u) = g.  Frame rank counts
    |V(S)| minus the balanced components; lift rank counts |V(S)| minus all
    components, plus one if inf is present or any cycle is unbalanced.
    """
    shift = 1 if inf else 0
    atoms = [("inf",)] * shift + [("edge",) + tuple(e) for e in edges] \
        + [("loop", v) for v in loops]

    def rank(mask):
        parent = list(range(nv))
        offset = [0] * nv
        bad = [False] * nv
        touched = 0
        extra = False

        def find(x):
            off = 0
            while parent[x] != x:
                off += offset[x]
                x = parent[x]
            return x, off % order

        i = 0
        while mask:
            if mask & 1:
                atom = atoms[i]
                if atom[0] == "inf":
                    extra = True
                elif atom[0] == "loop":
                    touched |= 1 << atom[1]
                    bad[find(atom[1])[0]] = True
                else:
                    _, u, v, g = atom
                    touched |= (1 << u) | (1 << v)
                    (ru, ou), (rv, ov) = find(u), find(v)
                    if ru == rv:
                        if (ov - ou - g) % order:
                            bad[ru] = True
                    else:
                        parent[ru] = rv
                        offset[ru] = (ov - ou - g) % order
                        bad[rv] = bad[rv] or bad[ru]
            mask >>= 1
            i += 1
        roots = [x for x in range(nv) if touched >> x & 1 and parent[x] == x]
        unbalanced = sum(1 for x in roots if bad[x])
        r = touched.bit_count() - len(roots)
        if frame:
            return r + unbalanced
        return r + (1 if extra or unbalanced else 0)

    return rank


def whitney_charpoly(spec) -> tuple:
    """chi(t) = sum over atom subsets S of (-1)^|S| t^(r(E) - r(S))."""
    rank = rank_function(spec)
    n = atom_count(spec)
    top = rank((1 << n) - 1)
    coeffs = [0] * (top + 1)
    for s in range(1 << n):
        coeffs[top - rank(s)] += -1 if s.bit_count() & 1 else 1
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def is_chordal(nv, edges) -> bool:
    """Chordality by peeling simplicial vertices."""
    adj = {v: set() for v in range(nv)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(range(nv))
    while alive:
        for v in alive:
            nb = adj[v] & alive
            if all(b in adj[a] for a, b in combinations(nb, 2)):
                alive.remove(v)
                break
        else:
            return False
    return True


def census_reference(spec) -> dict:
    ref = {"charpoly": whitney_charpoly(spec)}
    if spec["kind"] == "graph":
        ref["ss"] = is_chordal(spec["vertices"], spec["edges"])
    return ref


# ---------------------------------------------------------------------------
# comparing a verdict with its reference


def mismatches(verdict, ref) -> list:
    """Every way the verdict disagrees with the reference or a theorem."""
    out = []
    chi = verdict.charpoly
    if chi != ref["charpoly"]:
        out.append(f"charpoly {chi} != reference {ref['charpoly']}")
    if "flats" in ref and verdict.flats != ref["flats"]:
        out.append(f"{verdict.flats} flats != reference {ref['flats']}")
    for key, got in (("ss", verdict.chain_steps is not None), ("me", verdict.me),
                     ("div", verdict.flag_roots is not None)):
        if key in ref and got != ref[key]:
            out.append(f"{key} verdict {got} != reference {ref[key]}")
    # Stanley: a modular chain factors chi by the sizes of its steps.  With
    # the flag check below, a chain or flag also proves that chi splits.
    if verdict.chain_steps is not None:
        if poly_from_roots(verdict.chain_steps) != chi:
            out.append(f"chain steps {verdict.chain_steps} do not factor chi")
        if not verdict.me:
            out.append("supersolvable but no ME certificate")
    if verdict.flag_roots is not None and poly_from_roots(verdict.flag_roots) != chi:
        out.append(f"flag roots {verdict.flag_roots} do not factor chi")
    out.extend(verdict.failures)
    return out
