"""Named example arrangements and gain graphs.

All generators are deterministic: fixed coordinate order, fixed atom order.
`named_input` resolves the string names accepted by the command line
(e.g. "example-13", "ziegler-19", "braid-4", "pg-2-3", "bowtie",
"k-3-sign", "kl-3-z3").
"""

from __future__ import annotations

from .algebra import Field
from .arrangement import Arrangement, check_hyperplane_count, pg_arrangement
from .errors import InvalidInput
from .gaingraph import FiniteGroup, GainGraph, complete_gain_graph, \
    realize_frame_arrangement
from .matroid import DEFAULT_MAX_ATOMS, check_atom_count


def example_7() -> Arrangement:
    """Rank-3 supersolvable arrangement in Q^3, coordinates (z, x1, x2)."""
    forms = [
        [1, 0, 0],    # z
        [0, 1, 0],    # x1
        [0, 0, 1],    # x2
        [-1, 1, 0],   # x1 - z
        [-1, 0, 1],   # x2 - z
        [0, 1, -1],   # x1 - x2
        [0, 1, 1],    # x1 + x2
    ]
    labels = ["z", "x1", "x2", "x1-z", "x2-z", "x1-x2", "x1+x2"]
    return Arrangement(Field.rational(), 3, forms, labels=labels)


def example_13() -> Arrangement:
    """Two copies of the rank-3 example glued along {z=0}, in Q^5.

    Coordinates (z, x1, x2, y1, y2); rank 5, divisionally free but not
    supersolvable.
    """
    forms = [
        [1, 0, 0, 0, 0],    # z
        [0, 1, 0, 0, 0],    # x1
        [0, 0, 1, 0, 0],    # x2
        [-1, 1, 0, 0, 0],   # x1 - z
        [-1, 0, 1, 0, 0],   # x2 - z
        [0, 1, -1, 0, 0],   # x1 - x2
        [0, 1, 1, 0, 0],    # x1 + x2
        [0, 0, 0, 1, 0],    # y1
        [0, 0, 0, 0, 1],    # y2
        [-1, 0, 0, 1, 0],   # y1 - z
        [-1, 0, 0, 0, 1],   # y2 - z
        [0, 0, 0, 1, -1],   # y1 - y2
        [0, 0, 0, 1, 1],    # y1 + y2
    ]
    labels = ["z", "x1", "x2", "x1-z", "x2-z", "x1-x2", "x1+x2",
              "y1", "y2", "y1-z", "y2-z", "y1-y2", "y1+y2"]
    return Arrangement(Field.rational(), 5, forms, labels=labels)


def ziegler_11() -> Arrangement:
    """Rank-4 supersolvable binary arrangement, coordinates (z1, z2, x1, x2)."""
    forms = [
        [1, 0, 0, 0],  # z1
        [0, 1, 0, 0],  # z2
        [1, 1, 0, 0],  # z1+z2
        [0, 0, 1, 0],  # x1
        [0, 0, 0, 1],  # x2
        [0, 0, 1, 1],  # x1+x2
        [1, 0, 1, 0],  # x1+z1
        [1, 0, 0, 1],  # x2+z1
        [1, 0, 1, 1],  # x1+x2+z1
        [1, 1, 1, 0],  # x1+z1+z2
        [1, 1, 0, 1],  # x2+z1+z2
    ]
    labels = ["z1", "z2", "z1+z2", "x1", "x2", "x1+x2", "x1+z1", "x2+z1",
              "x1+x2+z1", "x1+z1+z2", "x2+z1+z2"]
    return Arrangement(Field.gf(2), 4, forms, labels=labels)


def ziegler_19() -> Arrangement:
    """Join of two copies of the rank-4 binary arrangement along PG(1,2).

    Coordinates (z1, z2, x1, x2, y1, y2); rank 6, divisionally free but
    not supersolvable.
    """
    def pad(row, x_side):
        z1, z2, a, b = row
        return [z1, z2, a, b, 0, 0] if x_side else [z1, z2, 0, 0, a, b]

    half = ziegler_11()
    x_rows = [[int(c) for c in row] for row in half.forms]
    forms = [pad(r, True) for r in x_rows[:3]]
    forms += [pad(r, True) for r in x_rows[3:]]
    forms += [pad(r, False) for r in x_rows[3:]]
    labels = list(half.labels) + [lbl.replace("x", "y") for lbl in half.labels[3:]]
    return Arrangement(Field.gf(2), 6, forms, labels=labels)


def bowtie_lift_9() -> Arrangement:
    """The 9-hyperplane binary arrangement of the bowtie's extended lift.

    Coordinates (z, x1, x2, y1, y2); rank 5.
    """
    forms = [
        [1, 0, 0, 0, 0],  # z
        [1, 1, 0, 0, 0],  # x1+z
        [1, 0, 1, 0, 0],  # x2+z
        [0, 1, 1, 0, 0],  # x1+x2
        [1, 1, 1, 0, 0],  # x1+x2+z
        [1, 0, 0, 1, 0],  # y1+z
        [1, 0, 0, 0, 1],  # y2+z
        [0, 0, 0, 1, 1],  # y1+y2
        [1, 0, 0, 1, 1],  # y1+y2+z
    ]
    labels = ["z", "x1+z", "x2+z", "x1+x2", "x1+x2+z",
              "y1+z", "y2+z", "y1+y2", "y1+y2+z"]
    return Arrangement(Field.gf(2), 5, forms, labels=labels)


def bowtie(loops: bool = False) -> GainGraph:
    """Two unbalanced digons tied to a center vertex (signed gains).

    Vertices: 0 = center, 1..2 = one digon, 3..4 = the other; `loops`
    attaches a loop to every vertex.
    """
    edges = [
        (0, 1, 0), (0, 2, 0), (1, 2, 0), (1, 2, 1),
        (0, 3, 0), (0, 4, 0), (3, 4, 0), (3, 4, 1),
    ]
    return GainGraph(5, FiniteGroup.sign(), edges, range(5) if loops else ())


def fish(group: FiniteGroup) -> GainGraph:
    """A loop, a bridge, and a full parallel class: 0 -loop, 0-1, 1=2 (all gains).

    The flat of the parallel class (the K_2 part) is not modular in the
    frame matroid once the group has at least two elements.
    """
    edges = [(0, 1, 0)] + [(1, 2, g) for g in range(group.order)]
    return GainGraph(3, group, edges, loops=(0,))


def braid_arrangement(n: int, max_atoms: int = DEFAULT_MAX_ATOMS) -> Arrangement:
    """x_i - x_j = 0 in Q^n for i < j."""
    check_hyperplane_count(n * (n - 1) // 2, max_atoms)
    return realize_frame_arrangement(
        complete_gain_graph(n, FiniteGroup.trivial()), Field.rational(), max_atoms)


def type_b_arrangement(n: int, max_atoms: int = DEFAULT_MAX_ATOMS) -> Arrangement:
    """x_i +- x_j = 0 and x_i = 0 in Q^n."""
    check_hyperplane_count(n * n, max_atoms)
    return realize_frame_arrangement(
        complete_gain_graph(n, FiniteGroup.sign(), loops=True), Field.rational(), max_atoms)


def type_d_arrangement(n: int, max_atoms: int = DEFAULT_MAX_ATOMS) -> Arrangement:
    """x_i +- x_j = 0 in Q^n."""
    check_hyperplane_count(n * (n - 1), max_atoms)
    return realize_frame_arrangement(
        complete_gain_graph(n, FiniteGroup.sign()), Field.rational(), max_atoms)


def named_group(token: str):
    """(order, build) for a group name: its order is known before `build()`
    makes the table, whose validation is cubic in the order."""
    if token == "trivial":
        return 1, FiniteGroup.trivial
    if token == "sign":
        return 2, FiniteGroup.sign
    if token.startswith("z") and token[1:].isdigit():
        order = int(token[1:])
        return order, lambda: FiniteGroup.zmod(order)
    raise InvalidInput(f"unknown group name {token!r}")


_FIXED = {
    "example-7": example_7,
    "example-13": example_13,
    "ziegler-11": ziegler_11,
    "ziegler-19": ziegler_19,
    "bowtie-lift-9": bowtie_lift_9,
    "bowtie": bowtie,
    "bowtie-loops": lambda: bowtie(loops=True),
}


def named_input(name: str, max_atoms: int = DEFAULT_MAX_ATOMS):
    """Resolve a generator name to an Arrangement or a GainGraph.

    Fixed names: example-7, example-13, ziegler-11, ziegler-19,
    bowtie-lift-9, bowtie, bowtie-loops.  Patterns: braid-N, bn-N, dn-N,
    pg-N-P, fish-GROUP, k-N-GROUP, kl-N-GROUP with GROUP in
    {trivial, sign, zM}.  The pattern arrangements hold at most
    `max_atoms` hyperplanes, and the pattern gain graphs at most
    `max_atoms` edges and loops, checked before the group is built.
    """
    if name in _FIXED:
        return _FIXED[name]()
    parts = name.split("-")
    try:
        if parts[0] == "braid" and len(parts) == 2:
            return braid_arrangement(int(parts[1]), max_atoms)
        if parts[0] == "bn" and len(parts) == 2:
            return type_b_arrangement(int(parts[1]), max_atoms)
        if parts[0] == "dn" and len(parts) == 2:
            return type_d_arrangement(int(parts[1]), max_atoms)
        if parts[0] == "pg" and len(parts) == 3:
            return pg_arrangement(int(parts[1]), int(parts[2]), max_atoms)
        if parts[0] == "fish" and len(parts) == 2:
            order, group = named_group(parts[1])
            check_atom_count(order + 2, max_atoms)
            return fish(group())
        if parts[0] in ("k", "kl") and len(parts) == 3:
            n = int(parts[1])
            loops = parts[0] == "kl"
            order, group = named_group(parts[2])
            check_atom_count(n * (n - 1) // 2 * order + (n if loops else 0), max_atoms)
            return complete_gain_graph(n, group(), loops=loops)
    except ValueError as exc:
        raise InvalidInput(f"bad generator name {name!r}") from exc
    raise InvalidInput(f"unknown generator name {name!r}")
