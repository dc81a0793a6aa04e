"""A fixed collection of test matroids with frozen reference facts.

Each member carries the facts stated for it in the literature (rank, atom
count, supersolvability, certified-class membership, divisional freeness,
characteristic polynomial where known).  The command line's `corpus`
subcommand replays the facts as a self-test, and the test suite reuses the
same data.
"""

from __future__ import annotations

from .algebra import Field, FieldMatrix, IntPolynomial
from .arrangement import pg_arrangement
from .gaingraph import FiniteGroup, complete_gain_graph, frame_matroid, lift_matroid
from .generators import (
    bowtie,
    bowtie_lift_9,
    braid_arrangement,
    example_7,
    example_13,
    fish,
    type_b_arrangement,
    type_d_arrangement,
    ziegler_11,
    ziegler_19,
)
from .matroid import Matroid, graphic_matroid, linear_matroid


def _poly_from_roots(*roots) -> list:
    return IntPolynomial.from_roots(roots).to_json()


def _uniform_2_3() -> Matroid:
    m = FieldMatrix(Field.rational(), [[1, 0, 1], [0, 1, 1]])
    return linear_matroid(m)


def _free_3() -> Matroid:
    m = FieldMatrix(Field.rational(), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return linear_matroid(m)


def _uniform_3_4() -> Matroid:
    m = FieldMatrix(Field.rational(), [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    return linear_matroid(m)


def _cycle_graph(n: int) -> Matroid:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return graphic_matroid(n, edges)


def _complete_graph(n: int) -> Matroid:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return graphic_matroid(n, edges)


def _q_frame(n: int) -> Matroid:
    return frame_matroid(complete_gain_graph(n, FiniteGroup.zmod(3), loops=True))


# Members: "matroid" builds the matroid; "facts" holds plain reference data:
#   atoms, rank                        counting
#   supersolvable / me / divisional    certified verdicts
#   charpoly                           coefficients, constant first
#   round / all_flats_modular / modular_coatoms / nonmodular_flat /
#   chain / join_over                  structure statements
_MEMBERS = {
    "u23": {
        "matroid": _uniform_2_3,
        "facts": {"atoms": 3, "rank": 2, "supersolvable": True, "me": True,
                  "divisional": True, "charpoly": _poly_from_roots(1, 2)},
    },
    "free3": {
        "matroid": _free_3,
        "facts": {"atoms": 3, "rank": 3, "supersolvable": True, "me": True,
                  "divisional": True, "charpoly": _poly_from_roots(1, 1, 1)},
    },
    "u34": {
        "matroid": _uniform_3_4,
        "facts": {"atoms": 4, "rank": 3, "supersolvable": False, "me": False,
                  "divisional": False},
    },
    "fano": {
        "matroid": lambda: pg_arrangement(2, 2).dependence_matroid(),
        "facts": {"atoms": 7, "rank": 3, "supersolvable": True, "me": True,
                  "divisional": True, "charpoly": _poly_from_roots(1, 2, 4),
                  "round": True, "all_flats_modular": True, "flats": 16},
    },
    "pg-2-3": {
        "matroid": lambda: pg_arrangement(2, 3).dependence_matroid(),
        "facts": {"atoms": 13, "rank": 3, "supersolvable": True, "me": True,
                  "divisional": True, "charpoly": _poly_from_roots(1, 3, 9),
                  "all_flats_modular": True},
    },
    "k4": {
        "matroid": lambda: _complete_graph(4),
        "facts": {"atoms": 6, "rank": 3, "supersolvable": True, "me": True,
                  "divisional": True, "charpoly": _poly_from_roots(1, 2, 3)},
    },
    "k5": {
        "matroid": lambda: _complete_graph(5),
        "facts": {"atoms": 10, "rank": 4, "supersolvable": True, "me": True,
                  "divisional": True, "charpoly": _poly_from_roots(1, 2, 3, 4)},
    },
    "c4": {
        "matroid": lambda: _cycle_graph(4),
        "facts": {"atoms": 4, "rank": 3, "supersolvable": False, "me": False,
                  "divisional": False},
    },
    "c5": {
        "matroid": lambda: _cycle_graph(5),
        "facts": {"atoms": 5, "rank": 4, "supersolvable": False, "me": False,
                  "divisional": False},
    },
    "braid-4": {
        "matroid": lambda: braid_arrangement(4).dependence_matroid(),
        "facts": {"atoms": 6, "rank": 3, "supersolvable": True, "me": True,
                  "divisional": True, "charpoly": _poly_from_roots(1, 2, 3)},
    },
    "bn-2": {
        "matroid": lambda: type_b_arrangement(2).dependence_matroid(),
        "facts": {"atoms": 4, "rank": 2, "supersolvable": True, "me": True,
                  "divisional": True, "charpoly": _poly_from_roots(1, 3)},
    },
    "bn-3": {
        "matroid": lambda: type_b_arrangement(3).dependence_matroid(),
        "facts": {"atoms": 9, "rank": 3, "supersolvable": True, "me": True,
                  "divisional": True, "charpoly": _poly_from_roots(1, 3, 5)},
    },
    "dn-3": {
        "matroid": lambda: type_d_arrangement(3).dependence_matroid(),
        "facts": {"atoms": 6, "rank": 3, "supersolvable": True, "me": True,
                  "divisional": True, "charpoly": _poly_from_roots(1, 2, 3)},
    },
    "dn-4": {
        "matroid": lambda: type_d_arrangement(4).dependence_matroid(),
        "facts": {"atoms": 12, "rank": 4, "supersolvable": False, "me": False,
                  "divisional": True, "round": True, "modular_coatoms": 0,
                  "charpoly": _poly_from_roots(1, 3, 3, 5)},
    },
    "q2-z3": {
        "matroid": lambda: _q_frame(2),
        "facts": {"atoms": 5, "rank": 2, "supersolvable": True, "me": True,
                  "divisional": True, "charpoly": _poly_from_roots(1, 4)},
    },
    "q3-z3": {
        "matroid": lambda: _q_frame(3),
        "facts": {"atoms": 12, "rank": 3, "supersolvable": True, "me": True,
                  "divisional": True, "charpoly": _poly_from_roots(1, 4, 7)},
    },
    "fish-sign": {
        "matroid": lambda: frame_matroid(fish(FiniteGroup.sign())),
        "facts": {"atoms": 4, "rank": 3, "nonmodular_flat": [1, 2]},
    },
    "bowtie-frame": {
        "matroid": lambda: frame_matroid(bowtie(loops=True)),
        "facts": {"atoms": 13, "rank": 5, "supersolvable": False, "me": True,
                  "divisional": True,
                  "charpoly": _poly_from_roots(1, 3, 3, 3, 3)},
    },
    # Contrary to a remark in the literature, this lattice *is* supersolvable:
    # every flat of the frozen chain below is modular in the full lattice
    # (independently confirmed by brute force over all 89 flats).  It is
    # graphic on a chordal graph, hence supersolvable (Stanley): on vertices
    # P, Q, R, S, R', S' atoms 0..8 are the edges PQ, QS, RS, QR, PR, QS',
    # R'S', QR', PR', two copies of K4 minus an edge glued along PQ, which
    # carries atom 0 (inf here, z in bowtie-lift-9).  Both members agree with
    # that graph on all 512 subsets, so they share the chain below.
    "bowtie-lift": {
        "matroid": lambda: lift_matroid(bowtie()),
        "facts": {"atoms": 9, "rank": 5, "supersolvable": True, "me": True,
                  "divisional": True, "flats": 89,
                  "chain": [[0], [0, 3, 4], [0, 1, 2, 3, 4],
                            [0, 1, 2, 3, 4, 7, 8]],
                  "charpoly": _poly_from_roots(1, 2, 2, 2, 2)},
    },
    "bowtie-lift-9": {
        "matroid": lambda: bowtie_lift_9().dependence_matroid(),
        "facts": {"atoms": 9, "rank": 5, "supersolvable": True, "me": True,
                  "divisional": True, "flats": 89,
                  "chain": [[0], [0, 3, 4], [0, 1, 2, 3, 4],
                            [0, 1, 2, 3, 4, 7, 8]],
                  "charpoly": _poly_from_roots(1, 2, 2, 2, 2)},
    },
    "example-7": {
        "matroid": lambda: example_7().dependence_matroid(),
        "facts": {"atoms": 7, "rank": 3, "supersolvable": True, "me": True,
                  "divisional": True, "charpoly": _poly_from_roots(1, 3, 3)},
    },
    "example-13": {
        "matroid": lambda: example_13().dependence_matroid(),
        "facts": {"atoms": 13, "rank": 5, "supersolvable": False, "me": True,
                  "divisional": True, "join_over": [0],
                  "charpoly": _poly_from_roots(1, 3, 3, 3, 3)},
    },
    "ziegler-11": {
        "matroid": lambda: ziegler_11().dependence_matroid(),
        "facts": {"atoms": 11, "rank": 4, "supersolvable": True, "me": True,
                  "divisional": True, "charpoly": _poly_from_roots(1, 2, 4, 4),
                  "chain": [[3], [3, 4, 5], [0, 3, 4, 5, 6, 7, 8]]},
    },
    "ziegler-19": {
        "matroid": lambda: ziegler_19().dependence_matroid(),
        "facts": {"atoms": 19, "rank": 6, "supersolvable": False, "me": True,
                  "divisional": True, "join_over": [0, 1, 2],
                  "charpoly": _poly_from_roots(1, 2, 4, 4, 4, 4)},
    },
}


def corpus_names() -> list:
    return sorted(_MEMBERS)


def corpus_matroid(name: str) -> Matroid:
    return _MEMBERS[name]["matroid"]()


def corpus_facts(name: str) -> dict:
    return dict(_MEMBERS[name]["facts"])

