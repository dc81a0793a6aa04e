"""Exact combinatorics of simple matroids, gain graphs, and arrangements.

The package certifies structural properties of simple matroids — modular
flats, roundness, supersolvability, divisional flags, modular joins — and
applies them to frame/lift matroids of gain graphs and to hyperplane
arrangements over Q and prime fields.  All arithmetic is exact.
"""

from .algebra import Field, FieldMatrix, IntPolynomial, poly_exact_div
from .arrangement import Arrangement, pg_arrangement
from .divisional import divisional_flag, is_divisional_atom, stanley_division_check
from .errors import ModextError
from .gaingraph import (
    FiniteGroup,
    GainGraph,
    bias_simplicial_vertices,
    complete_gain_graph,
    frame_matroid,
    lift_matroid,
    link_simplicial_vertices,
    realize_frame_arrangement,
    realize_lift_arrangement,
)
from .joins import brylawski_identity_check, find_modular_joins, me_certify
from .lattice import FlatLattice, charpoly, enumerate_flats
from .matroid import Matroid, graphic_matroid, linear_matroid
from .modularity import is_modular_flat, is_round, modular_flats, supersolvable_chain
from .verify import verify_certificate

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "Field",
    "FieldMatrix",
    "FiniteGroup",
    "FlatLattice",
    "GainGraph",
    "IntPolynomial",
    "Matroid",
    "ModextError",
    "bias_simplicial_vertices",
    "brylawski_identity_check",
    "charpoly",
    "complete_gain_graph",
    "divisional_flag",
    "enumerate_flats",
    "find_modular_joins",
    "frame_matroid",
    "graphic_matroid",
    "is_divisional_atom",
    "is_modular_flat",
    "is_round",
    "lift_matroid",
    "linear_matroid",
    "link_simplicial_vertices",
    "me_certify",
    "modular_flats",
    "pg_arrangement",
    "poly_exact_div",
    "realize_frame_arrangement",
    "realize_lift_arrangement",
    "stanley_division_check",
    "supersolvable_chain",
    "verify_certificate",
]
