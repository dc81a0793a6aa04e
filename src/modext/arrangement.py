"""Central hyperplane arrangements over Q or GF(p), given by linear forms.

An arrangement stores one linear form per hyperplane, canonicalized so the
first nonzero coefficient is 1; proportional forms describe the same
hyperplane and are rejected.  Like a matroid's atoms, hyperplanes go by
their index in `forms` and carry no names.  Its combinatorics are delegated
to the linear matroid of the forms.
"""

from __future__ import annotations

from .algebra import Field, FieldMatrix, _clear_row_denominators, echelon_basis
from .errors import InvalidInput, NotSimple, TooLarge, reading
from .matroid import DEFAULT_MAX_ATOMS, Matroid, check_atom_count, linear_matroid


class Arrangement:
    """A finite set of at most `max_atoms` hyperplanes ker(f_i) in field^dim,
    hyperplane i named by i alone; the cap passes on to the dependence
    matroid and to `essentialize`."""

    def __init__(self, field: Field, dim: int, forms, max_atoms: int = DEFAULT_MAX_ATOMS):
        if dim < 0:
            raise InvalidInput("negative ambient dimension")
        check_atom_count(len(forms), max_atoms)
        self.field = field
        self.dim = dim
        canon = []
        seen = {}
        for i, row in enumerate(forms):
            row = tuple(field.of(x) for x in row)
            if len(row) != dim:
                raise InvalidInput(f"form {i} has {len(row)} coefficients, expected {dim}")
            lead = next((x for x in row if not field.is_zero(x)), None)
            if lead is None:
                raise InvalidInput(f"form {i} is zero")
            inv = field.inv(lead)
            row = tuple(field.mul(inv, x) for x in row)
            if row in seen:
                raise NotSimple([seen[row], i],
                                f"forms {seen[row]} and {i} define the same hyperplane")
            seen[row] = i
            canon.append(row)
        self.forms = tuple(canon)
        self.max_atoms = max_atoms
        self._matroid = None

    def dependence_matroid(self) -> Matroid:
        """The linear matroid of the forms (simple by construction)."""
        if self._matroid is None:
            rows = [[row[k] for row in self.forms] for k in range(self.dim)]
            self._matroid = linear_matroid(FieldMatrix(self.field, rows), self.max_atoms)
        return self._matroid

    def essentialize(self) -> "Arrangement":
        """Quotient out the common intersection subspace.

        New coordinates are the leftmost coordinates whose columns of the
        forms are independent, so each hyperplane keeps its index: the
        pivots of an echelon basis of the forms, since the leading entries
        of a row space's vectors are its leftmost independent columns.
        """
        field = self.field
        if field.is_rational:
            rows, p = [_clear_row_denominators(row) for row in self.forms], 0
        else:
            rows, p = self.forms, field.p
        pivots = sorted(piv for piv, _ in echelon_basis(rows, (1 << len(rows)) - 1, p))
        if not pivots:
            raise InvalidInput("cannot essentialize an empty arrangement")
        new_forms = [[row[k] for k in pivots] for row in self.forms]
        return Arrangement(self.field, len(pivots), new_forms, max_atoms=self.max_atoms)

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "dim": self.dim,
            "forms": [[self.field.scalar_to_json(x) for x in row]
                      for row in self.forms],
        }

    @classmethod
    def from_json(cls, data, max_atoms: int = DEFAULT_MAX_ATOMS) -> "Arrangement":
        """Read "field", "dim" and "forms"; other keys are ignored, among
        them "labels": an arrangement names no hyperplanes."""
        if not isinstance(data, dict):
            raise InvalidInput("arrangement descriptor must be an object")
        with reading("arrangement descriptor"):
            return cls(Field.from_json(data["field"]), int(data["dim"]), data["forms"],
                       max_atoms=max_atoms)

    def __repr__(self):
        return (f"Arrangement({self.field!r}, dim={self.dim}, "
                f"hyperplanes={len(self.forms)})")


def pg_arrangement(n: int, p: int, max_atoms: int = DEFAULT_MAX_ATOMS) -> Arrangement:
    """All hyperplanes of GF(p)^(n+1): one form per point of PG(n, p).

    Forms are the (p^(n+1)-1)/(p-1) vectors whose first nonzero entry is 1,
    in lexicographic order.  The cap is checked before p is tested for
    primality.  Past 2^16 bits the power is not computed: the count is
    at least p^n, so at least 2^(n*(b-1)) for b the bit length of p,
    and so more than the cap once n*(b-1) reaches the cap's bit length.
    """
    if n < 0:
        raise InvalidInput("projective dimension must be nonnegative")
    if p > 1:  # else Field.gf rejects p
        bits = p.bit_length()
        if (n + 1) * bits > 1 << 16 and n * (bits - 1) >= max_atoms.bit_length():
            raise TooLarge(f"the atom count exceeds the limit of {max_atoms}")
        check_atom_count((p ** (n + 1) - 1) // (p - 1), max_atoms)
    field = Field.gf(p)
    dim = n + 1
    forms = []
    for lead in range(dim):
        tail = dim - lead - 1
        for k in range(p ** tail):
            rest = []
            x = k
            for _ in range(tail):
                rest.append(x % p)
                x //= p
            rest.reverse()
            forms.append([0] * lead + [1] + rest)
    forms.sort()
    return Arrangement(field, dim, forms, max_atoms=max_atoms)

