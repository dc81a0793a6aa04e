"""Central hyperplane arrangements over Q or GF(p), given by linear forms.

An arrangement stores one linear form per hyperplane, canonicalized so the
first nonzero coefficient is 1; proportional forms describe the same
hyperplane and are rejected.  Its combinatorics are delegated to the linear
matroid of the forms.
"""

from __future__ import annotations

from .algebra import Field, FieldMatrix, matrix_rank
from .errors import InvalidInput, NotSimple, TooLarge, reading
from .matroid import DEFAULT_MAX_ATOMS, Matroid, linear_matroid


def check_hyperplane_count(count: int, max_atoms: int) -> None:
    """Raise TooLarge when `count` hyperplanes exceed the guardrail `max_atoms`."""
    if count > max_atoms:
        raise TooLarge(f"{count} hyperplanes exceeds the limit of {max_atoms}")


class Arrangement:
    """A finite set of at most `max_atoms` hyperplanes ker(f_i) in field^dim;
    the cap passes on to the dependence matroid and to `essentialize`."""

    def __init__(self, field: Field, dim: int, forms, labels=None,
                 max_atoms: int = DEFAULT_MAX_ATOMS):
        if dim < 0:
            raise InvalidInput("negative ambient dimension")
        check_hyperplane_count(len(forms), max_atoms)
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
        if labels is None:
            labels = tuple(_form_label(field, row) for row in self.forms)
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != len(self.forms):
                raise InvalidInput("label count differs from hyperplane count")
        self.labels = labels
        self.max_atoms = max_atoms
        self._matroid = None

    def __len__(self):
        return len(self.forms)

    def dependence_matroid(self) -> Matroid:
        """The linear matroid of the forms (simple by construction)."""
        if self._matroid is None:
            rows = [[row[k] for row in self.forms] for k in range(self.dim)]
            self._matroid = linear_matroid(
                FieldMatrix(self.field, rows), labels=self.labels,
                max_atoms=self.max_atoms)
        return self._matroid

    def essentialize(self) -> "Arrangement":
        """Quotient out the common intersection subspace.

        New coordinates are the leftmost coordinates whose columns of the
        forms are independent (the pivot columns of the row space), so each
        hyperplane keeps its index.
        """
        pivots = []
        for k in range(self.dim):
            rows = [[row[j] for j in pivots + [k]] for row in self.forms]
            if matrix_rank(FieldMatrix(self.field, rows)) > len(pivots):
                pivots.append(k)
        if not pivots:
            raise InvalidInput("cannot essentialize an empty arrangement")
        new_forms = [[row[k] for k in pivots] for row in self.forms]
        return Arrangement(self.field, len(pivots), new_forms, labels=self.labels,
                           max_atoms=self.max_atoms)

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "dim": self.dim,
            "forms": [[self.field.scalar_to_json(x) for x in row]
                      for row in self.forms],
            "labels": list(self.labels),
        }

    @classmethod
    def from_json(cls, data, max_atoms: int = DEFAULT_MAX_ATOMS) -> "Arrangement":
        if not isinstance(data, dict):
            raise InvalidInput("arrangement descriptor must be an object")
        with reading("arrangement descriptor"):
            return cls(Field.from_json(data["field"]), int(data["dim"]), data["forms"],
                       labels=data.get("labels"), max_atoms=max_atoms)

    def __repr__(self):
        return (f"Arrangement({self.field!r}, dim={self.dim}, "
                f"hyperplanes={len(self.forms)})")


def _form_label(field: Field, row) -> str:
    parts = []
    for k, x in enumerate(row):
        if field.is_zero(x):
            continue
        coeff = field.scalar_to_json(x)
        if coeff == "1" or coeff == 1:
            parts.append(f"+x{k}")
        elif coeff == "-1" or coeff == -1:
            parts.append(f"-x{k}")
        else:
            parts.append(f"+{coeff}*x{k}" if not str(coeff).startswith("-")
                         else f"{coeff}*x{k}")
    label = "".join(parts)
    return label[1:] if label.startswith("+") else label


def pg_arrangement(n: int, p: int, max_atoms: int = DEFAULT_MAX_ATOMS) -> Arrangement:
    """All hyperplanes of GF(p)^(n+1): one form per point of PG(n, p).

    Forms are the (p^(n+1)-1)/(p-1) vectors whose first nonzero entry is 1,
    in lexicographic order.
    """
    field = Field.gf(p)
    if n < 0:
        raise InvalidInput("projective dimension must be nonnegative")
    count = (p ** (n + 1) - 1) // (p - 1)
    if count > max_atoms:
        raise TooLarge(f"PG({n},{p}) has {count} points, exceeding the "
                       f"limit of {max_atoms}")
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

