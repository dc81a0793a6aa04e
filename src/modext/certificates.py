"""Certificate records and their JSON forms.

Certificates are finite trees whose nodes cite the flats that witness a
structural claim about a matroid.  They are immutable values on the shared
`errors.Frozen` base, compared and hashed by their fields; replaying them
against a matroid lives in `verify`.  Flats serialize as sorted atom-index
arrays.
"""

from __future__ import annotations

from .errors import Frozen, InvalidInput, reading
from .matroid import atom_tuple


class DivisionalFlag(Frozen):
    """A full flag of flats whose upward contraction charpolys divide in turn.

    `flats` runs from the empty flat to the full ground set, one rank at a
    time.  `quotient_roots` holds the integer a_i of each linear step
    quotient chi(M/X_i)/chi(M/X_{i+1}) = t - a_i, so multiplying the
    quotients back telescopes to chi(M).
    """

    flats: tuple
    quotient_roots: tuple

    def __init__(self, flats, quotient_roots):
        self.__dict__.update(flats=flats, quotient_roots=quotient_roots)

    def to_json(self) -> dict:
        return {
            "kind": "divisional-flag",
            "flats": [list(atom_tuple(f)) for f in self.flats],
            "quotient_roots": list(self.quotient_roots),
        }


class EmptyCertificate(Frozen):
    """The empty matroid is modularly extended by definition."""

    def to_json(self) -> dict:
        return {"kind": "empty"}


class ModularCoatomCertificate(Frozen):
    """Membership via a modular coatom whose restriction is itself certified."""

    coatom: int
    child: "Certificate"

    def __init__(self, coatom, child):
        self.__dict__.update(coatom=coatom, child=child)

    def to_json(self) -> dict:
        return {
            "kind": "modular-coatom",
            "coatom": list(atom_tuple(self.coatom)),
            "child": self.child.to_json(),
        }


class ModularJoinCertificate(Frozen):
    """Membership via a modular join of two certified proper flats.

    `e1` and `e2` are proper modular flats covering the ground set, `x`
    their (round) intersection.
    """

    e1: int
    e2: int
    x: int
    child1: "Certificate"
    child2: "Certificate"

    def __init__(self, e1, e2, x, child1, child2):
        self.__dict__.update(e1=e1, e2=e2, x=x, child1=child1, child2=child2)

    def to_json(self) -> dict:
        return {
            "kind": "modular-join",
            "e1": list(atom_tuple(self.e1)),
            "e2": list(atom_tuple(self.e2)),
            "x": list(atom_tuple(self.x)),
            "child1": self.child1.to_json(),
            "child2": self.child2.to_json(),
        }


class FlagCertificate(Frozen):
    """Wrapper presenting a divisional flag as a certificate."""

    flag: DivisionalFlag

    def __init__(self, flag):
        self.__dict__.update(flag=flag)


class ChainCertificate(Frozen):
    """A saturated chain of modular flats from the empty flat to the top."""

    flats: tuple

    def __init__(self, flats):
        self.__dict__.update(flats=flats)

    def to_json(self) -> dict:
        return {
            "kind": "supersolvable-chain",
            "flats": [list(atom_tuple(f)) for f in self.flats],
        }


Certificate = (
    EmptyCertificate
    | ModularCoatomCertificate
    | ModularJoinCertificate
    | FlagCertificate
    | ChainCertificate
)


def _atom_mask(atoms, n: int) -> int:
    """Bitmask of a certificate's atom list; InvalidInput naming an atom
    outside the ground set 0..n-1, before any bit is set for it."""
    mask = 0
    for a in atoms:
        if not 0 <= a < n:
            raise InvalidInput(f"atom {a} outside ground set of size {n}")
        mask |= 1 << a
    return mask


def certificate_from_json(data, n: int) -> Certificate:
    """Rebuild a certificate tree from its JSON form, for a matroid on the
    atoms 0..n-1."""
    if not isinstance(data, dict) or "kind" not in data:
        raise InvalidInput(f"bad certificate JSON: {data!r}")
    kind = data["kind"]
    with reading(f"{kind!r} certificate"):
        if kind == "empty":
            return EmptyCertificate()
        if kind == "modular-coatom":
            return ModularCoatomCertificate(
                _atom_mask(data["coatom"], n), certificate_from_json(data["child"], n))
        if kind == "modular-join":
            return ModularJoinCertificate(
                _atom_mask(data["e1"], n),
                _atom_mask(data["e2"], n),
                _atom_mask(data["x"], n),
                certificate_from_json(data["child1"], n),
                certificate_from_json(data["child2"], n),
            )
        if kind == "divisional-flag":
            return FlagCertificate(DivisionalFlag(
                tuple(_atom_mask(f, n) for f in data["flats"]),
                tuple(int(a) for a in data["quotient_roots"]),
            ))
        if kind == "supersolvable-chain":
            return ChainCertificate(tuple(_atom_mask(f, n) for f in data["flats"]))
    raise InvalidInput(f"unknown certificate kind {kind!r}")
