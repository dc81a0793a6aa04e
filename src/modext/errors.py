"""Exception types shared across the toolkit, and the base of its records.

The CLI maps these onto exit codes: invalid input -> 2, guardrail
breaches -> 3, certificate verification failures -> 4.
"""

from __future__ import annotations

from contextlib import contextmanager


class Frozen:
    """Base of the toolkit's immutable records: certificates, reports,
    verdicts.

    A subclass annotates its fields in order and writes them into
    `self.__dict__` in its own `__init__`; the base reads the field order
    from the annotations once, when the subclass is defined (after the
    fields it inherits), and derives
    from it value semantics: `==` only between instances of one class with
    equal fields, the hash of the field tuple, the repr
    `Name(field=value, ...)`, and an AttributeError on assignment or
    deletion.  No method is generated or compiled, so defining a record
    costs next to nothing at import.  Instances keep a `__dict__`, so
    pickle and copy rebuild them without calling `__setattr__`.
    """

    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple(d[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        d = self.__dict__
        body = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ModextError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(ModextError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class TooLarge(ModextError):
    """A desk-scale guardrail was exceeded (CLI exit code 3)."""


@contextmanager
def reading(what: str):
    """Report a missing key or a field of the wrong shape (TypeError,
    ValueError, IndexError, or OverflowError for a number such as 1e400
    that JSON reads as infinity) in the JSON of `what` as InvalidInput; a
    ModextError such as TooLarge is none of these and passes unchanged."""
    try:
        yield
    except KeyError as exc:
        raise InvalidInput(f"{what} missing {exc}") from exc
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise InvalidInput(f"bad {what}: {exc}") from exc


class NotSimple(InvalidInput):
    """A matroid constructor found rank-zero or parallel atoms."""

    def __init__(self, columns, message=None):
        self.columns = tuple(columns)
        super().__init__(message or f"not simple: offending atoms {list(self.columns)}")


class NotSimpleFrame(NotSimple):
    """A frame matroid would have parallel atoms (repeated identical edges)."""


class NotAFlat(InvalidInput):
    """The given subset is not closed."""


class NotModular(InvalidInput):
    """A flat required to be modular failed the rank equation."""


class NotComparable(InvalidInput):
    """Interval endpoints are not ordered in the lattice."""


class HasLoops(InvalidInput):
    """The operation requires a loopless gain graph."""


class NoMultiplicativeEmbedding(InvalidInput):
    """The gain group does not embed into the multiplicative group of the field."""


class NoAdditiveEmbedding(InvalidInput):
    """The gain group does not embed into the additive group of the field."""


class DivisionByZeroPolynomial(ModextError):
    """Exact polynomial division by the zero polynomial."""


class IdentityViolation(ModextError):
    """A polynomial identity that must hold for a modular join failed.

    The message prints the four characteristic polynomials involved, each
    as its coefficient list, constant term first.
    """

    def __init__(self, chi_m, chi_x, chi_e1, chi_e2):
        super().__init__(
            "join identity failed: chi(M)*chi(M|X) != chi(M|E1)*chi(M|E2): "
            f"{list(chi_m.coeffs)} * {list(chi_x.coeffs)} != "
            f"{list(chi_e1.coeffs)} * {list(chi_e2.coeffs)}"
        )


class LiftViolation(ModextError):
    """A divisional atom of a join factor failed to lift to the join."""


class InternalInconsistency(ModextError):
    """A quantity that theory forces (e.g. a linear flag quotient) came out wrong."""
