"""Exact arithmetic: integer polynomials, fields (Q and GF(p)), matrix rank.

All computations are exact; no floating point enters anywhere.  Rationals
are `fractions.Fraction`, prime-field residues are plain ints in [0, p).
Every matrix rank is the size of a basis from one of two builders, shared
with the matroid kernels: a fraction-free echelon basis over Q and GF(p),
and a reduced XOR basis of vectors packed into ints over GF(2).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DivisionByZeroPolynomial, InvalidInput


# ---------------------------------------------------------------------------
# integer polynomials


class IntPolynomial:
    """Univariate polynomial with arbitrary-precision integer coefficients.

    Coefficients are stored constant term first with trailing zeros trimmed;
    the zero polynomial has an empty coefficient tuple.  Instances are
    immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise InvalidInput(f"polynomial coefficients must be ints, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    # -- queries

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x):
        """Evaluate by Horner's rule; accepts int or Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- arithmetic

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    # -- constructors

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def from_roots(cls, roots) -> "IntPolynomial":
        """Monic product of (t - a) over the given integer roots."""
        out = cls.one()
        for a in roots:
            out = out * cls((-a, 1))
        return out

    # -- serialization

    def to_json(self) -> list:
        """Coefficient array, constant term first, as decimal strings."""
        return [str(c) for c in self.coeffs]

    # -- dunder plumbing

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)!r})"


def poly_exact_div(num: IntPolynomial, den: IntPolynomial):
    """Exact quotient num/den over Z[t].

    Returns the quotient polynomial when den divides num exactly (integer
    coefficients, zero remainder) and None otherwise.  Division by the zero
    polynomial raises DivisionByZeroPolynomial.
    """
    if den.is_zero:
        raise DivisionByZeroPolynomial("polynomial division by zero")
    if num.is_zero:
        return IntPolynomial()
    if num.degree < den.degree:
        return None
    rem = list(num.coeffs)
    d = den.coeffs
    lead = d[-1]
    q = [0] * (len(rem) - len(d) + 1)
    for k in range(len(q) - 1, -1, -1):
        top = rem[k + len(d) - 1]
        if top % lead != 0:
            return None
        q[k] = top // lead
        if q[k]:
            for j, c in enumerate(d):
                rem[k + j] -= q[k] * c
    if any(rem):
        return None
    return IntPolynomial(q)


def integer_roots(p: IntPolynomial):
    """The roots of p, ascending and with multiplicity, when p is a product
    of monic linear factors t - a over Z; None otherwise.

    Rational root test: an integer root of a monic integer polynomial
    divides its constant term.  Zero roots are split off first; then the
    candidates +-q are tried for q = 1, 2, ... among the divisors of the
    constant term, each root found being deflated by synthetic division.
    Once every root of magnitude below q is off, the d roots left all have
    magnitude >= q, so p does not split when q^d exceeds the constant term.
    When p's coefficients alternate in sign, as a charpoly's do, every term
    of p(-q) has the sign of the leading one, so -q is not tried.
    """
    cs = p.coeffs
    if not cs or cs[-1] != 1:
        return None
    d = len(cs) - 1
    positive = all(c * (-1) ** (d - i) >= 0 for i, c in enumerate(cs))
    zeros = 0
    while not cs[zeros]:
        zeros += 1
    roots = [0] * zeros
    cs = cs[zeros:]
    q = 1
    while len(cs) > 1:
        c = cs[0]
        if q ** (len(cs) - 1) > abs(c):
            return None
        if not c % q:
            for r in (q,) if positive else (q, -q):
                while True:
                    # synthetic division by t - r: Horner's rule keeps the
                    # quotient's coefficients, and leaves p(r) last
                    acc = 0
                    out = []
                    for a in reversed(cs):
                        acc = acc * r + a
                        out.append(acc)
                    if out.pop():
                        break
                    roots.append(r)
                    cs = out[::-1]
        q += 1
    return sorted(roots)


# ---------------------------------------------------------------------------
# fields


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below PRIME_LIMIT, the least strong pseudoprime to all of them (Sorenson
# and Webster, Math. Comp. 86 (2017)); Field.gf refuses larger p.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Primality of p < PRIME_LIMIT, by deterministic Miller-Rabin."""
    if p < 2:
        return False
    for b in PRIME_BASES:
        if p % b == 0:
            return p == b
    s = ((p - 1) & (1 - p)).bit_length() - 1    # p - 1 = d * 2^s, d odd
    d = (p - 1) >> s
    for b in PRIME_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals Q or a prime field GF(p).

    Scalars are `Fraction` for Q and ints in [0, p) for GF(p); the field
    object interprets them.  Construction of GF(q) for non-prime q is
    rejected: prime-power fields are out of scope here.
    """

    __slots__ = ("kind", "p")

    RATIONAL = "rational"
    GF = "gf"

    def __init__(self, kind: str, p: int | None = None):
        if kind == Field.RATIONAL:
            if p is not None:
                raise InvalidInput("rational field takes no characteristic")
        elif kind == Field.GF:
            if isinstance(p, int) and p >= PRIME_LIMIT:
                raise InvalidInput(f"GF(p): characteristic must be below {PRIME_LIMIT}, "
                                   "where its primality is decided exactly")
            if not isinstance(p, int) or not _is_prime(p):
                raise InvalidInput(f"GF({p!r}): characteristic must be a prime")
        else:
            raise InvalidInput(f"unknown field kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @classmethod
    def rational(cls) -> "Field":
        return cls(Field.RATIONAL)

    @classmethod
    def gf(cls, p: int) -> "Field":
        return cls(Field.GF, p)

    @property
    def is_rational(self) -> bool:
        return self.kind == Field.RATIONAL

    # -- scalar arithmetic

    def of(self, value):
        """Coerce an int, Fraction, or 'a/b' string to a canonical scalar."""
        if self.is_rational:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            if isinstance(value, str):
                try:  # int() reads a subset of Fraction's strings, without its regex
                    return Fraction(int(value))
                except ValueError:
                    pass
                try:
                    return Fraction(value)
                except (ValueError, ZeroDivisionError) as exc:
                    raise InvalidInput(f"bad rational scalar {value!r}") from exc
            raise InvalidInput(f"bad rational scalar {value!r}")
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError as exc:
                raise InvalidInput(f"bad GF({self.p}) scalar {value!r}") from exc
        if not isinstance(value, int):
            raise InvalidInput(f"bad GF({self.p}) scalar {value!r}")
        return value % self.p

    def zero(self):
        return Fraction(0) if self.is_rational else 0

    def one(self):
        return Fraction(1) if self.is_rational else 1

    def sub(self, a, b):
        return a - b if self.is_rational else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.is_rational else (a * b) % self.p

    def neg(self, a):
        return -a if self.is_rational else (-a) % self.p

    def inv(self, a):
        if self.is_rational:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / Fraction(a)
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a == 0 if self.is_rational else a % self.p == 0

    # -- serialization

    def to_json(self) -> dict:
        if self.is_rational:
            return {"kind": "rational"}
        return {"kind": "gf", "p": self.p}

    @classmethod
    def from_json(cls, data) -> "Field":
        if not isinstance(data, dict) or "kind" not in data:
            raise InvalidInput(f"bad field descriptor {data!r}")
        if data["kind"] == "rational":
            return cls.rational()
        if data["kind"] == "gf":
            return cls.gf(data.get("p"))
        raise InvalidInput(f"unknown field kind {data['kind']!r}")

    def scalar_to_json(self, a):
        if self.is_rational:
            return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        return int(a)

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "Q" if self.is_rational else f"GF({self.p})"


# ---------------------------------------------------------------------------
# matrices and rank


class FieldMatrix:
    """Immutable dense matrix over a Field, stored row-major."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows):
        coerced = tuple(tuple(field.of(x) for x in row) for row in rows)
        widths = {len(r) for r in coerced}
        if len(widths) > 1:
            raise InvalidInput("ragged matrix rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", coerced)

    def __setattr__(self, name, value):
        raise AttributeError("FieldMatrix is immutable")

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"FieldMatrix({self.field!r}, {len(self.rows)}x{self.ncols})"


def echelon_reduce(v, basis, p):
    """Reduce an integer vector against a fraction-free echelon basis over
    GF(p), or over Q when p is 0.

    Each basis vector b with pivot piv reduces v in turn, by the step
    v <- b[piv]*v - v[piv]*b, taken mod p over GF(p) and, over Q, divided
    by its content gcd so that entries stay bounded.  Each basis vector is
    zero at the earlier pivots, so the result is zero at every pivot: a
    nonzero multiple of v's residue modulo the span of the basis, 0 iff v
    lies in that span.  Over GF(p) the entries of v must lie in [0, p).
    """
    for piv, b in basis:
        x = v[piv]
        if x:
            y = b[piv]
            if p:
                v = [(y * s - x * t) % p for s, t in zip(v, b)]
            else:
                v = [y * s - x * t for s, t in zip(v, b)]
                g = gcd(*v)
                if g > 1:
                    v = [s // g for s in v]
    return v


def echelon_basis(vectors, subset, p) -> list:
    """Fraction-free echelon basis, as (pivot, vector) pairs, of the vectors
    indexed by the bits of `subset`, over GF(p) or over Q when p is 0: each
    vector, reduced by `echelon_reduce`, joins the basis pivoting at its
    first nonzero entry unless it is zero, so the basis size is the rank."""
    basis = []
    while subset:
        low = subset & -subset
        subset ^= low
        v = echelon_reduce(vectors[low.bit_length() - 1], basis, p)
        for piv, s in enumerate(v):
            if s:
                basis.append((piv, v))
                break
    return basis


def integer_row_rank(rows) -> int:
    """Rank over Q of a sequence of integer rows, left unmodified."""
    return len(echelon_basis(rows, (1 << len(rows)) - 1, 0))


def gf_row_rank(rows, p: int) -> int:
    """Rank over GF(p) of a sequence of integer rows, left unmodified."""
    return len(echelon_basis([[x % p for x in r] for r in rows], (1 << len(rows)) - 1, p))


def gf2_pack(values) -> int:
    """A GF(2) vector of 0/1 entries as an int, entry i at bit i."""
    return sum(1 << i for i, x in enumerate(values) if x)


def gf2_basis(vectors, subset):
    """Reduced echelon XOR basis of the GF(2) vectors, packed into ints,
    whose indices are the bits of `subset`: (basis, pivots), where basis
    maps each pivot bit to the only basis vector holding it and pivots is
    the union of the pivot bits.  XORing into a vector the basis vector of
    each pivot bit it holds leaves its residue, zero at every pivot: 0 iff
    the vector lies in the span, and one residue per coset of the span."""
    basis = {}
    pivots = 0
    while subset:
        low = subset & -subset
        subset ^= low
        v = vectors[low.bit_length() - 1]
        held = v & pivots
        while held:
            bit = held & -held
            v ^= basis[bit]
            held ^= bit
        if v:
            pivot = v & -v
            for piv, b in basis.items():
                if b & pivot:
                    basis[piv] = b ^ v
            basis[pivot] = v
            pivots |= pivot
    return basis, pivots


def _clear_row_denominators(row) -> list:
    """Scale a row of Fractions to integers by the lcm of their
    denominators (rank-preserving)."""
    lcm = 1
    for x in row:
        d = x.denominator
        g = gcd(lcm, d)
        lcm = lcm // g * d
    return [x.numerator * (lcm // x.denominator) for x in row]
