"""Exact arithmetic: polynomials, fields, matrices."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from modext.algebra import (PRIME_LIMIT, Field, FieldMatrix, IntPolynomial, _clear_row_denominators,
                            _is_prime, gf2_basis, gf2_pack, gf_row_rank, integer_roots,
                            integer_row_rank, poly_exact_div)
from modext.arrangement import Arrangement
from modext.errors import DivisionByZeroPolynomial, InvalidInput, NotComparable

from oracles import field_rank


T = IntPolynomial([0, 1])


def test_polynomial_basics():
    p = IntPolynomial([1, 2, 3, 0, 0])  # 3t^2 + 2t + 1, trailing zeros trimmed
    assert p.coeffs == (1, 2, 3) and p.degree == 2
    assert p(0) == 1 and p(1) == 6 and p(-1) == 2
    assert (p * T).coeffs == (0, 1, 2, 3) and (p * T)(2) == 2 * p(2)
    assert p * IntPolynomial() == IntPolynomial() and IntPolynomial().degree == -1


def test_from_roots():
    p = IntPolynomial.from_roots([1, 3, 3])
    assert p == IntPolynomial([-9, 15, -7, 1])
    assert p(1) == 0 and p(3) == 0 and p(2) != 0
    assert IntPolynomial.from_roots([]) == IntPolynomial.one()


def test_exact_division():
    num = IntPolynomial.from_roots([1, 2, 2, 4])
    den = IntPolynomial.from_roots([2, 4])
    q = poly_exact_div(num, den)
    assert q == IntPolynomial.from_roots([1, 2])
    assert poly_exact_div(num, IntPolynomial.from_roots([3])) is None
    with pytest.raises(DivisionByZeroPolynomial):
        poly_exact_div(num, IntPolynomial())


def test_integer_roots_against_brute_force():
    rng = random.Random(20)
    irreducible = (IntPolynomial([1, 0, 1]), IntPolynomial([-2, 0, 1]),
                   IntPolynomial([1, -1, 1]))
    for _ in range(200):
        roots = [rng.randint(1, 12) for _ in range(rng.randint(1, 7))]
        roots += rng.sample(roots, rng.randint(0, len(roots)))   # repeats
        p = IntPolynomial.from_roots(roots)
        assert integer_roots(p) == sorted(roots), roots
        for q in irreducible:
            assert integer_roots(p * q) is None, (roots, q)
        # a root at 0: the factor t
        assert integer_roots(p * T) == sorted(roots + [0])
    assert integer_roots(IntPolynomial.one()) == []
    assert integer_roots(T) == [0]
    assert integer_roots(IntPolynomial.from_roots([0, 0, -3, 5])) == [-3, 0, 0, 5]
    for q in irreducible:
        assert integer_roots(q) is None
    # not monic: no product of factors t - a
    assert integer_roots(IntPolynomial([-2, 2])) is None
    assert integer_roots(IntPolynomial()) is None


def test_field_validation():
    assert Field.gf(2).p == 2
    assert Field.rational().is_rational
    for bad in (1, 4, 6, 9, -5):
        with pytest.raises(InvalidInput):
            Field.gf(bad)


def test_primality_is_exact_below_the_limit():
    # against trial division
    assert [p for p in range(-3, 10 ** 5) if _is_prime(p)] == [
        p for p in range(2, 10 ** 5) if all(p % d for d in range(2, isqrt(p) + 1))]
    # the least strong pseudoprimes to the first 1, 4, 9 and 12 prime bases
    for q in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(q), q
        with pytest.raises(InvalidInput):
            Field.gf(q)
    # primes past any trial division
    for q in (2 ** 61 - 1, 2 ** 64 - 59, 10 ** 24 + 7):
        assert Field.gf(q).p == q
    # PRIME_LIMIT is the least strong pseudoprime to the first 13 prime
    # bases, so it and everything above, primes too, are refused
    assert _is_prime(PRIME_LIMIT)
    for q in (PRIME_LIMIT, 2 ** 89 - 1):
        with pytest.raises(InvalidInput, match=f"below {PRIME_LIMIT}"):
            Field.gf(q)


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)), (" 7 ", Fraction(7)), ("+3", Fraction(3)), ("-0", Fraction(0)),
    ("1_000", Fraction(1000)), ("1__0", None), ("٣", Fraction(3)),
    ("1/2", Fraction(1, 2)), ("2/4", Fraction(1, 2)), ("1e3", Fraction(1000)),
    ("0x10", None), ("1/0", None)])
def test_rational_of_string(text, value):
    # the integer fast path reads each string as Fraction's parser does
    q = Field.rational()
    if value is None:
        with pytest.raises(InvalidInput, match=f"bad rational scalar {text!r}"):
            q.of(text)
    else:
        out = q.of(text)
        assert type(out) is Fraction and out == value


def test_field_ops_gf5():
    f = Field.gf(5)
    assert f.of(3 + 4) == 2
    assert f.mul(3, 4) == 2
    assert f.inv(3) == 2  # 3*2 = 6 = 1
    assert f.sub(1, 3) == 3
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_row_ranks_match_field_elimination():
    # rows are integer combinations of fewer base rows, so that ranks fall
    # short of full over Q and over each GF(p) alike
    rng = random.Random(7)
    for _ in range(60):
        ncols = rng.randint(1, 6)
        base = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [rng.randint(-2, 2) for _ in base]
            rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(ncols)])
        q = Field.rational()
        scaled = [[Fraction(x, i + 1) for x in row] for i, row in enumerate(rows)]
        expected = field_rank(q, rows)
        cleared = [_clear_row_denominators(r) for r in FieldMatrix(q, scaled).rows]
        assert integer_row_rank(rows) == expected == integer_row_rank(cleared), rows
        for p in (2, 3, 5, 7):
            gf = Field.gf(p)
            expected = field_rank(gf, rows)
            assert (gf_row_rank(rows, p) == expected
                    == gf_row_rank(FieldMatrix(gf, rows).rows, p)), (p, rows)
        packed = [gf2_pack([x % 2 for x in row]) for row in rows]
        assert _gf2_basis_size(packed) == field_rank(Field.gf(2), rows), rows


def _gf2_basis_size(packed) -> int:
    return len(gf2_basis(packed, (1 << len(packed)) - 1)[0])


def test_basis_ranks_rational_and_gf2():
    q = Field.rational()
    m = FieldMatrix(q, [[Fraction(1), Fraction(1, 2)], [Fraction(2), Fraction(1)]])
    assert integer_row_rank([_clear_row_denominators(r) for r in m.rows]) == 1
    assert field_rank(q, m.rows) == 1
    m2 = FieldMatrix(Field.gf(2), [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    # rows sum to zero mod 2
    assert _gf2_basis_size([gf2_pack(r) for r in m2.rows]) == 2 == gf_row_rank(m2.rows, 2)
    assert field_rank(Field.gf(2), m2.rows) == 2


def test_gf2_basis_rank_matches_modular_elimination():
    rng = random.Random(13)
    gf2 = Field.gf(2)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 7)
        rows = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
        for mask in range(1, 1 << nrows):
            sub = [rows[i] for i in range(nrows) if mask >> i & 1]
            expected = field_rank(gf2, sub)
            assert gf_row_rank(sub, 2) == expected, sub
            assert _gf2_basis_size([gf2_pack(r) for r in sub]) == expected, sub


def test_essentialize_drops_unused_gf3_coordinate():
    # coordinate 0 is zero in every form and coordinate 3 is the sum of 1 and 2
    arr = Arrangement(Field.gf(3), 4, [[0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 2], [0, 1, 2, 0]])
    assert arr.essentialize().to_json() == {
        "field": {"kind": "gf", "p": 3}, "dim": 2,
        "forms": [[1, 0], [0, 1], [1, 1], [1, 2]],
        "labels": ["x1+x3", "x2+x3", "x1+x2+2*x3", "x1+2*x2"]}
