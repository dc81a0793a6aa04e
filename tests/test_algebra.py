"""Exact arithmetic: polynomials, fields, matrices."""

import random
from fractions import Fraction

import pytest

from modext.algebra import (Field, FieldMatrix, IntPolynomial, gf2_pack, gf2_rank, gf_row_rank,
                            integer_roots, integer_row_rank, matrix_rank, poly_exact_div)
from modext.arrangement import Arrangement
from modext.errors import DivisionByZeroPolynomial, InvalidInput, NotComparable

from oracles import field_rank


def test_polynomial_basics():
    p = IntPolynomial([1, 2, 3])  # 3t^2 + 2t + 1
    assert p.degree == 2
    assert p(0) == 1 and p(1) == 6 and p(-1) == 2
    assert (p + IntPolynomial.one())(1) == 7
    assert (p * IntPolynomial.t())(2) == 2 * p(2)
    assert -p + p == IntPolynomial.zero()


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
        poly_exact_div(num, IntPolynomial.zero())


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
        assert integer_roots(p * IntPolynomial.t()) == sorted(roots + [0])
    assert integer_roots(IntPolynomial.one()) == []
    assert integer_roots(IntPolynomial.t()) == [0]
    assert integer_roots(IntPolynomial.from_roots([0, 0, -3, 5])) == [-3, 0, 0, 5]
    for q in irreducible:
        assert integer_roots(q) is None
    # not monic: no product of factors t - a
    assert integer_roots(IntPolynomial([-2, 2])) is None
    assert integer_roots(IntPolynomial.zero()) is None


def test_field_validation():
    assert Field.gf(2).p == 2
    assert Field.rational().is_rational
    for bad in (1, 4, 6, 9, -5):
        with pytest.raises(InvalidInput):
            Field.gf(bad)


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
        assert integer_row_rank(rows) == expected == matrix_rank(FieldMatrix(q, scaled)), rows
        for p in (2, 3, 5, 7):
            gf = Field.gf(p)
            expected = field_rank(gf, rows)
            assert (gf_row_rank(rows, p) == expected
                    == matrix_rank(FieldMatrix(gf, rows))), (p, rows)
        packed = [gf2_pack([x % 2 for x in row]) for row in rows]
        assert gf2_rank(packed) == field_rank(Field.gf(2), rows), rows


def test_matrix_rank_rational_and_gf():
    m = FieldMatrix(Field.rational(), [[Fraction(1), Fraction(1, 2)],
                                       [Fraction(2), Fraction(1)]])
    assert matrix_rank(m) == 1
    m2 = FieldMatrix(Field.gf(2), [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert matrix_rank(m2) == 2  # rows sum to zero mod 2


def test_gf2_rank_matches_modular_elimination():
    rng = random.Random(13)
    gf2 = Field.gf(2)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 7)
        rows = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
        for mask in range(1, 1 << nrows):
            sub = [rows[i] for i in range(nrows) if mask >> i & 1]
            assert matrix_rank(FieldMatrix(gf2, sub)) == gf_row_rank(sub, 2), sub


def test_essentialize_drops_unused_gf3_coordinate():
    # coordinate 0 is zero in every form and coordinate 3 is the sum of 1 and 2
    arr = Arrangement(Field.gf(3), 4, [[0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 2], [0, 1, 2, 0]])
    assert arr.essentialize().to_json() == {
        "field": {"kind": "gf", "p": 3}, "dim": 2,
        "forms": [[1, 0], [0, 1], [1, 1], [1, 2]],
        "labels": ["x1+x3", "x2+x3", "x1+x2+2*x3", "x1+2*x2"]}
