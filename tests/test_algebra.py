"""Exact arithmetic: polynomials, fields, matrices."""

import random
from fractions import Fraction

import pytest

from modext.algebra import (Field, FieldMatrix, IntPolynomial, gf_row_rank, integer_roots,
                            integer_row_rank, poly_exact_div)
from modext.arrangement import Arrangement
from modext.errors import DivisionByZeroPolynomial, InvalidInput, NotComparable


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


def test_polynomial_json_roundtrip():
    p = IntPolynomial([-81, 189, -162, 66, -13, 1])
    assert IntPolynomial.from_json(p.to_json()) == p


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
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.inv(3) == 2  # 3*2 = 6 = 1
    assert f.sub(1, 3) == 3
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def _fraction_rank(rows):
    """Reference rank over the rationals by plain Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0),
                     None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_bareiss_matches_fraction_elimination():
    rng = random.Random(7)
    for _ in range(60):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 6)
        rows = [[rng.randint(-6, 6) for _ in range(ncols)]
                for _ in range(nrows)]
        assert integer_row_rank(rows) == _fraction_rank(rows)


def test_matrix_rank_rational_and_gf():
    m = FieldMatrix(Field.rational(), [[Fraction(1), Fraction(1, 2)],
                                       [Fraction(2), Fraction(1)]])
    assert m.rank() == 1
    m2 = FieldMatrix(Field.gf(2), [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert m2.rank() == 2  # rows sum to zero mod 2


def test_gf2_rank_matches_modular_elimination():
    rng = random.Random(13)
    gf2 = Field.gf(2)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 7)
        rows = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
        for mask in range(1, 1 << nrows):
            sub = [rows[i] for i in range(nrows) if mask >> i & 1]
            assert FieldMatrix(gf2, sub).rank() == gf_row_rank(sub, 2), sub


def test_essentialize_drops_unused_gf3_coordinate():
    # coordinate 0 is zero in every form and coordinate 3 is the sum of 1 and 2
    arr = Arrangement(Field.gf(3), 4, [[0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 2], [0, 1, 2, 0]])
    assert arr.essentialize().to_json() == {
        "field": {"kind": "gf", "p": 3}, "dim": 2,
        "forms": [[1, 0], [0, 1], [1, 1], [1, 2]],
        "labels": ["x1+x3", "x2+x3", "x1+x2+2*x3", "x1+2*x2"]}


def test_matrix_json_roundtrip():
    m = FieldMatrix(Field.gf(7), [[1, 2], [3, 4]])
    m2 = FieldMatrix.from_json(m.to_json())
    assert m2.rank() == m.rank()
    assert m2.column(1) == m.column(1)
