"""Hyperplane arrangements: canonical forms, essentialization, agreement."""

import random
from fractions import Fraction

import pytest

from modext.algebra import Field, IntPolynomial
from modext.arrangement import Arrangement, pg_arrangement
from modext.corpus import braid_arrangement, corpus_matroid
from modext.errors import InvalidInput, NotSimple, TooLarge
from modext.matroid import mask_of

from oracles import bare_matroid, field_rank, rank_agreement, whitney_charpoly_coeffs
from samples import arrangement_charpoly


class TestConstruction:
    def test_forms_scaled_to_leading_one(self):
        arr = Arrangement(Field.rational(), 2, [[2, 4], [0, -3]])
        assert arr.forms == ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))

    def test_scaled_duplicates_rejected(self):
        with pytest.raises(NotSimple) as info:
            Arrangement(Field.rational(), 2, [[1, 2], [0, 1], [3, 6]])
        assert info.value.columns == (0, 2)
        with pytest.raises(NotSimple):
            Arrangement(Field.gf(5), 2, [[1, 2], [2, 4]])

    def test_rejects_bad_forms(self):
        q = Field.rational()
        with pytest.raises(InvalidInput):
            Arrangement(q, 2, [[0, 0]])
        with pytest.raises(InvalidInput):
            Arrangement(q, 2, [[1, 0, 0]])
        with pytest.raises(InvalidInput):
            Arrangement(q, -1, [])
        with pytest.raises(TooLarge):
            Arrangement(q, 30, [[0] * k + [1] + [0] * (29 - k) for k in range(30)])


def _rank(arr):
    m = arr.dependence_matroid()
    return m.rank(m.full_mask)


class TestEssentialize:
    def test_braid_arrangement(self):
        arr = braid_arrangement(4)
        assert arr.dim == 4 and _rank(arr) == 3
        assert _rank(arr) != arr.dim
        ess = arr.essentialize()
        assert ess.dim == 3 and _rank(ess) == 3
        # the matroid is untouched, only the ambient space shrinks
        report = rank_agreement(arr.dependence_matroid(), ess.dependence_matroid())
        assert report["agree"] and report["mode"] == "exhaustive"

    def test_charpoly_convention(self):
        arr = braid_arrangement(4)
        t = IntPolynomial([0, 1])
        chi = arrangement_charpoly(arr)
        assert chi == t * arrangement_charpoly(arr.essentialize())
        assert chi == IntPolynomial([0, -6, 11, -6, 1])

    def test_keeps_a_raised_cap(self):
        arr = Arrangement(Field.rational(), 2, [[1, k] for k in range(30)], max_atoms=40)
        ess = arr.essentialize()
        assert len(ess.forms) == 30 and ess.max_atoms == 40
        # 30 atoms are over the default cap of 24
        assert ess.dependence_matroid().n == 30

    @pytest.mark.parametrize("field", [Field.rational(), Field.gf(2), Field.gf(3), Field.gf(5)],
                             ids=repr)
    def test_keeps_the_leftmost_independent_coordinates(self, field):
        # random forms with one coordinate zeroed and one a combination of
        # the others; the reference keeps each coordinate whose column
        # raises the rank of the columns kept before it
        rng = random.Random(33)
        built = 0
        while built < 60:
            dim = rng.randint(2, 6)
            zero, dependent = rng.sample(range(dim), 2)
            coeffs = {k: rng.randint(-2, 2) for k in range(dim) if k not in (zero, dependent)}
            forms = []
            for _ in range(rng.randint(1, 7)):
                row = [Fraction(rng.randint(-3, 3), rng.randint(1, 3) if field.is_rational else 1)
                       for _ in range(dim)]
                row[zero] = 0
                row[dependent] = sum(c * row[k] for k, c in coeffs.items())
                forms.append([x if field.is_rational else int(x) for x in row])
            try:
                arr = Arrangement(field, dim, forms)
            except (InvalidInput, NotSimple):
                continue  # a zero or a repeated form
            built += 1
            keep = []
            for k in range(dim):
                if field_rank(field, [[row[j] for j in keep + [k]]
                                      for row in arr.forms]) > len(keep):
                    keep.append(k)
            assert zero not in keep and len(keep) < dim - 1, forms
            ess = arr.essentialize()
            assert ess.dim == len(keep), forms
            assert ess.forms == tuple(tuple(row[k] for k in keep) for row in arr.forms), forms

    def test_essential_arrangement_is_fixed_point(self):
        arr = pg_arrangement(2, 2)
        assert _rank(arr) == arr.dim
        ess = arr.essentialize()
        assert ess.dim == arr.dim and ess.forms == arr.forms


class TestProjectiveGeometries:
    def test_point_counts(self):
        assert len(pg_arrangement(2, 2).forms) == 7
        assert len(pg_arrangement(2, 3).forms) == 13
        assert len(pg_arrangement(3, 2).forms) == 15
        assert len(pg_arrangement(1, 5).forms) == 6

    def test_forms_are_normalized_and_sorted(self):
        arr = pg_arrangement(2, 3)
        for row in arr.forms:
            lead = next(x for x in row if x)
            assert lead == 1
        assert list(arr.forms) == sorted(arr.forms)
        assert len(set(arr.forms)) == 13

    def test_fano_matroid(self):
        dep = pg_arrangement(2, 2).dependence_matroid()
        report = rank_agreement(dep, corpus_matroid("fano"))
        assert report["agree"]

    def test_charpoly_counts_points_off_hyperplanes(self):
        chi = arrangement_charpoly(pg_arrangement(2, 3))
        assert chi == IntPolynomial.from_roots([1, 3, 9])
        # chi(3^k) counts points of GF(3^k)^3 lying on no GF(3)-hyperplane
        assert chi(3) == 0 and chi(9) == 0
        assert chi(27) == 26 * 24 * 18

    def test_guardrail(self):
        with pytest.raises(TooLarge):
            pg_arrangement(3, 3)
        assert len(pg_arrangement(3, 3, max_atoms=40).forms) == 40
        with pytest.raises(InvalidInput):
            pg_arrangement(-1, 2)
        # the cap is decided before p is tested for primality
        with pytest.raises(TooLarge):
            pg_arrangement(2, 6)
        with pytest.raises(InvalidInput):
            pg_arrangement(2, 6, max_atoms=43)


class TestDependenceMatroid:
    def test_charpoly_matches_whitney_oracle(self):
        for name in ("braid-4", "example-7"):
            arr = {"braid-4": braid_arrangement(4)}.get(name)
            if arr is None:
                from modext.corpus import example_7
                arr = example_7()
            dep = arr.dependence_matroid()
            coeffs = whitney_charpoly_coeffs(dep)
            assert list(arrangement_charpoly(arr.essentialize()).coeffs) == coeffs

    def test_matroid_is_cached(self):
        arr = braid_arrangement(3)
        assert arr.dependence_matroid() is arr.dependence_matroid()


class TestRankAgreement:
    def test_identity(self):
        m = corpus_matroid("k4")
        report = rank_agreement(m, m)
        assert report == {"agree": True, "mode": "exhaustive", "checked": 64}

    def test_correspondence(self):
        f = Field.gf(2)
        from modext.algebra import FieldMatrix
        from modext.arrangement import linear_matroid
        m1 = linear_matroid(FieldMatrix(f, [[1, 0, 1], [0, 1, 1]]))
        m2 = linear_matroid(FieldMatrix(f, [[1, 1, 0], [1, 0, 1]]))
        # column i of m1 equals column perm[i] of m2
        report = rank_agreement(m1, m2, correspondence=[1, 2, 0])
        assert report["agree"]

    def test_disagreement_carries_witness(self):
        f = Field.gf(2)
        from modext.algebra import FieldMatrix
        from modext.arrangement import linear_matroid
        m1 = linear_matroid(FieldMatrix(f, [[1, 0, 1], [0, 1, 1]]))
        m2 = linear_matroid(FieldMatrix(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        report = rank_agreement(m1, m2)
        assert not report["agree"]
        witness = mask_of(report["witness"])
        assert m1.rank(witness) != m2.rank(witness)
        assert report["ranks"] == [m1.rank(witness), m2.rank(witness)]

    def test_size_mismatch_and_bad_correspondence(self):
        m1 = corpus_matroid("u23")
        m2 = corpus_matroid("k4")
        with pytest.raises(ValueError, match="ground sets have sizes 3 and 6"):
            rank_agreement(m1, m2)
        with pytest.raises(ValueError, match="permutation"):
            rank_agreement(m1, m1, correspondence=[0, 0, 1])

    def test_sampled_mode(self):
        m = corpus_matroid("example-13")
        report = rank_agreement(m, m, exhaustive_limit=2 ** 10, samples=500)
        assert report == {"agree": True, "mode": "sampled", "checked": 500}

    def test_sampled_mode_is_deterministic(self):
        m1 = corpus_matroid("fish-sign")
        m2 = bare_matroid(m1.n, lambda mask: min(m1.rank(mask), 2))
        a = rank_agreement(m1, m2, exhaustive_limit=2, samples=200, seed=7)
        b = rank_agreement(m1, m2, exhaustive_limit=2, samples=200, seed=7)
        assert a == b and not a["agree"]


class TestJson:
    def test_round_trip_rational(self):
        arr = Arrangement(Field.rational(), 2, [[Fraction(1, 2), 1], [1, 0]])
        data = arr.to_json()
        assert data == {"field": {"kind": "rational"}, "dim": 2,
                        "forms": [["1", "2"], ["1", "0"]]}
        back = Arrangement.from_json(data)
        assert back.forms == arr.forms and back.dim == 2
        assert back.field.is_rational

    def test_round_trip_gf(self):
        arr = pg_arrangement(2, 3)
        back = Arrangement.from_json(arr.to_json())
        assert back.forms == arr.forms and back.field.p == 3

    def test_rejects_bad_descriptors(self):
        with pytest.raises(InvalidInput):
            Arrangement.from_json([1, 2])
        with pytest.raises(InvalidInput):
            Arrangement.from_json({"field": {"kind": "gf", "p": 2}, "dim": 2})
