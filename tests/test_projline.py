import random
from fractions import Fraction

import pytest

from heckehiggs.errors import ValidationError
from heckehiggs.hecke import HeckeData, h0_of_twist
from heckehiggs.linalg import mat_mul
from heckehiggs.poly import UniPoly
from heckehiggs.projline import (
    SplitBundle,
    TwistedEndo,
    evaluate_endo,
    validate_twisted_endo,
)
from instance_strategies import endo_scalar

X = UniPoly.variable()
F = Fraction


def line_bundle_h0(n):
    """h0(O(n)), as the sections of O(n) (+) O(-2) with no marked point."""
    return h0_of_twist(HeckeData(n, -2, []), 0)


def fits_line_bundle(poly, n):
    """Whether `poly` is a section of O(n): a 1x1 twist-n endomorphism of O."""
    return validate_twisted_endo(TwistedEndo(SplitBundle([0]), n, [[poly]])) == []


class TestLineBundles:
    @pytest.mark.parametrize("n,expected", [(3, 4), (-1, 0), (0, 1), (-5, 0), (10, 11)])
    def test_h0(self, n, expected):
        assert line_bundle_h0(n) == expected

    def test_riemann_roch_genus_zero(self):
        # h0(n) - h1(n) = n + 1 with h1(n) = h0(-n-2) by duality
        for n in range(-10, 11):
            assert line_bundle_h0(n) - line_bundle_h0(-n - 2) == n + 1

    def test_section_bounds(self):
        assert fits_line_bundle(X**2, 2)
        assert not fits_line_bundle(X**2, 1)
        assert not fits_line_bundle(UniPoly.one(), -1)
        assert fits_line_bundle(UniPoly.zero(), -3)


class TestSplitBundle:
    def test_sorted_descending(self):
        assert SplitBundle([2, 0, -1]).twists == (2, 0, -1)
        with pytest.raises(ValidationError):
            SplitBundle([0, 1])
        with pytest.raises(ValidationError):
            SplitBundle([])

    def test_degree(self):
        assert SplitBundle([2, -1]).degree == 1


class TestTwistedEndoValidation:
    def test_balanced_ok(self):
        endo = TwistedEndo(SplitBundle([0, 0]), 1, [[0, 1], [X, 0]])
        assert validate_twisted_endo(endo) == []

    def test_violation_reported(self):
        endo = TwistedEndo(SplitBundle([0, -1]), 1, [[0, 0], [X**2, 0]])
        violations = validate_twisted_endo(endo)
        assert len(violations) == 1
        v = violations[0]
        assert (v.row, v.col, v.degree, v.bound) == (1, 0, 2, 0)

    def test_zero_matrix_ok(self):
        endo = TwistedEndo(SplitBundle([3, -2]), -1, [[0, 0], [0, 0]])
        assert validate_twisted_endo(endo) == []

    def test_negative_bound_forces_zero(self):
        # entry (2,1) has bound 0-2+0 = -2: any nonzero value violates
        endo = TwistedEndo(SplitBundle([2, 0]), 0, [[0, 0], [1, 0]])
        violations = validate_twisted_endo(endo)
        assert violations and violations[0].bound == -2


class TestEndoAlgebra:
    def test_evaluation_is_multiplicative(self):
        rng = random.Random(9)
        bundle = SplitBundle([0, 0])
        for _ in range(10):
            a = _random_endo(rng, bundle, 2)
            b = _random_endo(rng, bundle, 1)
            x0 = F(rng.randint(-3, 3))
            left = evaluate_endo(TwistedEndo(bundle, 3, mat_mul(a.entries, b.entries)), x0)
            ea, eb = evaluate_endo(a, x0), evaluate_endo(b, x0)
            right = tuple(
                tuple(sum(ea[i][k] * eb[k][j] for k in range(2)) for j in range(2))
                for i in range(2)
            )
            assert left == right

    def test_evaluate_examples(self):
        endo = TwistedEndo(SplitBundle([0, 0]), 1, [[0, 1], [X, 0]])
        assert evaluate_endo(endo, 0) == ((F(0), F(1)), (F(0), F(0)))
        endo2 = TwistedEndo(SplitBundle([0, 0]), 2, [[X, 1], [X**2, X]])
        assert evaluate_endo(endo2, 2) == ((F(2), F(1)), (F(4), F(2)))

    @pytest.mark.parametrize("x0", [0.5, "1/2"])
    def test_evaluate_refuses_an_inexact_point(self, x0):
        endo = TwistedEndo(SplitBundle([0, 0]), 1, [[0, 1], [X, 0]])
        with pytest.raises(TypeError):
            evaluate_endo(endo, x0)

    def test_evaluate_at_an_int_is_exact(self):
        endo = TwistedEndo(SplitBundle([0, 0]), 1, [[0, 1], [X, 0]])
        fiber = evaluate_endo(endo, 3)
        assert fiber == ((F(0), F(1)), (F(3), F(0)))
        assert all(type(e) is F for row in fiber for e in row)

    def test_evaluate_at_number_field_point(self):
        from heckehiggs.numfield import NumberField
        from heckehiggs.poly import parse_unipoly

        field = NumberField(parse_unipoly("x^2 - 2"))
        y = field.generator()
        endo = TwistedEndo(SplitBundle([0, 0]), 2, [[X**2, X], [0, 1]])
        fiber = evaluate_endo(endo, y)
        assert fiber[0][0] == 2
        assert fiber[0][1] == y
        assert fiber[1][1] == 1

    def test_scalar_endo_bound(self):
        endo = endo_scalar(SplitBundle([0, -1]), X, 1)
        assert validate_twisted_endo(endo) == []
        with pytest.raises(ValidationError):
            endo_scalar(SplitBundle([0, 0]), X**2, 1)


def _random_endo(rng, bundle, twist):
    rows = []
    for i in range(bundle.rank):
        row = []
        for j in range(bundle.rank):
            bound = bundle.twists[i] - bundle.twists[j] + twist
            if bound < 0:
                row.append(UniPoly.zero())
            else:
                row.append(UniPoly([F(rng.randint(-2, 2)) for _ in range(bound + 1)]))
        rows.append(row)
    return TwistedEndo(bundle, twist, rows)
