import random
from fractions import Fraction

import pytest

from heckehiggs.errors import ValidationError
from heckehiggs.hecke import (
    HeckeData,
    HeckePoint,
    h0_of_twist,
    make_presentation,
    splitting_type,
    validate,
)

F = Fraction


def H(a, b, pts):
    return HeckeData(a, b, [HeckePoint(F(x), F(lam)) for x, lam in pts])


class TestValidation:
    def test_ok(self):
        assert validate(H(1, 1, [(0, 1)])) == []

    def test_duplicate_point(self):
        problems = validate(H(1, 1, [(0, 1), (0, 2)]))
        assert any("duplicate" in p for p in problems)

    def test_zero_scale(self):
        problems = validate(H(1, 1, [(0, 0)]))
        assert any("zero scalar" in p for p in problems)


class TestDegrees:
    @pytest.mark.parametrize(
        "a,b,pts,expected",
        [
            (1, 1, [(0, 1)], 1),
            (1, 2, [(0, 1)], 2),
            (2, 2, [(0, 1), (1, 1), (2, 1), (3, 1)], 0),
        ],
    )
    def test_kernel_degree(self, a, b, pts, expected):
        assert H(a, b, pts).kernel_degree() == expected


class TestSectionCounts:
    def test_generic_two_points(self):
        assert h0_of_twist(H(1, 1, [(0, 1), (1, 2)]), -1) == 0

    def test_matched_scalars(self):
        assert h0_of_twist(H(1, 1, [(0, 1), (1, 1)]), -1) == 1

    def test_no_points_is_direct_sum(self):
        data = H(3, 1, [])
        assert h0_of_twist(data, 0) == 4 + 2

    def test_monotone_in_twist(self):
        data = H(2, 1, [(0, 2), (1, 1), (-1, 3)])
        values = [h0_of_twist(data, n) for n in range(-4, 3)]
        assert values == sorted(values)


class TestSplittingType:
    def test_generic(self):
        assert splitting_type(H(1, 1, [(0, 1), (1, 2)])) == (0, 0)

    def test_jumped(self):
        assert splitting_type(H(1, 1, [(0, 1), (1, 1)])) == (1, -1)

    def test_no_points(self):
        assert splitting_type(H(2, 3, [])) == (3, 2)
        assert splitting_type(H(3, 1, [])) == (3, 1)

    def test_negative_degrees(self):
        assert splitting_type(H(-3, -5, [])) == (-3, -5)
        assert splitting_type(H(-1, -1, [])) == (-1, -1)
        assert splitting_type(H(-2, -2, [(0, 1)])) == (-2, -3)

    def test_degree_additivity(self):
        rng = random.Random(2)
        for _ in range(20):
            length = rng.randint(0, 3)
            xs = rng.sample(range(-4, 5), length)
            pts = [(x, rng.choice([1, 2, -1, F(1, 2)])) for x in xs]
            data = H(rng.randint(0, 2), rng.randint(0, 2), pts)
            c, d = splitting_type(data)
            assert c + d == data.kernel_degree()

    def test_profile_matches_everywhere(self):
        data = H(2, 1, [(0, 1), (1, -2)])
        c, d = splitting_type(data)
        top = max(data.a, data.b)
        for n in range(-(top + 2), 3):
            expected = max(c + n + 1, 0) + max(d + n + 1, 0)
            assert h0_of_twist(data, n) == expected

    def test_invalid_data_rejected(self):
        with pytest.raises(ValidationError):
            splitting_type(H(1, 1, [(0, 0)]))


class TestMakePresentation:
    def test_balanced_generic(self):
        data = make_presentation(0, 0, 2, [F(0), F(1)], 11)
        assert (data.a, data.b) == (1, 1)
        assert splitting_type(data) == (0, 0)
        assert data.points[0].scale != data.points[1].scale

    def test_unbalanced_target(self):
        data = make_presentation(1, -1, 2, [F(0), F(1)], 11)
        assert (data.a, data.b) == (1, 1)
        assert splitting_type(data) == (1, -1)
        assert data.points[0].scale == data.points[1].scale

    def test_single_point(self):
        data = make_presentation(1, 0, 1, [F(0)], 11)
        assert (data.a, data.b) == (1, 1)
        assert splitting_type(data) == (1, 0)

    def test_boundary_length(self):
        # length == c - d - 1 needs the unbalanced summand choice
        data = make_presentation(2, 0, 1, [F(0), F(1)], 5)
        assert splitting_type(data) == (2, 0)

    def test_precondition_violations(self):
        with pytest.raises(ValidationError):
            make_presentation(0, 1, 1, [F(0)], 1)
        with pytest.raises(ValidationError):
            make_presentation(3, 0, 1, [F(0)], 1)  # length <= c - d - 2
        with pytest.raises(ValidationError):
            make_presentation(0, 0, 2, [F(0)], 1)  # pool too small
        with pytest.raises(ValidationError):
            make_presentation(0, 0, 0, [F(0)], 1)

    @pytest.mark.parametrize("bad", [0.1, "1/3"])
    def test_pool_takes_exact_numbers_only(self, bad):
        with pytest.raises(TypeError):
            make_presentation(1, 0, 2, [bad, F(1, 3)], 1)
        with pytest.raises(TypeError):
            make_presentation(1, 0, 2, [0, bad], 1)
        data = make_presentation(1, 0, 2, [0, F(1, 3)], 1)
        assert [p.x for p in data.points] == [F(0), F(1, 3)]

    def test_deterministic_given_seed(self):
        one = make_presentation(1, 0, 2, [F(0), F(1), F(2)], 42)
        two = make_presentation(1, 0, 2, [F(0), F(1), F(2)], 42)
        assert one == two

    def test_round_trip_on_random_targets(self):
        rng = random.Random(0)
        for trial in range(30):
            c = rng.randint(-2, 3)
            d = rng.randint(-3, c)
            length = rng.randint(max(1, c - d - 1), max(1, c - d - 1) + 2)
            pool = [F(v) for v in range(-5, 7)]
            data = make_presentation(c, d, length, pool, trial)
            assert splitting_type(data) == (c, d)
            assert data.kernel_degree() == c + d
