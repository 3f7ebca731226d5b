import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from heckehiggs import hecke
from heckehiggs.errors import ValidationError
from heckehiggs.hecke import (
    HeckeData,
    HeckePoint,
    h0_of_twist,
    make_presentation,
    splitting_type,
    validate,
)
from oracles import h0_by_elimination

F = Fraction


def H(a, b, pts):
    return HeckeData(a, b, [HeckePoint(F(x), F(lam)) for x, lam in pts])


_SMALL = st.fractions(-6, 6, max_denominator=3)


@st.composite
def presentations_with_twist(draw):
    """A valid presentation (L <= 8 distinct points, nonzero rational
    scalars, a and b in [-3, 9]) and a twist n whose max(alpha, beta) lies
    within a few steps of L on either side."""
    length = draw(st.integers(0, 8))
    xs = draw(st.lists(_SMALL, min_size=length, max_size=length, unique=True))
    scales = draw(
        st.lists(_SMALL.filter(bool), min_size=length, max_size=length)
    )
    a, b = draw(st.integers(-3, 9)), draw(st.integers(-3, 9))
    n = length - 1 - max(a, b) + draw(st.integers(-5, 3))
    return HeckeData(a, b, [HeckePoint(x, lam) for x, lam in zip(xs, scales)]), n


# four points with distinct scalars; at n = 0 (alpha, beta) is (3, b + 1)
FOUR = [(0, 1), (1, 2), (2, 3), (3, -1)]


def count_calls(monkeypatch, name):
    """The argument tuples of every call of `hecke.<name>` from now until
    the test ends."""
    calls = []
    fn = getattr(hecke, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(hecke, name, wrapper)
    return calls


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


class TestAgainstElimination:
    @settings(max_examples=200, deadline=None)
    @given(presentations_with_twist())
    @example((H(2, 1, FOUR), 0))  # max(alpha, beta) = L - 1: elimination
    @example((H(2, 1, FOUR), 1))  # max(alpha, beta) = L: closed form
    @example((H(2, -1, FOUR), 0))  # min(alpha, beta) = 0: closed form
    @example((H(2, 0, FOUR), 0))  # min(alpha, beta) = 1: elimination
    def test_h0_matches_full_matrix(self, case):
        data, n = case
        assert h0_of_twist(data, n) == h0_by_elimination(data, n)

    @settings(max_examples=100, deadline=None)
    @given(presentations_with_twist())
    def test_splitting_is_pinned_by_the_oracle_profile(self, case):
        data, _ = case
        c, d = splitting_type(data)
        assert c >= d and c + d == data.kernel_degree()
        assert h0_by_elimination(data, -c - 1) == 0 < h0_by_elimination(data, -c)


class TestProbeCounts:
    @pytest.mark.parametrize(
        "data",
        [
            H(1, 1, [(0, 1), (1, 2)]),
            H(1, 1, [(0, 1), (1, 1)]),
            H(-2, -2, [(0, 1)]),
            H(2, 1, FOUR),
            make_presentation(3, -3, 12, range(12), 0),
            make_presentation(14, 1, 12, range(16), 0),
        ],
        ids=["generic", "jumped", "negative", "four-points", "3,-3,12", "14,1,12"],
    )
    def test_each_twist_is_probed_once(self, data, monkeypatch):
        calls = count_calls(monkeypatch, "h0_of_twist")
        c, d = splitting_type(data)
        top = max(data.a, data.b)
        assert [n for _, n in calls] == list(range(-(top + 2), max(2, -d + 1) + 1))

    def test_unconstrained_twists_run_no_elimination(self, monkeypatch):
        # (a, b) = (26, 1) with 12 points: every twist has beta = 0 or
        # alpha >= 12, so no probe builds its condition matrix
        calls = count_calls(monkeypatch, "mat_rank")
        data = make_presentation(14, 1, 12, range(16), 0)
        assert (data.a, data.b) == (26, 1)
        assert calls == []


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
