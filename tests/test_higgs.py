import random
from fractions import Fraction

import pytest

from heckehiggs.errors import CommutationError, FiberConditionError, ValidationError
from heckehiggs.hecke import HeckeData, HeckePoint
from heckehiggs.higgs import (
    HiggsPair,
    check_commutation,
    check_fiber_condition,
    decompose,
    reconstruct,
)
from heckehiggs.poly import UniPoly
from heckehiggs.projline import SplitBundle, TwistedEndo, evaluate_endo
from instance_strategies import (
    InfeasibleBudgetError,
    perturb_second_at_point,
    random_valid_instance,
)

X = UniPoly.variable()
F = Fraction

E2 = SplitBundle([0, 0])
THETA = TwistedEndo(E2, 1, [[0, 1], [X, 0]])
H_ONE = HeckeData(1, 1, [HeckePoint(F(0), F(1))])
H_NONE = HeckeData(1, 1, [])
TWO_THETA = TwistedEndo(E2, 1, [[0, 2], [2 * X, 0]])


class TestCommutator:
    def test_self_commutes(self):
        assert check_commutation(HiggsPair(E2, THETA, THETA))

    def test_explicit_nonzero(self):
        # the commutator is [[0, x], [0, 0]]: nonzero in one entry only
        diag = TwistedEndo(E2, 1, [[X, 0], [0, 0]])
        nilp = TwistedEndo(E2, 1, [[0, 1], [0, 0]])
        assert not check_commutation(HiggsPair(E2, diag, nilp))

    def test_polynomial_in_first_commutes(self):
        second = TwistedEndo(E2, 1, [[X, 2], [2 * X, X]])  # x*I + 2*Theta
        assert check_commutation(HiggsPair(E2, THETA, second))


class TestFiberCondition:
    def test_worked_instance(self):
        ok, verdicts = check_fiber_condition(HiggsPair(E2, THETA, THETA), H_ONE)
        assert ok
        assert evaluate_endo(THETA, 0) == ((F(0), F(1)), (F(0), F(0)))

    def test_scalar_mismatch(self):
        ok, verdicts = check_fiber_condition(
            HiggsPair(E2, THETA, TWO_THETA), H_ONE
        )
        assert not ok
        v = verdicts[0]
        residual = tuple(
            tuple(s - v.point.scale * f for s, f in zip(row_s, row_f))
            for row_s, row_f in zip(v.second, v.first)
        )
        assert residual == ((F(0), F(1)), (F(0), F(0)))

    def test_vacuous_without_points(self):
        ok, verdicts = check_fiber_condition(HiggsPair(E2, THETA, THETA), H_NONE)
        assert ok and verdicts == []

    def test_twist_consistency_enforced(self):
        with pytest.raises(ValidationError):
            check_fiber_condition(
                HiggsPair(E2, THETA, THETA), HeckeData(1, 2, [HeckePoint(F(0), F(1))])
            )

    def test_conjugation_invariance(self):
        rng = random.Random(7)
        pair = HiggsPair(E2, THETA, THETA)
        for _ in range(5):
            g = ((F(rng.randint(-2, 2)), F(rng.randint(-2, 2))),
                 (F(rng.randint(-2, 2)), F(rng.randint(-2, 2))))
            det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
            if det == 0:
                continue
            ginv = (
                (g[1][1] / det, -g[0][1] / det),
                (-g[1][0] / det, g[0][0] / det),
            )

            def conj(endo):
                rows = []
                for i in range(2):
                    row = []
                    for j in range(2):
                        acc = UniPoly.zero()
                        for k in range(2):
                            for l in range(2):
                                acc = acc + endo.entries[k][l] * (g[i][k] * ginv[l][j])
                        row.append(acc)
                    rows.append(tuple(row))
                return TwistedEndo(endo.source, endo.twist, tuple(rows))

            ok, _ = check_fiber_condition(
                HiggsPair(E2, conj(pair.first), conj(pair.second)), H_ONE
            )
            assert ok

    def test_linearity_of_solution_space(self):
        # pairs meeting the fiber condition for fixed data form a linear space
        alpha1 = X  # vanishes at the marked point 0
        second1 = TwistedEndo(E2, 1, [[X, 1], [X, X]])  # x*I + Theta
        second2 = THETA  # beta = 1
        for c1, c2 in [(F(2), F(3)), (F(-1, 2), F(5)), (F(0), F(1))]:
            combo_first = TwistedEndo(E2, 1, [[0, c1 + c2], [(c1 + c2) * X, 0]])
            combo_second = TwistedEndo(
                E2,
                1,
                tuple(
                    tuple(
                        c1 * a + c2 * b
                        for a, b in zip(ra, rb)
                    )
                    for ra, rb in zip(second1.entries, second2.entries)
                ),
            )
            ok, _ = check_fiber_condition(
                HiggsPair(E2, combo_first, combo_second), H_ONE
            )
            assert ok


class TestReconstruct:
    def test_worked_instance(self):
        field = reconstruct(HiggsPair(E2, THETA, THETA), H_ONE)
        assert field.certificate["commutation"] is True
        assert field.certificate["fiber"] == [{"x": "0", "ok": True}]
        assert field.certificate["unique"] is True

    def test_fiber_failure(self):
        with pytest.raises(FiberConditionError) as info:
            reconstruct(HiggsPair(E2, THETA, TWO_THETA), H_ONE)
        assert info.value.points == (F(0),)

    def test_commutation_failure(self):
        diag = TwistedEndo(E2, 1, [[X, 0], [0, 0]])
        nilp = TwistedEndo(E2, 1, [[0, 1], [0, 0]])
        with pytest.raises(CommutationError):
            reconstruct(HiggsPair(E2, diag, nilp), H_NONE)

    def test_round_trip_identity(self):
        field = reconstruct(HiggsPair(E2, THETA, THETA), H_ONE)
        first, second = decompose(field)
        assert reconstruct(HiggsPair(E2, first, second), H_ONE) == field

    def test_interpolated_second_component(self):
        second = TwistedEndo(E2, 1, [[X, 1], [X, X]])  # alpha = x, beta = 1
        field = reconstruct(HiggsPair(E2, THETA, second), H_ONE)
        assert decompose(field) == (THETA, second)

    def test_zero_field(self):
        zero = TwistedEndo(E2, 1, [[0, 0], [0, 0]])
        field = reconstruct(HiggsPair(E2, zero, zero), H_ONE)
        assert decompose(field) == (zero, zero)

    def test_injectivity(self):
        f1 = reconstruct(HiggsPair(E2, THETA, THETA), H_ONE)
        second = TwistedEndo(E2, 1, [[X, 1], [X, X]])
        f2 = reconstruct(HiggsPair(E2, THETA, second), H_ONE)
        assert f1 != f2
        assert decompose(f1) != decompose(f2)


class TestRandomInstances:
    def test_by_construction_condition(self):
        field = random_valid_instance(H_ONE, E2, 1, 7)
        lhs = evaluate_endo(field.pair.second, 0)
        rhs = evaluate_endo(field.pair.first, 0)
        assert lhs == rhs  # lambda = 1 at the marked point

    def test_infeasible_budget(self):
        data = HeckeData(
            1, 1, [HeckePoint(F(0), F(1)), HeckePoint(F(1), F(2))]
        )
        with pytest.raises(InfeasibleBudgetError):
            random_valid_instance(data, E2, 1, 7)

    def test_reduced_budget_recovers(self):
        data = HeckeData(
            1, 1, [HeckePoint(F(0), F(1)), HeckePoint(F(1), F(2))]
        )
        field = random_valid_instance(data, E2, 0, 9)
        ok, _ = check_fiber_condition(field.pair, data)
        assert ok

    def test_no_points_any_commuting_pair(self):
        field = random_valid_instance(H_NONE, E2, 1, 3)
        assert check_commutation(field.pair)

    def test_round_trips_over_seeds(self):
        rng = random.Random(1)
        for seed in range(15):
            length = rng.choice([0, 1, 2])
            xs = rng.sample(range(-3, 4), length)
            points = [HeckePoint(F(x), F(rng.choice([1, 2, -1, 3]))) for x in xs]
            data = HeckeData(1, max(2, length), points)
            bundle = SplitBundle([0, 0])
            budget = min(data.a, data.b - max(length - 1, 0))
            field = random_valid_instance(data, bundle, budget, seed)
            t1, t2 = decompose(field)
            assert reconstruct(HiggsPair(bundle, t1, t2), data) == field


class TestPerturbation:
    def test_single_point_perturbation_rejected(self):
        field = reconstruct(HiggsPair(E2, THETA, THETA), H_ONE)
        bad = perturb_second_at_point(field, 0, 1)
        with pytest.raises(FiberConditionError):
            reconstruct(bad, H_ONE)

    def test_perturbation_localized(self):
        data = HeckeData(2, 2, [HeckePoint(F(0), F(1)), HeckePoint(F(1), F(1))])
        field = random_valid_instance(data, E2, 1, 5)
        bad = perturb_second_at_point(field, 1, 2)
        ok, verdicts = check_fiber_condition(bad, data)
        assert not ok
        assert verdicts[0].ok and not verdicts[1].ok
