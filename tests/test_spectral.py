import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import heckehiggs.spectral as spectral_module
from heckehiggs.errors import (
    CommutationError,
    DegreeBoundError,
    EigenvalueConditionError,
    NonIntegralError,
    NotInCommutantError,
    ValidationError,
)
from heckehiggs.hecke import HeckeData, HeckePoint
from heckehiggs.higgs import (
    HiggsPair,
    check_commutation,
    check_fiber_condition,
    reconstruct,
)
from heckehiggs.linalg import char_poly, mat_mul
from heckehiggs.poly import BiPoly, UniPoly, format_unipoly, parse_bipoly, parse_unipoly
from heckehiggs.projline import SplitBundle, TwistedEndo, evaluate_endo
from heckehiggs.spectral import (
    EigenvalueVerdict,
    SpectralCurve,
    SpectralData,
    backward_correspondence,
    certify_stability,
    commutant_coordinates,
    curve_of,
    eigenvalue_condition,
    fiber_points,
    forward_correspondence,
    is_integral,
    multiplication_matrix,
)
from instance_strategies import (
    QUADRATICS,
    SCALARS,
    block_diagonal,
    companion,
    fiber_pairs,
    instances,
    invariant_line_search,
    random_valid_instance,
    valid_fields,
)
from oracles import eigenspace_invariance, interpolate, pointwise_multiplier_witnesses
from oracles import eigenvalue_condition as oracle_eigenvalue_condition

X = UniPoly.variable()
F = Fraction

E2 = SplitBundle([0, 0])
THETA = TwistedEndo(E2, 1, [[0, 1], [X, 0]])
H_ONE = HeckeData(1, 1, [HeckePoint(F(0), F(1))])


def _twisted_endos(draw, twists, a):
    """A twisted endomorphism of O(twists) with twist `a` whose every entry
    fills its degree bound with small integer coefficients."""
    r = len(twists)
    entries = []
    for i in range(r):
        row = []
        for j in range(r):
            size = max(twists[i] - twists[j] + a + 1, 0)
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
            row.append(UniPoly([F(c) for c in coeffs]))
        entries.append(row)
    return TwistedEndo(SplitBundle(twists), a, entries)


def _det(rows):
    """Cofactor expansion along the first row."""
    if not rows:
        return UniPoly.one()
    total = UniPoly.zero()
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = entry * _det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def principal_minor_sum(entries, i):
    """The trace of the i-th exterior power: the sum of the i x i principal
    minors."""
    total = UniPoly.zero()
    for subset in itertools.combinations(range(len(entries)), i):
        total = total + _det([[entries[p][q] for q in subset] for p in subset])
    return total


class TestCharCoefficients:
    def test_weighted_swap(self):
        s = curve_of(THETA).char_coefficients
        assert s[0].is_zero()
        assert s[1] == -X

    def test_zero(self):
        zero = TwistedEndo(E2, 1, [[0, 0], [0, 0]])
        assert all(c.is_zero() for c in curve_of(zero).char_coefficients)

    def test_diagonal(self):
        diag = TwistedEndo(E2, 1, [[X, 0], [0, X + 1]])
        s = curve_of(diag).char_coefficients
        assert s[0] == 2 * X + 1
        assert s[1] == X * X + X

    def test_section_bounds_hold(self):
        rng = random.Random(8)
        bundle = SplitBundle([1, 0, -1])
        for _ in range(5):
            entries = []
            for i in range(3):
                row = []
                for j in range(3):
                    bound = bundle.twists[i] - bundle.twists[j] + 2
                    row.append(
                        UniPoly([F(rng.randint(-2, 2)) for _ in range(bound + 1)])
                        if bound >= 0
                        else UniPoly.zero()
                    )
                entries.append(row)
            endo = TwistedEndo(bundle, 2, entries)
            for i, s in enumerate(curve_of(endo).char_coefficients, start=1):
                assert s.degree <= 2 * i

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_exterior_power_traces(self, data):
        """s_i is the sum of the i x i principal minors, of degree <= i*a."""
        twists = data.draw(st.sampled_from([(0,), (1, 0), (0, -1), (1, 0, -1), (2, 1, 0, -1)]))
        a = data.draw(st.integers(-1, 2))
        endo = _twisted_endos(data.draw, twists, a)
        s = curve_of(endo).char_coefficients
        assert len(s) == len(twists)
        for i, si in enumerate(s, start=1):
            assert si == principal_minor_sum(endo.entries, i)
            assert si.is_zero() or si.degree <= i * a


class TestBuildSpectralCurve:
    def test_sign_bookkeeping(self):
        assert curve_of(THETA).chi == parse_bipoly("t^2 - x")

    def test_zero_gives_pure_power(self):
        zero = TwistedEndo(E2, 1, [[0, 0], [0, 0]])
        assert curve_of(zero).chi == parse_bipoly("t^2")

    def test_diagonal_product(self):
        diag = TwistedEndo(E2, 1, [[X, 0], [0, X + 1]])
        curve = curve_of(diag)
        assert curve.chi == parse_bipoly("t - x") * parse_bipoly("t - x - 1")

    def test_display_equals_char_poly(self):
        rng = random.Random(31)
        for r in (2, 3, 4):
            bundle = SplitBundle([0] * r)
            for _ in range(5):
                entries = [
                    [
                        UniPoly([F(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))])
                        for _ in range(r)
                    ]
                    for _ in range(r)
                ]
                endo = TwistedEndo(bundle, 2, entries)
                curve = curve_of(endo)
                assert curve.chi == char_poly(endo.entries)

    def test_conjugation_invariance(self):
        g = ((F(1), F(2)), (F(1), F(3)))
        ginv = ((F(3), F(-2)), (F(-1), F(1)))
        conj_entries = []
        for i in range(2):
            row = []
            for j in range(2):
                acc = UniPoly.zero()
                for k in range(2):
                    for l in range(2):
                        acc = acc + THETA.entries[k][l] * (g[i][k] * ginv[l][j])
                row.append(acc)
            conj_entries.append(tuple(row))
        conj = TwistedEndo(E2, 1, tuple(conj_entries))
        assert curve_of(conj).char_coefficients == curve_of(THETA).char_coefficients

    def test_zero_coefficients_meet_negative_bounds(self):
        """A zero coefficient fits any bound, even a negative one."""
        zero = TwistedEndo(E2, -1, [[0, 0], [0, 0]])
        assert curve_of(zero).chi == parse_bipoly("t^2")
        assert SpectralCurve(parse_bipoly("t^3"), -2, 3).a == -2
        with pytest.raises(ValidationError):
            SpectralCurve(parse_bipoly("t^2 + 1"), -1, 2)


class TestIntegrality:
    def test_worked_curve(self):
        verdict, cert = is_integral(curve_of(THETA))
        assert verdict and cert["squarefree"] and cert["irreducible"]

    def test_reducible_with_factor(self):
        diag = TwistedEndo(E2, 1, [[X, 0], [0, X + 1]])
        verdict, cert = is_integral(curve_of(diag))
        assert not verdict
        assert cert["factor"] in ("t - x", "t - x - 1")

    def test_non_reduced(self):
        zero = TwistedEndo(E2, 1, [[0, 0], [0, 0]])
        verdict, cert = is_integral(curve_of(zero))
        assert not verdict and cert["squarefree"] is False

    def test_geometric_warning_surfaces(self):
        curve = SpectralCurve(parse_bipoly("t^2 + x^2"), 1, 2)
        verdict, cert = is_integral(curve)
        assert verdict
        assert "geometric_warning" in cert


class TestFiberPoints:
    def test_ramified(self):
        pts = fiber_points(curve_of(THETA), 0)
        assert len(pts) == 1
        assert pts[0].multiplicity == 2
        assert pts[0].minimal == X

    def test_split(self):
        pts = fiber_points(curve_of(THETA), 1)
        assert all(p.minimal.degree == 1 for p in pts)
        assert sorted(-p.minimal.coeff(0) for p in pts) == [-1, 1]
        assert all(p.multiplicity == 1 for p in pts)

    def test_inert(self):
        pts = fiber_points(curve_of(THETA), 2)
        assert len(pts) == 1
        assert pts[0].minimal.degree == 2
        assert pts[0].multiplicity == 1
        assert pts[0].minimal == parse_unipoly("x^2 - 2")

    @pytest.mark.parametrize("x0", [0.25, "1/4"])
    def test_inexact_point_refused(self, x0):
        with pytest.raises(TypeError):
            fiber_points(curve_of(THETA), x0)

    def test_int_point_is_its_fraction(self):
        assert fiber_points(curve_of(THETA), 4) == fiber_points(curve_of(THETA), F(4))

    def test_trace_identity(self):
        rng = random.Random(12)
        for _ in range(10):
            entries = [
                [UniPoly([F(rng.randint(-2, 2)) for _ in range(2)]) for _ in range(2)]
                for _ in range(2)
            ]
            endo = TwistedEndo(E2, 1, entries)
            curve = curve_of(endo)
            s1 = curve.char_coefficients[0]
            for x0 in (F(0), F(1), F(-2)):
                # the roots of a monic p of degree d sum to -(t^(d-1) coefficient)
                total = sum(
                    (
                        -p.multiplicity * p.minimal.coeff(p.minimal.degree - 1)
                        for p in fiber_points(curve, x0)
                    ),
                    F(0),
                )
                assert total == s1.evaluate(x0)


class TestEigenspaceInvariance:
    def test_commuting_pair_everywhere(self):
        pair = HiggsPair(E2, THETA, THETA)
        curve = curve_of(THETA)
        for x0 in (F(0), F(1), F(-1), F(2), F(5)):
            assert eigenspace_invariance(pair, curve, x0)

    def test_non_invariant_pair(self):
        diag = TwistedEndo(E2, 1, [[X, 0], [0, 0]])
        nilp = TwistedEndo(E2, 1, [[0, 1], [0, 0]])
        assert not eigenspace_invariance(HiggsPair(E2, diag, nilp), curve_of(diag), 1)

    def test_zero_pair(self):
        zero = TwistedEndo(E2, 1, [[0, 0], [0, 0]])
        assert eigenspace_invariance(HiggsPair(E2, zero, zero), curve_of(zero), 1)


class TestOracleProperties:
    """The verdicts `check` derives instead of computing, against the
    fiberwise oracles that compute them."""

    @given(
        instances(),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_commuting_implies_invariance(self, instance, x0):
        _, pair = instance
        if check_commutation(pair):
            assert eigenspace_invariance(pair, curve_of(pair.first), x0)

    @given(
        instances(),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_invariance_is_the_commutator_rule(self, instance, x0):
        _, pair = instance
        a, b = evaluate_endo(pair.first, x0), evaluate_endo(pair.second, x0)
        vanishes = mat_mul(a, b) == mat_mul(b, a)
        assert eigenspace_invariance(pair, curve_of(pair.first), x0) == vanishes

    @given(instances(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_divisibility_witnesses_are_the_pointwise_ones(self, instance, data):
        # the polynomial multipliers `build` tests; a pole is a forward
        # witness (TestForwardWitnesses, tests/test_cli.py::TestForwardRule)
        hecke, pair = instance
        curve = curve_of(pair.first)
        psi = BiPoly.t()
        if check_commutation(pair) and is_integral(curve)[0]:
            psi, _ = commutant_coordinates(pair)
        # add c * x^i * t^k to psi
        k = data.draw(st.integers(0, pair.rank - 1))
        i = data.draw(st.integers(0, 2))
        c = data.draw(st.sampled_from((0, 1, -1, F(1, 2))))
        psi = psi + BiPoly((UniPoly.zero(),) * k + (c * X**i,))
        fibers = [fiber_points(curve, hp.x) for hp in hecke.points]
        for sign in (1, -1):
            divisibility = spectral_module._verify_multiplier_eigenvalues(
                psi, hecke.points, fibers, sign
            )
            assert divisibility == pointwise_multiplier_witnesses(
                psi, UniPoly.one(), curve, hecke.points, sign
            )

    @given(instances())
    @settings(max_examples=30, deadline=None)
    def test_fiber_equation_decides_eigenvalue_rows(self, instance):
        hecke, pair = instance
        curve = curve_of(pair.first)
        _, fiber = check_fiber_condition(pair, hecke)
        for sign in (1, -1):
            _, rows = eigenvalue_condition(pair, fiber, sign)
            for p, verdict in zip(hecke.points, fiber):
                if not verdict.ok:
                    continue
                derived = []
                for point in fiber_points(curve, p.x):
                    minimal = format_unipoly(point.minimal, "t")
                    ok = sign == 1 or minimal == "t"
                    derived.append(EigenvalueVerdict(p.x, minimal, point.multiplicity, ok))
                assert [r for r in rows if r.x == p.x] == derived


    @given(fiber_pairs())
    @settings(max_examples=80, deadline=None)
    def test_eigenvalue_rows_are_the_oracle_rows(self, drawn):
        hecke, pair, kind = drawn
        curve = curve_of(pair.first)
        quadratics = {format_unipoly(p, "t") for p in QUADRATICS}
        for sign in (1, -1):
            verdict, rows = eigenvalue_condition(
                pair, check_fiber_condition(pair, hecke)[1], sign
            )
            assert (verdict, rows) == oracle_eigenvalue_condition(pair, curve, hecke, sign)
            if kind == "mixing":
                # B keeps W but swaps nothing into place: no quadratic row is
                # invariant
                assert any(r.minimal in quadratics for r in rows)
                for r in rows:
                    if r.minimal in quadratics:
                        assert (r.ok, r.note) == (False, "eigenspace not invariant")


def _constant_pair(first, second):
    """The pair of constant fiber maps `first` and `second` on O^r, twist 1."""
    bundle = SplitBundle((0,) * len(first))
    return HiggsPair(bundle, TwistedEndo(bundle, 1, first), TwistedEndo(bundle, 1, second))


def _scaled(c, mat):
    return tuple(tuple(c * e for e in row) for row in mat)


SQRT2 = companion(QUADRATICS[0])  # t^2 - 2


class TestEigenvalueCondition:
    def test_worked_instance(self):
        pair = HiggsPair(E2, THETA, THETA)
        ok, reports = eigenvalue_condition(pair, check_fiber_condition(pair, H_ONE)[1], 1)
        assert ok
        assert reports[0].multiplicity == 2

    def test_split_fiber_with_scaling(self):
        data = HeckeData(1, 2, [HeckePoint(F(1), F(2))])
        second = TwistedEndo(E2, 2, [[0, 2 * X], [2 * X**2, 0]])
        pair = HiggsPair(E2, THETA, second)
        ok, reports = eigenvalue_condition(pair, check_fiber_condition(pair, data)[1], 1)
        assert ok and len(reports) == 2

    def test_flipped_scalar_fails(self):
        data = HeckeData(1, 2, [HeckePoint(F(1), F(-2))])
        second = TwistedEndo(E2, 2, [[0, 2 * X], [2 * X**2, 0]])
        pair = HiggsPair(E2, THETA, second)
        ok, _ = eigenvalue_condition(pair, check_fiber_condition(pair, data)[1], 1)
        assert not ok

    def test_sign_flip_detects_convention(self):
        data = HeckeData(1, 2, [HeckePoint(F(1), F(2))])
        second = TwistedEndo(E2, 2, [[0, 2 * X], [2 * X**2, 0]])
        pair = HiggsPair(E2, THETA, second)
        ok_plus, _ = eigenvalue_condition(pair, check_fiber_condition(pair, data)[1], 1)
        ok_minus, _ = eigenvalue_condition(pair, check_fiber_condition(pair, data)[1], -1)
        assert ok_plus and not ok_minus

    def test_implied_by_fiber_condition(self):
        rng = random.Random(3)
        for seed in range(10):
            length = rng.choice([1, 2])
            xs = rng.sample(range(-2, 3), length)
            points = [HeckePoint(F(x), F(rng.choice([1, -1, 2]))) for x in xs]
            data = HeckeData(2, 2, points)
            field = random_valid_instance(data, E2, 2 - max(length - 1, 0), seed)
            ok, _ = eigenvalue_condition(
                field.pair, check_fiber_condition(field.pair, data)[1], 1
            )
            assert ok

    def test_invalid_sign_rejected(self):
        with pytest.raises(ValidationError):
            pair = HiggsPair(E2, THETA, THETA)
            eigenvalue_condition(pair, check_fiber_condition(pair, H_ONE)[1], 2)

    def _rows(self, first, second, scale, sign):
        """The rows at x = 0 with lambda = scale; the number-field oracle
        must agree."""
        pair = _constant_pair(first, second)
        data = HeckeData(1, 1, [HeckePoint(F(0), F(scale))])
        curve = curve_of(pair.first)
        result = eigenvalue_condition(pair, check_fiber_condition(pair, data)[1], sign)
        assert result == oracle_eigenvalue_condition(pair, curve, data, sign)
        return [(r.minimal, r.multiplicity, r.ok, r.note) for r in result[1]]

    def test_rational_jordan_block(self):
        jordan = ((F(1), F(1)), (F(0), F(1)))
        assert self._rows(jordan, _scaled(2, jordan), 2, 1) == [("t - 1", 2, True, "")]
        assert self._rows(jordan, _scaled(2, jordan), 2, -1) == [("t - 1", 2, False, "")]

    def test_repeated_quadratic_blocks(self):
        # (t^2 - 2)^2 with A = diag(C, C) semisimple; B = 3A + N with N
        # carrying the first block to the second, which commutes with A
        first = block_diagonal([SQRT2, SQRT2])
        shift = tuple(tuple(F(int(j == i + 2)) for j in range(4)) for i in range(4))
        second = tuple(
            tuple(3 * a + n for a, n in zip(ra, rn)) for ra, rn in zip(first, shift)
        )
        assert self._rows(first, second, 3, 1) == [("t^2 - 2", 2, True, "")]
        assert self._rows(first, second, -3, 1) == [("t^2 - 2", 2, False, "")]

    def test_quadratic_jordan_block(self):
        # A = [[C, I], [0, C]] is not semisimple: S = diag(C, C) comes from
        # the Newton step, and B - 3S is nilpotent for B = 3A and for
        # B = [[3C, 0], [I, 3C]], which commutes with S but not with A and
        # does not keep ker p(A)
        semisimple = block_diagonal([SQRT2, SQRT2])
        first = tuple(
            tuple(c + F(int(j == i + 2)) for j, c in enumerate(row))
            for i, row in enumerate(semisimple)
        )
        assert self._rows(first, _scaled(3, first), 3, 1) == [("t^2 - 2", 2, True, "")]
        lower = tuple(
            tuple(3 * c + F(int(i == j + 2)) for j, c in enumerate(row))
            for i, row in enumerate(semisimple)
        )
        assert self._rows(first, lower, 3, 1) == [("t^2 - 2", 2, True, "")]
        plus_one = tuple(
            tuple(3 * c + F(int(i == j)) for j, c in enumerate(row)) for i, row in enumerate(first)
        )
        assert self._rows(first, plus_one, 3, 1) == [("t^2 - 2", 2, False, "")]

    @pytest.mark.parametrize("copies", [1, 2])
    def test_mixing_the_conjugate_eigenspaces_is_not_invariant(self, copies):
        # B keeps W = Q^(2 copies) but does not commute with A there, so it
        # does not keep the eigenspaces of sqrt 2 and -sqrt 2
        first = block_diagonal([SQRT2] * copies)
        second = tuple(
            tuple(F((-1) ** i) if i == j else F(0) for j in range(2 * copies))
            for i in range(2 * copies)
        )
        assert self._rows(first, second, 1, 1) == [
            ("t^2 - 2", copies, False, "eigenspace not invariant")
        ]

    def test_image_leaving_the_eigenspace_is_not_invariant(self):
        first = ((F(1), F(0)), (F(0), F(2)))
        swap = ((F(0), F(1)), (F(1), F(0)))
        note = "eigenspace not invariant"
        assert self._rows(first, swap, 1, 1) == [
            ("t - 2", 1, False, note),
            ("t - 1", 1, False, note),
        ]


class TestCommutantCoordinates:
    def test_identity_multiplier(self):
        psi, den = commutant_coordinates(HiggsPair(E2, THETA, THETA))
        assert psi == parse_bipoly("t") and den == UniPoly.one()

    def test_linear_multiplier(self):
        second = TwistedEndo(E2, 2, [[0, 2 * X], [2 * X**2, 0]])
        psi, den = commutant_coordinates(HiggsPair(E2, THETA, second))
        assert psi == parse_bipoly("2*x*t") and den == UniPoly.one()

    def test_affine_multiplier(self):
        second = TwistedEndo(E2, 1, [[X, 1], [X, X]])
        psi, den = commutant_coordinates(HiggsPair(E2, THETA, second))
        assert psi == parse_bipoly("t + x") and den == UniPoly.one()

    def test_rational_coordinates(self):
        # second = (first - x*I)/x has polynomial entries while the
        # multiplier (t - x)/x genuinely needs a denominator
        first = TwistedEndo(E2, 2, [[X, X**2], [X, X]])
        second = TwistedEndo(E2, 1, [[0, X], [1, 0]])
        pair = HiggsPair(E2, first, second)
        psi, den = commutant_coordinates(pair)
        assert den == X
        assert psi == parse_bipoly("t - x")

    def test_non_integral_rejected(self):
        diag = TwistedEndo(E2, 1, [[X, 0], [0, X + 1]])
        with pytest.raises(NonIntegralError):
            commutant_coordinates(HiggsPair(E2, diag, diag))

    def test_rank_three_with_denominator(self):
        # first = I + x*C with C the cyclic shift sending the basis to
        # (e2, e3, x*e1); its curve (t-1)^3 - x^4 has no function-field root,
        # and second = C = (first - I)/x forces the multiplier (t - 1)/x
        bundle = SplitBundle([0, 0, 0])
        zero, one = UniPoly.zero(), UniPoly.one()
        cyc = ((zero, zero, X), (one, zero, zero), (zero, one, zero))
        first = TwistedEndo(
            bundle,
            2,
            tuple(
                tuple((one if i == j else zero) + X * cyc[i][j] for j in range(3))
                for i in range(3)
            ),
        )
        second = TwistedEndo(bundle, 1, cyc)
        pair = HiggsPair(bundle, first, second)
        assert curve_of(first).chi == parse_bipoly("t^3 - 3*t^2 + 3*t - x^4 - 1")
        psi, den = commutant_coordinates(pair)
        assert den == X
        assert psi == parse_bipoly("t - 1")

    def test_non_cyclic_e1_is_not_in_commutant(self):
        # e1 is an eigenvector of the first component, so the Krylov
        # determinant det[e1, A e1] vanishes; the solve is called directly,
        # past the integrality test that refuses this split curve
        first = TwistedEndo(E2, 1, [[X, 1], [0, -X]])
        with pytest.raises(NotInCommutantError):
            spectral_module._solve_commutant(HiggsPair(E2, first, first))

    def test_non_commuting_pair_refused_before_any_solve(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("reached past the commutation check")

        for name in ("curve_of", "_solve_commutant", "_det_unipoly"):
            monkeypatch.setattr(spectral_module, name, forbidden)
        second = TwistedEndo(E2, 1, [[1, 0], [0, 0]])
        with pytest.raises(CommutationError):
            commutant_coordinates(HiggsPair(E2, THETA, second))


class TestForward:
    def test_worked_instance(self):
        field = reconstruct(HiggsPair(E2, THETA, THETA), H_ONE)
        data = forward_correspondence(field)
        assert data.curve.chi == parse_bipoly("t^2 - x")
        assert data.psi == parse_bipoly("t")
        assert data.psi_denominator == UniPoly.one()
        assert data.b == 1

    def test_scaled_instance(self):
        hecke = HeckeData(1, 2, [HeckePoint(F(1), F(2))])
        second = TwistedEndo(E2, 2, [[0, 2 * X], [2 * X**2, 0]])
        field = reconstruct(HiggsPair(E2, THETA, second), hecke)
        data = forward_correspondence(field)
        assert data.psi == parse_bipoly("2*x*t")

    def test_non_integral_raises(self):
        diag = TwistedEndo(E2, 1, [[X, 0], [0, X + 1]])
        zero = TwistedEndo(E2, 1, [[0, 0], [0, 0]])
        field = reconstruct(HiggsPair(E2, diag, zero), HeckeData(1, 1, []))
        with pytest.raises(NonIntegralError):
            forward_correspondence(field)


class TestForwardWitnesses:
    """The forward correspondence reads its witnesses off the fiber equation:
    they are the pointwise ones at one root of every fiber factor."""

    @given(valid_fields())
    @settings(max_examples=25, deadline=None)
    def test_witnesses_are_the_pointwise_ones(self, field):
        curve = curve_of(field.pair.first)
        assume(is_integral(curve)[0])
        psi, den = commutant_coordinates(field.pair)
        for sign in (1, -1):
            try:
                forward_correspondence(field, sign)
                witnesses = []
            except EigenvalueConditionError as exc:
                witnesses = list(exc.witnesses)
            assert witnesses == pointwise_multiplier_witnesses(
                psi, den, curve, field.hecke.points, sign
            )


class TestBackward:
    def test_worked_instance(self):
        data = SpectralData(
            SpectralCurve(parse_bipoly("t^2 - x"), 1, 2),
            parse_bipoly("t"),
            UniPoly.one(),
            1,
        )
        field = backward_correspondence(data, H_ONE)
        assert field.pair.bundle.twists == (0, -1)
        assert field.pair.first.entries == (
            (UniPoly.zero(), X),
            (UniPoly.one(), UniPoly.zero()),
        )
        assert field.pair.second == field.pair.first

    def test_degree_bounds_in_example(self):
        data = SpectralData(
            SpectralCurve(parse_bipoly("t^2 - x"), 1, 2),
            parse_bipoly("2*x*t"),
            UniPoly.one(),
            2,
        )
        hecke = HeckeData(1, 2, [HeckePoint(F(1), F(2))])
        field = backward_correspondence(data, hecke)
        assert field.pair.second.entries == (
            (UniPoly.zero(), 2 * X**2),
            (2 * X, UniPoly.zero()),
        )

    def test_eigenvalue_gate(self):
        data = SpectralData(
            SpectralCurve(parse_bipoly("t^2 - x"), 1, 2),
            parse_bipoly("t"),
            UniPoly.one(),
            1,
        )
        hecke = HeckeData(1, 1, [HeckePoint(F(1), F(3))])
        with pytest.raises(EigenvalueConditionError) as info:
            backward_correspondence(data, hecke)
        assert info.value.witnesses

    def test_non_integral_input(self):
        chi = parse_bipoly("t - x") * parse_bipoly("t - x - 1")
        data = SpectralData(SpectralCurve(chi, 1, 2), parse_bipoly("t"), UniPoly.one(), 1)
        with pytest.raises(NonIntegralError):
            backward_correspondence(data, HeckeData(1, 1, []))

    def test_degree_bound_violation(self):
        # multiplier x^2*t produces an entry of degree 2 against bound 1
        data = SpectralData(
            SpectralCurve(parse_bipoly("t^2 - x"), 1, 2),
            parse_bipoly("x^2*t"),
            UniPoly.one(),
            2,
        )
        hecke = HeckeData(1, 2, [HeckePoint(F(2), F(4))])
        with pytest.raises(DegreeBoundError):
            backward_correspondence(data, hecke)

    def test_non_reduced_fiber_needs_full_identity(self):
        # over x = 0 the fiber of t^2 - x is a double point at y = 0, so the
        # pointwise check alone would accept psi = 2t with lambda = 1; the
        # fiber equation itself does not
        data = SpectralData(
            SpectralCurve(parse_bipoly("t^2 - x"), 1, 2),
            parse_bipoly("2*t"),
            UniPoly.one(),
            1,
        )
        with pytest.raises(EigenvalueConditionError) as info:
            backward_correspondence(data, H_ONE)
        assert any("beyond the reduced points" in w["note"] for w in info.value.witnesses)

    def test_rational_multiplier_rejected(self):
        data = SpectralData(
            SpectralCurve(parse_bipoly("t^2 - x"), 1, 2),
            parse_bipoly("t"),
            X,
            1,
        )
        with pytest.raises(ValidationError):
            backward_correspondence(data, HeckeData(1, 1, []))

    def test_sign_flip_builds_flipped_presentation(self):
        data = SpectralData(
            SpectralCurve(parse_bipoly("t^2 - x"), 1, 2),
            parse_bipoly("-t"),
            UniPoly.one(),
            1,
        )
        field = backward_correspondence(data, H_ONE, -1)
        assert field.hecke.points[0].scale == -1

    def test_round_trip_a(self):
        for chi_text, psi_text, b, pts in [
            ("t^2 - x", "t", 1, [(0, 1)]),
            ("t^2 - x", "2*x*t", 2, [(1, 2)]),
            ("t^3 - x", "x*t", 2, [(1, 1)]),
        ]:
            chi = parse_bipoly(chi_text)
            r = chi.t_degree
            data = SpectralData(
                SpectralCurve(chi, 1, r), parse_bipoly(psi_text), UniPoly.one(), b
            )
            hecke = HeckeData(1, b, [HeckePoint(F(x), F(l)) for x, l in pts])
            field = backward_correspondence(data, hecke)
            again = forward_correspondence(field)
            assert again.curve.chi == chi
            assert again.psi == data.psi
            assert again.psi_denominator == UniPoly.one()

    def test_incompatible_scalars_always_rejected(self):
        rng = random.Random(440)
        rejected = 0
        for _ in range(20):
            chi = parse_bipoly("t^2 - x")
            lam = F(rng.randint(2, 9))
            x0 = F(rng.randint(2, 6))
            data = SpectralData(
                SpectralCurve(chi, 1, 2), parse_bipoly("t"), UniPoly.one(), 1
            )
            hecke = HeckeData(1, 1, [HeckePoint(x0, lam)])
            # psi = t gives eigenvalue y, never lam*y for lam != 1 and y != 0
            with pytest.raises(EigenvalueConditionError):
                backward_correspondence(data, hecke)
            rejected += 1
        assert rejected == 20

    def test_round_trip_b_companion_exact(self):
        data = SpectralData(
            SpectralCurve(parse_bipoly("t^2 - x"), 1, 2),
            parse_bipoly("t"),
            UniPoly.one(),
            1,
        )
        field = backward_correspondence(data, H_ONE)
        spectral = forward_correspondence(field)
        again = backward_correspondence(spectral, H_ONE)
        assert again == field


def _two_pass_witnesses(spectral, hecke, sign):
    """`build`'s multiplier verdict as two passes: pointwise at every fiber
    point over number fields, then the literal identity
    psi(x_i, t) = sign * lambda_i * t, which for r >= 2 is the fiber equation
    mod chi(x_i, t) because psi has t-degree < r."""
    pointwise = pointwise_multiplier_witnesses(
        spectral.psi, spectral.psi_denominator, spectral.curve, hecke.points, sign
    )
    if pointwise:
        return pointwise
    note = "fiber equation fails beyond the reduced points"
    return [
        {"x": str(hp.x), "minimal": "", "note": note}
        for hp in hecke.points
        if spectral.psi.at_x(hp.x) != UniPoly((0, sign * hp.scale))
    ]


class TestCorrespondenceIdentities:
    """The Q[x] and Q[t] identities that certify the correspondence, against
    the normal form over Q(x) and the two-pass multiplier check."""

    @given(valid_fields())
    @settings(max_examples=25, deadline=None)
    def test_commutant_coordinates_in_normal_form(self, field):
        pair = field.pair
        assume(is_integral(curve_of(pair.first))[0])
        psi, q = commutant_coordinates(pair)
        r = pair.rank
        assert q.leading() == 1
        common = q
        for k in range(r):
            common = common.gcd(psi.tcoeff(k))
        assert common == UniPoly.one()
        # q * second = sum_k p_k * first^k, by Horner's rule
        first, second = pair.first.entries, pair.second.entries
        total = tuple((UniPoly.zero(),) * r for _ in range(r))
        for k in reversed(range(r)):
            total = mat_mul(total, first)
            total = tuple(
                tuple(e + (psi.tcoeff(k) if i == j else 0) for j, e in enumerate(row))
                for i, row in enumerate(total)
            )
        assert total == tuple(tuple(q * e for e in row) for row in second)

    @given(valid_fields(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_build_rejects_exactly_the_two_pass_misses(self, field, data):
        hecke = field.hecke
        assume(hecke.points and is_integral(curve_of(field.pair.first))[0])
        spectral = forward_correspondence(field)
        assume(spectral.psi_denominator == UniPoly.one())
        # move one marked scalar off the multiplier's value there
        index = data.draw(st.integers(0, len(hecke.points) - 1))
        points = list(hecke.points)
        moved = points[index].scale + data.draw(st.sampled_from((1, -1, F(1, 2))))
        points[index] = HeckePoint(points[index].x, moved or F(5))
        moved_hecke = HeckeData(hecke.a, hecke.b, points)
        for presentation in (hecke, moved_hecke):
            for sign in (1, -1):
                try:
                    backward_correspondence(spectral, presentation, sign)
                    witnesses = []
                except EigenvalueConditionError as exc:
                    witnesses = list(exc.witnesses)
                except DegreeBoundError:
                    witnesses = []
                assert witnesses == _two_pass_witnesses(spectral, presentation, sign)


@st.composite
def build_inputs(draw):
    """(spectral datum, presentation) that `build` accepts with sign +1, up to
    the multiplier's degree bounds: a drawn monic curve chi of rank 2 or 3,
    and psi = beta(x) t + prod_i (x - x_i) gamma(x, t) with
    beta(x_i) = lambda_i, so that psi(x_i, t) = lambda_i t."""
    r = draw(st.integers(2, 3))
    a = draw(st.integers(1, 2))
    coeffs = []
    for k in range(r):
        size = draw(st.integers(1, (r - k) * a + 1))
        coeffs.append(UniPoly([F(draw(st.integers(-2, 2))) for _ in range(size)]))
    curve = SpectralCurve(BiPoly(tuple(coeffs) + (UniPoly.one(),)), a, r)
    assume(is_integral(curve)[0])
    xs = draw(st.lists(st.integers(-2, 2), max_size=2, unique=True))
    points = [HeckePoint(F(x), draw(st.sampled_from(SCALARS))) for x in xs]
    beta = interpolate([(p.x, p.scale) for p in points]) if points else UniPoly.one()
    vanishing = UniPoly.one()
    for p in points:
        vanishing = vanishing * UniPoly((-p.x, 1))
    psi_coeffs = [vanishing * draw(st.sampled_from((0, 1, -1))) for _ in range(r)]
    psi_coeffs[1] = psi_coeffs[1] + beta
    psi = BiPoly(tuple(psi_coeffs))
    # t has weight a, so psi fits twist b when each t^k coefficient has
    # degree <= b - k * a
    b = max([a] + [p.degree + k * a for k, p in enumerate(psi_coeffs) if not p.is_zero()])
    return SpectralData(curve, psi, UniPoly.one(), b), HeckeData(a, b, points)


class TestBuildCertifiedByConstruction:
    """`build` certifies its output without `reconstruct`; `reconstruct`
    accepts every field it returns, with the same certificate."""

    @given(build_inputs())
    @settings(max_examples=25, deadline=None)
    def test_reconstruct_accepts_every_build_output(self, drawn):
        spectral, hecke = drawn
        flipped = HeckeData(hecke.a, hecke.b, [HeckePoint(p.x, -p.scale) for p in hecke.points])
        for sign, presentation in ((1, hecke), (-1, flipped)):
            try:
                field = backward_correspondence(spectral, presentation, sign)
            except DegreeBoundError:
                assume(False)
            again = reconstruct(field.pair, field.hecke)
            assert again == field
            assert again.certificate == field.certificate


class TestStability:
    def test_integral_curve_is_stable(self):
        field = reconstruct(HiggsPair(E2, THETA, THETA), H_ONE)
        verdict, cert = certify_stability(field)
        assert verdict == "Stable" and cert["irreducible"]

    def test_reducible_unknown(self):
        diag = TwistedEndo(E2, 1, [[X, 0], [0, X + 1]])
        zero = TwistedEndo(E2, 1, [[0, 0], [0, 0]])
        field = reconstruct(HiggsPair(E2, diag, zero), HeckeData(1, 1, []))
        assert certify_stability(field)[0] == "Unknown"

    def test_non_reduced_unknown(self):
        zero = TwistedEndo(E2, 1, [[0, 0], [0, 0]])
        field = reconstruct(HiggsPair(E2, zero, zero), HeckeData(1, 1, []))
        assert certify_stability(field)[0] == "Unknown"


class TestInvariantLineSearch:
    def test_irreducible_has_none(self):
        assert invariant_line_search(HiggsPair(E2, THETA, THETA), curve_of(THETA)) is None

    def test_diagonal_found(self):
        diag = TwistedEndo(E2, 1, [[X, 0], [0, X + 1]])
        zero = TwistedEndo(E2, 1, [[0, 0], [0, 0]])
        line = invariant_line_search(HiggsPair(E2, diag, zero), curve_of(diag))
        assert line is not None
        assert line.second_invariant

    def test_jordan_block(self):
        jordan = TwistedEndo(E2, 1, [[X, 1], [0, X]])
        zero = TwistedEndo(E2, 1, [[0, 0], [0, 0]])
        line = invariant_line_search(HiggsPair(E2, jordan, zero), curve_of(jordan))
        assert line is not None
        assert line.vector[1].is_zero()
        assert line.eigenvalue == X

    def test_second_invariance_reported(self):
        diag = TwistedEndo(E2, 1, [[X, 0], [0, X + 1]])
        swap = TwistedEndo(E2, 1, [[0, 1], [1, 0]])
        line = invariant_line_search(HiggsPair(E2, diag, swap), curve_of(diag))
        assert line is not None
        assert not line.second_invariant

    def test_rank_restriction(self):
        bundle = SplitBundle([0, 0, 0])
        zero = TwistedEndo(bundle, 1, [[0] * 3] * 3)
        with pytest.raises(ValueError):
            invariant_line_search(HiggsPair(bundle, zero, zero), curve_of(zero))

    def test_matches_reducibility(self):
        rng = random.Random(17)
        for _ in range(15):
            entries = [
                [UniPoly([F(rng.randint(-2, 2)) for _ in range(2)]) for _ in range(2)]
                for _ in range(2)
            ]
            endo = TwistedEndo(E2, 1, entries)
            zero = TwistedEndo(E2, 1, [[0, 0], [0, 0]])
            pair = HiggsPair(E2, endo, zero)
            curve = curve_of(endo)
            line = invariant_line_search(pair, curve)
            from heckehiggs.factor import irreducible_over_function_field

            reducible = not irreducible_over_function_field(curve.chi)[0]
            assert (line is not None) == reducible


class TestMultiplicationMatrix:
    def test_companion_bounds_always_hold(self):
        rng = random.Random(23)
        from heckehiggs.projline import validate_twisted_endo

        for r in (2, 3):
            for a in (1, 2):
                coeffs = [
                    UniPoly([F(rng.randint(-2, 2)) for _ in range((r - k) * a + 1)])
                    for k in range(r)
                ]
                chi = BiPoly(tuple(coeffs) + (UniPoly.one(),))
                curve = SpectralCurve(chi, a, r)
                comp = multiplication_matrix(curve, BiPoly.t(), a)
                assert validate_twisted_endo(comp) == []
                assert char_poly(comp.entries) == chi


PACKAGE = Path(spectral_module.__file__).parent


def calls_of(source: str, name: str) -> list:
    """The lines of `source` that call `name`, by name or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def calling_modules(name: str) -> list:
    return [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if calls_of(path.read_text(encoding="utf-8"), name)
    ]


def test_only_spectral_builds_eigenvalue_rows():
    assert calling_modules("EigenvalueVerdict") == ["spectral.py"]


def test_only_higgs_and_cli_evaluate_components():
    """`higgs.check_fiber_condition` evaluates the components at the marked
    points and hands the fiber maps on; `cli` evaluates them only at its
    sample points."""
    assert calling_modules("evaluate_endo") == ["cli.py", "higgs.py"]
    cli = (PACKAGE / "cli.py").read_text(encoding="utf-8").splitlines()
    for line in calls_of("\n".join(cli), "evaluate_endo"):
        assert "_SAMPLE_POINTS" in cli[line - 1]


def test_verdict_guard_catches_a_construction():
    source = (
        "EigenvalueVerdict(0, 't', 1, True)\n"
        "x = spectral.EigenvalueVerdict\n"
        "spectral.EigenvalueVerdict(0, 't', 1, True)\n"
    )
    assert calls_of(source, "EigenvalueVerdict") == [1, 3]
