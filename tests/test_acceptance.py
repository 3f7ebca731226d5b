"""Acceptance suite: one test per criterion, exact arithmetic throughout,
each printing a PASS line with its measured statistics."""

import itertools
import json
import os
import random
import time
from fractions import Fraction

import pytest

from heckehiggs.cli import main
from heckehiggs.errors import FiberConditionError
from heckehiggs.hecke import HeckeData, HeckePoint, make_presentation, splitting_type
from heckehiggs.higgs import HiggsPair, check_fiber_condition, decompose, reconstruct
from heckehiggs.linalg import char_poly
from heckehiggs.poly import BiPoly, UniPoly
from heckehiggs.projline import SplitBundle, TwistedEndo
from heckehiggs.spectral import (
    SpectralCurve,
    SpectralData,
    backward_correspondence,
    certify_stability,
    curve_of,
    eigenvalue_condition,
    fiber_points,
    forward_correspondence,
    is_integral,
)
from instance_strategies import (
    InfeasibleBudgetError,
    invariant_line_search,
    perturb_second_at_point,
    random_valid_instance,
)
from oracles import at_t, cofactor_char_poly

F = Fraction
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def report(line):
    print(line)


# -- shared instance generator (criteria 1 and 2) ---------------------------


def generate_corpus(count, seed):
    """Seeded valid instances with r <= 3, twist degrees a, b <= 3, at most
    3 marked points, on balanced bundles (so perturbations stay in bounds)."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        r = rng.choice([2, 2, 2, 3])
        length = rng.choice([0, 1, 1, 2, 2, 3])
        a = rng.randint(1, 2)
        b = rng.randint(max(a, length, 1), 3)
        budget = min(a, b - max(length - 1, 0))
        if budget < 0:
            continue
        xs = rng.sample([F(v) for v in range(-4, 5)], length)
        points = []
        for x in xs:
            lam = F(0)
            while lam == 0:
                lam = F(rng.randint(-3, 3), rng.randint(1, 2))
            points.append(HeckePoint(x, lam))
        data = HeckeData(a, b, points)
        bundle = SplitBundle([0] * r)
        try:
            field = random_valid_instance(data, bundle, budget, rng.randint(0, 10**9))
        except InfeasibleBudgetError:
            continue
        corpus.append(field)
    return corpus


class TestCriterion1RoundTripAndRejection:
    def test_reconstruct_decompose_identity_and_perturbation_rejection(self):
        start = time.monotonic()
        corpus = generate_corpus(200, seed=101)
        perturbations = 0
        for field in corpus:
            first, second = decompose(field)
            rebuilt = reconstruct(
                HiggsPair(field.pair.bundle, first, second), field.hecke
            )
            assert rebuilt == field
            for index in range(field.hecke.length):
                bad = perturb_second_at_point(field, index, 1)
                with pytest.raises(FiberConditionError):
                    reconstruct(bad, field.hecke)
                perturbations += 1
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        report(
            f"PASS criterion 1: 200 instances round-trip exactly, "
            f"{perturbations} single-point perturbations rejected "
            f"({elapsed:.1f}s)"
        )


class TestCriterion2EigenvalueConvention:
    def test_sign_plus_always_passes_and_sign_minus_bites(self):
        corpus = generate_corpus(200, seed=101)
        minus_failures = 0
        nonzero_fiber_instances = 0
        for field in corpus:
            curve = curve_of(field.pair.first)
            fiber = check_fiber_condition(field.pair, field.hecke)[1]
            ok_plus, _ = eigenvalue_condition(field.pair, fiber, 1)
            assert ok_plus
            has_nonzero = False
            for hp in field.hecke.points:
                for point in fiber_points(curve, hp.x):
                    if point.minimal != UniPoly.variable():
                        has_nonzero = True
            if has_nonzero:
                nonzero_fiber_instances += 1
                ok_minus, _ = eigenvalue_condition(field.pair, fiber, -1)
                if not ok_minus:
                    minus_failures += 1
        assert nonzero_fiber_instances > 0
        assert minus_failures > 0
        report(
            f"PASS criterion 2: sign +1 passes on all 200 instances; "
            f"sign -1 fails on {minus_failures}/{nonzero_fiber_instances} "
            f"instances with nonzero fiber points"
        )


# -- criterion 3: backward then forward -------------------------------------


def random_poly(rng, degree):
    if degree < 0:
        return UniPoly.zero()
    return UniPoly([F(rng.randint(-3, 3)) for _ in range(degree + 1)])


def random_integral_curve(rng, r, a):
    while True:
        coeffs = [random_poly(rng, (r - k) * a) for k in range(r)]
        chi = BiPoly(tuple(coeffs) + (UniPoly.one(),))
        curve = SpectralCurve(chi, a, r)
        if is_integral(curve)[0]:
            return curve


def compatible_pair(rng, r, a):
    """An integral curve plus multiplier/marked-point data satisfying the
    eigenvalue gate by construction (multiplier congruent to lambda*t at
    every marked point)."""
    curve = random_integral_curve(rng, r, a)
    length = rng.choice([1, 1, 2])
    b = a + length + rng.randint(0, 1)
    xs = rng.sample([F(v) for v in range(-3, 4)], length)
    vanishing = UniPoly.one()
    for x in xs:
        vanishing = vanishing * UniPoly((-x, 1))
    while True:
        beta = random_poly(rng, b - a - length) * vanishing + UniPoly.interpolate(
            [(x, F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))) for x in xs]
        )
        if beta.degree > b - a:
            continue
        if all(beta.evaluate(x) != 0 for x in xs):
            break
    alpha = random_poly(rng, b - length) * vanishing
    tcoeffs = [alpha, beta]
    if r >= 3 and b - 2 * a - length >= 0:
        tcoeffs.append(random_poly(rng, b - 2 * a - length) * vanishing)
    psi = BiPoly(tuple(tcoeffs))
    points = [HeckePoint(x, beta.evaluate(x)) for x in xs]
    data = HeckeData(a, b, points)
    return SpectralData(curve, psi, UniPoly.one(), b), data


class TestCriterion3SpectralRoundTripA:
    def test_backward_then_forward_is_identity(self):
        start = time.monotonic()
        rng = random.Random(303)
        done = 0
        ranks = {2: 0, 3: 0}
        while done < 100:
            r = rng.choice([2, 3])
            spectral, data = compatible_pair(rng, r, 1)
            field = backward_correspondence(spectral, data)
            again = forward_correspondence(field)
            assert again.curve.chi == spectral.curve.chi
            assert again.psi == spectral.psi
            assert again.psi_denominator == UniPoly.one()
            assert again.b == spectral.b
            ranks[r] += 1
            done += 1
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        report(
            f"PASS criterion 3: 100 backward/forward round trips exact "
            f"(rank 2: {ranks[2]}, rank 3: {ranks[3]}; {elapsed:.1f}s)"
        )


# -- criterion 4: display vs characteristic polynomial ----------------------


class TestCriterion4DisplayConsistency:
    def test_display_equals_both_characteristic_polynomials(self):
        rng = random.Random(404)
        for case in range(100):
            r = rng.randint(1, 4)
            bundle = SplitBundle([0] * r)
            entries = [
                [random_poly(rng, rng.randint(0, 2)) for _ in range(r)]
                for _ in range(r)
            ]
            endo = TwistedEndo(bundle, 2, entries)
            display = curve_of(endo).chi
            assert display == char_poly(endo.entries)
            assert display == cofactor_char_poly(endo.entries)
        report(
            "PASS criterion 4: display matches the packed Bareiss char_poly and the "
            "cofactor oracle on 100 random matrices (r <= 4, degrees <= 2)"
        )


# -- criterion 5: integrality vs undetermined-coefficients oracle -----------


def oracle_rational_roots(p):
    """Standalone rational-root finder (divisor enumeration)."""
    coeffs = list(p.coeffs)
    if not coeffs:
        return []
    den = 1
    for c in coeffs:
        den = den * c.denominator
    ints = [int(c * den) for c in coeffs]
    while ints and ints[0] == 0:
        ints = ints[1:]
    roots = set()
    if len(ints) != len(coeffs):
        roots.add(F(0))
    if not ints:
        return sorted(roots)
    lead, trail = ints[-1], ints[0]

    def divisors(n):
        n = abs(n)
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return out

    for num in divisors(trail):
        for den_ in divisors(lead):
            for s in (1, -1):
                cand = F(s * num, den_)
                if p.evaluate(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def oracle_has_linear_t_factor(chi):
    """Undetermined-coefficients search for a factor t - v(x): candidate
    coefficient vectors of v are interpolated through rational roots of the
    specializations and verified by full substitution."""
    bound = max(0, chi.x_degree)
    points = [F(k) for k in range(bound + 1)]
    root_sets = []
    for x0 in points:
        roots = oracle_rational_roots(chi.at_x(x0))
        if not roots:
            return False
        root_sets.append(roots)
    for combo in itertools.product(*root_sets):
        v = UniPoly.interpolate(list(zip(points, combo)))
        if at_t(chi, v).is_zero():
            return True
    return False


def oracle_squarefree(chi):
    """chi is squarefree over Q(x) iff some specialization in a long enough
    integer scan is squarefree over Q."""
    r = chi.t_degree
    n = max(0, chi.x_degree)
    scan = (2 * r - 1) * n + 1
    for k in range(scan + 1):
        spec = chi.at_x(F(k))
        if spec.gcd(spec.derivative()).degree == 0:
            return True
    return False


def oracle_integral(chi):
    if chi.t_degree == 1:
        return True
    return oracle_squarefree(chi) and not oracle_has_linear_t_factor(chi)


def criterion5_corpus(seed):
    rng = random.Random(seed)
    cases = []

    def rand_linear():
        return BiPoly((random_poly(rng, 1), UniPoly.one()))

    while len(cases) < 200:
        kind = rng.random()
        if kind < 0.4:
            r = rng.randint(1, 3)
            coeffs = [random_poly(rng, rng.randint(0, 3)) for _ in range(r)]
            chi = BiPoly(tuple(coeffs) + (UniPoly.one(),))
        elif kind < 0.7:
            parts = [rand_linear() for _ in range(rng.randint(2, 3))]
            chi = parts[0]
            for p in parts[1:]:
                chi = chi * p
        else:
            lin = rand_linear()
            chi = lin * lin
            if rng.random() < 0.5:
                chi = chi * rand_linear()
        if chi.t_degree > 3 or chi.x_degree > 3:
            continue
        cases.append(chi)
    return cases


class TestCriterion5IntegralityOracle:
    def test_is_integral_agrees_with_factorization_oracle(self):
        cases = criterion5_corpus(505)
        integral_count = 0
        for chi in cases:
            curve = SpectralCurve(chi, 3, chi.t_degree)
            verdict, _ = is_integral(curve)
            expected = oracle_integral(chi)
            assert verdict == expected, f"disagreement on {chi!r}"
            integral_count += verdict
        report(
            f"PASS criterion 5: is_integral matches the undetermined-"
            f"coefficients oracle on 200 cases ({integral_count} integral)"
        )


# -- criterion 6: stability for rank 2 ---------------------------------------


class TestCriterion6Stability:
    def test_stability_certificate_vs_line_search(self):
        rng = random.Random(606)
        hecke = HeckeData(2, 2, [])
        bundle = SplitBundle([0, 0])
        integral_fields = []
        while len(integral_fields) < 50:
            entries = [
                [random_poly(rng, rng.randint(0, 2)) for _ in range(2)]
                for _ in range(2)
            ]
            first = TwistedEndo(bundle, 2, entries)
            if not is_integral(curve_of(first))[0]:
                continue
            beta = random_poly(rng, 0)
            second = TwistedEndo(
                bundle, 2, tuple(tuple(beta * e for e in row) for row in entries)
            )
            integral_fields.append(reconstruct(HiggsPair(bundle, first, second), hecke))
        for field in integral_fields:
            assert invariant_line_search(field.pair, curve_of(field.pair.first)) is None
            verdict, _ = certify_stability(field)
            assert verdict == "Stable"

        reducible_fields = []
        while len(reducible_fields) < 20:
            mu1, mu2 = random_poly(rng, 2), random_poly(rng, 2)
            upper = random_poly(rng, 2)
            first = TwistedEndo(bundle, 2, [[mu1, upper], [UniPoly.zero(), mu2]])
            zero = TwistedEndo(bundle, 2, [[0, 0], [0, 0]])
            reducible_fields.append(
                reconstruct(HiggsPair(bundle, first, zero), hecke)
            )
        for field in reducible_fields:
            line = invariant_line_search(field.pair, curve_of(field.pair.first))
            assert line is not None
            verdict, _ = certify_stability(field)
            assert verdict == "Unknown"
        report(
            "PASS criterion 6: 50 integral instances have no invariant line "
            "and certify Stable; 20 reducible instances all yield a line"
        )


# -- criterion 7: presentation bookkeeping -----------------------------------


class TestCriterion7HeckeBookkeeping:
    def test_make_presentation_hits_100_targets(self):
        rng = random.Random(707)
        pool = [F(v) for v in range(-6, 10)]
        hit = 0
        for trial in range(100):
            c = rng.randint(-2, 3)
            d = rng.randint(-3, c)
            minimum = max(1, c - d - 1)
            length = rng.randint(minimum, minimum + 2)
            data = make_presentation(c, d, length, pool, rng_seed=trial)
            assert splitting_type(data) == (c, d)
            assert c + d == data.a + data.b - data.length
            hit += 1
        report(
            f"PASS criterion 7: make_presentation hit {hit}/100 seeded "
            f"targets with exact degree bookkeeping"
        )


# -- criterion 8: golden worked example ---------------------------------------


class TestCriterion8GoldenRegression:
    @pytest.mark.parametrize("command", ["check", "reconstruct", "spectral"])
    def test_pinned_outputs(self, command, capsys):
        instance = os.path.join(GOLDEN, "worked_instance.json")
        code = main(["--no-timing", command, instance])
        out = capsys.readouterr().out
        assert code == 0
        with open(os.path.join(GOLDEN, f"worked_expected_{command}.json")) as handle:
            expected = handle.read()
        assert out == expected

    @pytest.mark.parametrize("name", ["rank3", "rank4", "rank4_denominator", "rank3_degree_sets"])
    def test_pinned_spectral_at_rank_three_and_four(self, name, capsys):
        # the commutant solve at ranks 3 and 4, one with multiplier
        # denominator x; rank3_degree_sets is a curve reducible at x0 = 0
        # whose integrality the degree sets of two points decide
        instance = os.path.join(GOLDEN, f"{name}_instance.json")
        code = main(["--no-timing", "spectral", instance])
        out = capsys.readouterr().out
        assert code == 0
        with open(os.path.join(GOLDEN, f"{name}_expected_spectral.json")) as handle:
            expected = handle.read()
        assert out == expected

    def test_values_pinned_in_golden_file(self):
        with open(os.path.join(GOLDEN, "worked_expected_spectral.json")) as handle:
            expected = json.load(handle)
        assert expected["curve"]["chi"] == "t^2 - x"
        assert expected["integral"] is True
        assert expected["spectral"]["psi"] == "t"
        assert expected["stability"] == "Stable"
        with open(os.path.join(GOLDEN, "worked_expected_check.json")) as handle:
            check = json.load(handle)
        assert check["verdicts"]["eigenvalue"] is True
        report(
            "PASS criterion 8: worked instance pinned (chi = t^2 - x, "
            "integral, psi = t, eigenvalue true, Stable)"
        )
