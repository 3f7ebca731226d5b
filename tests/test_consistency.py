"""Cross-checks between independent computation routes."""

import itertools
import random
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from heckehiggs.errors import DegreeBoundError
from heckehiggs.hecke import HeckeData, HeckePoint, h0_of_twist
from heckehiggs.higgs import HiggsPair, check_fiber_condition
from heckehiggs.linalg import mat_mul, solve_right
from heckehiggs.poly import UniPoly
from heckehiggs.projline import SplitBundle, TwistedEndo
from heckehiggs.spectral import (
    backward_correspondence,
    curve_of,
    forward_correspondence,
    is_integral,
)
from instance_strategies import endo_scalar, random_valid_instance, valid_fields
from oracles import eigenspace_invariance

F = Fraction


def minor_rank(rows):
    """Rank via nonvanishing minors (independent of Gaussian elimination)."""
    rows = [list(r) for r in rows]
    n = len(rows)
    m = len(rows[0]) if rows else 0

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = F(0)
        for j in range(len(mat)):
            if mat[0][j] == 0:
                continue
            minor = [r[:j] + r[j + 1 :] for r in mat[1:]]
            term = mat[0][j] * det(minor)
            total += term if j % 2 == 0 else -term
        return total

    for size in range(min(n, m), 0, -1):
        for rsel in itertools.combinations(range(n), size):
            for csel in itertools.combinations(range(m), size):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if det(sub) != 0:
                    return size
    return 0


class TestSectionCountOracle:
    def test_h0_matches_minor_rank_oracle(self):
        rng = random.Random(41)
        for _ in range(25):
            length = rng.randint(0, 3)
            xs = rng.sample(range(-3, 4), length)
            points = [
                HeckePoint(F(x), F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])))
                for x in xs
            ]
            a, b = rng.randint(-1, 2), rng.randint(-1, 2)
            data = HeckeData(a, b, points)
            for n in range(-3, 2):
                alpha = max(a + n + 1, 0)
                beta = max(b + n + 1, 0)
                rows = []
                for p in data.points:
                    row = [-p.scale * p.x**k for k in range(alpha)]
                    row += [p.x**k for k in range(beta)]
                    rows.append(row)
                expected = alpha + beta - (minor_rank(rows) if rows else 0)
                assert h0_of_twist(data, n) == expected


class TestDeskScalePerformance:
    def test_rank_four_pipeline_is_quick(self):
        import time

        rng = random.Random(4 * 404)
        start = time.monotonic()
        bundle = SplitBundle([0, 0, 0, 0])
        for _ in range(5):
            entries = [
                [
                    UniPoly([F(rng.randint(-3, 3)) for _ in range(4)])
                    for _ in range(4)
                ]
                for _ in range(4)
            ]
            endo = TwistedEndo(bundle, 3, entries)
            curve = curve_of(endo)
            is_integral(curve)
        assert time.monotonic() - start < 30.0

    def test_rank_three_twist_three_round_trip(self):
        rng = random.Random(333)
        a = 3
        while True:
            coeffs = [
                UniPoly([F(rng.randint(-2, 2)) for _ in range((3 - k) * a + 1)])
                for k in range(3)
            ]
            from heckehiggs.poly import BiPoly
            from heckehiggs.spectral import SpectralCurve, SpectralData

            chi = BiPoly(tuple(coeffs) + (UniPoly.one(),))
            curve = SpectralCurve(chi, a, 3)
            if is_integral(curve)[0]:
                break
        x0, lam = F(1), F(2)
        b = 2 * a + 2
        beta = UniPoly((lam,))
        vanish = UniPoly((-x0, 1))
        psi = BiPoly((vanish * UniPoly((1,)), beta, vanish))
        data = HeckeData(a, b, [HeckePoint(x0, lam)])
        spectral = SpectralData(curve, psi, UniPoly.one(), b)
        field = backward_correspondence(spectral, data)
        again = forward_correspondence(field)
        assert again.psi == psi
        assert again.curve.chi == chi


class TestRandomInstanceAgainstDirectChecks:
    def test_instances_satisfy_conditions_verified_independently(self):
        rng = random.Random(55)
        for seed in range(10):
            length = rng.choice([1, 2])
            xs = rng.sample(range(-2, 3), length)
            points = [HeckePoint(F(x), F(rng.choice([1, 2, -1]))) for x in xs]
            data = HeckeData(2, 3, points)
            bundle = SplitBundle([0, 0])
            field = random_valid_instance(data, bundle, 1, seed)
            first, second = field.pair.first, field.pair.second
            # direct matrix identities without the library's check functions
            prod1 = [
                [
                    sum(
                        (first.entries[i][k] * second.entries[k][j] for k in range(2)),
                        UniPoly.zero(),
                    )
                    for j in range(2)
                ]
                for i in range(2)
            ]
            prod2 = [
                [
                    sum(
                        (second.entries[i][k] * first.entries[k][j] for k in range(2)),
                        UniPoly.zero(),
                    )
                    for j in range(2)
                ]
                for i in range(2)
            ]
            assert prod1 == prod2
            for p in data.points:
                for i in range(2):
                    for j in range(2):
                        lhs = second.entries[i][j].evaluate(p.x)
                        rhs = p.scale * first.entries[i][j].evaluate(p.x)
                        assert lhs == rhs


class TestCertifiedInstanceInvariants:
    """Invariants of the certified instances `valid_fields` draws: fiberwise,
    under rescaling and constant conjugation, and through the companion
    model of the spectral correspondence."""

    @given(valid_fields(), st.fractions(min_value=-6, max_value=6, max_denominator=2))
    @settings(max_examples=15, deadline=None)
    def test_eigenspace_invariance(self, field, x0):
        pair = field.pair
        assert eigenspace_invariance(pair, curve_of(pair.first), x0)

    @given(valid_fields(), st.fractions(min_value=-3, max_value=3, max_denominator=2))
    @settings(max_examples=15, deadline=None)
    def test_fiber_condition_survives_scaling(self, field, c):
        assume(c != 0)
        bundle, first, second = field.pair.bundle, field.pair.first, field.pair.second
        scalar = endo_scalar(bundle, UniPoly.constant(c), 0).entries

        def scale(endo):
            return TwistedEndo(bundle, endo.twist, mat_mul(scalar, endo.entries))

        scaled = HiggsPair(bundle, scale(first), scale(second))
        assert check_fiber_condition(scaled, field.hecke)[0]

    @given(valid_fields(), st.data())
    @settings(max_examples=15, deadline=None)
    def test_constant_conjugation_keeps_fiber_condition_and_chi(self, field, data):
        pair = field.pair
        assume(len(set(pair.bundle.twists)) == 1)
        r = pair.rank
        g = [[F(data.draw(st.integers(-2, 2))) for _ in range(r)] for _ in range(r)]
        identity = [[F(int(i == j)) for j in range(r)] for i in range(r)]
        g_inv = solve_right(g, identity, F(1))
        assume(g_inv is not None)

        def conjugate(endo):
            return TwistedEndo(endo.source, endo.twist, mat_mul(mat_mul(g, endo.entries), g_inv))

        conjugated = HiggsPair(pair.bundle, conjugate(pair.first), conjugate(pair.second))
        assert check_fiber_condition(conjugated, field.hecke)[0]
        assert curve_of(conjugated.first).chi == curve_of(pair.first).chi

    @given(valid_fields())
    @settings(max_examples=15, deadline=None)
    def test_companion_model_round_trip(self, field):
        # forward, then backward to the companion model, then forward again
        assume(is_integral(curve_of(field.pair.first))[0])
        spectral = forward_correspondence(field)
        assume(spectral.psi_denominator == UniPoly.one())
        try:
            companion = backward_correspondence(spectral, field.hecke)
        except DegreeBoundError:
            assume(False)
        assert forward_correspondence(companion) == spectral
