import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckehiggs.errors import ValidationError
from heckehiggs.factor import (
    factor_rationals,
    geometric_factor_warning,
    irreducible_over_function_field,
    is_irreducible_rational,
)
from heckehiggs.poly import BiPoly, UniPoly, parse_bipoly, parse_unipoly
from oracles import rational_roots
from test_poly import sylvester_det_oracle

X = UniPoly.variable()


def remultiply(content, factors):
    out = UniPoly.constant(content)
    for g, m in factors:
        out = out * g**m
    return out


class TestRationalRoots:
    def test_simple(self):
        roots = dict(rational_roots((X - 1) * (X + 2) * (2 * X - 1)))
        assert roots == {Fraction(1): 1, Fraction(-2): 1, Fraction(1, 2): 1}

    def test_multiplicity(self):
        roots = dict(rational_roots((X - 3) ** 2 * X))
        assert roots == {Fraction(3): 2, Fraction(0): 1}

    def test_no_roots(self):
        assert rational_roots(X**2 + 1) == []

    def test_huge_root(self):
        roots = dict(rational_roots((X - 10**30) * (X + 3)))
        assert roots == {Fraction(10**30): 1, Fraction(-3): 1}

    def test_huge_constant_without_roots(self):
        assert rational_roots(X**2 - (10**40 + 7)) == []


class TestFactorRationals:
    def test_difference_of_squares(self):
        content, factors = factor_rationals(parse_unipoly("x^2 - 1"))
        assert content == 1
        assert factors == [(X - 1, 1), (X + 1, 1)]

    def test_irreducible_quadratic(self):
        content, factors = factor_rationals(parse_unipoly("x^2 - 2"))
        assert factors == [(parse_unipoly("x^2 - 2"), 1)]

    def test_monomial(self):
        _, factors = factor_rationals(X**2)
        assert factors == [(X, 2)]

    def test_quartic_without_rational_roots(self):
        p = (X**2 + 1) * (X**2 + 2)
        content, factors = factor_rationals(p)
        assert remultiply(content, factors) == p
        assert sorted(g.degree for g, _ in factors) == [2, 2]

    def test_content_preserved(self):
        p = (2 * X + 1) * (3 * X - 1) * Fraction(5, 7)
        content, factors = factor_rationals(p)
        assert remultiply(content, factors) == p
        assert all(g.leading() == 1 for g, _ in factors)

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            factor_rationals(UniPoly.zero())

    def test_degree_nine(self):
        p = X**9 + X + 1
        content, factors = factor_rationals(p)
        assert remultiply(content, factors) == p
        assert factors == [(p, 1)]

    def test_swinnerton_dyer_is_irreducible(self):
        # the minimal polynomial of sqrt(2) + sqrt(3) + sqrt(5): it splits
        # into factors of degree at most 2 modulo every prime
        p = parse_unipoly("x^8 - 40*x^6 + 352*x^4 - 960*x^2 + 576")
        assert factor_rationals(p) == (1, [(p, 1)])

    def test_square_of_a_quartic(self):
        q = parse_unipoly("x^4 + 1234*x^3 - 567*x^2 + 8901*x - 2345")
        assert factor_rationals(q * q) == (1, [(q, 2)])

    def test_large_coefficient_fiber_is_irreducible(self):
        p = parse_unipoly("x^4 + 5*x^3 + 62*x^2 - 68*x + 990")
        assert factor_rationals(p) == (1, [(p, 1)])

    def test_closure_on_random_products(self):
        rng = random.Random(5)
        pool = [
            X - 1,
            X + 2,
            2 * X + 1,
            X**2 + 1,
            X**2 - 3,
            X**2 + X + 1,
            X**3 + X + 1,
        ]
        for _ in range(25):
            p = UniPoly.constant(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3)):
                p = p * rng.choice(pool)
            content, factors = factor_rationals(p)
            assert remultiply(content, factors) == p
            for g, _ in factors:
                assert is_irreducible_rational(g)


@st.composite
def eisenstein(draw):
    """A polynomial irreducible over Q by Eisenstein's criterion at 2 or 3,
    shifted by x -> x + c."""
    prime = draw(st.sampled_from([2, 3]))
    degree = draw(st.integers(1, 5))
    unit = st.integers(-9, 9).filter(lambda a: a % prime)
    coeffs = [prime * draw(unit)]
    coeffs += [prime * draw(st.integers(-9, 9)) for _ in range(degree - 1)]
    coeffs.append(draw(unit))
    return UniPoly(coeffs).shift(draw(st.integers(-5, 5)))


class TestFactorOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(eisenstein(), st.integers(1, 3)), min_size=1, max_size=6),
        st.fractions(min_value=-50, max_value=50, max_denominator=9).filter(bool),
    )
    def test_products_of_eisenstein_polynomials(self, drawn, content):
        p, expected, degree = UniPoly.constant(content), {}, 0
        for g, mult in drawn:
            if degree + g.degree * mult > 16:
                continue
            degree += g.degree * mult
            p = p * g**mult
            key = g.monic()
            expected[key] = expected.get(key, 0) + mult
        got_content, factors = factor_rationals(p)
        assert remultiply(got_content, factors) == p
        assert dict(factors) == expected
        assert len(factors) == len(expected)
        assert factors == sorted(factors, key=lambda fm: (fm[0].degree, fm[0].coeffs))


class TestFunctionFieldIrreducibility:
    def test_irreducible_basic(self):
        verdict, cert = irreducible_over_function_field(parse_bipoly("t^2 - x"))
        assert verdict is True
        assert cert["kind"] in ("irreducible_specialization", "exhausted_search")

    def test_constructed_reducible(self):
        chi = parse_bipoly("t - x") * parse_bipoly("t - x - 1")
        verdict, cert = irreducible_over_function_field(chi)
        assert verdict is False
        factor = parse_bipoly(cert["factor"])
        _, rem = chi.divmod_t(factor)
        assert rem.is_zero()

    def test_difference_of_squares(self):
        verdict, cert = irreducible_over_function_field(parse_bipoly("t^2 - x^2"))
        assert verdict is False

    def test_square(self):
        verdict, cert = irreducible_over_function_field(parse_bipoly("t^2"))
        assert verdict is False

    def test_cubics(self):
        assert irreducible_over_function_field(parse_bipoly("t^3 - x"))[0] is True
        chi = parse_bipoly("t^2 - x") * parse_bipoly("t - x^2")
        verdict, cert = irreducible_over_function_field(chi)
        assert verdict is False
        factor = parse_bipoly(cert["factor"])
        assert chi.divmod_t(factor)[1].is_zero()

    def test_requires_monic(self):
        with pytest.raises(ValidationError):
            irreducible_over_function_field(parse_bipoly("x*t - 1"))

    def test_degree_one(self):
        assert irreducible_over_function_field(parse_bipoly("t - x^3"))[0] is True

    def test_specialization_prefilter_is_sound(self):
        # reducible over Q(x) but with many irreducible specializations:
        # the curve t^2 - x^2 specializes reducibly everywhere, while
        # t^2 - (x^2+1) has irreducible specializations at most integers;
        # both verdicts must be exact
        assert irreducible_over_function_field(parse_bipoly("t^2 - x^2"))[0] is False
        assert irreducible_over_function_field(parse_bipoly("t^2 - x^2 - 1"))[0] is True

    def test_quartic_split_into_quadratics(self):
        chi = parse_bipoly("t^2 - x") * parse_bipoly("t^2 - x - 1")
        verdict, cert = irreducible_over_function_field(chi)
        assert verdict is False
        factor = parse_bipoly(cert["factor"])
        assert factor.t_degree == 2
        assert chi.divmod_t(factor)[1].is_zero()


class TestSquarefreeOverFunctionField:
    # the irreducibility test reports a vanishing discriminant as its own kind
    def test_squarefree(self):
        _, cert = irreducible_over_function_field(parse_bipoly("t^2 - x"))
        assert cert["kind"] != "repeated_factor"

    def test_square_detected(self):
        for text, factor in (("t^2 - 2*x*t + x^2", "t - x"), ("t^2", "t")):
            verdict, cert = irreducible_over_function_field(parse_bipoly(text))
            assert verdict is False
            assert cert["kind"] == "repeated_factor"
            assert parse_bipoly(cert["factor"]) == parse_bipoly(factor)


def walk_points():
    """0, -1, 1, -2, 2, ...: the points x0 the specialization walk visits."""
    k = 0
    while True:
        yield Fraction((k + 1) // 2 * (1 if k % 2 == 0 else -1))
        k += 1


def probed_points(chi):
    """irreducible_over_function_field(chi) with the points x0 it specializes
    chi at, in order."""
    probes = []
    at_x = BiPoly.at_x

    def recording(self, x0):
        probes.append(x0)
        return at_x(self, x0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BiPoly, "at_x", recording)
        verdict, cert = irreducible_over_function_field(chi)
    return verdict, cert, probes


@st.composite
def monic_in_t(draw):
    """A monic chi of t-degree 2-4 with coefficients of x-degree at most 2;
    about half of them carry a squared factor."""
    coeff = st.lists(st.integers(-3, 3), max_size=3).map(UniPoly)

    def monic(degree):
        return BiPoly(tuple(draw(coeff) for _ in range(degree)) + (UniPoly.one(),))

    r = draw(st.integers(2, 4))
    if draw(st.booleans()):
        g = monic(draw(st.integers(1, r // 2)))
        return g * g * monic(r - 2 * g.t_degree)
    return monic(r)


class TestSpecializationWalk:
    # x0 is the first walk point where the discriminant along t, computed
    # here by the Laplace oracle, does not vanish
    @settings(max_examples=40, deadline=None)
    @given(monic_in_t())
    def test_first_point_off_the_discriminant(self, chi):
        dchi = chi.derivative_t()
        disc = sylvester_det_oracle(chi.tcoeffs, dchi.tcoeffs)
        verdict, cert, probes = probed_points(chi)
        if disc == 0:
            assert cert["kind"] == "repeated_factor"
            assert verdict is False
            assert len(probes) == (2 * chi.t_degree - 1) * chi.x_degree + 1
            return
        assert cert["kind"] != "repeated_factor"
        expected = next(x0 for x0 in walk_points() if disc.evaluate(x0) != 0)
        assert probes[-1] == expected
        assert probes == [x0 for x0, _ in zip(walk_points(), probes)]
        if "x0" in cert:
            assert cert["x0"] == str(expected)

    def test_skips_the_discriminant_roots(self):
        # disc = 4 x^2 (x + 1) vanishes at 0 and -1
        verdict, cert, probes = probed_points(parse_bipoly("t^2 - x^3 - x^2"))
        assert verdict is True
        assert cert["kind"] == "irreducible_specialization"
        assert cert["x0"] == "1"
        assert probes == [0, -1, 1]

    def test_constant_in_x_takes_one_probe(self):
        verdict, cert, probes = probed_points(parse_bipoly("t^2"))
        assert verdict is False
        assert cert == {"kind": "repeated_factor", "factor": "t"}
        assert len(probes) == 1

    def test_repeated_factor_after_the_degree_bound(self):
        # (2r - 1) * deg_x chi + 1 = (2*3 - 1) * 2 + 1 probes
        chi = parse_bipoly("t - x") ** 2 * parse_bipoly("t + 1")
        verdict, cert, probes = probed_points(chi)
        assert verdict is False
        assert cert["kind"] == "repeated_factor"
        assert parse_bipoly(cert["factor"]) == parse_bipoly("t - x")
        assert len(probes) == 11


class TestGeometricWarning:
    def test_sum_of_squares_warns(self):
        assert geometric_factor_warning(parse_bipoly("t^2 + x^2")) is not None

    def test_truly_geometric_irreducible(self):
        assert geometric_factor_warning(parse_bipoly("t^2 + x^2 + 1")) is None

    def test_irreducible_over_closure(self):
        assert geometric_factor_warning(parse_bipoly("t^2 - x")) is None
