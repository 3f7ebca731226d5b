import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckehiggs import factor
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
        assert cert["kind"] in ("irreducible_specialization", "degree_sets", "exhausted_search")

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
    chi at, in order, and the specialization factors it Hensel-lifts."""
    probes, lifted = [], []
    at_x, hensel_lift = BiPoly.at_x, factor._hensel_lift

    def recording(self, x0):
        probes.append(x0)
        return at_x(self, x0)

    def lifting(shifted, g0, h0, precision):
        lifted.append(g0)
        return hensel_lift(shifted, g0, h0, precision)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BiPoly, "at_x", recording)
        mp.setattr(factor, "_hensel_lift", lifting)
        verdict, cert = irreducible_over_function_field(chi)
    return verdict, cert, probes, lifted


def certificate_points(cert):
    """The points x0 a certificate names, in its order."""
    if cert["kind"] == "degree_sets":
        return [point["x0"] for point in cert["points"]]
    return [cert["x0"]] if "x0" in cert else []


def subset_sums(degrees):
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def monic_of_t_degree(draw, degree):
    """A chi monic of the given t-degree with coefficients of x-degree at
    most 2."""
    coeff = st.lists(st.integers(-3, 3), max_size=3).map(UniPoly)
    return BiPoly(tuple(draw(coeff) for _ in range(degree)) + (UniPoly.one(),))


@st.composite
def monic_in_t(draw):
    """A monic chi of t-degree 2-4 with coefficients of x-degree at most 2;
    about half of them carry a squared factor."""
    r = draw(st.integers(2, 4))
    if draw(st.booleans()):
        g = monic_of_t_degree(draw, draw(st.integers(1, r // 2)))
        return g * g * monic_of_t_degree(draw, r - 2 * g.t_degree)
    return monic_of_t_degree(draw, r)


class TestSpecializationWalk:
    # the squarefree points are the walk points where the discriminant along
    # t, computed here by the Laplace oracle, does not vanish
    @settings(max_examples=40, deadline=None)
    @given(monic_in_t())
    def test_first_point_off_the_discriminant(self, chi):
        dchi = chi.derivative_t()
        disc = sylvester_det_oracle(chi.tcoeffs, dchi.tcoeffs)
        verdict, cert, probes, _ = probed_points(chi)
        assert probes == [x0 for x0, _ in zip(walk_points(), probes)]
        if disc == 0:
            assert cert["kind"] == "repeated_factor"
            assert verdict is False
            assert len(probes) == (2 * chi.t_degree - 1) * chi.x_degree + 1
            return
        assert cert["kind"] != "repeated_factor"
        squarefree = [str(x0) for x0 in probes if disc.evaluate(x0) != 0]
        expected = next(x0 for x0 in walk_points() if disc.evaluate(x0) != 0)
        assert squarefree[0] == str(expected)
        named = certificate_points(cert)
        assert all(x0 in squarefree for x0 in named)
        positions = [squarefree.index(x0) for x0 in named]
        assert positions == sorted(set(positions))

    def test_skips_the_discriminant_roots(self):
        # disc = 4 x^2 (x + 1) vanishes at 0 and -1
        verdict, cert, probes, _ = probed_points(parse_bipoly("t^2 - x^3 - x^2"))
        assert verdict is True
        assert cert["kind"] == "irreducible_specialization"
        assert cert["x0"] == "1"
        assert probes == [0, -1, 1]

    def test_constant_in_x_takes_one_probe(self):
        verdict, cert, probes, _ = probed_points(parse_bipoly("t^2"))
        assert verdict is False
        assert cert == {"kind": "repeated_factor", "factor": "t"}
        assert len(probes) == 1
        # every point gives the same degrees, so the walk stops at the first
        verdict, cert, probes, _ = probed_points(parse_bipoly("t^2 - 1"))
        assert verdict is False
        assert cert["kind"] == "factor"
        assert probes == [0]

    def test_repeated_factor_after_the_degree_bound(self):
        # (2r - 1) * deg_x chi + 1 = (2*3 - 1) * 2 + 1 probes
        chi = parse_bipoly("t - x") ** 2 * parse_bipoly("t + 1")
        verdict, cert, probes, _ = probed_points(chi)
        assert verdict is False
        assert cert["kind"] == "repeated_factor"
        assert parse_bipoly(cert["factor"]) == parse_bipoly("t - x")
        assert len(probes) == 11


@st.composite
def products(draw):
    """g * h with g and h monic in t, of t-degree 1-3 each."""
    return monic_of_t_degree(draw, draw(st.integers(1, 3))) * monic_of_t_degree(
        draw, draw(st.integers(1, 3))
    )


@st.composite
def eisenstein_at_x(draw):
    """t^r + x * u(x, t) + x with deg_t u < r and u(0, 0) != -1: Eisenstein at
    the prime x of Q[x], so irreducible over Q(x)."""
    r = draw(st.integers(2, 6))
    u = monic_of_t_degree(draw, r).tcoeffs[:-1]
    if u[0].coeff(0) == -1:
        u = (u[0] + UniPoly.one(),) + u[1:]
    tail = tuple(X * c for c in u)
    return BiPoly((tail[0] + X,) + tail[1:] + (UniPoly.one(),))


class TestDegreeSets:
    # irreducible_over_function_field against curves whose answer is known
    # by construction; every degree_sets witness is replayed, and a spy on
    # _hensel_lift sees only the degrees the walked points leave open
    def decide(self, chi):
        verdict, cert, probes, lifted = probed_points(chi)
        r = chi.t_degree
        squarefree = []
        for x0 in probes:
            spec = chi.at_x(x0)
            if spec.gcd(spec.derivative()).degree == 0:
                squarefree.append(spec)
        open_degrees = set(range(r + 1))
        for spec in squarefree:
            open_degrees &= subset_sums(g.degree for g, _ in factor_rationals(spec)[1])
        lifted = sorted({g0.degree for g0 in lifted})
        assert set(lifted) <= {d for d in open_degrees if 0 < d <= r // 2}
        if cert["kind"] == "degree_sets":
            points = cert["points"]
            assert 2 <= len(points) == len(squarefree) <= 3
            sums = set(range(r + 1))
            for point, spec in zip(points, squarefree):
                replayed = chi.at_x(Fraction(point["x0"]))
                assert replayed == spec
                assert replayed.gcd(replayed.derivative()).degree == 0
                _, factors = factor_rationals(replayed)
                assert [g.degree for g, mult in factors] == point["degrees"]
                assert all(mult == 1 for _, mult in factors)
                sums &= subset_sums(point["degrees"])
            assert sums == {0, r}
            assert lifted == []
        if cert["kind"] == "exhausted_search":
            assert cert["degrees_searched"] == lifted
        return verdict, cert

    @settings(max_examples=40, deadline=None)
    @given(products())
    def test_products_are_refused_with_a_dividing_factor(self, chi):
        verdict, cert = self.decide(chi)
        assert verdict is False
        assert cert["kind"] in ("factor", "repeated_factor")
        g = parse_bipoly(cert["factor"])
        assert 0 < g.t_degree < chi.t_degree
        assert chi.divmod_t(g)[1].is_zero()

    @settings(max_examples=40, deadline=None)
    @given(eisenstein_at_x())
    def test_eisenstein_curves_are_accepted(self, chi):
        verdict, cert = self.decide(chi)
        assert verdict is True
        assert cert["kind"] in ("irreducible_specialization", "degree_sets", "exhausted_search")

    def test_two_reducible_points_separate(self):
        # degrees [1, 3] and [2, 2] leave only {0, 4}: no point is irreducible
        chi = parse_bipoly("t^4 - 3*x*t - 2*x")
        verdict, cert = self.decide(chi)
        assert verdict is True
        assert cert == {
            "kind": "degree_sets",
            "points": [{"x0": "-1", "degrees": [1, 3]}, {"x0": "1", "degrees": [2, 2]}],
        }

    def test_search_runs_at_the_point_with_fewest_factors(self):
        # chi(1, t) = (t - 1)(t + 1)(t^2 - 2), chi(-2, t) = (t^2 + 1)(t^2 + 2):
        # degree 1 is closed, and the lift starts at x0 = -2
        chi = parse_bipoly("t^2 - x") * parse_bipoly("t^2 - x - 1")
        verdict, cert, probes, lifted = probed_points(chi)
        assert verdict is False
        assert probes == [0, -1, 1, -2, 2]
        assert len(lifted) == 1
        assert lifted[0] in (X**2 + 1, X**2 + 2)
        assert self.decide(chi) == (verdict, cert)

    def test_degrees_closed_by_a_later_point_are_not_searched(self):
        # degrees [1, 1, 4] at x0 = 0 and -2, [2, 2, 2] at x0 = -1: degree 1
        # is a subset sum at the search point x0 = 0 but closed at x0 = -1
        chi = parse_bipoly("t^2 - 2*x^2 - 1") * parse_bipoly("t^4 + 2*x - 2")
        verdict, cert, probes, lifted = probed_points(chi)
        assert verdict is False
        assert cert == {"kind": "factor", "factor": "t^2 - 2*x^2 - 1"}
        assert probes == [0, -1, 1, -2]
        assert lifted == [X**2 - 1]
        assert self.decide(chi) == (verdict, cert)

    def test_patterns_that_never_separate_fall_back_to_the_search(self):
        # irreducible, but its discriminant along t is a square at x0 = 0, -1
        # and 1, where chi splits into two linear factors
        chi = parse_bipoly("t^2 - 3*x^2*t - x*t - 3*t - 4*x^4 - 10*x^3 + 4*x^2 + 6*x - 4")
        verdict, cert = self.decide(chi)
        assert verdict is True
        assert cert == {"kind": "exhausted_search", "x0": "0", "degrees_searched": [1]}

    @pytest.mark.parametrize("r", [9, 12, 16])
    def test_companion_family_needs_no_divisor_search(self, r):
        # chi = t(t - 1)...(t - r + 1) + x is linear in x, so irreducible, and
        # splits into r linear factors at x0 = 0: a divisor search there has
        # 2^(r - 1) candidates
        falling = BiPoly.one()
        for k in range(r):
            falling = falling * (BiPoly.t() - k)
        chi = falling + BiPoly.from_unipoly(X)

        def no_search(*args):
            raise AssertionError("Hensel divisor search reached")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(factor, "_hensel_lift", no_search)
            verdict, cert = irreducible_over_function_field(chi)
        assert verdict is True
        assert cert["kind"] == "degree_sets"
        assert cert["points"][0] == {"x0": "0", "degrees": [1] * r}


class TestGeometricWarning:
    def test_sum_of_squares_warns(self):
        assert geometric_factor_warning(parse_bipoly("t^2 + x^2")) is not None

    def test_truly_geometric_irreducible(self):
        assert geometric_factor_warning(parse_bipoly("t^2 + x^2 + 1")) is None

    def test_irreducible_over_closure(self):
        assert geometric_factor_warning(parse_bipoly("t^2 - x")) is None
