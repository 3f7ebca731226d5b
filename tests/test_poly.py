import typing
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from heckehiggs import poly
from heckehiggs.errors import ParseError, ValidationError
from heckehiggs.numfield import NumberField, NumberFieldElement
from heckehiggs.poly import (
    BiPoly,
    RationalFunction,
    UniPoly,
    bipoly_gcd_t,
    format_bipoly,
    format_unipoly,
    parse_bipoly,
    parse_unipoly,
)
from oracles import at_t, gcd_t_over_qx

X = UniPoly.variable()


def sylvester_rows(p, q):
    """Sylvester matrix rows of two polynomials given by ascending coefficient
    sequences (Fractions, or UniPoly in x for polynomials in t).  None when
    either polynomial is zero; [] when both are nonzero constants."""
    if not p or not q:
        return None
    m, n = len(p) - 1, len(q) - 1
    zero = Fraction(0) if isinstance(p[0], Fraction) else UniPoly.zero()
    rows = []
    for coeffs, shifts in ((p, n), (q, m)):
        for k in range(shifts):
            row = [zero] * (m + n)
            for j, c in enumerate(reversed(coeffs)):
                row[k + j] = c
            rows.append(row)
    return rows


def resultant_t(p: BiPoly, q: BiPoly) -> UniPoly:
    """Resultant along t, an element of Q[x]: the fraction-free determinant
    of the Sylvester matrix, 0 when either polynomial is zero."""
    rows = sylvester_rows(p.tcoeffs, q.tcoeffs)
    return UniPoly.zero() if rows is None else poly._det_unipoly(rows)


def laplace_det(mat):
    """Determinant by Laplace expansion along the first row: the oracle of
    the fraction-free determinant.  Entries are Fractions or UniPoly; the
    empty matrix has determinant 1."""
    if not mat:
        return 1
    if len(mat) == 1:
        return mat[0][0]
    total = mat[0][0] * 0
    for j, entry in enumerate(mat[0]):
        if entry == 0:
            continue
        term = entry * laplace_det([row[:j] + row[j + 1 :] for row in mat[1:]])
        total = total - term if j % 2 else total + term
    return total


def sylvester_det_oracle(p, q):
    """Independent resultant oracle: Laplace expansion of the Sylvester
    matrix of two ascending coefficient sequences (Fraction or UniPoly
    entries); None when either polynomial is zero."""
    rows = sylvester_rows(p, q)
    if rows is None:
        return None
    if not rows:
        return Fraction(1)
    return laplace_det(rows)


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def unipolys(max_degree=4):
    return st.lists(rationals, min_size=0, max_size=max_degree + 1).map(UniPoly)


class TestUniPolyArithmetic:
    def test_divrem_worked_example(self):
        q, r = divmod(X**3, X - 2)
        assert q == X**2 + 2 * X + 4
        assert r == UniPoly.constant(8)
        assert q * (X - 2) + r == X**3

    def test_gcd_common_factor(self):
        assert (X**2 - 1).gcd(X - 1) == X - 1

    def test_gcd_is_monic(self):
        g = (2 * X**2 - 2).gcd(4 * X - 4)
        assert g.leading() == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(X, UniPoly.zero())

    @given(unipolys(), unipolys())
    def test_divmod_remultiplies(self, p, q):
        if q.is_zero():
            return
        quo, rem = divmod(p, q)
        assert quo * q + rem == p
        assert rem.degree < q.degree or rem.is_zero()

    @given(unipolys(3), unipolys(3), unipolys(3))
    def test_distributivity(self, p, q, r):
        assert (p + q) * r == p * r + q * r

    @given(unipolys(3), unipolys(3))
    def test_gcd_divides_both(self, p, q):
        g = p.gcd(q)
        if g.is_zero():
            assert p.is_zero() and q.is_zero()
            return
        assert (p % g).is_zero()
        assert (q % g).is_zero()

    def test_xgcd_bezout(self):
        g, u, v = (X**2 - 1).xgcd(X**2 - 2 * X + 1)
        assert u * (X**2 - 1) + v * (X**2 - 2 * X + 1) == g
        assert g == X - 1

    def test_evaluate(self):
        p = X**2 + Fraction(1, 2)
        assert p.evaluate(Fraction(2)) == Fraction(9, 2)

    def test_compose_and_shift(self):
        p = X**2
        assert p.shift(1) == X**2 + 2 * X + 1
        assert p.compose(X + 1).evaluate(Fraction(0)) == 1

    def test_interpolate(self):
        pts = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)), (Fraction(2), Fraction(5))]
        f = UniPoly.interpolate(pts)
        for x0, y0 in pts:
            assert f.evaluate(x0) == y0


class TestResultant:
    # resultants along t through the Sylvester determinant over Q[x]
    # (``_det_unipoly``), checked against the Laplace oracle
    def test_res_t_of_tsquared_minus_x(self):
        chi = parse_bipoly("t^2 - x")
        assert resultant_t(chi, BiPoly.t()) == -X

    def test_res_unit_second_argument(self):
        p = parse_bipoly("t^3 - x*t + 1")
        assert resultant_t(p, BiPoly.one()) == UniPoly.one()

    def test_res_two_lines(self):
        r = resultant_t(parse_bipoly("t - x"), parse_bipoly("t - x - 1"))
        assert r == UniPoly.constant(-1)

    # a polynomial over Q, read in t with constant coefficients: its
    # resultant along t is the scalar resultant; a zero polynomial gives 0
    # and two nonzero constants give 1
    @given(unipolys(3), unipolys(3))
    @settings(max_examples=40)
    def test_matches_sylvester_oracle(self, p, q):
        oracle = sylvester_det_oracle(p.coeffs, q.coeffs)
        got = resultant_t(BiPoly(p.coeffs), BiPoly(q.coeffs))
        assert got == (0 if oracle is None else oracle)

    def test_bivariate_matches_oracle(self):
        chi = parse_bipoly("t^2 - x")
        dchi = chi.derivative_t()
        assert resultant_t(chi, dchi) == sylvester_det_oracle(chi.tcoeffs, dchi.tcoeffs)

    def test_common_root_gives_zero(self):
        assert resultant_t(BiPoly((X**2 - 1).coeffs), BiPoly((X - 1).coeffs)) == 0


# entries of the determinant property: coefficients up to 10^30 over
# denominators up to 10^6, with zero entries drawn often
wide_entries = st.one_of(
    st.just(UniPoly.zero()),
    st.lists(
        st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**6)),
        max_size=3,
    ).map(UniPoly),
)


@st.composite
def square_matrices(draw):
    """Matrices over Q[x] of size n <= 5; one row may be zero, a copy of
    another, or a Q[x]-combination of two others (singular).  The
    `full-height` shape makes every coefficient +-10^30, so the determinant's
    coefficients come near the packing bound n! * L^(n-1) * H^n."""
    n = draw(st.integers(0, 5))
    shape = draw(
        st.sampled_from(["plain", "full-height", "zero-row", "repeated-row", "combination"])
    )
    if shape == "full-height":
        signs = st.lists(st.sampled_from([-(10**30), 10**30]), min_size=3, max_size=3)
        return [[UniPoly(draw(signs)) for _ in range(n)] for _ in range(n)]
    rows = [draw(st.lists(wide_entries, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 3 and shape != "plain":
        i, j, k = draw(st.permutations(range(n)))[:3]
        if shape == "zero-row":
            rows[i] = [UniPoly.zero()] * n
        elif shape == "repeated-row":
            rows[i] = list(rows[j])
        else:
            u, v = draw(wide_entries), draw(wide_entries)
            rows[i] = [u * a + v * b for a, b in zip(rows[j], rows[k])]
    return rows


# (s, digits) with every digit strictly inside +-2^(s-1)
digit_lists = st.integers(2, 80).flatmap(
    lambda s: st.tuples(
        st.just(s), st.lists(st.integers(-(2 ** (s - 1) - 1), 2 ** (s - 1) - 1), max_size=8)
    )
)


class TestDeterminantKernel:
    @given(square_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_laplace_oracle(self, rows):
        assert poly._det_unipoly(rows) == laplace_det(rows)

    def test_clear_row_scales_by_the_lcm(self):
        lists, den = poly._clear_row([UniPoly((Fraction(1, 4), Fraction(-1, 6))), UniPoly.zero()])
        assert den == 12 and lists == [[3, -2], []]

    @given(digit_lists)
    @settings(max_examples=200)
    def test_unpack_inverts_pack(self, case):
        s, digits = case
        while digits and digits[-1] == 0:
            digits = digits[:-1]
        assert poly._unpack(poly._pack(digits, s), s) == digits

    @pytest.mark.parametrize("s", [2, 3, 8, 64, 65])
    def test_unpack_inverts_pack_at_the_extreme_digits(self, s):
        top = 2 ** (s - 1) - 1
        for digits in ([top] * 5, [-top] * 5, [top, -top] * 3, [-top, 0, top], [0, 0, -top]):
            assert poly._unpack(poly._pack(digits, s), s) == digits


class TestAnnotations:
    @pytest.mark.parametrize(
        "function",
        [UniPoly.__init__, UniPoly.interpolate, BiPoly.__init__],
        ids=["UniPoly.__init__", "UniPoly.interpolate", "BiPoly.__init__"],
    )
    def test_type_hints_resolve(self, function):
        assert typing.get_type_hints(function)


SQRT2 = NumberField(UniPoly((-2, 0, 1)))


class TestPower:
    @pytest.mark.parametrize(
        "base, one",
        [
            (X - Fraction(3, 2), UniPoly.one()),
            (parse_bipoly("t^2 - x*t + 1/2"), BiPoly.one()),
            (SQRT2.element(UniPoly((1, 1))), SQRT2.one()),
        ],
        ids=["UniPoly", "BiPoly", "NumberFieldElement"],
    )
    def test_power_is_the_repeated_product(self, base, one):
        product = one
        for n in range(6):
            assert base**n == product
            product = product * base
        if isinstance(base, NumberFieldElement):
            assert base**-2 * base**2 == one
        else:
            with pytest.raises(ValueError):
                base**-1


class TestSqrt:
    @given(unipolys(2))
    def test_square_roundtrip(self, p):
        sq = p * p
        r = sq.sqrt()
        assert r is not None
        assert r * r == sq

    def test_non_squares(self):
        assert (X**2 + 1).sqrt() is None
        assert (X**3).sqrt() is None
        assert (2 * X**2).sqrt() is None


class TestBiPoly:
    def test_substitution_at_t(self):
        assert at_t(parse_bipoly("t^2 - x"), 0) == -X

    def test_specialize_x(self):
        spec = parse_bipoly("t^2 - x").at_x(Fraction(4))
        assert spec == UniPoly((-4, 0, 1))

    def test_divmod_t_requires_unit_lead(self):
        with pytest.raises(ValueError):
            parse_bipoly("t^2").divmod_t(parse_bipoly("x*t - 1"))

    def test_divmod_t_remultiplies(self):
        p = parse_bipoly("t^4 - x*t^2 + 3")
        d = parse_bipoly("t^2 - x")
        q, r = p.divmod_t(d)
        assert q * d + r == p
        assert r.t_degree < d.t_degree

    def test_gcd_t(self):
        g = bipoly_gcd_t(parse_bipoly("t^2 - x^2"), parse_bipoly("t^2 - 2*x*t + x^2"))
        assert g == parse_bipoly("t - x")


def bipolys(t_degree: int, lead):
    """A BiPoly of the given t-degree with coefficients of x-degree at most
    2 in `rationals`, over the top t-coefficient drawn from `lead`."""
    coeff = st.lists(rationals, max_size=3).map(UniPoly)
    return st.tuples(st.lists(coeff, min_size=t_degree, max_size=t_degree), lead).map(
        lambda drawn: BiPoly((*drawn[0], drawn[1]))
    )


def monic_bipolys(min_degree: int, max_degree: int):
    return st.integers(min_degree, max_degree).flatmap(
        lambda d: bipolys(d, st.just(UniPoly.one()))
    )


nonzero_rationals = rationals.filter(bool).map(UniPoly.constant)


@st.composite
def repeated_factor_products(draw):
    """(g, g^2 * h) with g and h monic in t and t-degree at most 4."""
    g = draw(monic_bipolys(1, 2))
    return g, g * g * draw(monic_bipolys(0, 2 - g.t_degree))


@st.composite
def pairs_with_a_common_factor(draw):
    """(u1 * c * h1, u2 * c * h2): u1, u2 nonzero in Q[x], c of t-degree 1-2
    with a constant top t-coefficient, h1 monic in t, h2 with any top
    t-coefficient; every t-degree is at most 4."""
    c = draw(st.integers(1, 2).flatmap(lambda d: bipolys(d, nonzero_rationals)))
    room = 4 - c.t_degree
    h1 = draw(monic_bipolys(0, room))
    h2 = draw(st.integers(0, room).flatmap(lambda d: bipolys(d, unipolys(2).filter(bool))))
    u1, u2 = (draw(unipolys(1).filter(bool)) for _ in range(2))
    return u1 * c * h1, u2 * c * h2


class TestGcdT:
    # the primitive pseudo-remainder sequence against Euclid over Q(x): the
    # same associate, primitive with a monic top t-coefficient, dividing both
    def assert_gcd(self, p, q):
        g = bipoly_gcd_t(p, q)
        assert g == gcd_t_over_qx(p, q)
        assert g.tcoeffs[-1].leading() == 1
        for u in (p, q):
            assert u.divmod_t(g)[1].is_zero()
        return g

    @given(repeated_factor_products())
    @settings(max_examples=40, deadline=None)
    def test_repeated_factor_of_a_monic_product(self, drawn):
        factor, chi = drawn
        g = self.assert_gcd(chi, chi.derivative_t())
        assert g.divmod_t(factor)[1].is_zero()

    @given(pairs_with_a_common_factor())
    @settings(max_examples=40, deadline=None)
    def test_non_monic_pairs(self, pair):
        self.assert_gcd(*pair)

    def test_non_constant_top_coefficient(self):
        # the gcd x*t - 1 is primitive; its top t-coefficient x is monic
        common = parse_bipoly("-2*x*t + 2")
        p = common * parse_bipoly("3*x^2*t + x")
        q = common * parse_bipoly("t^2 - 2") * Fraction(1, 3)
        assert bipoly_gcd_t(p, q) == parse_bipoly("x*t - 1") == gcd_t_over_qx(p, q)

    @pytest.mark.parametrize(
        "p, q, expected",
        [("0", "0", "0"), ("0", "2*x*t - 4*x", "t - 2"), ("x*t", "3*x", "1")],
    )
    def test_zero_and_content(self, p, q, expected):
        p, q = parse_bipoly(p), parse_bipoly(q)
        assert bipoly_gcd_t(p, q) == parse_bipoly(expected) == gcd_t_over_qx(p, q)
        assert bipoly_gcd_t(q, p) == parse_bipoly(expected)


class TestRationalFunction:
    def test_reduction(self):
        rf = RationalFunction(X**2 - 1, X - 1)
        assert rf == RationalFunction(X + 1)
        assert rf.is_polynomial()

    def test_arithmetic(self):
        one_over_x = RationalFunction(UniPoly.one(), X)
        assert one_over_x + one_over_x == RationalFunction(UniPoly.constant(2), X)
        assert one_over_x * RationalFunction(X) == RationalFunction.one()

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(X, UniPoly.zero())

    def test_evaluate_pole(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(UniPoly.one(), X).evaluate(0)


# a factor of the grammar: a non-negative rational, or x or t with an optional
# exponent (0 included); a term is a product of one to four factors in any order
factors = st.one_of(
    st.fractions(min_value=0, max_value=5, max_denominator=3).map(lambda c: ("num", c)),
    st.tuples(st.sampled_from("xt"), st.none() | st.integers(0, 3)),
)
terms = st.tuples(st.sampled_from("+-"), st.lists(factors, min_size=1, max_size=4))


def _factor_text(factor):
    kind, value = factor
    if kind == "num":
        return str(value)
    return kind if value is None else f"{kind}^{value}"


def _factor_value(factor):
    kind, value = factor
    if kind == "num":
        return BiPoly.constant(value)
    base = BiPoly.from_unipoly(X) if kind == "x" else BiPoly.t()
    return base ** (1 if value is None else value)


class TestGrammar:
    @pytest.mark.parametrize(
        "text",
        ["t^2 - x", "t^2 - 3/2*x*t + 1", "0", "-x", "2*x*t", "x^3 + 1/7", "t", "t + x"],
    )
    def test_roundtrip(self, text):
        assert format_bipoly(parse_bipoly(text)) == text

    def test_whitespace_insensitive(self):
        assert parse_bipoly("t^2-x") == parse_bipoly(" t^2  -  x ")

    @pytest.mark.parametrize(
        "value, digits",
        [(10**4300, 4301), (Fraction(1, 10**4400 - 1), 4400), (-(10**5000) - 1, 5001)],
        ids=["power-of-ten", "denominator", "negative"],
    )
    def test_coefficient_past_the_digit_limit_is_refused(self, value, digits):
        # CPython prints integers of at most 4300 digits
        with pytest.raises(ValidationError, match=f"^a coefficient of {digits} digits "):
            format_unipoly(UniPoly((1, value)))

    @pytest.mark.parametrize("bad", ["t^^2", "", "t^", "1//2", "x+*3", "y", "x**2", "^2"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_bipoly(bad)

    def test_unipoly_rejects_t(self):
        with pytest.raises(ParseError):
            parse_unipoly("t + 1")

    @given(unipolys(4))
    def test_format_parse_identity(self, p):
        assert parse_unipoly(format_unipoly(p)) == p

    @given(
        st.sampled_from(("", "+", "-")),
        st.lists(terms, min_size=1, max_size=6),
        st.booleans(),
    )
    def test_parse_is_sum_of_terms(self, lead, term_list, cancel):
        """parse_bipoly agrees with BiPoly arithmetic on the same terms: like
        terms combine, and with `cancel` the first term is also subtracted."""
        signed = [(lead or "+", term_list[0][1])] + term_list[1:]
        if cancel:
            signed.append(("+" if signed[0][0] == "-" else "-", signed[0][1]))
        bodies = ["*".join(map(_factor_text, factors)) for _, factors in signed]
        text = lead + bodies[0]
        for (sign, _), body in zip(signed[1:], bodies[1:]):
            text += f" {sign} {body}"
        expected = BiPoly.zero()
        for sign, factors in signed:
            product = BiPoly.one()
            for factor in factors:
                product = product * _factor_value(factor)
            expected = expected + product if sign == "+" else expected - product
        assert parse_bipoly(text) == expected

    def test_like_terms_cancel(self):
        assert parse_bipoly("x*t - t*x") == BiPoly.zero()
        assert parse_unipoly("t - t + x") == X

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("", "empty polynomial text"),
            ("   ", "empty polynomial text"),
            ("y", "unexpected character 'y' in 'y'"),
            ("t^", "unexpected end of input in 't^'"),
            ("t^^2", "expected 'num', found '^' in 't^^2'"),
            ("1//2", "expected 'num', found '/' in '1//2'"),
            ("1/0", "zero denominator"),
            ("x+*3", "expected a factor, found '*' in 'x+*3'"),
            ("x-", "expected a factor, found None in 'x-'"),
            ("^2", "expected a factor, found '^' in '^2'"),
            ("x t", "expected '+' or '-', found 't' in 'x t'"),
            ("3/4/5", "expected '+' or '-', found '/' in '3/4/5'"),
        ],
    )
    def test_error_text(self, bad, message):
        with pytest.raises(ParseError) as err:
            parse_bipoly(bad)
        assert str(err.value) == message

    def test_parse_takes_no_products(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(UniPoly, "__mul__", counted("UniPoly.__mul__", UniPoly.__mul__))
        monkeypatch.setattr(BiPoly, "__mul__", counted("BiPoly.__mul__", BiPoly.__mul__))
        monkeypatch.setattr(poly, "_power", counted("_power", poly._power))
        bi = parse_bipoly("3/2*x^40*t^3 - x*t + 7")
        uni = parse_unipoly("x^40 - 2*x*x + 1/3")
        assert calls == []
        assert bi == BiPoly([7, -X, 0, UniPoly.monomial(40, Fraction(3, 2))])
        assert uni == X**40 - 2 * X**2 + Fraction(1, 3)
        assert calls  # the counters see the products the check above takes
