"""Test-side reference implementations: the pointwise number-field forms of
the fiberwise checks the certifier decides over Q, the number-field linear
algebra they run on, Euclid's gcd in t over Q(x), and small algebra helpers
only the tests use."""

from fractions import Fraction

from heckehiggs.errors import ValidationError
from heckehiggs.factor import factor_rationals
from heckehiggs.higgs import ensure_consistent
from heckehiggs.linalg import kernel_basis, mat_eq, mat_is_zero, mat_mul, solve_right
from heckehiggs.numfield import NumberField, NumberFieldElement
from heckehiggs.poly import BiPoly, RationalFunction, UniPoly, format_unipoly
from heckehiggs.projline import evaluate_endo
from heckehiggs.spectral import EigenvalueVerdict, fiber_points


def _mat_pow(mat, n: int):
    result = mat
    for _ in range(n - 1):
        result = mat_mul(result, mat)
    return result


def lift_matrix(mat, field):
    """Coerce a rational matrix into a number field."""
    return tuple(tuple(field.element(e) for e in row) for row in mat)


def generalized_eigenspace(mat, y):
    """Basis of ker((M - y I)^r) over the field of y, a rational or a
    number-field element; rational matrices are lifted into y's field.  An
    empty basis means y is not an eigenvalue."""
    n = len(mat)
    if isinstance(y, NumberFieldElement):
        mat = lift_matrix(mat, y.field)
        one = y.field.one()
    else:
        mat = tuple(tuple(Fraction(e) for e in row) for row in mat)
        one = Fraction(1)
    shifted = tuple(
        tuple(mat[i][j] - (y if i == j else 0) for j in range(n)) for i in range(n)
    )
    return kernel_basis(_mat_pow(shifted, n), one)


def nilpotency_test(mat) -> bool:
    """True iff M^r = 0 with r the matrix dimension."""
    return not mat or mat_is_zero(_mat_pow(mat, len(mat)))


def _restriction(fiber, cols, field):
    """The matrix of `fiber` on the column span of `cols`, or None when the
    span is not invariant."""
    return solve_right(cols, mat_mul(lift_matrix(fiber, field), cols), field.one())


def eigenspace_invariance(pair, curve, x0) -> bool:
    """At x0, every generalized eigenspace of the first component's fiber map
    is preserved by the second's, and the restricted maps commute; one root
    per fiber factor, adjoined in its number field.  `curve` is the spectral
    curve of the first component."""
    x0 = Fraction(x0)
    first_fiber = evaluate_endo(pair.first, x0)
    second_fiber = evaluate_endo(pair.second, x0)
    for point in fiber_points(curve, x0):
        field = NumberField(point.minimal, trusted=True)
        basis = generalized_eigenspace(first_fiber, field.generator())
        if not basis:
            return False
        cols = tuple(zip(*basis))
        restricted_second = _restriction(second_fiber, cols, field)
        restricted_first = _restriction(first_fiber, cols, field)
        if restricted_second is None or restricted_first is None:
            return False
        if not mat_eq(
            mat_mul(restricted_first, restricted_second),
            mat_mul(restricted_second, restricted_first),
        ):
            return False
    return True


def eigenvalue_condition(pair, curve, data, sign=1):
    """`spectral.eigenvalue_condition` at one root y per fiber factor,
    adjoined in its number field: the second fiber map on the generalized
    eigenspace of y must be invariant there and have the single generalized
    eigenvalue sign * lambda_i * y.  Same rows and notes."""
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    ensure_consistent(pair, data)
    reports = []
    for hp in data.points:
        first_fiber = evaluate_endo(pair.first, hp.x)
        second_fiber = evaluate_endo(pair.second, hp.x)
        for point in fiber_points(curve, hp.x):
            minimal = format_unipoly(point.minimal, "t")
            field = NumberField(point.minimal, trusted=True)
            y = field.generator()
            basis = generalized_eigenspace(first_fiber, y)
            restricted = None
            if basis:
                restricted = _restriction(second_fiber, tuple(zip(*basis)), field)
            if restricted is None:
                reports.append(
                    EigenvalueVerdict(
                        hp.x, minimal, point.multiplicity, False, "eigenspace not invariant"
                    )
                )
                continue
            target = field.element(sign * hp.scale) * y
            n = len(restricted)
            shifted = tuple(
                tuple(restricted[r][c] - (target if r == c else field.zero()) for c in range(n))
                for r in range(n)
            )
            ok = nilpotency_test(shifted)
            reports.append(EigenvalueVerdict(hp.x, minimal, point.multiplicity, ok))
    return all(r.ok for r in reports), reports


def pointwise_multiplier_witnesses(psi, den, curve, marked, sign):
    """The witnesses of a failed multiplier test, computed at one root y of
    each fiber factor above the `marked` points: psi(x_i, y)/den(x_i) must
    equal sign * lambda_i * y.  A pole of the multiplier is its own witness."""
    witnesses = []
    for hp in marked:
        dval = den.evaluate(hp.x)
        if dval == 0:
            witnesses.append({"x": str(hp.x), "minimal": "", "note": "multiplier has a pole"})
            continue
        for point in fiber_points(curve, hp.x):
            field = NumberField(point.minimal, trusted=True)
            y = field.generator()
            target = field.element(sign * hp.scale) * y
            if psi.evaluate(hp.x, y) / field.element(dval) != target:
                minimal = format_unipoly(point.minimal, "t")
                witnesses.append({"x": str(hp.x), "minimal": minimal, "note": "eigenvalue mismatch"})
    return witnesses


def gcd_t_over_qx(p: BiPoly, q: BiPoly) -> BiPoly:
    """Oracle: gcd(p, q) in t by Euclid's algorithm over the function field
    Q(x), made monic in t, its denominators cleared and its content removed."""
    a = [RationalFunction(c) for c in p.tcoeffs]
    b = [RationalFunction(c) for c in q.tcoeffs]

    def strip(u):
        while u and u[-1].is_zero():
            u.pop()
        return u

    def mod(u, v):
        u = list(u)
        dv = len(v) - 1
        inv = RationalFunction.one() / v[-1]
        for k in range(len(u) - 1, dv - 1, -1):
            if u[k].is_zero():
                continue
            f = u[k] * inv
            for j, c in enumerate(v):
                u[k - dv + j] = u[k - dv + j] - f * c
        return strip(u)

    a, b = strip(a), strip(b)
    while b:
        a, b = b, mod(a, b)
    if not a:
        return BiPoly.zero()
    inv = RationalFunction.one() / a[-1]
    a = [c * inv for c in a]
    den = UniPoly.one()
    for c in a:
        den = den * c.den.exact_div(den.gcd(c.den))
    coeffs = [c.num * den.exact_div(c.den) for c in a]
    common = coeffs[0]
    for c in coeffs[1:]:
        common = common.gcd(c)
    if common.degree > 0:
        coeffs = [c.exact_div(common) for c in coeffs]
    return BiPoly(coeffs)


def rational_roots(p: UniPoly):
    """All rational roots with multiplicities, read off the linear factors."""
    _, factors = factor_rationals(p)
    return [(-g.coeff(0), mult) for g, mult in factors if g.degree == 1]


def at_t(chi, value) -> UniPoly:
    """chi(x, value): a rational or a UniPoly in x substituted for t."""
    if isinstance(value, (int, Fraction)):
        value = UniPoly.constant(value)
    result = UniPoly.zero()
    for c in reversed(chi.tcoeffs):
        result = result * value + c
    return result


def cofactor_char_poly(mat):
    """Oracle: det(tI - M) by Laplace expansion over bivariate polynomials."""
    n = len(mat)
    rows = [
        [
            BiPoly.t() - BiPoly.from_unipoly(mat[i][j])
            if i == j
            else -BiPoly.from_unipoly(mat[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = BiPoly.zero()
        for j in range(len(m)):
            if m[0][j].is_zero():
                continue
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            term = m[0][j] * det(minor)
            total = total + term if j % 2 == 0 else total - term
        return total

    return det(rows)
