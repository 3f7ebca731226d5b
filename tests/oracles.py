"""Test-side reference implementations: the pointwise number-field forms of
the fiberwise checks the certifier decides over Q, and small algebra helpers
only the tests use."""

from fractions import Fraction

from heckehiggs.factor import factor_rationals
from heckehiggs.linalg import generalized_eigenspace, lift_matrix, mat_eq, mat_mul, solve_right
from heckehiggs.numfield import NumberField
from heckehiggs.poly import UniPoly, format_unipoly
from heckehiggs.projline import evaluate_endo
from heckehiggs.spectral import fiber_points


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
