"""Spectral construction: the spectral curve, fiberwise eigen-analysis,
the correspondence in both directions, and the stability certificate.

The spectral curve of the first component M of a pair is its characteristic
polynomial

    chi(x, t)  =  det(tI - M)  =  t^r - s_1 t^(r-1) + ... + (-1)^r s_r,

a plane curve inside the total space of O(a); the characteristic
coefficients s_i (the traces of the exterior powers of M, sections of
O(i*a)) are read off chi.  When chi is integral (squarefree and
irreducible over Q(x)) the pair is equivalent to rank-1 data on the curve:
the multiplier psi expressing the second component as a function-field
polynomial in the first.  The backward direction realizes the structure
module: basis 1, t, ..., t^(r-1), companion matrix, multiplication by psi.

Sign convention: with the kernel-of-evaluation presentation used here the
marked-point eigenvalue is +lambda_i * y.  The opposite convention (reading
the marked scalars with a minus sign) differs only by flipping lambda, so
every fiberwise check takes a sign in {+1, -1}, default +1.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import (
    CommutationError,
    DegreeBoundError,
    EigenvalueConditionError,
    NonIntegralError,
    NotInCommutantError,
    ValidationError,
)
from .factor import (
    factor_rationals,
    geometric_factor_warning,
    irreducible_over_function_field,
)
from .hecke import HeckeData, HeckePoint, require_valid
from .higgs import HiggsPair, TwistedHiggsField, check_commutation, ensure_consistent, reconstruct
from .linalg import (
    char_poly,
    generalized_eigenspace,
    lift_matrix,
    mat_eq,
    mat_mul,
    nilpotency_test,
    solve_right,
)
from .numfield import NumberField, NumberFieldElement
from .poly import (
    BiPoly,
    UniPoly,
    _det_unipoly,
    format_unipoly,
)
from .projline import (
    SplitBundle,
    TwistedEndo,
    endo_scalar,
    evaluate_endo,
    require_valid_endo,
    validate_twisted_endo,
)


class SpectralCurve(Record):
    """chi(x, t) monic of t-degree r, with t^(r-i) coefficient (-1)^i s_i."""

    __slots__ = ("chi", "a", "r")

    def __init__(self, chi: BiPoly, a: int, r: int):
        if chi.t_degree != r or not chi.is_monic_in_t():
            raise ValidationError("curve polynomial must be monic in t of degree r")
        for i in range(1, r + 1):
            coeff = chi.tcoeff(r - i)
            if not coeff.is_zero() and coeff.degree > i * a:
                raise ValidationError(
                    f"t^{r - i} coefficient exceeds its x-degree bound {i * a}"
                )
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "r", r)

    @property
    def char_coefficients(self) -> tuple:
        """s_1..s_r: s_i is (-1)^i times the t^(r-i) coefficient of chi."""
        return tuple(
            -self.chi.tcoeff(self.r - i) if i % 2 else self.chi.tcoeff(self.r - i)
            for i in range(1, self.r + 1)
        )


class SpectralFiberPoint(Record):
    """One conjugate class of points of the curve above a rational base point."""

    __slots__ = ("field", "y", "multiplicity")

    def __init__(self, field: NumberField, y: NumberFieldElement, multiplicity: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "multiplicity", multiplicity)


class SpectralData(Record):
    """Rank-1 datum on the curve: the multiplier psi (t-degree < r) with a
    cleared polynomial denominator, plus the second twist degree."""

    __slots__ = ("curve", "psi", "psi_denominator", "b")

    def __init__(self, curve: SpectralCurve, psi: BiPoly, psi_denominator: UniPoly, b: int):
        if psi.t_degree >= curve.r:
            raise ValidationError("multiplier must have t-degree < r")
        if psi_denominator.is_zero():
            raise ValidationError("zero multiplier denominator")
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "psi_denominator", psi_denominator)
        object.__setattr__(self, "b", b)


def curve_of(endo: TwistedEndo) -> SpectralCurve:
    """The spectral curve det(tI - M) of a valid twisted endomorphism M."""
    require_valid_endo(endo, "twisted endomorphism")
    return SpectralCurve(char_poly(endo.entries), endo.twist, endo.rank)


def is_integral(curve: SpectralCurve):
    """Reduced and irreducible over Q(x), with a certificate.

    Irreducibility is certified over the rational function field, and its
    search for a squarefree specialization doubles as the squarefree test:
    chi is reduced exactly when one of its first (2r - 1) * deg_x chi + 1
    specializations is squarefree.  A best-effort warning flags curves that
    factor over a constant quadratic extension (geometric reducibility)
    without affecting the verdict.
    """
    verdict, witness = irreducible_over_function_field(curve.chi)
    if witness["kind"] == "repeated_factor":
        return False, {
            "squarefree": False,
            "irreducible": False,
            "factor": witness["factor"],
            "reason": "repeated factor",
        }
    certificate = {"squarefree": True, "irreducible": verdict}
    if verdict:
        certificate["witness"] = witness
        warning = geometric_factor_warning(curve.chi)
        if warning:
            certificate["geometric_warning"] = warning
    else:
        certificate["factor"] = witness.get("factor")
        certificate["reason"] = "reducible over Q(x)"
    return verdict, certificate


def _require_integral(curve: SpectralCurve):
    integral, certificate = is_integral(curve)
    if not integral:
        raise NonIntegralError("spectral curve is not integral", certificate)


def fiber_points(curve: SpectralCurve, x0) -> list:
    """Points of the curve above x = x0, one per conjugate class.

    The specialization chi(x0, t) is factored over Q; each irreducible
    factor contributes one point whose residue field it generates, with the
    factorization exponent as multiplicity.  Multiplicities weighted by the
    residue degrees sum to r.
    """
    x0 = Fraction(x0)
    spec = curve.chi.at_x(x0)
    _, factors = factor_rationals(spec)
    points = []
    total = 0
    for minimal, mult in factors:
        field = NumberField(minimal, trusted=True)
        points.append(SpectralFiberPoint(field, field.generator(), mult))
        total += mult * minimal.degree
    if total != curve.r:
        raise ValidationError("fiber multiplicities do not sum to the rank")
    return points


def _eigenspace_and_restriction(first_fiber, second_fiber, point: SpectralFiberPoint):
    """Eigenspace basis (as columns) of the first fiber map at the point, and
    the matrix of the second fiber map restricted to it (None if the space is
    not invariant)."""
    basis = generalized_eigenspace(first_fiber, point.y)
    if not basis:
        return None, None
    cols = tuple(tuple(vec[i] for vec in basis) for i in range(len(basis[0])))
    lifted = lift_matrix(second_fiber, point.field)
    image = mat_mul(lifted, cols)
    restricted = solve_right(cols, image, point.field.one())
    return cols, restricted


def eigenspace_invariance(pair: HiggsPair, curve: SpectralCurve, x0) -> bool:
    """Fiberwise consequence of commutation at a base point: every
    generalized eigenspace of the first component's fiber map is preserved by
    the second's, and the restricted maps commute.  `curve` is the spectral
    curve of the first component.

    This is the oracle for `check`, which reads the verdict off commutation
    and calls this only for a pair that does not commute."""
    x0 = Fraction(x0)
    first_fiber = evaluate_endo(pair.first, x0)
    second_fiber = evaluate_endo(pair.second, x0)
    for point in fiber_points(curve, x0):
        cols, restricted_second = _eigenspace_and_restriction(
            first_fiber, second_fiber, point
        )
        if restricted_second is None:
            return False
        lifted_first = lift_matrix(first_fiber, point.field)
        image = mat_mul(lifted_first, cols)
        restricted_first = solve_right(cols, image, point.field.one())
        if restricted_first is None:
            return False
        if not mat_eq(
            mat_mul(restricted_first, restricted_second),
            mat_mul(restricted_second, restricted_first),
        ):
            return False
    return True


class EigenvalueVerdict(Record):
    """The eigenvalue condition at one fiber point above a marked point x."""

    __slots__ = ("x", "minimal", "multiplicity", "ok", "note")

    def __init__(self, x: Fraction, minimal: str, multiplicity: int, ok: bool, note: str = ""):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "minimal", minimal)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "note", note)


def eigenvalue_condition(
    pair: HiggsPair, curve: SpectralCurve, data: HeckeData, sign: int = 1
):
    """At each marked point and each fiber point y above it, the second
    component restricted to the generalized eigenspace of y has the single
    generalized eigenvalue sign * lambda_i * y (checked as nilpotency after
    subtracting the scalar).  `curve` is the spectral curve of the first
    component.  Returns (verdict, per-point reports).

    This is the oracle for `check`, which derives the rows at the points
    where the fiber equation holds and calls this only at the others."""
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    ensure_consistent(pair, data)
    reports = []
    all_ok = True
    for hp in data.points:
        first_fiber = evaluate_endo(pair.first, hp.x)
        second_fiber = evaluate_endo(pair.second, hp.x)
        for point in fiber_points(curve, hp.x):
            cols, restricted = _eigenspace_and_restriction(
                first_fiber, second_fiber, point
            )
            if restricted is None:
                all_ok = False
                reports.append(
                    EigenvalueVerdict(
                        hp.x,
                        format_unipoly(point.field.minimal, "t"),
                        point.multiplicity,
                        False,
                        "eigenspace not invariant",
                    )
                )
                continue
            target = point.field.element(sign * hp.scale) * point.y
            n = len(restricted)
            shifted = tuple(
                tuple(
                    restricted[r][c] - (target if r == c else point.field.zero())
                    for c in range(n)
                )
                for r in range(n)
            )
            ok = nilpotency_test(shifted)
            all_ok = all_ok and ok
            reports.append(
                EigenvalueVerdict(
                    hp.x,
                    format_unipoly(point.field.minimal, "t"),
                    point.multiplicity,
                    ok,
                )
            )
    return all_ok, reports


def commutant_coordinates(pair: HiggsPair):
    """Express the second component as a function-field polynomial in the
    first: the unique psi = sum_k p_k(x)/q(x) t^k, t-degree < r, with
    second = sum_k (p_k/q)(x) first^k.  Returns (psi, q) with q monic.

    Requires commutation and an integral spectral curve (which makes the
    powers of the first component a function-field basis of its commutant).
    """
    if not check_commutation(pair):
        raise CommutationError("components do not commute")
    _require_integral(curve_of(pair.first))
    return _solve_commutant(pair)


def _solve_commutant(pair: HiggsPair):
    """The solve of `commutant_coordinates`, for a commuting pair whose
    spectral curve is known to be integral.  Then Q(x)^r is one-dimensional
    over the field Q(x)[t]/chi, so e1 is cyclic for the first component A:
    K = [e1, A e1, ..., A^(r-1) e1] is invertible, and Cramer's rule over
    Q[x] solves K c = B e1 for the coordinates."""
    r = pair.rank
    powers = [endo_scalar(pair.bundle, UniPoly.one(), 0)]
    for _ in range(1, r):
        powers.append(pair.first * powers[-1])
    krylov = [[power.entries[i][0] for power in powers] for i in range(r)]
    den = _det_unipoly(krylov)
    if den.is_zero():
        raise NotInCommutantError(
            "second component is not a polynomial in the first"
        )
    rhs = [row[0] for row in pair.second.entries]
    numerators = [
        _det_unipoly([row[:k] + [b] + row[k + 1:] for row, b in zip(krylov, rhs)])
        for k in range(r)
    ]
    # cancel the common factor, then make the denominator monic
    common = den
    for p in numerators:
        common = common.gcd(p)
    scale = common * den.exact_div(common).leading()
    den = den.exact_div(scale)
    numerators = [p.exact_div(scale) for p in numerators]
    psi = BiPoly(tuple(numerators))
    # exact re-substitution check
    for i in range(r):
        for j in range(r):
            acc = UniPoly.zero()
            for k in range(r):
                acc = acc + numerators[k] * powers[k].entries[i][j]
            if acc != den * pair.second.entries[i][j]:
                raise NotInCommutantError("re-substitution check failed")
    return psi, den


def _verify_multiplier_eigenvalues(
    psi: BiPoly, den: UniPoly, marked: list, fibers: list, sign: int
):
    """psi(x_i, y)/den(x_i) = sign * lambda_i * y at every fiber point above
    each of the `marked` points; `fibers` holds the fiber points above each,
    in order.  Collects witnesses of failure."""
    witnesses = []
    for hp, points in zip(marked, fibers):
        dval = den.evaluate(hp.x)
        if dval == 0:
            witnesses.append(
                {"x": str(hp.x), "minimal": "", "note": "multiplier has a pole"}
            )
            continue
        for point in points:
            val = psi.evaluate(hp.x, point.y) / point.field.element(dval)
            target = point.field.element(sign * hp.scale) * point.y
            if val != target:
                witnesses.append(
                    {
                        "x": str(hp.x),
                        "minimal": format_unipoly(point.field.minimal, "t"),
                        "note": "eigenvalue mismatch",
                    }
                )
    return witnesses


def forward_correspondence(field: TwistedHiggsField, sign: int = 1) -> SpectralData:
    """From a certified twisted field to its rank-1 spectral datum.

    The curve must be integral; the multiplier is re-verified to hit
    sign * lambda_i * y at every fiber point above the marked points.
    """
    ensure_consistent(field.pair, field.hecke)
    curve = curve_of(field.pair.first)
    _require_integral(curve)
    fibers = [fiber_points(curve, hp.x) for hp in field.hecke.points]
    return forward_on_curve(field, curve, fibers, sign)


def forward_on_curve(
    field: TwistedHiggsField, curve: SpectralCurve, fibers: list, sign: int
) -> SpectralData:
    """The forward correspondence once `curve`, the spectral curve of the
    field's first component, is known to be integral; `fibers` holds its
    fiber points above each marked point, in order.  Commutation needs no
    second check: `reconstruct` certified it when it built the field."""
    psi, den = _solve_commutant(field.pair)
    witnesses = _verify_multiplier_eigenvalues(
        psi, den, field.hecke.points, fibers, sign
    )
    if witnesses:
        raise EigenvalueConditionError(
            "multiplier misses the marked-point eigenvalues", witnesses
        )
    return SpectralData(curve, psi, den, field.hecke.b)


def multiplication_matrix(curve: SpectralCurve, psi: BiPoly, twist: int) -> TwistedEndo:
    """Matrix of multiplication by psi on the structure module in the basis
    1, t, ..., t^(r-1), as a twisted endomorphism of O(0)(+)O(-a)(+)...

    The j-th column holds the coefficients of psi * t^j reduced mod chi.
    """
    r = curve.r
    bundle = SplitBundle([-(k * curve.a) for k in range(r)])
    columns = []
    power = BiPoly.one()
    for j in range(r):
        prod = psi * power
        _, rem = prod.divmod_t(curve.chi)
        columns.append([rem.tcoeff(i) for i in range(r)])
        power = power * BiPoly.t()
    entries = tuple(
        tuple(columns[j][i] for j in range(r)) for i in range(r)
    )
    return TwistedEndo(bundle, twist, entries)


def backward_correspondence(
    spectral: SpectralData, data: HeckeData, sign: int = 1
) -> TwistedHiggsField:
    """From rank-1 data on an integral curve to a certified twisted field.

    The structure-module model is used: the bundle has twists
    (0, -a, ..., -(r-1)a), the first component is the companion matrix of
    chi, the second is multiplication by psi.  psi must be a genuine
    polynomial (denominator 1) with psi(x_i, t) = sign * lambda_i * t mod
    chi(x_i, t) at every marked point; with sign = -1 the scalars are flipped
    before reconstruction so the output is certified under the flipped
    presentation.
    """
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    require_valid(data)
    curve = spectral.curve
    if curve.a != data.a:
        raise ValidationError(
            f"curve twist {curve.a} does not match presentation degree {data.a}"
        )
    if spectral.b != data.b:
        raise ValidationError(
            f"multiplier twist {spectral.b} does not match presentation degree {data.b}"
        )
    _require_integral(curve)
    if spectral.psi_denominator != UniPoly.one():
        raise ValidationError(
            "structure-module model needs a polynomial multiplier (denominator 1)"
        )
    return backward_on_curve(spectral, data, sign)


def backward_on_curve(
    spectral: SpectralData, data: HeckeData, sign: int
) -> TwistedHiggsField:
    """The backward correspondence once the input checks of
    `backward_correspondence` hold: `data` is valid with the curve's twists,
    the curve is integral and psi is a polynomial."""
    curve = spectral.curve
    # the fiber equation in Q[t]/chi(x_i, t) implies the pointwise check at
    # every fiber point, so fibers are factored only to name a miss
    missed = [
        hp
        for hp in data.points
        if (spectral.psi.at_x(hp.x) - UniPoly((0, sign * hp.scale)))
        % curve.chi.at_x(hp.x)
    ]
    if missed:
        fibers = [fiber_points(curve, hp.x) for hp in missed]
        witnesses = _verify_multiplier_eigenvalues(
            spectral.psi, spectral.psi_denominator, missed, fibers, sign
        )
        message = "multiplier misses the marked-point eigenvalues"
        if not witnesses:
            # a non-reduced fiber: the pointwise check is weaker there
            message = "multiplier misses the marked-point fiber equation"
            witnesses = [
                {
                    "x": str(hp.x),
                    "minimal": "",
                    "note": "fiber equation fails beyond the reduced points",
                }
                for hp in missed
            ]
        raise EigenvalueConditionError(message, witnesses)
    first = multiplication_matrix(curve, BiPoly.t(), data.a)
    second = multiplication_matrix(curve, spectral.psi, data.b)
    violations = validate_twisted_endo(second)
    if violations:
        detail = "; ".join(v.describe() for v in violations)
        raise DegreeBoundError(
            f"multiplier violates the twist-{data.b} degree bounds: {detail}"
        )
    if sign == 1:
        target = data
    else:
        target = HeckeData(
            data.a,
            data.b,
            [HeckePoint(p.x, -p.scale) for p in data.points],
        )
    pair = HiggsPair(first.source, first, second)
    return reconstruct(pair, target)


def certify_stability(field: TwistedHiggsField):
    """'Stable' with an integrality certificate when the spectral curve of
    the first component is integral; 'Unknown' otherwise (a non-integral
    curve does not imply instability)."""
    curve = curve_of(field.pair.first)
    integral, certificate = is_integral(curve)
    if integral:
        return "Stable", certificate
    return "Unknown", certificate
