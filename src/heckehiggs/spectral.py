"""Spectral construction: the spectral curve, its fibers over rational points,
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
module: basis 1, t, ..., t^(r-1), companion matrix, multiplication by psi,
and certifies its output by construction.

The fiber of the curve above a rational point x0 is the set of irreducible
factors p^m of chi(x0, t) over Q, each a conjugate class of points.  A
condition at every point of a class is a polynomial identity modulo p, so
the multiplier test is decided in Q[t], and `eigenvalue_condition` on the
kernel of p at the semisimple part of the fiber map, over Q.  No number
field is built.  Where the fiber equation second(x_i) = lambda_i * first(x_i)
holds, every eigenvalue row follows from it (`_implied_rows`); that is all
of a certified field's marked points, so the forward correspondence reads
its witnesses off the same rule.

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
from .higgs import (
    HiggsPair,
    TwistedHiggsField,
    check_commutation,
    ensure_consistent,
)
from .linalg import (
    char_poly,
    kernel_basis,
    mat_eq,
    mat_is_zero,
    mat_mul,
    poly_at_matrix,
    semisimple_part,
)
from .poly import (
    BiPoly,
    UniPoly,
    _det_unipoly,
    format_unipoly,
)
from .projline import (
    SplitBundle,
    TwistedEndo,
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
        super().__init__(chi, a, r)

    @property
    def char_coefficients(self) -> tuple:
        """s_1..s_r: s_i is (-1)^i times the t^(r-i) coefficient of chi."""
        return tuple(
            -self.chi.tcoeff(self.r - i) if i % 2 else self.chi.tcoeff(self.r - i)
            for i in range(1, self.r + 1)
        )


class SpectralFiberPoint(Record):
    """One conjugate class of points of the curve above a rational base
    point: a monic irreducible factor of chi(x0, t) over Q, whose roots are
    the points of the class, with its exponent as multiplicity."""

    __slots__ = ("minimal", "multiplicity")


class SpectralData(Record):
    """Rank-1 datum on the curve: the multiplier psi (t-degree < r) with a
    cleared polynomial denominator, plus the second twist degree."""

    __slots__ = ("curve", "psi", "psi_denominator", "b")

    def __init__(self, curve: SpectralCurve, psi: BiPoly, psi_denominator: UniPoly, b: int):
        if psi.t_degree >= curve.r:
            raise ValidationError("multiplier must have t-degree < r")
        if psi_denominator.is_zero():
            raise ValidationError("zero multiplier denominator")
        super().__init__(curve, psi, psi_denominator, b)


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
    factor contributes one point, with the factorization exponent as
    multiplicity.  Multiplicities weighted by the factor degrees sum to r.
    Every fiberwise identity is decided on these factors over Q.  x0 must
    be exact: `BiPoly.at_x` refuses a float or a string with a TypeError.
    """
    _, factors = factor_rationals(curve.chi.at_x(x0))
    if sum(mult * minimal.degree for minimal, mult in factors) != curve.r:
        raise ValidationError("fiber multiplicities do not sum to the rank")
    return [SpectralFiberPoint(minimal, mult) for minimal, mult in factors]


class EigenvalueVerdict(Record):
    """The eigenvalue condition at one fiber point above a marked point x."""

    __slots__ = ("x", "minimal", "multiplicity", "ok", "note")

    def __init__(self, x: Fraction, minimal: str, multiplicity: int, ok: bool, note: str = ""):
        super().__init__(x, minimal, multiplicity, ok, note)


def _implied_rows(x: Fraction, points: list, sign: int) -> list:
    """The eigenvalue rows above a marked point x where the fiber equation
    second(x) = lambda * first(x) holds; `points` is the fiber above x.  On
    the generalized eigenspace of a fiber point y,
    second - sign * lambda * y = lambda * (first - y) + (1 - sign) * lambda * y,
    and lambda is nonzero, so the row is ok for sign +1, and for sign -1
    exactly when y = 0: the fiber factor is t."""
    return [
        EigenvalueVerdict(
            x,
            format_unipoly(point.minimal, "t"),
            point.multiplicity,
            sign == 1 or point.minimal == UniPoly.variable(),
        )
        for point in points
    ]


def eigenvalue_condition(pair: HiggsPair, fiber: list, sign: int = 1):
    """At each marked point x_i and each fiber point above it, the second
    component restricted to the generalized eigenspace of the point has the
    single generalized eigenvalue sign * lambda_i * y, where y is the point
    of the spectral curve of the first component.  `fiber` holds the
    verdicts of `higgs.check_fiber_condition` on the pair, one per marked
    point, with the two fiber maps there; no component is evaluated here.
    Returns (verdict, per-point reports).

    Where the fiber equation second(x_i) = lambda_i * first(x_i) holds, the
    rows follow from it (`_implied_rows`).  Elsewhere they are decided over
    Q, one fiber factor p^m of chi(x_i, t) at a time.  Let A and B be the
    fiber maps, S the semisimple part of A (A itself when every m is 1) and
    W = ker p(S) = ker p(A)^m, the sum of the generalized eigenspaces W_y of
    A over the roots y of p.  S is y on W_y, so the W_y are the eigenspaces
    of S on W over the splitting field, and B preserves every W_y exactly
    when B W is in W (p(S) B W = 0) and B commutes with S on W.  Otherwise
    the row is "eigenspace not invariant".  If it holds,
    B - sign * lambda_i * S is B - sign * lambda_i * y on each W_y, so it is
    nilpotent on W exactly when B has the single eigenvalue
    sign * lambda_i * y on every W_y.  A and B are rational, so Galois
    conjugation carries each condition from one root of p to all of them,
    and the row states it for each."""
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    curve = curve_of(pair.first)
    reports = []
    for verdict in fiber:
        hp = verdict.point
        points = fiber_points(curve, hp.x)
        if verdict.ok:
            reports += _implied_rows(hp.x, points, sign)
            continue
        semisimple = verdict.first
        if any(point.multiplicity > 1 for point in points):
            squarefree = UniPoly.one()
            for point in points:
                squarefree = squarefree * point.minimal
            semisimple = semisimple_part(verdict.first, squarefree)
        target = sign * hp.scale
        shifted = tuple(
            tuple(b - target * s for b, s in zip(row_b, row_s))
            for row_b, row_s in zip(verdict.second, semisimple)
        )
        for point in points:
            annihilator = poly_at_matrix(point.minimal, semisimple)
            basis = tuple(zip(*kernel_basis(annihilator, Fraction(1))))  # columns span W
            image = mat_mul(verdict.second, basis)
            ok, note = False, "eigenspace not invariant"
            if mat_is_zero(mat_mul(annihilator, image)) and mat_eq(
                mat_mul(semisimple, image), mat_mul(verdict.second, mat_mul(semisimple, basis))
            ):
                # nilpotent on W: dim W applications of it kill W
                for _ in range(len(basis[0])):
                    basis = mat_mul(shifted, basis)
                ok, note = mat_is_zero(basis), ""
            minimal = format_unipoly(point.minimal, "t")
            reports.append(EigenvalueVerdict(hp.x, minimal, point.multiplicity, ok, note))
    return all(report.ok for report in reports), reports


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
    Q[x] solves K c = B e1 for the coordinates.  K is built by r - 1
    matrix-vector products.

    Only column 0 of den*B = sum_k p_k A^k is checked, and that suffices.
    Every caller has certified commutation (`commutant_coordinates` checks
    it; the pair of `forward_on_curve` is a certified field's), so
    C = den*B - sum_k p_k A^k commutes with A.  C kills e1, so
    C A^k e1 = A^k C e1 = 0 for every k: C kills the basis K, and C = 0."""
    r = pair.rank
    vector = ((UniPoly.one(),),) + ((UniPoly.zero(),),) * (r - 1)  # e1, r x 1
    vectors = [vector]
    for _ in range(1, r):
        vector = mat_mul(pair.first.entries, vector)
        vectors.append(vector)
    krylov = [[vector[i][0] for vector in vectors] for i in range(r)]
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
    # the column-0 check: den * B e1 = sum_k p_k A^k e1
    for row, b in zip(krylov, rhs):
        acc = UniPoly.zero()
        for p, entry in zip(numerators, row):
            acc = acc + p * entry
        if acc != den * b:
            raise NotInCommutantError("column-0 check failed")
    return psi, den


def _verify_multiplier_eigenvalues(psi: BiPoly, marked: list, fibers: list, sign: int):
    """psi(x_i, y) = sign * lambda_i * y at every fiber point above each of
    the `marked` points, for a polynomial multiplier psi; `fibers` holds the
    fiber points above each, in order.  Collects witnesses of failure.

    Decided in Q[t]: the identity holds at one root y of a fiber factor p,
    and then at all of them, exactly when p divides
    psi(x_i, t) - sign * lambda_i * t."""
    witnesses = []
    for hp, points in zip(marked, fibers):
        residual = psi.at_x(hp.x) - UniPoly((0, sign * hp.scale))
        for point in points:
            if residual % point.minimal:
                witnesses.append(
                    {
                        "x": str(hp.x),
                        "minimal": format_unipoly(point.minimal, "t"),
                        "note": "eigenvalue mismatch",
                    }
                )
    return witnesses


def forward_correspondence(field: TwistedHiggsField, sign: int = 1) -> SpectralData:
    """From a certified twisted field to its rank-1 spectral datum.

    The curve must be integral, and the multiplier psi/den must hit
    sign * lambda_i * y at every fiber point y above the marked points; the
    witnesses of a miss follow from the fiber equation (`forward_on_curve`).
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
    second check: every TwistedHiggsField is certified to commute.

    The multiplier's witnesses need no remainder.  den * B = psi(A) over
    Q[x] and B(x_i) = lambda_i * A(x_i), so
    R(t) = psi(x_i, t) - den(x_i) * lambda_i * t annihilates A(x_i) and every
    fiber factor p divides R.  Where den(x_i) is nonzero, psi/den hits
    sign * lambda_i * y at the roots of p exactly when p divides
    R + (1 - sign) * lambda_i * den(x_i) * t: always for sign +1, and for
    sign -1 exactly when p = t.  Those are the failing `_implied_rows`;
    a zero of den at x_i is a pole of the multiplier."""
    psi, den = _solve_commutant(field.pair)
    witnesses = []
    for hp, points in zip(field.hecke.points, fibers):
        if den.evaluate(hp.x) == 0:
            witnesses.append({"x": str(hp.x), "minimal": "", "note": "multiplier has a pole"})
            continue
        witnesses += [
            {"x": str(row.x), "minimal": row.minimal, "note": "eigenvalue mismatch"}
            for row in _implied_rows(hp.x, points, sign)
            if not row.ok
        ]
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
    so the output is certified under the flipped presentation.

    The field is certified by construction, so commutation is not decided and
    no matrix is evaluated.  The two components are the multiplication
    matrices of t and psi on Q[x][t]/chi, a commutative ring, so they
    commute.  chi is monic in t, so reduction mod chi commutes with
    specializing x: at x_i they are the multiplication matrices of t and
    psi(x_i, t) on Q[t]/chi(x_i, t).  The congruence, checked first, is then
    the fiber equation second(x_i) = sign * lambda_i * first(x_i).
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
        witnesses = _verify_multiplier_eigenvalues(spectral.psi, missed, fibers, sign)
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
    return TwistedHiggsField(target, pair)


def certify_stability(field: TwistedHiggsField):
    """'Stable' with an integrality certificate when the spectral curve of
    the first component is integral; 'Unknown' otherwise (a non-integral
    curve does not imply instability)."""
    curve = curve_of(field.pair.first)
    integral, certificate = is_integral(curve)
    if integral:
        return "Stable", certificate
    return "Unknown", certificate
