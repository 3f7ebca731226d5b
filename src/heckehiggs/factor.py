"""Factorization over the rationals and irreducibility over Q(x).

Univariate polynomials are factored by rational-root extraction followed by
a degree-bounded search for integer factors (divisor-constrained
interpolation after clearing content).  This is exact and certifiable up to
degree 8; higher degrees raise ``DegreeLimitError``.

Bivariate polynomials monic in t are tested for irreducibility over the
function field Q(x).  A specialization at a rational point is used as a
sound fast path (an irreducible specialization proves irreducibility; a
reducible one proves nothing), then candidate factors are reconstructed by
lifting a coprime factorization of the specialization coefficient by
coefficient and verified by exact division.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegreeLimitError, ValidationError
from .poly import BiPoly, UniPoly, _fraction_sqrt, format_bipoly, format_unipoly

_FACTOR_DEGREE_LIMIT = 8


def _integer_divisors(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(p: UniPoly):
    """All rational roots with multiplicities, found by the rational root test."""
    if p.is_zero():
        raise ZeroDivisionError("rational roots of the zero polynomial")
    roots = []
    low = 0
    while p.coeff(low) == 0 and low <= p.degree:
        low += 1
    if low > 0:
        roots.append((Fraction(0), low))
        p = UniPoly(p.coeffs[low:])
    if p.degree < 1:
        return roots
    _, prim = p.content_primitive()
    lead = int(prim.leading())
    trail = int(prim.coeff(0))
    seen = set()
    for num in _integer_divisors(trail):
        for den in _integer_divisors(lead):
            for sign in (1, -1):
                cand = Fraction(sign * num, den)
                if cand in seen:
                    continue
                seen.add(cand)
                if p.evaluate(cand) == 0:
                    mult = 0
                    while p.evaluate(cand) == 0:
                        p = p.exact_div(UniPoly((-cand, 1)))
                        mult += 1
                    roots.append((cand, mult))
    return roots


def _interp_candidate(points, values):
    return UniPoly.interpolate(list(zip(points, values)))


def _search_integer_factor(prim: UniPoly):
    """Find a nonconstant proper factor of a primitive integer polynomial
    with no rational roots, or None.  Candidates of each degree d are
    interpolated through signed divisors of the values at small integers."""
    n = prim.degree
    for d in range(2, n // 2 + 1):
        points = []
        value_divisors = []
        arg = 0
        while len(points) < d + 1:
            x0 = Fraction((arg + 1) // 2 * (1 if arg % 2 == 0 else -1))
            arg += 1
            v = prim.evaluate(x0)
            if v == 0:
                continue
            divs = _integer_divisors(int(v))
            signed = []
            for dv in divs:
                signed.append(Fraction(dv))
                signed.append(Fraction(-dv))
            points.append(x0)
            value_divisors.append(signed)
        order = sorted(range(d + 1), key=lambda i: len(value_divisors[i]))
        points = [points[i] for i in order]
        value_divisors = [value_divisors[i] for i in order]

        def recurse(idx, chosen):
            if idx == d + 1:
                cand = _interp_candidate(points, chosen)
                if cand.degree != d:
                    return None
                if cand.leading() < 0:
                    return None
                if any(c.denominator != 1 for c in cand.coeffs):
                    return None
                if int(prim.leading()) % int(cand.leading()) != 0:
                    return None
                q, r = divmod(prim, cand)
                if r.is_zero():
                    return cand
                return None
            for value in value_divisors[idx]:
                found = recurse(idx + 1, chosen + [value])
                if found is not None:
                    return found
            return None

        found = recurse(0, [])
        if found is not None:
            return found
    return None


def factor_rationals(p: UniPoly):
    """Full factorization over Q: returns (content, [(monic irreducible, mult)])
    with content * product(factor^mult) == p exactly."""
    if p.is_zero():
        raise ZeroDivisionError("factorization of the zero polynomial")
    content = p.leading()
    work = p.monic()
    factors = []
    for root, mult in rational_roots(work):
        lin = UniPoly((-root, 1))
        for _ in range(mult):
            work = work.exact_div(lin)
        factors.append((lin, mult))
    while work.degree >= 1:
        if work.degree <= 3:
            factors.append((work, 1))
            break
        if work.degree > _FACTOR_DEGREE_LIMIT:
            raise DegreeLimitError(
                f"degree {work.degree} exceeds the supported factorization "
                f"limit {_FACTOR_DEGREE_LIMIT}"
            )
        _, prim = work.content_primitive()
        g = _search_integer_factor(prim)
        if g is None:
            factors.append((work, 1))
            break
        gm = g.monic()
        mult = 0
        while True:
            q, r = divmod(work, gm)
            if not r.is_zero():
                break
            work = q
            mult += 1
        factors.append((gm, mult))
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return content, factors


def is_irreducible_rational(p: UniPoly) -> bool:
    if p.degree < 1:
        return False
    _, factors = factor_rationals(p)
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree == p.degree


# -- bivariate irreducibility over Q(x) ------------------------------------


def _monic_divisors(factors, degree):
    """Monic divisors of a squarefree factorization with the given degree."""
    out = []

    def recurse(idx, current):
        if current.degree == degree:
            out.append(current)
            return
        if current.degree > degree or idx == len(factors):
            return
        recurse(idx + 1, current)
        recurse(idx + 1, current * factors[idx])

    recurse(0, UniPoly.one())
    seen = set()
    unique = []
    for g in out:
        if g.coeffs not in seen:
            seen.add(g.coeffs)
            unique.append(g)
    return unique


def _hensel_lift(chi_shifted: BiPoly, g0: UniPoly, h0: UniPoly, precision: int):
    """Lift a coprime factorization chi(s=0) = g0*h0 through powers of s.

    chi_shifted is monic in t with coefficients in Q[s]; returns the list of
    t-polynomials g_m with g = sum g_m s^m agreeing with a true factor up to
    s^precision (when one exists).
    """
    _, u, v = g0.xgcd(h0)
    # u*g0 + v*h0 = 1
    chi_rows = []
    max_s = max(c.degree for c in chi_shifted.tcoeffs)
    for m in range(max(precision, max_s + 1)):
        chi_rows.append(UniPoly(tuple(c.coeff(m) for c in chi_shifted.tcoeffs)))
    g_rows = [g0]
    h_rows = [h0]
    for m in range(1, precision):
        conv = UniPoly.zero()
        for i in range(0, m + 1):
            gi = g_rows[i] if i < len(g_rows) else UniPoly.zero()
            hj = h_rows[m - i] if m - i < len(h_rows) else UniPoly.zero()
            conv = conv + gi * hj
        err = (chi_rows[m] if m < len(chi_rows) else UniPoly.zero()) - conv
        if err.is_zero():
            g_rows.append(UniPoly.zero())
            h_rows.append(UniPoly.zero())
            continue
        q, dg = divmod(v * err, g0)
        dh = u * err + q * h0
        g_rows.append(dg)
        h_rows.append(dh)
    return g_rows


def irreducible_over_function_field(chi: BiPoly):
    """Decide irreducibility of chi in t over Q(x); chi must be monic in t.

    Returns (verdict, certificate).  The certificate either names a witness
    (an irreducible specialization, or the exhausted factor search) or holds
    an explicit nontrivial factor as text.
    """
    if not chi.is_monic_in_t():
        raise ValidationError("irreducibility test requires a polynomial monic in t")
    r = chi.t_degree
    if r < 1:
        raise ValidationError("t-degree must be at least 1")
    if r == 1:
        return True, {"kind": "linear", "witness": "degree 1 in t"}

    disc = chi.resultant_t(chi.derivative_t())
    if disc.is_zero():
        # repeated factor over Q(x); the gcd with the t-derivative is proper
        from .poly import bipoly_gcd_t

        g = bipoly_gcd_t(chi, chi.derivative_t())
        return False, {"kind": "repeated_factor", "factor": format_bipoly(g)}

    alpha = None
    k = 0
    while alpha is None:
        cand = Fraction((k + 1) // 2 * (1 if k % 2 == 0 else -1))
        k += 1
        if disc.evaluate(cand) != 0:
            alpha = cand
    spec = chi.at_x(alpha)
    _, spec_factors = factor_rationals(spec)
    irt = [f for f, _ in spec_factors]
    if len(irt) == 1 and irt[0].degree == r:
        return True, {
            "kind": "irreducible_specialization",
            "x0": str(alpha),
            "specialization": format_unipoly(spec, "t"),
        }

    shifted = chi.shift_x(alpha)
    n_x = max(0, chi.x_degree)
    searched = []
    for d in range(1, r // 2 + 1):
        bound = d * n_x
        precision = bound + 1
        searched.append(d)
        for g0 in _monic_divisors(irt, d):
            h0 = spec.exact_div(g0)
            g_rows = _hensel_lift(shifted, g0, h0, precision)
            cand = BiPoly(
                tuple(
                    UniPoly(tuple(g_rows[m].coeff(j) for m in range(precision)))
                    for j in range(d + 1)
                )
            ).shift_x(-alpha)
            if cand.t_degree != d:
                continue
            q, rem = chi.divmod_t(cand)
            if rem.is_zero() and q.t_degree == r - d:
                return False, {"kind": "factor", "factor": format_bipoly(cand)}
    return True, {
        "kind": "exhausted_search",
        "x0": str(alpha),
        "degrees_searched": searched,
    }


def geometric_factor_warning(chi: BiPoly):
    """Best-effort check for reducibility over the algebraic closure.

    Only the rank-2 case is examined: a monic quadratic in t splits over a
    quadratic constant extension exactly when its discriminant is a constant
    times a square in Q[x].  Returns a message or None.
    """
    if chi.t_degree != 2:
        return None
    s1 = -chi.tcoeff(1)
    s2 = chi.tcoeff(0)
    disc = s1 * s1 - 4 * s2
    if disc.is_zero():
        return None
    if disc.monic().sqrt() is None:
        return None
    lc = disc.leading()
    if _fraction_sqrt(lc) is not None:
        return None  # square discriminant: already reducible over Q(x)
    return (
        "discriminant is a constant multiple of a square: factors over a "
        f"quadratic extension of the constants (constant {lc})"
    )
