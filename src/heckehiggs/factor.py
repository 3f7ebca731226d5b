"""Factorization over the rationals and irreducibility over Q(x).

Univariate polynomials are factored by the Zassenhaus method on plain Python
integers (von zur Gathen-Gerhard, *Modern Computer Algebra*, ch. 14-15).
After clearing denominators and content, a few small primes p are tried that
keep the degree and leave the polynomial squarefree mod p.  Distinct-degree
factorization mod each of them bounds the degrees a factor over Q can have,
and the prime with the fewest factors is split completely by seeded
Cantor-Zassenhaus equal-degree factorization.  A multifactor Hensel lift
carries those factors to p^k past twice the leading coefficient times the
Landau-Mignotte bound, and products of subsets of them, smallest subsets
first and of admissible degree only, are tried as factors over Z by exact
division.  Only a polynomial that is squarefree modulo no small prime is
first split by Yun's squarefree decomposition over Q.  There is no degree
limit and no step factors a coefficient; only the recombination is
exponential, in the number of factors modulo p.

Bivariate polynomials monic in t are tested for irreducibility over the
function field Q(x).  The specializations chi(x0, t) at the first points of
0, -1, 1, -2, 2, ... where chi(x0, t) is squarefree are factored over Q.  An
irreducible first specialization proves irreducibility; otherwise the subset
sums of the factor degrees at up to three such points are intersected, and
when only 0 and r remain, no factor over Q(x) is possible.  Only when the
degree sets leave a degree open are candidate factors reconstructed, by
lifting a coprime factorization of a specialization coefficient by
coefficient, and verified by exact division.  As chi is monic in t, the
squarefree points are those where its discriminant along t does not vanish,
and that discriminant has x-degree at most (2r - 1) * deg_x chi for t-degree
r; so when that many points plus one all fail, the discriminant is zero and
chi has a repeated factor.  The discriminant itself is never computed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, count, zip_longest
from math import gcd, isqrt, lcm

from .errors import ValidationError
from .poly import (
    BiPoly,
    UniPoly,
    _fraction_sqrt,
    bipoly_gcd_t,
    format_bipoly,
    format_unipoly,
)

# Primes tried before a polynomial squarefree modulo none of them is handed to
# Yun's decomposition; 2 is left out, so equal-degree splitting can use
# (p^d - 1)/2 powers.
_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19)

# Good primes whose distinct-degree factorizations are compared.
_PRIME_TRIALS = 3

# Squarefree specializations whose factor degrees are compared before the
# Hensel divisor search over Q(x) runs.  More points pay off on few
# irreducible curves, and every reducible curve pays for each of them.
_DEGREE_SET_POINTS = 3


# -- dense integer polynomials, lowest degree first, modulo m ----------------


def _reduce(a, m):
    a = [c % m for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _add(a, b, m):
    return _reduce([x + y for x, y in zip_longest(a, b, fillvalue=0)], m)


def _sub(a, b, m):
    return _reduce([x - y for x, y in zip_longest(a, b, fillvalue=0)], m)


def _mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return _reduce(out, m)


def _divmod(a, b, m):
    """Quotient and remainder of a by b in (Z/m)[x]; lc(b) must be a unit."""
    n = len(b) - 1
    if len(a) <= n:
        return [], _reduce(a, m)
    inv = pow(b[-1], -1, m)
    rem = list(a)
    quo = [0] * (len(a) - n)
    for k in range(len(a) - 1, n - 1, -1):
        c = rem[k] * inv % m
        quo[k - n] = c
        if c:
            for j in range(n):
                rem[k - n + j] -= c * b[j]
    return _reduce(quo, m), _reduce(rem[:n], m)


def _monic(a, m):
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _gcd(a, b, p):
    """Monic gcd in F_p[x]; a must be nonzero."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _xgcd(a, b, p):
    """(s, t) with s*a + t*b = 1 in F_p[x], deg s < deg b and deg t < deg a,
    for coprime a and b of positive degree."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _powmod(a, e, f, p):
    """a^e mod f in F_p[x]."""
    result, base = [1], _divmod(a, f, p)[1]
    while e:
        if e & 1:
            result = _divmod(_mul(result, base, p), f, p)[1]
        e >>= 1
        if e:
            base = _divmod(_mul(base, base, p), f, p)[1]
    return result


# -- factorization in F_p[x] ---------------------------------------------------


def _distinct_degree(f, p):
    """Distinct-degree factorization of a monic squarefree f in F_p[x]: pairs
    (g, d) with g the product of the irreducible factors of degree d."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod(h, p, f, p)  # x^(p^d) mod f
        g = _gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g, d, p, rng):
    """Cantor-Zassenhaus: the monic irreducible factors of a monic g in
    F_p[x], p odd, whose irreducible factors all have degree d."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p**d - 1) // 2
    while True:
        a = _reduce([rng.randrange(p) for _ in range(n)], p)
        if len(a) < 2:
            continue
        b = _gcd(g, _sub(_powmod(a, e, g, p), [1], p), p)
        if 1 < len(b) < len(g):
            return _equal_degree(b, d, p, rng) + _equal_degree(_divmod(g, b, p)[0], d, p, rng)


def _best_prime(f, primes):
    """Among the first few primes of `primes` modulo which the primitive f
    keeps its degree and stays squarefree, the one with the fewest
    irreducible factors: (p, its distinct-degree factorization, the bit mask
    of the degrees a factor of f over Q can have).  None when no prime of
    `primes` is good."""
    n = len(f) - 1
    allowed, best, trials = (1 << n + 1) - 1, None, 0
    for p in primes:
        if f[-1] % p == 0:
            continue
        fp = _monic(_reduce(f, p), p)
        if len(_gcd(fp, _reduce([i * c for i, c in enumerate(fp)][1:], p), p)) > 1:
            continue
        ddf = _distinct_degree(fp, p)
        sums, factors = 1, 0
        for g, d in ddf:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
                factors += 1
        allowed &= sums
        if best is None or factors < best[0]:
            best = (factors, p, ddf)
        trials += 1
        if trials == _PRIME_TRIALS or allowed == 1 | 1 << n:
            break
    return None if best is None else (best[1], best[2], allowed)


# -- lifting and recombination over Z ------------------------------------------


def _hensel_step(f, g, h, s, t, m):
    """One quadratic Hensel step (MCA Algorithm 15.10): from f = g*h and
    s*g + t*h = 1 modulo some n with m dividing n^2, h monic, to the same
    identities modulo m."""
    e = _sub(f, _mul(g, h, m), m)
    q, r = _divmod(_mul(s, e, m), h, m)
    g = _add(g, _add(_mul(t, e, m), _mul(q, g, m), m), m)
    h = _add(h, r, m)
    b = _sub(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m)
    c, d = _divmod(_mul(s, b, m), h, m)
    s = _sub(s, d, m)
    t = _sub(t, _add(_mul(t, b, m), _mul(c, g, m), m), m)
    return g, h, s, t


def _lift_factors(f, factors, p, k):
    """Monic factors modulo p^k of f that reduce to `factors` modulo p, given
    f = lc(f) * prod(factors) mod p with the factors monic and coprime."""
    if len(factors) == 1:
        return [_monic(_reduce(f, p**k), p**k)]
    half = len(factors) // 2
    g, h = [f[-1] % p], [1]
    for a in factors[:half]:
        g = _mul(g, a, p)
    for a in factors[half:]:
        h = _mul(h, a, p)
    s, t = _xgcd(g, h, p)
    exponents = [k]
    while exponents[-1] > 1:
        exponents.append((exponents[-1] + 1) // 2)
    for e in reversed(exponents[:-1]):
        g, h, s, t = _hensel_step(f, g, h, s, t, p**e)
    return _lift_factors(g, factors[:half], p, k) + _lift_factors(h, factors[half:], p, k)


def _primitive(a):
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return [v // c for v in a]


def _exact_quotient(f, g):
    """f / g in Z[x] when g divides f there, else None; g(0) must be nonzero."""
    if f[-1] % g[-1] or f[0] % g[0]:
        return None
    n = len(g) - 1
    rem = list(f)
    quo = [0] * (len(f) - n)
    for k in range(len(f) - 1, n - 1, -1):
        q, r = divmod(rem[k], g[-1])
        if r:
            return None
        quo[k - n] = q
        if q:
            for j in range(n):
                rem[k - n + j] -= q * g[j]
    return None if any(rem[:n]) else quo


def _recombine(f, lifted, m, allowed):
    """The irreducible factors over Z of the primitive f, from its monic
    factors modulo m: each subset of the lifted factors, smallest first and
    only where the bit of its degree is set in `allowed`, names the candidate
    lc(f) * product mod m, which is kept when it divides f exactly."""
    found, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            if not allowed >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                continue
            cand = [f[-1]]
            for i in subset:
                cand = _mul(cand, lifted[i], m)
            cand = _primitive([c - m if 2 * c > m else c for c in cand])
            quotient = _exact_quotient(f, cand)
            if quotient is not None:
                found.append(cand)
                f = quotient
                lifted = [g for i, g in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def _zassenhaus(f, image):
    """Irreducible factors over Z of a primitive squarefree f with f(0) != 0,
    given the `_best_prime` image of f."""
    p, ddf, allowed = image
    n = len(f) - 1
    if allowed == 1 | 1 << n:
        return [f]
    rng = random.Random(p)
    modular = [a for g, d in ddf for a in _equal_degree(g, d, p, rng)]
    bound = 2 * abs(f[-1]) * 2**n * (isqrt(sum(c * c for c in f)) + 1)
    k, m = 1, p
    while m <= bound:
        k, m = k + 1, m * p
    return _recombine(f, _lift_factors(f, modular, p, k), m, allowed)


def _odd_primes():
    for n in count(3, 2):
        if all(n % q for q in range(3, isqrt(n) + 1, 2)):
            yield n


def _integer_primitive(coeffs):
    """The primitive integer multiple, with positive leading coefficient, of
    a nonzero list of Fractions."""
    den = lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in coeffs])


def _yun(f):
    """Squarefree decomposition over Q (Yun 1976): pairs (a, i) of primitive,
    squarefree, pairwise coprime integer polynomials with f = prod a^i."""
    poly = UniPoly(f)
    derivative = poly.derivative()
    a = poly.gcd(derivative)
    b = poly.exact_div(a)
    d = derivative.exact_div(a) - b.derivative()
    parts, i = [], 1
    while b.degree > 0:
        a = b.gcd(d)
        b = b.exact_div(a)
        d = d.exact_div(a) - b.derivative()
        if a.degree > 0:
            parts.append((_integer_primitive(a.coeffs), i))
        i += 1
    return parts


def _factor_primitive(f):
    """Irreducible factors over Z with multiplicities of a primitive f of
    positive degree with f(0) != 0."""
    image = _best_prime(f, _SMALL_PRIMES)
    if image is None:
        return [
            (g, i) for a, i in _yun(f) for g in _zassenhaus(a, _best_prime(a, _odd_primes()))
        ]
    return [(g, 1) for g in _zassenhaus(f, image)]


def factor_rationals(p: UniPoly):
    """Full factorization over Q: returns (content, [(monic irreducible, mult)])
    with content * product(factor^mult) == p exactly, the factors sorted by
    (degree, coefficients)."""
    if p.is_zero():
        raise ZeroDivisionError("factorization of the zero polynomial")
    low = next(i for i, c in enumerate(p.coeffs) if c)
    factors = [(UniPoly.variable(), low)] if low else []
    f = _integer_primitive(p.coeffs[low:])
    if len(f) > 1:
        for g, mult in _factor_primitive(f):
            factors.append((UniPoly(Fraction(c, g[-1]) for c in g), mult))
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return p.leading(), factors


def is_irreducible_rational(p: UniPoly) -> bool:
    if p.degree < 1:
        return False
    _, factors = factor_rationals(p)
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree == p.degree


# -- bivariate irreducibility over Q(x) ------------------------------------


def _monic_divisors(factors, degree):
    """Monic divisors with the given degree of the product of `factors`,
    distinct monic irreducibles, so that no two subsets give one divisor."""
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
    return out


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

    Returns (verdict, certificate).  The certificate names a witness of
    irreducibility (`linear`, `irreducible_specialization`, `degree_sets` or
    `exhausted_search`), a repeated factor, or an explicit nontrivial factor
    as text.

    The walk visits x0 = 0, -1, 1, -2, 2, ... and uses the points where
    chi(x0, t) is squarefree.  If the first is irreducible over Q, so is chi.
    Otherwise up to _DEGREE_SET_POINTS of them are factored over Q, and the
    subset sums of each point's factor degrees are intersected (Musser 1978,
    J. ACM 25).  That is sound: chi is monic in t with coefficients in Q[x],
    so by Gauss's lemma a factor of t-degree d over Q(x) can be taken monic
    in Q[x][t], and at every x0 it specializes to a monic degree-d divisor of
    chi(x0, t), whose degree is a sum of factor degrees with multiplicity.
    Squarefreeness is not needed for this; at a squarefree point each factor
    counts once.  So every factor degree of chi lies in the intersection, and
    chi is irreducible (`degree_sets`) once it is {0, r}.

    Otherwise the Hensel search runs at the walked point with the fewest
    factors, for the degrees d <= r/2 still open.  The set is symmetric under
    d -> r - d, so a reducible chi has a factor of some open degree d <= r/2.
    Its specialization g0 is a monic divisor of degree d of the squarefree
    chi(x0, t), coprime to the cofactor, so lifting g0 through powers of
    x - x0 to precision d * deg_x chi + 1 recovers it, and exact division
    confirms it (`factor`).  When no candidate divides, chi is irreducible
    (`exhausted_search`).
    """
    if not chi.is_monic_in_t():
        raise ValidationError("irreducibility test requires a polynomial monic in t")
    r = chi.t_degree
    if r < 1:
        raise ValidationError("t-degree must be at least 1")
    if r == 1:
        return True, {"kind": "linear", "witness": "degree 1 in t"}

    # chi(x0, t) is squarefree exactly where disc_t(chi) is nonzero, and that
    # discriminant has x-degree at most (2r - 1) * deg_x chi.  Once one point
    # is squarefree, the walk meets the others within that many more points.
    bound = (2 * r - 1) * chi.x_degree + 1
    # a chi constant in x specializes to itself at every point
    budget = _DEGREE_SET_POINTS if chi.x_degree > 0 else 1
    points, open_degrees = [], (1 << r + 1) - 1
    for k in count():
        if k == bound and not points:
            # repeated factor over Q(x); the gcd with the t-derivative is proper
            g = bipoly_gcd_t(chi, chi.derivative_t())
            return False, {"kind": "repeated_factor", "factor": format_bipoly(g)}
        alpha = Fraction((k + 1) // 2 * (1 if k % 2 == 0 else -1))
        spec = chi.at_x(alpha)
        if spec.gcd(spec.derivative()).degree > 0:
            continue
        irt = [f for f, _ in factor_rationals(spec)[1]]
        if len(irt) == 1 and not points:
            return True, {
                "kind": "irreducible_specialization",
                "x0": str(alpha),
                "specialization": format_unipoly(spec, "t"),
            }
        sums = 1
        for f in irt:
            sums |= sums << f.degree
        open_degrees &= sums
        points.append((alpha, spec, irt))
        if open_degrees == 1 | 1 << r:
            return True, {
                "kind": "degree_sets",
                "points": [
                    {"x0": str(x0), "degrees": [f.degree for f in fs]} for x0, _, fs in points
                ],
            }
        if len(points) == budget:
            break

    alpha, spec, irt = min(points, key=lambda point: len(point[2]))
    shifted = chi.shift_x(alpha)
    n_x = max(0, chi.x_degree)
    searched = [d for d in range(1, r // 2 + 1) if open_degrees >> d & 1]
    for d in searched:
        precision = d * n_x + 1
        for g0 in _monic_divisors(irt, d):
            h0 = spec.exact_div(g0)
            g_rows = _hensel_lift(shifted, g0, h0, precision)
            # g0 is monic of degree d and each correction has degree < d, so
            # cand is monic of degree d
            cand = BiPoly(
                tuple(
                    UniPoly(tuple(g_rows[m].coeff(j) for m in range(precision)))
                    for j in range(d + 1)
                )
            ).shift_x(-alpha)
            if chi.divmod_t(cand)[1].is_zero():
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
