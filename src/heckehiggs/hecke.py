"""Hecke presentations of the rank-2 twisting bundle.

A presentation is a pair of line-bundle degrees (a, b) together with marked
chart points x_i carrying nonzero scalars lambda_i.  The bundle presented is
the kernel of the evaluation map

    O(a) (+) O(b)  ->  (+)_i  (skyscraper at x_i),   (f, g) |-> g(x_i) - lambda_i f(x_i),

so its sections twisted by O(n) are pairs (f, g) with deg f <= a+n,
deg g <= b+n and g(x_i) = lambda_i f(x_i) at every marked point.  The scalar
lambda_i is the chart matrix of the fiber map from the first summand's fiber
to the second's whose graph is the kernel fiber.

With alpha = max(a+n+1, 0), beta = max(b+n+1, 0) and L marked points, those
conditions are the L x (alpha+beta) matrix [-Lambda V_alpha | V_beta], with
V_k the Vandermonde matrix of the distinct points and Lambda = diag(lambda_i)
invertible.  Its rank lies between max(min(alpha, L), min(beta, L)) and
min(L, alpha+beta).  The bounds meet exactly when max(alpha, beta) >= L or
min(alpha, beta) = 0, and then h0 = max(alpha+beta-L, 0) with no
elimination; only the constrained twists, 1 <= min(alpha, beta) and
max(alpha, beta) < L, are counted by a rank.  `splitting_type` checks the
presentation once and probes each twist of its window once, through the
core `_h0`, which assumes distinct points and nonzero scalars.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction

from ._record import Record
from .errors import RetryExhaustedError, ValidationError
from .linalg import mat_rank
from .poly import UniPoly, _as_fraction


class HeckePoint(Record):
    """A marked chart point with its nonzero fiber scalar."""

    __slots__ = ("x", "scale")

    def __init__(self, x: Fraction, scale: Fraction):
        super().__init__(_as_fraction(x), _as_fraction(scale))


class HeckeData(Record):
    """Degrees (a, b) of the ambient summands plus the marked points."""

    __slots__ = ("a", "b", "points")

    def __init__(self, a: int, b: int, points):
        super().__init__(operator.index(a), operator.index(b), tuple(points))

    @property
    def length(self) -> int:
        return len(self.points)

    def kernel_degree(self) -> int:
        """Degree of the presented bundle: a + b - (number of points)."""
        return self.a + self.b - self.length


def validate(data: HeckeData):
    """Distinct marked points, all scalars nonzero; returns problem strings."""
    problems = []
    seen = {}
    for i, p in enumerate(data.points):
        if p.scale == 0:
            problems.append(f"point {i} at x={p.x} has zero scalar")
        if p.x in seen:
            problems.append(f"duplicate marked point x={p.x} (indices {seen[p.x]}, {i})")
        else:
            seen[p.x] = i
    return problems


def require_valid(data: HeckeData):
    problems = validate(data)
    if problems:
        raise ValidationError("; ".join(problems))


def h0_of_twist(data: HeckeData, n: int) -> int:
    """Dimension of the twisted section space of the presented bundle.

    Sections are pairs (f, g), deg f <= a+n, deg g <= b+n, subject to one
    linear condition per marked point: the kernel of the L x (alpha+beta)
    matrix [-Lambda V_alpha | V_beta].  Its rank is at least
    max(min(alpha, L), min(beta, L)) and at most min(L, alpha+beta).  When
    max(alpha, beta) >= L, evaluation at the points is onto and h0 is the
    Riemann-Roch count alpha+beta-L; when min(alpha, beta) = 0, one summand
    has no sections.  In both cases h0 = max(alpha+beta-L, 0); otherwise the
    rank is computed by elimination.
    """
    require_valid(data)
    return _h0(data, n)


def _h0(data: HeckeData, n: int) -> int:
    """`h0_of_twist` of a presentation known to be valid."""
    alpha = max(data.a + n + 1, 0)
    beta = max(data.b + n + 1, 0)
    if max(alpha, beta) >= data.length or min(alpha, beta) == 0:
        return max(alpha + beta - data.length, 0)
    rows = []
    for p in data.points:
        row = [-p.scale * p.x**k for k in range(alpha)]
        row += [p.x**k for k in range(beta)]
        rows.append(tuple(row))
    return alpha + beta - mat_rank(tuple(rows))


def splitting_type(data: HeckeData) -> tuple:
    """Recover the splitting of the presented bundle from its h^0 jumps.

    The unique (c, d) with c >= d and c + d = kernel degree whose profile
    max(c+n+1, 0) + max(d+n+1, 0) equals h0_of_twist for all n.  The larger
    twist is pinned by the first n with a nonzero section space (c = -n).
    The profile is verified on the window [-(top+2), max(2, -d+1)] covering
    both jumps, probing each twist once: below -c the scan has seen only
    zeros, which is the profile there, and from -c up each twist is checked
    as it is probed.
    """
    require_valid(data)
    total = data.kernel_degree()
    top = max(data.a, data.b)
    n = -(top + 2)
    guard = -min(data.a, data.b) + data.length + 1
    h0 = _h0(data, n)
    while h0 == 0:
        n += 1
        if n > guard:
            raise ValidationError(
                "no sections below the guaranteed twist (internal error)"
            )
        h0 = _h0(data, n)
    c = -n
    d = total - c
    if c < d:
        raise ValidationError("section jump above the degree midpoint (internal error)")
    for m in range(n, max(2, -d + 1) + 1):
        if m > n:
            h0 = _h0(data, m)
        if h0 != max(c + m + 1, 0) + max(d + m + 1, 0):
            raise ValidationError(
                f"section profile mismatch at twist {m} (internal error)"
            )
    return c, d


def _random_fraction(rng: random.Random, zero_ok: bool = True) -> Fraction:
    while True:
        value = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if zero_ok or value != 0:
            return value


def _random_poly(rng: random.Random, degree: int) -> UniPoly:
    if degree < 0:
        return UniPoly.zero()
    return UniPoly([_random_fraction(rng) for _ in range(degree + 1)])


# random sections tried by `make_presentation` before it gives up
_MAX_RETRIES = 64


def make_presentation(
    c: int,
    d: int,
    length: int,
    point_pool,
    rng_seed: int,
) -> HeckeData:
    """Construct a presentation whose kernel bundle splits as (c, d).

    Needs c >= d, length >= 1 and length > (c - d) - 2 (the genus-zero
    constraint for the splitting step of the underlying construction).
    The summand degrees are balanced, scalars come from a random section
    forcing an O(c) subbundle, and the result is verified a posteriori by
    ``splitting_type``; the degenerate balance is handled by an unbalanced
    deterministic variant.
    """
    if c < d:
        raise ValidationError("require c >= d")
    if length < 1:
        raise ValidationError("require at least one marked point")
    if not length > (c - d) - 2:
        raise ValidationError(
            f"length {length} violates the constraint length > c - d - 2 = {c - d - 2}"
        )
    pool = []
    seen = set()
    for value in point_pool:
        v = _as_fraction(value)
        if v not in seen:
            seen.add(v)
            pool.append(v)
    if len(pool) < length:
        raise ValidationError(
            f"point pool holds {len(pool)} distinct values, need {length}"
        )
    xs = pool[:length]
    rng = random.Random(rng_seed)
    total = c + d + length
    a = total - total // 2  # ceil
    b = total - a

    if b < c:
        # boundary case length == c - d - 1: pin O(c) by a section whose
        # first component vanishes at every marked point
        a, b = c + length, d
        lams = [_random_fraction(rng, zero_ok=False) for _ in xs]
        data = HeckeData(a, b, [HeckePoint(x, lam) for x, lam in zip(xs, lams)])
        if splitting_type(data) != (c, d):
            raise ValidationError(
                "unbalanced presentation missed its target (internal error)"
            )
        return data

    target = (c, d)
    for _ in range(_MAX_RETRIES):
        f = _random_poly(rng, a - c)
        g = _random_poly(rng, b - c)
        if any(f.evaluate(x) == 0 or g.evaluate(x) == 0 for x in xs):
            continue
        lams = [g.evaluate(x) / f.evaluate(x) for x in xs]
        data = HeckeData(a, b, [HeckePoint(x, lam) for x, lam in zip(xs, lams)])
        if splitting_type(data) == target:
            return data
    raise RetryExhaustedError(
        f"could not realize splitting ({c}, {d}) with {length} points "
        f"after {_MAX_RETRIES} attempts"
    )
