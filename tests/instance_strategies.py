"""Test-side instance generators and oracles: `random_valid_instance`, which
draws certified instances by construction; the hypothesis strategies built
on it, and single-entry perturbations of them; `perturb_second_at_point`,
the fixed perturbation the rejection tests use; `endo_scalar`, the scalar
endomorphisms they add; `fiber_pairs`, pairs whose fiber at a marked point
has a prescribed block structure; and `invariant_line_search`, the rank-2
reference oracle for stability."""

import random
from dataclasses import dataclass
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import assume

from heckehiggs.errors import ValidationError
from heckehiggs.hecke import HeckeData, HeckePoint, require_valid
from heckehiggs.higgs import HiggsPair, TwistedHiggsField, reconstruct
from heckehiggs.linalg import mat_mul, solve_right
from heckehiggs.poly import UniPoly
from heckehiggs.projline import SplitBundle, TwistedEndo
from heckehiggs.spectral import SpectralCurve


def endo_scalar(source: SplitBundle, poly: UniPoly, twist: int) -> TwistedEndo:
    """poly * identity as a twist-`twist` endomorphism."""
    if poly.degree > twist:
        raise ValidationError(f"degree {poly.degree} does not fit in O({twist})")
    r = source.rank
    z = UniPoly.zero()
    return TwistedEndo(
        source,
        twist,
        tuple(tuple(poly if i == j else z for j in range(r)) for i in range(r)),
    )


class InfeasibleBudgetError(Exception):
    """Random instance generation cannot satisfy the degree bounds."""


def _random_poly(rng: random.Random, degree: int) -> UniPoly:
    if degree < 0:
        return UniPoly.zero()
    return UniPoly([Fraction(rng.randint(-4, 4)) for _ in range(degree + 1)])


def random_valid_instance(
    data: HeckeData,
    bundle: SplitBundle,
    degree_budget: int,
    rng_seed: int,
) -> TwistedHiggsField:
    """Draw a random certified instance on the given bundle.

    The first component is a random twisted endomorphism with entry degrees
    capped by `degree_budget`; the second is alpha*I + beta*first where beta
    interpolates the marked scalars and alpha vanishes at the marked points,
    which makes both conditions hold by construction.  Raises
    InfeasibleBudgetError when the interpolation degrees cannot fit the
    second component's bounds for some admissible draw.
    """
    require_valid(data)
    a, b = data.a, data.b
    xs = [p.x for p in data.points]
    ell = len(xs)
    rng = random.Random(rng_seed)

    if ell:
        beta = UniPoly.interpolate([(p.x, p.scale) for p in data.points])
        room = b - a - max(beta.degree, 0)
        if room >= ell:
            extra = _random_poly(rng, room - ell)
            vanishing = UniPoly.one()
            for x in xs:
                vanishing = vanishing * UniPoly((-x, 1))
            beta = beta + vanishing * extra
    else:
        beta = _random_poly(rng, max(b - a, 0)) if b >= a else UniPoly.zero()

    twists = bundle.twists
    r = bundle.rank
    beta_deg = max(beta.degree, 0) if not beta.is_zero() else 0
    for i in range(r):
        for j in range(r):
            cap = min(twists[i] - twists[j] + a, degree_budget)
            if cap < 0:
                continue
            if not beta.is_zero() and beta_deg + cap > twists[i] - twists[j] + b:
                raise InfeasibleBudgetError(
                    f"entry ({i + 1},{j + 1}): budget {cap} plus interpolation "
                    f"degree {beta_deg} exceeds bound {twists[i] - twists[j] + b}"
                )

    entries = []
    for i in range(r):
        row = []
        for j in range(r):
            cap = min(twists[i] - twists[j] + a, degree_budget)
            row.append(_random_poly(rng, cap))
        entries.append(tuple(row))
    first = TwistedEndo(bundle, a, tuple(entries))

    if ell and b - ell >= 0:
        vanishing = UniPoly.one()
        for x in xs:
            vanishing = vanishing * UniPoly((-x, 1))
        alpha = vanishing * _random_poly(rng, b - ell)
    elif ell:
        alpha = UniPoly.zero()
    else:
        alpha = _random_poly(rng, b)

    scaled = tuple(tuple(beta * e for e in row) for row in first.entries)
    second = TwistedEndo(
        bundle, b, _matrix_plus(scaled, endo_scalar(bundle, alpha, b).entries)
    )
    pair = HiggsPair(bundle, first, second)
    return reconstruct(pair, data)


BUNDLES = ((0, 0), (1, 0), (0, 0, 0), (1, 0, 0))
SCALARS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3))

# "first" and "second" add c*x^k to one entry of that component, which breaks
# the fiber equation wherever the monomial does not vanish; "vanishing" adds
# c times the product of (x - x_i) to the second, which keeps the fiber
# equation and usually breaks commutation
PERTURBATIONS = ("none", "first", "second", "vanishing")


@st.composite
def valid_fields(draw):
    twists = draw(st.sampled_from(BUNDLES))
    length = draw(st.integers(0, 2))
    xs = draw(st.lists(st.integers(-2, 2), min_size=length, max_size=length, unique=True))
    points = [HeckePoint(Fraction(x), draw(st.sampled_from(SCALARS))) for x in xs]
    a = draw(st.integers(1, 2))
    b = draw(st.integers(max(a, length), 3))
    budget = min(a, b - max(length - 1, 0))
    seed = draw(st.integers(0, 10**6))
    try:
        return random_valid_instance(HeckeData(a, b, points), SplitBundle(twists), budget, seed)
    except InfeasibleBudgetError:
        assume(False)


def _bump(endo: TwistedEndo, i: int, j: int, poly: UniPoly) -> TwistedEndo:
    rows = [list(row) for row in endo.entries]
    rows[i][j] = rows[i][j] + poly
    return TwistedEndo(endo.source, endo.twist, rows)


@st.composite
def instances(draw):
    """(hecke, pair): a certified instance, or one with one entry changed."""
    field = draw(valid_fields())
    hecke, pair = field.hecke, field.pair
    kind = draw(st.sampled_from(PERTURBATIONS))
    if kind == "none":
        return hecke, pair
    twists = pair.bundle.twists
    i = draw(st.integers(0, pair.rank - 1))
    j = draw(st.integers(0, pair.rank - 1))
    c = draw(st.sampled_from((1, -1, 2)))
    endo = pair.first if kind == "first" else pair.second
    bound = twists[i] - twists[j] + endo.twist
    if kind == "vanishing":
        poly = UniPoly.constant(c)
        for p in hecke.points:
            poly = poly * UniPoly((-p.x, 1))
    else:
        assume(bound >= 0)
        poly = UniPoly.constant(c) * UniPoly.variable() ** draw(st.integers(0, bound))
    assume(poly.degree <= bound)
    bumped = _bump(endo, i, j, poly)
    if kind == "first":
        return hecke, HiggsPair(pair.bundle, bumped, pair.second)
    return hecke, HiggsPair(pair.bundle, pair.first, bumped)


# irreducible over Q; two of them, so that a draw often repeats one
QUADRATICS = (UniPoly((-2, 0, 1)), UniPoly((1, 0, 1)))


def companion(p: UniPoly):
    """The companion matrix of a monic quadratic p: its char poly is p."""
    return ((Fraction(0), -p.coeff(0)), (Fraction(1), -p.coeff(1)))


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return tuple(tuple(row) for row in out)


def _fiber_block(draw):
    """(semisimple, nilpotent) parts of one Jordan-type block: a rational
    eigenvalue, a rational Jordan block, the companion block of an
    irreducible quadratic, or the quadratic Jordan block [[C, I], [0, C]]."""
    kind = draw(st.sampled_from(("rational", "jordan", "quadratic", "quadratic_jordan")))
    if kind in ("rational", "jordan"):
        c = Fraction(draw(st.sampled_from((0, 1, -1))))
        k = 1 if kind == "rational" else draw(st.integers(2, 3))
        semisimple = tuple(tuple(c if i == j else Fraction(0) for j in range(k)) for i in range(k))
        nilpotent = tuple(tuple(Fraction(int(j == i + 1)) for j in range(k)) for i in range(k))
        return semisimple, nilpotent
    c = companion(draw(st.sampled_from(QUADRATICS)))
    if kind == "quadratic":
        return c, ((Fraction(0),) * 2,) * 2
    nilpotent = tuple(tuple(Fraction(int(j == i + 2)) for j in range(4)) for i in range(4))
    return block_diagonal([c, c]), nilpotent


def _matrix_plus(a, b, scale=1):
    return tuple(tuple(x + scale * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


@st.composite
def fiber_pairs(draw):
    """(hecke, pair, kind): a pair of constant maps A = P J P^-1 and
    B = P M P^-1 on O^r, twist 1, with one marked point at x = 0.

    J = J_s + N is block-diagonal with blocks from `_fiber_block`, of rank at
    most 5, so chi(0, t) has repeated rational and quadratic factors.  M is,
    by `kind`: "scaled", mu * J_s + beta * N, which keeps every generalized
    eigenspace of A; "bumped", the same with one entry changed; "mixing",
    lambda * J + D with D = diag(1, -1, 1, ...), which keeps each kernel W of
    p(A)^m but not the conjugate eigenspaces inside a quadratic W (J holds at
    least one quadratic block then); "random", small integers."""
    kind = draw(st.sampled_from(("scaled", "bumped", "mixing", "random")))
    blocks = [_fiber_block(draw) for _ in range(draw(st.integers(1, 3)))]
    if kind == "mixing":
        blocks.insert(0, (companion(draw(st.sampled_from(QUADRATICS))), ((Fraction(0),) * 2,) * 2))
    semisimple = block_diagonal([s for s, _ in blocks])
    nilpotent = block_diagonal([n for _, n in blocks])
    r = len(semisimple)
    assume(r <= 5)
    small = st.integers(-1, 1).map(Fraction)
    lower = tuple(
        tuple(Fraction(int(i == j)) if j >= i else draw(small) for j in range(r)) for i in range(r)
    )
    upper = tuple(
        tuple(Fraction(int(i == j)) if j <= i else draw(small) for j in range(r)) for i in range(r)
    )
    p = mat_mul(lower, upper)
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(r)) for i in range(r))
    p_inv = solve_right(p, identity, Fraction(1))
    jordan = _matrix_plus(semisimple, nilpotent)
    scale = draw(st.sampled_from(SCALARS))
    if kind in ("scaled", "bumped"):
        mu = draw(st.sampled_from((scale, -scale, Fraction(2))))
        m = _matrix_plus(tuple(tuple(mu * e for e in row) for row in semisimple), nilpotent,
                         draw(st.integers(-1, 1)))
        if kind == "bumped":
            i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            rows = [list(row) for row in m]
            rows[i][j] += draw(st.sampled_from((1, -1)))
            m = tuple(tuple(row) for row in rows)
    elif kind == "mixing":
        d = tuple(tuple(Fraction((-1) ** i) if i == j else Fraction(0) for j in range(r))
                  for i in range(r))
        m = _matrix_plus(tuple(tuple(scale * e for e in row) for row in jordan), d)
    else:
        m = tuple(tuple(Fraction(draw(st.integers(-2, 2))) for _ in range(r)) for _ in range(r))
    bundle = SplitBundle((0,) * r)

    def endo(fiber):
        return TwistedEndo(bundle, 1, mat_mul(mat_mul(p, fiber), p_inv))

    hecke = HeckeData(1, 1, [HeckePoint(Fraction(0), scale)])
    return hecke, HiggsPair(bundle, endo(jordan), endo(m)), kind


def perturb_second_at_point(field: TwistedHiggsField, index: int, delta=1):
    """A pair differing from the field's only in the second component's value
    at marked point `index` (used to probe rejection).  Needs the diagonal
    degree budget to accommodate a bump vanishing at the other points."""
    data = field.hecke
    xs = [p.x for p in data.points]
    if not 0 <= index < len(xs):
        raise IndexError("marked point index out of range")
    bump = UniPoly.constant(delta)
    for j, xj in enumerate(xs):
        if j != index:
            bump = bump * UniPoly((-xj, 1))
    if bump.degree > data.b:
        raise InfeasibleBudgetError(
            f"bump degree {bump.degree} exceeds the twist budget {data.b}"
        )
    second = field.pair.second
    bumped = TwistedEndo(
        second.source,
        second.twist,
        _matrix_plus(second.entries, endo_scalar(second.source, bump, data.b).entries),
    )
    return HiggsPair(field.pair.bundle, field.pair.first, bumped)


@dataclass(frozen=True)
class InvariantLine:
    """A line subbundle invariant under the first component (rank 2)."""

    eigenvalue: UniPoly
    vector: tuple  # pair of UniPoly, not both zero, primitive
    second_invariant: bool


def invariant_line_search(pair: HiggsPair, curve: SpectralCurve):
    """Rank-2 search for a first-component-invariant line subbundle.

    Returns an InvariantLine exactly when the characteristic polynomial is
    reducible over Q(x) (equivalently its discriminant is a polynomial
    square), reporting whether the line is also second-invariant; returns
    None for an irreducible curve.  `curve` is the spectral curve of the
    first component, chi = t^2 - s1 t + s2.
    """
    if pair.rank != 2:
        raise ValueError("invariant line search is rank-2 only")
    s1 = -curve.chi.tcoeff(1)
    s2 = curve.chi.tcoeff(0)
    disc = s1 * s1 - 4 * s2
    root = disc.sqrt()
    if root is None:
        return None
    mu = (s1 + root) / 2
    m = pair.first.entries
    candidates = [
        (m[0][1], mu - m[0][0]),
        (mu - m[1][1], m[1][0]),
    ]
    vector = None
    for v in candidates:
        if not (v[0].is_zero() and v[1].is_zero()):
            vector = v
            break
    if vector is None:
        vector = (UniPoly.one(), UniPoly.zero())  # scalar matrix: any line
    else:
        g = vector[0].gcd(vector[1])
        if g.degree > 0:
            vector = (vector[0].exact_div(g), vector[1].exact_div(g))
    checks = (
        m[0][0] * vector[0] + m[0][1] * vector[1] - mu * vector[0],
        m[1][0] * vector[0] + m[1][1] * vector[1] - mu * vector[1],
    )
    if not (checks[0].is_zero() and checks[1].is_zero()):
        raise ValidationError("eigenline verification failed (internal error)")
    w = (
        pair.second.entries[0][0] * vector[0] + pair.second.entries[0][1] * vector[1],
        pair.second.entries[1][0] * vector[0] + pair.second.entries[1][1] * vector[1],
    )
    cross = w[0] * vector[1] - w[1] * vector[0]
    return InvariantLine(mu, vector, cross.is_zero())
