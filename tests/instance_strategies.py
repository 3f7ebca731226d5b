"""Hypothesis strategies for instances: certified ones drawn with
`random_valid_instance`, and single-entry perturbations of them; and
`perturb_second_at_point`, the fixed perturbation the rejection tests use."""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import assume

from heckehiggs.errors import InfeasibleBudgetError
from heckehiggs.hecke import HeckeData, HeckePoint
from heckehiggs.higgs import HiggsPair, TwistedHiggsField, random_valid_instance
from heckehiggs.poly import UniPoly
from heckehiggs.projline import SplitBundle, TwistedEndo, endo_scalar

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
        for x in hecke.marked_xs():
            poly = poly * UniPoly((-x, 1))
    else:
        assume(bound >= 0)
        poly = UniPoly.constant(c) * UniPoly.variable() ** draw(st.integers(0, bound))
    assume(poly.degree <= bound)
    bumped = _bump(endo, i, j, poly)
    if kind == "first":
        return hecke, HiggsPair(pair.bundle, bumped, pair.second)
    return hecke, HiggsPair(pair.bundle, pair.first, bumped)


def perturb_second_at_point(field: TwistedHiggsField, index: int, delta=1):
    """A pair differing from the field's only in the second component's value
    at marked point `index` (used to probe rejection).  Needs the diagonal
    degree budget to accommodate a bump vanishing at the other points."""
    data = field.hecke
    xs = data.marked_xs()
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
    bumped = field.pair.second + endo_scalar(field.pair.bundle, bump, data.b)
    return HiggsPair(field.pair.bundle, field.pair.first, bumped)
