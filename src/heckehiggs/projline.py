"""The projective line: split vector bundles and twisted endomorphisms, all
in a single affine chart with coordinate x.

Sections of O(n) are polynomials of degree <= n in the chart; marked points
are required to lie in the chart, so fiber trivializations of every O(n)
are canonical and fiber maps are plain scalar matrices.  A twisted
endomorphism carries its entries, twist and degree bounds, and no
arithmetic: products of entry matrices are ``linalg.mat_mul``.
"""

from __future__ import annotations

import numbers
import operator

from ._record import Record
from .errors import ValidationError
from .poly import UniPoly, _as_fraction


class SplitBundle(Record):
    """Direct sum of line bundles O(e1) (+) ... (+) O(er), e1 >= ... >= er."""

    __slots__ = ("twists",)

    def __init__(self, twists):
        ts = tuple(operator.index(e) for e in twists)
        if not ts:
            raise ValidationError("a bundle needs positive rank")
        if any(ts[i] < ts[i + 1] for i in range(len(ts) - 1)):
            raise ValidationError("twists must be sorted in descending order")
        super().__init__(ts)

    @property
    def rank(self) -> int:
        return len(self.twists)

    @property
    def degree(self) -> int:
        return sum(self.twists)


class TwistedEndo(Record):
    """A matrix of chart polynomials representing a global homomorphism
    E -> E (x) O(twist) for a split bundle E.

    Entry (i, j) is the component O(e_j) -> O(e_i) (x) O(twist), so it must
    have degree at most e_i - e_j + twist and vanish when that bound is
    negative.  Construction does not validate; see ``validate_twisted_endo``.
    """

    __slots__ = ("source", "twist", "entries")

    def __init__(self, source: SplitBundle, twist: int, entries):
        rows = []
        for row in entries:
            rows.append(
                tuple(
                    e if isinstance(e, UniPoly) else UniPoly.constant(e)
                    for e in row
                )
            )
        mat = tuple(rows)
        r = source.rank
        if len(mat) != r or any(len(row) != r for row in mat):
            raise ValidationError(f"entry matrix must be {r}x{r}")
        super().__init__(source, operator.index(twist), mat)

    @property
    def rank(self) -> int:
        return self.source.rank

    def bound(self, i: int, j: int) -> int:
        e = self.source.twists
        return e[i] - e[j] + self.twist


class EndoViolation(Record):
    """An entry whose degree exceeds its bound."""

    __slots__ = ("row", "col", "degree", "bound")

    def describe(self) -> str:
        return (
            f"entry ({self.row + 1},{self.col + 1}) has degree {self.degree}, "
            f"bound {self.bound}"
        )


def validate_twisted_endo(endo: TwistedEndo):
    """Check every entry against its degree bound; returns a violation list
    (empty means the matrix is a genuine global twisted endomorphism)."""
    violations = []
    for i, row in enumerate(endo.entries):
        for j, e in enumerate(row):
            bound = endo.bound(i, j)
            if e.is_zero():
                continue
            if e.degree > bound:
                violations.append(EndoViolation(i, j, e.degree, bound))
    return violations


def require_valid_endo(endo: TwistedEndo, label: str = "endomorphism"):
    violations = validate_twisted_endo(endo)
    if violations:
        detail = "; ".join(v.describe() for v in violations)
        raise ValidationError(f"{label} violates degree bounds: {detail}")


def evaluate_endo(endo: TwistedEndo, x0):
    """Entrywise evaluation at a chart point; the result represents the
    fiber map in the chart trivializations.  A Python number or string
    must be an int or a Fraction (a float or a string is a TypeError); an
    algebraic point, such as a number-field element, is evaluated as it is."""
    if isinstance(x0, (numbers.Number, str)):
        x0 = _as_fraction(x0)
    return tuple(tuple(e.evaluate(x0) for e in row) for row in endo.entries)
