"""The projective line: split vector bundles and twisted endomorphisms, all
in a single affine chart with coordinate x.

Sections of O(n) are polynomials of degree <= n in the chart; marked points
are required to lie in the chart, so fiber trivializations of every O(n)
are canonical and fiber maps are plain scalar matrices.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import ValidationError
from .linalg import mat_mul
from .poly import UniPoly, format_unipoly


class SplitBundle:
    """Direct sum of line bundles O(e1) (+) ... (+) O(er), e1 >= ... >= er."""

    __slots__ = ("twists",)

    def __init__(self, twists):
        ts = tuple(int(e) for e in twists)
        if not ts:
            raise ValidationError("a bundle needs positive rank")
        if any(ts[i] < ts[i + 1] for i in range(len(ts) - 1)):
            raise ValidationError("twists must be sorted in descending order")
        object.__setattr__(self, "twists", ts)

    def __setattr__(self, name, value):
        raise AttributeError("SplitBundle is immutable")

    @property
    def rank(self) -> int:
        return len(self.twists)

    @property
    def degree(self) -> int:
        return sum(self.twists)

    def __eq__(self, other):
        if isinstance(other, SplitBundle):
            return self.twists == other.twists
        return NotImplemented

    def __hash__(self):
        return hash(("SplitBundle", self.twists))

    def __repr__(self):
        return f"SplitBundle({list(self.twists)})"


class TwistedEndo:
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
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "twist", int(twist))
        object.__setattr__(self, "entries", mat)

    def __setattr__(self, name, value):
        raise AttributeError("TwistedEndo is immutable")

    @property
    def rank(self) -> int:
        return self.source.rank

    def bound(self, i: int, j: int) -> int:
        e = self.source.twists
        return e[i] - e[j] + self.twist

    def __eq__(self, other):
        if isinstance(other, TwistedEndo):
            return (
                self.source == other.source
                and self.twist == other.twist
                and self.entries == other.entries
            )
        return NotImplemented

    def __hash__(self):
        return hash(("TwistedEndo", self.source.twists, self.twist, self.entries))

    def __repr__(self):
        rows = [[format_unipoly(e) for e in row] for row in self.entries]
        return f"TwistedEndo(E={list(self.source.twists)}, twist={self.twist}, {rows})"

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __add__(self, other):
        if not isinstance(other, TwistedEndo):
            return NotImplemented
        if self.source != other.source or self.twist != other.twist:
            raise ValidationError("sum of endomorphisms with different twists")
        return TwistedEndo(
            self.source,
            self.twist,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other):
        if not isinstance(other, TwistedEndo):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return TwistedEndo(
            self.source,
            self.twist,
            tuple(tuple(-e for e in row) for row in self.entries),
        )

    def __mul__(self, other):
        """Composition; the twists add."""
        if not isinstance(other, TwistedEndo):
            return NotImplemented
        if self.source != other.source:
            raise ValidationError("composition over different bundles")
        return TwistedEndo(
            self.source, self.twist + other.twist, mat_mul(self.entries, other.entries)
        )


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


class EndoViolation(Record):
    """An entry whose degree exceeds its bound."""

    __slots__ = ("row", "col", "degree", "bound")

    def __init__(self, row: int, col: int, degree: int, bound: int):
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "bound", bound)

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
    fiber map in the chart trivializations."""
    if isinstance(x0, int):
        x0 = Fraction(x0)
    return tuple(tuple(e.evaluate(x0) for e in row) for row in endo.entries)
