"""Number fields presented by a monic irreducible minimal polynomial.

Elements are residue classes of Q[t] modulo the minimal polynomial.  No
embeddings or Galois action are modeled; conjugate roots are represented
once, by the residue class of the generator.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError
from .factor import is_irreducible_rational
from .poly import UniPoly, _power, format_unipoly


class NumberField:
    """Q adjoined a root of a monic irreducible polynomial."""

    __slots__ = ("minimal",)

    def __init__(self, minimal: UniPoly, *, trusted: bool = False):
        if minimal.degree < 1:
            raise ValidationError("minimal polynomial must have degree >= 1")
        if minimal.leading() != 1:
            raise ValidationError("minimal polynomial must be monic")
        if not trusted and not is_irreducible_rational(minimal):
            raise ValidationError(
                f"minimal polynomial {format_unipoly(minimal, 't')!r} is reducible"
            )
        object.__setattr__(self, "minimal", minimal)

    def __setattr__(self, name, value):
        raise AttributeError("NumberField is immutable")

    @property
    def degree(self) -> int:
        return self.minimal.degree

    def __eq__(self, other):
        if isinstance(other, NumberField):
            return self.minimal == other.minimal
        return NotImplemented

    def __hash__(self):
        return hash(("NumberField", self.minimal.coeffs))

    def __repr__(self):
        return f"NumberField({format_unipoly(self.minimal, 't')!r})"

    def element(self, rep) -> "NumberFieldElement":
        if isinstance(rep, (int, Fraction)):
            rep = UniPoly.constant(rep)
        return NumberFieldElement(self, rep % self.minimal)

    def zero(self) -> "NumberFieldElement":
        return self.element(0)

    def one(self) -> "NumberFieldElement":
        return self.element(1)

    def generator(self) -> "NumberFieldElement":
        """Residue class of the variable, a root of the minimal polynomial."""
        return self.element(UniPoly.variable())


class NumberFieldElement:
    """Residue class in a NumberField; supports mixed arithmetic with
    rationals, which are coerced into the field."""

    __slots__ = ("field", "rep")

    def __init__(self, field: NumberField, rep: UniPoly):
        if rep.degree >= field.degree:
            rep = rep % field.minimal
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, name, value):
        raise AttributeError("NumberFieldElement is immutable")

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field != self.field:
                raise ValidationError("elements of different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element(other)
        return None

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def is_rational(self) -> bool:
        return self.rep.degree <= 0

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValidationError("element is not rational")
        return self.rep.coeff(0)

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        return hash(("NFE", self.field.minimal.coeffs, self.rep.coeffs))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.rep == other.rep

    def __repr__(self):
        return f"<{format_unipoly(self.rep, 't')} mod {format_unipoly(self.field.minimal, 't')}>"

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return NumberFieldElement(self.field, self.rep + other.rep)

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, -self.rep)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return NumberFieldElement(self.field, self.rep - other.rep)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return NumberFieldElement(self.field, (self.rep * other.rep) % self.field.minimal)

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a number field")
        g, u, _ = self.rep.xgcd(self.field.minimal)
        if g.degree != 0:
            raise ValidationError("minimal polynomial is not irreducible")
        return NumberFieldElement(self.field, (u / g.coeff(0)) % self.field.minimal)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, self.field.one())

    def trace(self) -> Fraction:
        """Field trace down to Q: trace of the multiplication-by-self matrix."""
        n = self.field.degree
        total = Fraction(0)
        power = UniPoly.one()
        for i in range(n):
            col = (self.rep * power) % self.field.minimal
            total += col.coeff(i)
            power = (power * UniPoly.variable()) % self.field.minimal
        return total
