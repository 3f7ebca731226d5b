"""Exact univariate and bivariate polynomial arithmetic over the rationals.

``UniPoly`` is a dense list of ``Fraction`` coefficients in one variable
(ascending degree, no trailing zeros).  ``BiPoly`` stacks ``UniPoly``
coefficients along powers of a second variable ``t``, so a bivariate
polynomial chi(x, t) is stored as its list of t-coefficients.
``RationalFunction`` is the fraction field of ``UniPoly``; its one user is
``bipoly_gcd_t``, the Euclidean gcd in t over the function field.
``_det_unipoly`` is the one determinant over Q[x]: it serves the commutant
solve's Krylov system and, under the substitution t -> x^w,
``linalg.char_poly``.  It is Bareiss elimination on integers, through three
packing helpers (``_clear_row`` clears a row's denominators, ``_pack``
evaluates an integer coefficient list at x = 2^s, ``_unpack`` reads the
signed base-2^s digits back).  ``_power`` is the one repeated-squaring loop,
shared by ``UniPoly``, ``BiPoly`` and number-field elements.

All values are immutable and all operations are pure; the text grammar
(`parse_bipoly` / `format_bipoly`) is the single parse/print format used by
every other module: terms over ``x`` and ``t``, rational coefficients as
``p/q`` or integers in ASCII digits, ``^`` for powers, e.g.
``"t^2 - 3/2*x*t + 1"``; `parse_fraction` reads a signed rational in the
same digits.  The
parser reads each term as a (coefficient, x-exponent, t-exponent) triple and
sums like terms, so ``"x*t - t*x"`` is 0; it builds the polynomial once and
takes no polynomial product or power.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import factorial, isqrt, lcm

from ._record import Record
from .errors import ParseError, ValidationError


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot treat {value!r} as a rational number")


def _power(base, n: int, one):
    """base**n for n >= 0 by repeated squaring; `one` is the unit of base's ring."""
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


class UniPoly(Record):
    """Polynomial in one variable with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls((_as_fraction(c),))

    @classmethod
    def variable(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "UniPoly":
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        return cls((0,) * power + (_as_fraction(coeff),))

    @classmethod
    def interpolate(cls, points: Sequence[tuple]) -> "UniPoly":
        """Lagrange interpolation through distinct abscissas."""
        result = cls.zero()
        for i, (xi, yi) in enumerate(points):
            term = cls.constant(yi)
            for j, (xj, _) in enumerate(points):
                if i == j:
                    continue
                term = term * cls((-xj, 1)) / (xi - xj)
            result = result + term
        return result

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree with the convention deg(0) = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __hash__(self):
        return hash(("UniPoly", self.coeffs))

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.constant(other)
        return NotImplemented

    def __repr__(self):
        return f"UniPoly({format_unipoly(self)!r})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return UniPoly(tuple(ci * c for ci in self.coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * (Fraction(1) / c)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, UniPoly.one())

    def __divmod__(self, other: "UniPoly"):
        """Exact long division; ``other`` must be nonzero."""
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.leading()
        for k in range(len(rem) - 1, d - 1, -1):
            if rem[k] == 0:
                continue
            q = rem[k] / lead
            quo[k - d] = q
            for j, c in enumerate(other.coeffs):
                rem[k - d + j] -= q * c
        return UniPoly(quo), UniPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("exact_div with nonzero remainder")
        return q

    # -- euclidean toolkit --------------------------------------------

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self * (Fraction(1) / self.leading())

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other: "UniPoly"):
        """Extended gcd: returns (g, u, v) with u*self + v*other = g, g monic."""
        r0, r1 = self, other
        u0, u1 = UniPoly.one(), UniPoly.zero()
        v0, v1 = UniPoly.zero(), UniPoly.one()
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            u0, u1 = u1, u0 - q * u1
            v0, v1 = v1, v0 - q * v1
        if r0.is_zero():
            return r0, u0, v0
        lc = r0.leading()
        inv = Fraction(1) / lc
        return r0 * inv, u0 * inv, v0 * inv

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(c * (i + 1) for i, c in enumerate(self.coeffs[1:])))

    def evaluate(self, value):
        """Horner evaluation; value may be a Fraction, a number-field element,
        a UniPoly (composition) or a BiPoly."""
        result = Fraction(0)
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def compose(self, inner: "UniPoly") -> "UniPoly":
        out = self.evaluate(inner)
        if isinstance(out, Fraction):
            return UniPoly.constant(out)
        return out

    def shift(self, offset) -> "UniPoly":
        """p(x + offset)."""
        return self.compose(UniPoly((_as_fraction(offset), 1)))

    def sqrt(self):
        """Exact polynomial square root, or None when p is not a square."""
        if self.is_zero():
            return UniPoly.zero()
        if self.degree % 2 != 0:
            return None
        lc = self.leading()
        root = _fraction_sqrt(lc)
        if root is None:
            return None
        half = self.degree // 2
        out = [Fraction(0)] * (half + 1)
        out[half] = root
        # peel coefficients from the top: the x^(half+k) coefficient of h^2
        # is linear in out[k] once higher entries are known
        for k in range(half - 1, -1, -1):
            total = Fraction(0)
            for i in range(k + 1, half):
                total += out[i] * out[half + k - i]
            out[k] = (self.coeff(half + k) - total) / (2 * root)
        h = UniPoly(out)
        if h * h == self:
            return h
        return None


def _fraction_sqrt(c: Fraction):
    if c < 0:
        return None
    if c == 0:
        return Fraction(0)
    n, d = c.numerator, c.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _clear_row(row):
    """A row of UniPoly as integer coefficient lists, scaled by the lcm of
    its denominators; returns (lists, lcm)."""
    den = 1
    for p in row:
        for c in p.coeffs:
            den = lcm(den, c.denominator)
    return [[c.numerator * (den // c.denominator) for c in p.coeffs] for p in row], den


def _pack(coeffs, s: int) -> int:
    """The integer coefficient list (ascending) evaluated at x = 2^s."""
    value = 0
    for c in reversed(coeffs):
        value = (value << s) + c
    return value


def _unpack(value: int, s: int) -> list:
    """The signed base-2^s digits of `value`, ascending: the inverse of
    `_pack` on lists whose coefficients lie strictly inside +-2^(s-1)."""
    digits = []
    half, mask = 1 << (s - 1), (1 << s) - 1
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << s
        digits.append(digit)
        value = (value - digit) >> s
    return digits


def _det_unipoly(rows) -> UniPoly:
    """Determinant over Q[x] by Bareiss elimination on packed integers.

    Each row is cleared of denominators and each entry packed at x = 2^s,
    where 2^(s-1) exceeds n! * L^(n-1) * H^n (H the largest cleared
    coefficient, L the longest coefficient list): that bounds every minor of
    size <= n, so a packed pivot is zero exactly when its polynomial is.
    Packing is a ring map Z[x] -> Z, so Bareiss's divisions stay exact; the
    row denominators are divided out once at the end."""
    n = len(rows)
    if n == 0:
        return UniPoly.one()
    cleared, denominator = [], 1
    for row in rows:
        lists, den = _clear_row(row)
        cleared.append(lists)
        denominator *= den
    height = max((abs(c) for row in cleared for cs in row for c in cs), default=0)
    length = max(len(cs) for row in cleared for cs in row)
    s = (factorial(n) * length ** (n - 1) * height**n).bit_length() + 1
    mat = [[_pack(cs, s) for cs in row] for row in cleared]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not mat[k][k]:
            swap = next((r for r in range(k + 1, n) if mat[r][k]), None)
            if swap is None:
                return UniPoly.zero()
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        pivot, pivot_row = mat[k][k], mat[k]
        for i in range(k + 1, n):
            row = mat[i]
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
    return UniPoly(Fraction(sign * c, denominator) for c in _unpack(mat[n - 1][n - 1], s))


class BiPoly(Record):
    """Polynomial in two variables x and t, stored by powers of t."""

    __slots__ = ("tcoeffs",)

    def __init__(self, tcoeffs: Iterable = ()):
        cs = []
        for c in tcoeffs:
            if isinstance(c, UniPoly):
                cs.append(c)
            else:
                cs.append(UniPoly.constant(c))
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "tcoeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls(())

    @classmethod
    def one(cls) -> "BiPoly":
        return cls((UniPoly.one(),))

    @classmethod
    def constant(cls, c) -> "BiPoly":
        return cls((UniPoly.constant(c),))

    @classmethod
    def t(cls) -> "BiPoly":
        return cls((UniPoly.zero(), UniPoly.one()))

    @classmethod
    def from_unipoly(cls, p: UniPoly) -> "BiPoly":
        return cls((p,))

    @property
    def t_degree(self) -> int:
        return len(self.tcoeffs) - 1

    @property
    def x_degree(self) -> int:
        return max((c.degree for c in self.tcoeffs), default=-1)

    def tcoeff(self, k: int) -> UniPoly:
        if 0 <= k < len(self.tcoeffs):
            return self.tcoeffs[k]
        return UniPoly.zero()

    def is_zero(self) -> bool:
        return not self.tcoeffs

    def is_monic_in_t(self) -> bool:
        return bool(self.tcoeffs) and self.tcoeffs[-1] == UniPoly.one()

    def __bool__(self):
        return bool(self.tcoeffs)

    def __hash__(self):
        return hash(("BiPoly", self.tcoeffs))

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            return self.tcoeffs == other.tcoeffs
        if isinstance(other, (int, Fraction)):
            return self == BiPoly.constant(other)
        if isinstance(other, UniPoly):
            return self == BiPoly.from_unipoly(other)
        return NotImplemented

    def __repr__(self):
        return f"BiPoly({format_bipoly(self)!r})"

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.tcoeffs, other.tcoeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly(tuple(-c for c in self.tcoeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return BiPoly.zero()
        out = [UniPoly.zero()] * (len(self.tcoeffs) + len(other.tcoeffs) - 1)
        for i, a in enumerate(self.tcoeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.tcoeffs):
                out[i + j] = out[i + j] + a * b
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, BiPoly.one())

    @staticmethod
    def _coerce(other):
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, UniPoly):
            return BiPoly.from_unipoly(other)
        if isinstance(other, (int, Fraction)):
            return BiPoly.constant(other)
        return NotImplemented

    def divmod_t(self, other: "BiPoly"):
        """Division with remainder along t.

        Requires the divisor's top t-coefficient to be a nonzero rational
        constant (in particular any divisor monic in t qualifies).
        """
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        lead = other.tcoeffs[-1]
        if lead.degree > 0:
            raise ValueError("divisor must have an invertible top t-coefficient")
        inv = Fraction(1) / lead.coeff(0)
        rem = list(self.tcoeffs)
        d = other.t_degree
        quo = [UniPoly.zero()] * max(len(rem) - d, 0)
        for k in range(len(rem) - 1, d - 1, -1):
            if rem[k].is_zero():
                continue
            q = rem[k] * inv
            quo[k - d] = q
            for j, c in enumerate(other.tcoeffs):
                rem[k - d + j] = rem[k - d + j] - q * c
        return BiPoly(quo), BiPoly(rem)

    def at_x(self, x0) -> UniPoly:
        """Specialize x; the result is univariate in t."""
        return UniPoly(tuple(c.evaluate(_as_fraction(x0)) for c in self.tcoeffs))

    def evaluate(self, x0, y):
        """Full evaluation; y may live in a number field."""
        spec = self.at_x(x0)
        return spec.evaluate(y)

    def derivative_t(self) -> "BiPoly":
        return BiPoly(tuple(c * (k + 1) for k, c in enumerate(self.tcoeffs[1:])))

    def shift_x(self, offset) -> "BiPoly":
        return BiPoly(tuple(c.shift(offset) for c in self.tcoeffs))


class RationalFunction(Record):
    """Element of Q(x): a reduced quotient of two UniPoly with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly = None):
        if not isinstance(num, UniPoly):
            num = UniPoly.constant(num)
        if den is None:
            den = UniPoly.one()
        elif not isinstance(den, UniPoly):
            den = UniPoly.constant(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = UniPoly.zero(), UniPoly.one()
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
            lc = den.leading()
            if lc != 1:
                inv = Fraction(1) / lc
                num, den = num * inv, den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def zero(cls):
        return cls(UniPoly.zero())

    @classmethod
    def one(cls):
        return cls(UniPoly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == UniPoly.one()

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        return hash(("RationalFunction", self.num.coeffs, self.den.coeffs))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        if self.is_polynomial():
            return f"RationalFunction({format_unipoly(self.num)!r})"
        return (
            f"RationalFunction({format_unipoly(self.num)!r}, "
            f"{format_unipoly(self.den)!r})"
        )

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction, UniPoly)):
            return RationalFunction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other / self

    def evaluate(self, x0) -> Fraction:
        x0 = _as_fraction(x0)
        d = self.den.evaluate(x0)
        if d == 0:
            raise ZeroDivisionError(f"pole at x = {x0}")
        return self.num.evaluate(x0) / d


def bipoly_gcd_t(p: BiPoly, q: BiPoly) -> BiPoly:
    """Monic-in-t gcd over the function field Q(x), denominators cleared.

    The result is a BiPoly, monic in t, whose t-coefficients are rational
    functions cleared to a common polynomial denominator.
    """
    a = [RationalFunction(c) for c in p.tcoeffs]
    b = [RationalFunction(c) for c in q.tcoeffs]

    def strip(u):
        while u and u[-1].is_zero():
            u.pop()
        return u

    def mod(u, v):
        u = list(u)
        dv = len(v) - 1
        inv = RationalFunction.one() / v[-1]
        for k in range(len(u) - 1, dv - 1, -1):
            if u[k].is_zero():
                continue
            f = u[k] * inv
            for j, c in enumerate(v):
                u[k - dv + j] = u[k - dv + j] - f * c
        return strip(u)

    a, b = strip(a), strip(b)
    while b:
        a, b = b, mod(a, b)
    if not a:
        return BiPoly.zero()
    inv = RationalFunction.one() / a[-1]
    a = [c * inv for c in a]
    den = UniPoly.one()
    for c in a:
        den = den * c.den.exact_div(den.gcd(c.den))
    coeffs = [c.num * den.exact_div(c.den) for c in a]
    common = coeffs[0]
    for c in coeffs[1:]:
        common = common.gcd(c)
    if common.degree > 0:
        coeffs = [c.exact_div(common) for c in coeffs]
    return BiPoly(coeffs)


# -- text grammar ---------------------------------------------------------

_DIGITS = frozenset("0123456789")
_TOKEN_CHARS = _DIGITS | set("/^*+-xt")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch not in _TOKEN_CHARS:
            raise ParseError(f"unexpected character {ch!r} in {text!r}")
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            try:
                value = int(text[i:j])
            except ValueError as exc:  # past CPython's int-string digit limit
                raise ParseError(f"integer literal of {j - i} digits is too long") from exc
            tokens.append(("num", value))
            i = j
        else:
            tokens.append((ch, ch))
            i += 1
    return tokens


def parse_bipoly(text: str) -> BiPoly:
    """Parse the shared polynomial grammar into a BiPoly in (x, t).

    Each term is read as a (coefficient, x-exponent, t-exponent) triple, like
    terms are summed by exponent pair, and the BiPoly is built once at the
    end, so no polynomial product or power is taken."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(kind=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"unexpected end of input in {text!r}")
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r} in {text!r}")
        pos += 1
        return tok

    def parse_rational() -> Fraction:
        tok = take("num")
        value = Fraction(tok[1])
        if peek() == "/":
            take("/")
            den = take("num")[1]
            if den == 0:
                raise ParseError("zero denominator")
            value = value / den
        return value

    def parse_power() -> int:
        take("^")
        return take("num")[1]

    def parse_factor():
        kind = peek()
        if kind == "num":
            return parse_rational(), 0, 0
        if kind in ("x", "t"):
            take(kind)
            e = parse_power() if peek() == "^" else 1
            return (1, e, 0) if kind == "x" else (1, 0, e)
        raise ParseError(f"expected a factor, found {kind!r} in {text!r}")

    terms = {}

    def add_term(sign: int):
        c, xe, te = parse_factor()
        while peek() == "*":
            take("*")
            fc, fxe, fte = parse_factor()
            c, xe, te = c * fc, xe + fxe, te + fte
        terms[xe, te] = terms.get((xe, te), 0) + sign * c

    sign = 1
    if peek() == "-":
        take("-")
        sign = -1
    elif peek() == "+":
        take("+")
    add_term(sign)
    while pos < len(tokens):
        op = take()
        if op[0] == "+":
            add_term(1)
        elif op[0] == "-":
            add_term(-1)
        else:
            raise ParseError(f"expected '+' or '-', found {op[0]!r} in {text!r}")
    # one dense row of x-coefficients per t-power; the constructors strip the
    # zero rows and coefficients that cancelled terms leave
    rows = [{} for _ in range(max(te for _, te in terms) + 1)]
    for (xe, te), c in terms.items():
        rows[te][xe] = c
    return BiPoly(
        UniPoly([row.get(xe, 0) for xe in range(max(row, default=-1) + 1)]) for row in rows
    )


def parse_unipoly(text: str) -> UniPoly:
    """Parse a polynomial in x alone."""
    b = parse_bipoly(text)
    if b.t_degree > 0:
        raise ParseError(f"{text!r} involves t; expected a polynomial in x only")
    return b.tcoeff(0)


def parse_fraction(text: str) -> Fraction:
    """A rational literal: an optional sign, ASCII digits, and optionally `/`
    and more ASCII digits, with surrounding whitespace ignored."""
    body = text.strip()
    if not _RATIONAL.fullmatch(body):
        raise ParseError(f"bad rational literal {text!r}")
    try:
        return Fraction(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}") from exc


def format_fraction(c: Fraction) -> str:
    """The text of a rational; past CPython's int-string digit limit, a
    ValidationError that names the digit count."""
    try:
        return str(c)
    except ValueError as exc:  # past CPython's int-string digit limit
        n = max(abs(c.numerator), c.denominator)
        digits = (n.bit_length() - 1) * 3 // 10  # below the count: 0.3 < log10(2)
        while 10**digits <= n:
            digits += 1
        raise ValidationError(f"a coefficient of {digits} digits is too long to print") from exc


def _format_term(c: Fraction, xe: int, te: int) -> str:
    parts = []
    if te > 0:
        parts.append("t" if te == 1 else f"t^{te}")
    if xe > 0:
        parts.insert(0, "x" if xe == 1 else f"x^{xe}")
    mag = abs(c)
    if not parts:
        return format_fraction(mag)
    if mag != 1:
        parts.insert(0, format_fraction(mag))
    return "*".join(parts)


def format_bipoly(p: BiPoly) -> str:
    """Canonical printing: descending t-power, then descending x-power."""
    terms = []
    for te in range(p.t_degree, -1, -1):
        c = p.tcoeff(te)
        for xe in range(c.degree, -1, -1):
            v = c.coeff(xe)
            if v == 0:
                continue
            terms.append((v, xe, te))
    if not terms:
        return "0"
    pieces = []
    for idx, (v, xe, te) in enumerate(terms):
        body = _format_term(v, xe, te)
        if idx == 0:
            pieces.append(f"-{body}" if v < 0 else body)
        else:
            pieces.append(f"- {body}" if v < 0 else f"+ {body}")
    return " ".join(pieces)


def format_unipoly(p: UniPoly, var: str = "x") -> str:
    text = format_bipoly(BiPoly.from_unipoly(p))
    if var != "x":
        text = text.replace("x", var)
    return text
