"""Higgs fields twisted by a Hecke-presented rank-2 bundle.

Such a field is stored as the constrained pair of its two line-bundle-twisted
components, one of twist a and one of twist b.  A pair underlies a genuine
twisted field exactly when the two components commute and, at every marked
point x_i, the second component's fiber map equals lambda_i times the
first's.  ``reconstruct`` certifies both conditions and produces the
validated field; ``decompose`` projects back to the pair.  The backward
spectral correspondence builds fields whose pairs satisfy both conditions
by construction; ``field_certificate`` is the one place the certificate's
format is written.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import CommutationError, FiberConditionError, ValidationError
from .hecke import HeckeData, require_valid
from .projline import SplitBundle, TwistedEndo, evaluate_endo, require_valid_endo


class HiggsPair:
    """A twist-a endomorphism and a twist-b endomorphism of the same bundle."""

    __slots__ = ("bundle", "first", "second")

    def __init__(self, bundle: SplitBundle, first: TwistedEndo, second: TwistedEndo):
        if first.source != bundle or second.source != bundle:
            raise ValidationError("components must live on the given bundle")
        require_valid_endo(first, "first component")
        require_valid_endo(second, "second component")
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    def __setattr__(self, name, value):
        raise AttributeError("HiggsPair is immutable")

    @property
    def rank(self) -> int:
        return self.bundle.rank

    def __eq__(self, other):
        if isinstance(other, HiggsPair):
            return (
                self.bundle == other.bundle
                and self.first == other.first
                and self.second == other.second
            )
        return NotImplemented

    def __hash__(self):
        return hash(("HiggsPair", self.bundle.twists, self.first, self.second))

    def __repr__(self):
        return f"HiggsPair(E={list(self.bundle.twists)}, a={self.first.twist}, b={self.second.twist})"


def commutator(pair: HiggsPair) -> TwistedEndo:
    """First*second - second*first, a twist-(a+b) endomorphism."""
    return pair.first * pair.second - pair.second * pair.first


def check_commutation(pair: HiggsPair) -> bool:
    return commutator(pair).is_zero()


class FiberVerdict(Record):
    """The fiber equation at one marked point; `residual` is
    second(x) - lambda * first(x)."""

    __slots__ = ("x", "ok", "residual")

    def __init__(self, x: Fraction, ok: bool, residual: tuple):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "residual", residual)


def check_fiber_condition(pair: HiggsPair, data: HeckeData):
    """Exact fiber equation second(x_i) = lambda_i * first(x_i) at every
    marked point.  Returns (all_ok, per-point verdicts)."""
    ensure_consistent(pair, data)
    verdicts = []
    all_ok = True
    for p in data.points:
        lhs = evaluate_endo(pair.second, p.x)
        rhs = evaluate_endo(pair.first, p.x)
        residual = tuple(
            tuple(l - p.scale * r for l, r in zip(rl, rr))
            for rl, rr in zip(lhs, rhs)
        )
        ok = all(v == 0 for row in residual for v in row)
        all_ok = all_ok and ok
        verdicts.append(FiberVerdict(p.x, ok, residual))
    return all_ok, verdicts


def ensure_consistent(pair: HiggsPair, data: HeckeData):
    """Twists of the pair must match the presentation degrees."""
    require_valid(data)
    if pair.first.twist != data.a:
        raise ValidationError(
            f"first component has twist {pair.first.twist}, presentation needs {data.a}"
        )
    if pair.second.twist != data.b:
        raise ValidationError(
            f"second component has twist {pair.second.twist}, presentation needs {data.b}"
        )


class TwistedHiggsField:
    """A certified Higgs field twisted by the presented rank-2 bundle.

    Built by ``reconstruct``, which checks both conditions, and by the
    backward spectral correspondence, whose pairs meet them by
    construction; the certificate, from ``field_certificate``, records that
    they hold.  By exactness of the defining sequence the field is the unique
    preimage of its pair, so equality of fields is equality of pairs.
    """

    __slots__ = ("hecke", "pair", "certificate")

    def __init__(self, hecke: HeckeData, pair: HiggsPair, certificate: dict):
        object.__setattr__(self, "hecke", hecke)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "certificate", certificate)

    def __setattr__(self, name, value):
        raise AttributeError("TwistedHiggsField is immutable")

    def __eq__(self, other):
        if isinstance(other, TwistedHiggsField):
            return self.hecke == other.hecke and self.pair == other.pair
        return NotImplemented

    def __hash__(self):
        return hash(("TwistedHiggsField", self.hecke, self.pair))

    def __repr__(self):
        return f"TwistedHiggsField({self.hecke!r}, {self.pair!r})"


def reconstruct(pair: HiggsPair, data: HeckeData) -> TwistedHiggsField:
    """Certify a pair as a twisted Higgs field.

    Raises CommutationError when the components do not commute, and
    FiberConditionError (with the failing points) when a marked-point fiber
    equation fails.  On success the returned field is the unique one whose
    components are the given pair.
    """
    ensure_consistent(pair, data)
    if not check_commutation(pair):
        raise CommutationError("components do not commute")
    ok, verdicts = check_fiber_condition(pair, data)
    if not ok:
        failing = [v.x for v in verdicts if not v.ok]
        raise FiberConditionError(
            "fiber equation fails at " + ", ".join(str(x) for x in failing),
            points=failing,
        )
    return TwistedHiggsField(data, pair, field_certificate(data))


def field_certificate(data: HeckeData) -> dict:
    """The certificate of a field on `data`: its components commute, the
    fiber equation holds at every marked point, and the field is the unique
    preimage of its pair."""
    return {
        "commutation": True,
        "fiber": [{"x": str(p.x), "ok": True} for p in data.points],
        "unique": True,
    }


def decompose(field: TwistedHiggsField):
    """The two line-bundle-twisted components; left inverse of reconstruct."""
    return field.pair.first, field.pair.second
