"""Higgs fields twisted by a Hecke-presented rank-2 bundle.

Such a field is stored as the constrained pair of its two line-bundle-twisted
components, one of twist a and one of twist b.  A pair underlies a genuine
twisted field exactly when the two components commute and, at every marked
point x_i, the second component's fiber map equals lambda_i times the
first's.  ``check_commutation``, the one place that decides the first
condition, compares the two products over Q[x]; ``check_fiber_condition``,
which decides the second, is the one place a component is evaluated at a
marked point.  ``reconstruct`` certifies both conditions and produces the
validated field; ``decompose`` projects back to the pair.  The backward
spectral correspondence builds fields whose pairs satisfy both conditions
by construction.  A field's certificate is derived from its presentation by
``TwistedHiggsField.certificate``, the one place its format is written.
"""

from __future__ import annotations

from ._record import Record
from .errors import CommutationError, FiberConditionError, ValidationError
from .hecke import HeckeData, require_valid
from .linalg import mat_mul
from .projline import SplitBundle, TwistedEndo, evaluate_endo, require_valid_endo


class HiggsPair(Record):
    """A twist-a endomorphism and a twist-b endomorphism of the same bundle."""

    __slots__ = ("bundle", "first", "second")

    def __init__(self, bundle: SplitBundle, first: TwistedEndo, second: TwistedEndo):
        if first.source != bundle or second.source != bundle:
            raise ValidationError("components must live on the given bundle")
        require_valid_endo(first, "first component")
        require_valid_endo(second, "second component")
        super().__init__(bundle, first, second)

    @property
    def rank(self) -> int:
        return self.bundle.rank


def check_commutation(pair: HiggsPair) -> bool:
    """Whether the two components commute: the products first*second and
    second*first agree entrywise over Q[x]."""
    a, b = pair.first.entries, pair.second.entries
    return mat_mul(a, b) == mat_mul(b, a)


class FiberVerdict(Record):
    """The fiber equation at one marked point: `first` and `second` are the
    two components' fiber maps at `point.x`, and `ok` says whether
    second = lambda * first there."""

    __slots__ = ("point", "ok", "first", "second")


def check_fiber_condition(pair: HiggsPair, data: HeckeData):
    """Exact fiber equation second(x_i) = lambda_i * first(x_i) at every
    marked point.  Returns (all_ok, per-point verdicts), which carry the
    fiber maps on to `spectral.eigenvalue_condition`."""
    ensure_consistent(pair, data)
    verdicts = []
    for p in data.points:
        first = evaluate_endo(pair.first, p.x)
        second = evaluate_endo(pair.second, p.x)
        ok = second == tuple(tuple(p.scale * f for f in row) for row in first)
        verdicts.append(FiberVerdict(p, ok, first, second))
    return all(v.ok for v in verdicts), verdicts


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


class TwistedHiggsField(Record):
    """A certified Higgs field twisted by the presented rank-2 bundle.

    Built by ``reconstruct``, which checks both conditions, and by the
    backward spectral correspondence, whose pairs meet them by
    construction.  By exactness of the defining sequence the field is the
    unique preimage of its pair.
    """

    __slots__ = ("hecke", "pair")

    @property
    def certificate(self) -> dict:
        """The components commute, the fiber equation holds at every marked
        point, and the field is the unique preimage of its pair."""
        return {
            "commutation": True,
            "fiber": [{"x": str(p.x), "ok": True} for p in self.hecke.points],
            "unique": True,
        }


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
        failing = [v.point.x for v in verdicts if not v.ok]
        raise FiberConditionError(
            "fiber equation fails at " + ", ".join(str(x) for x in failing),
            points=failing,
        )
    return TwistedHiggsField(data, pair)


def decompose(field: TwistedHiggsField):
    """The two line-bundle-twisted components; left inverse of reconstruct."""
    return field.pair.first, field.pair.second
