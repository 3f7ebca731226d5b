"""The small immutable records: construction, value semantics, immutability
and the checks their constructors keep."""

from fractions import Fraction as F

import pytest

from heckehiggs.errors import ValidationError
from heckehiggs.hecke import HeckePoint
from heckehiggs.higgs import FiberVerdict
from heckehiggs.poly import UniPoly, parse_bipoly, parse_unipoly
from heckehiggs.projline import EndoViolation
from heckehiggs.spectral import (
    EigenvalueVerdict,
    SpectralCurve,
    SpectralData,
    SpectralFiberPoint,
)

CURVE = SpectralCurve(parse_bipoly("t^2 - x"), 1, 2)
MINIMAL = parse_unipoly("x^2 - 2")

# per record class: its field names, and the positional arguments of two
# records that differ
RECORDS = {
    HeckePoint: (("x", "scale"), (F(0), F(1)), (F(1), F(2))),
    FiberVerdict: (
        ("x", "ok", "residual"),
        (F(0), True, ((F(0),),)),
        (F(0), False, ((F(1),),)),
    ),
    EndoViolation: (("row", "col", "degree", "bound"), (0, 1, 3, 2), (1, 0, 3, 2)),
    SpectralCurve: (
        ("chi", "a", "r"),
        (parse_bipoly("t^2 - x"), 1, 2),
        (parse_bipoly("t^2 - x - 1"), 1, 2),
    ),
    SpectralFiberPoint: (
        ("minimal", "multiplicity"),
        (MINIMAL, 1),
        (MINIMAL, 2),
    ),
    SpectralData: (
        ("curve", "psi", "psi_denominator", "b"),
        (CURVE, parse_bipoly("t"), UniPoly.one(), 1),
        (CURVE, parse_bipoly("x*t"), UniPoly.one(), 2),
    ),
    EigenvalueVerdict: (
        ("x", "minimal", "multiplicity", "ok", "note"),
        (F(0), "t", 1, True),
        (F(0), "t", 1, False, "why"),
    ),
}

CLASSES = list(RECORDS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_positional_construction(self, cls):
        fields, args, _ = RECORDS[cls]
        record = cls(*args)
        assert tuple(getattr(record, name) for name in fields[: len(args)]) == args

    def test_equal_and_hashed_by_value(self, cls):
        _, first, second = RECORDS[cls]
        assert cls(*first) == cls(*first)
        assert hash(cls(*first)) == hash(cls(*first))
        assert cls(*first) != cls(*second)
        assert len({cls(*first), cls(*first), cls(*second)}) == 2

    def test_unequal_across_classes(self, cls):
        record = cls(*RECORDS[cls][1])
        for other in CLASSES:
            if other is not cls:
                assert record != other(*RECORDS[other][1])
        assert record != RECORDS[cls][1]

    def test_immutable(self, cls):
        record = cls(*RECORDS[cls][1])
        name = RECORDS[cls][0][0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == cls(*RECORDS[cls][1])

    def test_repr_names_the_fields(self, cls):
        record = cls(*RECORDS[cls][1])
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in RECORDS[cls][0])
        assert repr(record) == f"{cls.__name__}({fields})"


def test_hecke_point_holds_fractions():
    point = HeckePoint(0, 1)
    assert type(point.x) is F and type(point.scale) is F
    assert point == HeckePoint(F(0), F(1))


def test_eigenvalue_verdict_note_defaults_to_empty():
    assert EigenvalueVerdict(F(0), "t", 1, True).note == ""


def test_spectral_curve_checks_its_polynomial():
    with pytest.raises(ValidationError):
        SpectralCurve(parse_bipoly("2*t^2 - x"), 1, 2)
    with pytest.raises(ValidationError):
        SpectralCurve(parse_bipoly("t^2 - x"), 1, 3)
    with pytest.raises(ValidationError):
        SpectralCurve(parse_bipoly("t^2 - x^3"), 1, 2)


def test_spectral_data_checks_its_multiplier():
    with pytest.raises(ValidationError):
        SpectralData(CURVE, parse_bipoly("t^2"), UniPoly.one(), 1)
    with pytest.raises(ValidationError):
        SpectralData(CURVE, parse_bipoly("t"), UniPoly.zero(), 1)
