"""The immutable values on `Record`: construction, value semantics,
immutability and the checks their constructors keep."""

import importlib
import pkgutil
from fractions import Fraction as F

import pytest

import heckehiggs
from heckehiggs._record import Record
from heckehiggs.errors import ValidationError
from heckehiggs.hecke import HeckeData, HeckePoint
from heckehiggs.higgs import FiberVerdict, HiggsPair, TwistedHiggsField
from heckehiggs.poly import (
    BiPoly,
    RationalFunction,
    UniPoly,
    parse_bipoly,
    parse_unipoly,
)
from heckehiggs.projline import EndoViolation, SplitBundle, TwistedEndo
from heckehiggs.spectral import (
    EigenvalueVerdict,
    SpectralCurve,
    SpectralData,
    SpectralFiberPoint,
)

CURVE = SpectralCurve(parse_bipoly("t^2 - x"), 1, 2)
MINIMAL = parse_unipoly("x^2 - 2")
ZERO, ONE, X = UniPoly.zero(), UniPoly.one(), UniPoly.variable()
E2 = SplitBundle((0, 0))
THETA = TwistedEndo(E2, 1, ((ZERO, ONE), (X, ZERO)))
TWO_THETA = TwistedEndo(E2, 1, ((ZERO, 2 * ONE), (2 * X, ZERO)))
H_ONE = HeckeData(1, 1, (HeckePoint(F(0), F(1)),))

# per record class: its field names, and the positional arguments of two
# records that differ
RECORDS = {
    HeckePoint: (("x", "scale"), (F(0), F(1)), (F(1), F(2))),
    FiberVerdict: (
        ("point", "ok", "first", "second"),
        (HeckePoint(F(0), F(1)), True, ((F(1),),), ((F(1),),)),
        (HeckePoint(F(0), F(1)), False, ((F(1),),), ((F(2),),)),
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
    HeckeData: (("a", "b", "points"), (1, 1, H_ONE.points), (1, 2, H_ONE.points)),
    SplitBundle: (("twists",), ((0, 0),), ((1, 0),)),
    TwistedEndo: (
        ("source", "twist", "entries"),
        (E2, 1, THETA.entries),
        (E2, 1, TWO_THETA.entries),
    ),
    HiggsPair: (("bundle", "first", "second"), (E2, THETA, THETA), (E2, THETA, TWO_THETA)),
    TwistedHiggsField: (
        ("hecke", "pair"),
        (H_ONE, HiggsPair(E2, THETA, THETA)),
        (H_ONE, HiggsPair(E2, TWO_THETA, TWO_THETA)),
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


@pytest.mark.parametrize(
    "make",
    [
        lambda: HeckePoint(0.1, 1),
        lambda: HeckePoint("1/2", 1),
        lambda: HeckePoint(1, 0.5),
        lambda: HeckeData(1.0, 1, ()),
        lambda: HeckeData(1, F(1), ()),
        lambda: SplitBundle([3, 2.7]),
        lambda: TwistedEndo(E2, 1.5, THETA.entries),
    ],
    ids=[
        "point-float",
        "point-string",
        "scale-float",
        "degree-float",
        "degree-fraction",
        "twists-float",
        "endo-twist-float",
    ],
)
def test_constructors_take_exact_numbers_only(make):
    with pytest.raises(TypeError):
        make()


def test_record_checks_its_arity():
    with pytest.raises(TypeError):
        FiberVerdict(F(0), True)


def test_polynomials_are_immutable_and_equal_to_scalars():
    for value in (UniPoly.constant(3), parse_bipoly("t + x"), RationalFunction(ONE, X)):
        name = value.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name)
    assert UniPoly.constant(3) == 3


def _package_classes():
    """The classes defined in the package's modules, except the number-field
    oracles and the `python -m` entry point, which runs the CLI on import."""
    for info in pkgutil.iter_modules(heckehiggs.__path__):
        if info.name in ("__main__", "numfield"):
            continue
        module = importlib.import_module(f"heckehiggs.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def test_record_is_the_one_immutable_base():
    classes = list(_package_classes())
    assert {UniPoly, HeckeData, TwistedHiggsField} <= set(classes)
    assert [
        cls.__name__
        for cls in classes
        if "__slots__" in vars(cls) and not issubclass(cls, Record)
    ] == []
    assert [
        cls.__name__
        for cls in classes
        if cls is not Record and {"__setattr__", "__delattr__"} & set(vars(cls))
    ] == []
