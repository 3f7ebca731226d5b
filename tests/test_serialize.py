from fractions import Fraction

import pytest

from heckehiggs.errors import ParseError, ValidationError
from heckehiggs.hecke import HeckeData, HeckePoint
from heckehiggs.poly import UniPoly, parse_bipoly
from heckehiggs.projline import SplitBundle, TwistedEndo
from heckehiggs.serialize import (
    endo_from_json,
    endo_to_json,
    hecke_from_json,
    hecke_to_json,
    instance_from_json,
    instance_to_json,
    spectral_data_from_json,
    spectral_data_to_json,
    split_bundle_from_json,
    split_bundle_to_json,
)
from heckehiggs.spectral import SpectralCurve, SpectralData

X = UniPoly.variable()
F = Fraction

WORKED = {
    "hecke": {"S": 1, "L": 1, "points": [{"x": "0", "lambda": "1"}]},
    "E": {"twists": [0, 0]},
    "Theta": {"twist": 1, "entries": [["0", "1"], ["x", "0"]]},
    "ThetaPrime": {"twist": 1, "entries": [["0", "1"], ["x", "0"]]},
}


class TestHeckeJson:
    def test_round_trip(self):
        data = HeckeData(1, 2, [HeckePoint(F(0), F(1)), HeckePoint(F(1, 2), F(-3, 2))])
        doc = hecke_to_json(data)
        assert doc["points"][1] == {"x": "1/2", "lambda": "-3/2"}
        assert hecke_from_json(doc) == data

    def test_missing_key(self):
        with pytest.raises(ParseError):
            hecke_from_json({"S": 1, "points": []})

    def test_bad_degree_type(self):
        with pytest.raises(ParseError):
            hecke_from_json({"S": "1", "L": 1, "points": []})


class TestEndoJson:
    def test_round_trip(self):
        bundle = SplitBundle([0, -1])
        endo = TwistedEndo(bundle, 2, [[X, X**2], [1, 0]])
        doc = endo_to_json(endo)
        assert doc == {"twist": 2, "entries": [["x", "x^2"], ["1", "0"]]}
        assert endo_from_json(doc, bundle) == endo

    def test_rejects_bivariate_entry(self):
        with pytest.raises(ParseError):
            endo_from_json(
                {"twist": 1, "entries": [["t", "0"], ["0", "0"]]},
                SplitBundle([0, 0]),
            )


class TestBundleJson:
    def test_round_trip(self):
        bundle = SplitBundle([2, 0, -1])
        assert split_bundle_from_json(split_bundle_to_json(bundle)) == bundle

    def test_type_errors(self):
        with pytest.raises(ParseError):
            split_bundle_from_json({"twists": ["0"]})


class TestInstanceDocument:
    def test_worked_document(self):
        hecke, pair, spectral = instance_from_json(WORKED)
        assert hecke.a == 1 and hecke.points[0].scale == 1
        assert pair.first.entries[1][0] == X
        assert spectral is None

    def test_round_trip(self):
        hecke, pair, _ = instance_from_json(WORKED)
        assert instance_to_json(hecke, pair) == WORKED

    def test_cross_field_twist_mismatch(self):
        doc = dict(WORKED)
        doc["Theta"] = {"twist": 2, "entries": [["0", "1"], ["x", "0"]]}
        with pytest.raises(ParseError):
            instance_from_json(doc)

    def test_bound_violation_rejected(self):
        doc = dict(WORKED)
        doc["Theta"] = {"twist": 1, "entries": [["0", "x^2"], ["x", "0"]]}
        with pytest.raises(ValidationError):
            instance_from_json(doc)

    def test_spectral_section(self):
        doc = dict(WORKED)
        doc["spectral"] = {
            "chi": "t^2 - x",
            "a": 1,
            "r": 2,
            "psi": "t",
            "psi_denominator": "1",
            "b": 1,
        }
        _, _, spectral = instance_from_json(doc)
        assert spectral.curve.chi == parse_bipoly("t^2 - x")
        assert spectral_data_to_json(spectral) == doc["spectral"]


class TestSpectralJson:
    def test_round_trip(self):
        data = SpectralData(
            SpectralCurve(parse_bipoly("t^2 - x"), 1, 2),
            parse_bipoly("2*x*t"),
            UniPoly.one(),
            2,
        )
        doc = spectral_data_to_json(data)
        assert doc["psi"] == "2*x*t"
        again = spectral_data_from_json(doc)
        assert again.curve.chi == data.curve.chi
        assert again.psi == data.psi
        assert again.b == 2

    def test_default_denominator(self):
        doc = {"chi": "t^2 - x", "a": 1, "r": 2, "psi": "t", "b": 1}
        data = spectral_data_from_json(doc)
        assert data.psi_denominator == UniPoly.one()
