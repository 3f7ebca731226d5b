"""JSON encodings for all value types.

Rationals travel as strings ("3/2"), polynomials as grammar text.  A full
instance document looks like

    {"hecke": {"S": 1, "L": 1, "points": [{"x": "0", "lambda": "1"}]},
     "E": {"twists": [0, 0]},
     "Theta": {"twist": 1, "entries": [["0", "1"], ["x", "0"]]},
     "ThetaPrime": {"twist": 1, "entries": [["0", "1"], ["x", "0"]]}}

optionally carrying a "spectral" section
{"chi": "t^2 - x", "a": 1, "r": 2, "psi": "t", "psi_denominator": "1", "b": 1}.
"""

from __future__ import annotations

from .errors import ParseError
from .hecke import HeckeData, HeckePoint
from .higgs import HiggsPair
from .poly import (
    format_bipoly,
    format_fraction,
    format_unipoly,
    parse_bipoly,
    parse_fraction,
    parse_unipoly,
)
from .projline import SplitBundle, TwistedEndo
from .spectral import SpectralCurve, SpectralData


def _need(obj: dict, key: str, where: str, kind: type = object):
    """obj[key], which must be present and an instance of `kind`."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be a JSON object")
    if key not in obj:
        raise ParseError(f"{where} is missing key {key!r}")
    if not isinstance(obj[key], kind) or (kind is int and isinstance(obj[key], bool)):
        raise ParseError(f"{where} key {key!r} must be of JSON type {kind.__name__}")
    return obj[key]


def hecke_to_json(data: HeckeData) -> dict:
    return {
        "S": data.a,
        "L": data.b,
        "points": [
            {"x": format_fraction(p.x), "lambda": format_fraction(p.scale)}
            for p in data.points
        ],
    }


def hecke_from_json(obj: dict) -> HeckeData:
    a = _need(obj, "S", "hecke", int)
    b = _need(obj, "L", "hecke", int)
    points = []
    for entry in _need(obj, "points", "hecke", list):
        x = parse_fraction(_need(entry, "x", "hecke point", str))
        lam = parse_fraction(_need(entry, "lambda", "hecke point", str))
        points.append(HeckePoint(x, lam))
    return HeckeData(a, b, points)


def split_bundle_to_json(bundle: SplitBundle) -> dict:
    return {"twists": list(bundle.twists)}


def split_bundle_from_json(obj: dict) -> SplitBundle:
    twists = _need(obj, "twists", "bundle", list)
    if not all(isinstance(t, int) and not isinstance(t, bool) for t in twists):
        raise ParseError("bundle twists must be a list of integers")
    return SplitBundle(twists)


def endo_to_json(endo: TwistedEndo) -> dict:
    return {
        "twist": endo.twist,
        "entries": [[format_unipoly(e) for e in row] for row in endo.entries],
    }


def endo_from_json(obj: dict, bundle: SplitBundle, where: str = "endo") -> TwistedEndo:
    twist = _need(obj, "twist", where, int)
    entries = []
    for row in _need(obj, "entries", where, list):
        if not isinstance(row, list) or not all(isinstance(text, str) for text in row):
            raise ParseError(f"{where} entries must be rows of polynomial strings")
        entries.append(tuple(parse_unipoly(text) for text in row))
    return TwistedEndo(bundle, twist, tuple(entries))


def spectral_curve_to_json(curve: SpectralCurve) -> dict:
    return {"chi": format_bipoly(curve.chi), "a": curve.a, "r": curve.r}


def spectral_curve_from_json(obj: dict) -> SpectralCurve:
    chi = parse_bipoly(_need(obj, "chi", "spectral", str))
    a = _need(obj, "a", "spectral", int)
    r = _need(obj, "r", "spectral", int)
    return SpectralCurve(chi, a, r)


def spectral_data_to_json(data: SpectralData) -> dict:
    out = spectral_curve_to_json(data.curve)
    out["psi"] = format_bipoly(data.psi)
    out["psi_denominator"] = format_unipoly(data.psi_denominator)
    out["b"] = data.b
    return out


def spectral_data_from_json(obj: dict) -> SpectralData:
    curve = spectral_curve_from_json(obj)
    psi = parse_bipoly(_need(obj, "psi", "spectral", str))
    den_text = obj.get("psi_denominator", "1")
    if not isinstance(den_text, str):
        raise ParseError("spectral key 'psi_denominator' must be of JSON type str")
    den = parse_unipoly(den_text)
    b = _need(obj, "b", "spectral", int)
    return SpectralData(curve, psi, den, b)


def instance_to_json(
    hecke: HeckeData, pair: HiggsPair, spectral: SpectralData | None = None
) -> dict:
    doc = {
        "hecke": hecke_to_json(hecke),
        "E": split_bundle_to_json(pair.bundle),
        "Theta": endo_to_json(pair.first),
        "ThetaPrime": endo_to_json(pair.second),
    }
    if spectral is not None:
        doc["spectral"] = spectral_data_to_json(spectral)
    return doc


def instance_parts_from_json(doc: dict):
    """Parse an instance document into raw parts without degree-bound checks.

    Returns (hecke, bundle, first, second, spectral-or-None); cross-field
    twist consistency (Theta twist == S degree, ThetaPrime twist == L degree)
    is enforced here because it is part of the document format.
    """
    hecke = hecke_from_json(_need(doc, "hecke", "document"))
    bundle = split_bundle_from_json(_need(doc, "E", "document"))
    first = endo_from_json(_need(doc, "Theta", "document"), bundle, "Theta")
    second = endo_from_json(_need(doc, "ThetaPrime", "document"), bundle, "ThetaPrime")
    if first.twist != hecke.a:
        raise ParseError(
            f"Theta twist {first.twist} does not match hecke degree S = {hecke.a}"
        )
    if second.twist != hecke.b:
        raise ParseError(
            f"ThetaPrime twist {second.twist} does not match hecke degree L = {hecke.b}"
        )
    spectral = None
    if "spectral" in doc:
        spectral = spectral_data_from_json(doc["spectral"])
    return hecke, bundle, first, second, spectral


def instance_from_json(doc: dict):
    """Parse a full instance document into (hecke, pair, spectral-or-None);
    the pair construction enforces the twisted-endomorphism degree bounds."""
    hecke, bundle, first, second, spectral = instance_parts_from_json(doc)
    pair = HiggsPair(bundle, first, second)
    return hecke, pair, spectral
