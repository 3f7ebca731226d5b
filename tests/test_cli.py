import argparse
import ast
import io
import json
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import heckehiggs.cli as cli_module
import heckehiggs.hecke as hecke_module
import heckehiggs.higgs as higgs_module
import heckehiggs.linalg as linalg_module
import heckehiggs.projline as projline_module
import heckehiggs.spectral as spectral_module
from heckehiggs.cli import _SAMPLE_POINTS, cmd_check, main
from heckehiggs.hecke import make_presentation
from heckehiggs.higgs import check_commutation, check_fiber_condition
from heckehiggs.serialize import instance_to_json
from heckehiggs.numfield import NumberField
from heckehiggs.poly import RationalFunction
from heckehiggs.spectral import curve_of
from instance_strategies import instances
from oracles import eigenspace_invariance
from oracles import eigenvalue_condition as oracle_eigenvalue_condition

GOLDEN = Path(__file__).parent / "golden"

WORKED = {
    "hecke": {"S": 1, "L": 1, "points": [{"x": "0", "lambda": "1"}]},
    "E": {"twists": [0, 0]},
    "Theta": {"twist": 1, "entries": [["0", "1"], ["x", "0"]]},
    "ThetaPrime": {"twist": 1, "entries": [["0", "1"], ["x", "0"]]},
}

# a zero scalar and a repeated point, with the problems `validate` names
INVALID_HECKE = {
    "S": 1,
    "L": 1,
    "points": [{"x": "0", "lambda": "0"}, {"x": "0", "lambda": "1"}],
}
INVALID_MESSAGE = "point 0 at x=0 has zero scalar; duplicate marked point x=0 (indices 0, 1)"


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report, captured.err


class TestCheck:
    def test_worked_instance_passes(self, tmp_path, capsys):
        path = write_doc(tmp_path, WORKED)
        code, report, _ = run(capsys, "--no-timing", "check", path)
        assert code == 0
        assert all(report["verdicts"].values())

    def test_scaled_second_fails_fiber(self, tmp_path, capsys):
        doc = dict(WORKED)
        doc["ThetaPrime"] = {"twist": 1, "entries": [["0", "2"], ["2*x", "0"]]}
        path = write_doc(tmp_path, doc)
        code, report, _ = run(capsys, "--no-timing", "check", path)
        assert code == 1
        assert report["verdicts"]["fiber"] is False
        assert report["details"]["fiber"] == [{"x": "0", "ok": False}]
        assert report["instance"] == doc

    def test_malformed_polynomial_is_input_error(self, tmp_path, capsys):
        doc = dict(WORKED)
        doc["Theta"] = {"twist": 1, "entries": [["t^^2", "0"], ["0", "0"]]}
        path = write_doc(tmp_path, doc)
        code, report, _ = run(capsys, "check", path)
        assert code == 2
        assert report["error"]["kind"] == "input"

    def test_invalid_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, report, _ = run(capsys, "check", str(path))
        assert code == 2


    def test_check_reports_an_invalid_presentation(self, tmp_path, capsys):
        # check collects the presentation's problems instead of refusing it
        doc = dict(WORKED, hecke=INVALID_HECKE)
        code, report, _ = run(capsys, "--no-timing", "check", write_doc(tmp_path, doc))
        assert code == 1
        assert report["verdicts"]["hecke_valid"] is False
        assert report["details"]["hecke"] == INVALID_MESSAGE.split("; ")

class TestReconstructCommand:
    def test_success_emits_certificate(self, tmp_path, capsys):
        path = write_doc(tmp_path, WORKED)
        code, report, _ = run(capsys, "--no-timing", "reconstruct", path)
        assert code == 0
        assert report["certificate"] == {
            "commutation": True,
            "fiber": [{"x": "0", "ok": True}],
            "unique": True,
        }

    def test_fiber_failure(self, tmp_path, capsys):
        doc = dict(WORKED)
        doc["ThetaPrime"] = {"twist": 1, "entries": [["0", "2"], ["2*x", "0"]]}
        path = write_doc(tmp_path, doc)
        code, report, _ = run(capsys, "--no-timing", "reconstruct", path)
        assert code == 1
        assert report["error"]["kind"] == "fiber"
        assert report["error"]["points"] == ["0"]

    def test_commutation_failure(self, tmp_path, capsys):
        doc = dict(WORKED)
        doc["hecke"] = {"S": 1, "L": 1, "points": []}
        doc["Theta"] = {"twist": 1, "entries": [["x", "0"], ["0", "0"]]}
        doc["ThetaPrime"] = {"twist": 1, "entries": [["0", "1"], ["0", "0"]]}
        path = write_doc(tmp_path, doc)
        code, report, _ = run(capsys, "--no-timing", "reconstruct", path)
        assert code == 1
        assert report["error"]["kind"] == "commutation"


class TestSpectralCommand:
    def test_worked_instance(self, tmp_path, capsys):
        path = write_doc(tmp_path, WORKED)
        code, report, _ = run(capsys, "--no-timing", "spectral", path)
        assert code == 0
        assert report["curve"]["chi"] == "t^2 - x"
        assert report["integral"] is True
        assert report["spectral"]["psi"] == "t"
        assert report["stability"] == "Stable"
        assert report["fibers"]["0"] == [
            {"minimal": "t", "multiplicity": 2, "degree": 1}
        ]

    def test_reducible_instance(self, tmp_path, capsys):
        doc = dict(WORKED)
        doc["hecke"] = {"S": 1, "L": 1, "points": []}
        doc["Theta"] = {"twist": 1, "entries": [["x", "0"], ["0", "x + 1"]]}
        doc["ThetaPrime"] = {"twist": 1, "entries": [["0", "0"], ["0", "0"]]}
        path = write_doc(tmp_path, doc)
        code, report, _ = run(capsys, "--no-timing", "spectral", path)
        assert code == 1
        assert report["integral"] is False
        assert report["certificate"]["factor"] in ("t - x", "t - x - 1")

    @pytest.mark.parametrize(
        "theta",
        [[["x", "0"], ["0", "x"]], [["0", "1"], ["x", "0"]]],
        ids=["non-integral-curve", "integral-curve"],
    )
    def test_invalid_presentation_is_input_error(self, theta, tmp_path, capsys):
        # a zero scalar and a repeated point: refused before the curve is
        # built, with reconstruct's message, whatever the curve
        doc = dict(WORKED, hecke=INVALID_HECKE)
        doc["Theta"] = doc["ThetaPrime"] = {"twist": 1, "entries": theta}
        path = write_doc(tmp_path, doc)
        _, expected, _ = run(capsys, "--no-timing", "reconstruct", path)
        code, report, _ = run(capsys, "--no-timing", "spectral", path)
        assert code == 2
        assert report["error"]["kind"] == "input"
        assert report["error"]["message"] == expected["error"]["message"] == INVALID_MESSAGE

    def test_non_reduced_instance(self, tmp_path, capsys):
        doc = dict(WORKED)
        doc["hecke"] = {"S": 1, "L": 1, "points": []}
        doc["Theta"] = {"twist": 1, "entries": [["0", "0"], ["0", "0"]]}
        doc["ThetaPrime"] = {"twist": 1, "entries": [["0", "0"], ["0", "0"]]}
        path = write_doc(tmp_path, doc)
        code, report, _ = run(capsys, "--no-timing", "spectral", path)
        assert code == 1
        assert report["curve"]["chi"] == "t^2"
        assert report["certificate"]["squarefree"] is False


# Theta = 0 with twist -1: chi = t^2, whose zero coefficients meet the
# negative bounds -1 and -2
NEGATIVE_TWIST = {
    "hecke": {"S": -1, "L": 0, "points": []},
    "E": {"twists": [0, 0]},
    "Theta": {"twist": -1, "entries": [["0", "0"], ["0", "0"]]},
    "ThetaPrime": {"twist": 0, "entries": [["1", "0"], ["0", "1"]]},
}


class TestNegativeTwistCurve:
    def test_check_passes(self, tmp_path, capsys):
        code, report, _ = run(capsys, "--no-timing", "check", write_doc(tmp_path, NEGATIVE_TWIST))
        assert code == 0
        assert all(report["verdicts"].values())

    def test_spectral_finds_the_repeated_factor(self, tmp_path, capsys):
        path = write_doc(tmp_path, NEGATIVE_TWIST)
        code, report, _ = run(capsys, "--no-timing", "spectral", path)
        assert code == 1
        assert report["curve"] == {"chi": "t^2", "a": -1, "r": 2}
        assert report["char_coefficients"] == ["0", "0"]
        assert report["certificate"]["squarefree"] is False
        assert report["certificate"]["factor"] == "t"

    def test_build_refuses_the_non_integral_curve(self, tmp_path, capsys):
        doc = {
            "hecke": NEGATIVE_TWIST["hecke"],
            "spectral": {"chi": "t^2", "a": -1, "r": 2, "psi": "1", "b": 0},
        }
        code, report, _ = run(capsys, "--no-timing", "build", write_doc(tmp_path, doc))
        assert code == 1
        assert report["error"]["kind"] == "NonIntegralError"


class TestBuildCommand:
    def test_worked_build(self, tmp_path, capsys):
        doc = {
            "hecke": WORKED["hecke"],
            "spectral": {
                "chi": "t^2 - x",
                "a": 1,
                "r": 2,
                "psi": "t",
                "psi_denominator": "1",
                "b": 1,
            },
        }
        path = write_doc(tmp_path, doc)
        code, report, _ = run(capsys, "--no-timing", "build", path)
        assert code == 0
        instance = report["instance"]
        assert instance["E"] == {"twists": [0, -1]}
        assert instance["Theta"] == {
            "twist": 1,
            "entries": [["0", "x"], ["1", "0"]],
        }
        assert instance["ThetaPrime"] == instance["Theta"]

    def test_eigenvalue_gate(self, tmp_path, capsys):
        doc = {
            "hecke": {"S": 1, "L": 1, "points": [{"x": "1", "lambda": "3"}]},
            "spectral": {
                "chi": "t^2 - x",
                "a": 1,
                "r": 2,
                "psi": "t",
                "psi_denominator": "1",
                "b": 1,
            },
        }
        path = write_doc(tmp_path, doc)
        code, report, _ = run(capsys, "--no-timing", "build", path)
        assert code == 1
        assert report["error"]["kind"] == "EigenvalueConditionError"
        assert report["error"]["witnesses"]

    @pytest.mark.parametrize("sign, x", [(1, "1"), (-1, "0")])
    def test_rank_one_round_trip(self, sign, x, tmp_path, capsys):
        # chi = t - x; under sign -1 a rank-1 field needs y = 0 at its marked
        # points, so that case marks x = 0, and build flips lambda
        doc = {
            "hecke": {"S": 1, "L": 1, "points": [{"x": x, "lambda": "1"}]},
            "E": {"twists": [0]},
            "Theta": {"twist": 1, "entries": [["x"]]},
            "ThetaPrime": {"twist": 1, "entries": [["x"]]},
        }
        flags = ["--no-timing", "--sign", str(sign)]
        code, report, _ = run(capsys, *flags, "spectral", write_doc(tmp_path, doc))
        assert code == 0
        assert (report["curve"]["chi"], report["spectral"]["psi"]) == ("t - x", "x")
        build_doc = {"hecke": doc["hecke"], "spectral": report["spectral"]}
        code, report, _ = run(capsys, *flags, "build", write_doc(tmp_path, build_doc))
        assert code == 0
        expected = json.loads(json.dumps(doc))
        expected["hecke"]["points"][0]["lambda"] = str(sign)
        assert {key: report["instance"][key] for key in doc} == expected


    def test_build_refuses_an_invalid_presentation(self, tmp_path, capsys):
        spectral = json.loads((GOLDEN / "worked_expected_spectral.json").read_text())
        doc = {"hecke": INVALID_HECKE, "spectral": spectral["spectral"]}
        code, report, _ = run(capsys, "--no-timing", "build", write_doc(tmp_path, doc))
        assert code == 2
        assert report["error"] == {"kind": "input", "message": INVALID_MESSAGE}

class TestHeckeMakeCommand:
    def test_target_hit(self, capsys):
        code, report, _ = run(
            capsys, "--no-timing", "--seed", "3", "hecke-make", "1", "-1", "2"
        )
        assert code == 0
        assert report["splitting"] == [1, -1]

    def test_pool_flag(self, capsys):
        code, report, _ = run(
            capsys,
            "--no-timing",
            "hecke-make",
            "0",
            "0",
            "2",
            "--pool",
            "5,7",
        )
        assert code == 0
        xs = [p["x"] for p in report["hecke"]["points"]]
        assert xs == ["5", "7"]

    def test_splitting_type_computed_once(self, monkeypatch, capsys):
        calls = Counter()
        original = hecke_module.splitting_type

        def counting(data):
            calls["splitting_type"] += 1
            return original(data)

        monkeypatch.setattr(hecke_module, "splitting_type", counting)
        # a reference the CLI module holds of its own is counted too
        monkeypatch.setattr(cli_module, "splitting_type", counting, raising=False)
        make_presentation(2, 0, 3, range(16), 5)
        alone = calls["splitting_type"]
        calls.clear()
        code, report, _ = run(capsys, "--no-timing", "--seed", "5", "hecke-make", "2", "0", "3")
        assert code == 0 and report["splitting"] == [2, 0]
        assert calls["splitting_type"] == alone


class TestSignFlag:
    def test_check_with_flipped_convention(self, tmp_path, capsys):
        # lambda = -2 at x = 1 matches theta' = 2x*theta only under sign -1
        doc = {
            "hecke": {"S": 1, "L": 2, "points": [{"x": "1", "lambda": "-2"}]},
            "E": {"twists": [0, 0]},
            "Theta": {"twist": 1, "entries": [["0", "1"], ["x", "0"]]},
            "ThetaPrime": {"twist": 2, "entries": [["0", "2*x"], ["2*x^2", "0"]]},
        }
        path = write_doc(tmp_path, doc)
        code_plus, report_plus, _ = run(capsys, "--no-timing", "check", path)
        assert code_plus == 1
        assert report_plus["verdicts"]["eigenvalue"] is False
        code_minus, report_minus, _ = run(
            capsys, "--no-timing", "--sign", "-1", "check", path
        )
        assert report_minus["verdicts"]["eigenvalue"] is True

    def test_spectral_reverification_respects_sign(self, tmp_path, capsys):
        doc = {
            "hecke": {"S": 1, "L": 2, "points": [{"x": "1", "lambda": "2"}]},
            "E": {"twists": [0, 0]},
            "Theta": {"twist": 1, "entries": [["0", "1"], ["x", "0"]]},
            "ThetaPrime": {"twist": 2, "entries": [["0", "2*x"], ["2*x^2", "0"]]},
        }
        path = write_doc(tmp_path, doc)
        code_plus, report_plus, _ = run(capsys, "--no-timing", "spectral", path)
        assert code_plus == 0 and report_plus["spectral"]["psi"] == "2*x*t"
        code_minus, report_minus, _ = run(
            capsys, "--no-timing", "--sign", "-1", "spectral", path
        )
        assert code_minus == 1
        assert report_minus["error"]["kind"] == "EigenvalueConditionError"

    def test_build_with_flipped_convention(self, tmp_path, capsys):
        doc = {
            "hecke": {"S": 1, "L": 1, "points": [{"x": "0", "lambda": "-1"}]},
            "spectral": {
                "chi": "t^2 - x",
                "a": 1,
                "r": 2,
                "psi": "t",
                "psi_denominator": "1",
                "b": 1,
            },
        }
        path = write_doc(tmp_path, doc)
        code, report, _ = run(capsys, "--no-timing", "--sign", "-1", "build", path)
        assert code == 0
        assert report["instance"]["hecke"]["points"][0]["lambda"] == "1"


# a certified field on the integral curve t^2 - 2t + 1 - x^5: Theta - 1 is
# x^2 [[0, 1], [x, 0]] and ThetaPrime - Theta is x [[0, 1], [x, 0]], so the
# multiplier is ((x + 1) t - 1) / x, with a pole at the marked point 0
POLE_AT_MARKED_POINT = {
    "hecke": {"S": 3, "L": 3, "points": [{"x": "0", "lambda": "1"}]},
    "E": {"twists": [0, 0]},
    "Theta": {"twist": 3, "entries": [["1", "x^2"], ["x^3", "1"]]},
    "ThetaPrime": {"twist": 3, "entries": [["1", "x^2 + x"], ["x^3 + x^2", "1"]]},
}


class TestForwardRule:
    @pytest.mark.parametrize("sign", ["1", "-1"])
    def test_pole_at_a_marked_point_is_the_witness(self, sign, tmp_path, capsys):
        path = write_doc(tmp_path, POLE_AT_MARKED_POINT)
        code, report, _ = run(capsys, "--no-timing", "--sign", sign, "spectral", path)
        assert code == 1
        assert report["curve"]["chi"] == "t^2 - 2*t - x^5 + 1"
        assert report["integral"] is True
        assert report["error"]["kind"] == "EigenvalueConditionError"
        assert report["error"]["witnesses"] == [
            {"x": "0", "minimal": "", "note": "multiplier has a pole"}
        ]


class TestDeterminism:
    def test_reports_byte_identical_without_timing(self, tmp_path, capsys):
        path = write_doc(tmp_path, WORKED)
        main(["--no-timing", "check", path])
        first = capsys.readouterr().out
        main(["--no-timing", "check", path])
        second = capsys.readouterr().out
        assert first == second

    def test_timing_present_by_default(self, tmp_path, capsys):
        path = write_doc(tmp_path, WORKED)
        code, report, _ = run(capsys, "check", path)
        assert "timing_ms" in report


def _companion_doc(rank, constant):
    """Instance whose first component is the companion matrix of
    t^rank - constant, with one marked point at 0 and lambda = 1."""
    rows = [["0"] * rank for _ in range(rank)]
    rows[0][rank - 1] = constant
    for i in range(1, rank):
        rows[i][i - 1] = "1"
    return {
        "hecke": {"S": 1, "L": 1, "points": [{"x": "0", "lambda": "1"}]},
        "E": {"twists": [0] * rank},
        "Theta": {"twist": 1, "entries": rows},
        "ThetaPrime": {"twist": 1, "entries": rows},
    }


# Values that replace a document entry: other JSON types, well-formed text,
# and polynomial text built from tokens whose exponents stay small.  Every
# number token starts with a space, so no two of them join into a longer
# exponent.
_VALUES = [
    None, True, 0, -2, 3, 1.5, [], {}, ["0"], {"x": "0"},
    "", "2", "-1/2", "x + 1", "t^2 - x",
]
_GRAMMAR_TOKENS = [
    "x", "t", "x^2", "t^3", "^", "^2", "*", "+", "-", "/",
    " 1", " 2/3", " 0", " 1/0", "(", "y", " ",
]


def _paths(node, prefix=()):
    """Paths to every entry below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated(draw, doc):
    """`doc` with one to three entries dropped or replaced by another value
    or by malformed polynomial text."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["drop", "value", "grammar"]))
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "value":
            parent[path[-1]] = json.loads(json.dumps(draw(st.sampled_from(_VALUES))))
        else:
            tokens = draw(st.lists(st.sampled_from(_GRAMMAR_TOKENS), max_size=6))
            parent[path[-1]] = "".join(tokens)
    return doc


# chi = t^2 * q with a = 2 and r = 6: not reduced, so `build` refuses it
# once the walk finds no squarefree point and the gcd with chi_t names t
REPEATED_FACTOR_DOC = {
    "hecke": {"S": 2, "L": 2, "points": []},
    "spectral": {
        "chi": "t^6 - 3*x^2*t^5 + 3*x*t^5 + 10*x^2*t^4 - 5*x*t^4 - 8*t^4"
        " - 9*x^3*t^3 + 12*x^2*t^3 - 15*t^3 + 3*x^3*t^2 + x^2*t^2 + 7*x*t^2 - 6*t^2",
        "a": 2,
        "r": 6,
        "psi": "t",
        "psi_denominator": "1",
        "b": 2,
    },
}


def count_rational_functions(monkeypatch) -> Counter:
    """A counter whose "RationalFunction" entry counts the elements of Q(x)
    built from now until the test ends."""
    counts = Counter()
    init = RationalFunction.__init__

    def counting_init(self, *args, **kwargs):
        counts["RationalFunction"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(RationalFunction, "__init__", counting_init)
    return counts


def _golden_build_doc():
    instance = json.loads((GOLDEN / "worked_instance.json").read_text())
    spectral = json.loads((GOLDEN / "worked_expected_spectral.json").read_text())
    return {"hecke": instance["hecke"], "spectral": spectral["spectral"]}


class TestFailureContract:
    @given(
        st.one_of(
            _mutated(json.loads((GOLDEN / "worked_instance.json").read_text())),
            _mutated(_golden_build_doc()),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_mutated_documents_get_one_report(self, doc):
        text = json.dumps(doc)
        for command in ("check", "reconstruct", "spectral", "build"):
            out = io.StringIO()
            saved, sys.stdin = sys.stdin, io.StringIO(text)
            try:
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = main(["--no-timing", command, "-"])
            finally:
                sys.stdin = saved
            assert code in (0, 1, 2)
            assert isinstance(json.loads(out.getvalue()), dict)

    def test_coefficient_past_the_digit_limit_is_an_input_error(self, tmp_path, capsys):
        # chi = t^2 - N^2 x has a 6000-digit coefficient, past CPython's
        # int-string limit; `check` prints no coefficient, `spectral` prints chi
        n = "9" * 3000
        doc = json.loads(json.dumps(WORKED))
        for key in ("Theta", "ThetaPrime"):
            doc[key]["entries"] = [["0", n], [n + "*x", "0"]]
        path = write_doc(tmp_path, doc)
        assert run(capsys, "--no-timing", "check", path)[0] == 0
        code, report, err = run(capsys, "--no-timing", "spectral", path)
        assert code == 2
        message = "a coefficient of 6000 digits is too long to print"
        assert report["error"] == {"kind": "input", "message": message}
        assert err == f"input error: {message}\n"

    def test_repeated_factor_is_refused_over_q_x(self, tmp_path, monkeypatch, capsys):
        # Euclid over Q(x) ran for minutes on this gcd; the pseudo-remainder
        # sequence over Q[x] builds no element of Q(x)
        counts = count_rational_functions(monkeypatch)
        path = write_doc(tmp_path, REPEATED_FACTOR_DOC)
        code, report, _ = run(capsys, "--no-timing", "build", path)
        assert code == 1
        assert report["error"]["kind"] == "NonIntegralError"
        assert report["error"]["certificate"] == {
            "squarefree": False,
            "irreducible": False,
            "factor": "t",
            "reason": "repeated factor",
        }
        assert counts["RationalFunction"] == 0

    @pytest.mark.parametrize("command", ["check", "spectral"])
    def test_rank_nine_is_decided(self, command, tmp_path, capsys):
        # the factorizer has no degree limit: the fiber t^9 - 2 at x = 0
        # is factored like any other
        path = write_doc(tmp_path, _companion_doc(9, "x + 2"))
        code, report, _ = run(capsys, "--no-timing", command, path)
        assert code == 0
        if command == "check":
            assert all(report["verdicts"].values())
        else:
            assert report["stability"] == "Stable"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["hecke"].update(points=5),
            lambda doc: doc["Theta"]["entries"][0].__setitem__(0, 0),
            lambda doc: doc["hecke"]["points"][0].update(x=0),
        ],
        ids=["points-number", "entry-number", "x-number"],
    )
    def test_wrong_json_types_are_input_errors(self, mutate, tmp_path, capsys):
        doc = json.loads(json.dumps(WORKED))
        mutate(doc)
        code, report, _ = run(capsys, "check", write_doc(tmp_path, doc))
        assert code == 2
        assert report["error"]["kind"] == "input"

    @pytest.mark.parametrize(
        "command, mutate",
        [
            ("check", lambda doc: doc["hecke"].update(S=True)),
            ("check", lambda doc: doc["hecke"].update(L=True)),
            ("check", lambda doc: doc["Theta"].update(twist=True)),
            ("check", lambda doc: doc["ThetaPrime"].update(twist=True)),
            ("check", lambda doc: doc["E"].update(twists=[False, False])),
            ("build", lambda doc: doc["spectral"].update(a=True)),
            ("build", lambda doc: doc["spectral"].update(r=True)),
            ("build", lambda doc: doc["spectral"].update(b=True)),
        ],
        ids=["S", "L", "Theta-twist", "ThetaPrime-twist", "E-twists", "a", "r", "b"],
    )
    def test_booleans_are_not_integers(self, command, mutate, tmp_path, capsys):
        # each boolean stands where its value equals the valid integer, so
        # only the type makes the document malformed
        if command == "check":
            doc = json.loads(json.dumps(WORKED))
        else:
            doc = {
                "hecke": {"S": 1, "L": 1, "points": [{"x": "1", "lambda": "1"}]},
                "spectral": {"chi": "t - x", "a": 1, "r": 1, "psi": "x", "b": 1},
            }
        mutate(doc)
        code, report, _ = run(capsys, "--no-timing", command, write_doc(tmp_path, doc))
        assert code == 2
        assert report["error"]["kind"] == "input"
        assert "int" in report["error"]["message"]

    @pytest.mark.parametrize("via_stdin", [False, True], ids=["file", "stdin"])
    def test_non_utf8_bytes_are_an_input_error(
        self, via_stdin, tmp_path, monkeypatch, capsys
    ):
        data = b'{"hecke": "\xff\xfe"}'
        path = tmp_path / "latin1.json"
        path.write_bytes(data)
        if via_stdin:
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
            monkeypatch.setattr("sys.stdin", stdin)
        code, report, _ = run(capsys, "check", "-" if via_stdin else str(path))
        assert code == 2
        assert report["error"]["kind"] == "input"

    @pytest.mark.parametrize("via_stdin", [False, True], ids=["file", "stdin"])
    def test_deeply_nested_json_is_an_input_error(
        self, via_stdin, tmp_path, monkeypatch, capsys
    ):
        text = "[" * 1500 + "]" * 1500
        path = tmp_path / "deep.json"
        path.write_text(text)
        if via_stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, report, _ = run(capsys, "check", "-" if via_stdin else str(path))
        assert code == 2
        assert report["error"] == {"kind": "input", "message": "JSON nesting too deep"}

    @pytest.mark.parametrize("via_stdin", [False, True], ids=["file", "stdin"])
    def test_long_json_integer_is_an_input_error(
        self, via_stdin, tmp_path, monkeypatch, capsys
    ):
        # json.loads refuses an integer past CPython's int-string digit limit
        doc = json.loads((GOLDEN / "worked_instance.json").read_text())
        text = json.dumps(doc)
        assert '"S": 1,' in text
        text = text.replace('"S": 1,', '"S": ' + "9" * 5000 + ",")
        path = tmp_path / "long.json"
        path.write_text(text)
        if via_stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, report, _ = run(capsys, "check", "-" if via_stdin else str(path))
        assert code == 2
        assert report["error"]["kind"] == "input"

    @pytest.mark.parametrize(
        "where, text",
        [
            ("entry", "1\u00b2"),
            ("entry", "9" * 5000 + "*x"),
            ("x", "1e5"),
            ("x", "0.5"),
            ("x", "1_000"),
            ("x", "\u0661"),
            ("x", "9" * 5000),
            ("x", "1e100000"),
            ("x", "1e999999999"),
            ("lambda", "1e5"),
        ],
        ids=[
            "superscript-digit",
            "long-coefficient",
            "exponent-notation",
            "decimal-point",
            "underscore",
            "arabic-indic-digit",
            "long-rational",
            "huge-exponent",
            "giant-exponent",
            "lambda-exponent-notation",
        ],
    )
    def test_literals_outside_the_grammar_are_input_errors(
        self, where, text, tmp_path, capsys
    ):
        # coefficients and rationals are ASCII integers or p/q, nothing more
        doc = json.loads(json.dumps(WORKED))
        if where == "entry":
            doc["Theta"]["entries"][1][0] = text
        else:
            doc["hecke"]["points"][0][where] = text
        code, report, _ = run(capsys, "--no-timing", "check", write_doc(tmp_path, doc))
        assert code == 2
        assert report["error"]["kind"] == "input"

    @pytest.mark.parametrize("pool", ["1e5", "0.5,1", "1_000", "\u0661,2", "1\u00b2"])
    def test_pool_outside_the_grammar_is_an_input_error(self, pool, capsys):
        code, report, _ = run(
            capsys, "--no-timing", "hecke-make", "0", "0", "1", "--pool", pool
        )
        assert code == 2
        assert report["command"] == "hecke-make"
        assert report["error"]["kind"] == "input"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "\u0661", "hecke-make", "1", "0", "2"],
            ["--seed", "1_0", "hecke-make", "1", "0", "2"],
            ["--sign", "-\u0661", "check", str(GOLDEN / "worked_instance.json")],
            ["--sign", " 1", "check", str(GOLDEN / "worked_instance.json")],
            ["hecke-make", "\u0661", "0", "2"],
            ["hecke-make", "1", "-\u0660", "2"],
            ["hecke-make", "1", "0", "2_0"],
            ["hecke-make", "1", "0", "2 "],
            ["hecke-make", "1", "0", "9" * 5000],
        ],
        ids=[
            "seed-arabic-indic",
            "seed-underscore",
            "sign-arabic-indic",
            "sign-space",
            "c-arabic-indic",
            "d-arabic-indic",
            "length-underscore",
            "length-space",
            "length-too-long",
        ],
    )
    def test_integers_outside_the_grammar_are_usage_errors(self, argv, capsys):
        # every integer on the command line is [+-]?[0-9]+, as in documents
        code, report, err = run(capsys, "--no-timing", *argv)
        assert code == 2
        assert report["command"] is None
        assert report["error"]["kind"] == "input"
        assert "usage:" not in err

    @pytest.mark.parametrize(
        "argv, sign, seed",
        [
            (["--sign", "-1", "--seed", "+7"], -1, 7),
            (["--sign", "+1", "--seed", "-3"], 1, -3),
        ],
    )
    def test_signed_ascii_integers_parse(self, argv, sign, seed):
        args = cli_module._PARSER.parse_args([*argv, "hecke-make", "-2", "+0", "012"])
        assert (args.sign, args.seed, args.c, args.d, args.length) == (sign, seed, -2, 0, 12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["check"],
            ["hecke-make", "1", "0", "2", "--seed", "1"],
            ["--sign", "2", "check", "x"],
            [],
            ["selftest"],
        ],
        ids=[
            "missing-document",
            "global-flag-after-command",
            "bad-choice",
            "no-command",
            "unknown-command",
        ],
    )
    def test_usage_errors_are_input_reports(self, argv, capsys):
        code, report, err = run(capsys, *argv)
        assert code == 2
        assert report["command"] is None
        assert report["error"]["kind"] == "input"
        assert "usage:" not in err

    def test_help_keeps_argparse_behaviour(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: heckehiggs")


class TestParserOnce:
    """`main` parses every command line with the one parser built at import."""

    def test_no_parser_is_built_per_call(self, monkeypatch, capsys):
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self).__name__)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        path = str(GOLDEN / "worked_instance.json")
        for argv in (
            ["--no-timing", "check", path],
            ["check"],
            ["--no-timing", "reconstruct", path],
            ["--no-timing", "--seed", "1", "hecke-make", "1", "0", "2"],
        ):
            main(argv)
        capsys.readouterr()
        assert built == []

    def test_golden_check_after_a_usage_error(self, capsys):
        expected = (GOLDEN / "worked_expected_check.json").read_text(encoding="utf-8")
        assert main(["--sign", "2", "check", "x"]) == 2
        capsys.readouterr()
        assert main(["--no-timing", "check", str(GOLDEN / "worked_instance.json")]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]], ids=["top", "check"])
    def test_help_twice(self, argv, capsys):
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("usage: heckehiggs")


# Stdlib modules a CLI process must not import: `dataclasses` and what it
# pulls in, and `typing`.
_HEAVY_MODULES = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")


def test_cli_import_leaves_out_heavy_modules():
    # -S: no site, so that no .pth file can import one of them first
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import heckehiggs.cli; "
        "print(json.dumps(sorted(set(sys.argv[2:]) & set(sys.modules))))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(src), *_HEAVY_MODULES],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


class TestComputeOnce:
    """Each command derives the spectral curve, certifies its integrality,
    decides commutation and evaluates each component at each marked point
    at most once; a passing `build` factors no fiber, decides no
    commutation and evaluates no component, and no command runs a linear
    solve (the commutant solve is Cramer's rule over Q[x]).  Each command
    validates the presentation once and each component once, where it
    reads them.  Counted: char_poly, irreducible_over_function_field,
    check_commutation, fiber_points, linalg's solve_right, evaluate_endo,
    the fiber equation (`higgs._fiber_verdicts`, the core of
    check_fiber_condition), hecke.validate and validate_twisted_endo."""

    NAMES = (
        "char_poly",
        "irreducible_over_function_field",
        "check_commutation",
        "fiber_points",
        "solve_right",
        "evaluate_endo",
        "_fiber_verdicts",
        "validate",
        "validate_twisted_endo",
    )

    @staticmethod
    def counts(monkeypatch) -> Counter:
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        # these are counted through every module binding: `check` and the
        # commutant solve call check_commutation through their own,
        # `spectral` factors its fibers through cli's, and `check` validates
        # through cli's
        for name, module in (
            ("check_commutation", higgs_module),
            ("fiber_points", spectral_module),
            ("evaluate_endo", projline_module),
            ("_fiber_verdicts", higgs_module),
            ("validate", hecke_module),
            ("validate_twisted_endo", projline_module),
        ):
            original = getattr(module, name)
            wrapper = counting(name, original)
            for bound in list(sys.modules.values()):
                if getattr(bound, "__name__", "").startswith("heckehiggs") and (
                    getattr(bound, name, None) is original
                ):
                    monkeypatch.setattr(bound, name, wrapper)
        for name in ("char_poly", "irreducible_over_function_field"):
            monkeypatch.setattr(
                spectral_module, name, counting(name, getattr(spectral_module, name))
            )
        monkeypatch.setattr(
            linalg_module, "solve_right", counting("solve_right", linalg_module.solve_right)
        )
        return counts

    @pytest.mark.parametrize(
        "command, expected",
        [
            ("check", (1, 0, 1, 1, 0, 2, 1, 1, 2)),
            ("reconstruct", (0, 0, 1, 0, 0, 2, 1, 1, 2)),
            ("spectral", (1, 1, 1, 1, 0, 2, 1, 1, 2)),
            ("build", (0, 1, 0, 0, 0, 0, 0, 1, 2)),
        ],
    )
    def test_golden_instance(self, command, expected, tmp_path, monkeypatch, capsys):
        counts = self.counts(monkeypatch)
        path = str(GOLDEN / "worked_instance.json")
        if command == "build":
            path = write_doc(tmp_path, _golden_build_doc())
        assert main(["--no-timing", command, path]) == 0
        capsys.readouterr()
        assert tuple(counts[name] for name in self.NAMES) == expected

    def test_failing_fiber(self, tmp_path, monkeypatch, capsys):
        # the pair commutes, so `check` evaluates no sample point: its only
        # evaluations are the two fiber maps at the one marked point, which
        # the failing eigenvalue rows reuse
        doc = dict(WORKED)
        doc["ThetaPrime"] = {"twist": 1, "entries": [["0", "2"], ["2*x", "0"]]}
        counts = self.counts(monkeypatch)
        assert main(["--no-timing", "check", write_doc(tmp_path, doc)]) == 1
        assert json.loads(capsys.readouterr().out)["verdicts"]["fiber"] is False
        assert (counts["evaluate_endo"], counts["_fiber_verdicts"]) == (2, 1)

    def test_hecke_make(self, monkeypatch, capsys):
        # splitting_type validates the one presentation it is given, and its
        # section-count probes do not validate it again
        counts = self.counts(monkeypatch)
        assert main(["--no-timing", "hecke-make", "3", "-3", "12"]) == 0
        capsys.readouterr()
        assert (counts["validate"], counts["validate_twisted_endo"]) == (1, 0)


class TestNoFunctionField:
    """No command builds an element of Q(x): the repeated-factor gcd runs
    over Q[x]."""

    @pytest.mark.parametrize(
        "command, document, expected",
        [
            ("check", None, 0),
            ("reconstruct", None, 0),
            ("spectral", None, 0),
            ("build", _golden_build_doc(), 0),
            ("build", REPEATED_FACTOR_DOC, 1),
        ],
        ids=["check", "reconstruct", "spectral", "build", "build-repeated-factor"],
    )
    def test_commands_build_no_rational_function(
        self, command, document, expected, tmp_path, monkeypatch, capsys
    ):
        counts = count_rational_functions(monkeypatch)
        path = str(GOLDEN / "worked_instance.json")
        if document is not None:
            path = write_doc(tmp_path, document)
        assert main(["--no-timing", command, path]) == expected
        capsys.readouterr()
        assert counts["RationalFunction"] == 0


def count_number_fields(monkeypatch) -> Counter:
    """A counter whose "NumberField" entry counts the number fields built from
    now until the test ends."""
    counts = Counter()
    init = NumberField.__init__

    def counting_init(self, *args, **kwargs):
        counts["NumberField"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(NumberField, "__init__", counting_init)
    return counts


def _reference_check(hecke, pair, sign):
    """`check`'s verdicts and details, with the eigenvalue condition at every
    marked point and eigenspace invariance at every sample point computed by
    the fiberwise oracles."""
    fiber_ok, fiber = check_fiber_condition(pair, hecke)
    curve = curve_of(pair.first)
    eig_ok, rows = oracle_eigenvalue_condition(pair, curve, hecke, sign)
    verdicts = {
        "hecke_valid": True,
        "theta_bounds": True,
        "theta_prime_bounds": True,
        "commutation": check_commutation(pair),
        "fiber": fiber_ok,
        "eigenvalue": eig_ok,
        "eigenspace_invariance": all(
            eigenspace_invariance(pair, curve, x) for x in _SAMPLE_POINTS
        ),
    }
    details = {
        "fiber": [{"x": str(v.point.x), "ok": v.ok} for v in fiber],
        "eigenvalue": [
            {"x": str(r.x), "minimal": r.minimal, "ok": r.ok, "note": r.note}
            for r in rows
        ],
        "invariance_samples": [str(x) for x in _SAMPLE_POINTS],
    }
    return verdicts, details


class TestCheckDerivations:
    """`check` decides eigenspace invariance at each sample point x0 by
    comparing the fiber products A(x0)B(x0) and B(x0)A(x0), and derives the
    eigenvalue rows from the fiber equation; its reports match the
    number-field oracles, and where the fiber equation holds it builds no
    number field."""

    @given(instances())
    @settings(max_examples=30, deadline=None)
    def test_report_matches_oracles(self, instance):
        hecke, pair = instance
        doc = instance_to_json(hecke, pair)
        for sign in (1, -1):
            report, _ = cmd_check(doc, sign)
            assert (report["verdicts"], report["details"]) == _reference_check(
                hecke, pair, sign
            )

    def _count_check(self, path, monkeypatch, capsys):
        counts = count_number_fields(monkeypatch)
        factor_rationals = spectral_module.factor_rationals

        def wrapper(*args, **kwargs):
            counts["factor_rationals"] += 1
            return factor_rationals(*args, **kwargs)

        monkeypatch.setattr(spectral_module, "factor_rationals", wrapper)
        code, report, _ = run(capsys, "--no-timing", "check", path)
        return code, report, counts

    def test_golden_check_skips_the_sample_points(self, monkeypatch, capsys):
        # x = 0 is both the marked point and a sample point: one fiber factored
        path = str(GOLDEN / "worked_instance.json")
        code, _, counts = self._count_check(path, monkeypatch, capsys)
        assert code == 0
        assert counts["NumberField"] == 0
        assert counts["factor_rationals"] == 1

    def test_non_commuting_document_computes_invariance(
        self, tmp_path, monkeypatch, capsys
    ):
        # equal to Theta at the marked point x = 0, but not commuting with it
        doc = json.loads(json.dumps(WORKED))
        doc["ThetaPrime"]["entries"] = [["x", "1"], ["x", "0"]]
        path = write_doc(tmp_path, doc)
        code, report, counts = self._count_check(path, monkeypatch, capsys)
        assert code == 1
        assert report["verdicts"]["commutation"] is False
        assert report["verdicts"]["fiber"] is True
        assert report["verdicts"]["eigenspace_invariance"] is False
        assert counts["NumberField"] == 0

    @pytest.mark.parametrize(
        "length, entry, invariant",
        [
            # q = x(x^2 - 1)(x^2 - 4) vanishes at all five sample points
            (5, "x^5 - 5*x^3 + 4*x", True),
            # q = x(x^2 - 1)(x - 2) vanishes at 0, 1, -1 and 2, not at -2
            (4, "x^4 - 2*x^3 - x^2 + 2*x", False),
        ],
    )
    def test_commutator_vanishing_at_the_samples(
        self, length, entry, invariant, tmp_path, monkeypatch, capsys
    ):
        # Theta' = diag(q, 0), and [Theta, Theta'] = q * [[0, -1], [x, 0]]:
        # nonzero, so the pair does not commute, but zero wherever q is
        doc = {
            "hecke": {"S": 1, "L": length, "points": []},
            "E": {"twists": [0, 0]},
            "Theta": {"twist": 1, "entries": [["0", "1"], ["x", "0"]]},
            "ThetaPrime": {"twist": length, "entries": [[entry, "0"], ["0", "0"]]},
        }
        code, report, _ = self._count_check(write_doc(tmp_path, doc), monkeypatch, capsys)
        assert code == 1
        assert report["verdicts"]["commutation"] is False
        assert report["verdicts"]["eigenspace_invariance"] is invariant

    @pytest.mark.parametrize("sign", [1, -1])
    def test_failed_fiber_equation_builds_no_number_field(
        self, sign, tmp_path, monkeypatch, capsys
    ):
        # at x = 2 the fiber is the irreducible quadratic t^2 - 2, and
        # 2 * Theta misses the fiber equation there: its rows are decided
        doc = json.loads(json.dumps(WORKED))
        doc["hecke"]["points"] = [{"x": "2", "lambda": "1"}]
        doc["ThetaPrime"]["entries"] = [["0", "2"], ["2*x", "0"]]
        path = write_doc(tmp_path, doc)
        counts = count_number_fields(monkeypatch)
        code, report, _ = run(capsys, "--no-timing", "--sign", str(sign), "check", path)
        assert code == 1
        assert report["verdicts"]["fiber"] is False
        assert report["details"]["eigenvalue"] == [
            {"x": "2", "minimal": "t^2 - 2", "ok": False, "note": ""}
        ]
        assert counts["NumberField"] == 0


GOLDEN_NAMES = ("worked", "rank3", "rank4", "rank4_denominator")


def _golden_documents(name):
    """A golden instance and the `build` document of its pinned spectral
    datum."""
    instance = json.loads((GOLDEN / f"{name}_instance.json").read_text())
    spectral = json.loads((GOLDEN / f"{name}_expected_spectral.json").read_text())
    return instance, {"hecke": instance["hecke"], "spectral": spectral["spectral"]}


class TestFibersOverQ:
    """`spectral` and `build` decide every fiberwise identity over Q: neither
    builds a number field on a golden document, and `build` certifies its
    output without `reconstruct` or a commutation check."""

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_golden_documents_build_no_number_field(self, name, tmp_path, monkeypatch, capsys):
        instance, build_doc = _golden_documents(name)
        counts = count_number_fields(monkeypatch)
        codes = [
            main(["--no-timing", "spectral", write_doc(tmp_path, instance, "instance.json")]),
            main(["--no-timing", "build", write_doc(tmp_path, build_doc, "build.json")]),
        ]
        capsys.readouterr()
        # the multiplier of rank4_denominator is not a polynomial: build
        # refuses it as input
        assert codes == [0, 2 if name == "rank4_denominator" else 0]
        assert counts["NumberField"] == 0

    @pytest.mark.parametrize("name", GOLDEN_NAMES[:3])
    def test_build_calls_no_reconstruct(self, name, tmp_path, monkeypatch, capsys):
        calls = Counter()
        for fn in (higgs_module.reconstruct, higgs_module.check_commutation):
            def wrapper(*args, fn=fn, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)

            for module in (cli_module, higgs_module, spectral_module):
                if getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, wrapper)
        _, build_doc = _golden_documents(name)
        assert main(["--no-timing", "build", write_doc(tmp_path, build_doc)]) == 0
        capsys.readouterr()
        assert calls == Counter()

    def test_only_the_package_namespace_imports_numfield(self):
        # the public namespace re-exports NumberField; no computation uses it
        package = Path(__file__).resolve().parent.parent / "src" / "heckehiggs"
        importers = set()
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [alias.name for alias in node.names]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any("numfield" in name.split(".") for name in names):
                    importers.add(path.name)
        assert importers - {"numfield.py"} == {"__init__.py"}
