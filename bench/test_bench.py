"""Tests of the benchmark itself: seeded documents, the metric contract in
BENCHMARK.json, tiny smoke corpora and the fidelity of the traced run."""

import json
import signal
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

import heckehiggs.cli  # noqa: E402

CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SMOKE_JOBS = 3


def cli(argv):
    return heckehiggs.cli.main(argv)


@pytest.fixture(autouse=True)
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def documents(name, seed, count=SMOKE_JOBS):
    build, _ = run.WORKLOADS[name]
    return [(op.argv, op.document) for job in build(seed, count) for op in job]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed_fixes_documents(name):
    assert documents(name, 7) == documents(name, 7)
    assert documents(name, 7) != documents(name, 8)


def test_contract_names_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)


def test_every_metric_is_emitted_with_its_unit():
    jobs = run.WORKLOADS["certify-small"][0](1, SMOKE_JOBS)
    e2e, _, attempted, failed, sound = run.end_to_end(cli, jobs, run.TIME_LIMIT_S, 0)
    assert attempted >= 1 and failed == 0 and sound
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    layers, _, _, _, _ = run.per_layer(cli, jobs, run.TIME_LIMIT_S)
    assert {k: u for k, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_corpus_is_right_and_traced_faithfully(name):
    jobs = run.WORKLOADS[name][0](3, SMOKE_JOBS)
    first, detail, attempted, failed, sound = run.per_layer(cli, jobs, run.TIME_LIMIT_S)
    assert attempted >= SMOKE_JOBS and failed == 0
    assert detail["reports_identical"] and detail["traced_complete"] and detail["wrappers_removed"]
    assert sound
    second, *_ = run.per_layer(cli, jobs, run.TIME_LIMIT_S)
    counts = [k for k in first if ".calls" in k or k.endswith("distinct_share")]
    assert counts and all(first[k] == second[k] for k in counts)


def test_wrong_report_is_caught():
    golden = run.WORKLOADS["certify-small"][0](1, 1)[0]
    check = golden[0]
    outcome, _ = run.execute(cli, workloads.Op(["reconstruct", "-"], check.document, check.check), 5)
    assert outcome.status == "decided" and outcome.problems


def test_time_limit_stops_an_op():
    slow = workloads.Op(["hecke-make", "3", "-3", "12"], None, lambda *a: ([], []))
    outcome, _ = run.execute(cli, slow, 0.02)
    assert outcome.status == "timeout" and outcome.seconds < 1
