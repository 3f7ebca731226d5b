"""The benchmark corpus's reports, held byte for byte.

One `--no-timing` pass of each workload in `bench/workloads.py` on seed 1
runs through `bench/run.py`'s `run_pass`, and each op's sha256 over its
argv, document, exit code and report text must match the one checked in
to `golden/corpus_digest.json`.  The test names every op whose digest
changed.  Like the other goldens, the file changes only with a stated
reason; a change to the workload generators changes it too.  Rewrite it
with

    PYTHONPATH=src python tests/test_corpus_digest.py --write
"""

import hashlib
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402

import heckehiggs.cli  # noqa: E402

DIGEST = Path(__file__).parent / "golden" / "corpus_digest.json"
SEED = 1


def op_digest(outcome) -> str:
    op = outcome.op
    record = json.dumps([op.argv, op.document, outcome.code, outcome.text])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def corpus_digests() -> dict:
    """workload -> [[argv joined by spaces, sha256], ...], one entry per op in
    the order the pass ran them."""
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        digests = {}
        for name, (build, count) in run.WORKLOADS.items():
            outcomes = run.run_pass(heckehiggs.cli.main, build(SEED, count), run.TIME_LIMIT_S)
            digests[name] = [[" ".join(o.op.argv), op_digest(o)] for o in outcomes]
        return digests
    finally:
        signal.signal(signal.SIGALRM, previous)


def changed_ops(expected: dict, actual: dict) -> list:
    """`workload[index] argv` for every op whose digest differs, plus the
    ops only one side has."""
    changed = []
    for name in sorted(set(expected) | set(actual)):
        old, new = expected.get(name, []), actual.get(name, [])
        for i in range(max(len(old), len(new))):
            if i >= len(old) or i >= len(new) or old[i] != new[i]:
                argv = (new[i] if i < len(new) else old[i])[0]
                changed.append(f"{name}[{i}] {argv}")
    return changed


def test_corpus_reports_match_the_digest():
    expected = json.loads(DIGEST.read_text(encoding="utf-8"))
    assert changed_ops(expected, corpus_digests()) == []


def test_a_changed_report_is_named():
    expected = {"w": [["check -", "a"], ["spectral -", "b"]]}
    actual = {"w": [["check -", "a"], ["spectral -", "c"], ["build -", "d"]]}
    assert changed_ops(expected, actual) == ["w[1] spectral -", "w[2] build -"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_corpus_digest.py --write")
    blocks = [
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(op)}" for op in ops) + "\n ]"
        for name, ops in corpus_digests().items()
    ]
    DIGEST.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
