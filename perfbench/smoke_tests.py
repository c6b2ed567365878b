"""Seconds-long checks of the benchmark itself, at the ``smoke`` graph scale.

Not collected by the default test run (the name does not match
``test_*.py``); run them with::

    python3 -m pytest perfbench/smoke_tests.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload]
        + ["--seed", "3", "--seconds", "1", "--trace", str(trace)]
        + ["--scale", "smoke"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(workload, trace):
    result = _smoke(workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tampered_expected_digest_is_a_wrong_answer(monkeypatch, capsys):
    honest = workloads.expected_answers

    def tampered(job):
        answers = honest(job)
        answers[0][1] = "0" * 64
        return answers

    monkeypatch.setattr(workloads, "expected_answers", tampered)
    code = run.main(["--workload", "star", "--seconds", "1", "--scale", "smoke"])
    assert code == 1
    error = capsys.readouterr().err
    assert "wrong answer" in error
    assert repr(workloads.STAR_QUERIES[0]) in error


def test_missing_program_source_fails_without_a_result(tmp_path):
    copy = tmp_path / "checkout"
    copy.mkdir()
    (copy / "BENCHMARK.json").write_text(json.dumps(SPEC))
    subprocess.run(["cp", "-r", str(HERE), str(copy / "perfbench")], check=True)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "star"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=copy,
        timeout=60,
        check=False,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
