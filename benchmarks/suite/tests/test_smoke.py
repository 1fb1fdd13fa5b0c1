"""End-to-end runs of ``run.py``: smoke mode, traced smoke, bare tree."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import schema

SUITE = Path(__file__).resolve().parents[1]
ROOT = SUITE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_smoke_runs_every_workload_with_every_check(tmp_path):
    out = tmp_path / "runs.jsonl"
    completed = _run(ROOT, "--smoke", "--out", str(out))
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = _result_lines(completed.stdout)
    assert len(lines) == len(BENCHMARK["workloads"])
    for line in lines:
        assert schema.validate_result_line(line, BENCHMARK, trace=False) == []
        assert line["correct"] and line["failed"] == 0
    assert completed.stdout.strip().splitlines()[-1].startswith("{")
    (record,) = schema.load_records(out)
    assert schema.validate_record(record, BENCHMARK) == []
    assert set(record["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    assert record["environment"]["nproc"] >= 1


def test_traced_outputs_match_untraced_ones(tmp_path):
    """A traced smoke run checks its traced round against the untraced
    one byte for byte, and each manager's layer self times add up to
    its operation time measured by the root spans."""
    completed = _run(
        ROOT, "--smoke", "--trace", "1", "--workload", "paper-scalar", "--workload", "fleet-1000"
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    for line in _result_lines(completed.stdout):
        assert schema.validate_result_line(line, BENCHMARK, trace=True) == []
        assert line["correct"]
        metrics = line["metrics"]
        for manager in ("fs", "mm_perf", "mm_pow", "spectr"):
            parts = [
                value["value"]
                for name, value in metrics.items()
                if name.startswith(f"{manager}.")
                and name.endswith("_us")
                and name != f"{manager}.op_us"
            ]
            op_us = metrics[f"{manager}.op_us"]["value"]
            assert op_us > 0
            assert abs(sum(parts) - op_us) <= 1e-6 * op_us


def test_a_tree_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy2(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite")
    completed = _run(tmp_path)
    assert completed.returncode != 0
    assert _result_lines(completed.stdout) == []
