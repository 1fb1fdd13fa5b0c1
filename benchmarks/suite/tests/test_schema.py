"""``BENCHMARK.json``, result-line and run-record validation."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

import schema

BENCHMARK_PATH = Path(__file__).resolve().parents[3] / "BENCHMARK.json"


@pytest.fixture
def contract() -> dict:
    return json.loads(BENCHMARK_PATH.read_text(encoding="utf-8"))


def test_the_committed_benchmark_is_valid():
    assert schema.validate_benchmark_file(BENCHMARK_PATH) == []


def _break(doc: dict, edit) -> list[str]:
    broken = copy.deepcopy(doc)
    edit(broken)
    return schema.validate_benchmark(broken)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.pop("paths"),
        lambda d: d.update(extra=1),
        lambda d: d.update(run_seconds=61),
        lambda d: d.update(run_seconds=True),
        lambda d: d.update(command=["python3", "/abs/run.py"]),
        lambda d: d.update(command=["python3", "../outside/run.py"]),
        lambda d: d.update(paths=["benchmarks/../src"]),
        lambda d: d.update(workloads=d["workloads"][:1]),
        lambda d: d["workloads"][0].update(why="two\nlines"),
        lambda d: d["workloads"][1].update(name=d["workloads"][0]["name"]),
        lambda d: d["end_to_end"][0].update(bound=0.3),
        # setup_s must keep the largest bound
        lambda d: d["end_to_end"][0].update(bound=0.05),
        lambda d: d.update(end_to_end=[m for m in d["end_to_end"] if m["name"] != "setup_s"]),
        lambda d: d["per_layer"][0].update(name="-starts-with-a-dash"),
        lambda d: d["per_layer"][0].update(unit="far-too-long-a-unit"),
        lambda d: d["per_layer"][0].update(better="sideways"),
        lambda d: d["per_layer"].append(dict(d["per_layer"][0])),
        lambda d: d["per_layer"][0].update(bound=0.1),
    ],
)
def test_contract_violations_are_reported(contract, edit):
    assert _break(contract, edit)


def _line(contract: dict, trace: bool) -> dict:
    names = contract["per_layer" if trace else "end_to_end"]
    return {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {m["name"]: {"value": 1.25, "unit": m["unit"]} for m in names},
    }


@pytest.mark.parametrize("trace", [False, True])
def test_result_lines(contract, trace):
    line = _line(contract, trace)
    assert schema.validate_result_line(line, contract, trace) == []
    assert schema.validate_result_line(line, contract, not trace)

    missing = copy.deepcopy(line)
    missing["metrics"].popitem()
    assert schema.validate_result_line(missing, contract, trace)

    for key, value in (("attempted", 0), ("failed", 4), ("correct", "yes")):
        bad = dict(line, **{key: value})
        assert schema.validate_result_line(bad, contract, trace)

    name = next(iter(line["metrics"]))
    for metric in ({"value": float("nan"), "unit": line["metrics"][name]["unit"]},
                   {"value": 1.0, "unit": "parsecs"},
                   {"value": True, "unit": line["metrics"][name]["unit"]}):
        bad = copy.deepcopy(line)
        bad["metrics"][name] = metric
        assert schema.validate_result_line(bad, contract, trace)


def _record(contract: dict) -> dict:
    def summary(unit: str) -> dict:
        return {"value": 1.0, "unit": unit, "q1": 0.9, "q3": 1.1, "n": 3, "samples": [0.9, 1.0, 1.1]}

    return {
        "schema": schema.RECORD_SCHEMA,
        "environment": {key: None for key in schema.ENVIRONMENT_KEYS},
        "protocol": {"seed": 2018},
        "workloads": {
            "synthesis": {
                "correct": True,
                "attempted": 5,
                "failed": 0,
                "metrics": {m["name"]: summary(m["unit"]) for m in contract["end_to_end"]},
                "detail": {},
            }
        },
    }


def test_run_records(contract):
    record = _record(contract)
    assert schema.validate_record(record, contract) == []

    for edit in (
        lambda r: r.update(schema="other/1"),
        lambda r: r["environment"].pop("nproc"),
        lambda r: r["workloads"].update(unknown=r["workloads"]["synthesis"]),
        lambda r: r["workloads"]["synthesis"]["metrics"].pop("setup_s"),
        lambda r: r["workloads"]["synthesis"]["metrics"]["round_s"].update(samples=[]),
        lambda r: r["workloads"]["synthesis"].pop("detail"),
    ):
        broken = copy.deepcopy(record)
        edit(broken)
        assert schema.validate_record(broken, contract), edit
