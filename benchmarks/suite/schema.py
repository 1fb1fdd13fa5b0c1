"""Validators for ``BENCHMARK.json``, ``run.py``'s result line and the
run records ``run.py --out`` writes.

Each validator returns a list of human-readable problems; an empty list
means valid.  Usage::

    python benchmarks/suite/schema.py [BENCHMARK.json] [RECORDS.jsonl ...]

exits 1 when any file has a problem.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path, PurePosixPath
from typing import Any

BENCHMARK_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RECORD_SCHEMA = "spectr-suite-run/1"
ENVIRONMENT_KEYS = {
    "nproc",
    "affinity",
    "python",
    "numpy",
    "blas",
    "git",
    "REPRO_DISABLE_FUSED",
    "fused",
}
SUMMARY_KEYS = {"value", "unit", "q1", "q3", "n", "samples"}
MAX_BOUND = 0.25
MAX_FILE_BYTES = 64 * 1024

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
_PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def _is_number(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _escapes(path: str) -> bool:
    return path.startswith("/") or ".." in PurePosixPath(path).parts


def _entries(
    doc: dict, key: str, fields: set[str], low: int, high: int, problems: list[str]
) -> list[dict]:
    items = doc.get(key)
    if not isinstance(items, list) or not low <= len(items) <= high:
        problems.append(f"{key}: must be a list of {low} to {high} entries")
        return []
    valid = []
    for index, item in enumerate(items):
        if not isinstance(item, dict) or set(item) != fields:
            problems.append(f"{key}[{index}]: must have exactly the keys {sorted(fields)}")
            continue
        if not isinstance(item["name"], str) or not _NAME.fullmatch(item["name"]):
            problems.append(f"{key}[{index}]: bad name {item['name']!r}")
            continue
        valid.append(item)
    return valid


def validate_benchmark(doc: Any) -> list[str]:
    """Problems with a parsed ``BENCHMARK.json``."""
    if not isinstance(doc, dict) or set(doc) != BENCHMARK_KEYS:
        return [f"top level must have exactly the keys {sorted(BENCHMARK_KEYS)}"]
    problems: list[str] = []

    command = doc["command"]
    if (
        not isinstance(command, list)
        or not 1 <= len(command) <= 32
        or not all(isinstance(arg, str) and len(arg) <= 200 for arg in command)
    ):
        problems.append("command: must be 1 to 32 strings of at most 200 characters")
    elif any(_escapes(arg) for arg in command):
        problems.append("command: no argument may be absolute or climb out with '..'")

    paths = doc["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        problems.append("paths: must be a list of 1 to 16 directories")
    else:
        for path in paths:
            if not isinstance(path, str) or not _PATH.fullmatch(path) or _escapes(path):
                problems.append(f"paths: bad directory {path!r}")

    seconds = doc["run_seconds"]
    if not _is_int(seconds) or not 1 <= seconds <= 60:
        problems.append("run_seconds: must be a whole number from 1 to 60")

    workloads = _entries(doc, "workloads", {"name", "why"}, 2, 8, problems)
    for item in workloads:
        why = item["why"]
        if not isinstance(why, str) or not why or "\n" in why or len(why) > 200:
            problems.append(f"workloads[{item['name']}]: why must be one line of at most 200 characters")

    end_to_end = _entries(doc, "end_to_end", {"name", "unit", "better", "bound"}, 1, 16, problems)
    per_layer = _entries(doc, "per_layer", {"name", "unit", "better"}, 1, 128, problems)
    for item in end_to_end + per_layer:
        if not isinstance(item["unit"], str) or not _UNIT.fullmatch(item["unit"]):
            problems.append(f"{item['name']}: bad unit {item['unit']!r}")
        if item["better"] not in ("lower", "higher"):
            problems.append(f"{item['name']}: better must be 'lower' or 'higher'")
    for item in end_to_end:
        bound = item["bound"]
        if not _is_number(bound) or not 0 <= bound <= MAX_BOUND:
            problems.append(f"{item['name']}: bound must be a number from 0 to {MAX_BOUND}")

    for group in (workloads, end_to_end + per_layer):
        names = [item["name"] for item in group]
        for name in sorted({n for n in names if names.count(n) > 1}):
            problems.append(f"name {name!r} is used more than once")

    setup = [item for item in end_to_end if item["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end: needs setup_s in unit s with better 'lower'")
    elif any(
        _is_number(item["bound"]) and item["bound"] > setup[0]["bound"]
        for item in end_to_end
    ):
        problems.append("end_to_end: setup_s must have the largest bound")
    return problems


def validate_benchmark_file(path: Path) -> list[str]:
    data = path.read_bytes()
    if len(data) > MAX_FILE_BYTES:
        return [f"{path}: larger than {MAX_FILE_BYTES} bytes"]
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        return [f"{path}: not JSON ({exc})"]
    return validate_benchmark(doc)


def validate_result_line(line: Any, benchmark: dict, trace: bool) -> list[str]:
    """Problems with the one-object result line of a single-workload run."""
    if not isinstance(line, dict) or set(line) != RESULT_KEYS:
        return [f"result line must have exactly the keys {sorted(RESULT_KEYS)}"]
    problems: list[str] = []
    if not isinstance(line["correct"], bool):
        problems.append("correct must be true or false")
    attempted, failed = line["attempted"], line["failed"]
    if not _is_int(attempted) or attempted < 1:
        problems.append("attempted must be a whole number >= 1")
    if not _is_int(failed) or failed < 0 or (_is_int(attempted) and failed > attempted):
        problems.append("failed must be a whole number from 0 to attempted")
    expected = {m["name"]: m["unit"] for m in benchmark["per_layer" if trace else "end_to_end"]}
    metrics = line["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        return problems + ["metrics must name exactly the benchmark's metrics for this mode"]
    for name, metric in metrics.items():
        if (
            not isinstance(metric, dict)
            or set(metric) != {"value", "unit"}
            or not _is_number(metric["value"])
            or metric["unit"] != expected[name]
        ):
            problems.append(f"metric {name}: needs a finite value and unit {expected[name]!r}")
    return problems


def _summaries(where: str, section: Any, problems: list[str]) -> None:
    if not isinstance(section, dict):
        problems.append(f"{where}: must be an object")
        return
    for name, summary in section.items():
        if not isinstance(summary, dict) or not SUMMARY_KEYS <= set(summary):
            problems.append(f"{where}.{name}: needs {sorted(SUMMARY_KEYS)}")
        elif not summary["samples"] or not all(_is_number(v) for v in summary["samples"]):
            problems.append(f"{where}.{name}: samples must be non-empty numbers")


def validate_record(record: Any, benchmark: dict) -> list[str]:
    """Problems with one run record written by ``run.py --out``."""
    if not isinstance(record, dict) or record.get("schema") != RECORD_SCHEMA:
        return [f"record schema must be {RECORD_SCHEMA!r}"]
    problems: list[str] = []
    environment = record.get("environment")
    if not isinstance(environment, dict) or not ENVIRONMENT_KEYS <= set(environment):
        problems.append(f"environment must record {sorted(ENVIRONMENT_KEYS)}")
    if not isinstance(record.get("protocol"), dict):
        problems.append("protocol must be an object")
    workloads = record.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return problems + ["workloads must be a non-empty object"]
    known = {w["name"] for w in benchmark["workloads"]}
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    for name, result in workloads.items():
        where = f"workloads.{name}"
        if name not in known:
            problems.append(f"{where}: not a workload of the benchmark")
        if not isinstance(result, dict):
            problems.append(f"{where}: must be an object")
            continue
        for key in ("correct", "attempted", "failed", "metrics", "detail"):
            if key not in result:
                problems.append(f"{where}: missing {key}")
        metrics = result.get("metrics", {})
        if not isinstance(metrics, dict) or set(metrics) != end_to_end:
            problems.append(f"{where}.metrics: must hold exactly the end-to-end metrics")
        _summaries(f"{where}.metrics", metrics, problems)
        _summaries(f"{where}.detail", result.get("detail", {}), problems)
    return problems


def load_records(path: Path) -> list[dict]:
    """Run records from a JSONL file (one record per line)."""
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parents[2]
    benchmark_path = Path(argv[0]) if argv else root / "BENCHMARK.json"
    problems = [f"{benchmark_path}: {p}" for p in validate_benchmark_file(benchmark_path)]
    if not problems:
        benchmark = json.loads(benchmark_path.read_text(encoding="utf-8"))
        for record_path in map(Path, argv[1:]):
            for index, record in enumerate(load_records(record_path)):
                problems += [
                    f"{record_path}:{index + 1}: {p}"
                    for p in validate_record(record, benchmark)
                ]
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
