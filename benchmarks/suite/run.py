#!/usr/bin/env python3
"""The benchmark of the SPECTR reproduction: five workloads over all four
managers, end to end and, in a traced run, layer by layer.

Usage, from the repository root::

    python3 benchmarks/suite/run.py [--workload W ...] [--seed S]
        [--seconds N] [--trace [0|1]] [--smoke] [--out FILE]

Each workload runs in fresh child processes (``child.py``).  Several
children only set up and exit, so that set-up time is a median too;
one more sets up, runs a discarded warm-up round, then timed rounds
for ``--seconds`` (default: ``run_seconds`` in ``BENCHMARK.json``),
and checks every output.  ``--smoke`` runs one round per workload at
reduced size with every check on.  Every time a child reports is
scaled to the reference host speed by its host-speed probe
(``hostspeed.py``); the host times are kept in the record as
``round_host_s`` and ``setup_host_s``.

For every workload it prints each metric with its unit,
median, quartiles and sample count (plus the highest percentile that
has at least ten samples beyond it, and a ``noisy`` flag when the
interquartile range is wider than the metric's bound), then one JSON
line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of ``BENCHMARK.json`` or, with
``--trace 1``, its per-layer metrics.  ``--out FILE`` appends the full
run record, environment included, as one JSON line.

Exit status: 0 when every output was correct, 1 when an operation
failed, 2 when the benchmark could not run (no ``src/repro`` beside
it, a child crashed or overran its time).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import schema
from stats import summarize

ROOT = Path(__file__).resolve().parents[2]
SUITE = Path(__file__).resolve().parent
WORK = ROOT / ".suite-work"
# Set-up-only children per workload run; the workload's own child adds
# one more set-up sample.
SETUP_CHILDREN = 3
SETUP_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 150
TIME_UNITS = {"s", "ms", "us"}


class SuiteError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(arguments: list[str], timeout_s: float) -> dict:
    """Run ``child.py`` and return the JSON object on its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # Keeps the compiled fleet kernels and every temporary file inside
    # the checkout.
    env["TMPDIR"] = str(WORK / "tmp")
    spawned_at = perf_counter()
    # A session of its own, so that stopping it also stops the analyzer
    # process an analysis-gate child may be running.
    process = subprocess.Popen(
        [sys.executable, str(SUITE / "child.py"), "--spawned-at", repr(spawned_at), *arguments],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=timeout_s)
    except BaseException as exc:  # overrun or interrupt: never leave it running
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SuiteError(f"child {arguments[:2]} overran {timeout_s} s") from None
        raise
    lines = output.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SuiteError(f"child {arguments[:2]} exited {process.returncode}")
    return json.loads(lines[-1])


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        ).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def _environment(child: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": child["versions"]["numpy"],
        "blas": child["versions"]["blas"],
        "machine": platform.machine(),
        "git": _git_state(),
        "REPRO_DISABLE_FUSED": os.environ.get("REPRO_DISABLE_FUSED"),
        "fused": child["fused"],
    }


def _layer_table(
    benchmark: dict, setups: list[dict], child: dict, untraced: list[dict], traced: list[dict]
) -> dict:
    """Summaries of the per-layer metrics this workload exercises."""
    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    samples: dict[str, list[float]] = {}
    for round_ in traced:
        # Spans are host times: scale a round's layer times as the round
        # itself was scaled (the set-up breakdown comes scaled).
        speed = round_["seconds"] / round_["detail"]["round_host_s"]
        for name, value in round_["layers"].items():
            if units.get(name) in TIME_UNITS:
                value *= speed
            samples.setdefault(name, []).append(value)
    for part in ("imports_ms", "identify_ms", "case_study_ms", "fused_ms"):
        samples[f"setup.{part}"] = [s["setup"][part] for s in setups]
    fused = child["fused"]
    samples["control.fused_servo"] = [float(sum(fused["servo"].values()))]
    samples["platform.fused_telemetry"] = [float(fused["telemetry"])]
    samples["platform.fused_snap"] = [float(fused["snap"])]
    if untraced and traced:
        base = summarize([r["seconds"] for r in untraced])["value"]
        with_trace = summarize([r["seconds"] for r in traced])["value"]
        samples["trace.overhead_pct"] = [(with_trace / base - 1.0) * 100.0]
    unknown = sorted(set(samples) - set(units))
    if unknown:
        raise SuiteError(f"layer metrics missing from BENCHMARK.json: {unknown}")
    return {
        name: {"unit": units[name], **summarize(values)}
        for name, values in samples.items()
    }


def run_workload(name: str, args: argparse.Namespace, benchmark: dict) -> tuple[dict, dict]:
    """One workload: set-up samples, the measured child, the summaries.

    Returns the workload's run record and the child's set-up report.
    """
    setups = [
        _child(["--setup-only"], SETUP_TIMEOUT_S)
        for _ in range(0 if args.smoke else SETUP_CHILDREN)
    ]
    spans = WORK / "spans" / f"{name}-seed{args.seed}.jsonl"
    child = _child(
        [
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--work-dir", str(WORK / name),
            "--spans", str(spans),
            *(["--smoke"] if args.smoke else []),
        ],
        WORKLOAD_TIMEOUT_S,
    )
    setups.append(child)
    untraced = [r for r in child["rounds"] if not r["traced"]]
    traced = [r for r in child["rounds"] if r["traced"]]
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    values = {
        "setup_s": [s["ready_s"] for s in setups],
        "round_s": [r["seconds"] for r in untraced],
        "peak_rss_mb": [child["peak_rss_mb"]],
    }
    if set(values) != set(end_to_end):
        raise SuiteError("end-to-end metrics differ from BENCHMARK.json")
    metrics = {
        metric: {
            "unit": end_to_end[metric]["unit"],
            "better": end_to_end[metric]["better"],
            "bound": end_to_end[metric]["bound"],
            **summarize(samples, end_to_end[metric]["bound"]),
        }
        for metric, samples in values.items()
    }
    detail_samples: dict[str, list[float]] = {}
    for round_ in untraced:
        for metric, value in round_["detail"].items():
            detail_samples.setdefault(metric, []).append(value)
    # Workload-specific metrics are parts of a round; they share its bound.
    bound = end_to_end["round_s"]["bound"]
    detail = {
        metric: {
            "unit": child["detail_units"][metric][0],
            "better": child["detail_units"][metric][1],
            "bound": bound,
            **summarize(samples, bound),
        }
        for metric, samples in detail_samples.items()
    }
    attempted = child["attempted"]
    failed = len(child["failures"])
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 0.0,
        "failures": child["failures"],
        "rounds": len(untraced),
        "setup_host_s": [s["ready_host_s"] for s in setups],
        "metrics": metrics,
        "detail": detail,
    }
    if args.trace:
        record["layers"] = _layer_table(benchmark, setups, child, untraced, traced)
        record["spans"] = spans.relative_to(ROOT).as_posix()
    return record, child


def _format(summary: dict) -> str:
    text = (
        f"{summary['value']:>14.6g} {summary['q1']:>12.6g} {summary['q3']:>12.6g} "
        f"{summary['n']:>4}"
    )
    if "tail" in summary:
        text += f"  p{summary['tail']['p']:g}={summary['tail']['value']:.6g}"
    if summary.get("noisy"):
        text += "  noisy"
    return text


def print_workload(name: str, record: dict, seed: int) -> None:
    print(
        f"== {name}: seed {seed}, {record['rounds']} timed rounds, "
        f"{record['attempted']} operations, {record['failed']} failed"
    )
    print(f"   {'metric':<44} {'unit':<8} {'median':>14} {'q1':>12} {'q3':>12} {'n':>4}")
    sections = [record["metrics"], record["detail"]]
    if "layers" in record:
        sections.append(record["layers"])
    for section in sections:
        for metric, summary in section.items():
            print(f"   {metric:<44} {summary['unit']:<8} {_format(summary)}")
    for failure in record["failures"]:
        print(f"   FAILED {failure}")


def result_line(record: dict, benchmark: dict, trace: bool) -> dict:
    """The contract's one-object summary of a workload run.  Traced, it
    lists every per-layer metric; a layer the workload never enters
    (the fleet has no per-sensor span, synthesis no platform) reads 0."""
    section = record["layers"] if trace else record["metrics"]
    metrics = {}
    for metric in benchmark["per_layer" if trace else "end_to_end"]:
        value = section[metric["name"]]["value"] if metric["name"] in section else 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def parse_args(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="SPECTR reproduction benchmark (see benchmarks/suite/README.md)"
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=workloads,
        help="workload to run (repeatable; default: all of BENCHMARK.json's)",
    )
    parser.add_argument("--seed", type=int, default=2018, help="input seed (default 2018)")
    parser.add_argument(
        "--seconds", type=int, help="measured seconds per workload (default: run_seconds)"
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1 (or the bare flag): report per-layer metrics from a traced run",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="one round per workload at reduced size"
    )
    parser.add_argument("--out", type=Path, help="append the run record to this JSONL file")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str]) -> int:
    # SIGTERM unwinds like an interrupt, so a running child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    benchmark_path = ROOT / "BENCHMARK.json"
    problems = schema.validate_benchmark_file(benchmark_path)
    if problems:
        print("\n".join(f"BENCHMARK.json: {p}" for p in problems), file=sys.stderr)
        return 2
    benchmark = json.loads(benchmark_path.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    args = parse_args(argv, workloads)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no src/repro under {ROOT}; nothing to benchmark", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)

    run = {
        "schema": schema.RECORD_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "protocol": {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "smoke": args.smoke,
            "setup_children": 0 if args.smoke else SETUP_CHILDREN,
            "load": "closed loop, one client, one operation at a time, engine max_workers=1",
        },
        "workloads": {},
    }
    status = 0
    for name in args.workload or workloads:
        try:
            record, child = run_workload(name, args, benchmark)
        except SuiteError as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 2
        run.setdefault("environment", _environment(child))
        run["workloads"][name] = record
        print_workload(name, record, args.seed)
        line = result_line(record, benchmark, bool(args.trace))
        problems = schema.validate_result_line(line, benchmark, bool(args.trace))
        if problems:
            print(f"run.py: {name}: bad result line: {problems}", file=sys.stderr)
            return 2
        print(json.dumps(line), flush=True)
        if not record["correct"]:
            status = 1
    if args.out is not None:
        problems = schema.validate_record(run, benchmark)
        if problems:
            print(f"run.py: bad run record: {problems}", file=sys.stderr)
            return 2
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(run) + "\n")
        print(f"run.py: appended the run record to {args.out}", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
