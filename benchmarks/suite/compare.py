#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by
workload.

Usage::

    python benchmarks/suite/compare.py PARENT CHANGE [--claim METRIC@WORKLOAD ...]

``PARENT`` and ``CHANGE`` are JSONL files of run records as written by
``run.py --out``.  ``FILE#NAME`` selects the set ``NAME`` of a baseline
file such as ``results/baseline.json``.

For every end-to-end metric, workload-specific metric and failure share
present on both sides, the table shows each side's median and quartiles
and a verdict:

* ``unresolved`` — the spread of either side is wider than the bound,
  so a difference of that size cannot be told from noise; unless every
  change value beats every parent value (``improved``) or every parent
  value beats every change value (``regression``);
* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``improved`` — better by more than the bound;
* ``unchanged`` — otherwise.

``fail_frac`` (failed / attempted operations) has bound 0: any run of
the change failing a larger share than every parent run is a
regression.

A side with several runs is summarized over its runs' values; a side
with a single run, over that run's per-round samples.

``--claim`` applies the gain rule: at least ten parent/change pairs of
runs (paired in file order), the change winning at least nine tenths of
them with ties counting for neither, and the medians differing by more
than the parent's interquartile range.

Exit status 1 when any row regresses or any claim is not met.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stats import median, quartiles, relative_spread

MIN_CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def load_runs(spec: str) -> list[dict]:
    """Run records from ``FILE`` (JSONL) or ``FILE#SET`` (baseline)."""
    path, _, name = spec.partition("#")
    text = Path(path).read_text(encoding="utf-8")
    if name:
        sets = json.loads(text)["sets"]
        if name not in sets:
            raise SystemExit(f"compare.py: {path} has no set {name!r} (has {sorted(sets)})")
        return sets[name]
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def _rows(runs: list[dict]) -> dict[tuple[str, str], dict]:
    """``(workload, metric) -> {"values", "samples", meta}`` for a side."""
    rows: dict[tuple[str, str], dict] = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            for section in ("metrics", "detail"):
                for metric, summary in result[section].items():
                    row = rows.setdefault(
                        (workload, metric),
                        {
                            "unit": summary["unit"],
                            "better": summary["better"],
                            "bound": summary["bound"],
                            "values": [],
                            "samples": summary["samples"],
                        },
                    )
                    row["values"].append(summary["value"])
            row = rows.setdefault(
                (workload, "fail_frac"),
                {"unit": "share", "better": "lower", "bound": 0.0, "values": [], "samples": []},
            )
            row["values"].append(result["fail_frac"])
            row["samples"] = row["values"]
    return rows


def _distribution(row: dict) -> list[float]:
    return row["values"] if len(row["values"]) > 1 else row["samples"]


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict of one (metric, workload) row; see the module doc."""
    if bound == 0:
        return "regression" if max(change) > max(parent) else "unchanged"
    if max(relative_spread(parent), relative_spread(change)) > bound:
        if all(_beats(x, y, better) for x in change for y in parent):
            return "improved"
        if all(_beats(y, x, better) for x in change for y in parent):
            return "regression"
        return "unresolved"
    p, c = median(parent), median(change)
    scale = abs(p) or 1.0
    worse = (c - p) / scale if better == "lower" else (p - c) / scale
    if worse > bound:
        return "regression"
    if -worse > bound:
        return "improved"
    return "unchanged"


def claim(parent: list[float], change: list[float], better: str) -> tuple[bool, str]:
    """The gain rule over paired run values; returns (met, explanation)."""
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_CLAIM_PAIRS:
        return False, f"{len(pairs)} pairs of runs; the rule needs {MIN_CLAIM_PAIRS}"
    wins = sum(1 for p, c in pairs if _beats(c, p, better))
    q1, q3 = quartiles(parent)
    gap = median(change) - median(parent)
    won = wins >= CLAIM_WIN_SHARE * len(pairs)
    wide = _beats(median(change), median(parent), better) and abs(gap) > q3 - q1
    reason = (
        f"{wins}/{len(pairs)} pairs won, median gap {gap:+.6g} "
        f"vs parent IQR {q3 - q1:.6g}"
    )
    return won and wide, reason


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC@WORKLOAD")
    args = parser.parse_args(argv)
    parent_rows = _rows(load_runs(args.parent))
    change_rows = _rows(load_runs(args.change))

    status = 0
    header = (
        f"{'workload':<14} {'metric':<22} {'unit':<8} {'parent median [q1, q3]':>36} "
        f"{'change median [q1, q3]':>36} {'delta':>8}  verdict"
    )
    print(header)
    print("-" * len(header))
    for key in sorted(parent_rows.keys() & change_rows.keys()):
        before, after = parent_rows[key], change_rows[key]
        a, b = _distribution(before), _distribution(after)
        result = verdict(a, b, before["better"], before["bound"])
        status |= result == "regression"
        p, c = median(a), median(b)
        delta = f"{(c - p) / abs(p) * 100:+.1f}%" if p else "n/a"

        def cell(values: list[float]) -> str:
            q1, q3 = quartiles(values)
            return f"{median(values):.6g} [{q1:.6g}, {q3:.6g}]"

        print(
            f"{key[0]:<14} {key[1]:<22} {before['unit']:<8} {cell(a):>36} "
            f"{cell(b):>36} {delta:>8}  {result}"
        )

    for spec in args.claim:
        metric, _, workload = spec.partition("@")
        key = (workload, metric)
        if key not in parent_rows or key not in change_rows:
            print(f"claim {spec}: not measured on both sides")
            status = 1
            continue
        met, reason = claim(
            parent_rows[key]["values"], change_rows[key]["values"], parent_rows[key]["better"]
        )
        print(f"claim {spec}: {'met' if met else 'NOT met'} ({reason})")
        status |= not met
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
