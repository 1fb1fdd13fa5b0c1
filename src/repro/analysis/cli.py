"""Command line for the static-analysis subsystem: one parser, every tier.

``python -m repro.analysis [COMMAND] [options] [paths...]`` runs:

* no command — the classic tier: the repo-specific AST lint on every
  ``*.py`` file and the architecture-layer checker on every walked
  ``repro`` package tree; a named input that holds no ``*.py`` file is
  an error (REPRO-C001), since artifacts are the model tier's;
* ``flow`` — the whole-program flow analyzer (call graph + dataflow
  rules REPRO-F001..F005), see :mod:`repro.analysis.flow`;
* ``models`` — the one artifact checker: payload checks
  (REPRO-A001..A006, A009), model checks with counterexample traces
  (REPRO-M001..M008) and, on policy bundles, the gain-set checks
  (REPRO-G001..G005), over automaton files, model-set directories and
  policy-bundle directories (``bundle.json`` + ``gains.npz``), see
  :mod:`repro.analysis.models`;
* ``shapes`` — the array-contract analyzer (symbolic shape/dtype
  abstract interpretation + ctypes ABI conformance, rules
  REPRO-S000..S005), see :mod:`repro.analysis.shapes`;
* ``all`` — every tier in one run with one exit code: each tier's
  findings, then one summary table.  This is the one invocation
  ``scripts/check.sh`` gates on.

Every tier reads Python through one
:class:`~repro.analysis.project.ProjectScan`: one walk of the inputs,
one parse and one traversal per module, one content-hash cache.  Default paths are
``src`` (``artifacts`` for models) when present, else ``.``; without
paths, ``all`` runs the model tier only when ``artifacts`` is present.
Each tier drops the findings accepted in its committed baseline
(``analysis-baseline.json`` for flow, ``models-baseline.json``,
``shapes-baseline.json``).

Exit code 0 iff no error-severity finding was produced — warnings are
printed but do not fail the run (use ``--strict`` to fail on warnings
too).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.analysis import flow, shapes
from repro.analysis.arch import check_architecture
from repro.analysis.project import (
    DEFAULT_CACHE_DIR,
    Inputs,
    ModuleCache,
    ProjectScan,
    missing_input_findings,
    walk,
)
from repro.analysis.findings import Finding, Report, Severity
from repro.analysis.flow.baseline import Baseline, apply_baseline, write_baseline
from repro.analysis.flow.sarif import (
    report_to_json,
    reports_to_json,
    reports_to_sarif,
)
from repro.analysis.models import scan as models_scan

__all__ = ["analyze_paths", "main"]

COMMANDS = ("all", "flow", "models", "shapes")


@dataclass(frozen=True)
class _Tier:
    tool: str  # report tool name and summary-table row
    report_stem: str | None  # the tier's own files under --report-dir
    baseline: str | None  # committed baseline of accepted findings


_TIERS = {
    "classic": _Tier("repro-analysis", None, None),
    "flow": _Tier("repro-flow", "flow-report", "analysis-baseline.json"),
    "models": _Tier("repro-models", "model-report", "models-baseline.json"),
    "shapes": _Tier("repro-shapes", "shapes-report", "shapes-baseline.json"),
}


# ----------------------------------------------------------------------
# The classic tier
# ----------------------------------------------------------------------
def _package_roots(paths: Sequence[str | Path], inputs: Inputs) -> list[Path]:
    """Directories holding a ``repro`` package: the one each input lies
    in, and every one the walk went through (each counted once)."""
    roots: dict[Path, Path] = {}
    for path in map(Path, paths):
        start = path if path.is_dir() else path.parent
        for candidate in (start, *start.resolve().parents):
            if (candidate / "repro" / "__init__.py").is_file():
                roots.setdefault(candidate.resolve(), candidate)
                break
    for file in inputs.python:
        if file.name == "__init__.py" and file.parent.name == "repro":
            root = file.parent.parent
            roots.setdefault(root.resolve(), root)
    return sorted(roots.values())


def analyze_paths(
    paths: Sequence[str | Path], *, scan: ProjectScan | None = None
) -> Report:
    """Lint and architecture checks over the Python modules under
    ``paths``; artifacts are the model tier's.  ``scan`` shares module
    records with other tiers of the same run."""
    scan = scan or ProjectScan()
    inputs = walk(paths)
    report = Report(findings=missing_input_findings(inputs))

    records = scan.modules(inputs.python)
    for record in records:
        report.extend(record.lint_findings)
    report.files_checked = len(records)

    for root in _package_roots(paths, inputs):
        report.extend(check_architecture(root / "repro", scan=scan))
    return report


# ----------------------------------------------------------------------
# The command line
# ----------------------------------------------------------------------
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis [all|flow|models|shapes]",
        description="SPECTR static analysis. No command: AST lint and "
        "architecture layers. flow: whole-program rules. models: every "
        "artifact check (payload, model and gain rules). shapes: array "
        "contracts. all: every tier, one exit code.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to analyze (default: ./src if present, "
        "./artifacts for models, else .)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the report to this file instead of stdout",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file of accepted findings (default: the tier's "
        "committed baseline; a missing file is an empty baseline)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline and exit 0",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=DEFAULT_CACHE_DIR,
        help="incremental cache directory (default: .analysis-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors",
    )
    parser.add_argument(
        "--report-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="also write analysis-report.sarif (one run per tier) and "
        "each tier's {flow,model,shapes}-report.{json,sarif} into DIR",
    )
    return parser


def _no_module_findings(paths: Sequence[str]) -> list[Finding]:
    """The classic tier checks Python only, so an input that holds no
    module would pass unchecked: most likely an artifact meant for the
    model tier."""
    return [
        Finding(
            path=str(path),
            line=0,
            rule="REPRO-C001",
            severity=Severity.ERROR,
            message="input holds no Python module; check artifacts with "
            "`python -m repro.analysis models`",
        )
        for path in map(Path, paths)
        if path.exists() and not walk([path]).python
    ]


def _default_roots(tier: str) -> list[str]:
    candidate = "artifacts" if tier == "models" else "src"
    return [candidate] if Path(candidate).is_dir() else ["."]


def _run_tier(
    tier: str,
    roots: Sequence[str],
    scan: ProjectScan,
    models_cache: ModuleCache | None,
) -> tuple[Report, dict | None]:
    """One tier's report and stats.  The tier functions are looked up
    on their modules at call time, so a profiler can wrap them."""
    if tier == "classic":
        return analyze_paths(roots, scan=scan), None
    if tier == "flow":
        result = flow.analyze_project(roots, scan=scan)
    elif tier == "shapes":
        result = shapes.analyze_project(roots, scan=scan)
    else:
        result = models_scan.scan_paths(roots, cache=models_cache)
    return result.report, result.stats.as_dict()


def _summary_table(
    results: list[tuple[str, Report, dict | None]],
    merged: Report,
    failing: Severity,
) -> str:
    lines = [
        f"[{_TIERS[tier].tool}] {finding.format()}"
        for tier, report, _ in results
        for finding in report
        if finding.severity >= failing
    ]
    header = f"{'tool':<16} {'files':>5} {'errors':>6} {'warnings':>8} {'notes':>5}"
    lines += [header, "-" * len(header)]
    rows = [(_TIERS[tier].tool, report) for tier, report, _ in results]
    for name, report in [*rows, ("merged", merged)]:
        lines.append(
            f"{name:<16} {report.files_checked:>5} "
            f"{report.count(Severity.ERROR):>6} "
            f"{report.count(Severity.WARNING):>8} "
            f"{report.count(Severity.INFO):>5}"
        )
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # A file literally named like a command can be passed as ./flow.
    command = argv.pop(0) if argv[:1] and argv[0] in COMMANDS else "classic"
    parser = _parser()
    args = parser.parse_args(argv)
    if command == "all":
        if args.baseline is not None or args.write_baseline:
            parser.error("all applies each tier's committed baseline")
        tiers = ["classic", "flow", "models", "shapes"]
        if not args.paths and not Path("artifacts").is_dir():
            tiers.remove("models")
    else:
        tiers = [command]
        if args.write_baseline and not (args.baseline or _TIERS[command].baseline):
            parser.error("--write-baseline needs --baseline for this tier")

    scan = ProjectScan(None if args.no_cache else ModuleCache(args.cache_dir))
    # `all` always re-runs the model checks: REPRO-M007 compares against
    # a re-synthesis by the current synthesis code, which the content
    # key of a unit does not cover.
    models_cache = None
    if not args.no_cache and command == "models":
        models_cache = models_scan.unit_cache(args.cache_dir)
    results: list[tuple[str, Report, dict | None]] = []
    seen: set[Finding] = set()
    for tier in tiers:
        roots = args.paths or _default_roots(tier)
        report, stats = _run_tier(tier, roots, scan, models_cache)
        if command == "classic":
            report.extend(_no_module_findings(args.paths))
        baseline = args.baseline or _TIERS[tier].baseline
        if args.write_baseline:
            count = write_baseline(sorted(report.findings), baseline)
            print(f"wrote {count} baseline entries to {baseline}")
            return 0
        if baseline is not None and Path(baseline).is_file():
            report.findings = apply_baseline(
                sorted(report.findings), Baseline.load(baseline)
            )
        # A defect two tiers both see (a module's syntax error or bad
        # suppression, a missing input) is reported by the first.
        report.findings = [f for f in report.findings if f not in seen]
        seen.update(report.findings)
        results.append((tier, report, stats))

    failing = Severity.WARNING if args.strict else Severity.ERROR
    merged = Report(
        findings=[f for _, report, _ in results for f in report.findings],
        files_checked=len(scan.records)
        + sum(r.files_checked for tier, r, _ in results if tier == "models"),
        artifacts_checked=sum(r.artifacts_checked for _, r, _ in results),
    )
    if len(results) == 1:
        merged = results[0][1]
    named = [(_TIERS[tier].tool, report) for tier, report, _ in results]

    if args.format == "sarif":
        rendered = reports_to_sarif(named)
    elif args.format == "json" and len(results) == 1:
        ((tier, report, stats),) = results
        rendered = report_to_json(report, stats, tool_name=_TIERS[tier].tool)
    elif args.format == "json":
        rendered = reports_to_json(
            [(_TIERS[tier].tool, r, stats) for tier, r, stats in results]
        )
    elif len(results) == 1:
        rendered = merged.format_text() + "\n"
    else:
        rendered = _summary_table(results, merged, failing)
    if args.output is not None:
        args.output.write_text(rendered, encoding="utf-8")
        print(f"wrote {args.output}: {merged.summary()}")
    else:
        print(rendered, end="")

    if args.report_dir is not None:
        args.report_dir.mkdir(parents=True, exist_ok=True)
        merged_path = args.report_dir / "analysis-report.sarif"
        merged_path.write_text(reports_to_sarif(named), encoding="utf-8")
        for tier, report, stats in results:
            stem = _TIERS[tier].report_stem
            if stem is None:
                continue
            tool = _TIERS[tier].tool
            (args.report_dir / f"{stem}.json").write_text(
                report_to_json(report, stats, tool_name=tool), encoding="utf-8"
            )
            (args.report_dir / f"{stem}.sarif").write_text(
                reports_to_sarif([(tool, report)]), encoding="utf-8"
            )
        print(f"wrote {merged_path} (+ per-tier secondary reports)")

    return 1 if any(f.severity >= failing for f in merged.findings) else 0
