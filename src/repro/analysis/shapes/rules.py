"""Project-level view of the array-contract analyzer (REPRO-S rules).

Every S-rule is intra-module: contracts attach inside the file that
declares them, and the ctypes↔C check compares a binding against the C
source embedded in the same file.  So :mod:`repro.analysis.project`
runs the whole pipeline inside its one pass per module and caches the
*findings themselves* in the module's record::

    tree --(contracts.collect_contracts)--> ModuleContracts  (S000)
         --(interp.interpret_module)-----> shape findings    (S001-S003, S005)
         --(csig.check_ctypes_bindings)--> ABI findings      (S004)

A warm scan over an unchanged tree does no parsing, no interpretation
and no C-signature cross-checks at all: :func:`analyze_project` only
re-applies each module's (cheap, always-fresh) suppression filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

# A module import: `project` imports this package's per-module passes.
from repro.analysis import project
from repro.analysis.findings import Finding, Report

__all__ = ["ShapesResult", "ShapesStats", "analyze_project"]


@dataclass
class ShapesStats:
    """Scan statistics (asserted on by the incremental benchmark)."""

    modules_total: int = 0
    rescanned: int = 0
    cache_hits: int = 0
    contracted_modules: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass
class ShapesResult:
    """Report plus the per-module records tests want to poke at."""

    report: Report
    stats: ShapesStats
    records: dict[str, "project.ModuleRecord"] = field(default_factory=dict)


def analyze_project(
    roots: Iterable[str | Path],
    *,
    cache: "project.ModuleCache | None" = None,
    scan: "project.ProjectScan | None" = None,
) -> ShapesResult:
    """Report every REPRO-S violation in the modules under ``roots``.

    ``scan`` shares module records with other tiers of the same run;
    without one, a fresh scan over ``cache`` is used.
    """
    scan = scan or project.ProjectScan(cache)
    records = scan.modules(project.walk(roots).python)
    rescanned = sum(record.path in scan.parsed for record in records)
    stats = ShapesStats(
        modules_total=len(records),
        rescanned=rescanned,
        cache_hits=len(records) - rescanned,
    )
    # Later roots win on module-name collisions (same as sys.path).
    by_module = {record.module: record for record in records}
    kept: list[Finding] = []
    for record in by_module.values():
        stats.contracted_modules += record.contracted
        kept.extend(record.kept([*record.shapes, *record.parse_errors]))
        kept.extend(record.suppression_findings)
    report = Report(findings=kept, files_checked=stats.modules_total)
    return ShapesResult(report=report, stats=stats, records=by_module)
