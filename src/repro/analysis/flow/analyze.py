"""Project-level orchestration for the flow analyzer.

``analyze_project`` is the one entry point the CLI, tests, and the
benchmark share.  It runs the two-phase pipeline:

1. **extraction** (cached) — every ``.py`` file under the given roots
   contributes its :class:`~repro.analysis.flow.symbols.ModuleAnalysis`
   from its per-module record
   (:class:`~repro.analysis.project.ProjectScan`), with unchanged
   modules served from the content-hash cache;
2. **global rules** (always run, cheap) — the per-module facts are
   merged into a :class:`ProjectIndex`, the call graph is resolved, and
   the five REPRO-F rules plus suppression filtering produce the final
   :class:`~repro.analysis.findings.Report`.

The split is what makes incremental caching sound: cross-module rules
can never be stale because they always re-run; only the per-module
parse/extract work — the expensive part — is memoized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

# A module import: `project` imports this package's symbol extraction.
from repro.analysis import project
from repro.analysis.findings import Report
from repro.analysis.flow.callgraph import CallGraph, ProjectIndex
from repro.analysis.flow.rules import (
    DEFAULT_ENTRY_POINTS,
    DEFAULT_PICKLE_ROOTS,
    DEFAULT_WORKER_MODULE_PATTERNS,
    RNG_EXEMPT_PATH_FRAGMENTS,
    run_all_rules,
)
from repro.analysis.flow.symbols import ModuleAnalysis

__all__ = ["FlowResult", "FlowStats", "analyze_project"]


@dataclass
class FlowStats:
    """Scan statistics (asserted on by the incremental benchmark)."""

    modules_total: int = 0
    reanalyzed: int = 0
    cache_hits: int = 0
    functions: int = 0
    classes: int = 0
    call_edges: int = 0
    unresolved_calls: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass
class FlowResult:
    """Report plus the intermediates tests want to poke at."""

    report: Report
    stats: FlowStats
    index: ProjectIndex
    graph: CallGraph
    modules: dict[str, ModuleAnalysis] = field(default_factory=dict)


def analyze_project(
    roots: Iterable[str | Path],
    *,
    cache: "project.ModuleCache | None" = None,
    scan: "project.ProjectScan | None" = None,
    entry_points: Iterable[str] = DEFAULT_ENTRY_POINTS,
    pickle_roots: Iterable[str] = DEFAULT_PICKLE_ROOTS,
    worker_patterns: Iterable[str] = DEFAULT_WORKER_MODULE_PATTERNS,
    rng_exempt_fragments: Iterable[str] = RNG_EXEMPT_PATH_FRAGMENTS,
) -> FlowResult:
    """Run the whole-program analysis over the given roots.

    ``scan`` shares module records with other tiers of the same run;
    without one, a fresh scan over ``cache`` is used.
    """
    scan = scan or project.ProjectScan(cache)
    records = scan.modules(project.walk(roots).python)
    reanalyzed = sum(record.path in scan.parsed for record in records)
    stats = FlowStats(
        modules_total=len(records),
        reanalyzed=reanalyzed,
        cache_hits=len(records) - reanalyzed,
    )
    # Later roots win on module-name collisions (same as sys.path).
    by_module = {record.module: record for record in records}
    modules = {name: record.flow for name, record in by_module.items()}

    index = ProjectIndex(modules)
    graph = CallGraph.build(index)
    stats.functions = len(index.functions)
    stats.classes = len(index.classes)
    stats.call_edges = sum(len(targets) for targets in graph.edges.values())
    stats.unresolved_calls = len(graph.unresolved)

    findings = run_all_rules(
        index,
        graph,
        entry_points=entry_points,
        pickle_roots=pickle_roots,
        worker_patterns=worker_patterns,
        rng_exempt_fragments=rng_exempt_fragments,
    )
    # Inline suppressions: each finding is filtered by its module's map.
    by_path = {record.path: record for record in by_module.values()}
    kept = []
    for finding in findings:
        record = by_path.get(finding.path)
        kept.extend(record.kept([finding]) if record else [finding])
    for record in by_module.values():
        kept.extend(record.kept(record.parse_errors))
        kept.extend(record.suppression_findings)

    report = Report(findings=kept, files_checked=stats.modules_total)
    return FlowResult(
        report=report, stats=stats, index=index, graph=graph, modules=modules
    )
