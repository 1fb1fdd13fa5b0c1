"""Whole-program flow analysis: call graph + dataflow contract rules.

Where :mod:`repro.analysis.lint` checks one file at a time, this
subpackage analyzes the *project*: a per-module symbol table
(:mod:`~repro.analysis.flow.symbols`, extracted from the one parse of
each module by :mod:`repro.analysis.project` and cached by content
hash), an import-resolved call graph with bounded attribute resolution
(:mod:`~repro.analysis.flow.callgraph`), and a small forward dataflow
engine (:mod:`~repro.analysis.flow.dataflow`) feed five cross-module
rules (:mod:`~repro.analysis.flow.rules`):

* **REPRO-F001** — RNG provenance (seeded-Generator determinism),
* **REPRO-F002** — cross-process picklability of spawn-boundary types,
* **REPRO-F003** — interprocedural hot-path numpy-temporary purity,
* **REPRO-F004** — unit-suffix consistency across dataflow edges,
* **REPRO-F005** — frozen-dataclass mutation.

Run it with ``python -m repro.analysis flow [paths...]``; accepted
findings live in ``analysis-baseline.json`` and inline
``# repro: noqa[RULE]`` suppressions (see
:mod:`repro.analysis.suppress`).
"""

from repro.analysis.flow.analyze import FlowResult, FlowStats, analyze_project
from repro.analysis.flow.baseline import (
    Baseline,
    BaselineEntry,
    apply_baseline,
    write_baseline,
)
from repro.analysis.flow.callgraph import CallGraph, ProjectIndex, ResolvedCall
from repro.analysis.flow.dataflow import ForwardAnalysis, unit_of
from repro.analysis.flow.rules import (
    DEFAULT_ENTRY_POINTS,
    DEFAULT_PICKLE_ROOTS,
    run_all_rules,
)
from repro.analysis.flow.sarif import (
    report_to_json,
    reports_to_json,
    reports_to_sarif,
)
from repro.analysis.flow.symbols import (
    ModuleAnalysis,
    extract_module,
    module_name_for_path,
)

__all__ = [
    "Baseline",
    "BaselineEntry",
    "CallGraph",
    "DEFAULT_ENTRY_POINTS",
    "DEFAULT_PICKLE_ROOTS",
    "FlowResult",
    "FlowStats",
    "ForwardAnalysis",
    "ModuleAnalysis",
    "ProjectIndex",
    "ResolvedCall",
    "analyze_project",
    "apply_baseline",
    "extract_module",
    "module_name_for_path",
    "report_to_json",
    "reports_to_json",
    "reports_to_sarif",
    "run_all_rules",
    "unit_of",
    "write_baseline",
]
