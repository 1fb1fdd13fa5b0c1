"""Static analysis for the SPECTR reproduction: pre-deployment gates.

SPECTR's guarantee rests on artifacts that are verified *before* they
reach the 50 ms control loop (Figure 11 steps 4-5).  This package makes
that discipline a repo-wide gate: four analyzer tiers behind one
module pass, one command line and one finding/severity/report core.

* :mod:`repro.analysis.project` — one walk of the inputs, one parse and
  one traversal per module feeding every tier's per-module pass, one
  content-hash cache;
* :mod:`repro.analysis.lint` — repo-specific AST lint (mutable
  defaults, bare excepts, float equality in control math, dtype-less
  numpy allocation in hot paths, missing ``__all__``, unit-suffix
  conventions);
* :mod:`repro.analysis.arch` — enforces the architecture layering of
  DESIGN.md over the import graph;
* :mod:`repro.analysis.flow` — whole-program analysis: project call
  graph + dataflow rules for determinism (RNG provenance), cross-process
  picklability, interprocedural hot-path purity, unit-suffix flow and
  frozen-dataclass mutation;
* :mod:`repro.analysis.models` — the one artifact checker, run without
  the plant: payload checks on serialized automata (REPRO-A rules),
  symbolic reachability with shortest counterexample traces for
  blocking, controllability and closed-loop defects, runtime-monitor
  consistency and stale-bundle detection (REPRO-M rules), and the LQG
  gain-set checks of :mod:`repro.analysis.gain_checks` on policy
  bundles (REPRO-G rules);
* :mod:`repro.analysis.shapes` — array-contract analyzer: symbolic
  shape/dtype abstract interpretation and ctypes ABI conformance
  (REPRO-S000..S005).

``python -m repro.analysis [paths...]`` runs the classic tier (lint
and architecture); ``flow``, ``models`` and ``shapes`` run one other
tier and ``all`` runs every tier (see :mod:`repro.analysis.cli`).
The exit code is nonzero iff any error-severity finding was produced.
"""

from repro.analysis.arch import ALLOWED_IMPORTS, check_architecture
from repro.analysis.cli import analyze_paths, main
from repro.analysis.project import ModuleCache, ProjectScan, walk
from repro.analysis.findings import (
    RULE_REGISTRY,
    Finding,
    Report,
    Severity,
    known_rule_ids,
)
from repro.analysis.gain_checks import check_gains
from repro.analysis.suppress import collect_suppressions, filter_findings

__all__ = [
    "ALLOWED_IMPORTS",
    "Finding",
    "ModuleCache",
    "ProjectScan",
    "RULE_REGISTRY",
    "Report",
    "Severity",
    "analyze_paths",
    "check_architecture",
    "check_gains",
    "collect_suppressions",
    "filter_findings",
    "known_rule_ids",
    "main",
    "walk",
]
