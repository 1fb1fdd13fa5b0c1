"""Formal model analyzer: REPRO-M rules over automata and bundles.

The model tier of :mod:`repro.analysis`. Where the artifact verifier
(A-rules) checks *payload shape* and the flow analyzer (F-rules) checks
*Python source*, this tier model-checks the *behaviour* of the formal
artifacts the repo ships — plants, specifications, synthesized
supervisors, persisted policy bundles — with the bitset reachability
kernel from :mod:`repro.automata.symbolic`, attaching a shortest
counterexample trace to every negative verdict.
"""

from repro.analysis.models.rules import (
    check_alphabet_consistency,
    check_bundle_freshness,
    check_event_coverage,
    check_model,
    check_monitor_consistency,
    check_pair_controllability,
    check_reachability,
)
from repro.analysis.models.scan import (
    MODEL_ROLES,
    ModelScanResult,
    ModelScanStats,
    UnitRecord,
    analyze_model_set,
    infer_role,
    scan_paths,
    unit_cache,
)

__all__ = [
    "MODEL_ROLES",
    "ModelScanResult",
    "ModelScanStats",
    "UnitRecord",
    "analyze_model_set",
    "check_alphabet_consistency",
    "check_bundle_freshness",
    "check_event_coverage",
    "check_model",
    "check_monitor_consistency",
    "check_pair_controllability",
    "check_reachability",
    "infer_role",
    "scan_paths",
    "unit_cache",
]
