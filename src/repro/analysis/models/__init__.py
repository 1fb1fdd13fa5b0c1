"""The one artifact checker: A, M and G rules over automata and bundles.

The model tier of :mod:`repro.analysis`. Where the flow analyzer
(F-rules) checks *Python source*, this tier checks the formal artifacts
the repo ships — plants, specifications, synthesized supervisors,
persisted policy bundles.  Its loader checks each payload's shape
before decoding (A-rules, :mod:`~repro.analysis.models.scan`); the
M-rules then model-check the *behaviour* with the bitset reachability
kernel from :mod:`repro.automata.symbolic`, attaching a shortest
counterexample trace to every negative verdict; a bundle's gain sets
get the G-rules of :mod:`repro.analysis.gain_checks`.
"""

from repro.analysis.models.rules import (
    check_alphabet_consistency,
    check_bundle_freshness,
    check_closed_loop,
    check_event_coverage,
    check_model,
    check_monitor_consistency,
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
    "check_closed_loop",
    "check_event_coverage",
    "check_model",
    "check_monitor_consistency",
    "check_reachability",
    "infer_role",
    "scan_paths",
    "unit_cache",
]
