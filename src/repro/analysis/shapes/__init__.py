"""Array-contract analyzer: symbolic shape/dtype abstract interpretation.

The array tier of :mod:`repro.analysis`: an abstract interpreter over
symbolic array shapes and dtypes seeded from inline
``# repro: shape[...]`` contracts, plus a ctypes↔C signature
cross-checker for the embedded compiled kernels.

Rules:

* ``REPRO-S000`` — malformed or dangling shape contract
* ``REPRO-S001`` — symbolic shape broadcast/contract mismatch
* ``REPRO-S002`` — dtype-flow violation on a contracted array
* ``REPRO-S003`` — ``out=``/view aliasing breaks buffer discipline
* ``REPRO-S004`` — ctypes binding does not match embedded C signature
* ``REPRO-S005`` — static RNG draw-count mismatch
"""

from repro.analysis.shapes.contracts import (
    ModuleContracts,
    Spec,
    collect_contracts,
    parse_spec,
)
from repro.analysis.shapes.rules import (
    ShapesResult,
    ShapesStats,
    analyze_project,
)

__all__ = [
    "ModuleContracts",
    "ShapesResult",
    "ShapesStats",
    "Spec",
    "analyze_project",
    "collect_contracts",
    "parse_spec",
]
