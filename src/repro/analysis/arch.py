"""Architecture-layer checker for the ``repro`` package.

Enforces the layering documented in DESIGN.md over the import graph
(no imports are executed; :mod:`repro.analysis.project` records each
module's ``repro.*`` imports with their lines during its one parse):

====================  ====  =============================================
package               rank  may import
====================  ====  =============================================
``automata``          0     (stdlib/numpy only)
``control``           0     (stdlib/numpy only)
``platform``          1     rank 0; ``workloads`` (peer)
``workloads``         1     rank 0; ``platform`` (peer)
``core``              2     ranks 0-1
``analysis``          2     rank 0; ``core`` (artifact formats)
``analysis.flow``     2     rank 0; ``core``; ``analysis`` (parent)
``managers``          3     ranks 0-2
``experiments``       4     ranks 0-3, ``analysis``; ``exec`` (peer)
``exec``              4     ranks 0-3; ``experiments`` (peer)
``resilience``        5     ranks 0-4 (top layer)
``perf``              5     ranks 0-4 (top-layer peer of resilience)
====================  ====  =============================================

In particular ``platform`` and ``workloads`` must import neither
``managers`` nor ``experiments``, and ``core`` (the formally-verified
supervisory layer) must not depend on anything above it — the supervisor
must stay auditable in isolation, because it is the one component the
paper verifies offline (Figure 11 steps 4-5) and trusts blindly at
runtime.  Modules at the package root (``repro/__init__.py``,
``repro/__main__.py``) are the composition root and may import any layer.

Layer names may be *nested* (``analysis.flow``): a file belongs to the
longest dotted layer-map prefix of its path, and an import targets the
longest mapped prefix of the imported module.  Ancestor/descendant
imports within one package subtree (``analysis`` <-> ``analysis.flow``)
are always permitted — nesting subdivides a layer, it does not create a
new inter-layer boundary.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

from repro.analysis.project import ProjectScan, walk
from repro.analysis.findings import Finding, Severity

__all__ = ["ALLOWED_IMPORTS", "check_architecture", "import_edges"]

# package -> packages it may import (itself is always allowed).
ALLOWED_IMPORTS: dict[str, frozenset[str]] = {
    "automata": frozenset(),
    "control": frozenset(),
    "platform": frozenset({"automata", "control", "workloads"}),
    "workloads": frozenset({"automata", "control", "platform"}),
    "analysis": frozenset({"automata", "control", "core"}),
    # Same rank as its parent: the whole-program analyzer may see the
    # layers `analysis` sees (plus `analysis` itself, implicitly, as its
    # ancestor).  It must NOT import `exec` — the module cache
    # re-implements the sidecar pattern rather than importing it.
    "analysis.flow": frozenset({"automata", "control", "core", "analysis"}),
    # The formal model analyzer may additionally reuse flow's baseline
    # and SARIF plumbing; still no `exec`, and no `resilience` — monitor
    # consistency (REPRO-M006) is expressed via `core.alphabet` event
    # names, not by importing the monitor.
    "analysis.models": frozenset(
        {"automata", "control", "core", "analysis", "analysis.flow"}
    ),
    # The array-contract analyzer reads the per-module records;
    # like every analysis tier it must not import the code it scans
    # (`platform`, `managers`) nor `exec`.
    "analysis.shapes": frozenset(
        {"automata", "control", "core", "analysis", "analysis.flow"}
    ),
    "core": frozenset({"automata", "control", "platform", "workloads"}),
    "managers": frozenset(
        {"automata", "control", "platform", "workloads", "core"}
    ),
    # Rank-4 peers (like platform/workloads): ``exec`` turns experiment
    # cells into parallel cached jobs, so the sweep/ablation drivers in
    # ``experiments`` hand it work while its runners call back into
    # ``experiments`` scenario plumbing.
    "experiments": frozenset(
        {
            "automata",
            "control",
            "platform",
            "workloads",
            "core",
            "managers",
            "analysis",
            "exec",
        }
    ),
    "exec": frozenset(
        {
            "automata",
            "control",
            "platform",
            "workloads",
            "core",
            "managers",
            "experiments",
        }
    ),
    # Top layer: may see everything below; nothing below may import it.
    # Managers/experiments integrate with it through duck-typed
    # attachment points (``manager.resilience``, runner setup hooks).
    "resilience": frozenset(
        {
            "automata",
            "control",
            "platform",
            "workloads",
            "core",
            "managers",
            "experiments",
            "exec",
        }
    ),
    # Top-layer peer of resilience: the opt-in step profiler attaches to
    # any SoC + manager pair via instance-attribute hooks and the
    # runner's setup callbacks, so it may see every layer below it while
    # nothing below may import it (profiling must stay optional).
    "perf": frozenset(
        {
            "automata",
            "control",
            "platform",
            "workloads",
            "core",
            "managers",
            "experiments",
            "exec",
        }
    ),
}


def _longest_mapped_prefix(
    dotted: str, known: frozenset[str]
) -> str:
    """Longest layer-map key that prefixes ``dotted`` (fallback: head)."""
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        candidate = ".".join(parts[:end])
        if candidate in known:
            return candidate
    return parts[0]


def import_edges(
    package_root: Path,
    *,
    known_packages: frozenset[str] | None = None,
    scan: ProjectScan | None = None,
) -> dict[str, list[tuple[str, int, str]]]:
    """Import graph of a ``repro`` package tree.

    Maps each subpackage to ``(file, line, imported_subpackage)`` edges,
    where both sides are resolved to their longest dotted prefix present
    in ``known_packages`` (default: the layer map).  ``package_root`` is
    the directory containing ``repro``'s ``__init__.py``; ``scan``
    shares module records with the other tiers of a run.
    """
    known = (
        frozenset(ALLOWED_IMPORTS) if known_packages is None else known_packages
    )
    scan = scan or ProjectScan()
    graph: dict[str, list[tuple[str, int, str]]] = {}
    for record in scan.modules(walk([package_root]).python):
        relative = Path(record.path).relative_to(package_root)
        if len(relative.parts) == 1:
            continue  # composition root: repro/__init__.py, __main__.py
        package = _longest_mapped_prefix(".".join(relative.parts[:-1]), known)
        for line, module in record.imports:
            imported = _longest_mapped_prefix(module[len("repro.") :], known)
            graph.setdefault(package, []).append((record.path, line, imported))
    return graph


def check_architecture(
    package_root: str | Path,
    *,
    allowed: Mapping[str, Iterable[str]] | None = None,
    scan: ProjectScan | None = None,
) -> list[Finding]:
    """Report every import that violates the layer rules (REPRO-R001).

    Unknown packages (a new top-level subpackage not yet assigned to a
    layer) get a warning (REPRO-R002) so the layer map stays complete.
    """
    package_root = Path(package_root)
    rules = {
        package: frozenset(targets)
        for package, targets in (allowed or ALLOWED_IMPORTS).items()
    }
    findings: list[Finding] = []
    edges_by_package = import_edges(
        package_root, known_packages=frozenset(rules), scan=scan
    )
    for package, edges in edges_by_package.items():
        if package not in rules:
            findings.append(
                Finding(
                    path=str(package_root / package),
                    line=0,
                    rule="REPRO-R002",
                    severity=Severity.WARNING,
                    message=f"package {package!r} is not in the architecture "
                    "layer map; add it to ALLOWED_IMPORTS",
                )
            )
            continue
        permitted = rules[package] | {package}
        for file_path, line, imported in edges:
            # Ancestor/descendant imports inside one subtree subdivide a
            # layer rather than crossing one.
            if imported.startswith(f"{package}.") or package.startswith(
                f"{imported}."
            ):
                continue
            if imported not in permitted:
                findings.append(
                    Finding(
                        path=file_path,
                        line=line,
                        rule="REPRO-R001",
                        severity=Severity.ERROR,
                        message=f"layer violation: {package!r} may not import "
                        f"repro.{imported} (allowed: "
                        f"{', '.join(sorted(permitted - {package})) or 'none'})",
                    )
                )
    return findings
