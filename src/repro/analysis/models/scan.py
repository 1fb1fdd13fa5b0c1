"""Unit discovery and orchestration for the formal model analyzer.

The analyzer checks *model-check units*:

* a single serialized automaton ``*.json`` (role inferred from the file
  stem: ``plant``, ``specification``/``spec``, ``supervisor``);
* a policy-bundle directory (``bundle.json`` manifest) — the embedded
  supervisor/plant automata are extracted straight from the manifest so
  a bundle with damaged gain arrays can still be model-checked;
* a directory holding two or more role-named automaton files — treated
  as one plant/specification/supervisor *model set* so the cross-model
  rules (M003 controllability, M004 alphabet consistency, M007
  staleness) apply.

Units are discovered by the analysis package's one walker
(:func:`repro.analysis.project.walk`).  Each unit is cached by the
sha256 of its raw content in the shared
:class:`~repro.analysis.project.ModuleCache` (:func:`unit_cache`):
unchanged artifacts replay their stored :class:`UnitRecord` without
re-running reachability.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.analysis.project import (
    DEFAULT_CACHE_DIR,
    ModuleCache,
    missing_input_findings,
    walk,
)
from repro.analysis.findings import Finding, Report, Severity
from repro.analysis.models.rules import (
    check_alphabet_consistency,
    check_bundle_freshness,
    check_model,
    check_pair_controllability,
)
from repro.automata.automaton import Automaton
from repro.automata.serialization import automaton_from_dict
from repro.core.persistence import BUNDLE_MANIFEST

__all__ = [
    "MODEL_ROLES",
    "ModelScanResult",
    "ModelScanStats",
    "UnitRecord",
    "analyze_model_set",
    "infer_role",
    "scan_paths",
    "unit_cache",
]

# File-stem -> canonical role.  ``spec`` is accepted as an alias because
# the paper's figures label the specification automaton ``SP``/"spec".
MODEL_ROLES: dict[str, str] = {
    "plant": "plant",
    "specification": "specification",
    "spec": "specification",
    "supervisor": "supervisor",
}

def infer_role(stem: str) -> str | None:
    """Canonical model role for a file stem, or ``None``."""
    return MODEL_ROLES.get(stem.lower())


@dataclass
class ModelScanStats:
    """Counters the CLI and tests assert on."""

    units_scanned: int = 0
    models_checked: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    resynthesized: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass
class ModelScanResult:
    report: Report
    stats: ModelScanStats = field(default_factory=ModelScanStats)


@dataclass(frozen=True)
class UnitRecord:
    """What one model-check unit reported: all a cache hit replays."""

    findings: tuple[Finding, ...]
    models_checked: int


def unit_cache(root: str | Path = DEFAULT_CACHE_DIR) -> ModuleCache:
    """The model tier's view of the shared analysis cache."""
    return ModuleCache(root, schema="model-unit", expected_type=UnitRecord)


def _finding(path: str, rule: str, message: str) -> Finding:
    return Finding(
        path=path, line=1, rule=rule, severity=Severity.ERROR, message=message
    )


def _load_automaton_file(
    path: Path,
) -> tuple[Automaton | None, list[Finding]]:
    """Decode one serialized automaton, reusing the A-rule vocabulary."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return None, [
            _finding(str(path), "REPRO-A001", f"unreadable JSON: {exc}")
        ]
    try:
        return automaton_from_dict(payload), []
    except Exception as exc:
        return None, [
            _finding(
                str(path),
                "REPRO-A002",
                f"automaton payload fails to decode: {exc}",
            )
        ]


# ----------------------------------------------------------------------
# Model sets
# ----------------------------------------------------------------------
def analyze_model_set(
    models: Mapping[str, Automaton],
    *,
    path: str,
    paths: Mapping[str, str] | None = None,
    resynthesize: bool = True,
) -> list[Finding]:
    """All M-rules over a role -> automaton mapping.

    ``paths`` optionally maps each role to the file its findings should
    anchor at; cross-model findings anchor at ``path``.  Set
    ``resynthesize=False`` to skip the M007 re-synthesis (it dominates
    runtime on large models).
    """
    normalized = {
        MODEL_ROLES.get(role.lower(), role.lower()): automaton
        for role, automaton in models.items()
    }
    anchors = dict(paths or {})
    findings: list[Finding] = []
    for role in sorted(normalized):
        findings.extend(
            check_model(
                normalized[role], anchors.get(role, path), role=role
            )
        )
    findings.extend(check_alphabet_consistency(normalized, path))
    plant = normalized.get("plant")
    supervisor = normalized.get("supervisor")
    if plant is not None and supervisor is not None:
        findings.extend(check_pair_controllability(plant, supervisor, path))
        if resynthesize:
            findings.extend(
                check_bundle_freshness(
                    plant,
                    supervisor,
                    path,
                    specification=normalized.get("specification"),
                )
            )
    return findings


# ----------------------------------------------------------------------
# Unit discovery
# ----------------------------------------------------------------------
def _unit_content(files: Sequence[Path]) -> bytes:
    chunks: list[bytes] = []
    for file in files:
        chunks.append(file.name.encode("utf-8") + b"\x00")
        try:
            chunks.append(file.read_bytes())
        except OSError:
            chunks.append(b"<unreadable>")
        chunks.append(b"\x00")
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Unit analyzers
# ----------------------------------------------------------------------
def _analyze_model_file(
    path: Path, *, resynthesize: bool
) -> tuple[list[Finding], int, bool]:
    automaton, errors = _load_automaton_file(path)
    if automaton is None:
        return errors, 0, False
    role = infer_role(path.stem)
    return check_model(automaton, str(path), role=role), 1, False


def _set_result(
    findings: list[Finding],
    models: dict[str, Automaton],
    *,
    resynthesize: bool,
) -> tuple[list[Finding], int, bool]:
    ran_resynthesis = (
        resynthesize and "plant" in models and "supervisor" in models
    )
    return findings, len(models), ran_resynthesis


def _analyze_set_dir(
    directory: Path, *, resynthesize: bool
) -> tuple[list[Finding], int, bool]:
    findings: list[Finding] = []
    models: dict[str, Automaton] = {}
    anchors: dict[str, str] = {}
    for child in sorted(directory.iterdir()):
        if not (child.is_file() and child.suffix == ".json"):
            continue
        role = infer_role(child.stem)
        if role is None:
            continue
        automaton, errors = _load_automaton_file(child)
        findings.extend(errors)
        if automaton is not None:
            models[role] = automaton
            anchors[role] = str(child)
    findings.extend(
        analyze_model_set(
            models,
            path=str(directory),
            paths=anchors,
            resynthesize=resynthesize,
        )
    )
    return _set_result(findings, models, resynthesize=resynthesize)


def _analyze_bundle_unit(
    directory: Path, *, resynthesize: bool
) -> tuple[list[Finding], int, bool]:
    manifest_path = directory / BUNDLE_MANIFEST
    try:
        manifest: Any = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return (
            [
                _finding(
                    str(manifest_path),
                    "REPRO-A001",
                    f"unreadable manifest: {exc}",
                )
            ],
            0,
            False,
        )
    if not isinstance(manifest, dict) or "supervisor" not in manifest:
        return (
            [
                _finding(
                    str(manifest_path),
                    "REPRO-A009",
                    "bundle manifest has no supervisor payload",
                )
            ],
            0,
            False,
        )
    models: dict[str, Automaton] = {}
    findings: list[Finding] = []
    for role in ("supervisor", "plant"):
        payload = manifest.get(role)
        if payload is None:
            continue
        try:
            models[role] = automaton_from_dict(payload)
        except Exception as exc:
            findings.append(
                _finding(
                    str(manifest_path),
                    "REPRO-A002",
                    f"bundle {role} payload fails to decode: {exc}",
                )
            )
    findings.extend(
        analyze_model_set(
            models, path=str(manifest_path), resynthesize=resynthesize
        )
    )
    return _set_result(findings, models, resynthesize=resynthesize)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _units(paths: Sequence[str | Path]) -> tuple[list, list[Finding]]:
    """(unit name, content files, analyzer) per unit, plus C001s.

    A JSON file named as an input is one model file; a walked directory
    holding two or more role-named JSON files is one model set, one
    holding a single role-named file a model file; a policy bundle is
    one unit.
    """
    inputs = walk(paths)
    groups: dict[Path, list[Path]] = {}
    for file in inputs.json:
        if file in inputs.explicit:
            groups[file] = [file]
        elif infer_role(file.stem) is not None:
            groups.setdefault(file.parent, []).append(file)
    units: list[tuple[str, Sequence[Path], Any]] = []
    for key, members in groups.items():
        if len(members) >= 2:
            units.append((str(key), members, _analyze_set_dir))
        else:
            units.append((str(members[0]), members, _analyze_model_file))
    for directory in inputs.bundles:
        units.append(
            (str(directory), (directory / BUNDLE_MANIFEST,), _analyze_bundle_unit)
        )
    return units, missing_input_findings(inputs)


def scan_paths(
    paths: Sequence[str | Path],
    *,
    cache: ModuleCache | None = None,
    resynthesize: bool = True,
) -> ModelScanResult:
    """Model-check every unit under ``paths`` and aggregate a report."""
    units, missing = _units(paths)
    report = Report(findings=missing)
    stats = ModelScanStats()
    # The resynthesize flag changes what a unit reports, so cached runs
    # with a different flag must not be replayed.
    mode = b"resynth\x00" if resynthesize else b"quick\x00"

    for unit_name, content_files, analyzer in units:
        stats.units_scanned += 1
        content = mode + _unit_content(content_files)
        record = cache.load(unit_name, content) if cache is not None else None
        if record is not None:
            stats.cache_hits += 1
        else:
            findings, models, ran_resynthesis = analyzer(
                Path(unit_name), resynthesize=resynthesize
            )
            stats.resynthesized += ran_resynthesis
            record = UnitRecord(tuple(findings), models)
            if cache is not None:
                stats.cache_misses += 1
                cache.store(unit_name, content, record)
        report.extend(record.findings)
        stats.models_checked += record.models_checked

    report.artifacts_checked = stats.models_checked
    report.files_checked = stats.units_scanned
    return ModelScanResult(report=report, stats=stats)
