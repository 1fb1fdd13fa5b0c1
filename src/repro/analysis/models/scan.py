"""Unit discovery, payload checks and orchestration for the model tier.

The model tier is the one analyzer that checks artifacts.  It checks
*model-check units*:

* a single serialized automaton ``*.json`` (role inferred from the file
  stem: ``plant``, ``specification``/``spec``, ``supervisor``): one
  named as an input, one found by walking that has a role-named stem or
  the serialization format's key shape;
* a policy-bundle directory (``bundle.json`` manifest): the embedded
  supervisor/plant automata are extracted straight from the manifest,
  and every gain set in ``gains.npz`` gets the G-rule gain checks of
  :mod:`repro.analysis.gain_checks`;
* a directory holding two or more role-named automaton files — treated
  as one plant/specification/supervisor *model set* so the cross-model
  rules (M003/M008 closed loop, M004 alphabet consistency, M007
  staleness) apply.

Every payload passes the loader's checks before it is decoded (A001
unreadable or malformed, A002 nondeterministic, A003/A004 unknown state
or event, A005 no initial state, A006 no marked state) and must
round-trip after (A009); only a payload that passes is model-checked.

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
from repro.analysis.gain_checks import check_bundle_gains
from repro.analysis.models.rules import (
    check_alphabet_consistency,
    check_bundle_freshness,
    check_closed_loop,
    check_model,
)
from repro.automata.automaton import Automaton
from repro.automata.serialization import automaton_from_dict, automaton_to_dict
from repro.core.persistence import BUNDLE_FORMAT, BUNDLE_GAINS, BUNDLE_MANIFEST

__all__ = [
    "MODEL_ROLES",
    "ModelScanResult",
    "ModelScanStats",
    "UnitRecord",
    "analyze_model_set",
    "infer_role",
    "load_payload",
    "looks_like_automaton_payload",
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

# Keys every serialized automaton carries.
_REQUIRED_KEYS = ("name", "events", "states", "transitions")


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


# ----------------------------------------------------------------------
# The loader: payload checks before decoding
# ----------------------------------------------------------------------
def looks_like_automaton_payload(payload: Any) -> bool:
    """Whether ``payload`` has the serialization format's key shape."""
    return isinstance(payload, dict) and {
        "states",
        "transitions",
        "events",
    } <= payload.keys()


def _payload_findings(payload: Any, path: str) -> list[Finding]:
    """A001-A006 on a raw payload: what would make decoding fail or
    make every model check meaningless."""
    missing = (
        [key for key in _REQUIRED_KEYS if key not in payload]
        if isinstance(payload, dict)
        else list(_REQUIRED_KEYS)
    )
    if missing:
        return [
            _finding(
                path,
                "REPRO-A001",
                f"not an automaton payload: missing required key(s) {missing}",
            )
        ]
    name = payload["name"]
    initial = payload.get("initial")
    try:
        events = {entry["name"] for entry in payload["events"]}
        states = set(payload["states"])
        transitions = [
            (source, event, target)
            for source, event, target in payload["transitions"]
        ]
        hash(tuple(transitions))  # every name a transition uses is hashable
        marked = set(payload.get("marked", ()))
        declared = (
            ("initial", set() if initial is None else {initial}),
            ("marked", marked),
            ("forbidden", set(payload.get("forbidden", ()))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        return [
            _finding(
                path, "REPRO-A001", f"malformed automaton payload: {exc!r}"
            )
        ]

    findings: list[Finding] = []
    targets: dict[tuple[Any, Any], Any] = {}
    unknown_states: set[Any] = set()
    unknown_events: set[Any] = set()
    for source, event, target in transitions:
        previous = targets.setdefault((source, event), target)
        if previous != target:
            findings.append(
                _finding(
                    path,
                    "REPRO-A002",
                    f"nondeterministic transition in {name!r}: {source} on "
                    f"{event!r} goes to both {previous} and {target}",
                )
            )
        unknown_states.update({source, target} - states)
        if event not in events:
            unknown_events.add(event)
    for state in sorted(unknown_states, key=str):
        findings.append(
            _finding(
                path,
                "REPRO-A003",
                f"transition references unknown state {state!r}",
            )
        )
    for event in sorted(unknown_events, key=str):
        findings.append(
            _finding(
                path,
                "REPRO-A004",
                f"transition references unknown event {event!r}",
            )
        )

    if initial is None:
        findings.append(
            _finding(
                path, "REPRO-A005", f"automaton {name!r} has no initial state"
            )
        )
    if not marked:
        findings.append(
            _finding(
                path,
                "REPRO-A006",
                f"automaton {name!r} has no marked state — every reachable "
                "state is blocking by definition",
            )
        )
    for kind, named in declared:
        for state in sorted(named - states, key=str):
            findings.append(
                _finding(
                    path,
                    "REPRO-A003",
                    f"{kind} state {state!r} not in state set",
                )
            )
    return findings


def _canonical(payload: Mapping[str, Any]) -> tuple:
    """Order-insensitive view of an automaton payload."""
    return (
        payload.get("name"),
        frozenset(
            (
                e["name"],
                bool(e.get("controllable", True)),
                bool(e.get("observable", True)),
            )
            for e in payload.get("events", ())
        ),
        frozenset(payload.get("states", ())),
        payload.get("initial"),
        frozenset(payload.get("marked", ())),
        frozenset(payload.get("forbidden", ())),
        frozenset(tuple(t) for t in payload.get("transitions", ())),
    )


def load_payload(
    payload: Any, path: str
) -> tuple[Automaton | None, list[Finding]]:
    """Check a raw automaton payload, then decode it.

    The A001-A006 payload checks run first; a payload that passes is
    decoded and must serialize back to itself (A009).  The automaton is
    returned only when every check passed.
    """
    findings = _payload_findings(payload, path)
    if findings:
        return None, findings
    try:
        automaton = automaton_from_dict(payload)
    except Exception as exc:  # noqa: BLE001 - any load failure is a finding
        return None, [
            _finding(path, "REPRO-A009", f"payload fails to decode: {exc}")
        ]
    if _canonical(automaton_to_dict(automaton)) != _canonical(payload):
        return None, [
            _finding(
                path,
                "REPRO-A009",
                "serialization round-trip mismatch: re-serializing the "
                "loaded automaton does not reproduce the payload",
            )
        ]
    return automaton, []


def _read_json(path: Path) -> tuple[Any, list[Finding]]:
    try:
        return json.loads(path.read_text(encoding="utf-8")), []
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return None, [
            _finding(str(path), "REPRO-A001", f"unreadable JSON: {exc}")
        ]


def _load_automaton_file(
    path: Path,
) -> tuple[Automaton | None, list[Finding]]:
    payload, errors = _read_json(path)
    if errors:
        return None, errors
    return load_payload(payload, str(path))


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
    runtime on large models).  An M004 alphabet error skips it too:
    re-synthesis would only fail on the conflict M004 already reports.
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
        findings.extend(check_closed_loop(plant, supervisor, path))
        if resynthesize and not _alphabet_conflict(findings):
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


def _alphabet_conflict(findings: Sequence[Finding]) -> bool:
    """Whether ``findings`` hold an M004 error (an event whose
    attributes differ between models)."""
    return any(
        f.rule == "REPRO-M004" and f.severity is Severity.ERROR
        for f in findings
    )


def _set_result(
    findings: list[Finding],
    models: dict[str, Automaton],
    *,
    resynthesize: bool,
) -> tuple[list[Finding], int, bool]:
    ran_resynthesis = (
        resynthesize
        and "plant" in models
        and "supervisor" in models
        and not _alphabet_conflict(findings)
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
    anchor = str(manifest_path)
    manifest, errors = _read_json(manifest_path)
    if errors:
        return errors, 0, False
    found = manifest.get("format") if isinstance(manifest, dict) else None
    if found != BUNDLE_FORMAT:
        message = f"unsupported bundle format {found!r}"
        return [_finding(anchor, "REPRO-A001", message)], 0, False
    findings: list[Finding] = []
    if manifest.get("supervisor") is None:
        findings.append(
            _finding(
                anchor, "REPRO-A009", "bundle manifest has no supervisor payload"
            )
        )
    models: dict[str, Automaton] = {}
    for role in ("supervisor", "plant"):
        payload = manifest.get(role)
        if payload is None:
            continue
        automaton, errors = load_payload(payload, f"{anchor}#{role}")
        findings.extend(errors)
        if automaton is not None:
            models[role] = automaton
    findings.extend(
        analyze_model_set(models, path=anchor, resynthesize=resynthesize)
    )
    findings.extend(check_bundle_gains(directory, manifest))
    return _set_result(findings, models, resynthesize=resynthesize)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _units(paths: Sequence[str | Path]) -> tuple[list, list[Finding]]:
    """(unit name, content files, analyzer) per unit, plus C001s.

    A JSON file named as an input is one model file; a walked directory
    holding two or more role-named JSON files is one model set, one
    holding a single role-named file a model file; any other walked
    JSON file is a model file when it has the automaton key shape, so
    unrelated data files pass through; a policy bundle is one unit.
    """
    inputs = walk(paths)
    groups: dict[Path, list[Path]] = {}
    for file in inputs.json:
        if file in inputs.explicit:
            groups[file] = [file]
        elif infer_role(file.stem) is not None:
            groups.setdefault(file.parent, []).append(file)
        elif looks_like_automaton_payload(_read_json(file)[0]):
            groups[file] = [file]
    units: list[tuple[str, Sequence[Path], Any]] = []
    for key, members in groups.items():
        if len(members) >= 2:
            units.append((str(key), members, _analyze_set_dir))
        else:
            units.append((str(members[0]), members, _analyze_model_file))
    for directory in inputs.bundles:
        content = (directory / BUNDLE_MANIFEST, directory / BUNDLE_GAINS)
        units.append((str(directory), content, _analyze_bundle_unit))
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
