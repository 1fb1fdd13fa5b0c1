"""Experiment job specifications.

A :class:`ScenarioJob` is the unit of work the experiment engine
executes: one seeded scenario run (or campaign cell) described entirely
by plain data — manager kind, workload name, scenario, seed, optional
fault, and a tuple of keyword overrides.  Jobs are

* **hashable** (frozen dataclasses all the way down), so job matrices
  can be deduplicated and used as dict keys;
* **picklable**, so they cross a ``spawn`` process boundary; and
* **digestable**: :meth:`ScenarioJob.digest` is a stable SHA-256 over a
  canonical encoding of the spec, independent of process,
  ``PYTHONHASHSEED``, and dict iteration order.  The digest keys the
  on-disk result cache (:mod:`repro.exec.cache`).

The ``runner`` field names the function that executes the job as a
dotted path (resolved with :mod:`importlib` inside the worker), so
higher layers — e.g. the fault campaign in ``repro.resilience`` — can
route their own job kinds through the engine without this package
importing them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.experiments.scenario import Scenario
from repro.platform.faults import ActuatorFaultModel, FaultModel

__all__ = [
    "DEFAULT_RUNNER",
    "FaultSpec",
    "JOB_SCHEMA",
    "ScenarioJob",
    "canonical_encode",
    "derive_seed",
]

# Bump when the canonical encoding or job semantics change: every digest
# (and therefore every cache key) incorporates it.
JOB_SCHEMA = "exec-job/1"

DEFAULT_RUNNER = "repro.exec.scenario_jobs.execute"


# ----------------------------------------------------------------------
# Canonical encoding (the digest substrate)
# ----------------------------------------------------------------------
def _encode(value: Any) -> Any:
    """Map a job-spec value onto a JSON-stable structure.

    Dataclasses are tagged with their qualified type name; floats carry
    their exact ``repr`` (shortest round-trip, so 1.0 and 1 stay
    distinct and no precision is lost); tuples and lists are tagged so
    they cannot collide.  Anything else is rejected loudly — a job spec
    must be plain data to be cacheable.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, float):
        return {"__float__": repr(value)}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(item) for item in value]}
    if isinstance(value, list):
        return {"__list__": [_encode(item) for item in value]}
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("digest dicts must have string keys")
        return {
            "__dict__": {key: _encode(value[key]) for key in sorted(value)}
        }
    raise TypeError(
        f"cannot canonically encode {type(value).__name__!r} for a job "
        "digest; job specs must be plain data"
    )


def canonical_encode(value: Any) -> str:
    """Deterministic JSON encoding of a job-spec value."""
    return json.dumps(
        _encode(value), sort_keys=True, separators=(",", ":")
    )


def derive_seed(base_seed: int, *parts: Any) -> int:
    """A deterministic per-job seed derived from a base seed and labels.

    Stable across processes and Python hash randomization (SHA-256, not
    ``hash()``), and uniform enough for seeding independent simulation
    runs.  Returns a value in ``[0, 2**31)``.
    """
    payload = canonical_encode([base_seed, list(parts)])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**31)


# ----------------------------------------------------------------------
# Fault specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, by kind: plain data standing in for the
    platform fault models so jobs stay hashable and digest-stable."""

    kind: str
    target: str = "big"
    start_s: float = 1.0
    duration_s: float = 2.0
    magnitude: float = 1.0
    probability: float = 1.0
    delay_s: float = 0.2

    VALID_TARGETS = ("big", "little")

    def __post_init__(self) -> None:
        valid = FaultModel.VALID_KINDS + ActuatorFaultModel.VALID_KINDS
        if self.kind not in valid:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {valid}"
            )
        if self.target not in self.VALID_TARGETS:
            raise ValueError("fault target must be 'big' or 'little'")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def fault_class(self) -> str:
        """``"sensor"`` or ``"actuator"``, by kind."""
        if self.kind in FaultModel.VALID_KINDS:
            return "sensor"
        return "actuator"

    def build(self) -> FaultModel | ActuatorFaultModel:
        """Instantiate the platform fault model this spec describes."""
        if self.fault_class == "sensor":
            return FaultModel(
                kind=self.kind, start_s=self.start_s, end_s=self.end_s
            )
        return ActuatorFaultModel(
            kind=self.kind,
            start_s=self.start_s,
            end_s=self.end_s,
            magnitude=self.magnitude,
            probability=self.probability,
            delay_s=self.delay_s,
        )


# ----------------------------------------------------------------------
# The job
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioJob:
    """One executable experiment cell.

    ``overrides`` is a tuple of ``(key, value)`` pairs — keyword
    parameters the runner interprets (e.g. SPECTR ablation flags, or a
    campaign config).  ``label`` is cosmetic (progress display) and is
    deliberately **excluded** from the digest: relabeling a job must not
    invalidate its cached result.
    """

    manager: str
    workload: str = "x264"
    scenario: Scenario | None = None
    seed: int = 2018
    fault: FaultSpec | None = None
    overrides: tuple[tuple[str, Any], ...] = ()
    runner: str = DEFAULT_RUNNER
    label: str = ""

    def __post_init__(self) -> None:
        if not self.manager:
            raise ValueError("manager must be a non-empty name")
        if "." not in self.runner:
            raise ValueError(
                f"runner {self.runner!r} must be a dotted module path"
            )
        for pair in self.overrides:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ValueError(
                    "overrides must be a tuple of (key, value) pairs"
                )

    def params(self) -> dict[str, Any]:
        """The overrides as a dict (runner-side convenience)."""
        return dict(self.overrides)

    def digest(self, *, salt: str = "") -> str:
        """Stable SHA-256 content address of this job spec.

        ``salt`` folds in cache-level versioning (cache format and
        package version); see :mod:`repro.exec.cache`.  ``label`` is excluded.
        """
        spec = {
            "schema": JOB_SCHEMA,
            "salt": salt,
            "manager": self.manager,
            "workload": self.workload,
            "scenario": self.scenario,
            "seed": self.seed,
            "fault": self.fault,
            "overrides": self.overrides,
            "runner": self.runner,
        }
        payload = canonical_encode(spec)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
