"""Parallel, cached experiment execution.

The evaluation matrices (TDP sweeps, ablations, fault campaigns) are
embarrassingly parallel: every cell is one seeded, side-effect-free
scenario run.  This package turns each cell into a plain-data
:class:`ScenarioJob`, executes job lists through a ``spawn``-safe
process pool (:class:`ExperimentEngine`), and memoizes both the
expensive design-flow artifacts and completed traces in a
content-addressed on-disk cache (:class:`ResultCache`) — with the hard
guarantee that serial, parallel, and warm-cache runs produce
bit-identical results.

Long campaigns are supervised (:mod:`repro.exec.supervision`): an
append-only :class:`RunJournal` makes any run resumable after a crash
or interruption, a watchdog enforces per-job wall-clock deadlines, a
deterministic digest-derived backoff schedule governs retries, poison
jobs are quarantined, and a circuit breaker degrades to serial
execution under repeated pool breakage.  A seeded chaos harness
(:mod:`repro.exec.chaos`, ``python -m repro.exec chaos``) drills the
whole stack: injected worker kills, hangs, and cache corruption must
still converge to results byte-identical to an unfaulted run.

``python -m repro.exec`` is the command-line front door.
"""

from repro.exec.cache import (
    CACHE_FORMAT,
    EVICTION_REASONS,
    ResultCache,
    default_salt,
)
from repro.exec.chaos import ChaosConfig, ChaosReport, chaos_jobs, run_chaos
from repro.exec.engine import (
    EngineError,
    ExperimentEngine,
    JobRecord,
    current_attempt,
)
from repro.exec.fleet_jobs import (
    FLEET_RUNNER,
    FleetScenarioJob,
    execute_fleet,
    fleet_seeds,
)
from repro.exec.job import (
    DEFAULT_RUNNER,
    JOB_SCHEMA,
    FaultSpec,
    ScenarioJob,
    canonical_encode,
    derive_seed,
)
from repro.exec.supervision import (
    FAILURE_KINDS,
    JOURNAL_SCHEMA,
    CircuitBreaker,
    JobFailure,
    JournalEntry,
    RunInterrupted,
    RunJournal,
    SupervisionPolicy,
)

__all__ = [
    "CACHE_FORMAT",
    "ChaosConfig",
    "ChaosReport",
    "CircuitBreaker",
    "DEFAULT_RUNNER",
    "EVICTION_REASONS",
    "EngineError",
    "ExperimentEngine",
    "FAILURE_KINDS",
    "FLEET_RUNNER",
    "FaultSpec",
    "FleetScenarioJob",
    "JOB_SCHEMA",
    "JOURNAL_SCHEMA",
    "JobFailure",
    "JobRecord",
    "JournalEntry",
    "ResultCache",
    "RunInterrupted",
    "RunJournal",
    "ScenarioJob",
    "SupervisionPolicy",
    "canonical_encode",
    "chaos_jobs",
    "current_attempt",
    "default_salt",
    "derive_seed",
    "execute_fleet",
    "fleet_seeds",
    "run_chaos",
]
