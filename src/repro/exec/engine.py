"""The experiment-execution engine.

Runs :class:`~repro.exec.job.ScenarioJob` matrices through a
``spawn``-safe process pool with content-addressed result caching,
supervised retry on worker crashes, per-job wall-clock deadlines, and a
graceful serial fallback.  The engine is the only module in the package
allowed to touch ``concurrent.futures``/``multiprocessing`` (lint rule
``REPRO-L008``): everything above it — sweeps, ablations, the fault
campaign, the chaos harness, the CLI — expresses work as job specs and
lets the engine decide where they run.

Determinism contract
--------------------
A job's result is a pure function of its spec: runners derive all
randomness from ``job.seed``, workers share no state with the parent
(``spawn``), the identified models each process loads are committed,
and each process derives and verifies the same supervisor
(:func:`repro.experiments.figures.case_study_supervisor`).  Consequently
serial runs, parallel runs at any worker count, reruns, warm-cache
runs, and interrupted-then-resumed runs all produce identical
results — the property the golden-trace, equivalence, and chaos suites
under ``tests/exec/`` pin down.  Retry backoff delays are likewise a pure function of the job
digest (:meth:`~repro.exec.supervision.SupervisionPolicy.backoff_s`),
never of wall-clock randomness.

Failure handling (see :mod:`repro.exec.supervision`)
----------------------------------------------------
Runner exceptions are captured *inside* the worker and returned as
structured failure records (never raised through the pool, whose
exception transport needs picklable exceptions); they carry failure
kind ``exception`` and are never retried — a deterministic job that
raised once will raise again.  A crashed worker (hard exit, OOM kill)
breaks the whole pool; every job in flight at the breakage is charged
one *kill* (attribution is conservative — the pool cannot say which
worker died under which job), the pool is rebuilt, and killed jobs are
re-dispatched after a digest-derived backoff until their kill budget
(``max_crash_retries``) is exhausted, at which point they are
**quarantined** as ``poison``.  Jobs overrunning ``policy.deadline_s``
are killed by the watchdog (kind ``timeout``); innocent jobs in flight
during a watchdog teardown are requeued without a kill charge.  After
``policy.max_pool_rebuilds`` *unexpected* breakages the circuit breaker
opens and never-implicated jobs degrade to serial in-process execution
instead of aborting the campaign.

With a :class:`~repro.exec.supervision.RunJournal` attached, every
terminal outcome is durably appended as the run progresses, so an
interrupted campaign resumes exactly: ``done`` digests are skipped
(their values come from the cache), ``quarantined`` digests stay
quarantined, and everything else re-runs.
"""

from __future__ import annotations

import importlib
import os
import pickle
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.exec.cache import ResultCache
from repro.exec.job import ScenarioJob
from repro.exec.supervision import (
    CircuitBreaker,
    JobFailure,
    RunInterrupted,
    RunJournal,
    SupervisionPolicy,
)

__all__ = [
    "EngineError",
    "ExperimentEngine",
    "JobRecord",
    "current_attempt",
]


class EngineError(RuntimeError):
    """Raised when jobs fail and the caller asked for results."""


@dataclass
class JobRecord:
    """Structured outcome of one job: timing, provenance, failure."""

    job: ScenarioJob
    digest: str
    result: Any = None
    error: str | None = None
    failure: JobFailure | None = None
    attempts: int = 0
    kills: int = 0
    duration_s: float = 0.0
    cache_hit: bool = False
    mode: str = "serial"  # "serial" | "process" | "cache" | "journal"

    @property
    def ok(self) -> bool:
        return self.error is None

    def fail(self, kind: str, message: str) -> None:
        """Attach a structured failure (and its legacy message)."""
        self.failure = JobFailure(
            kind=kind,
            message=message,
            attempts=max(self.attempts, 1),
            kills=self.kills,
        )
        self.error = message


# ----------------------------------------------------------------------
# Worker side (module-level: must be importable from a spawned child)
# ----------------------------------------------------------------------
# Dispatch attempt of the job currently executing in this process (1 on
# the first dispatch).  Runners that vary behavior per attempt — the
# chaos injector — read it via :func:`current_attempt`.
_CURRENT_ATTEMPT = 1


def current_attempt() -> int:
    """Dispatch attempt (>= 1) of the job running in this process."""
    return _CURRENT_ATTEMPT


def _resolve_runner(dotted: str):
    module_name, _, func_name = dotted.rpartition(".")
    module = importlib.import_module(module_name)
    runner = getattr(module, func_name, None)
    if not callable(runner):
        raise TypeError(f"job runner {dotted!r} is not callable")
    return runner


def _worker_execute(job: ScenarioJob, attempt: int = 1) -> tuple[str, Any, float]:
    """Execute one job, capturing failures as data.

    Returns ``("ok", result, duration_s)`` or
    ``("error", message, duration_s)``.
    """
    global _CURRENT_ATTEMPT
    _CURRENT_ATTEMPT = attempt
    start = time.perf_counter()
    try:
        runner = _resolve_runner(job.runner)
        result = runner(job)
    except Exception as exc:
        message = (
            f"{type(exc).__name__}: {exc}\n"
            + traceback.format_exc(limit=8)
        )
        return "error", message, time.perf_counter() - start
    return "ok", result, time.perf_counter() - start


def _pool_warmup() -> int:
    """No-op task used to block until a worker has finished booting, so
    job deadlines measure job time, not interpreter spawn time."""
    return os.getpid()


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
@dataclass
class _JobState:
    """Per-run supervision bookkeeping for one pending job."""

    attempts: int = 0
    kills: int = 0
    causes: tuple[str, ...] = ()


@dataclass
class ExperimentEngine:
    """Run job matrices serially or across a spawn process pool.

    ``max_workers=1`` (the default) executes in-process with identical
    results; jobs that fail to pickle also fall back to in-process
    execution instead of erroring.  With a ``cache`` attached, results
    are content-addressed on disk.  With a ``journal`` attached, the
    run is resumable (see :mod:`repro.exec.supervision`); ``policy``
    configures deadlines, backoff, and the circuit breaker.

    ``max_crash_retries`` is the per-job *kill budget*: how many times a
    job may be re-dispatched after killing (crashing or, with
    ``policy.retry_timeouts``, timing out) its worker before it is
    quarantined as poison.

    ``progress`` is invoked with each freshly-executed
    :class:`JobRecord` as it reaches a terminal state (not for cache or
    journal hits); raising :class:`RunInterrupted` from it stops the
    run after journaling, which is how the chaos harness interrupts a
    campaign mid-flight.
    """

    max_workers: int = 1
    cache: ResultCache | None = None
    max_crash_retries: int = 2
    journal: RunJournal | None = None
    policy: SupervisionPolicy = field(default_factory=SupervisionPolicy)
    progress: Callable[[JobRecord], None] | None = None
    last_records: list[JobRecord] = field(default_factory=list, repr=False)
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker, repr=False)

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.max_crash_retries < 0:
            raise ValueError("max_crash_retries must be >= 0")

    # -- public API ----------------------------------------------------
    def run(self, jobs: Sequence[ScenarioJob]) -> list[JobRecord]:
        """Execute all jobs; returns one record per job, input order."""
        jobs = list(jobs)
        salt = self.cache.salt if self.cache is not None else ""
        records = [
            JobRecord(job=job, digest=job.digest(salt=salt))
            for job in jobs
        ]
        # Published up front (and mutated in place) so an interrupted
        # run still exposes the partial records it produced.
        self.last_records = records
        self.breaker = CircuitBreaker(
            max_pool_rebuilds=self.policy.max_pool_rebuilds
        )
        journaled = self.journal.load() if self.journal is not None else {}

        pending: list[int] = []
        for index, record in enumerate(records):
            entry = journaled.get(record.digest)
            if entry is not None and entry.status == "quarantined":
                # Sticky across resumes: a poison job is not re-run.
                record.attempts = entry.attempts
                record.kills = entry.kills
                record.mode = "journal"
                record.fail(
                    entry.kind or "poison",
                    f"quarantined by journal after {entry.attempts} "
                    f"attempts ({entry.kills} worker kills); not re-run",
                )
                continue
            if self.cache is not None:
                hit, value = self.cache.get(record.digest)
                if hit:
                    record.result = value
                    record.cache_hit = True
                    record.mode = "cache"
                    if self.journal is not None and (
                        entry is None or entry.status != "done"
                    ):
                        self.journal.record(
                            record.digest,
                            "done",
                            attempts=record.attempts,
                            duration_s=0.0,
                            label=record.job.label,
                        )
                    continue
            # A journal "done" whose cached value has been evicted (or
            # with no cache attached) cannot be restored: re-run it.
            pending.append(index)

        if pending:
            parallel, serial = self._partition(records, pending)
            if parallel:
                self._run_pool(records, parallel)
            for index in serial:
                self._run_serial(records[index])

        self.last_records = records
        return records

    def results(self, jobs: Sequence[ScenarioJob]) -> list[Any]:
        """Run and return results, raising :class:`EngineError` on any
        failure (first failures quoted)."""
        records = self.run(jobs)
        failures = [r for r in records if not r.ok]
        if failures:
            quoted = "\n---\n".join(
                f"{r.job.label or r.job.manager}: {r.error}"
                for r in failures[:3]
            )
            raise EngineError(
                f"{len(failures)}/{len(records)} jobs failed:\n{quoted}"
            )
        return [r.result for r in records]

    def describe_last(self) -> str:
        """One-line summary of the previous :meth:`run`."""
        records = self.last_records
        hits = sum(1 for r in records if r.cache_hit)
        failed = sum(1 for r in records if not r.ok)
        quarantined = sum(
            1
            for r in records
            if r.failure is not None and r.failure.kind == "poison"
        )
        busy_s = sum(r.duration_s for r in records)
        summary = (
            f"{len(records)} jobs — {hits} cache hits, {failed} failed, "
            f"{busy_s:.2f} s job time, {self.max_workers} workers"
        )
        if quarantined:
            summary += f", {quarantined} quarantined"
        if self.breaker.is_open:
            summary += ", circuit breaker open (degraded to serial)"
        return summary

    # -- per-job completion --------------------------------------------
    def _finalize(self, record: JobRecord, *, status: str | None = None) -> None:
        """Cache, journal, and report one freshly-executed record.

        Runs as each job completes (not at end of run) so a campaign
        killed at any instant has durably recorded everything finished
        before the kill.  ``status`` overrides the journal status for
        failures (e.g. ``"quarantined"``).
        """
        if record.ok and self.cache is not None and not record.cache_hit:
            self.cache.put(record.digest, record.result)
        if self.journal is not None:
            journal_status = status or ("done" if record.ok else "failed")
            self.journal.record(
                record.digest,
                journal_status,
                kind=record.failure.kind if record.failure else None,
                attempts=record.attempts,
                kills=record.kills,
                duration_s=record.duration_s,
                label=record.job.label,
            )
        if self.progress is not None:
            self.progress(record)

    def _journal_cancelled(self, record: JobRecord) -> None:
        """Durably mark an in-flight job cancelled by an interrupt."""
        record.mode = "process" if self.max_workers > 1 else record.mode
        record.fail("cancelled", "run interrupted while job was in flight")
        if self.journal is not None:
            self.journal.record(
                record.digest,
                "cancelled",
                kind="cancelled",
                attempts=record.attempts,
                kills=record.kills,
                label=record.job.label,
            )

    # -- execution paths -----------------------------------------------
    def _partition(
        self, records: list[JobRecord], pending: list[int]
    ) -> tuple[list[int], list[int]]:
        """Split pending work into pool-eligible and serial-only jobs."""
        if self.max_workers == 1:
            return [], pending
        parallel: list[int] = []
        serial: list[int] = []
        for index in pending:
            try:
                pickle.dumps(records[index].job)
            except Exception:
                serial.append(index)  # graceful fallback, not an error
            else:
                parallel.append(index)
        return parallel, serial

    def _run_serial(self, record: JobRecord) -> None:
        record.attempts += 1
        record.mode = "serial"
        try:
            status, value, duration_s = _worker_execute(
                record.job, record.attempts
            )
        except (KeyboardInterrupt, RunInterrupted):
            self._journal_cancelled(record)
            raise
        record.duration_s = duration_s
        if status == "ok":
            record.result = value
        else:
            record.fail("exception", value)
        self._finalize(record)

    # -- supervised pool execution -------------------------------------
    def _run_pool(self, records: list[JobRecord], indices: list[int]) -> None:
        self._absolutize_pythonpath()
        states = {index: _JobState() for index in indices}
        queue: deque[int] = deque(indices)

        while queue:
            if self.breaker.is_open:
                self._degrade_serial(records, states, queue)
                return
            outcome, retry_delay_s = self._pool_lifetime(
                records, states, queue
            )
            if outcome == "broken":
                self.breaker.record_breakage()
            if queue and retry_delay_s > 0.0:
                # One deterministic backoff per rebuild: the largest
                # schedule entry among the jobs being re-dispatched.
                self.policy.sleep(retry_delay_s)

    def _pool_lifetime(
        self,
        records: list[JobRecord],
        states: dict[int, _JobState],
        queue: deque[int],
    ) -> tuple[str, float]:
        """Run jobs until the queue drains or the pool dies.

        Returns ``(outcome, retry_delay_s)`` with outcome one of
        ``"drained"`` (all work finished), ``"broken"`` (unexpected
        pool breakage — counts toward the circuit breaker), or
        ``"watchdog"`` (deliberate teardown to kill an overrunning
        worker — does not count).
        """
        policy = self.policy
        in_flight: dict[Future, tuple[int, float]] = {}
        retry_delay_s = 0.0

        with ProcessPoolExecutor(
            max_workers=min(self.max_workers, max(len(queue), 1)),
            mp_context=get_context("spawn"),
        ) as pool:
            try:
                if policy.deadline_s is not None:
                    if not self._warm_pool(pool):
                        return "broken", retry_delay_s
                while queue or in_flight:
                    # Keep at most max_workers jobs in flight so each
                    # dispatched job starts immediately — the deadline
                    # clock and kill attribution both rely on "in
                    # flight" meaning "actually executing".
                    while queue and len(in_flight) < self.max_workers:
                        index = queue.popleft()
                        state = states[index]
                        state.attempts += 1
                        records[index].attempts = state.attempts
                        try:
                            future = pool.submit(
                                _worker_execute,
                                records[index].job,
                                state.attempts,
                            )
                        except BrokenProcessPool:
                            # A worker died between waits and the pool
                            # noticed at submit.  This job never ran:
                            # give the dispatch back (no kill charge)
                            # and let the in-flight jobs take the blame.
                            state.attempts -= 1
                            records[index].attempts = state.attempts
                            queue.appendleft(index)
                            for broken_future in list(in_flight):
                                bindex, _t0 = in_flight.pop(broken_future)
                                retry_delay_s = max(
                                    retry_delay_s,
                                    self._attribute_kill(
                                        records[bindex], states[bindex],
                                        bindex, "crash", queue,
                                    ),
                                )
                            return "broken", retry_delay_s
                        in_flight[future] = (index, time.monotonic())

                    timeout_s = policy.poll_interval_s
                    if policy.deadline_s is not None and in_flight:
                        now = time.monotonic()
                        soonest_s = min(
                            t0 + policy.deadline_s - now
                            for _, t0 in in_flight.values()
                        )
                        timeout_s = min(timeout_s, max(soonest_s, 0.0))
                    done, _ = futures_wait(
                        list(in_flight),
                        timeout=timeout_s,
                        return_when=FIRST_COMPLETED,
                    )

                    broken = False
                    for future in done:
                        index, _t0 = in_flight.pop(future)
                        record = records[index]
                        try:
                            status, value, duration_s = future.result(
                                timeout=0
                            )
                        except BrokenProcessPool:
                            broken = True
                            retry_delay_s = max(
                                retry_delay_s,
                                self._attribute_kill(
                                    record, states[index], index,
                                    "crash", queue,
                                ),
                            )
                            continue
                        except Exception as exc:
                            # e.g. the runner's return value failed to
                            # pickle on the way back — a job defect,
                            # not a crash: no retry.
                            record.mode = "process"
                            record.fail(
                                "exception",
                                f"{type(exc).__name__}: {exc}",
                            )
                            self._finalize(record)
                            continue
                        record.mode = "process"
                        record.duration_s = duration_s
                        if status == "ok":
                            record.result = value
                        else:
                            record.fail("exception", value)
                        self._finalize(record)

                    if broken:
                        # The pool is dead: every other in-flight job
                        # was executing on it and is equally suspect.
                        for future, (index, _t0) in in_flight.items():
                            retry_delay_s = max(
                                retry_delay_s,
                                self._attribute_kill(
                                    records[index], states[index], index,
                                    "crash", queue,
                                ),
                            )
                        in_flight.clear()
                        return "broken", retry_delay_s

                    if policy.deadline_s is not None and in_flight:
                        overrun = self._watchdog_sweep(
                            records, states, queue, in_flight
                        )
                        if overrun is not None:
                            # Kill the workers before leaving the
                            # ``with`` block, or shutdown would wait on
                            # the hung worker we are killing *for*.
                            self._kill_pool(pool)
                            return (
                                "watchdog",
                                max(retry_delay_s, overrun),
                            )
                return "drained", 0.0
            except (KeyboardInterrupt, RunInterrupted):
                for future, (index, _t0) in in_flight.items():
                    self._journal_cancelled(records[index])
                self._kill_pool(pool)
                raise

    def _watchdog_sweep(
        self,
        records: list[JobRecord],
        states: dict[int, _JobState],
        queue: deque[int],
        in_flight: dict[Future, tuple[int, float]],
    ) -> float | None:
        """Kill the pool if any in-flight job overran its deadline.

        Returns ``None`` when nothing overran (pool keeps running);
        otherwise tears the pool down, charges a ``timeout`` kill to
        each overrunning job, requeues the innocent in-flight jobs at
        the front (no kill charge), and returns the retry backoff.
        """
        deadline_s = self.policy.deadline_s
        assert deadline_s is not None
        now = time.monotonic()
        overrunning = [
            future
            for future, (_index, t0) in in_flight.items()
            if now - t0 > deadline_s
        ]
        if not overrunning:
            return None
        retry_delay_s = 0.0
        for future in overrunning:
            index, _t0 = in_flight.pop(future)
            retry_delay_s = max(
                retry_delay_s,
                self._attribute_kill(
                    records[index], states[index], index, "timeout", queue
                ),
            )
        # Innocent victims of the teardown: requeue first, no charge.
        for future, (index, _t0) in sorted(
            in_flight.items(), key=lambda item: item[1][0], reverse=True
        ):
            queue.appendleft(index)
        in_flight.clear()
        return retry_delay_s

    def _attribute_kill(
        self,
        record: JobRecord,
        state: _JobState,
        index: int,
        cause: str,
        queue: deque[int],
    ) -> float:
        """Charge one worker kill to a job; requeue or go terminal.

        Returns the deterministic backoff to apply before the job's
        next dispatch (0.0 when the job went terminal).
        """
        state.kills += 1
        state.causes = state.causes + (cause,)
        record.attempts = state.attempts
        record.kills = state.kills
        record.mode = "process"
        retryable = cause == "crash" or (
            cause == "timeout" and self.policy.retry_timeouts
        )
        if retryable and state.kills <= self.max_crash_retries:
            queue.append(index)
            return self.policy.backoff_s(record.digest, state.kills)
        if cause == "timeout" and not self.policy.retry_timeouts:
            record.fail(
                "timeout",
                f"deadline exceeded ({self.policy.deadline_s:.6g} s); "
                "worker killed by watchdog",
            )
            self._finalize(record)
            return 0.0
        # Kill budget exhausted: quarantine as poison.
        if all(kind == "crash" for kind in state.causes):
            message = (
                f"worker crashed on every attempt ({state.attempts} "
                "tries); quarantined as poison"
            )
        else:
            summary = ", ".join(
                f"{state.causes.count(kind)} {kind}"
                for kind in ("crash", "timeout")
                if kind in state.causes
            )
            message = (
                f"worker killed on {state.kills} attempts ({summary}); "
                "quarantined as poison"
            )
        record.fail("poison", message)
        self._finalize(record, status="quarantined")
        return 0.0

    def _degrade_serial(
        self,
        records: list[JobRecord],
        states: dict[int, _JobState],
        queue: deque[int],
    ) -> None:
        """Circuit breaker open: finish in-process instead of aborting.

        Jobs ever implicated in a pool breakage are *not* run in the
        parent (a worker-killer would take the campaign down); they
        fail with kind ``crash``.  Everything else runs serially.
        """
        while queue:
            index = queue.popleft()
            record = records[index]
            state = states[index]
            if state.kills > 0:
                record.mode = "process"
                record.fail(
                    "crash",
                    f"worker killed {state.kills}x and circuit breaker "
                    f"open after {self.breaker.breakages} pool "
                    "breakages; not retried in-process",
                )
                self._finalize(record)
                continue
            record.attempts = state.attempts
            self._run_serial(record)

    # -- helpers -------------------------------------------------------
    def _warm_pool(self, pool: ProcessPoolExecutor) -> bool:
        """Block until the workers have booted (deadline fairness).

        Spawned workers pay interpreter + import startup before their
        first task; without this barrier that boot time would count
        against the first wave of job deadlines.
        """
        warmups = [
            pool.submit(_pool_warmup) for _ in range(pool._max_workers)
        ]
        done, not_done = futures_wait(
            warmups, timeout=self.policy.warmup_timeout_s
        )
        if not_done:
            return False
        try:
            for future in done:
                future.result(timeout=0)
        except Exception:
            return False
        return True

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Hard-kill every worker (watchdog / interrupt teardown)."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, ValueError):
                continue  # already dead / never started

    @staticmethod
    def _absolutize_pythonpath() -> None:
        """Make ``repro`` importable from spawned children.

        The repo runs from source via ``PYTHONPATH=src``; a spawned
        child inherits the environment but not necessarily a working
        directory that makes the relative entry resolve.  Prepend the
        absolute source root once.
        """
        import repro

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        current = os.environ.get("PYTHONPATH", "")
        parts = [p for p in current.split(os.pathsep) if p]
        resolved = {str(Path(p).resolve()) for p in parts}
        if src_dir not in resolved:
            os.environ["PYTHONPATH"] = os.pathsep.join([src_dir, *parts])
