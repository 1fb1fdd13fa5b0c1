"""Seeded chaos harness for the campaign runtime.

The golden-trace discipline the simulator suites use — same seed, same
bytes — applied to the *runner itself*: build a campaign of cheap,
fully deterministic jobs, run it clean, then run it again under seeded
fault injection (worker kills, hung jobs, cache-file corruption, one
mid-run interruption + resume) and require the final result set to be
byte-identical with zero lost and zero duplicated jobs.

Faults are injected **inside worker processes only**.  The injection
decision is a pure function of ``(chaos seed, job digest, attempt)``,
and :func:`chaos_execute` checks
``multiprocessing.current_process().name`` — in the main process (the
golden serial run, or a degraded in-process retry) injection is
automatically off.  That is what lets the very same job objects produce
the golden answer serially and a storm of kills under the pool, and it
guarantees a deliberately crashing job can never take down the parent
that supervises it.

Injection is limited to ``attempt <= injected_attempts``; with a kill
budget above that, every job converges.  Quarantine and circuit-breaker
behavior have their own dedicated tests — the chaos run is the
*recovery* drill, so its policy sets an effectively infinite
``max_pool_rebuilds`` (degrading a chaos campaign to serial would just
disable injection anyway, proving nothing).

Entry point: ``python -m repro.exec chaos`` (see :mod:`repro.exec.cli`)
or :func:`run_chaos`.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.exec.cache import ResultCache
from repro.exec.engine import ExperimentEngine, JobRecord, current_attempt
from repro.exec.job import ScenarioJob, canonical_encode, derive_seed
from repro.exec.supervision import (
    RunInterrupted,
    RunJournal,
    SupervisionPolicy,
)

__all__ = [
    "CHAOS_RUNNER",
    "ChaosConfig",
    "ChaosReport",
    "chaos_execute",
    "chaos_jobs",
    "run_chaos",
]

CHAOS_RUNNER = "repro.exec.chaos.chaos_execute"

# Campaign axes: purely cosmetic variety so the job matrix exercises
# distinct digests; the payload only depends on the job seed.
_CHAOS_MANAGERS = ("FS", "MM-Perf", "MM-Pow", "SPECTR")
_CHAOS_WORKLOADS = ("x264", "bodytrack", "streamcluster")


def _fraction(*parts: Any) -> float:
    """Uniform-ish [0, 1) derived from SHA-256 of the parts."""
    payload = canonical_encode(list(parts))
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(2**64)


@dataclass(frozen=True)
class ChaosConfig:
    """One seeded chaos campaign.

    ``kill_rate`` / ``hang_rate`` are per-(job, attempt) injection
    probabilities, evaluated deterministically from ``seed``; injection
    stops after ``injected_attempts`` dispatches of a job, so with
    ``max_crash_retries > injected_attempts`` the campaign always
    converges.  ``interrupt_after`` (default: half the campaign) is how
    many fresh completions the first engine run sees before the run is
    interrupted; ``corrupt_rate`` is the fraction of cached entries
    vandalized between the interruption and the resume.
    """

    jobs: int = 200
    seed: int = 2018
    workers: int = 2
    deadline_s: float = 1.0
    kill_rate: float = 0.02
    hang_rate: float = 0.01
    hang_s: float = 15.0
    corrupt_rate: float = 0.1
    injected_attempts: int = 1
    interrupt_after: int | None = None
    max_crash_retries: int = 6
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 0.25

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.workers < 2:
            raise ValueError(
                "chaos needs a process pool (workers >= 2): injection "
                "only happens inside workers"
            )
        for name in ("kill_rate", "hang_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.injected_attempts >= self.max_crash_retries:
            raise ValueError(
                "injected_attempts must be below max_crash_retries, or "
                "an unlucky job can exhaust its kill budget while still "
                "being injected (quarantine is not a chaos outcome)"
            )
        if self.hang_s <= self.deadline_s:
            raise ValueError("hang_s must exceed deadline_s to trip the "
                             "watchdog")

    @classmethod
    def smoke(cls) -> "ChaosConfig":
        """CI-sized campaign: same machinery, ~1/5 the jobs, hotter
        injection rates so each fault class still fires."""
        return cls(
            jobs=36,
            kill_rate=0.08,
            hang_rate=0.05,
            hang_s=8.0,
            deadline_s=0.75,
            corrupt_rate=0.2,
        )

    def interrupt_point(self) -> int:
        return (
            self.jobs // 2
            if self.interrupt_after is None
            else self.interrupt_after
        )


# ----------------------------------------------------------------------
# The chaos runner (executes inside workers)
# ----------------------------------------------------------------------
def _payload(job: ScenarioJob) -> dict[str, Any]:
    """The job's deterministic result: a pure function of the spec."""
    seed = derive_seed(job.seed, job.manager, job.workload)
    return {
        "manager": job.manager,
        "workload": job.workload,
        "seed": job.seed,
        "derived": seed,
        "metric": (seed % 10_000) / 10_000.0,
    }


def chaos_execute(job: ScenarioJob) -> dict[str, Any]:
    """Compute the payload — after possibly sabotaging this worker.

    Injection requires (a) running inside a pool worker and (b) being
    within the first ``injected_attempts`` dispatches of this job; both
    the fault kind and its firing are seeded, never random.
    """
    params = job.params()
    chaos_seed = int(params["chaos_seed"])
    attempt = current_attempt()
    in_worker = multiprocessing.current_process().name != "MainProcess"
    if in_worker and attempt <= int(params["injected_attempts"]):
        digest = job.digest()
        roll = _fraction("inject", chaos_seed, digest, attempt)
        kill_rate = float(params["kill_rate"])
        hang_rate = float(params["hang_rate"])
        if roll < kill_rate:
            os._exit(17)  # simulated hard worker death (OOM-kill style)
        if roll < kill_rate + hang_rate:
            # Simulated hang: far beyond the watchdog deadline, so the
            # worker is killed mid-sleep.  (Chaos-only sleep — the
            # injector is exempt from REPRO-L010 precisely for this.)
            time.sleep(float(params["hang_s"]))
    return _payload(job)


def _sleep_runner(job: ScenarioJob) -> Any:
    """Sleep ``sleep_s`` then echo — the watchdog-drill runner.

    Lives here (not in the engine) because simulating a slow or hung
    job is chaos-injection territory: this module is the one place the
    execution layer may call ``time.sleep`` outside the supervision
    backoff policy (REPRO-L010).
    """
    time.sleep(float(job.params()["sleep_s"]))
    return ("slept", job.label)


def chaos_jobs(config: ChaosConfig) -> list[ScenarioJob]:
    """The campaign: ``config.jobs`` distinct-digest deterministic jobs."""
    injection = (
        ("chaos_seed", config.seed),
        ("kill_rate", config.kill_rate),
        ("hang_rate", config.hang_rate),
        ("hang_s", config.hang_s),
        ("injected_attempts", config.injected_attempts),
    )
    jobs = []
    for index in range(config.jobs):
        manager = _CHAOS_MANAGERS[index % len(_CHAOS_MANAGERS)]
        workload = _CHAOS_WORKLOADS[index % len(_CHAOS_WORKLOADS)]
        jobs.append(
            ScenarioJob(
                manager=manager,
                workload=workload,
                seed=derive_seed(config.seed, "chaos-cell", index),
                overrides=injection,
                runner=CHAOS_RUNNER,
                label=f"chaos-{index:04d}-{manager}",
            )
        )
    return jobs


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosReport:
    """Outcome of one chaos drill; ``ok`` is the headline verdict."""

    jobs: int
    identical: bool
    interrupted: bool
    lost: int
    duplicated: int
    quarantined: int
    corrupted: int
    evictions: dict[str, int]
    kills: int
    interrupted_after: int
    cancelled_at_interrupt: int
    resumed_cache_hits: int
    golden_sha256: str
    final_sha256: str

    @property
    def ok(self) -> bool:
        return (
            self.identical
            and self.interrupted
            and self.lost == 0
            and self.duplicated == 0
            and self.quarantined == 0
        )

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "jobs": self.jobs,
            "identical": self.identical,
            "interrupted": self.interrupted,
            "lost": self.lost,
            "duplicated": self.duplicated,
            "quarantined": self.quarantined,
            "corrupted": self.corrupted,
            "evictions": dict(self.evictions),
            "kills": self.kills,
            "interrupted_after": self.interrupted_after,
            "cancelled_at_interrupt": self.cancelled_at_interrupt,
            "resumed_cache_hits": self.resumed_cache_hits,
            "golden_sha256": self.golden_sha256,
            "final_sha256": self.final_sha256,
        }

    def format_text(self) -> str:
        verdict = "CONVERGED" if self.ok else "DIVERGED"
        evicted = ", ".join(
            f"{count} {reason}"
            for reason, count in self.evictions.items()
            if count
        )
        return "\n".join(
            [
                f"chaos drill: {verdict}",
                f"  jobs                   {self.jobs}",
                f"  byte-identical         {self.identical}"
                f"  (golden {self.golden_sha256[:12]}, "
                f"final {self.final_sha256[:12]})",
                f"  lost / duplicated      {self.lost} / {self.duplicated}",
                f"  quarantined            {self.quarantined}",
                f"  worker kills charged   {self.kills}",
                f"  interrupted after      {self.interrupted_after} "
                f"completions ({self.cancelled_at_interrupt} in flight "
                "cancelled)",
                f"  cache files vandalized {self.corrupted}",
                f"  evictions on record    {evicted or 'none'}",
                f"  resumed cache hits     {self.resumed_cache_hits}",
            ]
        )


def _results_sha256(records: list[JobRecord]) -> str:
    """Content hash of the ordered result set (byte-identity check)."""
    payload = canonical_encode([record.result for record in records])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _chaos_policy(config: ChaosConfig) -> SupervisionPolicy:
    return SupervisionPolicy(
        deadline_s=config.deadline_s,
        retry_timeouts=True,
        backoff_base_s=config.backoff_base_s,
        backoff_cap_s=config.backoff_cap_s,
        # Never degrade to serial: in-process execution disables
        # injection, which would vacuously "converge" the drill.
        max_pool_rebuilds=10**9,
        poll_interval_s=0.02,
    )


def _corrupt_cache(
    cache: ResultCache, config: ChaosConfig
) -> list[str]:
    """Seeded vandalism: truncate-and-garbage a fraction of payloads.

    Sidecars are left intact, so the next ``get`` fails the checksum,
    evicts, and recomputes — the injection the eviction ledger and the
    resume path must absorb.
    """
    corrupted = []
    for digest in cache.entries():
        if _fraction("corrupt", config.seed, digest) < config.corrupt_rate:
            path = cache.objects_dir / digest[:2] / f"{digest}.pkl"
            path.write_bytes(b"\x00chaos-vandalism\x00")
            corrupted.append(digest)
    return corrupted


def run_chaos(config: ChaosConfig, state_dir: str | Path) -> ChaosReport:
    """Run the full drill; all state lives under ``state_dir``.

    Sequence: golden serial run (no pool → injection off) → supervised
    pool run under injection, interrupted after
    ``config.interrupt_point()`` fresh completions → seeded cache
    corruption → resume from the same journal + cache → verdict.
    """
    state_dir = Path(state_dir)
    jobs = chaos_jobs(config)

    # 1. Golden: serial, uncached, unfaulted (MainProcess ⇒ no injection).
    golden_engine = ExperimentEngine(max_workers=1)
    golden_records = golden_engine.run(jobs)
    bad = [r for r in golden_records if not r.ok]
    if bad:
        raise RuntimeError(
            f"golden run must be clean; {len(bad)} failures, first: "
            f"{bad[0].error}"
        )
    golden_sha = _results_sha256(golden_records)

    cache = ResultCache(state_dir / "cache")
    journal = RunJournal(state_dir / "journal.jsonl", salt=cache.salt)
    policy = _chaos_policy(config)

    # 2. Faulted run, interrupted mid-campaign by the progress hook.
    completions = 0
    interrupt_point = config.interrupt_point()

    def interrupt_hook(record: JobRecord) -> None:
        nonlocal completions
        completions += 1
        if completions >= interrupt_point:
            raise RunInterrupted(
                f"chaos interruption after {completions} completions"
            )

    first = ExperimentEngine(
        max_workers=config.workers,
        cache=cache,
        max_crash_retries=config.max_crash_retries,
        journal=journal,
        policy=policy,
        progress=interrupt_hook,
    )
    try:
        first.run(jobs)
        interrupted = False
    except RunInterrupted:
        interrupted = True
    kills_first = sum(r.kills for r in first.last_records)
    cancelled = sum(
        1
        for entry in journal.raw_entries()
        if entry.status == "cancelled"
    )

    # 3. Vandalize a seeded fraction of the cached results.
    corrupted = _corrupt_cache(cache, config)

    # 4. Resume: same journal, same cache, fresh engine.
    second = ExperimentEngine(
        max_workers=config.workers,
        cache=cache,
        max_crash_retries=config.max_crash_retries,
        journal=journal,
        policy=policy,
    )
    final_records = second.run(jobs)

    # 5. Verdict.
    final_sha = _results_sha256(final_records)
    lost = sum(1 for record in final_records if not record.ok)
    quarantined = sum(
        1
        for record in final_records
        if record.failure is not None and record.failure.kind == "poison"
    )
    done_counts: dict[str, int] = {}
    for entry in journal.raw_entries():
        if entry.status == "done":
            done_counts[entry.digest] = done_counts.get(entry.digest, 0) + 1
    corrupted_set = set(corrupted)
    duplicated = sum(
        max(0, count - (2 if digest in corrupted_set else 1))
        for digest, count in done_counts.items()
    )
    kills = kills_first + sum(r.kills for r in second.last_records)
    return ChaosReport(
        jobs=config.jobs,
        identical=(final_sha == golden_sha),
        interrupted=interrupted,
        lost=lost,
        duplicated=duplicated,
        quarantined=quarantined,
        corrupted=len(corrupted),
        evictions=cache.eviction_counts(),
        kills=kills,
        interrupted_after=completions,
        cancelled_at_interrupt=cancelled,
        resumed_cache_hits=sum(1 for r in final_records if r.cache_hit),
        golden_sha256=golden_sha,
        final_sha256=final_sha,
    )
