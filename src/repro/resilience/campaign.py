"""Fault-campaign harness: fault kind x target x window x manager.

Makes fault studies a first-class, reproducible experiment: every run
drives one manager through the paper's three-phase scenario with one
injected fault (sensor or actuator), the full resilience pipeline
attached, and actuator proxies on both clusters, then collects

* QoS/power tracking degradation relative to a fault-free baseline of
  the same manager (same seed, same pipeline),
* invariant-violation counts (by rule),
* guard substitutions / quarantine transitions,
* degradation engagements and the post-fault QoS recovery time.

Everything is seeded from :attr:`CampaignConfig.seed`; the same seed
produces an identical JSON report (no wall-clock anywhere in the
payload).  ``python -m repro.resilience`` is the CLI front end;
``CampaignConfig.smoke()`` is the short-horizon CI configuration.

Campaign cells are plain :class:`~repro.exec.job.ScenarioJob`\\ s, and
an :class:`~repro.exec.engine.ExperimentEngine` runs every one of them
(without ``engine=``, a default in-process one without cache or
journal).  Each cell injects its fault as a
:class:`~repro.exec.job.FaultSpec` through
:func:`repro.exec.scenario_jobs.fault_setup`, like any engine job.  The
cells inherit the full supervision stack of :mod:`repro.exec`: pass
``--journal`` (and optionally ``--deadline-s`` /
``--max-crash-retries``) to the CLI and an interrupted campaign resumes
from the crash-safe run journal instead of starting over — see
``tests/exec/test_resume.py`` for the SIGTERM-mid-campaign drill.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.exec.engine import ExperimentEngine
from repro.exec.job import FaultSpec, ScenarioJob
from repro.exec.scenario_jobs import fault_setup
from repro.experiments.figures import (
    MANAGER_NAMES,
    identified_systems,
    manager_factory,
)
from repro.experiments.report import format_markdown_table
from repro.experiments.runner import ScenarioTrace, run_scenario
from repro.experiments.scenario import three_phase_scenario
from repro.platform.faults import (
    ActuatorFaultModel,
    ActuatorProxy,
    FaultModel,
)
from repro.resilience.degrade import DegradationPolicy
from repro.resilience.guard import TelemetryGuard
from repro.resilience.monitor import InvariantMonitor
from repro.resilience.pipeline import ResiliencePipeline
from repro.workloads import x264

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CampaignRun",
    "campaign_jobs",
    "execute_campaign_job",
    "run_campaign",
]

# Campaign fault magnitudes for kinds whose model default (1.0) is a
# no-op: a 0.9 GHz frequency ceiling, a 30% partial actuation.  Every
# other parameter is the FaultSpec default (a ``delay`` fault holds each
# request 0.2 s).
_FAULT_MAGNITUDES = {"clamp": 0.9, "partial": 0.3}
_RECOVERY_TOLERANCE_FRACTION = 0.05
_RECOVERY_DWELL_EPOCHS = 10


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: the swept axes and the shared scenario/seed."""

    managers: tuple[str, ...] = MANAGER_NAMES
    sensor_kinds: tuple[str, ...] = FaultModel.VALID_KINDS
    actuator_kinds: tuple[str, ...] = ActuatorFaultModel.VALID_KINDS
    target: str = "big"
    fault_start_s: float = 1.0
    fault_duration_s: float = 2.0
    phase_duration_s: float = 5.0
    seed: int = 2018
    with_degrade: bool = True

    def __post_init__(self) -> None:
        if self.fault_duration_s <= 0:
            raise ValueError("fault_duration_s must be positive")
        if self.fault_start_s < 0:
            raise ValueError("fault_start_s must be non-negative")
        for axis, values, valid in (
            ("managers", self.managers, MANAGER_NAMES),
            ("sensor_kinds", self.sensor_kinds, FaultModel.VALID_KINDS),
            (
                "actuator_kinds",
                self.actuator_kinds,
                ActuatorFaultModel.VALID_KINDS,
            ),
        ):
            unknown = set(values) - set(valid)
            if unknown:
                raise ValueError(
                    f"unknown {axis} {sorted(unknown)}; choose from {valid}"
                )
        if self.target not in FaultSpec.VALID_TARGETS:
            raise ValueError(
                f"unknown target {self.target!r}; "
                f"choose from {FaultSpec.VALID_TARGETS}"
            )

    @property
    def fault_end_s(self) -> float:
        return self.fault_start_s + self.fault_duration_s

    @classmethod
    def smoke(cls, *, seed: int = 2018) -> "CampaignConfig":
        """Short-horizon CI configuration: SPECTR, one fault per kind."""
        return cls(
            managers=("SPECTR",),
            target="big",
            fault_start_s=0.6,
            fault_duration_s=1.0,
            phase_duration_s=2.0,
            seed=seed,
        )


@dataclass
class CampaignRun:
    """Metrics of one (manager, fault) scenario run."""

    manager: str
    fault_kind: str
    fault_class: str  # "sensor" | "actuator" | "none" (baseline)
    target: str
    fault_start_s: float
    fault_end_s: float
    qos_mae: float
    power_mae_w: float
    qos_mae_fault_window: float
    violation_count: int
    violations_by_rule: dict[str, int] = field(default_factory=dict)
    guard_substitutions: int = 0
    guard_quarantines: int = 0
    degrade_engagements: int = 0
    proxy_retries: int = 0
    proxy_holds: int = 0
    recovery_time_s: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "manager": self.manager,
            "fault_kind": self.fault_kind,
            "fault_class": self.fault_class,
            "target": self.target,
            "fault_start_s": round(self.fault_start_s, 6),
            "fault_end_s": round(self.fault_end_s, 6),
            "qos_mae": round(self.qos_mae, 6),
            "power_mae_w": round(self.power_mae_w, 6),
            "qos_mae_fault_window": round(self.qos_mae_fault_window, 6),
            "violation_count": self.violation_count,
            "violations_by_rule": dict(sorted(self.violations_by_rule.items())),
            "guard_substitutions": self.guard_substitutions,
            "guard_quarantines": self.guard_quarantines,
            "degrade_engagements": self.degrade_engagements,
            "proxy_retries": self.proxy_retries,
            "proxy_holds": self.proxy_holds,
            "recovery_time_s": (
                None
                if self.recovery_time_s is None
                else round(self.recovery_time_s, 6)
            ),
        }


@dataclass
class CampaignResult:
    """All runs of one campaign plus per-manager fault-free baselines."""

    config: CampaignConfig
    runs: list[CampaignRun] = field(default_factory=list)
    baselines: dict[str, CampaignRun] = field(default_factory=dict)

    @property
    def total_violations(self) -> int:
        return sum(r.violation_count for r in self.runs) + sum(
            b.violation_count for b in self.baselines.values()
        )

    def to_json(self) -> str:
        payload = {
            "config": {
                "managers": list(self.config.managers),
                "sensor_kinds": list(self.config.sensor_kinds),
                "actuator_kinds": list(self.config.actuator_kinds),
                "target": self.config.target,
                "fault_start_s": self.config.fault_start_s,
                "fault_duration_s": self.config.fault_duration_s,
                "phase_duration_s": self.config.phase_duration_s,
                "seed": self.config.seed,
                "with_degrade": self.config.with_degrade,
            },
            "baselines": {
                name: run.to_json_dict()
                for name, run in sorted(self.baselines.items())
            },
            "runs": [r.to_json_dict() for r in self.runs],
            "total_violations": self.total_violations,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def format_markdown(self) -> str:
        headers = [
            "manager",
            "fault",
            "class",
            "viol.",
            "subst.",
            "quarant.",
            "degrade",
            "holds",
            "qos MAE",
            "ΔMAE vs clean",
            "recovery [s]",
        ]
        rows = []
        for run in self.runs:
            baseline = self.baselines.get(run.manager)
            delta = (
                f"{run.qos_mae - baseline.qos_mae:+.3f}"
                if baseline is not None
                else "n/a"
            )
            rows.append(
                [
                    run.manager,
                    run.fault_kind,
                    run.fault_class,
                    str(run.violation_count),
                    str(run.guard_substitutions),
                    str(run.guard_quarantines),
                    str(run.degrade_engagements),
                    str(run.proxy_holds),
                    f"{run.qos_mae:.3f}",
                    delta,
                    (
                        "-"
                        if run.recovery_time_s is None
                        else f"{run.recovery_time_s:.2f}"
                    ),
                ]
            )
        lines = [
            "# Fault campaign",
            "",
            f"scenario: three-phase x{self.config.phase_duration_s:.1f} s "
            f"phases, fault window "
            f"[{self.config.fault_start_s:.2f}, {self.config.fault_end_s:.2f}] s "
            f"on {self.config.target!r}, seed {self.config.seed}",
            "",
            format_markdown_table(headers, rows),
            "",
            f"total invariant violations: {self.total_violations}",
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _recovery_time_s(
    trace: ScenarioTrace, fault_end_s: float
) -> float | None:
    """Time from fault end until QoS holds within tolerance, or None."""
    within = (
        np.abs(trace.qos - trace.qos_reference)
        <= _RECOVERY_TOLERANCE_FRACTION * trace.qos_reference
    )
    start = int(np.searchsorted(trace.times, fault_end_s, side="left"))
    streak = 0
    for k in range(start, len(within)):
        streak = streak + 1 if within[k] else 0
        if streak >= _RECOVERY_DWELL_EPOCHS:
            return float(trace.times[k - streak + 1] - fault_end_s)
    return None


def _metrics_from_trace(
    trace: ScenarioTrace,
    manager_name: str,
    *,
    fault_kind: str,
    fault_class: str,
    target: str,
    fault_start_s: float,
    fault_end_s: float,
    proxies: dict[str, ActuatorProxy],
) -> CampaignRun:
    qos_err = np.abs(trace.qos - trace.qos_reference)
    power_over_w = np.maximum(trace.chip_power - trace.power_reference, 0.0)
    window = (trace.times >= fault_start_s) & (trace.times < fault_end_s)
    by_rule: dict[str, int] = {}
    for violation in trace.invariant_violations:
        by_rule[violation.rule] = by_rule.get(violation.rule, 0) + 1
    quarantines = sum(
        1
        for event in trace.guard_events
        if event.kind == "transition" and "->quarantined" in event.detail
    )
    substitutions = sum(
        1 for event in trace.guard_events if event.kind == "substituted"
    )
    engagements = sum(
        1 for event in trace.degrade_events if event.action == "engage"
    )
    return CampaignRun(
        manager=manager_name,
        fault_kind=fault_kind,
        fault_class=fault_class,
        target=target,
        fault_start_s=fault_start_s,
        fault_end_s=fault_end_s,
        qos_mae=float(np.mean(qos_err)),
        power_mae_w=float(np.mean(power_over_w)),
        qos_mae_fault_window=(
            float(np.mean(qos_err[window])) if np.any(window) else 0.0
        ),
        violation_count=len(trace.invariant_violations),
        violations_by_rule=by_rule,
        guard_substitutions=substitutions,
        guard_quarantines=quarantines,
        degrade_engagements=engagements,
        proxy_retries=sum(p.retry_count for p in proxies.values()),
        proxy_holds=sum(p.hold_count for p in proxies.values()),
        recovery_time_s=_recovery_time_s(trace, fault_end_s),
    )


def _run_one(
    manager_name: str,
    config: CampaignConfig,
    fault_kind: str | None,
) -> CampaignRun:
    """One seeded scenario run with (or without, baseline) one fault."""
    systems = identified_systems()
    scenario = three_phase_scenario(
        phase_duration_s=config.phase_duration_s
    )
    fault_class = "none"
    soc_setup = None
    if fault_kind is not None:
        fault = FaultSpec(
            kind=fault_kind,
            target=config.target,
            start_s=config.fault_start_s,
            duration_s=config.fault_duration_s,
            magnitude=_FAULT_MAGNITUDES.get(fault_kind, 1.0),
        )
        fault_class = fault.fault_class
        soc_setup = fault_setup(fault, config.seed)

    proxies: dict[str, ActuatorProxy] = {}

    def manager_setup(manager) -> None:
        for cluster in (manager.soc.big, manager.soc.little):
            proxy = ActuatorProxy(cluster)
            proxies[cluster.name] = proxy
            manager.attach_actuator_proxy(cluster.name, proxy)
        manager.attach_resilience(
            ResiliencePipeline(
                guard=TelemetryGuard(),
                monitor=InvariantMonitor(),
                degrade=(
                    DegradationPolicy() if config.with_degrade else None
                ),
            )
        )

    trace = run_scenario(
        manager_factory(manager_name, systems),
        x264(),
        scenario,
        seed=config.seed,
        soc_setup=soc_setup,
        manager_setup=manager_setup,
    )
    return _metrics_from_trace(
        trace,
        manager_name,
        fault_kind=fault_kind or "none",
        fault_class=fault_class,
        target=config.target,
        fault_start_s=config.fault_start_s,
        fault_end_s=config.fault_end_s,
        proxies=proxies,
    )


CAMPAIGN_RUNNER = "repro.resilience.campaign.execute_campaign_job"


def execute_campaign_job(job: ScenarioJob) -> CampaignRun:
    """Engine runner for one campaign cell (see :func:`campaign_jobs`)."""
    params = job.params()
    return _run_one(job.manager, params["config"], params["fault_kind"])


def campaign_jobs(config: CampaignConfig) -> list[ScenarioJob]:
    """The campaign as an engine job list: per manager, the fault-free
    baseline first, then one job per kind."""
    jobs = []
    for manager_name in config.managers:
        for kind in (None, *config.sensor_kinds, *config.actuator_kinds):
            jobs.append(
                ScenarioJob(
                    manager=manager_name,
                    seed=config.seed,
                    overrides=(("config", config), ("fault_kind", kind)),
                    runner=CAMPAIGN_RUNNER,
                    label=f"campaign: {manager_name}/{kind or 'baseline'}",
                )
            )
    return jobs


def run_campaign(
    config: CampaignConfig | None = None,
    *,
    engine: ExperimentEngine | None = None,
) -> CampaignResult:
    """Sweep fault kind x manager over the three-phase scenario.

    The cells run through ``engine`` (parallel, cached or journaled as
    it is set up); without one, in-process and uncached.  The result,
    and its JSON rendering, is the same either way.
    """
    config = config or CampaignConfig()
    result = CampaignResult(config=config)
    runs = iter((engine or ExperimentEngine()).results(campaign_jobs(config)))
    for manager_name in config.managers:
        result.baselines[manager_name] = next(runs)
        for _ in (*config.sensor_kinds, *config.actuator_kinds):
            result.runs.append(next(runs))
    return result
