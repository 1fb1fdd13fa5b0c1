"""Ablation studies for SPECTR's design choices.

DESIGN.md calls out three mechanisms worth isolating:

* **Gain scheduling** (Section 3.2) — swapping the leaf controllers'
  priority objective.  Without it, the MIMOs keep the QoS-oriented gain
  set through capping episodes.
* **Reference regulation** — the supervisor rewriting per-cluster power
  budgets.  Without it, budgets stay at their initial split.
* **Supervisor period** — how often the high-level loop runs relative
  to the 50 ms leaf controllers (the paper uses 2x).

Each study runs the three-phase x264 scenario and reports per-phase
QoS/power tracking, quantifying what each mechanism buys.  A variant is
a SPECTR :class:`~repro.exec.job.ScenarioJob` whose ``overrides`` are
SPECTR construction keys (``enable_gain_scheduling``,
``manager_name``, ...; see
:func:`repro.experiments.figures.manager_factory`), run by an
:class:`~repro.exec.engine.ExperimentEngine`: the caller's, or a
default in-process one without cache or journal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.experiments.runner import ScenarioTrace
from repro.experiments.scenario import three_phase_scenario

if TYPE_CHECKING:
    from repro.exec.engine import ExperimentEngine


@dataclass
class AblationResult:
    """Per-variant traces for one ablation study."""

    title: str
    traces: dict[str, ScenarioTrace]

    def phase_summary(self, variant: str) -> list[tuple[float, float]]:
        """(QoS mean, power mean) per phase for one variant."""
        return [
            (pm.qos.mean, pm.power.mean)
            for pm in self.traces[variant].phase_metrics()
        ]

    def format_text(self) -> str:
        lines = [self.title]
        header = f"{'variant':28s}" + "".join(
            f"{f'P{i + 1} QoS':>9s}{f'P{i + 1} W':>8s}" for i in range(3)
        )
        lines.append(header)
        for variant in self.traces:
            cells = ""
            for qos, power in self.phase_summary(variant):
                cells += f"{qos:9.1f}{power:8.2f}"
            lines.append(f"{variant:28s}" + cells)
        return "\n".join(lines)


def _run_variants(
    variants: dict[str, dict[str, Any]],
    *,
    seed: int,
    engine: "ExperimentEngine | None",
) -> dict[str, ScenarioTrace]:
    """Run the three-phase scenario once per ablation variant.

    ``variants`` maps display name to SPECTR overrides.  Without an
    ``engine`` the variants run in-process, uncached.
    """
    from repro.exec.engine import ExperimentEngine
    from repro.exec.job import ScenarioJob

    scenario = three_phase_scenario()
    jobs = [
        ScenarioJob(
            manager="SPECTR",
            scenario=scenario,
            seed=seed,
            overrides=tuple(sorted(overrides.items())),
            label=f"ablation: {display}",
        )
        for display, overrides in variants.items()
    ]
    engine = engine or ExperimentEngine()
    return dict(zip(variants, engine.results(jobs)))


def ablate_mechanisms(
    *, seed: int = 2018, engine: "ExperimentEngine | None" = None
) -> AblationResult:
    """Full SPECTR vs gain-scheduling-only vs reference-regulation-only.

    Expected outcome: without gain scheduling the manager cannot hand
    priority to power during the emergency/disturbance phases (TDP
    violations); without reference regulation the power mode tracks a
    stale budget split.
    """
    variants: dict[str, dict[str, Any]] = {
        "SPECTR (full)": {},
        "no gain scheduling": {
            "enable_gain_scheduling": False,
            "manager_name": "SPECTR-noGS",
        },
        "no reference regulation": {
            "enable_reference_regulation": False,
            "manager_name": "SPECTR-noRR",
        },
        "supervisor disabled": {
            "enable_gain_scheduling": False,
            "enable_reference_regulation": False,
            "manager_name": "SPECTR-none",
        },
    }
    return AblationResult(
        title="Ablation - SPECTR mechanisms (x264, three phases)",
        traces=_run_variants(variants, seed=seed, engine=engine),
    )


def ablate_supervisor_period(
    periods: tuple[int, ...] = (1, 2, 4, 10),
    *,
    seed: int = 2018,
    engine: "ExperimentEngine | None" = None,
) -> AblationResult:
    """Sensitivity to the supervisor invocation period.

    Slower supervision delays the priority switch at phase boundaries;
    the paper's 2x choice balances responsiveness against overhead.
    """
    variants: dict[str, dict[str, Any]] = {
        f"period {p} ({p * 50} ms)": {
            "supervisor_period_epochs": p,
            "manager_name": f"SPECTR-p{p}",
        }
        for p in periods
    }
    return AblationResult(
        title="Ablation - supervisor invocation period",
        traces=_run_variants(variants, seed=seed, engine=engine),
    )


def tdp_violation_fraction(trace: ScenarioTrace, phase: int) -> float:
    """Fraction of a phase's intervals spent above 105% of the budget."""
    sl = trace.phase_slice(phase)
    budget_w = trace.power_reference[sl]
    power_w = trace.chip_power[sl]
    over = power_w > 1.05 * budget_w
    return float(over.mean())
