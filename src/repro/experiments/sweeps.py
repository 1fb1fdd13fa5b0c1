"""Goal-space sweeps: where the managers' trade-offs cross over.

The reproduction target includes "where crossovers fall".  Two sweeps
locate the regime boundaries the three-phase scenario only samples:

* **TDP sweep** — for a fixed QoS reference, lower the power budget
  until it binds: above the binding point SPECTR saves power vs the
  power trackers; below it every manager is power-limited and the
  difference becomes QoS, with MM-Perf alone ignoring the budget.
* **QoS-reference sweep** — for a fixed budget, raise the requested
  QoS until it is unattainable within TDP: the point where SPECTR's
  supervisor flips from MM-Perf-like (QoS-driven) to MM-Pow-like
  (capping) behaviour.

Each (sweep point, manager) cell is a
:class:`~repro.exec.job.ScenarioJob` run by an
:class:`~repro.exec.engine.ExperimentEngine`: the caller's, or a
default in-process one without cache or journal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.experiments.scenario import Phase, Scenario

if TYPE_CHECKING:
    from repro.exec.engine import ExperimentEngine


def _single_phase_scenario(
    qos_reference: float, budget_w: float, *, duration_s: float = 8.0
) -> Scenario:
    return Scenario(
        name="sweep-point",
        phases=(
            Phase(
                name="steady",
                duration_s=duration_s,
                power_budget_w=budget_w,
                qos_reference=qos_reference,
            ),
        ),
    )


@dataclass
class SweepResult:
    """Per-manager (qos, power) steady state at each sweep point."""

    title: str
    x_label: str
    x_values: tuple[float, ...]
    managers: tuple[str, ...]
    qos: dict[str, list[float]]
    power: dict[str, list[float]]

    def format_text(self) -> str:
        lines = [self.title]
        header = f"{self.x_label:>10s}" + "".join(
            f"{m + ' QoS':>13s}{m + ' W':>11s}" for m in self.managers
        )
        lines.append(header)
        for index, x in enumerate(self.x_values):
            row = f"{x:10.2f}"
            for manager in self.managers:
                row += (
                    f"{self.qos[manager][index]:13.1f}"
                    f"{self.power[manager][index]:11.2f}"
                )
            lines.append(row)
        return "\n".join(lines)

    def crossover(
        self, manager_a: str, manager_b: str, metric: str = "power"
    ) -> float | None:
        """First sweep value where the two managers' metric curves
        come within 5% of each other (the regimes merge)."""
        series_a = np.asarray(getattr(self, metric)[manager_a])
        series_b = np.asarray(getattr(self, metric)[manager_b])
        scale = np.maximum(np.abs(series_b), 1e-9)
        close = np.abs(series_a - series_b) / scale < 0.05
        for x, is_close in zip(self.x_values, close):
            if is_close:
                return float(x)
        return None


def _collect(
    points: Sequence[tuple[float, Scenario]],
    managers: tuple[str, ...],
    seed: int,
    engine: "ExperimentEngine | None",
    sweep_name: str,
) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Run every (point, manager) cell, points outer and managers
    inner; returns steady-state means.  Without an ``engine`` the cells
    run in-process, uncached."""
    from repro.exec.engine import ExperimentEngine
    from repro.exec.job import ScenarioJob

    jobs = [
        ScenarioJob(
            manager=manager,
            scenario=scenario,
            seed=seed,
            label=f"{sweep_name}[{x:g}] {manager}",
        )
        for x, scenario in points
        for manager in managers
    ]
    qos: dict[str, list[float]] = {m: [] for m in managers}
    power: dict[str, list[float]] = {m: [] for m in managers}
    traces = (engine or ExperimentEngine()).results(jobs)
    for job, trace in zip(jobs, traces):
        metrics = trace.phase_metrics()[0]
        qos[job.manager].append(metrics.qos.mean)
        power[job.manager].append(metrics.power.mean)
    return qos, power


def tdp_sweep(
    budgets: tuple[float, ...] = (6.5, 5.5, 4.5, 3.5, 2.8),
    *,
    qos_reference: float = 60.0,
    managers: tuple[str, ...] = ("SPECTR", "MM-Pow", "MM-Perf"),
    seed: int = 2018,
    engine: "ExperimentEngine | None" = None,
) -> SweepResult:
    """Steady-state behaviour as the power budget tightens (x264)."""
    points = [
        (budget, _single_phase_scenario(qos_reference, budget))
        for budget in budgets
    ]
    qos, power = _collect(points, managers, seed, engine, "tdp")
    return SweepResult(
        title=(
            "TDP sweep - x264, QoS ref "
            f"{qos_reference:.0f}: where the budget starts to bind"
        ),
        x_label="TDP (W)",
        x_values=budgets,
        managers=managers,
        qos=qos,
        power=power,
    )


def qos_reference_sweep(
    references: tuple[float, ...] = (40.0, 50.0, 60.0, 70.0, 78.0),
    *,
    budget_w: float = 5.0,
    managers: tuple[str, ...] = ("SPECTR", "MM-Perf"),
    seed: int = 2018,
    engine: "ExperimentEngine | None" = None,
) -> SweepResult:
    """Steady-state behaviour as the requested QoS grows (x264)."""
    points = [
        (reference, _single_phase_scenario(reference, budget_w))
        for reference in references
    ]
    qos, power = _collect(points, managers, seed, engine, "qosref")
    return SweepResult(
        title=(
            f"QoS-reference sweep - x264, TDP {budget_w:.0f} W: where "
            "the reference becomes unattainable"
        ),
        x_label="QoS ref",
        x_values=references,
        managers=managers,
        qos=qos,
        power=power,
    )
