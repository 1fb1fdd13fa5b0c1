"""Fleet scenario runner: one batched run standing in for N scalar runs.

:func:`run_fleet_scenario` mirrors
:func:`repro.experiments.runner.run_scenario` step for step — initial
DVFS operating point, phase-boundary goal changes, telemetry-then-control
ordering, post-control actuator reads — but advances a whole
:class:`~repro.platform.fleet.FleetPlatform` per tick.  The resulting
:class:`FleetTrace` holds ``(T, N)`` series; :meth:`FleetTrace.row`
extracts one device as a plain :class:`ScenarioTrace` that is
bit-identical to the scalar runner's output for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.figures import (
    IdentifiedSystems,
    case_study_supervisor,
    spectr_kwargs,
)
from repro.experiments.runner import ScenarioTrace
from repro.experiments.scenario import Scenario
from repro.managers.base import ManagerGoals
from repro.managers.fleet import (
    FLEET_GAIN_NAMES,
    FleetFullSystem,
    FleetResourceManager,
    FleetSPECTR,
    fleet_mm_perf,
    fleet_mm_pow,
)
from repro.platform.fleet import FleetPlatform
from repro.platform.soc import SoCConfig
from repro.workloads.base import QoSWorkload

__all__ = [
    "FleetTrace",
    "fleet_manager_factory",
    "run_fleet_scenario",
]


@dataclass
class FleetTrace:
    """Full time series of one fleet run: ``(T, N)`` per series.

    ``gain_ids`` stores per-tick active gain sets as small integers
    (indices into ``gain_names``) instead of ``T`` lists of strings —
    the trace stays a compact pickle at N=1000.
    """

    manager: str
    workload: str
    scenario: Scenario
    seeds: tuple[int, ...]
    times: np.ndarray
    qos: np.ndarray
    qos_reference: np.ndarray
    chip_power: np.ndarray
    power_reference: np.ndarray
    big_power: np.ndarray
    little_power: np.ndarray
    big_frequency: np.ndarray
    big_cores: np.ndarray
    little_frequency: np.ndarray
    little_cores: np.ndarray
    gain_ids: np.ndarray
    gain_names: tuple[str, ...] = FLEET_GAIN_NAMES

    @property
    def n_devices(self) -> int:
        return self.qos.shape[1]

    def row(self, index: int) -> ScenarioTrace:
        """Device ``index`` as a scalar-equivalent :class:`ScenarioTrace`."""
        names = self.gain_names
        return ScenarioTrace(
            manager=self.manager,
            workload=self.workload,
            scenario=self.scenario,
            times=self.times.copy(),
            qos=self.qos[:, index].copy(),
            qos_reference=self.qos_reference.copy(),
            chip_power=self.chip_power[:, index].copy(),
            power_reference=self.power_reference.copy(),
            big_power=self.big_power[:, index].copy(),
            little_power=self.little_power[:, index].copy(),
            big_frequency=self.big_frequency[:, index].copy(),
            big_cores=self.big_cores[:, index].copy(),
            little_frequency=self.little_frequency[:, index].copy(),
            little_cores=self.little_cores[:, index].copy(),
            gain_sets=[names[g] for g in self.gain_ids[:, index]],
        )


def run_fleet_scenario(
    manager_factory,
    workload: QoSWorkload,
    scenario: Scenario,
    *,
    seeds,
    initial_big_frequency: float = 1.0,
    initial_little_frequency: float = 0.6,
    noise_chunk_ticks: int | None = None,
) -> FleetTrace:
    """Execute one (manager, workload, scenario) across a device fleet.

    ``manager_factory`` maps ``(platform, goals)`` to a
    :class:`FleetResourceManager`; ``seeds`` gives one RNG seed per
    device row.  ``noise_chunk_ticks`` is passed to
    :class:`FleetPlatform`, which pre-draws each device's sensor noise
    that many ticks at a time (``None`` takes its default of 16 ticks,
    whatever the run's length).  Every refill draws a whole chunk, so
    a run whose tick count is not a multiple of the chunk draws
    standard normals it never consumes: at most one chunk less one
    tick per device.  Chunking never changes the values, only how much
    of each device's stream is materialized at once.
    """
    seeds = tuple(int(s) for s in seeds)
    config = SoCConfig()
    steps = int(round(scenario.total_duration_s / config.dt_s))
    platform = FleetPlatform(
        qos_app=workload,
        background=scenario.background_tasks(),
        seeds=seeds,
        config=config,
        noise_chunk_ticks=noise_chunk_ticks,
    )
    n = platform.n_devices
    platform.big.set_frequency(
        np.full(n, float(initial_big_frequency), dtype=float)
    )
    platform.little.set_frequency(
        np.full(n, float(initial_little_frequency), dtype=float)
    )

    first = scenario.phases[0]
    goals = ManagerGoals(
        qos_reference=first.qos_reference,
        power_budget_w=first.power_budget_w,
    )
    manager: FleetResourceManager = manager_factory(platform, goals)

    times = np.zeros(steps, dtype=float)
    qos = np.zeros((steps, n), dtype=float)
    qos_ref = np.zeros(steps, dtype=float)
    chip_power_w = np.zeros((steps, n), dtype=float)
    power_ref = np.zeros(steps, dtype=float)
    big_power_w = np.zeros((steps, n), dtype=float)
    little_power_w = np.zeros((steps, n), dtype=float)
    big_freq = np.zeros((steps, n), dtype=float)
    big_cores = np.zeros((steps, n), dtype=float)
    little_freq = np.zeros((steps, n), dtype=float)
    little_cores = np.zeros((steps, n), dtype=float)
    gain_ids = np.zeros((steps, n), dtype=np.int8)

    current_phase = first
    for k in range(steps):
        telemetry = platform.step()
        phase = scenario.phase_at(telemetry.time_s)
        if phase is not current_phase:
            manager.set_power_budget(phase.power_budget_w)
            manager.set_qos_reference(phase.qos_reference)
            current_phase = phase
        manager.control(telemetry)

        times[k] = telemetry.time_s
        qos[k] = telemetry.qos_rate
        qos_ref[k] = phase.qos_reference
        chip_power_w[k] = telemetry.chip_power_w
        power_ref[k] = phase.power_budget_w
        big_power_w[k] = telemetry.big.power_w
        little_power_w[k] = telemetry.little.power_w
        big_freq[k] = platform.big.frequency
        big_cores[k] = platform.big.active
        little_freq[k] = platform.little.frequency
        little_cores[k] = platform.little.active
        gain_ids[k] = manager.gain_set_ids()

    return FleetTrace(
        manager=manager.name,
        workload=workload.name,
        scenario=scenario,
        seeds=seeds,
        times=times,
        qos=qos,
        qos_reference=qos_ref,
        chip_power=chip_power_w,
        power_reference=power_ref,
        big_power=big_power_w,
        little_power=little_power_w,
        big_frequency=big_freq,
        big_cores=big_cores,
        little_frequency=little_freq,
        little_cores=little_cores,
        gain_ids=gain_ids,
    )


def fleet_manager_factory(
    name: str, systems: IdentifiedSystems, overrides: dict | None = None
):
    """Fleet mirror of :func:`repro.experiments.figures.manager_factory`."""
    kwargs = spectr_kwargs(name, overrides)
    if name == "MM-Perf":
        return lambda platform, goals: fleet_mm_perf(
            platform,
            goals,
            big_system=systems.big,
            little_system=systems.little,
        )
    if name == "MM-Pow":
        return lambda platform, goals: fleet_mm_pow(
            platform,
            goals,
            big_system=systems.big,
            little_system=systems.little,
        )
    if name == "FS":
        return lambda platform, goals: FleetFullSystem(
            platform, goals, system=systems.full
        )
    if name == "SPECTR":
        supervisor = case_study_supervisor()
        return lambda platform, goals: FleetSPECTR(
            platform,
            goals,
            big_system=systems.big,
            little_system=systems.little,
            verified_supervisor=supervisor,
            **kwargs,
        )
    raise ValueError(f"unknown manager {name!r}")
