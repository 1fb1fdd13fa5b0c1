"""Fleet jobs: one N-device batched run through the experiment engine.

A :class:`FleetScenarioJob` replaces N per-seed :class:`ScenarioJob`
cells with a single job whose runner advances every clean device
through the vectorized fleet kernel
(:func:`repro.experiments.fleet.run_fleet_scenario`).  Device row ``i``
is seeded with ``derive_seed(job.seed, "fleet", i)`` and its slice of
the result is bit-identical to the scalar job
``ScenarioJob(..., seed=derive_seed(job.seed, "fleet", i))``.

Rows named in ``device_faults`` carry an injected platform fault, which
the fleet kernel deliberately does not model — those rows run the
scalar oracle with the same per-row seed and are spliced into the
returned :class:`~repro.experiments.fleet.FleetTrace`, so the fleet job
remains the single source of truth for the whole batch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.exec.job import (
    JOB_SCHEMA,
    FaultSpec,
    ScenarioJob,
    canonical_encode,
    derive_seed,
)
from repro.exec.scenario_jobs import (
    fault_setup,
    split_overrides,
    workload_by_name,
)
from repro.experiments.fleet import (
    FleetTrace,
    fleet_manager_factory,
    run_fleet_scenario,
)
from repro.experiments.figures import identified_systems, manager_factory
from repro.experiments.runner import ScenarioTrace, run_scenario
from repro.experiments.scenario import three_phase_scenario
from repro.managers.fleet import FLEET_GAIN_NAMES

__all__ = [
    "FLEET_RUNNER",
    "FleetScenarioJob",
    "execute_fleet",
    "fleet_seeds",
]

FLEET_RUNNER = "repro.exec.fleet_jobs.execute_fleet"

# The per-device (steps, N) series of a FleetTrace; faulted rows splice
# their scalar-oracle trace into every one of them.
_DEVICE_SERIES = (
    "qos",
    "chip_power",
    "big_power",
    "little_power",
    "big_frequency",
    "big_cores",
    "little_frequency",
    "little_cores",
    "gain_ids",
)


def fleet_seeds(base_seed: int, n_devices: int) -> tuple[int, ...]:
    """The per-row device seeds of a fleet job (row ``i`` of ``N``)."""
    return tuple(
        derive_seed(base_seed, "fleet", index) for index in range(n_devices)
    )


@dataclass(frozen=True)
class FleetScenarioJob(ScenarioJob):
    """One N-device experiment cell.

    ``device_faults`` is a tuple of ``(row, FaultSpec)`` pairs in
    strictly increasing row order (canonical form, so equal fleets
    digest equally); those rows are executed on the scalar oracle.
    The inherited ``fault`` field must stay ``None`` — a fleet-wide
    fault would silently serialize the whole batch.
    """

    runner: str = FLEET_RUNNER
    n_devices: int = 8
    device_faults: tuple[tuple[int, FaultSpec], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        if self.fault is not None:
            raise ValueError(
                "fleet jobs take per-row device_faults, not a fleet-wide "
                "fault"
            )
        previous = -1
        for pair in self.device_faults:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ValueError(
                    "device_faults must be (row, FaultSpec) pairs"
                )
            row, spec = pair
            if not isinstance(spec, FaultSpec):
                raise ValueError(
                    "device_faults must be (row, FaultSpec) pairs"
                )
            # 1.0 and True compare equal to 1 but digest differently,
            # and a float row cannot index the trace series.
            if type(row) is not int:
                raise ValueError(
                    f"device fault row {row!r} must be an int"
                )
            if not 0 <= row < self.n_devices:
                raise ValueError(
                    f"device fault row {row} outside fleet of "
                    f"{self.n_devices}"
                )
            if row <= previous:
                raise ValueError(
                    "device_faults rows must be strictly increasing"
                )
            previous = row

    def digest(self, *, salt: str = "") -> str:
        """Parent digest spec extended with the fleet dimensions."""
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
            "fleet": {
                "n_devices": self.n_devices,
                "device_faults": self.device_faults,
            },
        }
        payload = canonical_encode(spec)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def seeds(self) -> tuple[int, ...]:
        """The per-row device seeds this job runs."""
        return fleet_seeds(self.seed, self.n_devices)


def _gain_id(name: str) -> int:
    try:
        return FLEET_GAIN_NAMES.index(name)
    except ValueError:
        raise ValueError(
            f"scalar trace gain set {name!r} is not representable in a "
            f"fleet trace (known: {FLEET_GAIN_NAMES})"
        ) from None


def _scalar_series(trace: ScenarioTrace, name: str):
    """One device series of a scalar trace, in fleet-trace encoding."""
    if name == "gain_ids":
        return [_gain_id(g) for g in trace.gain_sets]
    return getattr(trace, name)


def execute_fleet(job: FleetScenarioJob) -> FleetTrace:
    """Run one fleet job (the ``FleetScenarioJob`` runner).

    Clean rows advance together through the batched kernel; faulted
    rows run the scalar oracle with the same per-row seed; both are
    assembled into one :class:`FleetTrace`.
    """
    overrides, run_kwargs = split_overrides(job)
    systems = identified_systems()
    scenario = job.scenario or three_phase_scenario()
    workload = workload_by_name(job.workload)
    seeds = job.seeds()
    faulted = dict(job.device_faults)
    clean_rows = [
        row for row in range(job.n_devices) if row not in faulted
    ]

    fleet_trace: FleetTrace | None = None
    if clean_rows:
        fleet_trace = run_fleet_scenario(
            fleet_manager_factory(job.manager, systems, overrides),
            workload,
            scenario,
            seeds=[seeds[row] for row in clean_rows],
            **run_kwargs,
        )

    scalar_traces: dict[int, ScenarioTrace] = {}
    if faulted:
        scalar_factory = manager_factory(job.manager, systems, overrides)
        for row, fault in job.device_faults:
            scalar_traces[row] = run_scenario(
                scalar_factory,
                workload,
                scenario,
                seed=seeds[row],
                soc_setup=fault_setup(fault, seeds[row]),
                **run_kwargs,
            )

    if not faulted:
        assert fleet_trace is not None
        return fleet_trace

    # Splice scalar rows into the batched series.
    if fleet_trace is not None:
        steps = fleet_trace.times.shape[0]
        times = fleet_trace.times
        qos_reference = fleet_trace.qos_reference
        power_reference = fleet_trace.power_reference
        manager_name = fleet_trace.manager
    else:
        reference = scalar_traces[job.device_faults[0][0]]
        steps = reference.times.shape[0]
        times = reference.times
        qos_reference = reference.qos_reference
        power_reference = reference.power_reference
        manager_name = reference.manager
    arrays = {
        name: np.zeros(
            (steps, job.n_devices),
            dtype=np.int8 if name == "gain_ids" else float,
        )
        for name in _DEVICE_SERIES
    }
    for name, series in arrays.items():
        if fleet_trace is not None:
            series[:, clean_rows] = getattr(fleet_trace, name)
        for row, trace in scalar_traces.items():
            series[:, row] = _scalar_series(trace, name)

    return FleetTrace(
        manager=manager_name,
        workload=workload.name,
        scenario=scenario,
        seeds=seeds,
        times=times.copy(),
        qos_reference=qos_reference.copy(),
        power_reference=power_reference.copy(),
        **arrays,
    )
