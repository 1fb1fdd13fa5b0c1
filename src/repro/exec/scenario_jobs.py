"""The default job runner: one seeded scenario execution.

Translates a plain-data :class:`~repro.exec.job.ScenarioJob` into a
:func:`repro.experiments.runner.run_scenario` call — rebuilding the
manager factory (closures do not pickle), looking up the workload by
name, and wiring any fault spec into the SoC setup hook.  Every sweep
and ablation cell runs here, in the parent process or in a spawned
worker alike; the identified models come from the committed design
files and each process derives the supervisor once
(:func:`repro.experiments.figures.case_study_supervisor`).  The fault
campaign's runner injects its faults through the same
:func:`fault_setup`.

Recognized ``overrides`` keys:

``supervisor_period_epochs``, ``enable_gain_scheduling``,
``enable_reference_regulation``, ``manager_name``
    SPECTR construction parameters (ablation studies), passed to
    :func:`repro.experiments.figures.manager_factory`.
``initial_big_frequency``, ``initial_little_frequency``
    Initial operating point passed to ``run_scenario``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.exec.job import FaultSpec, ScenarioJob
from repro.experiments.figures import identified_systems, manager_factory
from repro.experiments.runner import ScenarioTrace, run_scenario
from repro.experiments.scenario import three_phase_scenario
from repro.platform.faults import (
    inject_actuator_fault,
    inject_power_sensor_fault,
)
from repro.workloads import QoSWorkload, all_qos_workloads

__all__ = [
    "build_soc_setup",
    "execute",
    "fault_setup",
    "split_overrides",
    "workload_by_name",
]

_RUN_KEYS = ("initial_big_frequency", "initial_little_frequency")


def workload_by_name(name: str) -> QoSWorkload:
    """Look up one of the paper's eight QoS workloads by name."""
    workloads = {workload.name: workload for workload in all_qos_workloads()}
    try:
        return workloads[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(workloads)}"
        ) from None


def fault_setup(fault: FaultSpec, seed: int) -> Callable[[Any], None]:
    """SoC setup hook injecting ``fault`` into a device seeded ``seed``."""

    def setup(soc) -> None:
        if fault.fault_class == "sensor":
            inject_power_sensor_fault(soc, fault.target, fault.build())
        else:
            inject_actuator_fault(soc, fault.target, fault.build(), seed=seed)

    return setup


def build_soc_setup(job: ScenarioJob) -> Callable[[Any], None] | None:
    """SoC setup hook injecting the job's fault, if any."""
    if job.fault is None:
        return None
    return fault_setup(job.fault, job.seed)


def split_overrides(
    job: ScenarioJob,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """A job's overrides as (SPECTR overrides, ``run_scenario``
    keywords).  The manager factory rejects any key left over that is
    not a SPECTR override."""
    params = job.params()
    run_kwargs = {key: params.pop(key) for key in _RUN_KEYS if key in params}
    return params, run_kwargs


def execute(job: ScenarioJob) -> ScenarioTrace:
    """Run one scenario job to a :class:`ScenarioTrace` (the default
    ``job.runner``)."""
    overrides, run_kwargs = split_overrides(job)
    scenario = job.scenario or three_phase_scenario()
    return run_scenario(
        manager_factory(job.manager, identified_systems(), overrides),
        workload_by_name(job.workload),
        scenario,
        seed=job.seed,
        soc_setup=build_soc_setup(job),
        **run_kwargs,
    )
