"""The default job runner: one seeded scenario execution.

Translates a plain-data :class:`~repro.exec.job.ScenarioJob` into a
:func:`repro.experiments.runner.run_scenario` call — rebuilding the
manager factory (closures do not pickle), looking up the workload by
name, and wiring any fault spec into the SoC setup hook.  Runs
identically in the parent process and in spawned workers; all model
inputs come from the process-local design caches, which the engine
pre-seeds from the artifact cache (:mod:`repro.exec.artifacts`).

Recognized ``overrides`` keys:

``supervisor_period_epochs``, ``enable_gain_scheduling``,
``enable_reference_regulation``, ``manager_name``
    SPECTR construction parameters (ablation studies).
``initial_big_frequency``, ``initial_little_frequency``
    Initial operating point passed to ``run_scenario``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.exec.job import FaultSpec, ScenarioJob
from repro.experiments.figures import (
    IdentifiedSystems,
    case_study_supervisor,
    identified_systems,
    manager_factory,
)
from repro.experiments.runner import ScenarioTrace, run_scenario
from repro.experiments.scenario import three_phase_scenario
from repro.platform.faults import (
    inject_actuator_fault,
    inject_power_sensor_fault,
)
from repro.workloads import QoSWorkload, all_qos_workloads

__all__ = [
    "build_manager_factory",
    "build_soc_setup",
    "execute",
    "fault_setup",
    "spectr_override_factory",
    "workload_by_name",
]

_SPECTR_KEYS = (
    "supervisor_period_epochs",
    "enable_gain_scheduling",
    "enable_reference_regulation",
    "manager_name",
)
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


def spectr_override_factory(
    manager_cls, systems: IdentifiedSystems, params: dict[str, Any]
):
    """Factory for ``manager_cls`` (``SPECTRManager`` or its fleet
    mirror) built with the SPECTR overrides in ``params``; ``None`` when
    ``params`` names none of them."""
    kwargs = {
        ("name" if key == "manager_name" else key): params[key]
        for key in _SPECTR_KEYS
        if key in params
    }
    if not kwargs:
        return None
    supervisor = case_study_supervisor()

    def factory(device, goals):
        return manager_cls(
            device,
            goals,
            big_system=systems.big,
            little_system=systems.little,
            verified_supervisor=supervisor,
            **kwargs,
        )

    return factory


def build_manager_factory(
    name: str, systems: IdentifiedSystems, params: dict[str, Any]
):
    """Manager factory for a job, honoring SPECTR ablation overrides."""
    if name == "SPECTR":
        from repro.managers.spectr import SPECTRManager

        factory = spectr_override_factory(SPECTRManager, systems, params)
        if factory is not None:
            return factory
    return manager_factory(name, systems)


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


def execute(job: ScenarioJob) -> ScenarioTrace:
    """Run one scenario job to a :class:`ScenarioTrace` (the default
    ``job.runner``)."""
    params = job.params()
    unknown = set(params) - set(_SPECTR_KEYS) - set(_RUN_KEYS)
    if unknown:
        raise ValueError(
            f"unrecognized override keys {sorted(unknown)} for runner "
            "repro.exec.scenario_jobs.execute"
        )
    systems = identified_systems()
    scenario = job.scenario or three_phase_scenario()
    run_kwargs = {key: params[key] for key in _RUN_KEYS if key in params}
    return run_scenario(
        build_manager_factory(job.manager, systems, params),
        workload_by_name(job.workload),
        scenario,
        seed=job.seed,
        soc_setup=build_soc_setup(job),
        **run_kwargs,
    )
