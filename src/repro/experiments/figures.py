"""Per-figure data generation.

One function per figure of the paper's evaluation; each returns a small
result object carrying both the raw series and a ``format_text()``
rendering that prints the same rows/series the paper plots.  The
benchmark harness under ``benchmarks/`` calls these.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.control.complexity import operations_sweep, spectr_operations
from repro.control.metrics import settling_time
from repro.control.residuals import ResidualAnalysis, analyze_residuals
from repro.control.sysid import fit_percent
from repro.core.synthesis_flow import VerifiedSupervisor, build_case_study_supervisor
from repro.experiments.runner import ScenarioTrace, run_scenario
from repro.experiments.scenario import Scenario, three_phase_scenario
from repro.managers.base import ManagerGoals
from repro.managers.bundle import load_design, save_design
from repro.managers.fs import FullSystemMIMO
from repro.managers.identification import (
    IdentifiedSystem,
    identify_big_cluster,
    identify_full_system,
    identify_little_cluster,
    identify_percore_system,
)
from repro.managers.mimo import POWER_GAINS, QOS_GAINS, ClusterMIMO
from repro.managers.mm import mm_perf, mm_pow
from repro.managers.spectr import SPECTRManager
from repro.platform.soc import ExynosSoC, SoCConfig
from repro.workloads import all_qos_workloads, x264

MANAGER_NAMES = ("FS", "MM-Perf", "MM-Pow", "SPECTR")


@dataclass
class IdentifiedSystems:
    """The identified models every manager build needs (cached)."""

    big: IdentifiedSystem
    little: IdentifiedSystem
    full: IdentifiedSystem
    percore: IdentifiedSystem | None = None


_SYSTEMS_CACHE: IdentifiedSystems | None = None
_SUPERVISOR_CACHE: VerifiedSupervisor | None = None

# The committed design-flow output (scripts/make_model_artifacts.py).
DESIGN_DIR = Path(__file__).resolve().parents[3] / "artifacts" / "design"


def identified_systems(*, with_percore: bool = False) -> IdentifiedSystems:
    """The committed big, little and full models, loaded once per process.

    ``DESIGN_DIR`` holds them with the gain libraries the four managers
    design from them, so no process identifies or designs, and every
    host runs the same bits.  The per-core 10x10 model (Figures 5 and
    15) is identified on demand.
    """
    global _SYSTEMS_CACHE
    if _SYSTEMS_CACHE is None:
        _SYSTEMS_CACHE = IdentifiedSystems(**load_design(DESIGN_DIR))
    if with_percore and _SYSTEMS_CACHE.percore is None:
        _SYSTEMS_CACHE.percore = identify_percore_system()
    return _SYSTEMS_CACHE


def write_design(directory: Path) -> None:
    """Identify the three models afresh, design on each the gain
    libraries the four managers build, and write them to ``directory``
    (``scripts/make_model_artifacts.py`` writes ``DESIGN_DIR``)."""
    systems = IdentifiedSystems(
        big=identify_big_cluster(),
        little=identify_little_cluster(),
        full=identify_full_system(),
    )
    soc = ExynosSoC(qos_app=x264())
    for name in MANAGER_NAMES:
        manager_factory(name, systems)(soc, ManagerGoals(60.0, 5.0))
    roles = {"big": systems.big, "little": systems.little, "full": systems.full}
    save_design(roles, directory)


def case_study_supervisor() -> VerifiedSupervisor:
    """The verified case-study supervisor, derived once per process.

    Runs synthesis and then verification
    (:func:`~repro.core.synthesis_flow.build_case_study_supervisor`),
    which raises :class:`~repro.core.synthesis_flow.SynthesisFlowError`
    if the supervisor fails it, so every process verifies the
    supervisor it deploys.
    """
    global _SUPERVISOR_CACHE
    if _SUPERVISOR_CACHE is None:
        _SUPERVISOR_CACHE = build_case_study_supervisor()
    return _SUPERVISOR_CACHE


# SPECTR construction overrides (the ablation studies' variants);
# ``manager_name`` renames the manager.
_SPECTR_KEYS = (
    "supervisor_period_epochs",
    "enable_gain_scheduling",
    "enable_reference_regulation",
    "manager_name",
)


def spectr_kwargs(manager: str, overrides: dict | None) -> dict:
    """SPECTR constructor keywords for ``overrides`` on ``manager``.

    An unknown key raises :class:`ValueError`, and so does any key on a
    manager other than SPECTR: it would be ignored, yet its job would
    digest, and cache, as a cell of its own.
    """
    overrides = overrides or {}
    if overrides and manager != "SPECTR":
        raise ValueError(
            f"SPECTR overrides {sorted(overrides)} given for manager "
            f"{manager!r}; only SPECTR takes them"
        )
    unknown = set(overrides) - set(_SPECTR_KEYS)
    if unknown:
        raise ValueError(
            f"unknown SPECTR overrides {sorted(unknown)}; "
            f"choose from {_SPECTR_KEYS}"
        )
    return {
        ("name" if key == "manager_name" else key): value
        for key, value in overrides.items()
    }


def manager_factory(
    name: str, systems: IdentifiedSystems, overrides: dict | None = None
):
    """Factory for :func:`~repro.experiments.runner.run_scenario`.

    ``overrides`` maps SPECTR construction keys (``_SPECTR_KEYS``) to
    values; other managers reject them (:func:`spectr_kwargs`).
    """
    kwargs = spectr_kwargs(name, overrides)
    if name == "MM-Perf":
        return lambda soc, goals: mm_perf(
            soc, goals, big_system=systems.big, little_system=systems.little
        )
    if name == "MM-Pow":
        return lambda soc, goals: mm_pow(
            soc, goals, big_system=systems.big, little_system=systems.little
        )
    if name == "FS":
        return lambda soc, goals: FullSystemMIMO(soc, goals, system=systems.full)
    if name == "SPECTR":
        supervisor = case_study_supervisor()
        return lambda soc, goals: SPECTRManager(
            soc,
            goals,
            big_system=systems.big,
            little_system=systems.little,
            verified_supervisor=supervisor,
            **kwargs,
        )
    raise ValueError(f"unknown manager {name!r}")


# ----------------------------------------------------------------------
# Figure 3: fixed-priority MIMOs cannot serve changing goals
# ----------------------------------------------------------------------
@dataclass
class Fig3Result:
    """FPS/power traces of the two fixed-priority controllers."""

    times: np.ndarray
    fps_oriented: dict[str, np.ndarray]
    power_oriented: dict[str, np.ndarray]
    fps_reference: float
    power_reference: float

    def format_text(self) -> str:
        def tail(series: np.ndarray) -> float:
            return float(series[-40:].mean())

        lines = [
            "Figure 3 - x264 on the Big cluster under 2x2 MIMOs with "
            "opposite output priorities",
            f"references: {self.fps_reference:.0f} FPS, "
            f"{self.power_reference:.1f} W (not jointly trackable)",
            f"(a) FPS-oriented:   FPS {tail(self.fps_oriented['fps']):5.1f}"
            f"  power {tail(self.fps_oriented['power']):4.2f} W"
            "   <- tracks FPS, power off-reference",
            f"(b) power-oriented: FPS {tail(self.power_oriented['fps']):5.1f}"
            f"  power {tail(self.power_oriented['power']):4.2f} W"
            "   <- tracks power, FPS off-reference",
        ]
        return "\n".join(lines)


def fig3_conflicting_goals(
    *,
    fps_reference: float = 75.0,
    big_power_reference: float = 4.0,
    duration_s: float = 8.0,
    seed: int = 2018,
) -> Fig3Result:
    """Reproduce Figure 3's conflict on the simulated Big cluster.

    The reference pair is chosen so each target is individually
    trackable on this platform but not jointly (the paper's 60 FPS /
    5 W pair plays that role on the real Exynos).
    """
    systems = identified_systems()
    runs: dict[str, dict[str, np.ndarray]] = {}
    steps = int(duration_s / 0.05)
    times = np.arange(steps) * 0.05
    for gain_set in (QOS_GAINS, POWER_GAINS):
        soc = ExynosSoC(qos_app=x264(), config=SoCConfig(seed=seed))
        soc.big.set_frequency(1.0)
        soc.little.set_frequency(soc.little.opps.min_frequency)
        mimo = ClusterMIMO.build(
            soc.big, systems.big, initial_gains=gain_set
        )
        mimo.set_references(fps_reference, big_power_reference)
        fps = np.zeros(steps)
        power_w = np.zeros(steps)
        for k in range(steps):
            telemetry = soc.step()
            mimo.step(telemetry.qos_rate, telemetry.big.power_w)
            fps[k] = telemetry.qos_rate
            power_w[k] = telemetry.big.power_w
        runs[gain_set] = {"fps": fps, "power": power_w}
    return Fig3Result(
        times=times,
        fps_oriented=runs[QOS_GAINS],
        power_oriented=runs[POWER_GAINS],
        fps_reference=fps_reference,
        power_reference=big_power_reference,
    )


# ----------------------------------------------------------------------
# Figure 5: identified-model accuracy, 2x2 vs 10x10
# ----------------------------------------------------------------------
@dataclass
class Fig5Result:
    """Predicted-vs-measured (normalized) output for two model sizes.

    ``*_fits`` holds the per-output NRMSE fit (%) on cross-validation
    data; the displayed series is each system's *worst* output — for
    the 2x2 that is still an acceptable channel, for the 10x10 it is a
    per-core channel the black-box identification cannot capture
    (Section 2.2: the model must be identified "without any knowledge
    of subsystems").
    """

    small_predicted: np.ndarray
    small_measured: np.ndarray
    small_fits: np.ndarray
    large_predicted: np.ndarray
    large_measured: np.ndarray
    large_fits: np.ndarray

    @property
    def small_fit_percent(self) -> float:
        """Worst-output fit of the 2x2 model."""
        return float(np.min(self.small_fits))

    @property
    def large_fit_percent(self) -> float:
        """Worst-output fit of the 10x10 model."""
        return float(np.min(self.large_fits))

    def format_text(self) -> str:
        return "\n".join(
            [
                "Figure 5 - accuracy of identified models "
                "(cross-validation data, worst output channel)",
                f"2x2 cluster model:     worst-output fit "
                f"{self.small_fit_percent:6.1f}%  "
                f"(per-output: {np.round(self.small_fits, 1).tolist()})",
                f"10x10 multicluster:    worst-output fit "
                f"{self.large_fit_percent:6.1f}%",
                "(the 2x2 tracks the measured output; the 10x10 deviates "
                "significantly, as in the paper)",
            ]
        )


def fig5_model_accuracy() -> Fig5Result:
    """Compare one-step predictions of the 2x2 and 10x10 models."""
    systems = identified_systems(with_percore=True)
    assert systems.percore is not None

    def predict(system: IdentifiedSystem):
        # Cross-validation data, as in the paper: the model never saw
        # this excitation (different staircase levels and noise seed).
        u, y = system.u_validation, system.y_validation
        model = system.identification.model
        yhat = model.predict_one_step(u, y)
        lag = max(model.na, model.nb)
        measured = y[lag:]
        predicted = yhat[lag:]
        fits = fit_percent(measured, predicted)
        worst = int(np.argmin(fits))
        return predicted[:, worst], measured[:, worst], fits

    sp, sm, sfits = predict(systems.big)
    lp, lm, lfits = predict(systems.percore)
    return Fig5Result(
        small_predicted=sp,
        small_measured=sm,
        small_fits=sfits,
        large_predicted=lp,
        large_measured=lm,
        large_fits=lfits,
    )


# ----------------------------------------------------------------------
# Figure 6: LQG operation count vs core count
# ----------------------------------------------------------------------
@dataclass
class Fig6Result:
    """Multiply-add counts per invocation for monolithic LQG."""

    core_counts: tuple[int, ...]
    orders: tuple[int, ...]
    operations: dict[int, dict[int, int]]
    spectr_ops: dict[int, int]

    def format_text(self) -> str:
        header = "cores " + " ".join(f"order-{o:<2d}" for o in self.orders)
        lines = [
            "Figure 6 - multiply-add operations per monolithic-LQG "
            "invocation",
            header + "  SPECTR(modular)",
        ]
        for cores in self.core_counts:
            row = f"{cores:5d} " + " ".join(
                f"{self.operations[o][cores]:8d}" for o in self.orders
            )
            lines.append(row + f"  {self.spectr_ops[cores]:8d}")
        return "\n".join(lines)


def fig6_operation_count(
    core_counts: tuple[int, ...] = (10, 20, 30, 40, 50, 60, 70),
    orders: tuple[int, ...] = (2, 4, 8),
) -> Fig6Result:
    """Reproduce the op-count blow-up of a single many-core MIMO."""
    operations = operations_sweep(list(core_counts), list(orders))
    spectr = {
        cores: spectr_operations(cores, orders[0]) for cores in core_counts
    }
    return Fig6Result(
        core_counts=core_counts,
        orders=orders,
        operations=operations,
        spectr_ops=spectr,
    )


# ----------------------------------------------------------------------
# Figure 12: supervisor synthesis for the case study
# ----------------------------------------------------------------------
@dataclass
class Fig12Result:
    verified: VerifiedSupervisor

    def format_text(self) -> str:
        return (
            "Figure 12 - supervisor synthesis (plant || -> spec -> "
            "synthesis -> checks)\n" + self.verified.summary()
        )


def fig12_synthesis() -> Fig12Result:
    """Build, synthesize and verify the case-study supervisor."""
    return Fig12Result(verified=build_case_study_supervisor())


# ----------------------------------------------------------------------
# Figure 13: traces of all four managers, x264, three phases
# ----------------------------------------------------------------------
@dataclass
class Fig13Result:
    traces: dict[str, ScenarioTrace]

    def format_text(self) -> str:
        lines = [
            "Figure 13 - measured FPS and power, x264, three 5s phases"
        ]
        for name, trace in self.traces.items():
            for i, pm in enumerate(trace.phase_metrics()):
                lines.append(
                    f"{name:8s} phase {i + 1} ({pm.phase.name:11s}): "
                    f"FPS {pm.qos.mean:5.1f} (ref {pm.phase.qos_reference:.0f}) "
                    f"power {pm.power.mean:4.2f} W "
                    f"(ref {pm.phase.power_budget_w:.1f})"
                )
        return "\n".join(lines)


def fig13_traces(
    *, seed: int = 2018, scenario: Scenario | None = None
) -> Fig13Result:
    """Run the headline x264 scenario for all four managers."""
    systems = identified_systems()
    scenario = scenario or three_phase_scenario()
    traces = {
        name: run_scenario(
            manager_factory(name, systems), x264(), scenario, seed=seed
        )
        for name in MANAGER_NAMES
    }
    return Fig13Result(traces=traces)


# ----------------------------------------------------------------------
# Figure 14: steady-state error, all benchmarks x managers x phases
# ----------------------------------------------------------------------
@dataclass
class Fig14Result:
    """``errors[phase][metric][workload][manager]`` in percent."""

    workloads: tuple[str, ...]
    managers: tuple[str, ...]
    errors: dict[int, dict[str, dict[str, dict[str, float]]]]

    def format_text(self) -> str:
        lines = ["Figure 14 - steady-state error (%) by phase"]
        for phase_index in sorted(self.errors):
            for metric in ("qos", "power"):
                lines.append(
                    f"-- phase {phase_index + 1}, {metric} "
                    "(negative = exceeds reference) --"
                )
                header = f"{'benchmark':16s}" + "".join(
                    f"{m:>9s}" for m in self.managers
                )
                lines.append(header)
                table = self.errors[phase_index][metric]
                for workload in self.workloads:
                    row = f"{workload:16s}" + "".join(
                        f"{table[workload][m]:9.1f}" for m in self.managers
                    )
                    lines.append(row)
        return "\n".join(lines)


def fig14_steady_state(
    *,
    seed: int = 2018,
    workload_names: tuple[str, ...] | None = None,
    managers: tuple[str, ...] = MANAGER_NAMES,
    reference_fraction: float = 0.75,
) -> Fig14Result:
    """Steady-state error sweep over the full benchmark suite.

    Each application gets its own QoS reference ("the user provides a
    performance reference value using the Heartbeats API"):
    ``reference_fraction`` of its peak rate, which is achievable within
    TDP in the Safe phase — 60 FPS for x264, scaled accordingly for the
    others — except where a serial phase (canneal, k-means) temporarily
    caps the attainable rate, reproducing the paper's exceptions.
    """
    systems = identified_systems()
    workloads = [
        w
        for w in all_qos_workloads()
        if workload_names is None or w.name in workload_names
    ]
    n_phases = 3
    errors: dict[int, dict[str, dict[str, dict[str, float]]]] = {
        i: {"qos": {}, "power": {}} for i in range(n_phases)
    }
    for workload in workloads:
        scenario = three_phase_scenario(
            qos_reference=reference_fraction * workload.peak_rate
        )
        for phase_errors in errors.values():
            phase_errors["qos"][workload.name] = {}
            phase_errors["power"][workload.name] = {}
        for manager in managers:
            trace = run_scenario(
                manager_factory(manager, systems),
                workload,
                scenario,
                seed=seed,
            )
            for i, pm in enumerate(trace.phase_metrics()):
                errors[i]["qos"][workload.name][manager] = (
                    pm.qos.steady_state_error_percent
                )
                errors[i]["power"][workload.name][manager] = (
                    pm.power.steady_state_error_percent
                )
    return Fig14Result(
        workloads=tuple(w.name for w in workloads),
        managers=managers,
        errors=errors,
    )


# ----------------------------------------------------------------------
# Figure 15: residual autocorrelation across model sizes
# ----------------------------------------------------------------------
@dataclass
class Fig15Result:
    analyses: dict[str, list[ResidualAnalysis]]

    def format_text(self) -> str:
        lines = [
            "Figure 15 - autocorrelation of validation residuals "
            "(99% confidence interval)"
        ]
        for name, channel_analyses in self.analyses.items():
            worst = max(a.max_excursion for a in channel_analyses)
            violations = sum(a.violations for a in channel_analyses)
            lines.append(
                f"{name:16s} worst excursion {worst:4.2f}x bound, "
                f"{violations:3d} lag violations across "
                f"{len(channel_analyses)} channels"
            )
        lines.append(
            "(excursions grow with system size: the 2x2 stays near the "
            "interval, the 10x10 violates it broadly)"
        )
        return "\n".join(lines)


def fig15_residual_autocorrelation(*, max_lag: int = 20) -> Fig15Result:
    """Residual whiteness for the 2x2 / 4x2 / 10x10 identified models."""
    systems = identified_systems(with_percore=True)
    assert systems.percore is not None
    return Fig15Result(
        analyses={
            "big-2x2": analyze_residuals(
                systems.big.validation_residuals, max_lag=max_lag
            ),
            "fs-4x2": analyze_residuals(
                systems.full.validation_residuals, max_lag=max_lag
            ),
            "percore-10x10": analyze_residuals(
                systems.percore.validation_residuals, max_lag=max_lag
            ),
        }
    )


# ----------------------------------------------------------------------
# Section 5.1.1: settling time of the Emergency Phase power step
# ----------------------------------------------------------------------
@dataclass
class SettlingTimeResult:
    settling_times_s: dict[str, float]

    def format_text(self) -> str:
        lines = [
            "Section 5.1.1 - power settling time after the Emergency "
            "Phase step (x264)"
        ]
        for name, value in self.settling_times_s.items():
            lines.append(f"{name:8s} {value:5.2f} s")
        if {"FS", "SPECTR"} <= set(self.settling_times_s):
            ratio = (
                self.settling_times_s["FS"]
                / self.settling_times_s["SPECTR"]
            )
            lines.append(
                f"FS / SPECTR ratio: {ratio:4.2f}x "
                "(paper: 2.07 s vs 1.28 s = 1.62x)"
            )
        return "\n".join(lines)


def settling_time_comparison(
    *, seed: int = 2018, band: float = 0.08
) -> SettlingTimeResult:
    """Settling time of chip power after the phase-2 budget drop."""
    result = fig13_traces(seed=seed)
    settling: dict[str, float] = {}
    for name, trace in result.traces.items():
        sl = trace.phase_slice(1)
        settling[name] = settling_time(
            trace.times[sl], trace.chip_power[sl], band=band
        )
    return SettlingTimeResult(settling_times_s=settling)


# ----------------------------------------------------------------------
# Section 5.3: runtime overhead
# ----------------------------------------------------------------------
@dataclass
class OverheadResult:
    mimo_step_us: float
    supervisor_invocation_us: float
    gain_switch_us: float
    mimo_ops_per_invocation: int

    def format_text(self) -> str:
        return "\n".join(
            [
                "Section 5.3 - runtime overhead",
                f"MIMO controller step:      {self.mimo_step_us:8.1f} us "
                "(paper: 2.5 ms on the A7)",
                f"supervisor invocation:     {self.supervisor_invocation_us:8.1f} us "
                "(paper: ~30 us)",
                f"gain switch (pointer swap):{self.gain_switch_us:8.1f} us "
                "(paper: immediate, no overhead)",
                f"MIMO multiply-adds/invoke: {self.mimo_ops_per_invocation:8d}",
            ]
        )


def _fastest_call_us(call, repeats: int) -> float:
    """Wall-clock of the fastest of ``repeats`` timed calls ``call(i)``,
    in µs: a host stall slows one call, not the reported figure."""
    best = float("inf")
    for i in range(repeats):
        start = time.perf_counter()
        call(i)
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def overhead_measurements(*, repeats: int = 200) -> OverheadResult:
    """Wall-clock the controller and supervisor hot paths: each figure
    is the fastest single call out of ``repeats``."""
    systems = identified_systems()
    soc = ExynosSoC(qos_app=x264())
    goals = ManagerGoals(60.0, 5.0)
    manager = SPECTRManager(
        soc,
        goals,
        big_system=systems.big,
        little_system=systems.little,
        verified_supervisor=case_study_supervisor(),
    )
    telemetry = soc.step()
    mimo = manager.big_mimo

    mimo_us = _fastest_call_us(
        lambda _: mimo.step(telemetry.qos_rate, telemetry.big.power_w),
        repeats,
    )
    supervisor_us = _fastest_call_us(
        lambda _: manager._supervise(telemetry), repeats
    )
    qos_gains = mimo.library.get(QOS_GAINS)
    power_gains = mimo.library.get(POWER_GAINS)
    switch_us = _fastest_call_us(
        lambda i: mimo.controller.switch_gains(
            power_gains if i % 2 == 0 else qos_gains, bumpless=False
        ),
        repeats,
    )

    return OverheadResult(
        mimo_step_us=mimo_us,
        supervisor_invocation_us=supervisor_us,
        gain_switch_us=switch_us,
        mimo_ops_per_invocation=qos_gains.operations_per_invocation(),
    )
