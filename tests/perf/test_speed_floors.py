"""Speed floors: relative-throughput gates on the hot paths.

Each test times a fast path against its reference in the same process
and asserts a ratio, never an absolute time, so host speed cancels out.
The floors sit well below the ratios measured on a 2-CPU x86 box
(numpy 2.4.6); the measured value is quoted next to each floor.  The
benchmark suite (``benchmarks/suite/``) reports the absolute timings.
One memory gate rides along: the traced allocation peak of the fleet
10x2 fold does not depend on host speed, so it is bounded absolutely.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.automata import (
    compose_all,
    encode_automaton,
    encode_composition,
    supremal_fixpoint,
    synthesize_supervisor,
    verify_supervisor,
)
from repro.automata import symbolic
from repro.core.scalable import (
    build_scalable_supervisor,
    fleet_alphabet,
    fleet_plant_components,
    fleet_specification,
    scalable_alphabet,
    scalable_counter_plant,
    scalable_specification,
)
from repro.control import lqg
from repro.control.fused import fused_kernel, unavailable_reason
from repro.exec.fleet_jobs import fleet_seeds
from repro.experiments.figures import identified_systems, manager_factory
from repro.experiments.fleet import fleet_manager_factory, run_fleet_scenario
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import three_phase_scenario
from repro.managers.base import ManagerGoals
from repro.platform import soc as soc_module
from repro.platform.soc import ExynosSoC, SoCConfig, read_cluster_telemetry
from repro.workloads import x264
from tests.automata.explicit_oracle import (
    explicit_compose_all,
    explicit_synthesize_supervisor,
    explicit_verify_supervisor,
)

# The step-kernel protocol: the paper's three phases at 5 s each is
# 300 ticks of x264 at seed 2018.
STEPS = 300

# SPECTR steps/s on the scalar path at commit 69831b4, before the
# hot-path rework, measured with the protocol of the step-kernel test
# below (two warm-up runs, then best of five).
SPECTR_BASELINE_STEPS_PER_S = 2377.0


def _scenario():
    return three_phase_scenario(phase_duration_s=5.0)


def _best_rate(run, *, warmup: int, timed: int) -> float:
    """Best-of-``timed`` items/s after ``warmup`` untimed calls; ``run``
    returns the number of items it processed."""
    for _ in range(warmup):
        run()
    best = 0.0
    for _ in range(timed):
        start = time.perf_counter()
        items = run()
        best = max(best, items / (time.perf_counter() - start))
    return best


def _scalar_rate(manager: str, *, warmup: int, timed: int) -> float:
    factory = manager_factory(manager, identified_systems())
    scenario = _scenario()

    def run():
        trace = run_scenario(factory, x264(), scenario, seed=2018)
        assert len(trace.times) == STEPS
        return STEPS

    return _best_rate(run, warmup=warmup, timed=timed)


def _elapsed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_step_kernel_beats_pre_rework_baseline():
    # Measured 4.8x.  Thorough warm-up matters: cold runs measure
    # interpreter and cache warm-up, not the kernel.
    rate = _scalar_rate("SPECTR", warmup=2, timed=5)
    speedup = rate / SPECTR_BASELINE_STEPS_PER_S
    assert speedup >= 2.0, (
        f"SPECTR hot path only {speedup:.2f}x the 69831b4 baseline "
        "(need 2.0x)"
    )


def test_fleet_kernel_aggregate_throughput(monkeypatch):
    # MM-Perf device-steps/s at N=1000 against one scalar run of the
    # same scenario with the scalar servo forced onto its numpy step
    # and the scalar sensors onto their Python read — the reference
    # this floor was calibrated on (226x); measured 156x (median of 8,
    # 92-243x).  Against the scalar path with its compiled servo step
    # and sensor read the ratio is 31-79x, so that run is not the
    # reference.
    n_devices = 1000
    with monkeypatch.context() as patch:
        patch.setattr(lqg, "fused_kernel", lambda: None)
        patch.setattr(soc_module, "fused_kernel", lambda: None)
        scalar = _scalar_rate("MM-Perf", warmup=1, timed=3)
    factory = fleet_manager_factory("MM-Perf", identified_systems())
    scenario = _scenario()
    seeds = fleet_seeds(2018, n_devices)

    def run():
        trace = run_fleet_scenario(factory, x264(), scenario, seeds=seeds)
        assert trace.n_devices == n_devices
        return trace.times.shape[0] * n_devices

    speedup = _best_rate(run, warmup=1, timed=3) / scalar
    assert speedup >= 100.0, (
        f"fleet kernel at N={n_devices} only {speedup:.1f}x the scalar "
        "path (need 100x)"
    )


@pytest.mark.parametrize("manager", ["MM-Perf", "FS"])
def test_scalar_servo_kernel_beats_numpy_step(manager):
    # One LQGServoController.step on the compiled kernel against the
    # numpy reference step of the same servo, same measurement;
    # measured 5.4x for a cluster 2x2 servo (MM-Perf's big cluster)
    # and 5.0x for FS's 4x2 servo.
    if fused_kernel() is None:
        pytest.skip(unavailable_reason())
    soc = ExynosSoC(config=SoCConfig(seed=2018))
    built = manager_factory(manager, identified_systems())(
        soc, ManagerGoals(60.0, 5.0)
    )
    servo = getattr(built, "controller", None) or built.big_mimo.controller
    assert servo.fused_reason is None
    measured = servo.operating_point.y.tolist()
    steps = 2000

    def stepper(step):
        def run():
            for _ in range(steps):
                step(measured)
            return steps

        return run

    fused = _best_rate(stepper(servo.step), warmup=1, timed=5)
    numpy_step = _best_rate(stepper(servo._step_numpy), warmup=1, timed=5)
    speedup = fused / numpy_step
    assert speedup >= 2.0, (
        f"compiled {manager} servo step only {speedup:.2f}x the numpy "
        "step (need 2x)"
    )


def test_scalar_sensor_kernel_beats_python_read():
    # read_cluster_telemetry on the big cluster through the compiled
    # telemetry kernel against the Python reference read of the same
    # cluster; measured 2.0-3.3x.  The forms alternate, and each
    # keeps its best of 3 after a warm-up round.
    if fused_kernel() is None:
        pytest.skip(unavailable_reason())
    cluster = ExynosSoC(config=SoCConfig(seed=2018)).big
    compiled = cluster.compiled_sensors()
    assert compiled is not None
    rng = np.random.default_rng(2018)
    reads = 4000

    def form(sensors):
        def run():
            cluster._sensors = sensors
            for _ in range(reads):
                read_cluster_telemetry(cluster, 3.0, rng)
            return reads

        return run

    best = {True: 0.0, False: 0.0}
    try:
        for attempt in range(4):
            for use_kernel in best:
                rate = _best_rate(
                    form(compiled if use_kernel else None), warmup=0, timed=1
                )
                if attempt:
                    best[use_kernel] = max(best[use_kernel], rate)
    finally:
        cluster._sensors = compiled
    speedup = best[True] / best[False]
    assert speedup >= 1.5, (
        f"compiled sensor read only {speedup:.2f}x the Python read "
        "(need 1.5x)"
    )


def test_symbolic_verification_and_synthesis_beat_explicit_at_4x3():
    # Scalable 4 clusters x 3 budget levels, 2,268 plant states;
    # measured 34x for verification and 17x for synthesis.  The
    # symbolic calls run once untimed to warm the encoding memo and
    # numpy dispatch.
    sigma = scalable_alphabet(4)
    plant = scalable_counter_plant(4, 3, sigma)
    spec = scalable_specification(4, sigma)
    supervisor = build_scalable_supervisor(4).supervisor

    verify_supervisor(plant, supervisor)
    verify_speedup = _elapsed(
        explicit_verify_supervisor, plant, supervisor
    ) / _elapsed(verify_supervisor, plant, supervisor)

    synthesize_supervisor(plant, spec)
    synth_speedup = _elapsed(
        explicit_synthesize_supervisor, plant, spec
    ) / _elapsed(synthesize_supervisor, plant, spec)

    assert verify_speedup >= 3.0, (
        f"symbolic verification only {verify_speedup:.1f}x explicit "
        "(need 3x)"
    )
    assert synth_speedup >= 3.0, (
        f"symbolic synthesis only {synth_speedup:.1f}x explicit (need 3x)"
    )


def test_composition_beats_edge_at_a_time_oracle_at_fleet_3x2():
    # compose_all over the fleet 3x2 plant factors (1,568 states,
    # 11,312 transitions) against the oracle's edge-at-a-time fold of
    # the same factors; measured 6.8x (6.3–10.3x over 5 runs).
    components = fleet_plant_components(3, 2, fleet_alphabet(3))

    def fold(compose):
        def run():
            compose(components)
            return 1

        return run

    speedup = _best_rate(fold(compose_all), warmup=1, timed=3) / _best_rate(
        fold(explicit_compose_all), warmup=1, timed=3
    )
    assert speedup >= 2.0, (
        f"compose_all only {speedup:.2f}x the explicit oracle fold (need 2x)"
    )


def test_pair_grid_beats_sorted_keys_on_fleet_10x2_fold(monkeypatch):
    # encode_composition + supremal_fixpoint over the fleet 10x2 plant
    # factors, where every product takes the bool pair grid, against the
    # same two stages forced onto the sorted-key form; measured
    # 1.36-1.48x.  Each stage alternates between the forms and keeps its
    # best of 3 after a warm-up round, so a noisy stretch of the host
    # slows both forms rather than one.
    sigma = fleet_alphabet(10)
    components = fleet_plant_components(10, 2, sigma)
    spec = encode_automaton(fleet_specification(10, sigma))

    def stage_seconds(grid):
        """Seconds of the encode and the fixpoint stage on one form."""
        with monkeypatch.context() as patch:
            if not grid:
                patch.setattr(symbolic, "_grid_fits", lambda left, right: False)
            start = time.perf_counter()
            plant = encode_composition(components)
            encoded = time.perf_counter()
            fixpoint = supremal_fixpoint(plant, spec)
            done = time.perf_counter()
        assert fixpoint.n_supervisor_states == 102_400
        return encoded - start, done - encoded

    best = {True: (float("inf"),) * 2, False: (float("inf"),) * 2}
    for attempt in range(4):
        for grid in best:
            seconds = stage_seconds(grid)
            if attempt:
                best[grid] = tuple(map(min, best[grid], seconds))
    speedup = sum(best[False]) / sum(best[True])
    assert speedup >= 1.3, (
        f"pair grid fold only {speedup:.2f}x the sorted-key fold (need 1.3x)"
    )


def test_fleet_10x2_fold_memory_peak():
    # Traced allocation peak of encode_composition + supremal_fixpoint
    # over the fleet 10x2 plant factors: 124 MiB with int64 index
    # arrays, 69 MiB with the kernel's int32 ones (numpy 2.4.6).  The
    # bound sits between the two, so going back to int64 index arrays
    # fails it.
    sigma = fleet_alphabet(10)
    components = fleet_plant_components(10, 2, sigma)
    spec_model = fleet_specification(10, sigma)
    tracemalloc.start()
    try:
        plant = encode_composition(components)
        fixpoint = supremal_fixpoint(plant, encode_automaton(spec_model))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fixpoint.n_supervisor_states == 102_400
    peak_mib = peak / 2**20
    assert peak_mib <= 96.0, (
        f"fleet 10x2 fold peaked at {peak_mib:.1f} MiB traced (bound 96)"
    )
