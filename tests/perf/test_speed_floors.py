"""Speed floors: relative-throughput gates on the hot paths.

Each test times a fast path against its reference in the same process
and asserts a ratio, never an absolute time, so host speed cancels out.
The floors sit well below the ratios measured on a 2-CPU x86 box
(numpy 2.4.6); the measured value is quoted next to each floor.  The
benchmark suite (``benchmarks/suite/``) reports the absolute timings.
"""

from __future__ import annotations

import time

from repro.automata import synthesize_supervisor, verify_supervisor
from repro.core.scalable import (
    build_scalable_supervisor,
    scalable_alphabet,
    scalable_counter_plant,
    scalable_specification,
)
from repro.exec.fleet_jobs import fleet_seeds
from repro.experiments.figures import identified_systems, manager_factory
from repro.experiments.fleet import fleet_manager_factory, run_fleet_scenario
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import three_phase_scenario
from repro.workloads import x264
from tests.automata.explicit_oracle import (
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
    # Measured 4.5x.  Thorough warm-up matters: cold runs measure
    # interpreter and cache warm-up, not the kernel.
    rate = _scalar_rate("SPECTR", warmup=2, timed=5)
    speedup = rate / SPECTR_BASELINE_STEPS_PER_S
    assert speedup >= 2.0, (
        f"SPECTR hot path only {speedup:.2f}x the 69831b4 baseline "
        "(need 2.0x)"
    )


def test_fleet_kernel_aggregate_throughput():
    # MM-Perf device-steps/s at N=1000 against one scalar run of the
    # same scenario; measured 226x.
    n_devices = 1000
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
