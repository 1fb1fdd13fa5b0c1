"""The compiled plant tick equals the Python and numpy ticks, bit for bit.

``ExynosSoC.step`` and ``FleetPlatform.step`` run the QoS rate, both
busy clamps and both sensor reads as one ``plant_tick`` kernel call
wherever a memoized differential probe verified it for the SoC's or
fleet's content.  These tests drive both ticks over random states —
every OPP and active-core count, negative, zero and over-capacity
background demand, canneal's serial phase, no workload, a noise-free
workload and noise that spans both gain clamps — and pin every
fallback and its ``tick_reason``.  They also require the compiled tick
to run wherever the kernel builds, so a kernel the probe rejects fails
here rather than falling back quietly.
"""

from __future__ import annotations

import dataclasses
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.control.fused import MAX_SENSORS, fused_kernel, unavailable_reason
from repro.experiments.figures import (
    MANAGER_NAMES,
    identified_systems,
    manager_factory,
)
from repro.experiments.fleet import fleet_manager_factory, run_fleet_scenario
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import three_phase_scenario
from repro.platform import fleet as fleet_module
from repro.platform import soc as soc_module
from repro.platform.faults import (
    ActuatorFaultModel,
    FaultModel,
    inject_actuator_fault,
    inject_power_sensor_fault,
)
from repro.platform.fleet import FleetPlatform
from repro.platform.sensors import NoisySensor
from repro.platform.soc import ExynosSoC, SoCConfig
from repro.workloads import canneal, x264
from repro.workloads.base import QoSWorkload


@pytest.fixture(scope="module")
def kernel():
    k = fused_kernel()
    if k is None:
        pytest.skip(unavailable_reason())
    return k


def _quiet():
    return dataclasses.replace(x264(), variability=0.0)


def _wild():
    # 1 + 0.6 z leaves [0.5, 1.5] for |z| > 0.83: both clamps, often.
    return dataclasses.replace(x264(), variability=0.6)


# Every workload shape the tick serves.  canneal is serial until 6 s.
WORKLOADS = {
    "x264": x264,
    "canneal": canneal,
    "none": lambda: None,
    "quiet": _quiet,
    "wild": _wild,
}

# Background demands after placement: zero as the int sum() of no
# placed task and as the float of a tick with no placement, positive,
# over capacity and negative (a negative Big demand past the QoS threads
# makes the runnable count negative).
DEMANDS = [(0, 0), (0.0, 0.0), (1.5, 0.7), (13.0, 9.5), (-9.0, -1.25)]


class _Twin(QoSWorkload):
    """A QoSWorkload subclass: not exactly a QoSWorkload, so the SoC
    must tick in Python."""


def _wide_sensors(cluster, noise=0.9, resolution=0.01, floor=0.0):
    # Sensor noise 0.9 takes 1 + 0.9 z past both of the sensor gain's
    # clamps at 0 and 2; the resolution exercises the rounding.
    cluster.power_sensor = NoisySensor(
        f"{cluster.name}-power",
        noise_fraction=noise,
        resolution=resolution,
        floor=floor,
    )
    cluster.pmu_sensors = tuple(
        NoisySensor(
            f"{cluster.name}-pmu{i}",
            noise_fraction=noise,
            resolution=resolution,
            floor=floor,
        )
        for i in range(cluster.n_cores)
    )


def _soc(workload, seed, *, wide=False):
    soc = ExynosSoC(qos_app=WORKLOADS[workload](), config=SoCConfig(seed=seed))
    if wide:
        for cluster in soc.clusters():
            _wide_sensors(cluster)
    return soc


def _python_reads(soc):
    """Unbind both clusters' compiled sensor reads: the SoC's Python
    tick then reads in Python too."""
    for cluster in soc.clusters():
        cluster.compiled_sensors()
        cluster._sensors = None


def _set_state(soc, big_opp, big_active, little_opp, little_active):
    big_f = soc.big.opps.frequencies
    little_f = soc.little.opps.frequencies
    soc.big.set_frequency(big_f[big_opp % len(big_f)])
    soc.big.set_active_cores(big_active)
    soc.little.set_frequency(little_f[little_opp % len(little_f)])
    soc.little.set_active_cores(little_active)


def _bits(value) -> bytes:
    return struct.pack("=d", float(value))


def assert_same_tick(expected, got):
    (q_a, big_a, little_a), (q_b, big_b, little_b) = expected, got
    assert type(q_b) is type(q_a) is float
    assert _bits(q_b) == _bits(q_a), ("qos_raw", q_a, q_b)
    for a, b in ((big_a, big_b), (little_a, little_b)):
        assert b.frequency_ghz == a.frequency_ghz
        assert b.voltage_v == a.voltage_v
        assert b.active_cores == a.active_cores
        assert type(b.active_cores) is type(a.active_cores)
        assert _bits(b.busy_core_equivalents) == _bits(a.busy_core_equivalents)
        for name in ("power_w", "ips"):
            x, y = getattr(a, name), getattr(b, name)
            assert type(y) is type(x) is float, name
            assert _bits(y) == _bits(x), (name, x, y)
        assert b.per_core_ips.dtype == a.per_core_ips.dtype
        assert b.per_core_ips.tobytes() == a.per_core_ips.tobytes()


def _tick_pair(workload, seed, state, demands, now, *, wide=False):
    """One compiled and one Python tick from the same state and stream:
    the compiled SoC runs ``plant_tick``; its twin, seeded alike, runs
    the Python tick with Python sensor reads."""
    compiled = _soc(workload, seed, wide=wide)
    python = _soc(workload, seed, wide=wide)
    _python_reads(python)
    for soc in (compiled, python):
        _set_state(soc, *state)
    tick = compiled.compiled_tick()
    assert tick is not None, compiled.tick_reason
    got = compiled._plant_tick(tick, now, *demands)
    expected = python._python_plant(now, *demands)
    assert_same_tick(expected, got)
    # The same draws, in the same calls: both streams are at one place.
    assert compiled.rng.random() == python.rng.random()


class TestScalarTickMatchesPython:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_opp_and_core_count(self, kernel, workload):
        soc = _soc(workload, 1)
        n_big = len(soc.big.opps.frequencies)
        n_cores = soc.big.n_cores
        for case in range(n_big * n_cores):
            opp, active = divmod(case, n_cores)
            _tick_pair(
                workload,
                seed=case,
                state=(opp, active + 1, case, n_cores - active),
                demands=DEMANDS[case % len(DEMANDS)],
                # Inside canneal's serial phase on even cases, after it
                # on odd ones.
                now=0.05 * case if case % 2 == 0 else 6.0 + 0.05 * case,
            )

    @settings(max_examples=120, deadline=None)
    @given(
        workload=st.sampled_from(sorted(WORKLOADS)),
        seed=st.integers(0, 2**32 - 1),
        big_opp=st.integers(0, 100),
        big_active=st.integers(1, 4),
        little_opp=st.integers(0, 100),
        little_active=st.integers(1, 4),
        big_demand=st.floats(-12.0, 12.0, allow_nan=False),
        little_demand=st.floats(-6.0, 6.0, allow_nan=False),
        now=st.sampled_from([0.0, 2.0, 5.95, 6.0, 12.5]),
        wide=st.booleans(),
    )
    def test_random_states(
        self,
        kernel,
        workload,
        seed,
        big_opp,
        big_active,
        little_opp,
        little_active,
        big_demand,
        little_demand,
        now,
        wide,
    ):
        _tick_pair(
            workload,
            seed,
            (big_opp, big_active, little_opp, little_active),
            (big_demand, little_demand),
            now,
            wide=wide,
        )

    def test_qos_gain_spans_both_clamps(self, kernel):
        # Over many ticks of the wild workload the raw rate is clamped
        # at both ends of the gain; each tick still matches.
        compiled = _soc("wild", 7)
        python = _soc("wild", 7)
        _python_reads(python)
        tick = compiled.compiled_tick()
        assert tick is not None
        gains = []
        for step in range(200):
            now = 0.05 * step
            got = compiled._plant_tick(tick, now, 0.0, 0.0)
            expected = python._python_plant(now, 0.0, 0.0)
            assert_same_tick(expected, got)
            gains.append(got[0])
        rates = np.array(gains)
        assert rates.min() == pytest.approx(rates.max() / 3.0, rel=1e-12)

    @pytest.mark.parametrize("workload", ["x264", "canneal"])
    @pytest.mark.parametrize("manager", MANAGER_NAMES)
    def test_scenario_traces_match_the_python_tick(
        self, kernel, workload, manager, monkeypatch
    ):
        factory = manager_factory(manager, identified_systems())
        scenario = three_phase_scenario(phase_duration_s=1.0)
        socs = []
        compiled = run_scenario(
            factory,
            WORKLOADS[workload](),
            scenario,
            seed=11,
            soc_setup=socs.append,
        )
        assert socs[0].tick_reason is None
        with monkeypatch.context() as patch:
            patch.setattr(soc_module, "fused_kernel", lambda: None)
            reference = run_scenario(
                factory, WORKLOADS[workload](), scenario, seed=11
            )
        for field in (
            "qos",
            "chip_power",
            "big_power",
            "little_power",
            "big_frequency",
            "big_cores",
            "little_frequency",
            "little_cores",
        ):
            a = getattr(compiled, field)
            b = getattr(reference, field)
            assert a.tobytes() == b.tobytes(), field
        assert compiled.gain_sets == reference.gain_sets


class TestScalarFallbacks:
    def _assert_python_tick(self, soc, reason):
        assert soc.tick_reason == reason
        assert soc.compiled_tick() is None
        twin = _soc("x264", 5)
        # The SoC steps the Python tick: a twin stepped the same way
        # gives the same telemetry.
        twin.qos_app = soc.qos_app
        a, b = soc.step(), twin.step()
        assert a.qos_raw == b.qos_raw
        assert a.big.power_w == b.big.power_w

    def test_default_soc_runs_the_compiled_tick(self, kernel):
        for workload in WORKLOADS:
            soc = _soc(workload, 1)
            assert soc.tick_reason is None, workload
            assert soc.compiled_tick() is not None

    def test_missing_kernel(self, monkeypatch):
        monkeypatch.setattr(soc_module, "fused_kernel", lambda: None)
        monkeypatch.setattr(soc_module, "unavailable_reason", lambda: "gone")
        soc = _soc("x264", 5)
        self._assert_python_tick(soc, "gone")

    def test_workload_subclass(self, kernel):
        soc = _soc("x264", 5)
        soc.qos_app = _Twin(**dataclasses.asdict(x264()))
        assert soc.tick_reason == "workload is a _Twin, not a QoSWorkload"
        soc.qos_app = x264()
        assert soc.tick_reason is None

    def test_faulted_sensor(self, kernel):
        soc = _soc("x264", 5)
        inject_power_sensor_fault(
            soc, "big", FaultModel("spike", start_s=0.0, end_s=1.0)
        )
        assert soc.tick_reason == (
            "big sensors: sensors not plain NoisySensors with positive noise"
        )

    def test_time_aware_actuator_layer(self, kernel):
        soc = _soc("x264", 5)
        inject_actuator_fault(
            soc,
            "little",
            ActuatorFaultModel(kind="reject", start_s=5.0, end_s=6.0),
            seed=1,
        )
        # The sensor read stays compiled; the tick does not, because it
        # would skip the layer's clock.
        assert soc.little.fused_reason is None
        assert soc.tick_reason == "little has time-aware instruments"
        soc.step()

    def test_idle_insertion_then_back(self, kernel):
        soc = _soc("x264", 5)
        soc.big.set_idle_fraction(2, 0.3)
        assert soc.tick_reason == "idle insertion"
        assert soc.compiled_tick() is None
        soc.step()
        soc.big.set_idle_fraction(2, 0.0)
        assert soc.tick_reason is None

    def test_probe_rejects_a_tick_that_differs(self, kernel, monkeypatch):
        original = soc_module.CompiledTick.run

        def broken(self, soc, now, big_demand, little_demand):
            qos, big, little = original(
                self, soc, now, big_demand, little_demand
            )
            big.per_core_ips[-1] = 0.0
            return qos, big, little

        monkeypatch.setattr(soc_module.CompiledTick, "run", broken)
        monkeypatch.setattr(soc_module, "_TICK_MEMO", {})
        assert _soc("x264", 5).tick_reason == "differential probe mismatch"

    def test_raising_probe_names_the_exception(self, kernel, monkeypatch):
        def raising(self, *args):
            raise RuntimeError("kernel call failed")

        monkeypatch.setattr(soc_module.CompiledTick, "run", raising)
        monkeypatch.setattr(soc_module, "_TICK_MEMO", {})
        soc = _soc("x264", 5)
        assert soc.tick_reason == "probe raised RuntimeError: kernel call failed"
        soc.step()

    def test_verdict_is_memoized_by_content(self, kernel, monkeypatch):
        _soc("x264", 1).compiled_tick()

        def no_probe(*args):
            raise AssertionError("content already probed")

        monkeypatch.setattr(soc_module, "_probe_tick", no_probe)
        assert _soc("x264", 2).tick_reason is None

    def test_swapped_workload_rebinds(self, kernel):
        soc = _soc("x264", 5)
        first = soc.compiled_tick()
        soc.qos_app = canneal()
        second = soc.compiled_tick()
        assert second is not None and second is not first
        assert second.qos_app is soc.qos_app

    def test_disabled_kernel_ticks_in_python_and_numpy(self):
        # The kernel's availability is decided once per process, so the
        # disabled case runs in a fresh interpreter.
        code = (
            "from repro.platform.fleet import FleetPlatform\n"
            "from repro.platform.soc import ExynosSoC\n"
            "from repro.workloads import x264\n"
            "soc = ExynosSoC(qos_app=x264())\n"
            "fleet = FleetPlatform(qos_app=x264(), seeds=(1,))\n"
            "soc.step(); fleet.step()\n"
            "print([soc.tick_reason, fleet.tick_reason])\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "REPRO_DISABLE_FUSED": "1", "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert result.stdout.strip() == "['disabled', 'disabled']"


# ----------------------------------------------------------------------
def _fleet(workload, n, seed=0):
    return FleetPlatform(
        qos_app=WORKLOADS[workload](), seeds=range(seed, seed + n)
    )


def _numpy_reference(fleet):
    """A fresh copy of ``fleet``'s content, for its numpy tick."""
    return FleetPlatform(
        qos_app=fleet.qos_app, seeds=fleet.seeds, config=fleet.config
    )


def _assert_same_fleet_tick(expected, got):
    q_a, big_a, little_a, chip_a = expected
    q_b, big_b, little_b, chip_b = got
    pairs = [("qos", q_a, q_b), ("chip", chip_a, chip_b)]
    for name, a, b in (("big", big_a, big_b), ("little", little_a, little_b)):
        for field in ("busy_core_equivalents", "power_w", "ips"):
            pairs.append(
                (f"{name}.{field}", getattr(a, field), getattr(b, field))
            )
    for name, a, b in pairs:
        assert np.shape(a) == np.shape(b), name
        assert (
            np.asarray(a, dtype=float).tobytes()
            == np.asarray(b, dtype=float).tobytes()
        ), name


def _fleet_states(fleet, rng, n_big_opps):
    n = fleet.n_devices
    cores = fleet.big.n_cores
    rows = np.arange(n)
    state = {
        "big_opp": rows // cores % n_big_opps,
        "big_active": (rows % cores + 1).astype(float),
        "little_opp": rng.integers(0, fleet.little.freq_table.size, n),
        "little_active": rng.integers(1, cores + 1, n).astype(float),
    }
    return state


def _apply(fleet, state):
    fleet.big.opp_idx[...] = state["big_opp"]
    fleet.big.active[...] = state["big_active"]
    fleet.little.opp_idx[...] = state["little_opp"]
    fleet.little.active[...] = state["little_active"]


class TestFleetTickMatchesNumpy:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
    def test_every_opp_and_core_count(self, kernel, workload, scale):
        probe = _fleet(workload, 1)
        n_opps = probe.big.freq_table.size
        n = n_opps * probe.big.n_cores
        fleet = _fleet(workload, n)
        reference = _numpy_reference(fleet)
        tick = fleet.compiled_tick()
        assert tick is not None, fleet.tick_reason
        rng = np.random.default_rng(int(scale * 1000) + len(workload))
        width = fleet._draws_per_tick
        spread = 2.0 * (fleet.big.n_cores + 1)
        for now in (0.0, 3.0, 6.0, 9.5):
            for placed in (False, True):
                state = _fleet_states(fleet, rng, n_opps)
                for platform in (fleet, reference):
                    _apply(platform, state)
                demands = (0.0, 0.0)
                if placed:
                    demands = tuple(rng.uniform(-spread, spread, (2, n)))
                    demands[0][::7] = 0.0
                z = rng.standard_normal((n, width)) * scale
                fleet._noise_buf[:, width : 2 * width] = z
                reference._noise_buf[:, :width] = z
                got = tick.run(fleet, now, *demands, 1)
                expected = reference._numpy_plant(
                    now, *demands, reference._noise_buf[:, :width]
                )
                _assert_same_fleet_tick(expected, got)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_fleet_steps_match_the_numpy_tick(self, kernel, workload):
        # Whole steps with background placement and actuation between
        # them, mid-run noise refills included (chunk 3).
        scenario = three_phase_scenario(background_tasks=3)
        seeds = range(40, 49)
        fleets = [
            FleetPlatform(
                qos_app=WORKLOADS[workload](),
                background=scenario.background_tasks(),
                seeds=seeds,
                noise_chunk_ticks=3,
            )
            for _ in range(2)
        ]
        compiled, reference = fleets
        reference._tick_workload = reference.qos_app  # bound, no tick
        reference._tick = None
        assert compiled.compiled_tick() is not None
        drive = np.random.default_rng(3)
        n = len(seeds)
        for step in range(45):
            a, b = compiled.step(), reference.step()
            _assert_same_fleet_tick(
                (b.qos_raw, b.big, b.little, b.chip_power_w),
                (a.qos_raw, a.big, a.little, a.chip_power_w),
            )
            assert np.array_equal(a.qos_rate, b.qos_rate)
            requests = (
                drive.uniform(0.1, 2.3, n),
                drive.uniform(0.1, 1.7, n),
                drive.uniform(0.5, 4.5, n),
                drive.uniform(0.5, 4.5, n),
                drive.random(n) < 0.5,
            )
            for fleet in fleets:
                fleet.big.set_frequency(requests[0])
                fleet.little.set_frequency(requests[1])
                fleet.big.apply_core_requests(requests[2], requests[4])
                fleet.little.apply_core_requests(requests[3], ~requests[4])

    @pytest.mark.parametrize("manager", MANAGER_NAMES)
    def test_fleet_traces_match_the_numpy_tick(
        self, kernel, manager, monkeypatch
    ):
        factory = fleet_manager_factory(manager, identified_systems())
        scenario = three_phase_scenario(phase_duration_s=1.0)
        seeds = (2018, 7, 2**63 + 5)
        compiled = run_fleet_scenario(factory, canneal(), scenario, seeds=seeds)
        with monkeypatch.context() as patch:
            patch.setattr(fleet_module, "_bind_fleet_tick", lambda p: (None, "off"))
            reference = run_fleet_scenario(
                factory, canneal(), scenario, seeds=seeds
            )
        for name in ("qos", "chip_power", "big_power", "little_power"):
            a, b = getattr(compiled, name), getattr(reference, name)
            assert a.tobytes() == b.tobytes(), name


class TestFleetFallbacks:
    def test_default_fleet_runs_the_compiled_tick(self, kernel):
        for workload in WORKLOADS:
            fleet = _fleet(workload, 3)
            assert fleet.tick_reason is None, workload

    def test_missing_kernel(self, monkeypatch):
        fleet = _fleet("x264", 2)
        # The tick binds on first use, after construction.
        monkeypatch.setattr(fleet_module, "fused_kernel", lambda: None)
        monkeypatch.setattr(fleet_module, "unavailable_reason", lambda: "gone")
        assert fleet.tick_reason == "gone"
        fleet.step()

    def test_workload_subclass(self, kernel):
        fleet = FleetPlatform(
            qos_app=_Twin(**dataclasses.asdict(x264())), seeds=(1, 2)
        )
        assert fleet.tick_reason == "workload is a _Twin, not a QoSWorkload"
        fleet.step()

    def test_cluster_reading_in_numpy(self, kernel, monkeypatch):
        # More sensors than the kernel's row reader holds: that cluster
        # reads in numpy, so the fleet ticks in numpy.
        fleet = _fleet("x264", 2)
        monkeypatch.setattr(fleet.little, "n_cores", MAX_SENSORS)
        assert fleet.tick_reason == (
            f"little sensors: {MAX_SENSORS + 1} sensors "
            f"(the kernel reads at most {MAX_SENSORS})"
        )
        assert fleet.little.telemetry_kernel is None
        assert fleet.big.telemetry_kernel is kernel
        monkeypatch.undo()
        # The verdict stays bound: the numpy tick serves the fleet.
        assert fleet.compiled_tick() is None
        fleet.step()

    def test_probe_rejects_a_tick_that_differs(self, kernel, monkeypatch):
        original = fleet_module.CompiledFleetTick.run

        def broken(self, *args):
            qos, big, little, chip = original(self, *args)
            chip[-1] = chip[-1] + 1.0
            return qos, big, little, chip

        monkeypatch.setattr(fleet_module.CompiledFleetTick, "run", broken)
        monkeypatch.setattr(fleet_module, "_FLEET_TICK_MEMO", {})
        assert _fleet("x264", 2).tick_reason == "differential probe mismatch"

    def test_raising_probe_names_the_exception(self, kernel, monkeypatch):
        def raising(self, *args):
            raise RuntimeError("kernel call failed")

        monkeypatch.setattr(fleet_module.CompiledFleetTick, "run", raising)
        monkeypatch.setattr(fleet_module, "_FLEET_TICK_MEMO", {})
        fleet = _fleet("x264", 2)
        assert fleet.tick_reason == (
            "probe raised RuntimeError: kernel call failed"
        )
        fleet.step()

    def test_verdict_is_memoized_by_content(self, kernel, monkeypatch):
        _fleet("canneal", 5).compiled_tick()

        def no_probe(*args):
            raise AssertionError("content already probed")

        monkeypatch.setattr(fleet_module, "_probe_fleet_tick", no_probe)
        # Another row count, same content: the verdict carries over.
        assert _fleet("canneal", 11).tick_reason is None
