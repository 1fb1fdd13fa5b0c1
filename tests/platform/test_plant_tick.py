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
    ActuatorProxy,
    FaultModel,
    FaultySensor,
    inject_actuator_fault,
    inject_power_sensor_fault,
)
from repro.platform.fleet import FleetPlatform
from repro.platform.manycore import ManyCoreSoC
from repro.platform.opp import big_cluster_opps
from repro.platform.perf import big_cluster_perf_model
from repro.platform.power import big_cluster_power_model
from repro.platform.sensors import NoisySensor
from repro.platform.soc import Cluster, ExynosSoC, PlatformError, SoCConfig
from repro.resilience.degrade import DegradationPolicy
from repro.resilience.guard import TelemetryGuard
from repro.resilience.monitor import InvariantMonitor
from repro.resilience.pipeline import ResiliencePipeline
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
    the Python tick."""
    compiled = _soc(workload, seed, wide=wide)
    python = _soc(workload, seed, wide=wide)
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
        # A faulted power sensor keeps the compiled tick: the kernel
        # reads it healthy and the fault applies to that reading.
        soc = _soc("x264", 5)
        sensor = inject_power_sensor_fault(
            soc, "big", FaultModel("spike", start_s=0.0, end_s=1.0)
        )
        assert soc.tick_reason is None
        tick = soc.compiled_tick()
        assert tick is not None
        assert tick.clock_setters == (sensor.set_time,)
        soc.step()

    def test_time_aware_actuator_layer(self, kernel):
        soc = _soc("x264", 5)
        layer = inject_actuator_fault(
            soc,
            "little",
            ActuatorFaultModel(kind="reject", start_s=5.0, end_s=6.0),
            seed=1,
        )
        # The compiled tick calls the layer's clock before placement.
        assert soc.tick_reason is None
        assert soc.compiled_tick().clock_setters == (layer.set_time,)
        soc.step()
        soc.step()
        assert layer._now_s == soc.config.dt_s

    def test_faulted_pmu_sensor(self, kernel):
        soc = _soc("x264", 5)
        pmu = soc.big.pmu_sensors
        soc.big.pmu_sensors = (FaultySensor(pmu[0]), *pmu[1:])
        self._assert_python_tick(
            soc, "big sensors: sensors not plain NoisySensors with positive noise"
        )

    def test_zero_noise_sensor(self, kernel):
        soc = _soc("x264", 5)
        soc.little.power_sensor = NoisySensor("little-power", noise_fraction=0.0)
        assert soc.tick_reason == (
            "little sensors: sensors not plain NoisySensors with positive noise"
        )
        assert soc.compiled_tick() is None

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
# Faulted SoCs.  The compiled tick serves them: it sets the time-aware
# instruments' clocks before placement and applies a faulted power
# sensor's fault to the kernel's healthy reading.

FAULT_KINDS = FaultModel.VALID_KINDS + ActuatorFaultModel.VALID_KINDS

# The campaign's clamp and partial magnitudes; reject and hotplug_fail
# at probability 0.5, so the layer's own RNG decides each request.
_FAULT_PARAMS = {
    "clamp": {"magnitude": 0.9},
    "partial": {"magnitude": 0.3},
    "reject": {"probability": 0.5},
    "hotplug_fail": {"probability": 0.5},
}


def _fault(kind, start_s=0.6, end_s=1.8, **params):
    if kind in FaultModel.VALID_KINDS:
        return FaultModel(kind, start_s=start_s, end_s=end_s, **params)
    params = {**_FAULT_PARAMS.get(kind, {}), **params}
    return ActuatorFaultModel(kind, start_s=start_s, end_s=end_s, **params)


def _inject(soc, target, fault):
    if isinstance(fault, FaultModel):
        return inject_power_sensor_fault(soc, target, fault)
    return inject_actuator_fault(soc, target, fault, seed=7)


def _fault_state(layer):
    """Everything a fault layer carries from one tick to the next."""
    if isinstance(layer, FaultySensor):
        return ("sensor", layer._now_s, layer._last_healthy)
    return (
        "actuator",
        layer._now_s,
        layer.rejected_dvfs_count,
        layer.rejected_hotplug_count,
        list(layer._pending_dvfs),
        layer.rng.bit_generator.state,
    )


def _campaign_setup(manager):
    """The fault campaign's actuator proxies and resilience pipeline."""
    for cluster in (manager.soc.big, manager.soc.little):
        manager.attach_actuator_proxy(cluster.name, ActuatorProxy(cluster))
    manager.attach_resilience(
        ResiliencePipeline(
            guard=TelemetryGuard(),
            monitor=InvariantMonitor(),
            degrade=DegradationPolicy(),
        )
    )


def _faulted_run(manager, faults):
    """A 3 s scenario with ``faults`` ((target, fault) pairs) injected
    at the start: ``(trace, soc, fault layers, compiled ticks)``."""
    socs, layers, compiled = [], [], []

    def soc_setup(soc):
        socs.append(soc)
        for target, fault in faults:
            layer = _inject(soc, target, fault)
            if all(layer is not held for held in layers):
                layers.append(layer)
        plant_tick = soc._plant_tick

        def counted(*args):
            compiled.append(args[1])
            return plant_tick(*args)

        soc._plant_tick = counted

    trace = run_scenario(
        manager_factory(manager, identified_systems()),
        x264(),
        three_phase_scenario(phase_duration_s=1.0),
        seed=11,
        soc_setup=soc_setup,
        manager_setup=_campaign_setup,
    )
    return trace, socs[0], layers, len(compiled)


def _python_tick_run(monkeypatch, run, *args):
    """``run(*args)`` with the compiled kernel forced off."""
    with monkeypatch.context() as patch:
        patch.setattr(soc_module, "fused_kernel", lambda: None)
        return run(*args)


def _assert_same_trace(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, field.name
            assert x.tobytes() == y.tobytes(), field.name
        else:
            assert x == y, field.name


def _assert_same_faulted_run(compiled, reference):
    trace, soc, layers, _ = compiled
    ref_trace, ref_soc, ref_layers, ref_compiled = reference
    assert ref_compiled == 0
    _assert_same_trace(trace, ref_trace)
    assert soc.rng.bit_generator.state == ref_soc.rng.bit_generator.state
    assert list(map(_fault_state, layers)) == list(
        map(_fault_state, ref_layers)
    )


def _assert_same_telemetry(a, b):
    assert _bits(a.qos_rate) == _bits(b.qos_rate)
    assert_same_tick((a.qos_raw, a.big, a.little), (b.qos_raw, b.big, b.little))


class TestFaultedTickMatchesPython:
    """Compiled tick against the Python tick under every fault kind:
    the whole trace, the SoC's RNG state and every fault layer's state
    agree bit for bit, and the compiled tick ran every tick."""

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @pytest.mark.parametrize("target", ["big", "little"])
    @pytest.mark.parametrize("manager", ["SPECTR", "MM-Pow"])
    def test_every_fault_kind(self, kernel, manager, target, kind, monkeypatch):
        faults = [(target, _fault(kind))]
        compiled = _faulted_run(manager, faults)
        trace, soc = compiled[:2]
        assert soc.tick_reason is None
        assert compiled[3] == trace.times.size
        reference = _python_tick_run(monkeypatch, _faulted_run, manager, faults)
        _assert_same_faulted_run(compiled, reference)

    def test_overlapping_windows(self, kernel, monkeypatch):
        # stuck and bias start together (stuck, injected first, wins),
        # spike starts later; on the actuator side delay starts first.
        faults = [
            ("big", _fault("spike", 0.9, 2.2)),
            ("big", _fault("stuck", 0.5, 1.5)),
            ("big", _fault("bias", 0.5, 1.2, magnitude=0.5)),
            ("little", _fault("partial", 0.8, 2.0)),
            ("little", _fault("delay", 0.4, 1.6)),
            ("big", _fault("reject", 0.7, 2.5)),
        ]
        compiled = _faulted_run("SPECTR", faults)
        assert compiled[3] == compiled[0].times.size
        reference = _python_tick_run(
            monkeypatch, _faulted_run, "SPECTR", faults
        )
        _assert_same_faulted_run(compiled, reference)
        sensor, little_layer, big_layer = compiled[2]
        sensor.set_time(1.0)
        assert sensor.active_fault().kind == "stuck"
        little_layer.set_time(1.0)
        assert little_layer.active_fault().kind == "delay"
        assert big_layer.active_fault() is None

    def test_probes_never_touch_the_fault_layer(self, kernel, monkeypatch):
        # A cold memo: the tick's probe runs on the faulted SoC.  Outside
        # its window the sensor would record every healthy reading it made.
        monkeypatch.setattr(soc_module, "_TICK_MEMO", {})
        soc = _soc("x264", 5)
        sensor = inject_power_sensor_fault(soc, "big", _fault("stuck", 5.0, 6.0))
        assert soc.tick_reason is None
        assert sensor._last_healthy is None
        soc.step()
        assert sensor._last_healthy is not None

    @staticmethod
    def _mid_run_injection(rebinds):
        """60 ticks of a SoC stepped through fixed actuations, with
        faults injected after 15 and 30 ticks."""
        scenario = three_phase_scenario(phase_duration_s=1.0)
        soc = ExynosSoC(
            qos_app=x264(),
            background=scenario.background_tasks(),
            config=SoCConfig(seed=3),
        )
        big_f = soc.big.opps.frequencies
        little_f = soc.little.opps.frequencies
        layers, readings = [], []
        for k in range(60):
            if k == 15:
                before = soc.compiled_tick()
                layers.append(
                    inject_power_sensor_fault(soc, "big", _fault("stuck", 0.9, 1.9))
                )
                layers.append(
                    inject_actuator_fault(
                        soc, "little", _fault("delay", 0.8, 2.0), seed=4
                    )
                )
                after = soc.compiled_tick()
                rebinds.append(after is not None and after is not before)
            if k == 30:
                layers.append(
                    inject_power_sensor_fault(
                        soc, "little", _fault("dropout", 1.6, 2.4)
                    )
                )
            soc.big.set_frequency(big_f[7 * k % len(big_f)])
            soc.little.set_frequency(little_f[5 * k % len(little_f)])
            soc.little.set_active_cores(1 + k % 4)
            readings.append(soc.step())
        return readings, soc, layers

    def test_fault_injected_mid_run_rebinds_the_tick(self, kernel, monkeypatch):
        rebinds = []
        readings, soc, layers = self._mid_run_injection(rebinds)
        assert rebinds == [True]
        assert soc.tick_reason is None
        ref_readings, ref_soc, ref_layers = _python_tick_run(
            monkeypatch, self._mid_run_injection, []
        )
        for a, b in zip(readings, ref_readings, strict=True):
            _assert_same_telemetry(a, b)
        assert soc.rng.bit_generator.state == ref_soc.rng.bit_generator.state
        assert list(map(_fault_state, layers)) == list(
            map(_fault_state, ref_layers)
        )
        assert layers[0]._last_healthy is not None

    @staticmethod
    def _many_core_run():
        soc = ManyCoreSoC(n_little=2, qos_app=x264(), config=SoCConfig(seed=9))
        sensor = inject_power_sensor_fault(
            soc, "little1", _fault("stuck", 0.3, 0.9)
        )
        return soc, sensor, [soc.step() for _ in range(30)]

    def test_many_core_faulted_power_sensor(self, monkeypatch):
        # ManyCoreSoC reads every cluster in Python, whether or not the
        # kernel is loaded.
        soc, sensor, readings = self._many_core_run()
        ref_soc, ref_sensor, ref_readings = _python_tick_run(
            monkeypatch, self._many_core_run
        )
        for a, b in zip(readings, ref_readings, strict=True):
            assert _bits(a.qos_raw) == _bits(b.qos_raw)
            for x, y in zip(a.clusters, b.clusters, strict=True):
                for name in ("power_w", "ips"):
                    assert _bits(getattr(x, name)) == _bits(getattr(y, name))
                assert x.per_core_ips.tobytes() == y.per_core_ips.tobytes()
        assert soc.rng.bit_generator.state == ref_soc.rng.bit_generator.state
        assert _fault_state(sensor) == _fault_state(ref_sensor)


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

    def test_accepted_clusters_fit_the_sensor_reader(self):
        # The fleet accepts clusters of at most 7 cores, so the kernel's
        # row reader (MAX_SENSORS) holds every fleet cluster's sensors.
        def cluster(n_cores):
            return Cluster(
                "big",
                n_cores=n_cores,
                opps=big_cluster_opps(),
                power_model=big_cluster_power_model(),
                perf_model=big_cluster_perf_model(),
            )

        with pytest.raises(PlatformError, match="8 cores"):
            soc_module.fleet_sensor_layout(cluster(8))
        largest = cluster(7)
        soc_module.fleet_sensor_layout(largest)
        assert largest.n_cores + 1 <= MAX_SENSORS

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
