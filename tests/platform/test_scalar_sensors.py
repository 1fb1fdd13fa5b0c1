"""The scalar SoC's compiled sensor read equals its Python read, bit for bit.

``read_cluster_telemetry`` runs the fleet's ``fleet_telemetry`` kernel
on a single row wherever a differential probe verified it for the
cluster's content.  These tests pin that the compiled read reproduces
the Python reference read in every field (``per_core_ips`` included)
and consumes the RNG stream identically, that every ineligible cluster
falls back loudly (``Cluster.fused_reason``), and that the fleet's
compiled tick, which reads every row through the same kernel row
reader, passes its probe with the per-core output left NULL.
"""

from __future__ import annotations

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
from repro.control.fused import fused_kernel, unavailable_reason
from repro.experiments.figures import (
    MANAGER_NAMES,
    identified_systems,
    manager_factory,
)
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import three_phase_scenario
from repro.platform import soc as soc_module
from repro.platform.faults import (
    FaultModel,
    FaultySensor,
    inject_power_sensor_fault,
)
from repro.platform.fleet import FleetPlatform
from repro.platform.sensors import NoisySensor
from repro.platform.soc import ExynosSoC, SoCConfig, read_cluster_telemetry
from repro.workloads import x264


@pytest.fixture(scope="module")
def kernel():
    k = fused_kernel()
    if k is None:
        pytest.skip(unavailable_reason())
    return k


def python_read(cluster, busy, rng):
    """The Python reference read of ``cluster`` (compiled read unbound
    for the call)."""
    cluster.compiled_sensors()
    bound = cluster._sensors
    cluster._sensors = None
    try:
        return read_cluster_telemetry(cluster, busy, rng)
    finally:
        cluster._sensors = bound


def assert_same_reading(expected, got):
    assert got.frequency_ghz == expected.frequency_ghz
    assert got.voltage_v == expected.voltage_v
    assert got.active_cores == expected.active_cores
    assert type(got.active_cores) is type(expected.active_cores)
    assert got.busy_core_equivalents is expected.busy_core_equivalents
    for name in ("power_w", "ips"):
        a, b = getattr(expected, name), getattr(got, name)
        assert type(b) is type(a) is float, name
        assert struct.pack("d", b) == struct.pack("d", a), (name, a, b)
    assert got.per_core_ips.dtype == expected.per_core_ips.dtype
    assert got.per_core_ips.shape == expected.per_core_ips.shape
    assert got.per_core_ips.tobytes() == expected.per_core_ips.tobytes()


def _cluster(name="big", *, noise=None, resolution=None, floor=0.0):
    cluster = getattr(ExynosSoC(config=SoCConfig(seed=1)), name)
    if noise is not None:
        cluster.power_sensor = NoisySensor(
            f"{name}-power",
            noise_fraction=noise,
            resolution=resolution,
            floor=floor,
        )
        cluster.pmu_sensors = tuple(
            NoisySensor(
                f"{name}-pmu{i}",
                noise_fraction=noise,
                resolution=resolution,
                floor=floor,
            )
            for i in range(cluster.n_cores)
        )
    return cluster


class TestCompiledReadMatchesPython:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["big", "little"]),
        opp=st.integers(0, 100),
        active=st.integers(1, 4),
        busy=st.floats(-10.0, 10.0, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
        sensors=st.sampled_from(
            [None, (0.5, 0.005, 0.0), (1.5, 0.0, 0.0), (0.01, 0.1, 0.05)]
        ),
        ticks=st.integers(1, 3),
    )
    def test_field_by_field(
        self, kernel, name, opp, active, busy, seed, sensors, ticks
    ):
        if sensors is None:
            cluster = _cluster(name)
        else:
            noise, resolution, floor = sensors
            cluster = _cluster(
                name, noise=noise, resolution=resolution, floor=floor
            )
        frequencies = cluster.opps.frequencies
        cluster.set_frequency(frequencies[opp % len(frequencies)])
        cluster.set_active_cores(active)
        assert cluster.fused_reason is None
        compiled_rng = np.random.default_rng(seed)
        python_rng = np.random.default_rng(seed)
        for _ in range(ticks):
            got = read_cluster_telemetry(cluster, busy, compiled_rng)
            expected = python_read(cluster, busy, python_rng)
            assert_same_reading(expected, got)
        # Same stream position afterwards: the draws were identical.
        assert compiled_rng.random() == python_rng.random()

    def test_numpy_scalar_busy_equivalents(self, kernel):
        cluster = _cluster()
        busy = np.float64(2.75)
        got = read_cluster_telemetry(cluster, busy, np.random.default_rng(3))
        expected = python_read(cluster, busy, np.random.default_rng(3))
        assert_same_reading(expected, got)

    def test_per_core_ips_is_a_fresh_array_each_tick(self, kernel):
        cluster = _cluster()
        rng = np.random.default_rng(5)
        first = read_cluster_telemetry(cluster, 3.0, rng)
        kept = first.per_core_ips.copy()
        second = read_cluster_telemetry(cluster, 3.0, rng)
        assert second.per_core_ips is not first.per_core_ips
        assert first.per_core_ips.flags.owndata
        assert first.per_core_ips.tobytes() == kept.tobytes()

    def test_faulted_power_sensor(self, kernel):
        # A faulted power sensor reads compiled: the kernel reads it
        # healthy, then the fault applies to that reading.
        soc = ExynosSoC(qos_app=x264(), config=SoCConfig(seed=1))
        assert soc.big.fused_reason is None
        sensor = inject_power_sensor_fault(
            soc, "big", FaultModel("spike", start_s=0.0, end_s=1.0)
        )
        soc.step()
        assert soc.big.fused_reason is None
        assert soc.big.compiled_sensors().fault is sensor
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        got = read_cluster_telemetry(soc.big, 2.5, rng_a)
        expected = python_read(soc.big, 2.5, rng_b)
        assert_same_reading(expected, got)
        assert soc.little.fused_reason is None

    @pytest.mark.parametrize("manager", MANAGER_NAMES)
    def test_scenario_traces_match_the_python_read(
        self, kernel, manager, monkeypatch
    ):
        factory = manager_factory(manager, identified_systems())
        scenario = three_phase_scenario(phase_duration_s=1.0)
        compiled = run_scenario(factory, x264(), scenario, seed=11)
        with monkeypatch.context() as patch:
            patch.setattr(soc_module, "fused_kernel", lambda: None)
            reference = run_scenario(factory, x264(), scenario, seed=11)
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


class TestFallbacks:
    def _assert_python(self, cluster, reason):
        assert cluster.fused_reason == reason
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        got = read_cluster_telemetry(cluster, 2.5, rng_a)
        expected = python_read(cluster, 2.5, rng_b)
        assert_same_reading(expected, got)

    def test_every_cluster_reports_the_kernel_state(self):
        # With the kernel available every default cluster reads
        # compiled; without it (REPRO_DISABLE_FUSED=1, no compiler)
        # every cluster names the kernel's unavailability.
        soc = ExynosSoC(qos_app=x264(), config=SoCConfig(seed=1))
        soc.step()
        expected = None if fused_kernel() is not None else unavailable_reason()
        assert [c.fused_reason for c in soc.clusters()] == [expected] * 2
        if expected is not None:
            assert all(c.compiled_sensors() is None for c in soc.clusters())

    def test_faulted_pmu_sensor_reads_in_python(self, kernel):
        cluster = _cluster()
        pmu = cluster.pmu_sensors
        cluster.pmu_sensors = (*pmu[:2], FaultySensor(pmu[2]), pmu[3])
        self._assert_python(
            cluster, "sensors not plain NoisySensors with positive noise"
        )

    def test_zero_noise_sensor_reads_in_python(self, kernel):
        cluster = _cluster()
        cluster.power_sensor = NoisySensor("big-power", noise_fraction=0.0)
        self._assert_python(
            cluster, "sensors not plain NoisySensors with positive noise"
        )

    def test_idle_insertion_reads_in_python_then_rebinds(self, kernel):
        cluster = _cluster()
        cluster.set_idle_fraction(1, 0.4)
        self._assert_python(cluster, "idle insertion")
        cluster.set_idle_fraction(1, 0.0)
        assert cluster.fused_reason is None

    def test_eight_core_cluster_reads_in_python(self, kernel):
        soc = ExynosSoC(config=SoCConfig(seed=1, cores_per_cluster=8))
        self._assert_python(soc.big, ">= 8 cores (pairwise-sum read)")

    def test_swapping_a_sensor_back_rebinds(self, kernel):
        cluster = _cluster()
        plain = cluster.power_sensor
        cluster.power_sensor = NoisySensor("big-power", noise_fraction=0.0)
        assert cluster.fused_reason is not None
        cluster.power_sensor = plain
        assert cluster.fused_reason is None

    def test_pmu_sensors_can_only_be_replaced_whole(self):
        cluster = _cluster()
        with pytest.raises(TypeError):
            cluster.pmu_sensors[0] = NoisySensor("x", noise_fraction=0.0)

    def test_missing_kernel_reads_in_python(self, monkeypatch):
        monkeypatch.setattr(soc_module, "fused_kernel", lambda: None)
        monkeypatch.setattr(soc_module, "unavailable_reason", lambda: "gone")
        self._assert_python(_cluster(), "gone")

    def test_disabled_kernel_reads_every_cluster_in_python(self):
        # The kernel's availability is decided once per process, so the
        # disabled case runs in a fresh interpreter.
        code = (
            "from repro.platform.soc import ExynosSoC\n"
            "from repro.workloads import x264\n"
            "soc = ExynosSoC(qos_app=x264())\n"
            "soc.step()\n"
            "print([c.fused_reason for c in soc.clusters()])\n"
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


class TestProbe:
    def test_verdict_is_memoized_by_content(self, kernel, monkeypatch):
        _cluster().compiled_sensors()

        def no_probe(*args):
            raise AssertionError("content already probed")

        monkeypatch.setattr(soc_module, "_probe_sensor_read", no_probe)
        assert _cluster().fused_reason is None

    def test_probe_rejects_a_kernel_that_differs(self, kernel, monkeypatch):
        # A compiled read that zeroes the last per-core reading must
        # fail the probe: the scratch cluster reads through both paths.
        cluster = _cluster(noise=0.3, resolution=0.0)
        original = soc_module.CompiledSensors.read

        def broken(self, cluster, busy, rng):
            reading = original(self, cluster, busy, rng)
            reading.per_core_ips[-1] = 0.0
            return reading

        monkeypatch.setattr(soc_module.CompiledSensors, "read", broken)
        monkeypatch.setattr(soc_module, "_SENSOR_MEMO", {})
        assert cluster.fused_reason == "differential probe mismatch"

    def test_fleet_probe_passes_with_per_core_output_null(self, kernel):
        platform = FleetPlatform(qos_app=x264(), seeds=(1, 2, 3))
        assert platform.tick_reason is None
        platform.step()
        # Both flips' telemetry blocks of both clusters; the per-core
        # pointer is a block's last slot.
        blocks = platform.compiled_tick()._held
        assert len(blocks) == 4
        for block in blocks:
            assert block[-1] == 0
