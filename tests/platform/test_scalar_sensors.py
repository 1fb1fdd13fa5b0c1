"""The scalar SoC's sensor reads on the compiled tick equal the Python read.

``ExynosSoC.step`` reads both clusters' sensors inside the compiled
``plant_tick`` call wherever a differential probe verified it for the
SoC's content; ``read_cluster_telemetry`` is the Python reference read.
These tests pin that the tick's readings reproduce that read in every
field (``per_core_ips`` included) under varied sensor parameters and
consume the RNG stream identically, that every SoC whose sensors the
kernel cannot read ticks in Python with a named ``tick_reason`` and
reads through ``read_cluster_telemetry``, and that the fleet's compiled
tick, which reads every row through the same kernel row reader, passes
its probe with the per-core output left NULL.
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
from repro.platform.soc import ExynosSoC, SoCConfig
from repro.workloads import x264


@pytest.fixture(scope="module")
def kernel():
    k = fused_kernel()
    if k is None:
        pytest.skip(unavailable_reason())
    return k


def _bits(value) -> bytes:
    return struct.pack("d", float(value))


def assert_same_reading(expected, got):
    assert got.frequency_ghz == expected.frequency_ghz
    assert got.voltage_v == expected.voltage_v
    assert got.active_cores == expected.active_cores
    assert type(got.active_cores) is type(expected.active_cores)
    assert _bits(got.busy_core_equivalents) == _bits(
        expected.busy_core_equivalents
    )
    for name in ("power_w", "ips"):
        a, b = getattr(expected, name), getattr(got, name)
        assert type(b) is type(a) is float, name
        assert _bits(b) == _bits(a), (name, a, b)
    assert got.per_core_ips.dtype == expected.per_core_ips.dtype
    assert got.per_core_ips.shape == expected.per_core_ips.shape
    assert got.per_core_ips.tobytes() == expected.per_core_ips.tobytes()


def _soc(name="big", *, noise=None, resolution=None, floor=0.0, **config):
    """A SoC without a workload (a cluster's busy equivalents are then
    its clamped demand); with ``noise``, cluster ``name`` gets sensors of
    that noise, resolution and floor."""
    soc = ExynosSoC(config=SoCConfig(**{"seed": 1, **config}))
    if noise is not None:
        cluster = getattr(soc, name)
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
    return soc


def _assert_same_reads(compiled, python, now, demands):
    """One tick of ``compiled`` on its compiled tick and of ``python``
    on the Python tick, from the same state: both clusters' readings
    agree."""
    tick = compiled.compiled_tick()
    assert tick is not None, compiled.tick_reason
    got = compiled._plant_tick(tick, now, *demands)
    expected = python._python_plant(now, *demands)
    for a, b in zip(expected[1:], got[1:], strict=True):
        assert_same_reading(a, b)


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
        socs = []
        for _ in range(2):
            if sensors is None:
                soc = _soc(seed=seed)
            else:
                noise, resolution, floor = sensors
                soc = _soc(
                    name,
                    noise=noise,
                    resolution=resolution,
                    floor=floor,
                    seed=seed,
                )
            cluster = getattr(soc, name)
            frequencies = cluster.opps.frequencies
            cluster.set_frequency(frequencies[opp % len(frequencies)])
            cluster.set_active_cores(active)
            socs.append(soc)
        compiled, python = socs
        assert compiled.tick_reason is None
        for _ in range(ticks):
            _assert_same_reads(compiled, python, 0.0, (busy, busy))
        # Same stream position afterwards: the draws were identical.
        assert compiled.rng.random() == python.rng.random()

    def test_numpy_scalar_busy_equivalents(self, kernel):
        demands = (np.float64(2.75), np.float64(1.25))
        _assert_same_reads(_soc(), _soc(), 0.0, demands)

    def test_per_core_ips_is_a_fresh_array_each_tick(self, kernel):
        soc = _soc()
        first = soc.step().big
        kept = first.per_core_ips.copy()
        second = soc.step().big
        assert second.per_core_ips is not first.per_core_ips
        assert first.per_core_ips.flags.owndata
        assert first.per_core_ips.tobytes() == kept.tobytes()

    def test_faulted_power_sensor(self, kernel):
        # A faulted power sensor reads on the compiled tick: the kernel
        # reads it healthy, then the fault applies to that reading.
        socs, sensors = [], []
        for _ in range(2):
            soc = ExynosSoC(qos_app=x264(), config=SoCConfig(seed=1))
            sensor = inject_power_sensor_fault(
                soc, "big", FaultModel("spike", start_s=0.0, end_s=1.0)
            )
            sensor.set_time(0.5)
            socs.append(soc)
            sensors.append(sensor)
        compiled, python = socs
        assert compiled.tick_reason is None
        assert compiled.compiled_tick()._faults == (sensors[0], None)
        _assert_same_reads(compiled, python, 0.5, (2.5, 1.5))
        assert compiled.rng.random() == python.rng.random()

    @pytest.mark.parametrize("manager", MANAGER_NAMES)
    def test_scenario_traces_match_the_python_read(
        self, kernel, manager, monkeypatch
    ):
        # A closed loop on sensors of non-default noise, resolution and
        # floor: every reading the managers see comes from the compiled
        # tick, and the traces equal those of the Python read.
        def noisy_sensors(soc):
            for cluster in soc.clusters():
                cluster.power_sensor = NoisySensor(
                    f"{cluster.name}-power",
                    noise_fraction=0.01,
                    resolution=0.1,
                    floor=0.05,
                )
                cluster.pmu_sensors = tuple(
                    NoisySensor(
                        f"{cluster.name}-pmu{i}",
                        noise_fraction=0.01,
                        resolution=0.1,
                        floor=0.05,
                    )
                    for i in range(cluster.n_cores)
                )
            socs.append(soc)

        factory = manager_factory(manager, identified_systems())
        scenario = three_phase_scenario(phase_duration_s=1.0)
        socs = []
        compiled = run_scenario(
            factory, x264(), scenario, seed=11, soc_setup=noisy_sensors
        )
        assert socs[0].tick_reason is None
        with monkeypatch.context() as patch:
            patch.setattr(soc_module, "fused_kernel", lambda: None)
            reference = run_scenario(
                factory, x264(), scenario, seed=11, soc_setup=noisy_sensors
            )
        assert socs[1].tick_reason is not None
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
    def _assert_python(self, soc, reason):
        """``soc`` ticks in Python for ``reason``, and a step reads both
        clusters through ``read_cluster_telemetry``."""
        assert soc.tick_reason == reason
        assert soc.compiled_tick() is None
        reads = []
        read = soc._cluster_telemetry

        def counted(cluster, busy):
            reads.append(cluster.name)
            return read(cluster, busy)

        soc._cluster_telemetry = counted
        soc.step()
        assert reads == ["big", "little"]

    def test_every_cluster_reports_the_kernel_state(self):
        # With the kernel available every default SoC ticks compiled and
        # makes no Python read; without it (REPRO_DISABLE_FUSED=1, no
        # compiler) the SoC names the kernel's unavailability.
        soc = ExynosSoC(qos_app=x264(), config=SoCConfig(seed=1))
        if fused_kernel() is None:
            self._assert_python(soc, unavailable_reason())
            return
        assert soc.tick_reason is None
        soc._cluster_telemetry = None  # a Python read would raise
        soc.step()

    def test_faulted_pmu_sensor_reads_in_python(self, kernel):
        soc = _soc()
        pmu = soc.big.pmu_sensors
        soc.big.pmu_sensors = (*pmu[:2], FaultySensor(pmu[2]), pmu[3])
        self._assert_python(
            soc, "big sensors: sensors not plain NoisySensors with positive noise"
        )

    def test_zero_noise_sensor_reads_in_python(self, kernel):
        soc = _soc()
        soc.big.power_sensor = NoisySensor("big-power", noise_fraction=0.0)
        self._assert_python(
            soc, "big sensors: sensors not plain NoisySensors with positive noise"
        )

    def test_idle_insertion_reads_in_python_then_rebinds(self, kernel):
        soc = _soc()
        soc.big.set_idle_fraction(1, 0.4)
        self._assert_python(soc, "idle insertion")
        soc.big.set_idle_fraction(1, 0.0)
        assert soc.tick_reason is None

    def test_eight_core_cluster_reads_in_python(self, kernel):
        soc = _soc(cores_per_cluster=8)
        self._assert_python(soc, "big sensors: >= 8 cores (pairwise-sum read)")

    def test_swapping_a_sensor_back_rebinds(self, kernel):
        soc = _soc()
        plain = soc.little.power_sensor
        soc.little.power_sensor = NoisySensor("little-power", noise_fraction=0.0)
        assert soc.tick_reason is not None
        soc.little.power_sensor = plain
        assert soc.tick_reason is None

    def test_pmu_sensors_can_only_be_replaced_whole(self):
        cluster = _soc().big
        with pytest.raises(TypeError):
            cluster.pmu_sensors[0] = NoisySensor("x", noise_fraction=0.0)

    def test_missing_kernel_reads_in_python(self, monkeypatch):
        monkeypatch.setattr(soc_module, "fused_kernel", lambda: None)
        monkeypatch.setattr(soc_module, "unavailable_reason", lambda: "gone")
        self._assert_python(_soc(), "gone")

    def test_disabled_kernel_reads_every_cluster_in_python(self):
        # The kernel's availability is decided once per process, so the
        # disabled case runs in a fresh interpreter.
        code = (
            "from repro.platform.soc import ExynosSoC\n"
            "from repro.workloads import x264\n"
            "soc = ExynosSoC(qos_app=x264())\n"
            "reads = []\n"
            "read = soc._cluster_telemetry\n"
            "soc._cluster_telemetry = (\n"
            "    lambda c, busy: reads.append(c.name) or read(c, busy)\n"
            ")\n"
            "soc.step()\n"
            "print(soc.tick_reason, reads)\n"
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
        assert result.stdout.strip() == "disabled ['big', 'little']"


class TestProbe:
    def test_verdict_is_memoized_by_content(self, kernel, monkeypatch):
        _soc(noise=0.3, resolution=0.0).compiled_tick()

        def no_probe(*args):
            raise AssertionError("content already probed")

        monkeypatch.setattr(soc_module, "_probe_tick", no_probe)
        assert _soc(noise=0.3, resolution=0.0).tick_reason is None

    def test_probe_rejects_a_kernel_that_differs(self, kernel, monkeypatch):
        # A compiled tick that zeroes the last per-core reading must
        # fail the probe: the scratch SoC reads through both ticks.
        soc = _soc("little", noise=0.3, resolution=0.0)
        original = soc_module.CompiledTick.run

        def broken(self, soc, now, big_demand, little_demand):
            qos, big, little = original(
                self, soc, now, big_demand, little_demand
            )
            little.per_core_ips[-1] = 0.0
            return qos, big, little

        monkeypatch.setattr(soc_module.CompiledTick, "run", broken)
        monkeypatch.setattr(soc_module, "_TICK_MEMO", {})
        assert soc.tick_reason == "differential probe mismatch"

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
