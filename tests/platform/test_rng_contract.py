"""The RNG draw-order contract for one ``ExynosSoC.step``.

Every hot-path optimization must keep the platform RNG stream consumed
in exactly this order, or the golden traces stop being bit-identical:

1. QoS workload rate noise — one ``normal(1, variability)`` draw, only
   when a QoS app is attached and its variability is positive;
2. Big cluster telemetry — one power-sensor gain and one PMU gain per
   core.  When every instrument is a plain :class:`NoisySensor` these
   come from a single batched ``standard_normal(n_cores + 1)`` call
   (which consumes the stream identically to the scalar draws); any
   wrapped/faulty sensor falls back to per-sensor scalar ``normal``
   draws in the same order;
3. Little cluster telemetry — same as the big cluster.

These tests pin the call sequence itself, not just the resulting
values, so a reordering that happens to produce close numbers still
fails loudly.
"""

import ctypes
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.control import fused
from repro.experiments.figures import MANAGER_NAMES, identified_systems
from repro.experiments.fleet import fleet_manager_factory, run_fleet_scenario
from repro.experiments.scenario import three_phase_scenario
from repro.platform.faults import FaultModel, inject_power_sensor_fault
from repro.platform.fleet import FleetPlatform
from repro.platform.soc import ExynosSoC, SoCConfig
from repro.workloads import x264


class RecordingRNG:
    """Delegates to a real Generator while logging every draw call."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.calls: list[tuple] = []

    def normal(self, loc=0.0, scale=1.0, size=None):
        self.calls.append(("normal", float(loc), float(scale), size))
        return self._rng.normal(loc, scale, size)

    def standard_normal(self, size=None):
        self.calls.append(("standard_normal", size))
        return self._rng.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def recorded_step(soc: ExynosSoC, seed: int = 2018):
    recorder = RecordingRNG(seed)
    soc.rng = recorder
    telemetry = soc.step()
    return recorder.calls, telemetry


class TestDrawOrder:
    def test_with_qos_app_and_plain_sensors(self):
        soc = ExynosSoC(qos_app=x264(), config=SoCConfig(seed=2018))
        calls, _ = recorded_step(soc)
        workload = x264()
        assert calls == [
            ("normal", 1.0, workload.variability, None),
            ("standard_normal", 5),  # big: power + 4 PMU gains
            ("standard_normal", 5),  # little: power + 4 PMU gains
        ]

    def test_without_qos_app(self):
        soc = ExynosSoC(qos_app=None, config=SoCConfig(seed=2018))
        calls, _ = recorded_step(soc)
        assert calls == [
            ("standard_normal", 5),
            ("standard_normal", 5),
        ]

    def test_faulty_power_sensor_uses_scalar_draws_in_order(self):
        soc = ExynosSoC(qos_app=x264(), config=SoCConfig(seed=2018))
        inject_power_sensor_fault(
            soc, "big", FaultModel("spike", start_s=1.0, end_s=2.0)
        )
        calls, _ = recorded_step(soc)
        power_noise = soc.big.power_sensor.noise_fraction
        pmu_noise = soc.big.pmu_sensors[0].noise_fraction
        assert calls == [
            ("normal", 1.0, x264().variability, None),
            # big falls back to per-sensor scalar draws, same order:
            ("normal", 1.0, power_noise, None),
            ("normal", 1.0, pmu_noise, None),
            ("normal", 1.0, pmu_noise, None),
            ("normal", 1.0, pmu_noise, None),
            ("normal", 1.0, pmu_noise, None),
            # little keeps the batched path:
            ("standard_normal", 5),
        ]

    def test_idle_insertion_uses_slow_path_in_order(self):
        soc = ExynosSoC(qos_app=None, config=SoCConfig(seed=2018))
        soc.big.set_idle_fraction(0, 0.5)
        calls, _ = recorded_step(soc)
        power_noise = soc.big.power_sensor.noise_fraction
        pmu_noise = soc.big.pmu_sensors[0].noise_fraction
        assert calls == [
            ("normal", 1.0, power_noise, None),
            ("normal", 1.0, pmu_noise, None),
            ("normal", 1.0, pmu_noise, None),
            ("normal", 1.0, pmu_noise, None),
            ("normal", 1.0, pmu_noise, None),
            ("standard_normal", 5),
        ]


class TestBatchedFleetContract:
    """The fleet kernel's pre-drawn noise blocks must consume each
    device's RNG stream exactly as the scalar per-tick draws do."""

    def test_block_draw_equals_interleaved_draws(self):
        # One standard_normal(width * T) block reproduces T per-tick
        # standard_normal(width) draws value-for-value: the ziggurat
        # stream is consumed identically either way.
        width, ticks = 11, 40
        block = np.random.default_rng(2018).standard_normal(width * ticks)
        interleaved_rng = np.random.default_rng(2018)
        for tick in range(ticks):
            draw = interleaved_rng.standard_normal(width)
            assert np.array_equal(
                block[tick * width : (tick + 1) * width], draw
            )

    def test_chunked_draws_preserve_stream_continuity(self):
        # Refilling in chunks (what FleetPlatform does every
        # noise_chunk_ticks) is indistinguishable from one big draw.
        chunked_rng = np.random.default_rng(7)
        chunks = [chunked_rng.standard_normal(77) for _ in range(5)]
        whole = np.random.default_rng(7).standard_normal(77 * 5)
        assert np.array_equal(np.concatenate(chunks), whole)

    def test_normal_equals_affine_standard_normal(self):
        # The scalar sensors draw rng.normal(1, s); the fleet kernel
        # applies 1 + s * z to pre-drawn standard normals.  The two are
        # bit-identical draw-for-draw, not just distributionally.
        scale = 0.015
        direct = np.random.default_rng(42)
        affine = np.random.default_rng(42)
        for _ in range(100):
            a = direct.normal(1.0, scale)
            b = 1.0 + scale * affine.standard_normal()
            assert a == b

    def test_fleet_device_blocks_match_scalar_stream(self):
        # Device row i's noise buffer is drawn from a generator seeded
        # exactly like scalar device i, with the documented per-tick
        # layout: [QoS draw] + [big power + PMUs] + [little power +
        # PMUs] = 1 + 2 * (cores + 1) slots.
        seeds = [2018, 7]
        fleet = FleetPlatform(
            qos_app=x264(), seeds=seeds, noise_chunk_ticks=3
        )
        assert fleet._draws_per_tick == 1 + 2 * (4 + 1)
        fleet.step()  # forces the first refill
        for row, seed in enumerate(seeds):
            expected = np.random.default_rng(seed).standard_normal(
                fleet._draws_per_tick * 3
            )
            assert np.array_equal(fleet._noise_buf[row], expected)

    def test_fleet_without_qos_app_drops_the_workload_slot(self):
        fleet = FleetPlatform(qos_app=None, seeds=[1])
        assert fleet._draws_per_tick == 2 * (4 + 1)

    def test_fleet_telemetry_consumes_stream_like_scalar(self):
        # End to end: after T ticks with no actuation, a fleet row and
        # a scalar device with the same seed have consumed identical
        # stream prefixes — their noisy telemetry matches exactly.
        fleet = FleetPlatform(
            qos_app=x264(), seeds=[2018], noise_chunk_ticks=4
        )
        soc = ExynosSoC(qos_app=x264(), config=SoCConfig(seed=2018))
        for _ in range(10):
            batched = fleet.step()
            scalar = soc.step()
            assert float(batched.qos_rate[0]) == scalar.qos_rate
            assert float(batched.big.power_w[0]) == scalar.big.power_w
            assert float(batched.big.ips[0]) == scalar.big.ips
            assert float(batched.little.power_w[0]) == scalar.little.power_w
            assert float(batched.little.ips[0]) == scalar.little.ips


class TestStreamEquivalence:
    def test_recorded_run_matches_plain_run_bit_for_bit(self):
        # The recorder only logs; with the same seed the telemetry must
        # equal an unobserved run exactly (the contract is about order,
        # not about perturbing the stream).
        plain = ExynosSoC(qos_app=x264(), config=SoCConfig(seed=7))
        observed = ExynosSoC(qos_app=x264(), config=SoCConfig(seed=7))
        observed.rng = RecordingRNG(7)
        for _ in range(25):
            a = plain.step()
            b = observed.step()
            assert a.qos_rate == b.qos_rate
            assert a.big.power_w == b.big.power_w
            assert a.little.power_w == b.little.power_w
            assert np.array_equal(a.big.per_core_ips, b.big.per_core_ips)


# 48 small seeds and 24 at or past 2**63, so the seed-to-state hashing
# of both integer ranges reaches the refill.
_REFILL_SEEDS = (
    *range(48),
    *(2**63 + 7919 * k for k in range(16)),
    *(2**64 - 1 - k for k in range(4)),
    *(2**128 + k for k in range(4)),
)
_RUN_TICKS = 40


class TestNoiseRefill:
    """The fleet's noise refill — the compiled ``noise_fill`` where it
    builds, the per-row numpy loop otherwise — draws exactly what one
    ``Generator.standard_normal(out=row)`` per row draws, and leaves
    every generator where that loop leaves it."""

    @pytest.mark.parametrize("chunk", [1, 3, 7, 16, _RUN_TICKS])
    def test_refill_equals_the_per_row_loop(self, chunk):
        fleet = FleetPlatform(
            qos_app=x264(), seeds=_REFILL_SEEDS, noise_chunk_ticks=chunk
        )
        reference = [np.random.default_rng(s) for s in _REFILL_SEEDS]
        expected = np.empty_like(fleet._noise_buf)
        for _ in range(-(-_RUN_TICKS // chunk)):
            fleet._refill_noise()
            for row, rng in enumerate(reference):
                rng.standard_normal(out=expected[row])
            assert np.array_equal(fleet._noise_buf, expected)
        for rng, twin in zip(fleet.rngs, reference):
            assert np.array_equal(
                rng.standard_normal(5), twin.standard_normal(5)
            )
            assert rng.integers(2**62) == twin.integers(2**62)

    def test_fleet_names_its_refill_path(self):
        fleet = FleetPlatform(qos_app=x264(), seeds=(1, 2))
        assert fleet.fused_reason == fused.noise_fill_reason()
        if fused.fused_kernel() is None:
            assert fleet.fused_reason == fused.unavailable_reason()
            if os.environ.get("REPRO_DISABLE_FUSED", "") not in ("", "0"):
                assert fleet.fused_reason == "disabled"
        elif os.path.exists(fused._npyrandom_archive()):
            # Where the kernel and the archive are there, the compiled
            # refill must run.
            assert fleet.fused_reason is None
        else:
            assert fleet.fused_reason.startswith("no numpy random archive")

    def test_rngs_cannot_be_rebound(self):
        # The compiled refill holds each generator's address.
        fleet = FleetPlatform(qos_app=x264(), seeds=(1, 2))
        assert isinstance(fleet.rngs, tuple)
        with pytest.raises(AttributeError):
            fleet.rngs = (np.random.default_rng(3),) * 2


@pytest.fixture(scope="module")
def systems():
    return identified_systems()


_TRACE_SERIES = (
    "times",
    "qos",
    "qos_reference",
    "chip_power",
    "power_reference",
    "big_power",
    "little_power",
    "big_frequency",
    "big_cores",
    "little_frequency",
    "little_cores",
    "gain_ids",
)


@pytest.mark.parametrize("manager", MANAGER_NAMES)
def test_default_chunk_trace_equals_whole_run_chunk(manager, systems):
    # 60 ticks: the default 16-tick chunk refills mid-phase and leaves a
    # partly used last chunk; the whole-run chunk refills once.
    scenario = three_phase_scenario(phase_duration_s=1.0)
    steps = int(round(scenario.total_duration_s / SoCConfig().dt_s))
    seeds = (2018, 7, 2**63 + 5, 11)
    factory = fleet_manager_factory(manager, systems)
    default = run_fleet_scenario(factory, x264(), scenario, seeds=seeds)
    whole = run_fleet_scenario(
        factory, x264(), scenario, seeds=seeds, noise_chunk_ticks=steps
    )
    for name in _TRACE_SERIES:
        a, b = getattr(default, name), getattr(whole, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestNoiseFillKernel:
    """What decides whether the compiled refill runs: the archive, the
    object's cache key and the load-time probe."""

    @pytest.fixture
    def kernel(self):
        k = fused.fused_kernel()
        if k is None:
            pytest.skip(fused.unavailable_reason())
        return k

    def test_missing_archive_falls_back_only_the_refill(
        self, kernel, monkeypatch, tmp_path
    ):
        missing = str(tmp_path / "libnpyrandom.a")
        monkeypatch.setattr(fused, "_npyrandom_archive", lambda: missing)
        monkeypatch.setattr(fused, "_TRIED", False)
        monkeypatch.setattr(fused, "_KERNEL", None)
        reason = f"no numpy random archive: {missing} not found"
        assert fused.noise_fill_reason() == reason
        rebuilt = fused.fused_kernel()
        assert rebuilt is not None and rebuilt.noise_fill is None
        fleet = FleetPlatform(qos_app=x264(), seeds=(1, 2))
        assert fleet.fused_reason == reason
        # The servo, plant tick and snap kernels still run.
        assert fleet.tick_reason is None
        assert fleet.compiled_tick()._call is rebuilt.plant_tick
        fleet.big.set_frequency(np.full(2, 1.0))
        assert fleet.big.opps._snap_kernel is rebuilt
        assert rebuilt.servo_step is not None
        fleet.step()
        for row, seed in enumerate((1, 2)):
            expected = np.random.default_rng(seed).standard_normal(
                fleet._noise_buf.shape[1]
            )
            assert np.array_equal(fleet._noise_buf[row], expected)

    def test_failed_refill_build_keeps_the_other_kernels(
        self, kernel, monkeypatch
    ):
        compile_ = fused._compile

        def no_refill(source, archive=None):
            if archive is not None:
                raise OSError("link failed")
            return compile_(source)

        monkeypatch.setattr(fused, "_compile", no_refill)
        monkeypatch.setattr(fused, "_TRIED", False)
        monkeypatch.setattr(fused, "_KERNEL", None)
        rebuilt = fused.fused_kernel()
        assert rebuilt is not None and rebuilt.noise_fill is None
        assert rebuilt.noise_reason == "refill build failed: link failed"
        fleet = FleetPlatform(qos_app=x264(), seeds=(1, 2))
        assert fleet.fused_reason == rebuilt.noise_reason
        assert fleet.tick_reason is None
        assert fleet.compiled_tick()._call is rebuilt.plant_tick

    def test_object_key_covers_the_archive(self, monkeypatch, tmp_path):
        first = tmp_path / "a.a"
        second = tmp_path / "b.a"
        first.write_bytes(b"archive one")
        second.write_bytes(b"archive two")
        key = fused._object_path
        assert key("src", str(first)) != key("src", str(second))
        assert key("src", str(first)) != key("src", None)
        second.write_bytes(b"archive one")
        assert key("src", str(first)) == key("src", str(second))
        before = key("src", str(first))
        monkeypatch.setattr(fused.np, "__version__", "0.0.0")
        assert key("src", str(first)) != before
        # Without the archive the numpy version does not matter.
        assert key("src", None) == fused._object_path("src", None)

    def test_block_rejects_buffers_the_kernel_cannot_fill(self):
        bitgens = fused.bitgen_table([np.random.default_rng(1)] * 2)
        good = np.empty((2, 6))
        assert fused.noise_block(bitgens, good)[3] == 6
        for bad_out, bad_bitgens in [
            (np.empty((2, 12))[:, ::2], bitgens),  # strided rows
            (np.empty((2, 6), dtype=np.float32), bitgens),
            (np.empty(12), bitgens),
            (good, bitgens[:1]),  # one address short
            (good, bitgens.astype(np.int32)),
        ]:
            with pytest.raises(ValueError):
                fused.noise_block(bad_bitgens, bad_out)

    def test_probe_passes_the_built_refill(self, kernel):
        if kernel.noise_fill is None:
            pytest.skip(kernel.noise_reason)
        assert fused._probe_noise_fill(kernel) is None

    def test_probe_rejects_a_wrong_refill(self):
        def zero_fill(address):
            # Reads noise_fill's argument block and writes zeros.
            rows, _, out, count = (ctypes.c_int64 * 4).from_address(address)
            ctypes.memset(out, 0, 8 * rows * count)

        wrong = SimpleNamespace(noise_fill=zero_fill)
        assert fused._probe_noise_fill(wrong) == "differential probe mismatch"

    def test_raising_probe_names_the_exception(self):
        def broken(address):
            raise RuntimeError("refill failed")

        raising = SimpleNamespace(noise_fill=broken)
        assert fused._probe_noise_fill(raising) == (
            "probe raised RuntimeError: refill failed"
        )
