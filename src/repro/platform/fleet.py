"""Structure-of-arrays fleet kernel: step N simulated SoCs per array op.

One :class:`FleetPlatform` advances ``N`` independent simulated devices
per tick with a handful of numpy operations instead of ``N`` scalar
``ExynosSoC.step`` calls.  Per-cluster frequency / active cores / power
live as ``(N,)`` float arrays; every per-tick quantity is computed with
element-wise array ops whose per-row results are **bit-identical** to
the scalar oracle (``repro.platform.soc``).  The equivalence contract is
enforced by ``tests/platform/test_fleet_equivalence.py`` and the golden
fleet fixture in ``tests/exec/fixtures``.

Bit-identity ground rules (each is probe-verified and pinned by tests):

* Anything involving a Python ``**`` in the scalar path (voltage², the
  frequency-scale power law, scheduler core strength) is precomputed per
  operating point with *Python-float* arithmetic into lookup tables
  indexed by snapped OPP — array ``**`` is not bit-identical to scalar
  ``**``.
* Sensor noise comes from per-device ``Generator``s seeded exactly like
  the scalar devices.  Each device pre-draws ``standard_normal`` blocks
  of a few ticks in the documented order (QoS workload draw first when
  noisy, then Big power + per-core PMUs, then Little) —
  ``rng.normal(1, s)`` equals ``1 + s * standard_normal()``
  draw-for-draw, and block draws consume the ziggurat stream
  identically to interleaved scalar draws (see
  ``tests/platform/test_rng_contract.py``).  The compiled
  ``noise_fill`` refills every row in one call through numpy's own
  fill loop on each row's bit generator; the per-row
  ``standard_normal(out=row)`` loop is its fallback.
* Masked updates use ``np.where`` (in-place masked assignment can turn
  ``+0.0`` into ``-0.0``); clamps use ``minimum``/``maximum`` chains
  that replay the scalar branch structure.

The kernel reproduces only the scalar *fast* path: plain noisy sensors,
no idle insertion, fewer than 8 cores per cluster, no attached fault
layers.  ``soc.fleet_sensor_layout`` rejects anything else loudly;
faulted devices run on the scalar oracle (see
``repro.exec.fleet_jobs``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.control.fused import (
    QOS_NONE,
    QOS_QUIET,
    QOS_STANDARD_NORMAL,
    TICK_Z,
    arg_block,
    bitgen_table,
    fused_kernel,
    noise_block,
    noise_fill_reason,
    plant_tick_args,
    probe_verdict,
    telemetry_args,
    unavailable_reason,
)
from repro.platform.opp import big_cluster_opps, little_cluster_opps
from repro.platform.perf import (
    amdahl_speedup,
    big_cluster_perf_model,
    little_cluster_perf_model,
)
from repro.platform.power import (
    big_cluster_power_model,
    little_cluster_power_model,
)
from repro.platform.scheduler import HMPScheduler
from repro.platform.soc import (
    Cluster,
    PlatformError,
    SensorTables,
    SoCConfig,
    fleet_sensor_layout,
    qos_rate_table,
)
from repro.workloads.base import BackgroundTask, QoSWorkload

__all__ = [
    "CompiledFleetTick",
    "FleetCluster",
    "FleetClusterTelemetry",
    "FleetPlatform",
    "FleetTelemetry",
]

# Marks a platform whose compiled tick was never bound (a workload of
# None is a real binding).
_UNBOUND = object()

_BIG_ID = np.int8(1)
_LITTLE_ID = np.int8(2)

# Ticks of sensor noise each refill pre-draws per device.  The compiled
# refill costs the same per draw at any chunk, so the buffer stays a
# few ticks deep whatever the run's length.
_NOISE_CHUNK_TICKS = 16


class FleetCluster:
    """SoA state of one cluster role (big or little) across all devices.

    Built from a *template* scalar :class:`Cluster` so the initial state,
    sensor parameters and model coefficients are exactly what a freshly
    constructed scalar device would have.  It holds state, tables and
    the numpy read's scratch only: the compiled read of every row is
    part of the fleet's plant tick (:class:`CompiledFleetTick`).
    """

    def __init__(
        self, template: Cluster, n_devices: int, *, strength_exponent: float
    ) -> None:  # repro: shape[n_devices: int[N]]
        fleet_sensor_layout(template)
        self.name = template.name
        self.n_cores = template.n_cores  # repro: shape[int[C]]
        self.n_cores_f = float(template.n_cores)  # repro: shape[float]
        self.opps = template.opps
        self.power_model = template.power_model
        self.perf_model = template.perf_model
        points = template.opps.points
        self.freq_table = template.opps.frequency_array  # repro: shape[(n_opp,) f8]
        self.volt_table = template.opps.voltage_array  # repro: shape[(n_opp,) f8]
        # Per-OPP lookup tables and per-sensor rows, shared with the
        # scalar compiled read: column 0 of a sensor row is the power
        # sensor, columns 1..n_cores the per-core PMUs.  Broadcasting
        # one (1 + n_cores,) row against the (N, 1 + n_cores) noise
        # block applies the same elementwise ops as the per-sensor loop.
        tables = SensorTables(template)
        self.dynamic_table = tables.dynamic_table  # repro: shape[(n_opp,) f8]
        self.leakage_table = tables.leakage_table  # repro: shape[(n_opp,) f8]
        self.core_rate_table = tables.core_rate_table  # repro: shape[(n_opp,) f8]
        ipc = template.perf_model.ipc_factor
        self.strength_table = np.array(  # repro: shape[(n_opp,) f8]
            [(ipc * p.frequency_ghz) ** strength_exponent for p in points],
            dtype=float,
        )
        self.idle_core_fraction = tables.idle_core_fraction
        self.uncore_power = tables.uncore_power
        self.noise_row = tables.noise_row  # repro: shape[(C+1,) f8]
        self.res_mask_row = tables.res_mask_row  # repro: shape[(C+1,) b1]
        self.res_mask_i8 = tables.res_mask_i8  # repro: shape[(C+1,) i1]
        self.any_resolution = tables.any_resolution  # repro: shape[bool]
        self.safe_res_row = tables.safe_res_row  # repro: shape[(C+1,) f8]
        self.floor_row = tables.floor_row  # repro: shape[(C+1,) f8]
        self.telemetry_fields = tables.telemetry_fields
        self.core_ids = np.arange(self.n_cores, dtype=float)  # repro: shape[(C,) f8]
        self._reading_buf = np.empty(  # repro: shape[(N, C+1) f8]
            (n_devices, 1 + self.n_cores), dtype=float
        )
        # DVFS snap scratch: reused as ``opp_idx`` every set_frequency.
        self._snap_out = np.empty(n_devices, dtype=np.int64)  # repro: shape[(N,) i8]
        initial = template.opps.snap_indices(
            np.array([template.frequency_ghz], dtype=float)
        )
        self.opp_idx = np.full(  # repro: shape[(N,) i8]
            n_devices, int(initial[0]), dtype=np.int64
        )
        self.frequency = self.freq_table[self.opp_idx]  # repro: shape[(N,) f8]
        self.voltage = self.volt_table[self.opp_idx]  # repro: shape[(N,) f8]
        self.active = np.full(  # repro: shape[(N,) f8]
            n_devices, float(template.active_cores)
        )

    @property
    def telemetry_kernel(self):
        """The kernel the compiled tick reads this cluster with, or
        ``None`` when it is not loaded; no probe runs.  Every fleet
        cluster's sensors fit the kernel's reader, since
        ``fleet_sensor_layout`` rejects clusters of 8 or more cores.
        Kept only for the benchmark suite's run record, which reads it;
        it goes once the suite reads ``tick_reason`` (ROADMAP item 12)."""
        return fused_kernel()

    def set_frequency(self, requests: np.ndarray) -> np.ndarray:
        # repro: shape[requests: (N,) f8; -> (N,) f8]
        """Vectorized DVFS: snap every row's request to its OPP."""
        idx = self.opps.snap_indices(requests, out=self._snap_out)
        self.opp_idx = idx
        self.frequency = self.freq_table[idx]
        self.voltage = self.volt_table[idx]
        return self.frequency

    def apply_core_requests(
        self, requests: np.ndarray, mask: np.ndarray
    ) -> None:  # repro: shape[requests: (N,) f8; mask: (N,) b1]
        """Vectorized hotplug for the rows selected by ``mask``.

        ``np.rint`` is round-half-to-even, matching the scalar
        ``int(round(float(count)))`` actuator semantics exactly.
        """
        snapped = np.minimum(
            np.maximum(np.rint(requests), 1.0), self.n_cores_f
        )
        # In-place write keeps the array's identity (and with it the
        # compiled tick's argument blocks) stable; np.where materializes
        # its result before the assignment copies it over.
        self.active[...] = np.where(mask, snapped, self.active)


@dataclass
class FleetClusterTelemetry:
    """Per-cluster sensor readings, one ``(N,)`` array per field."""

    frequency_ghz: np.ndarray  # repro: shape[(N,) f8]
    voltage_v: np.ndarray  # repro: shape[(N,) f8]
    active_cores: np.ndarray  # repro: shape[(N,) f8]
    busy_core_equivalents: np.ndarray  # repro: shape[(N,) f8]
    power_w: np.ndarray  # repro: shape[(N,) f8]
    ips: np.ndarray  # repro: shape[(N,) f8]


@dataclass
class FleetTelemetry:
    """Fleet-wide sensor snapshot for one interval.

    ``chip_power_w`` is precomputed with the same ``big + little``
    addition as the scalar ``Telemetry.chip_power_w`` property.
    """

    time_s: float
    qos_rate: np.ndarray
    qos_raw: np.ndarray
    big: FleetClusterTelemetry
    little: FleetClusterTelemetry
    chip_power_w: np.ndarray


class FleetPlatform:
    """N simulated Exynos-like devices advanced per tick by array ops.

    Every device runs the *same* workload/scenario (one N-device job
    replaces N identical jobs with different seeds); per-device noise
    comes from independent generators seeded with the per-row seeds
    (``rngs``), pre-drawn ``noise_chunk_ticks`` ticks at a time (``None``
    takes the default, 16).  ``fused_reason`` is ``None`` when the
    compiled kernel refills that noise, otherwise why the per-row numpy
    loop does (:func:`~repro.control.fused.noise_fill_reason`).
    """

    def __init__(
        self,
        *,
        qos_app: QoSWorkload | None = None,
        background: list[BackgroundTask] | None = None,
        seeds,
        config: SoCConfig | None = None,
        noise_chunk_ticks: int | None = None,
    ) -> None:
        self.config = config or SoCConfig()
        if self.config.dt_s <= 0:
            raise PlatformError("dt must be positive")
        if self.config.heartbeat_window_s <= 0:
            raise PlatformError("heartbeat window must be positive")
        seeds = tuple(int(s) for s in seeds)
        if not seeds:
            raise PlatformError("fleet needs at least one device seed")
        self.seeds = seeds
        self.n_devices = len(seeds)  # repro: shape[int[N]]
        # Scheduler constants are read off a real HMPScheduler so the
        # mirror can never drift from the scalar defaults.
        scalar_scheduler = HMPScheduler()
        self._little_bias = scalar_scheduler._little_bias
        self._strength_exponent = scalar_scheduler._strength_exponent
        self._hysteresis_multiplier = (
            1.0 + scalar_scheduler._migration_hysteresis
        )
        big_template = Cluster(
            "big",
            n_cores=self.config.cores_per_cluster,
            opps=big_cluster_opps(),
            power_model=big_cluster_power_model(),
            perf_model=big_cluster_perf_model(),
        )
        little_template = Cluster(
            "little",
            n_cores=self.config.cores_per_cluster,
            opps=little_cluster_opps(),
            power_model=little_cluster_power_model(),
            perf_model=little_cluster_perf_model(),
        )
        self.big = FleetCluster(  # repro: shape[obj[FleetCluster]]
            big_template,
            self.n_devices,
            strength_exponent=self._strength_exponent,
        )
        self.little = FleetCluster(  # repro: shape[obj[FleetCluster]]
            little_template,
            self.n_devices,
            strength_exponent=self._strength_exponent,
        )
        self.qos_app = qos_app
        self.background = list(background or [])
        # Per-task, per-row previous-cluster ids (1=big, 2=little).
        self._sched_prev: dict[str, np.ndarray] = {}
        # Shared-timestamp heartbeat window: (time, (N,) counts) pairs.
        self._hb_window = self.config.heartbeat_window_s
        self._hb_records: deque[tuple[float, np.ndarray]] = deque()
        self._rngs = tuple(np.random.default_rng(s) for s in seeds)
        self.time_s = 0.0  # repro: shape[float]
        # Pre-drawn standard-normal blocks.  Per-tick draw layout per
        # device: [QoS workload (iff noisy)] + [big power, big PMUs] +
        # [little power, little PMUs] — the documented scalar order.
        self._qos_draws = (  # repro: shape[int[q]]
            1 if qos_app is not None and qos_app.variability > 0 else 0
        )
        per_cluster = self.config.cores_per_cluster + 1  # repro: shape[int[C+1]]
        self._draws_per_tick = self._qos_draws + 2 * per_cluster  # repro: shape[int[q + 2*(C+1)]]
        if noise_chunk_ticks is None:
            noise_chunk_ticks = _NOISE_CHUNK_TICKS
        self._noise_chunk = max(1, int(noise_chunk_ticks))  # repro: shape[int]
        self._noise_buf = np.empty(  # repro: shape[(N, _) f8 !rng[q + 2*(C+1)]]
            (self.n_devices, self._draws_per_tick * self._noise_chunk),
            dtype=float,
        )
        self._noise_used = self._noise_chunk  # repro: shape[int]
        self.fused_reason = noise_fill_reason()
        self._noise_fill = None
        if self.fused_reason is None:
            self._noise_fill = fused_kernel().noise_fill
            # The block points at the bitgen table and the noise buffer;
            # the platform keeps both, and the generators, for its life.
            self._bitgens = bitgen_table(self._rngs)  # repro: shape[(N,) i8]
            self._noise_args = noise_block(self._bitgens, self._noise_buf)
            self._noise_address = self._noise_args.ctypes.data
        if qos_app is not None:
            self._qos_threads = float(qos_app.threads)  # repro: shape[float]
            self._peak_fs_table = qos_rate_table(  # repro: shape[(n_opp,) f8 | none]
                qos_app, big_template
            )
        else:
            self._qos_threads = 0.0
            self._peak_fs_table = None
        # The compiled plant tick, bound on the first step (see
        # compiled_tick) and re-bound if the workload is swapped.
        self._tick: CompiledFleetTick | None = None
        self._tick_reason: str | None = None
        self._tick_workload = _UNBOUND

    @property
    def rngs(self) -> tuple[np.random.Generator, ...]:
        """Each row's generator.  Read-only: the compiled refill holds
        their addresses."""
        return self._rngs

    def compiled_tick(self) -> CompiledFleetTick | None:
        """The compiled plant tick, or ``None`` when the numpy tick runs
        (``tick_reason`` says why).  Bound on first use, and again if
        the workload is swapped."""
        if self._tick_workload is not self.qos_app:
            self._tick_workload = self.qos_app
            self._tick, self._tick_reason = _bind_fleet_tick(self)
        return self._tick

    @property
    def tick_reason(self) -> str | None:
        """Why this fleet's tick runs on numpy; ``None`` when the
        compiled ``plant_tick`` kernel runs it."""
        self.compiled_tick()
        return self._tick_reason

    # ------------------------------------------------------------------
    def step(self) -> FleetTelemetry:
        """Advance all devices one control interval (scalar-step mirror).

        After the background placement, the QoS rate, the busy clamps,
        both sensor reads and the chip power run as one compiled
        ``plant_tick`` call (:class:`CompiledFleetTick`) wherever its
        probe passed; the numpy tick (:meth:`_numpy_plant`) is the
        reference it reproduces.
        """
        now = self.time_s
        qos_app = self.qos_app
        qos_threads = self._qos_threads
        if self._noise_used == self._noise_chunk:
            self._refill_noise()
        used = self._noise_used
        self._noise_used = used + 1

        active_bg = [t for t in self.background if t.active_at(now)]
        if active_bg:
            big_demand, little_demand = self._place(active_bg, qos_threads)
        else:
            if self._sched_prev:
                self._sched_prev.clear()
            big_demand = 0.0
            little_demand = 0.0

        tick = self.compiled_tick()
        if tick is None:
            width = self._draws_per_tick
            z = self._noise_buf[:, used * width : (used + 1) * width]
            qos_rate_raw, big_telemetry, little_telemetry, chip_power_w = (
                self._numpy_plant(now, big_demand, little_demand, z)
            )
        else:
            qos_rate_raw, big_telemetry, little_telemetry, chip_power_w = (
                tick.run(self, now, big_demand, little_demand, used)
            )
        qos_rate = 0.0
        if qos_app is not None:
            self._hb_issue(now, qos_rate_raw * self.config.dt_s)
            qos_rate = self._hb_rate(now)
        telemetry = FleetTelemetry(
            time_s=now,
            qos_rate=qos_rate,
            qos_raw=qos_rate_raw,
            big=big_telemetry,
            little=little_telemetry,
            chip_power_w=chip_power_w,
        )
        self.time_s = now + self.config.dt_s
        return telemetry

    def _numpy_plant(self, now: float, big_demand, little_demand, z):
        # repro: shape[z: (N, q + 2*(C+1)) f8]
        """The numpy tick after placement: the QoS rate on the Big
        cluster's fair share, both busy clamps, both sensor reads and
        the chip power.  The reference :class:`CompiledFleetTick`
        reproduces bit for bit."""
        big = self.big
        little = self.little
        qos_threads = self._qos_threads
        big_capacity = big.active
        big_runnable = qos_threads + big_demand
        big_share = _fair_share_capacity(big_capacity, big_runnable)
        qos_rate_raw = 0.0
        if self.qos_app is not None:
            qos_rate_raw = self._qos_rate(now, qos_threads * big_share, z)
        big_busy = np.minimum(big_capacity, big_runnable)
        little_busy = np.minimum(little.active, little_demand)

        offset = self._qos_draws
        per_cluster = big.n_cores + 1
        big_telemetry = _cluster_telemetry(
            big, big_busy, z[:, offset : offset + per_cluster]
        )
        offset += per_cluster
        little_telemetry = _cluster_telemetry(
            little, little_busy, z[:, offset : offset + little.n_cores + 1]
        )
        return (
            qos_rate_raw,
            big_telemetry,
            little_telemetry,
            big_telemetry.power_w + little_telemetry.power_w,
        )

    def _refill_noise(self) -> None:
        # Chunked standard_normal draws consume the ziggurat stream
        # exactly like per-tick draws would (RNG contract tests).  The
        # compiled refill runs numpy's fill on each row's generator:
        # the same values, and the same generator state afterwards.
        if self._noise_fill is not None:
            self._noise_fill(self._noise_address)
        else:
            buf = self._noise_buf
            for row, rng in enumerate(self._rngs):
                rng.standard_normal(out=buf[row])
        self._noise_used = 0

    # ------------------------------------------------------------------
    def _qos_rate(self, now: float, effective_threads, z) -> np.ndarray:
        # repro: shape[z: (N, q + 2*(C+1)) f8; -> (N,) f8]
        """Vectorized ``QoSWorkload.rate`` on the Big cluster."""
        qos_app = self.qos_app
        qos_threads = self._qos_threads
        current_fraction = qos_app.parallel_fraction_at(now)
        reference_speedup = amdahl_speedup(current_fraction, qos_threads)
        if reference_speedup == 0:
            base = 0.0
        else:
            speedup = _amdahl_array(current_fraction, effective_threads)
            base = (
                self._peak_fs_table[self.big.opp_idx]
                * speedup
                / reference_speedup
            )
        if current_fraction != qos_app.parallel_fraction:
            nominal_ref = amdahl_speedup(
                qos_app.parallel_fraction, qos_threads
            )
            phase_ref = amdahl_speedup(current_fraction, qos_threads)
            if nominal_ref > 0:
                base = base * (phase_ref / nominal_ref)
        if qos_app.variability > 0:
            gain = 1.0 + qos_app.variability * z[:, 0]
            gain = np.minimum(np.maximum(gain, 0.5), 1.5)
            base = base * gain
        return np.maximum(base, 0.0)

    # ------------------------------------------------------------------
    def _hb_issue(self, time_s: float, counts: np.ndarray) -> None:
        self._hb_records.append((time_s, counts))
        self._hb_evict(time_s)

    def _hb_evict(self, now_s: float) -> None:
        horizon = now_s - self._hb_window + self._hb_window * 1e-6
        records = self._hb_records
        while records and records[0][0] <= horizon:
            records.popleft()

    def _hb_rate(self, now_s: float):
        self._hb_evict(now_s)
        # Sequential accumulation from 0.0 mirrors the scalar
        # sum(r.count for r in records) fold order.
        total = 0.0
        for _, counts in self._hb_records:
            total = total + counts
        return total / self._hb_window

    # ------------------------------------------------------------------
    def _place(self, tasks, qos_threads: float):
        """Vectorized ``HMPScheduler.place``: per-task loop, per-row costs."""
        big = self.big
        little = self.little
        big_capacity = big.active * big.strength_table[big.opp_idx]
        little_capacity = (
            little.active * little.strength_table[little.opp_idx]
        )
        multiplier = self._hysteresis_multiplier
        previous_map = self._sched_prev
        big_load = qos_threads
        little_load = 0.0
        big_demand = 0.0
        little_demand = 0.0
        active_names = set()
        for task in sorted(tasks, key=lambda t: (-t.demand, t.name)):
            active_names.add(task.name)
            demand = task.demand
            big_cost = (big_load + demand) / big_capacity
            little_cost = (
                (little_load + demand) / little_capacity - self._little_bias
            )
            previous = previous_map.get(task.name)
            if previous is not None:
                little_cost = np.where(
                    previous == _BIG_ID, little_cost * multiplier, little_cost
                )
                big_cost = np.where(
                    previous == _LITTLE_ID, big_cost * multiplier, big_cost
                )
            choose_little = little_cost <= big_cost
            little_load = little_load + np.where(choose_little, demand, 0.0)
            big_load = big_load + np.where(choose_little, 0.0, demand)
            little_demand = little_demand + np.where(
                choose_little, demand, 0.0
            )
            big_demand = big_demand + np.where(choose_little, 0.0, demand)
            previous_map[task.name] = np.where(
                choose_little, _LITTLE_ID, _BIG_ID
            )
        for name in list(previous_map):
            if name not in active_names:
                del previous_map[name]
        return big_demand, little_demand


# ----------------------------------------------------------------------
def _fair_share_capacity(capacity: np.ndarray, runnable):
    # repro: shape[capacity: (N,) f8]
    """Vectorized ``soc.fair_share_capacity``."""
    if np.ndim(runnable) == 0:
        if runnable <= 0:
            return 0.0
        return np.minimum(1.0, capacity / runnable)
    safe = np.where(runnable > 0.0, runnable, 1.0)
    return np.where(
        runnable <= 0.0, 0.0, np.minimum(1.0, capacity / safe)
    )


def _amdahl_array(parallel_fraction: float, threads) -> np.ndarray:
    """Element-wise mirror of ``perf.amdahl_speedup``.

    The ``threads < 1`` branch is reachable (a contended thread gets a
    fractional core share), so both branches are computed and selected
    with ``np.where``; the denominator is guarded so masked-out rows
    never divide by zero.
    """
    guarded = np.maximum(threads, 1.0)
    full = 1.0 / (
        (1.0 - parallel_fraction) + parallel_fraction / guarded
    )
    out = np.where(threads < 1.0, threads, full)
    return np.where(threads <= 0.0, 0.0, out)


def _cluster_telemetry(
    fc: FleetCluster, busy_core_equivalents: np.ndarray, z: np.ndarray
) -> FleetClusterTelemetry:
    # repro: shape[fc: obj[FleetCluster]; busy_core_equivalents: (N,) f8]
    # repro: shape[z: (N, C+1) f8; -> obj[FleetClusterTelemetry]]
    """Vectorized ``soc.read_cluster_telemetry`` fast path, in numpy."""
    active = fc.active
    idx = fc.opp_idx
    busy = np.minimum(np.maximum(busy_core_equivalents, 0.0), active)
    idle_cores = active - busy
    dynamic = fc.dynamic_table[idx] * (  # repro: shape[(N,) f8]
        busy + fc.idle_core_fraction * idle_cores
    )
    static = fc.leakage_table[idx] * active  # repro: shape[(N,) f8]
    true_power_w = dynamic + static + fc.uncore_power  # repro: shape[(N,) f8]
    total_ips = busy_core_equivalents * fc.core_rate_table[idx]
    share = 1.0 / active
    target = total_ips * share
    # All sensors of the cluster read in one fused (N, 1 + n_cores)
    # block: column 0 the power sensor, columns 1.. the PMUs.  Every op
    # is elementwise with per-column parameters, so each element equals
    # the per-sensor soc._read_with_gain result bit for bit.
    values = fc._reading_buf
    values[:, 0] = true_power_w
    values[:, 1:] = np.where(
        fc.core_ids < active[:, None], target[:, None], 0.0
    )
    gain = 1.0 + fc.noise_row * z
    gain = np.minimum(np.maximum(gain, 0.0), 2.0)
    values = values * gain
    if fc.any_resolution:
        values = np.where(
            fc.res_mask_row,
            np.rint(values / fc.safe_res_row) * fc.safe_res_row,
            values,
        )
    values = np.maximum(values, fc.floor_row)
    power_w = values[:, 0]
    # Sequential column fold, mirroring the scalar per-core accumulation
    # order (pairwise np.sum would associate differently).
    ips = 0.0
    for i in range(fc.n_cores):
        ips = ips + values[:, i + 1]
    return FleetClusterTelemetry(
        frequency_ghz=fc.frequency,
        voltage_v=fc.voltage,
        active_cores=active,
        busy_core_equivalents=busy_core_equivalents,
        power_w=power_w,
        ips=ips,
    )


class CompiledFleetTick:
    """A fleet's plant tick after placement on the compiled
    ``plant_tick`` kernel: every row's QoS rate, busy clamps, sensor
    reads and chip power in one call.

    Every output is double-buffered, so the previous tick's arrays stay
    intact without per-tick allocation: per flip, the QoS rate, both
    busy equivalents, the chip power and each cluster's power and ips.
    Each flip has one argument block, which points at one
    telemetry block per cluster (that cluster's tables, state
    and outputs for the flip; per-core output NULL).  All of them are
    rebuilt whenever a cluster's ``active`` or ``opp_idx`` array moves.
    A call copies the two demand rows into fixed buffers, writes the
    current parallel fraction and points the z slot at this tick's
    columns of the noise buffer.
    """

    def __init__(self, kernel, platform: FleetPlatform) -> None:
        n = platform.n_devices
        self._call = kernel.plant_tick
        self.qos_app = platform.qos_app
        self._peak = platform._peak_fs_table
        # Per flip: the QoS rate, the chip power and, per cluster, its
        # busy equivalents, power and ips (FleetClusterTelemetry's order).
        self._outputs = tuple(
            (
                np.empty(n, dtype=float),
                np.empty(n, dtype=float),
                tuple(np.empty(n, dtype=float) for _ in range(3)),
                tuple(np.empty(n, dtype=float) for _ in range(3)),
            )
            for _ in range(2)
        )
        self._flip = 0  # repro: shape[int]
        self._demand = np.zeros((2, n), dtype=float)  # repro: shape[(2, N) f8]
        self._fraction = np.zeros(1, dtype=float)  # repro: shape[(1,) f8]
        self._noise_address = platform._noise_buf.ctypes.data
        self._tick_bytes = 8 * platform._draws_per_tick
        self._key: tuple | None = None
        self._blocks: list = []
        self._held: list = []

    def _rebuild(self, platform: FleetPlatform) -> None:
        big = platform.big
        little = platform.little
        n = platform.n_devices
        qos_app = self.qos_app
        if qos_app is None:
            mode, variability, threads, nominal = QOS_NONE, 0.0, 0.0, 0.0
        else:
            variability = qos_app.variability
            mode = QOS_STANDARD_NORMAL if variability > 0 else QOS_QUIET
            threads = platform._qos_threads
            nominal = qos_app.parallel_fraction
        offset = platform._qos_draws
        blocks = []
        held = []
        for qos, chip, big_out, little_out in self._outputs:
            telemetry = [
                arg_block(
                    telemetry_args(
                        fc,
                        active=fc.active.ctypes.data,
                        opp=fc.opp_idx.ctypes.data,
                        power_out=out[1].ctypes.data,
                        ips_out=out[2].ctypes.data,
                    )
                )
                for fc, out in ((big, big_out), (little, little_out))
            ]
            block = arg_block(
                plant_tick_args(
                    n,
                    qos_mode=mode,
                    variability=variability,
                    threads=threads,
                    parallel_fraction=nominal,
                    current_fraction=self._fraction.ctypes.data,
                    peak_rate_table=(
                        0 if self._peak is None else self._peak.ctypes.data
                    ),
                    big_demand=self._demand[0].ctypes.data,
                    little_demand=self._demand[1].ctypes.data,
                    z=0,
                    z_stride=platform._noise_buf.shape[1],
                    big_offset=offset,
                    little_offset=offset + big.n_cores + 1,
                    big_telemetry=telemetry[0].ctypes.data,
                    little_telemetry=telemetry[1].ctypes.data,
                    qos_out=qos.ctypes.data,
                    big_busy_out=big_out[0].ctypes.data,
                    little_busy_out=little_out[0].ctypes.data,
                    chip_out=chip.ctypes.data,
                )
            )
            blocks.append((block, block.ctypes.data))
            held += telemetry
        self._blocks = blocks
        # The tick blocks point at the telemetry blocks: hold them for
        # as long as the tick blocks live.
        self._held = held
        self._key = (big.active, big.opp_idx, little.active, little.opp_idx)

    def run(
        self,
        platform: FleetPlatform,
        now: float,
        big_demand,
        little_demand,
        used: int,
    ):
        """One tick of ``platform`` after placement, on noise slice
        ``used`` of the buffer: ``(qos_rate_raw, big, little,
        chip_power_w)``, as :meth:`FleetPlatform._numpy_plant` returns
        them."""
        big = platform.big
        little = platform.little
        key = self._key
        if (
            key is None
            or key[0] is not big.active
            or key[1] is not big.opp_idx
            or key[2] is not little.active
            or key[3] is not little.opp_idx
        ):
            self._rebuild(platform)
        flip = self._flip
        self._flip = 1 - flip
        demand = self._demand
        demand[0] = big_demand
        demand[1] = little_demand
        qos_app = self.qos_app
        if qos_app is not None:
            self._fraction[0] = qos_app.parallel_fraction_at(now)
        block, address = self._blocks[flip]
        block[TICK_Z] = self._noise_address + used * self._tick_bytes
        self._call(address)
        qos, chip, big_out, little_out = self._outputs[flip]
        return (
            qos if qos_app is not None else 0.0,
            FleetClusterTelemetry(
                big.frequency, big.voltage, big.active, *big_out
            ),
            FleetClusterTelemetry(
                little.frequency, little.voltage, little.active, *little_out
            ),
            chip,
        )


def _fleet_content(platform: FleetPlatform) -> tuple:
    """Everything the compiled tick reads besides the per-row state, as
    a memo key: the workload (a frozen dataclass) and the bytes of both
    clusters' tables and sensor rows and of the QoS rate table."""
    parts = []
    for fc in (platform.big, platform.little):
        parts += [
            fc.dynamic_table,
            fc.leakage_table,
            fc.core_rate_table,
            np.array([fc.idle_core_fraction, fc.uncore_power], dtype=float),
            fc.noise_row,
            fc.res_mask_i8,
            fc.safe_res_row,
            fc.floor_row,
        ]
    if platform._peak_fs_table is not None:
        parts.append(platform._peak_fs_table)
    return platform.qos_app, b"".join(part.tobytes() for part in parts)


# Probe verdicts keyed by _fleet_content.  The probe ticks a scratch
# fleet of its own, so one verdict serves every fleet of that content
# whatever its row count; run_fleet_scenario builds a fresh platform per
# run, which would otherwise repeat it every run.
_FLEET_TICK_MEMO: dict[tuple, tuple[None, str | None]] = {}


def _bind_fleet_tick(
    platform: FleetPlatform,
) -> tuple[CompiledFleetTick | None, str | None]:
    """The fleet's compiled tick, or ``None`` and the reason the numpy
    tick runs instead."""
    kernel = fused_kernel()
    if kernel is None:
        return None, unavailable_reason()
    qos_app = platform.qos_app
    if qos_app is not None and type(qos_app) is not QoSWorkload:
        return None, (
            f"workload is a {type(qos_app).__name__}, not a QoSWorkload"
        )
    _, reason = probe_verdict(
        _FLEET_TICK_MEMO,
        _fleet_content(platform),
        lambda: (None, _probe_fleet_tick(platform, kernel)),
    )
    if reason is not None:
        return None, reason
    return CompiledFleetTick(kernel, platform), None


def _probe_fleet_tick(platform: FleetPlatform, kernel) -> bool:
    # repro: shape[platform: obj[FleetPlatform]]
    """Differential gate for the compiled fleet tick.

    Ticks a scratch fleet of the same workload and configuration through
    both paths: one row per Big OPP and
    active-core count, Little OPPs and counts drawn per trial,
    background demands that are zero (the scalar 0.0 of a tick with no
    placement) or drawn per row across negative and over-capacity
    values, the start and end of every serial phase of the workload,
    and noise at magnitudes that span the sensors' and the workload's
    gain clamps.  Accepts only when the QoS rate, both busy
    equivalents, every reading and the chip power agree bit for bit.
    """
    big_opps = platform.big.freq_table.size
    little_opps = platform.little.freq_table.size
    n_cores = platform.big.n_cores
    scratch = FleetPlatform(
        qos_app=platform.qos_app,
        seeds=range(big_opps * n_cores),
        config=platform.config,
    )
    rows = scratch.n_devices
    big = scratch.big
    little = scratch.little
    tick = CompiledFleetTick(kernel, scratch)
    index = np.arange(rows)
    big.opp_idx[...] = index // n_cores
    big.active[...] = (index % n_cores + 1).astype(float)
    times = [0.0]
    if scratch.qos_app is not None:
        for phase in scratch.qos_app.serial_phases:
            times += [phase.start_s, phase.end_s]
    width = scratch._draws_per_tick
    spread = 2.0 * (n_cores + 1)
    rng = np.random.default_rng(0xF1EE)
    for scale in (1e-2, 1.0, 1e2):
        for now in times:
            for placed in (False, True):
                little.opp_idx[...] = rng.integers(0, little_opps, rows)
                little.active[...] = rng.integers(
                    1, little.n_cores + 1, rows
                ).astype(float)
                demands = (0.0, 0.0)
                if placed:
                    demands = tuple(rng.uniform(-spread, spread, (2, rows)))
                scratch._noise_buf[:, :width] = (
                    rng.standard_normal((rows, width)) * scale
                )
                expected = scratch._numpy_plant(
                    now, *demands, scratch._noise_buf[:, :width]
                )
                got = tick.run(scratch, now, *demands, 0)
                if not _same_fleet_tick(expected, got):
                    return False
    return True


def _same_fleet_tick(a: tuple, b: tuple) -> bool:
    """Bit-for-bit equality of two fleet ticks' QoS rates, busy
    equivalents, readings and chip powers."""
    pairs = [(a[0], b[0]), (a[3], b[3])]
    for x, y in zip(a[1:3], b[1:3]):
        pairs += [
            (x.busy_core_equivalents, y.busy_core_equivalents),
            (x.power_w, y.power_w),
            (x.ips, y.ips),
        ]
    return all(
        np.shape(x) == np.shape(y)
        and np.asarray(x, dtype=float).tobytes()
        == np.asarray(y, dtype=float).tobytes()
        for x, y in pairs
    )
