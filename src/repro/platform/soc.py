"""The simulated big.LITTLE SoC.

Assembles OPP tables, power/performance models, sensors and the HMP
scheduler into a discrete-time plant with exactly the sensor/actuator
surface the paper's resource managers see on the ODROID-XU3:

* per-cluster actuators: DVFS frequency (snapped to the OPP table) and
  active core count (hotplug);
* optional per-core idle-cycle-insertion actuators (used only by the
  large-MIMO scalability experiments of Figures 4/5/15);
* per-cluster power sensors, per-core PMU rate counters, and a
  Heartbeats-based QoS reading for the foreground application.

The simulation step is the 50 ms control interval of the paper's
userspace daemon.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.control.fused import (
    QOS_DRAWN_GAIN,
    QOS_NONE,
    QOS_QUIET,
    arg_block,
    fused_kernel,
    plant_tick_args,
    probe_verdict,
    telemetry_args,
    unavailable_reason,
)
from repro.platform.faults import FaultySensor
from repro.platform.opp import OPPTable, big_cluster_opps, little_cluster_opps
from repro.platform.perf import (
    ClusterPerfModel,
    big_cluster_perf_model,
    frequency_scale,
    little_cluster_perf_model,
)
from repro.platform.power import (
    PowerModel,
    big_cluster_power_model,
    little_cluster_power_model,
)
from repro.platform.scheduler import ClusterCapacity, HMPScheduler, fair_share
from repro.platform.sensors import (
    NoisySensor,
    batched_noise_eligible,
    pmu_counter,
    power_sensor,
)
from repro.workloads.base import BackgroundTask, QoSWorkload
from repro.workloads.heartbeats import HeartbeatMonitor


class PlatformError(RuntimeError):
    """Raised on invalid actuation or configuration."""


class Cluster:
    """One homogeneous core cluster with its actuators and sensors."""

    def __init__(
        self,
        name: str,
        *,
        n_cores: int,
        opps: OPPTable,
        power_model: PowerModel,
        perf_model: ClusterPerfModel,
    ) -> None:
        if n_cores < 1:
            raise PlatformError("cluster needs at least one core")
        self.name = name
        self.n_cores = n_cores
        self.opps = opps
        self.power_model = power_model
        self.perf_model = perf_model
        self._frequency_ghz = opps.max_frequency
        self._voltage_v = opps.snap(self._frequency_ghz).voltage_v
        # OPP index of the current frequency, for the compiled plant
        # tick's per-OPP tables.
        self._opp_index_of = {
            opp.frequency_ghz: index for index, opp in enumerate(opps.points)
        }
        self._opp_index = self._opp_index_of[self._frequency_ghz]
        self._active_cores = n_cores
        self._idle_fractions = np.zeros(n_cores, dtype=float)
        # Count of cores with nonzero idle insertion; lets the hot path
        # skip the idle-weighting array math in the common all-busy case.
        self._idle_cores = 0
        self.power_sensor: NoisySensor = power_sensor(name)
        self.pmu_sensors: tuple[NoisySensor, ...] = tuple(
            pmu_counter(f"{name}-core{i}") for i in range(n_cores)
        )
        # Optional fault-injection layer consulted by the actuators
        # (set by repro.platform.faults.inject_actuator_fault).
        self.actuator_faults = None
        # Identity-keyed cache of the instruments and their bound
        # ``set_time`` methods, re-derived when fault injection swaps an
        # instrument (see clock_setters); ExynosSoC.compiled_tick
        # re-binds its tick when this tuple changes identity.
        self._instruments: tuple = ()
        self._clock_setters: tuple = ()

    # ------------------------------ actuators -------------------------
    @property
    def frequency_ghz(self) -> float:
        return self._frequency_ghz

    def set_frequency(self, frequency_ghz: float) -> float:
        """DVFS request; snaps to the nearest OPP and returns it.

        When a fault-injection layer is attached, the request passes
        through it first (it may be rejected, clamped, applied
        partially, or delayed); the value that survives is snapped to
        the OPP table like any governor write.
        """
        opp = self.opps.snap(frequency_ghz)
        if self.actuator_faults is not None:
            target_ghz = self.actuator_faults.filter_frequency(
                self._frequency_ghz, opp.frequency_ghz
            )
            opp = self.opps.snap(target_ghz)
        self._frequency_ghz = opp.frequency_ghz
        self._voltage_v = opp.voltage_v
        self._opp_index = self._opp_index_of[opp.frequency_ghz]
        return opp.frequency_ghz

    @property
    def voltage_v(self) -> float:
        # Cached alongside the frequency by set_frequency, so telemetry
        # never re-bisects the OPP table.
        return self._voltage_v

    @property
    def active_cores(self) -> int:
        return self._active_cores

    def set_active_cores(self, count: float) -> int:
        """Hotplug request; rounds and clamps to [1, n_cores].

        Rounding is Python's built-in round-half-to-even ("banker's
        rounding"): a request of 2.5 cores plugs **2**, while 3.5 plugs
        4.  This is pinned as the intended actuator semantics
        (``tests/platform/test_soc.py::TestHotplugRounding``): it is
        the behaviour the golden traces were generated with, it avoids
        a systematic upward hotplug bias when a continuous controller
        dithers around ``.5`` requests, and ``ActuatorProxy`` applies
        the same rounding so proxied and direct actuation agree.

        A request dropped by an attached fault-injection layer leaves
        the active count unchanged (silent hotplug failure).
        """
        if (
            self.actuator_faults is not None
            and not self.actuator_faults.allow_hotplug()
        ):
            return self._active_cores
        snapped = int(round(float(count)))
        snapped = max(1, min(self.n_cores, snapped))
        self._active_cores = snapped
        return snapped

    @property
    def idle_fractions(self) -> np.ndarray:
        return self._idle_fractions.copy()

    def set_idle_fraction(self, core: int, fraction: float) -> None:
        """Per-core idle-cycle insertion (Figure 4's per-core actuator)."""
        if not 0 <= core < self.n_cores:
            raise PlatformError(f"core index {core} out of range")
        clipped = float(fraction)
        if clipped < 0.0:
            clipped = 0.0
        elif clipped > 0.95:
            clipped = 0.95
        was_idle = self._idle_fractions[core] > 0.0
        self._idle_fractions[core] = clipped
        if (clipped > 0.0) != was_idle:
            self._idle_cores += 1 if clipped > 0.0 else -1

    # ------------------------------ derived ---------------------------
    def effective_capacity(self) -> float:
        """Core-equivalents available after idle-cycle insertion."""
        if self._idle_cores == 0:
            # All-busy common case; bit-identical to summing ones.
            return float(self._active_cores)
        return _idle_adjusted_capacity(self._idle_fractions, self._active_cores)

    def core_rate_ips(self) -> float:
        """Instructions/s of one fully-busy core at the current OPP (G-inst/s)."""
        # IPC-like constant folded into ipc_factor; 1 G-inst/s per GHz
        # for a Big core at alpha=1.
        return self.perf_model.ipc_factor * self._frequency_ghz

    # ------------------------------ instruments -----------------------
    def _check_instruments(self) -> None:
        """Re-derive the instrument caches if one was swapped.

        Fault injection replaces ``power_sensor`` or ``actuator_faults``
        by plain assignment (``pmu_sensors`` is a tuple, so it can only
        be replaced whole), so the per-step cost is three identity
        tests instead of a scan over every sensor.
        """
        held = self._instruments
        if (
            held
            and held[0] is self.power_sensor
            and held[1] is self.pmu_sensors
            and held[2] is self.actuator_faults
        ):
            return
        self._instruments = (
            self.power_sensor,
            self.pmu_sensors,
            self.actuator_faults,
        )
        setters = []
        for instrument in (
            self.power_sensor,
            *self.pmu_sensors,
            self.actuator_faults,
        ):
            setter = getattr(instrument, "set_time", None)
            if setter is not None:
                setters.append(setter)
        self._clock_setters = tuple(setters)

    def clock_setters(self) -> tuple:
        """Bound ``set_time`` methods of the time-aware instruments.

        Plain sensors (no ``set_time``) contribute nothing, so the
        fault-free fast path iterates an empty tuple.
        """
        self._check_instruments()
        return self._clock_setters


@dataclass
class ClusterTelemetry:
    """Per-cluster sensor readings for one interval."""

    frequency_ghz: float
    voltage_v: float
    active_cores: int
    busy_core_equivalents: float
    power_w: float
    ips: float
    per_core_ips: np.ndarray


@dataclass
class Telemetry:
    """Full sensor snapshot the resource managers consume each interval."""

    time_s: float
    qos_rate: float
    qos_raw: float
    big: ClusterTelemetry
    little: ClusterTelemetry

    @property
    def chip_power_w(self) -> float:
        return self.big.power_w + self.little.power_w


@dataclass
class SoCConfig:
    """Construction parameters for :class:`ExynosSoC`."""

    dt_s: float = 0.05
    seed: int = 2018
    heartbeat_window_s: float = 0.10
    cores_per_cluster: int = 4


class ExynosSoC:
    """The simulated Exynos-5422-like platform.

    A single foreground :class:`QoSWorkload` runs (pinned) on the Big
    cluster; background tasks are free to migrate.  Call
    :meth:`step` once per 50 ms control interval.
    """

    def __init__(
        self,
        *,
        qos_app: QoSWorkload | None = None,
        background: list[BackgroundTask] | None = None,
        config: SoCConfig | None = None,
    ) -> None:
        self.config = config or SoCConfig()
        if self.config.dt_s <= 0:
            raise PlatformError("dt must be positive")
        self.big = Cluster(
            "big",
            n_cores=self.config.cores_per_cluster,
            opps=big_cluster_opps(),
            power_model=big_cluster_power_model(),
            perf_model=big_cluster_perf_model(),
        )
        self.little = Cluster(
            "little",
            n_cores=self.config.cores_per_cluster,
            opps=little_cluster_opps(),
            power_model=little_cluster_power_model(),
            perf_model=little_cluster_perf_model(),
        )
        self.qos_app = qos_app
        self.background = list(background or [])
        self.scheduler = HMPScheduler()
        self.heartbeats = HeartbeatMonitor(
            window_s=self.config.heartbeat_window_s
        )
        self.rng = np.random.default_rng(self.config.seed)
        self.time_s = 0.0
        self._clusters = (self.big, self.little)
        # The compiled plant tick, bound on first use and re-bound when
        # the workload or a cluster's instruments change identity (see
        # compiled_tick).
        self._tick: CompiledTick | None = None
        self._tick_reason: str | None = None
        self._tick_key: tuple | None = None

    # ------------------------------------------------------------------
    def add_background_task(self, task: BackgroundTask) -> None:
        self.background.append(task)

    def clusters(self) -> tuple[Cluster, Cluster]:
        return self._clusters

    def compiled_tick(self) -> CompiledTick | None:
        """The compiled plant tick, or ``None`` when this tick runs in
        Python (``tick_reason`` says why).

        Bound on first use and whenever the workload or a cluster's
        instruments change identity (a swapped instrument re-binds the
        tick's eligibility, fault layers and clock setters); idle
        insertion is checked per tick, since it changes per tick.
        """
        big = self.big
        little = self.little
        big._check_instruments()
        little._check_instruments()
        key = self._tick_key
        if (
            key is None
            or key[0] is not self.qos_app
            or key[1] is not big._instruments
            or key[2] is not little._instruments
        ):
            self._tick_key = (self.qos_app, big._instruments, little._instruments)
            self._tick, self._tick_reason = _bind_tick(self)
        if big._idle_cores or little._idle_cores:
            return None
        return self._tick

    @property
    def tick_reason(self) -> str | None:
        """Why this SoC's tick runs in Python; ``None`` when the
        compiled ``plant_tick`` kernel runs it."""
        if self.compiled_tick() is None and self._tick_reason is None:
            return "idle insertion"
        return self._tick_reason

    # ------------------------------------------------------------------
    def step(self) -> Telemetry:
        """Advance one control interval and return sensor readings.

        Hot path: the RNG draw order here is a contract (see
        ``tests/platform/test_rng_contract.py``) — per step, the QoS
        workload draws first (if present and noisy), then each cluster
        in Big/Little order draws its power sensor followed by one PMU
        draw per core.  Optimizations must preserve that order exactly;
        the golden traces in ``tests/exec/fixtures`` pin it down to the
        bit.

        After the background placement, the QoS rate, the busy clamps
        and both sensor reads run as one compiled ``plant_tick`` call
        (:class:`CompiledTick`) wherever its probe passed; the Python
        tick (:meth:`_python_plant`) is the reference it reproduces.
        Injected faults keep the compiled tick: the time-aware
        instruments get the clock first, on either tick, big then
        little and within each cluster the power sensor, the PMUs, then
        the actuator fault layer, so matured ``delay`` requests land
        before placement; a faulted power sensor's fault applies to the
        kernel's healthy reading.
        """
        now = self.time_s
        big = self.big
        little = self.little
        tick = self.compiled_tick()
        if tick is None:
            sync_cluster_clocks(self._clusters, now)
        else:
            for clock_setter in tick.clock_setters:
                clock_setter(now)
        qos_app = self.qos_app
        qos_threads = float(qos_app.threads) if qos_app else 0.0
        active_bg = [t for t in self.background if t.active_at(now)]
        if active_bg:
            placement = self.scheduler.place(
                active_bg,
                big=ClusterCapacity(
                    active_cores=big._active_cores,
                    core_strength=big.core_rate_ips(),
                ),
                little=ClusterCapacity(
                    active_cores=little._active_cores,
                    core_strength=little.core_rate_ips(),
                ),
                big_resident_threads=qos_threads,
            )
            big_demand = placement.big_demand
            little_demand = placement.little_demand
        else:
            # No runnable background work: skip capacity-view and
            # placement churn entirely (still lets the scheduler drop
            # departed tasks so names can be reused across phases).
            self.scheduler.place_idle()
            big_demand = 0.0
            little_demand = 0.0

        if tick is None:
            qos_rate_raw, big_telemetry, little_telemetry = (
                self._python_plant(now, big_demand, little_demand)
            )
        else:
            qos_rate_raw, big_telemetry, little_telemetry = self._plant_tick(
                tick, now, big_demand, little_demand
            )
        qos_rate = 0.0
        if qos_app is not None:
            self.heartbeats.issue(now, qos_rate_raw * self.config.dt_s)
            qos_rate = self.heartbeats.rate(now)
        # Positional fields: time, QoS rate, raw QoS rate, big, little.
        telemetry = Telemetry(
            now, qos_rate, qos_rate_raw, big_telemetry, little_telemetry
        )
        self.time_s = now + self.config.dt_s
        return telemetry

    def _python_plant(
        self, now: float, big_demand: float, little_demand: float
    ) -> tuple[float, ClusterTelemetry, ClusterTelemetry]:
        """The Python tick after placement: the QoS rate on the Big
        cluster's fair share, both busy clamps and both sensor reads.
        The reference :class:`CompiledTick` reproduces bit for bit."""
        big = self.big
        little = self.little
        qos_app = self.qos_app
        qos_threads = float(qos_app.threads) if qos_app else 0.0
        # --- Big cluster: QoS app + its share of background tasks -----
        big_capacity = big.effective_capacity()
        big_runnable = qos_threads + big_demand
        big_share = fair_share_capacity(big_capacity, big_runnable)
        qos_rate_raw = 0.0
        if qos_app is not None:
            qos_rate_raw = self._qos_rate(now, qos_threads * big_share)
        big_busy = min(big_capacity, big_runnable)
        # --- Little cluster: background only ---------------------------
        little_busy = min(little.effective_capacity(), little_demand)
        return (
            qos_rate_raw,
            self._cluster_telemetry(big, big_busy),
            self._cluster_telemetry(little, little_busy),
        )

    # Thin indirections kept so repro.perf can hook each stage per SoC
    # instance: the compiled tick, and on the Python tick the workload
    # rate and the sensor reads.  The shared kernels live at module
    # level.
    def _plant_tick(
        self,
        tick: CompiledTick,
        now: float,
        big_demand: float,
        little_demand: float,
    ) -> tuple[float, ClusterTelemetry, ClusterTelemetry]:
        return tick.run(self, now, big_demand, little_demand)

    def _qos_rate(self, now: float, effective_threads: float) -> float:
        return self.qos_app.rate(
            self.big.perf_model,
            self.big._frequency_ghz,
            effective_threads,
            time_s=now,
            rng=self.rng,
        )

    def _cluster_telemetry(
        self, cluster: Cluster, busy_core_equivalents: float
    ) -> ClusterTelemetry:
        return read_cluster_telemetry(cluster, busy_core_equivalents, self.rng)


def read_cluster_telemetry(
    cluster: Cluster, busy_core_equivalents: float, rng: np.random.Generator
) -> ClusterTelemetry:
    """One cluster's sensor readings for one interval, in Python.

    The reference read: ``ManyCoreSoC`` reads every cluster through it,
    and :class:`ExynosSoC` wherever it ticks in Python.  The compiled
    plant tick (:class:`CompiledTick`) reproduces it bit for bit,
    drawing from the RNG stream identically.

    Draw order per cluster: one power-sensor draw, then one PMU draw per
    core (all cores, including inactive ones — their target rate is
    simply zero).  The uniform-weights fast path avoids the per-step
    numpy temporaries; it is bit-identical to the array formulation
    because each share is the same ``1/active`` quotient and a
    sequential sum matches ``np.sum`` below numpy's 8-wide pairwise
    unroll.  When every sensor is a plain noisy one (the power sensor
    may be a :class:`FaultySensor`), the noise gains come from one
    batched ``standard_normal`` call — ``rng.normal(1, s)`` equals
    ``1 + s * standard_normal()`` draw-for-draw, so the stream is
    consumed identically (asserted by the RNG contract tests) — and a
    faulted power sensor's fault applies to the healthy reading
    (:meth:`FaultySensor.apply`).
    """
    frequency_ghz = cluster._frequency_ghz
    true_power_w = cluster.power_model.cluster_power(
        frequency_ghz,
        cluster._voltage_v,
        cluster._active_cores,
        busy_core_equivalents,
    )
    n_cores = cluster.n_cores
    active = cluster._active_cores
    total_ips = busy_core_equivalents * (
        cluster.perf_model.ipc_factor * frequency_ghz
    )
    pmu_sensors = cluster.pmu_sensors
    power_sensor_ = cluster.power_sensor
    if cluster._idle_cores == 0 and n_cores < 8:
        share = 1.0 / float(active)
        target = total_ips * share
        ips = 0.0
        values = []
        if _reads_batched(power_sensor_, pmu_sensors):
            z = rng.standard_normal(n_cores + 1)
            measured_power_w = _read_with_gain(
                power_sensor_, true_power_w, z[0]
            )
            if type(power_sensor_) is FaultySensor:
                measured_power_w = power_sensor_.apply(measured_power_w)
            for i in range(n_cores):
                value = _read_with_gain(
                    pmu_sensors[i],
                    target if i < active else 0.0,
                    z[i + 1],
                )
                values.append(value)
                ips += value
        else:
            measured_power_w = power_sensor_.read(true_power_w, rng)
            for i in range(n_cores):
                value = pmu_sensors[i].read(
                    target if i < active else 0.0, rng
                )
                values.append(value)
                ips += value
        per_core_ips = np.array(values, dtype=float)
    else:
        measured_power_w = power_sensor_.read(true_power_w, rng)
        per_core_ips, ips = _telemetry_with_idle_insertion(
            cluster, total_ips, rng
        )
    return ClusterTelemetry(
        frequency_ghz=frequency_ghz,
        voltage_v=cluster._voltage_v,
        active_cores=active,
        busy_core_equivalents=busy_core_equivalents,
        power_w=measured_power_w,
        ips=ips,
        per_core_ips=per_core_ips,
    )


class SensorTables:
    """A cluster's inputs to the compiled telemetry kernel.

    Per-OPP tables (built with Python-float arithmetic, so indexed
    values match the scalar expressions bit for bit) and per-sensor
    rows: column 0 is the power sensor, columns 1..n_cores the PMUs.
    Shared by the scalar tick and the fleet's ``FleetCluster``.

    ``telemetry_fields`` holds the tables' part of a telemetry block
    (see :func:`~repro.control.fused.telemetry_args`), their addresses
    taken once: the memoized tables serve every SoC's compiled tick,
    and an ``ndarray.ctypes.data`` lookup costs microseconds.
    """

    def __init__(self, cluster: Cluster) -> None:
        power_model = cluster.power_model
        self.dynamic_table, self.leakage_table = power_model.per_opp_tables(
            cluster.opps
        )
        ipc = cluster.perf_model.ipc_factor
        self.core_rate_table = np.array(  # repro: shape[(n_opp,) f8]
            [ipc * p.frequency_ghz for p in cluster.opps.points], dtype=float
        )
        self.idle_core_fraction = power_model.idle_core_fraction
        self.uncore_power = power_model.uncore_power
        sensors = [cluster.power_sensor, *cluster.pmu_sensors]
        self.noise_row = np.array(  # repro: shape[(C+1,) f8]
            [s.noise_fraction for s in sensors], dtype=float
        )
        resolutions = np.array([s.resolution for s in sensors], dtype=float)
        self.res_mask_row = resolutions > 0  # repro: shape[(C+1,) b1]
        self.res_mask_i8 = self.res_mask_row.astype(np.int8)  # repro: shape[(C+1,) i1]
        self.any_resolution = bool(self.res_mask_row.any())
        self.safe_res_row = np.where(  # repro: shape[(C+1,) f8]
            self.res_mask_row, resolutions, 1.0
        )
        self.floor_row = np.array(  # repro: shape[(C+1,) f8]
            [s.floor for s in sensors], dtype=float
        )
        self.telemetry_fields = (
            len(sensors) - 1,
            self.dynamic_table.ctypes.data,
            self.leakage_table.ctypes.data,
            self.core_rate_table.ctypes.data,
            float(self.idle_core_fraction),
            float(self.uncore_power),
            self.noise_row.ctypes.data,
            self.res_mask_i8.ctypes.data,
            self.safe_res_row.ctypes.data,
            self.floor_row.ctypes.data,
            1 if self.any_resolution else 0,
        )


def _sensor_content(cluster: Cluster) -> tuple:
    """Everything a cluster's compiled read depends on besides the cluster's
    state, as a memo key: models, OPP table and sensor parameters, with
    their types (an int floor or resolution yields an int reading)."""
    power_model = cluster.power_model
    params = [
        cluster.n_cores,
        cluster.perf_model.ipc_factor,
        power_model.dynamic_coefficient,
        power_model.leakage_per_core,
        power_model.idle_core_fraction,
        power_model.uncore_power,
        *cluster.opps.frequencies,
        *(opp.voltage_v for opp in cluster.opps.points),
    ]
    for sensor in (cluster.power_sensor, *cluster.pmu_sensors):
        params += (sensor.noise_fraction, sensor.resolution, sensor.floor)
    return struct.pack(f"={len(params)}d", *params), tuple(map(type, params))


def _reads_batched(power_sensor_, pmu_sensors) -> bool:
    """Whether a cluster's read draws one ``standard_normal(n_cores +
    1)`` block: the fleet's ``batched_noise_eligible`` gate, except that
    the power sensor may also be a :class:`FaultySensor`, whose fault
    applies to the healthy reading and draws nothing."""
    return (
        type(power_sensor_) in (NoisySensor, FaultySensor)
        and power_sensor_.noise_fraction > 0
        and all(
            type(s) is NoisySensor and s.noise_fraction > 0
            for s in pmu_sensors
        )
    )


def qos_rate_table(qos_app: QoSWorkload, cluster) -> np.ndarray:
    # repro: shape[-> (n_opp,) f8]
    """``peak_rate * frequency_scale(f)`` per OPP of ``cluster`` (a
    :class:`Cluster` or a fleet cluster: its ``opps`` and
    ``perf_model``), with Python-float arithmetic: the first two factors
    of the left-associative product ``peak * fs * speedup /
    reference_speedup`` in ``ClusterPerfModel.workload_rate``, so both
    plant ticks index them instead of raising each frequency to
    ``freq_alpha`` per tick."""
    f_max_ghz = cluster.perf_model.f_max_ghz
    return np.array(
        [
            qos_app.peak_rate
            * frequency_scale(p.frequency_ghz, f_max_ghz, qos_app.freq_alpha)
            for p in cluster.opps.points
        ],
        dtype=float,
    )


class CompiledTick:
    """One SoC's plant tick after placement on the compiled
    ``plant_tick`` kernel (N=1): the QoS rate, both busy clamps and both
    sensor reads in one call.

    Its inputs and outputs live in one fixed scratch array that the
    tick's argument block and the two clusters' telemetry blocks
    point into: both clusters' active cores and OPP index, the
    two background demands, the current parallel fraction, the QoS
    noise gain and both clusters' noise draws, then the QoS rate, both
    busy equivalents, power and ips readings, and the per-core readings.
    A tick makes the workload's and both clusters' RNG calls in the
    contract order (they stay plain Generator calls), writes the state
    with one ``struct`` pack, makes one one-pointer call and reads the
    outputs with one unpack.

    ``faults`` holds each cluster's faulted power sensor (or ``None``),
    applied to the kernel's healthy power readings; it is empty on a
    SoC without one.  ``clock_setters`` are both clusters' time-aware
    instruments in clock order, which :meth:`ExynosSoC.step` calls
    before placement.
    """

    # big active, big OPP index, little active, little OPP index, big
    # demand, little demand, parallel fraction, QoS noise gain
    _STATE = struct.Struct("=dqdqdddd")
    # QoS rate; big and little busy; big power, ips; little power, ips
    _OUTPUTS = struct.Struct("=7d")

    def __init__(
        self,
        kernel,
        qos_app: QoSWorkload | None,
        tables: tuple[SensorTables, SensorTables],
        peak_table: np.ndarray | None,
        faults: tuple = (),
        clock_setters: tuple = (),
    ) -> None:
        big_n = tables[0].noise_row.size
        little_n = tables[1].noise_row.size
        big_z = 8  # after the eight state slots
        little_z = big_z + big_n
        outputs = little_z + little_n
        big_per_core = outputs + 7
        little_per_core = big_per_core + big_n - 1
        scratch = np.zeros(little_per_core + little_n - 1, dtype=float)
        base = scratch.ctypes.data
        big_block = arg_block(
            telemetry_args(
                tables[0],
                active=base,
                opp=base + 8,
                power_out=base + 8 * (outputs + 3),
                ips_out=base + 8 * (outputs + 4),
                per_core_out=base + 8 * big_per_core,
            )
        )
        little_block = arg_block(
            telemetry_args(
                tables[1],
                active=base + 16,
                opp=base + 24,
                power_out=base + 8 * (outputs + 5),
                ips_out=base + 8 * (outputs + 6),
                per_core_out=base + 8 * little_per_core,
            )
        )
        if qos_app is None:
            mode, variability, threads, nominal = QOS_NONE, 0.0, 0.0, 0.0
        else:
            variability = qos_app.variability
            mode = QOS_DRAWN_GAIN if variability > 0 else QOS_QUIET
            threads = float(qos_app.threads)
            nominal = qos_app.parallel_fraction
        block = arg_block(
            plant_tick_args(
                1,
                qos_mode=mode,
                variability=variability,
                threads=threads,
                parallel_fraction=nominal,
                current_fraction=base + 8 * 6,
                peak_rate_table=(
                    0 if peak_table is None else peak_table.ctypes.data
                ),
                big_demand=base + 8 * 4,
                little_demand=base + 8 * 5,
                # The QoS gain (slot 7) is the kernel's column 0.
                z=base + 8 * 7,
                z_stride=0,
                big_offset=big_z - 7,
                little_offset=little_z - 7,
                big_telemetry=big_block.ctypes.data,
                little_telemetry=little_block.ctypes.data,
                qos_out=base + 8 * outputs,
                big_busy_out=base + 8 * (outputs + 1),
                little_busy_out=base + 8 * (outputs + 2),
            )
        )
        # The blocks point into the scratch array, the tables and each
        # other: all of them live as long as the tick.
        self._blocks = (block, big_block, little_block)
        self._tables = (tables, peak_table)
        self._memory = scratch.data
        self._address = block.ctypes.data
        self._call = kernel.plant_tick
        self.qos_app = qos_app
        self._noisy = mode == QOS_DRAWN_GAIN
        self._big_draws = scratch[big_z:little_z]
        self._little_draws = scratch[little_z:outputs]
        self._big_per_core = scratch[big_per_core:little_per_core]
        self._little_per_core = scratch[little_per_core:]
        self._outputs_offset = 8 * outputs
        self._faults = faults if any(f is not None for f in faults) else ()
        self.clock_setters = clock_setters

    def run(
        self, soc: ExynosSoC, now: float, big_demand, little_demand
    ) -> tuple[float, ClusterTelemetry, ClusterTelemetry]:
        """One tick of ``soc`` after placement: ``(qos_rate_raw, big,
        little)``, as :meth:`ExynosSoC._python_plant` returns them."""
        rng = soc.rng
        qos_app = self.qos_app
        gain = 0.0
        fraction = 0.0
        # The three draws stay plain Generator calls in the contract
        # order: the RNG contract pins the calls themselves.
        if self._noisy:
            gain = rng.normal(1.0, qos_app.variability)
        self._big_draws[:] = rng.standard_normal(self._big_draws.size)
        self._little_draws[:] = rng.standard_normal(self._little_draws.size)
        if qos_app is not None:
            fraction = qos_app.parallel_fraction_at(now)
        big = soc.big
        little = soc.little
        self._STATE.pack_into(
            self._memory,
            0,
            big._active_cores,
            big._opp_index,
            little._active_cores,
            little._opp_index,
            big_demand,
            little_demand,
            fraction,
            gain,
        )
        self._call(self._address)
        (
            qos_rate_raw,
            big_busy,
            little_busy,
            big_power_w,
            big_ips,
            little_power_w,
            little_ips,
        ) = self._OUTPUTS.unpack_from(self._memory, self._outputs_offset)
        if self._faults:
            big_fault, little_fault = self._faults
            if big_fault is not None:
                big_power_w = big_fault.apply(big_power_w)
            if little_fault is not None:
                little_power_w = little_fault.apply(little_power_w)
        # Positional ClusterTelemetry fields (frequency, voltage, active
        # cores, busy equivalents, power, ips, per-core ips): half the
        # cost of keywords on this path.
        return (
            qos_rate_raw if qos_app is not None else 0.0,
            ClusterTelemetry(
                big._frequency_ghz,
                big._voltage_v,
                big._active_cores,
                big_busy,
                big_power_w,
                big_ips,
                self._big_per_core.copy(),
            ),
            ClusterTelemetry(
                little._frequency_ghz,
                little._voltage_v,
                little._active_cores,
                little_busy,
                little_power_w,
                little_ips,
                self._little_per_core.copy(),
            ),
        )


# Probe verdicts, both clusters' SensorTables and the QoS rate table,
# keyed by SoC content: the workload (a frozen dataclass), both
# clusters' _sensor_content and the Big cluster's f_max.  run_scenario
# builds a fresh SoC per run, which would otherwise repeat the probe
# every run.
_TICK_MEMO: dict[tuple, tuple[tuple | None, str | None]] = {}


def _bind_tick(soc: ExynosSoC) -> tuple[CompiledTick | None, str | None]:
    """The SoC's compiled tick, or ``None`` and the reason it ticks in
    Python."""
    kernel = fused_kernel()
    if kernel is None:
        return None, unavailable_reason()
    qos_app = soc.qos_app
    if qos_app is not None and type(qos_app) is not QoSWorkload:
        return None, (
            f"workload is a {type(qos_app).__name__}, not a QoSWorkload"
        )
    faults = []
    for cluster in soc.clusters():
        if cluster.n_cores >= 8:
            return None, f"{cluster.name} sensors: >= 8 cores (pairwise-sum read)"
        if not _reads_batched(cluster.power_sensor, cluster.pmu_sensors):
            return None, (
                f"{cluster.name} sensors: sensors not plain NoisySensors "
                "with positive noise"
            )
        sensor = cluster.power_sensor
        faults.append(sensor if type(sensor) is FaultySensor else None)
    key = (
        qos_app,
        _sensor_content(soc.big),
        _sensor_content(soc.little),
        soc.big.perf_model.f_max_ghz,
    )

    def probe():
        # The probed tick has no faults: the probe never touches a live
        # fault layer.
        tables = (SensorTables(soc.big), SensorTables(soc.little))
        peak = None if qos_app is None else qos_rate_table(qos_app, soc.big)
        tick = CompiledTick(kernel, qos_app, tables, peak)
        return (tables, peak), _probe_tick(soc, tick)

    built, reason = probe_verdict(_TICK_MEMO, key, probe)
    if reason is not None:
        return None, reason
    tables, peak = built
    clock_setters = soc.big._clock_setters + soc.little._clock_setters
    return (
        CompiledTick(
            kernel, qos_app, tables, peak, tuple(faults), clock_setters
        ),
        None,
    )


def _probe_tick(soc: ExynosSoC, tick: CompiledTick) -> bool:
    """Differential gate for the compiled tick.

    Ticks a scratch SoC (same workload, models, OPP tables and sensors,
    both clusters reading in Python) through both paths over random
    states: every Big OPP and active-core count (the Little cluster's
    OPPs and counts cycle alongside), background demands that are zero
    (int and float), positive, over capacity and negative (placed ones
    at every active-core count of each cluster), the start
    and end of every serial phase of the workload, and draws at
    magnitudes that span the sensors' and the workload's gain clamps.
    Accepts only when the QoS rate, both busy equivalents and every
    reading agree bit for bit (and the rate's and readings' types).
    """
    scratch = ExynosSoC(qos_app=soc.qos_app, config=soc.config)
    scratch.big = _python_twin(soc.big)
    scratch.little = _python_twin(soc.little)
    scratch._clusters = (scratch.big, scratch.little)
    big, little = scratch._clusters
    qos_app = soc.qos_app
    times = [0.0]
    if qos_app is not None:
        for phase in qos_app.serial_phases:
            times += [phase.start_s, phase.end_s]
    big_opps = big.opps.frequencies
    little_opps = little.opps.frequencies
    n_draws = 1 + big.n_cores + 1 + little.n_cores + 1
    rng = np.random.default_rng(0x71C4)
    case = 0
    for turn, scale in enumerate((1e-2, 1.0, 1e2)):
        for k in range(max(len(big_opps), len(little_opps))):
            for active in range(1, big.n_cores + 1):
                big.set_frequency(big_opps[k % len(big_opps)])
                big.set_active_cores(active)
                little.set_frequency(little_opps[k % len(little_opps)])
                little.set_active_cores(little.n_cores + 1 - active)
                # The kind turns with the OPP and the scale, so each
                # cluster meets placed demands at every core count.
                kind = (turn + k + active) % 4
                if kind == 0:
                    demands = (0, 0)  # sum() over no placed task
                elif kind == 1:
                    demands = (0.0, 0.0)
                else:
                    spread = 2 * (big.n_cores + 1)
                    demands = tuple(
                        float(d) for d in rng.uniform(-spread, spread, 2)
                    )
                now = times[case % len(times)]
                z = rng.standard_normal(n_draws) * scale
                scratch.rng = _PresetDraw(z)
                expected = scratch._python_plant(now, *demands)
                scratch.rng = _PresetDraw(z)
                got = tick.run(scratch, now, *demands)
                if not _same_tick(expected, got):
                    return False
                case += 1
    return True


def _same_tick(a: tuple, b: tuple) -> bool:
    """Bit-for-bit equality of two ticks' QoS rates (and types), busy
    equivalents and readings."""
    return (
        type(a[0]) is type(b[0])
        and struct.pack("=d", a[0]) == struct.pack("=d", b[0])
        and all(
            struct.pack("=d", float(x.busy_core_equivalents))
            == struct.pack("=d", float(y.busy_core_equivalents))
            and _same_reading(x, y)
            for x, y in zip(a[1:], b[1:])
        )
    )


class _PresetDraw:
    """An RNG stand-in that hands out preset draws in order:
    ``standard_normal(size)`` the next ``size`` values,
    ``normal(loc, scale)`` ``loc + scale`` times the next one (as
    ``Generator.normal`` scales a standard normal)."""

    def __init__(self, z: np.ndarray) -> None:
        self.z = z
        self.used = 0

    def standard_normal(self, size):
        start = self.used
        self.used = start + size
        return self.z[start : self.used].copy()

    def normal(self, loc, scale):
        value = float(self.z[self.used])
        self.used += 1
        return loc + scale * value


def _python_twin(cluster: Cluster) -> Cluster:
    """A scratch copy of ``cluster`` (same models, OPP table and
    sensors) for the probe's Python tick.  A faulted power sensor is
    copied as a plain :class:`NoisySensor` with its parameters, so
    probing never advances the live fault layer."""
    twin = Cluster(
        cluster.name,
        n_cores=cluster.n_cores,
        opps=cluster.opps,
        power_model=cluster.power_model,
        perf_model=cluster.perf_model,
    )
    sensor = cluster.power_sensor
    if type(sensor) is FaultySensor:
        sensor = NoisySensor(
            sensor.name,
            noise_fraction=sensor.noise_fraction,
            resolution=sensor.resolution,
            floor=sensor.floor,
        )
    twin.power_sensor = sensor
    twin.pmu_sensors = cluster.pmu_sensors
    return twin


def _same_reading(a: ClusterTelemetry, b: ClusterTelemetry) -> bool:
    """Bit-for-bit equality of the measured fields (and their types)."""
    measured = (a.power_w, a.ips), (b.power_w, b.ips)
    return (
        list(map(type, measured[0])) == list(map(type, measured[1]))
        and struct.pack("=2d", *measured[0]) == struct.pack("=2d", *measured[1])
        and a.per_core_ips.tobytes() == b.per_core_ips.tobytes()
    )


def _read_with_gain(sensor: NoisySensor, true_value: float, z: float) -> float:
    """``NoisySensor.read`` with the noise gain supplied from a batched
    standard-normal draw: ``1 + noise_fraction * z`` is bit-identical to
    the scalar ``rng.normal(1, noise_fraction)`` the sensor would draw.
    """
    value = float(true_value)
    gain = 1.0 + sensor.noise_fraction * z
    if gain < 0.0:
        gain = 0.0
    elif gain > 2.0:
        gain = 2.0
    value *= float(gain)
    resolution = sensor.resolution
    if resolution > 0:
        value = round(value / resolution) * resolution
    return max(value, sensor.floor)


def _telemetry_with_idle_insertion(
    cluster: Cluster, total_ips: float, rng: np.random.Generator
):
    """Idle-insertion / wide-cluster telemetry slow path.

    Deliberately kept on numpy (REPRO-L009 allowlisted): idle weighting
    needs the array math, and for >= 8 cores a sequential sum would not
    match ``np.sum``'s pairwise reduction bit-for-bit.
    """
    n_cores = cluster.n_cores
    per_core_ips = np.zeros(n_cores, dtype=float)
    weights = 1.0 - cluster._idle_fractions
    weights[cluster._active_cores:] = 0.0
    total_weight = float(np.sum(weights))
    for i in range(n_cores):
        share = weights[i] / total_weight if total_weight > 0 else 0.0
        per_core_ips[i] = cluster.pmu_sensors[i].read(total_ips * share, rng)
    return per_core_ips, float(np.sum(per_core_ips))


def _idle_adjusted_capacity(
    idle_fractions: np.ndarray, active_cores: int
) -> float:
    """Capacity under idle insertion (REPRO-L009 allowlisted slow path)."""
    return float(np.sum(1.0 - idle_fractions[:active_cores]))


def sync_cluster_clocks(clusters, time_s: float) -> None:
    """Propagate the simulator clock to every time-aware sensor/actuator.

    Called once per control interval by ``ManyCoreSoC.step`` and by
    ``ExynosSoC.step`` on the Python tick; the compiled tick calls the
    same setters itself (``CompiledTick.clock_setters``), in the same
    order.  Any instrument exposing ``set_time`` (fault-injection
    sensor wrappers, actuator fault layers) is time-aware; plain
    sensors contribute nothing (:meth:`Cluster.clock_setters`).  This is
    native clock propagation — fault injection never wraps
    ``soc.step``, so injecting faults on multiple clusters cannot
    double-wrap the step loop.
    """
    for cluster in clusters:
        for clock_setter in cluster.clock_setters():
            clock_setter(time_s)


def fair_share_capacity(capacity: float, runnable_threads: float) -> float:
    """Per-thread core share when capacity may be fractional."""
    if runnable_threads <= 0:
        return 0.0
    return min(1.0, capacity / runnable_threads)


def fleet_sensor_layout(cluster: Cluster) -> None:
    """Validate a cluster for fleet vectorization.

    The fleet kernel (``repro.platform.fleet``) only reproduces the
    scalar *fast* path of :func:`read_cluster_telemetry`: plain noisy
    sensors, no idle insertion, fewer than 8 cores, no attached fault
    layers (faulted devices run on the scalar oracle).  Anything else
    would change how many RNG draws each tick consumes, so it is
    rejected loudly here rather than silently diverging.
    """
    if cluster._idle_cores != 0:
        raise PlatformError(
            f"cluster {cluster.name!r}: idle insertion is active; the fleet "
            "kernel only reproduces the scalar fast path"
        )
    if cluster.n_cores >= 8:
        raise PlatformError(
            f"cluster {cluster.name!r}: >= 8 cores uses the pairwise-sum "
            "telemetry slow path, which the fleet kernel does not vectorize"
        )
    if cluster.actuator_faults is not None:
        raise PlatformError(
            f"cluster {cluster.name!r}: actuator fault layers are attached; "
            "faulted devices must run on the scalar oracle"
        )
    if not batched_noise_eligible(cluster.power_sensor, cluster.pmu_sensors):
        raise PlatformError(
            f"cluster {cluster.name!r}: sensors are not plain NoisySensor "
            "instances with positive noise, so the batched standard_normal "
            "block would not match the scalar draw order"
        )


# Re-export for symmetry with the scheduler module.
__all__ = [
    "Cluster",
    "ClusterTelemetry",
    "CompiledTick",
    "SensorTables",
    "ExynosSoC",
    "PlatformError",
    "SoCConfig",
    "Telemetry",
    "fair_share",
    "fair_share_capacity",
    "fleet_sensor_layout",
    "qos_rate_table",
    "read_cluster_telemetry",
    "sync_cluster_clocks",
]
