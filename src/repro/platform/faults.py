"""Fault injection for robustness evaluation.

The paper's first key question is **robustness**: "How can we provide
guarantees and perform robustness analysis?"  Beyond the design-time
robust-stability analysis (:mod:`repro.control.robustness`), a resource
manager must survive *runtime* corner cases: sensors glitch, readings
drop out, actuators reject requests, workloads spike.  This module
provides injectable fault models for both halves of the observe-act
loop so tests and fault campaigns (:mod:`repro.resilience`) can verify
that the managers degrade gracefully and the supervisor's formal
guarantees (never executing a disabled action, never raising budgets
during a capping episode) hold under faults:

* **Sensor faults** (:class:`FaultModel` + :class:`FaultySensor`) —
  stuck/dropout/spike/bias readings on any :class:`NoisySensor`;
* **Actuator faults** (:class:`ActuatorFaultModel` +
  :class:`ClusterActuatorFaults`) — DVFS-request rejection,
  clamped/partial application, hotplug failure and delayed actuation on
  a :class:`~repro.platform.soc.Cluster`;
* :class:`ActuatorProxy` — the manager-side bounded-retry +
  hold-last-good wrapper that turns a silently rejected request into a
  controlled degradation to the previous safe operating point.

Clock propagation is native: the SoC step loops call ``set_time`` on
every time-aware sensor/actuator layer once per interval, at the top of
the step and before placement, on the compiled plant tick as on the
Python one (see ``ExynosSoC.step`` / ``ManyCoreSoC.step``), so injecting
faults on both clusters never wraps or double-wraps ``soc.step``.

Faulted SoCs keep the compiled plant tick (``repro.platform.soc``).
An actuator fault layer acts inside ``Cluster.set_frequency`` /
``set_active_cores``, outside the tick.  A faulted power sensor is read by the kernel through its own noise,
resolution and floor (the healthy reading), and
:meth:`FaultySensor.apply` then turns that reading into the faulted
one in Python; :meth:`FaultySensor.read` is the same two steps.  A
:class:`FaultySensor` on a PMU keeps the Python tick.

Overlapping fault windows
-------------------------
When several fault windows of one :class:`FaultModel` list are active
at the same instant, **the fault with the earliest** ``start_s``
**wins**; ties are broken by injection order (first added wins).  The
rule is deterministic and independent of list mutation order, so a
campaign that schedules a ``stuck`` window overlapping a later
``spike`` window always replays identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.platform.sensors import NoisySensor

__all__ = [
    "ActuatorFaultModel",
    "ActuatorProxy",
    "ActuationEvent",
    "ClusterActuatorFaults",
    "FaultModel",
    "FaultySensor",
    "inject_actuator_fault",
    "inject_power_sensor_fault",
]


@dataclass
class FaultModel:
    """A time-windowed sensor fault.

    Kinds:

    * ``"stuck"`` — the sensor repeats the last pre-fault value;
    * ``"dropout"`` — the sensor reads zero (e.g. an I2C read failure
      surfaced as an empty register);
    * ``"spike"`` — readings are multiplied by ``magnitude``;
    * ``"bias"`` — readings are offset by ``magnitude``.
    """

    kind: str
    start_s: float
    end_s: float
    magnitude: float = 2.0

    VALID_KINDS = ("stuck", "dropout", "spike", "bias")

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise ValueError(
                f"kind must be one of {self.VALID_KINDS}, got {self.kind!r}"
            )
        if self.start_s >= self.end_s:
            raise ValueError("fault window must have positive duration")

    def active_at(self, time_s: float) -> bool:
        return self.start_s <= time_s < self.end_s


class FaultySensor(NoisySensor):
    """A sensor wrapper applying scheduled faults.

    Drop-in replacement for :class:`NoisySensor`; the platform's clock
    is supplied through :meth:`set_time` once per interval by the SoC
    step loop (any sensor exposing ``set_time`` is time-aware).
    """

    def __init__(
        self, base: NoisySensor, faults: list[FaultModel] | None = None
    ) -> None:
        super().__init__(
            name=f"{base.name}+faults",
            noise_fraction=base.noise_fraction,
            resolution=base.resolution,
            floor=base.floor,
        )
        self.faults = list(faults or [])
        self._now_s = 0.0
        self._last_healthy: float | None = None

    def add_fault(self, fault: FaultModel) -> None:
        self.faults.append(fault)

    def set_time(self, time_s: float) -> None:
        self._now_s = time_s

    def active_fault(self) -> FaultModel | None:
        """The winning fault at the current time (precedence rule above)."""
        active = [
            (f.start_s, index, f)
            for index, f in enumerate(self.faults)
            if f.active_at(self._now_s)
        ]
        if not active:
            return None
        return min(active)[2]

    def read(self, true_value: float, rng: np.random.Generator) -> float:
        return self.apply(super().read(true_value, rng))

    def apply(self, healthy: float) -> float:
        """The reading the active fault makes of the healthy reading
        ``healthy``; draws nothing.  A read outside every fault window
        records ``healthy`` as the value a later ``stuck`` fault holds.

        The SoC's batched Python read and its compiled tick take the
        healthy reading from their own noise draw and apply the fault
        here, so a faulted power sensor consumes the RNG stream like a
        plain one.
        """
        fault = self.active_fault()
        if fault is None:
            self._last_healthy = healthy
            return healthy
        if fault.kind == "stuck":
            return (
                self._last_healthy if self._last_healthy is not None else healthy
            )
        if fault.kind == "dropout":
            return self.floor
        if fault.kind == "spike":
            return healthy * fault.magnitude
        return max(self.floor, healthy + fault.magnitude)  # bias


# ----------------------------------------------------------------------
# Actuator faults
# ----------------------------------------------------------------------
@dataclass
class ActuatorFaultModel:
    """A time-windowed actuator fault on one cluster.

    Kinds:

    * ``"reject"`` — a DVFS request is dropped with probability
      ``probability`` (the actuator silently keeps its previous
      operating point, as a busy DVFS governor or an EBUSY sysfs write
      does);
    * ``"clamp"`` — the applied frequency is clamped to at most
      ``magnitude`` GHz (a stuck thermal limit);
    * ``"partial"`` — the actuator moves only ``magnitude`` (0..1) of
      the way from the current frequency toward the request;
    * ``"hotplug_fail"`` — core on/off-lining requests are dropped;
    * ``"delay"`` — the request is applied ``delay_s`` seconds late
      (queued, then applied by the clock sync).
    """

    kind: str
    start_s: float
    end_s: float
    magnitude: float = 1.0
    probability: float = 1.0
    delay_s: float = 0.2

    VALID_KINDS = ("reject", "clamp", "partial", "hotplug_fail", "delay")

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise ValueError(
                f"kind must be one of {self.VALID_KINDS}, got {self.kind!r}"
            )
        if self.start_s >= self.end_s:
            raise ValueError("fault window must have positive duration")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        if self.kind == "partial" and not 0.0 <= self.magnitude <= 1.0:
            raise ValueError("partial magnitude is a fraction in [0, 1]")

    def active_at(self, time_s: float) -> bool:
        return self.start_s <= time_s < self.end_s


class ClusterActuatorFaults:
    """Scheduled actuator faults for one cluster.

    Installed by :func:`inject_actuator_fault` as the cluster's
    ``actuator_faults`` attribute; :meth:`Cluster.set_frequency
    <repro.platform.soc.Cluster.set_frequency>` and
    :meth:`~repro.platform.soc.Cluster.set_active_cores` consult it
    natively — no method monkey-patching.  The SoC step loop keeps the
    clock in sync through :meth:`set_time` (which also applies matured
    ``delay`` requests).

    Overlap precedence matches :class:`FaultySensor`: earliest
    ``start_s`` wins, ties broken by injection order.
    """

    def __init__(
        self,
        cluster,
        faults: list[ActuatorFaultModel] | None = None,
        *,
        seed: int = 2018,
    ) -> None:
        self.cluster = cluster
        self.faults = list(faults or [])
        self.rng = np.random.default_rng(seed)
        self._now_s = 0.0
        self._pending_dvfs: list[tuple[float, float]] = []
        self._bypass = False
        self.rejected_dvfs_count = 0
        self.rejected_hotplug_count = 0

    def add_fault(self, fault: ActuatorFaultModel) -> None:
        self.faults.append(fault)

    def active_fault(self, *kinds: str) -> ActuatorFaultModel | None:
        active = [
            (f.start_s, index, f)
            for index, f in enumerate(self.faults)
            if f.active_at(self._now_s) and (not kinds or f.kind in kinds)
        ]
        if not active:
            return None
        return min(active)[2]

    def set_time(self, time_s: float) -> None:
        self._now_s = time_s
        self._apply_matured_dvfs()

    def _apply_matured_dvfs(self) -> None:
        matured = [
            req for req in self._pending_dvfs if req[0] <= self._now_s
        ]
        if not matured:
            return
        self._pending_dvfs = [
            req for req in self._pending_dvfs if req[0] > self._now_s
        ]
        # Apply in maturation order; bypass the fault filter so a still-
        # active delay window cannot re-queue its own maturation.
        self._bypass = True
        try:
            for _, frequency_ghz in sorted(matured):
                self.cluster.set_frequency(frequency_ghz)
        finally:
            self._bypass = False

    # ------------------------------------------------------------------
    # Filters consulted by the Cluster actuators
    # ------------------------------------------------------------------
    def filter_frequency(
        self, current_ghz: float, requested_ghz: float
    ) -> float:
        """The frequency actually applied for a DVFS request."""
        if self._bypass:
            return requested_ghz
        fault = self.active_fault("reject", "clamp", "partial", "delay")
        if fault is None:
            return requested_ghz
        if fault.kind == "reject":
            if self.rng.random() < fault.probability:
                self.rejected_dvfs_count += 1
                return current_ghz
            return requested_ghz
        if fault.kind == "clamp":
            return min(requested_ghz, fault.magnitude)
        if fault.kind == "partial":
            return current_ghz + fault.magnitude * (
                requested_ghz - current_ghz
            )
        # delay: queue the request, keep the current operating point.
        self._pending_dvfs.append(
            (self._now_s + fault.delay_s, requested_ghz)
        )
        return current_ghz

    def allow_hotplug(self) -> bool:
        """Whether a hotplug request is honoured right now."""
        if self._bypass:
            return True
        fault = self.active_fault("hotplug_fail")
        if fault is None:
            return True
        if self.rng.random() < fault.probability:
            self.rejected_hotplug_count += 1
            return False
        return True


@dataclass
class ActuationEvent:
    """One proxy intervention, recorded for traces and reports."""

    time_s: float
    actuator: str  # "dvfs" | "hotplug"
    outcome: str  # "retried" | "held" | "partial"
    requested: float
    applied: float


class ActuatorProxy:
    """Bounded-retry + hold-last-good actuation surface for one cluster.

    Managers actuate through this thin wrapper instead of the raw
    cluster: a request whose applied value does not match the expected
    (OPP-snapped) value is retried up to ``max_retries`` times; if the
    actuator still refuses to move, the proxy *holds the last good
    operating point* — the previous successfully applied state — so a
    rejected request degrades to a known-safe point instead of silently
    diverging from what the controller believes it commanded.

    All non-actuation attribute access is forwarded to the wrapped
    cluster, so the proxy is a drop-in replacement wherever a
    :class:`~repro.platform.soc.Cluster` is expected.
    """

    def __init__(self, cluster, *, max_retries: int = 2) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self._cluster = cluster
        self.max_retries = max_retries
        self.last_good_frequency_ghz = cluster.frequency_ghz
        self.last_good_cores = cluster.active_cores
        self.events: list[ActuationEvent] = []
        self.retry_count = 0
        self.hold_count = 0
        self.partial_count = 0
        self._now_s = 0.0

    def __getattr__(self, name: str):
        return getattr(self._cluster, name)

    @property
    def wrapped(self):
        return self._cluster

    def set_time(self, time_s: float) -> None:
        self._now_s = time_s

    # ------------------------------------------------------------------
    def set_frequency(self, frequency_ghz: float) -> float:
        expected_ghz = self._cluster.opps.snap(frequency_ghz).frequency_ghz
        before_ghz = self._cluster.frequency_ghz
        applied_ghz = self._cluster.set_frequency(frequency_ghz)
        attempts = 0
        while (
            abs(applied_ghz - expected_ghz) > 1e-12
            and abs(applied_ghz - before_ghz) <= 1e-12
            and attempts < self.max_retries
        ):
            attempts += 1
            self.retry_count += 1
            applied_ghz = self._cluster.set_frequency(frequency_ghz)
        if abs(applied_ghz - expected_ghz) <= 1e-12:
            self.last_good_frequency_ghz = applied_ghz
            if attempts:
                self._record("dvfs", "retried", expected_ghz, applied_ghz)
        elif abs(applied_ghz - before_ghz) <= 1e-12:
            # Rejected after retries: degrade to the last good point.
            self.hold_count += 1
            applied_ghz = self._hold_frequency()
            self._record("dvfs", "held", expected_ghz, applied_ghz)
        else:
            # Clamped/partial application: a real (safe) operating point
            # was reached, just not the requested one.
            self.partial_count += 1
            self.last_good_frequency_ghz = applied_ghz
            self._record("dvfs", "partial", expected_ghz, applied_ghz)
        return applied_ghz

    def _hold_frequency(self) -> float:
        current_ghz = self._cluster.frequency_ghz
        if abs(current_ghz - self.last_good_frequency_ghz) > 1e-12:
            # A stale delayed apply (or partial) moved the hardware away
            # from the last good point; try once to re-assert it.
            current_ghz = self._cluster.set_frequency(
                self.last_good_frequency_ghz
            )
        return current_ghz

    def set_active_cores(self, count: float) -> int:
        requested = int(round(float(count)))
        requested = max(1, min(self._cluster.n_cores, requested))
        before = self._cluster.active_cores
        applied = self._cluster.set_active_cores(count)
        attempts = 0
        while (
            applied != requested
            and applied == before
            and attempts < self.max_retries
        ):
            attempts += 1
            self.retry_count += 1
            applied = self._cluster.set_active_cores(count)
        if applied == requested:
            self.last_good_cores = applied
            if attempts:
                self._record(
                    "hotplug", "retried", float(requested), float(applied)
                )
        else:
            self.hold_count += 1
            self._record(
                "hotplug", "held", float(requested), float(applied)
            )
        return applied

    def _record(
        self, actuator: str, outcome: str, requested: float, applied: float
    ) -> None:
        self.events.append(
            ActuationEvent(
                time_s=self._now_s,
                actuator=actuator,
                outcome=outcome,
                requested=requested,
                applied=applied,
            )
        )


# ----------------------------------------------------------------------
# Injection helpers
# ----------------------------------------------------------------------
def _resolve_clusters(soc) -> list:
    """The cluster list of any supported SoC, or a clear error.

    Supports :class:`~repro.platform.soc.ExynosSoC` (``clusters()``
    method), :class:`~repro.platform.manycore.ManyCoreSoC` (``clusters``
    list attribute), and any object exposing ``big``/``little``
    clusters.
    """
    clusters = getattr(soc, "clusters", None)
    if callable(clusters):  # ExynosSoC exposes clusters() as a method
        clusters = clusters()
    if clusters is None:
        big = getattr(soc, "big", None)
        little = getattr(soc, "little", None)
        if big is None or little is None:
            raise TypeError(
                f"{type(soc).__name__} exposes neither a 'clusters' "
                "attribute/method nor 'big'/'little' clusters; cannot "
                "inject faults"
            )
        clusters = [big, little]
    return list(clusters)


def _find_cluster(soc, cluster_name: str):
    clusters = _resolve_clusters(soc)
    for cluster in clusters:
        if cluster.name == cluster_name:
            return cluster
    names = sorted(c.name for c in clusters)
    raise ValueError(
        f"no cluster named {cluster_name!r} (available: {names})"
    )


def inject_power_sensor_fault(soc, cluster_name: str, fault: FaultModel) -> FaultySensor:
    """Replace one cluster's power sensor with a faulty wrapper.

    Works for both :class:`~repro.platform.soc.ExynosSoC` (clusters
    ``big``/``little``) and :class:`~repro.platform.manycore.ManyCoreSoC`
    (clusters ``big0``/``little0``...).  Returns the wrapper so further
    faults can be scheduled.  The SoC step loop propagates the clock to
    the wrapper natively; ``soc.step`` is never wrapped.
    """
    cluster = _find_cluster(soc, cluster_name)
    if isinstance(cluster.power_sensor, FaultySensor):
        cluster.power_sensor.add_fault(fault)
        return cluster.power_sensor
    wrapper = FaultySensor(cluster.power_sensor, [fault])
    cluster.power_sensor = wrapper
    return wrapper


def inject_actuator_fault(
    soc,
    cluster_name: str,
    fault: ActuatorFaultModel,
    *,
    seed: int = 2018,
) -> ClusterActuatorFaults:
    """Schedule an actuator fault on one cluster.

    Attaches (or reuses) the cluster's :class:`ClusterActuatorFaults`
    layer; the SoC step loop keeps its clock in sync.  Returns the
    layer so further faults can be scheduled.
    """
    cluster = _find_cluster(soc, cluster_name)
    layer = getattr(cluster, "actuator_faults", None)
    if isinstance(layer, ClusterActuatorFaults):
        layer.add_fault(fault)
        return layer
    layer = ClusterActuatorFaults(cluster, [fault], seed=seed)
    cluster.actuator_faults = layer
    return layer
