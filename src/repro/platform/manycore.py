"""Many-cluster platform: SPECTR's scalability substrate.

The paper argues (Sections 2.3, 3.1, 5.2) that supervisory control
scales to many-core systems where monolithic MIMO control cannot: one
small leaf controller per subsystem plus one supervisor whose size does
not grow with the core count.  This module provides the platform side
of that demonstration — an SoC with one Big (QoS-hosting) cluster plus
an arbitrary number of Little clusters, sharing the same power/perf
models, sensors, and a sticky least-loaded scheduler generalized to N
clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.platform.opp import big_cluster_opps, little_cluster_opps
from repro.platform.perf import (
    big_cluster_perf_model,
    little_cluster_perf_model,
)
from repro.platform.power import (
    big_cluster_power_model,
    little_cluster_power_model,
)
from repro.platform.soc import (
    Cluster,
    ClusterTelemetry,
    PlatformError,
    SoCConfig,
    fair_share_capacity,
    read_cluster_telemetry,
    sync_cluster_clocks,
)
from repro.workloads.base import BackgroundTask, QoSWorkload
from repro.workloads.heartbeats import HeartbeatMonitor


@dataclass
class ManyCoreTelemetry:
    """Sensor snapshot of the many-cluster platform."""

    time_s: float
    qos_rate: float
    qos_raw: float
    clusters: list[ClusterTelemetry]

    @property
    def chip_power_w(self) -> float:
        return float(sum(c.power_w for c in self.clusters))


class MultiClusterScheduler:
    """Sticky least-loaded placement across N clusters."""

    def __init__(
        self,
        *,
        strength_exponent: float = 0.5,
        migration_hysteresis: float = 0.35,
    ) -> None:
        self._strength_exponent = strength_exponent
        self._migration_hysteresis = migration_hysteresis
        self._previous: dict[str, int] = {}

    def place(
        self,
        tasks: list[BackgroundTask],
        clusters: list[Cluster],
        resident_threads: list[float],
    ) -> list[list[BackgroundTask]]:
        """Assign each task a cluster index; returns tasks per cluster."""
        loads = list(resident_threads)
        capacities = [
            c.active_cores * c.core_rate_ips() ** self._strength_exponent
            for c in clusters
        ]
        assigned: list[list[BackgroundTask]] = [[] for _ in clusters]
        active_names = set()
        for task in sorted(tasks, key=lambda t: (-t.demand, t.name)):
            active_names.add(task.name)
            costs = []
            for index, capacity in enumerate(capacities):
                if capacity <= 0:
                    costs.append(float("inf"))
                    continue
                cost = (loads[index] + task.demand) / capacity
                if self._previous.get(task.name) not in (None, index):
                    cost *= 1.0 + self._migration_hysteresis
                costs.append(cost)
            best = int(np.argmin(costs))
            assigned[best].append(task)
            loads[best] += task.demand
            self._previous[task.name] = best
        for name in list(self._previous):
            if name not in active_names:
                del self._previous[name]
        return assigned


class ManyCoreSoC:
    """One Big (QoS host) cluster + ``n_little`` Little clusters."""

    def __init__(
        self,
        *,
        n_little: int = 3,
        qos_app: QoSWorkload | None = None,
        background: list[BackgroundTask] | None = None,
        config: SoCConfig | None = None,
    ) -> None:
        if n_little < 0:
            raise PlatformError("n_little must be non-negative")
        self.config = config or SoCConfig()
        self.clusters: list[Cluster] = [
            Cluster(
                "big0",
                n_cores=self.config.cores_per_cluster,
                opps=big_cluster_opps(),
                power_model=big_cluster_power_model(),
                perf_model=big_cluster_perf_model(),
            )
        ]
        for index in range(n_little):
            self.clusters.append(
                Cluster(
                    f"little{index}",
                    n_cores=self.config.cores_per_cluster,
                    opps=little_cluster_opps(),
                    power_model=little_cluster_power_model(),
                    perf_model=little_cluster_perf_model(),
                )
            )
        self.qos_app = qos_app
        self.background = list(background or [])
        self.scheduler = MultiClusterScheduler()
        self.heartbeats = HeartbeatMonitor(
            window_s=self.config.heartbeat_window_s
        )
        self.rng = np.random.default_rng(self.config.seed)
        self.time_s = 0.0

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def host(self) -> Cluster:
        """The cluster hosting the QoS application."""
        return self.clusters[0]

    def step(self) -> ManyCoreTelemetry:
        """Advance one control interval."""
        now = self.time_s
        sync_cluster_clocks(self.clusters, now)
        active_bg = [t for t in self.background if t.active_at(now)]
        qos_threads = float(self.qos_app.threads) if self.qos_app else 0.0
        resident = [0.0] * self.n_clusters
        resident[0] = qos_threads
        assigned = self.scheduler.place(active_bg, self.clusters, resident)

        telemetries: list[ClusterTelemetry] = []
        qos_rate_raw = 0.0
        for index, cluster in enumerate(self.clusters):
            capacity = cluster.effective_capacity()
            bg_demand = sum(t.demand for t in assigned[index])
            runnable = resident[index] + bg_demand
            if index == 0 and self.qos_app is not None:
                share = fair_share_capacity(capacity, runnable)
                qos_rate_raw = self.qos_app.rate(
                    cluster.perf_model,
                    cluster.frequency_ghz,
                    qos_threads * share,
                    time_s=now,
                    rng=self.rng,
                )
                self.heartbeats.issue(
                    now, qos_rate_raw * self.config.dt_s
                )
            busy = min(capacity, runnable)
            telemetries.append(self._cluster_telemetry(cluster, busy))

        qos_rate = (
            self.heartbeats.rate(now) if self.qos_app is not None else 0.0
        )
        self.time_s = now + self.config.dt_s
        return ManyCoreTelemetry(
            time_s=now,
            qos_rate=qos_rate,
            qos_raw=qos_rate_raw,
            clusters=telemetries,
        )

    def _cluster_telemetry(
        self, cluster: Cluster, busy: float
    ) -> ClusterTelemetry:
        # The Python reference read, shared with ExynosSoC's Python tick
        # (same draw order: power sensor first, then one PMU draw per
        # core).
        return read_cluster_telemetry(cluster, busy, self.rng)
