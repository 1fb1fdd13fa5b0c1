"""Per-cluster 2x2 MIMO controllers and their gain libraries.

Each cluster is managed by an LQG servo with two control inputs
(frequency, active cores) and two measured outputs (QoS-or-IPS, cluster
power), per Figure 2.  Two gain sets are predesigned per controller
(Section 4.2):

* **QoS-based gains** — Tracking Error Cost ``Q`` favours the QoS output
  30:1, "tuned to ensure that the QoS application can meet the
  performance reference value";
* **Power-based gains** — ``Q`` favours the power output 30:1, "tuned to
  limit the power consumption while possibly sacrificing some
  performance".

Both use a Control Effort Cost ``R`` that "prioritize[s] changing clock
frequency over number of cores at a ratio of 2:1".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control.gains import GainLibrary
from repro.control.lqg import (
    ActuatorLimits,
    LQGGains,
    LQGServoController,
    design_lqg_servo,
)
from repro.managers.identification import IdentifiedSystem
from repro.platform.soc import Cluster

# The paper's output-priority ratio (30:1 favoured:deprioritized).
QOS_PRIORITY_RATIO = 30.0
# Control-effort weights per (frequency, cores) input pair.  The paper
# prefers frequency as the fine-grained actuator; in this discrete-time
# servo the preference is realized through the slew limits (DVFS moves
# 300 MHz per interval, hotplug one core per interval), while the effort
# ratio below keeps the steady-state operating point on the
# all-cores/efficient-frequency branch a 4-thread application occupies
# on the real platform.
EFFORT_RATIO_FREQ_TO_CORES = (2.0, 1.0)

QOS_GAINS = "qos"
POWER_GAINS = "power"
# The integral weight of the gain sets every cluster servo deploys
# (ClusterMIMO, the fleet's batched servo and the policy bundle); the
# committed design files pre-fill the library at this key.
CLUSTER_INTEGRAL_WEIGHT = 0.08


def _effort_weights(n_inputs: int) -> list[float]:
    """Frequency:cores = 1:2 effort cost, repeated per cluster."""
    pattern = list(EFFORT_RATIO_FREQ_TO_CORES)
    weights: list[float] = []
    while len(weights) < n_inputs:
        weights.extend(pattern)
    return weights[:n_inputs]


def build_gain_library(
    system: IdentifiedSystem,
    *,
    qos_outputs: tuple[int, ...] = (0,),
    power_outputs: tuple[int, ...] = (1,),
    integral_weight: float = 0.04,
    power_effort_scale: float = 3.0,
) -> GainLibrary:
    """Design the QoS-based and power-based gain sets for one subsystem.

    ``qos_outputs`` / ``power_outputs`` name which output indices carry
    performance vs. power meaning (the FS baseline reuses this with its
    own indices).

    ``power_effort_scale`` de-tunes the power-based gain set: power
    tracking operates across the whole DVFS range, where the plant's
    power gain exceeds the identified (averaged) linear gain by well
    over the 30% design guardband, so the power set is given extra gain
    margin (the robustness analysis of
    :mod:`repro.control.robustness` verifies the result).

    Libraries are memoized on the ``system`` object itself (keyed by the
    design parameters): the DARE solves dominate manager construction,
    and every ``run_scenario`` builds its managers afresh from the same
    cached :class:`IdentifiedSystem`.  The design is deterministic and
    :class:`LQGGains` are never mutated after design, so sharing one
    library across managers is value-equivalent to rebuilding it.
    """
    key = (qos_outputs, power_outputs, integral_weight, power_effort_scale)
    cache = getattr(system, "_gain_library_cache", None)
    if cache is None:
        cache = {}
        try:
            system._gain_library_cache = cache
        except AttributeError:  # exotic system objects without __dict__
            cache = None
    if cache is not None:
        cached = cache.get(key)
        if cached is not None:
            return cached
    model = system.model
    library = GainLibrary(name=f"{system.name}-gains")
    for gain_name, favoured, effort_scale in (
        (QOS_GAINS, qos_outputs, 1.0),
        (POWER_GAINS, power_outputs, power_effort_scale),
    ):
        weights = np.ones(model.n_outputs, dtype=float)
        weights[list(favoured)] = QOS_PRIORITY_RATIO
        efforts = [
            w * effort_scale for w in _effort_weights(model.n_inputs)
        ]
        library.register(
            design_lqg_servo(
                model,
                output_weights=weights,
                effort_weights=efforts,
                integral_weight=integral_weight / effort_scale**0.5,
                name=gain_name,
            )
        )
    if cache is not None:
        cache[key] = library
    return library


def cluster_actuator_limits(cluster: Cluster) -> ActuatorLimits:
    """DVFS + hotplug saturation and slew bounds for one cluster.

    DVFS moves at most three OPP steps (300 MHz) per 50 ms interval —
    governors walk the OPP ladder — and hotplug toggles one core at a
    time.
    """
    return ActuatorLimits(
        lower=[cluster.opps.min_frequency, 1.0],
        upper=[cluster.opps.max_frequency, float(cluster.n_cores)],
        max_step=[0.3, 1.0],
    )


@dataclass
class ClusterMIMO:
    """One cluster's 2x2 LQG servo plus its gain library.

    References are ``[qos_or_ips_ref, power_ref_w]``; :meth:`step`
    consumes the cluster's measured ``[qos, power]`` pair and applies
    the resulting frequency / core-count commands to the cluster.
    """

    cluster: Cluster
    controller: LQGServoController
    library: GainLibrary
    active_gains: str

    @classmethod
    def build(
        cls,
        cluster: Cluster,
        system: IdentifiedSystem,
        *,
        initial_gains: str = QOS_GAINS,
        integral_weight: float = CLUSTER_INTEGRAL_WEIGHT,
    ) -> "ClusterMIMO":
        library = build_gain_library(system, integral_weight=integral_weight)
        controller = LQGServoController(
            library.get(initial_gains),
            system.operating_point,
            cluster_actuator_limits(cluster),
            name=f"{cluster.name}-mimo",
        )
        return cls(
            cluster=cluster,
            controller=controller,
            library=library,
            active_gains=initial_gains,
        )

    def set_references(self, qos_ref: float, power_ref_w: float) -> None:
        self.controller.set_reference([qos_ref, power_ref_w])

    def switch_gains(self, name: str) -> bool:
        """Schedule a predesigned gain set; returns True if it changed."""
        if name == self.active_gains:
            return False
        self.controller.switch_gains(self.library.get(name))
        self.active_gains = name
        return True

    # Hotplug deadband: the continuous core command must move at least
    # this far from the applied count before a core is added/removed.
    # Without it, commands hovering at a rounding boundary (x.5) toggle
    # a whole core every interval — a ~1 W power square wave the power
    # loop then chases.
    hotplug_deadband: float = 0.6

    def step(self, qos_value: float, power_w: float) -> tuple[float, int]:
        """One 50 ms interval: returns the applied (frequency, cores)."""
        u = self.controller.step([qos_value, power_w])
        frequency = self.cluster.set_frequency(float(u[0]))
        cores = self.cluster.active_cores
        if abs(float(u[1]) - cores) >= self.hotplug_deadband:
            cores = self.cluster.set_active_cores(float(u[1]))
        return frequency, cores
