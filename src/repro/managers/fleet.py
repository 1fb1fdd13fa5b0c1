"""Fleet resource managers: one batched control update for N devices.

Each class mirrors one scalar manager (``mm``, ``fs``, ``spectr``) on
top of :class:`~repro.control.batch.BatchedLQGServo` and a
:class:`~repro.platform.fleet.FleetPlatform`: per-row results are
bit-identical to running the scalar manager on N independent scalar
SoCs (``tests/platform/test_fleet_equivalence.py``).

Everything is vectorized, SPECTR's supervisory layer included.  The
verified supervisor runs as an ``(N,)`` state index over a dense
``next[event, state]`` table built from its
:func:`~repro.automata.symbolic.encode_automaton` encoding; the
three-band event abstraction is masked comparisons on telemetry
columns; each action slot is a priority argmax over enabled, guarded
actions, followed by masked updates of the two power-reference columns
and ``switch_rows`` gain switches.  Guards and effects evaluate the
same float expressions, on the same constants, as
:class:`~repro.managers.spectr.SPECTRManager`, which stays the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.automata.symbolic import encode_automaton
from repro.control.batch import BatchedLQGServo
from repro.control.lqg import ActuatorLimits
from repro.core.events import ThreeBandThresholds
from repro.core.synthesis_flow import (
    VerifiedSupervisor,
    build_case_study_supervisor,
)
from repro.managers.base import ManagerGoals
from repro.managers.fs import FullSystemMIMO
from repro.managers.identification import IdentifiedSystem
from repro.managers.mimo import (
    CLUSTER_INTEGRAL_WEIGHT,
    POWER_GAINS,
    QOS_GAINS,
    ClusterMIMO,
    build_gain_library,
    cluster_actuator_limits,
)
from repro.managers.mm import (
    BIG_BUDGET_SHARE,
    LITTLE_BUDGET_SHARE,
    LITTLE_IPS_REFERENCE as MM_LITTLE_IPS_REFERENCE,
)
from repro.managers.spectr import (
    ACTION_PRIORITIES,
    BIG_POWER_FLOOR_W,
    BIG_RAISE_GUARD_W,
    BIG_RAISE_STEP_W,
    BIG_TRIM_GUARD_W,
    BIG_TRIM_MARGIN_W,
    CAPPING_TARGET_FRACTION,
    HARD_DROP_FACTOR,
    INITIAL_BIG_SHARE,
    INITIAL_LITTLE_SHARE,
    LITTLE_BUSY_IPS,
    LITTLE_CAP_SHARE,
    LITTLE_GUARD_W,
    LITTLE_IDLE_IPS,
    LITTLE_IPS_REFERENCE as SPECTR_LITTLE_IPS_REFERENCE,
    LITTLE_POWER_FLOOR_W,
    LITTLE_RAISE_STEP_W,
    LITTLE_TRIM_MARGIN_W,
    MAX_ACTIONS_PER_INVOCATION,
)
from repro.core.alphabet import (
    CONTROL_POWER,
    CRITICAL,
    DECREASE_BIG_POWER,
    DECREASE_CRITICAL_POWER,
    DECREASE_LITTLE_POWER,
    INCREASE_BIG_POWER,
    INCREASE_LITTLE_POWER,
    QOS_MET,
    QOS_NOT_MET,
    SAFE_POWER,
    SWITCH_GAINS,
    SWITCH_QOS,
)
from repro.platform.fleet import FleetPlatform, FleetTelemetry

__all__ = [
    "FLEET_GAIN_NAMES",
    "FleetDualMIMO",
    "FleetFullSystem",
    "FleetResourceManager",
    "FleetSPECTR",
    "fleet_mm_perf",
    "fleet_mm_pow",
]

# Gain-palette order shared by every fleet servo: id 0 = QoS-oriented,
# id 1 = power-oriented.  Trace rows map ids back through this tuple.
FLEET_GAIN_NAMES = (QOS_GAINS, POWER_GAINS)
_QOS_ID = FLEET_GAIN_NAMES.index(QOS_GAINS)
_POWER_ID = FLEET_GAIN_NAMES.index(POWER_GAINS)

# Deadbands are read off the scalar classes so the mirrors cannot drift.
_CLUSTER_DEADBAND = ClusterMIMO.hotplug_deadband
_FS_DEADBAND = FullSystemMIMO.hotplug_deadband


class FleetResourceManager:
    """Base: owns the actuators of one :class:`FleetPlatform`.

    Mirrors the goal-change channels of
    :class:`~repro.managers.base.ResourceManager`; there is no
    resilience pipeline on the batched path (faulted devices run the
    scalar oracle, see ``repro.exec.fleet_jobs``).
    """

    def __init__(
        self, platform: FleetPlatform, goals: ManagerGoals, *, name: str
    ) -> None:
        self.platform = platform
        self.goals = goals
        self.name = name

    def control(self, telemetry: FleetTelemetry) -> None:
        self._control(telemetry)

    def _control(self, telemetry: FleetTelemetry) -> None:
        raise NotImplementedError

    def set_qos_reference(self, qos_reference: float) -> None:
        self.goals = ManagerGoals(qos_reference, self.goals.power_budget_w)

    def set_power_budget(self, power_budget_w: float) -> None:
        self.goals = ManagerGoals(self.goals.qos_reference, power_budget_w)

    def gain_set_ids(self) -> np.ndarray:
        """Per-row active gain-set ids (indices into FLEET_GAIN_NAMES)."""
        raise NotImplementedError


def _cluster_servo(
    cluster, system: IdentifiedSystem, n_rows: int, *, initial: int, name: str
) -> BatchedLQGServo:
    """Batched mirror of ``ClusterMIMO.build`` (same library, limits)."""
    library = build_gain_library(system, integral_weight=CLUSTER_INTEGRAL_WEIGHT)
    return BatchedLQGServo(
        [library.get(QOS_GAINS), library.get(POWER_GAINS)],
        system.operating_point,
        cluster_actuator_limits(cluster),
        n_rows,
        initial=initial,
        name=name,
    )


def _apply_cluster_commands(cluster, u: np.ndarray, deadband: float) -> None:
    """Mirror of ``ClusterMIMO.step``'s actuation half.

    DVFS snaps every row; hotplug only fires for rows whose continuous
    core command left the deadband around the applied count (same
    ``abs(u - cores) >= deadband`` test as the scalar, row-wise).
    """
    cluster.set_frequency(u[:, 0])
    mask = np.abs(u[:, 1] - cluster.active) >= deadband
    cluster.apply_core_requests(u[:, 1], mask)


# ----------------------------------------------------------------------
# MM-Pow / MM-Perf
# ----------------------------------------------------------------------
class FleetDualMIMO(FleetResourceManager):
    """Batched ``UncoordinatedDualMIMO``: fixed gains, fixed shares."""

    def __init__(
        self,
        platform: FleetPlatform,
        goals: ManagerGoals,
        *,
        big_system: IdentifiedSystem,
        little_system: IdentifiedSystem,
        gain_set: str,
        name: str,
    ) -> None:
        super().__init__(platform, goals, name=name)
        self.gain_set = gain_set
        gain_id = FLEET_GAIN_NAMES.index(gain_set)
        n = platform.n_devices
        self._gain_ids = np.full(n, gain_id, dtype=np.int8)
        self.big_servo = _cluster_servo(
            platform.big, big_system, n, initial=gain_id, name="big-mimo"
        )
        self.little_servo = _cluster_servo(
            platform.little,
            little_system,
            n,
            initial=gain_id,
            name="little-mimo",
        )
        # Measurement staging buffers: column writes produce the same
        # (N, 2) values as np.stack(..., axis=1) without per-tick
        # allocation.
        self._y_big = np.empty((n, 2), dtype=float)
        self._y_little = np.empty((n, 2), dtype=float)

    def _control(self, telemetry: FleetTelemetry) -> None:
        big_power_ref = BIG_BUDGET_SHARE * self.goals.power_budget_w
        little_power_ref = LITTLE_BUDGET_SHARE * self.goals.power_budget_w
        self.big_servo.set_reference(
            [self.goals.qos_reference, big_power_ref]
        )
        self.little_servo.set_reference(
            [MM_LITTLE_IPS_REFERENCE, little_power_ref]
        )
        y_big = self._y_big
        y_big[:, 0] = telemetry.qos_rate
        y_big[:, 1] = telemetry.big.power_w
        u_big = self.big_servo.step(y_big)
        _apply_cluster_commands(self.platform.big, u_big, _CLUSTER_DEADBAND)
        y_little = self._y_little
        y_little[:, 0] = telemetry.little.ips
        y_little[:, 1] = telemetry.little.power_w
        u_little = self.little_servo.step(y_little)
        _apply_cluster_commands(
            self.platform.little, u_little, _CLUSTER_DEADBAND
        )

    def gain_set_ids(self) -> np.ndarray:
        return self._gain_ids


def fleet_mm_pow(
    platform: FleetPlatform,
    goals: ManagerGoals,
    *,
    big_system: IdentifiedSystem,
    little_system: IdentifiedSystem,
) -> FleetDualMIMO:
    """Batched MM-Pow."""
    return FleetDualMIMO(
        platform,
        goals,
        big_system=big_system,
        little_system=little_system,
        gain_set=POWER_GAINS,
        name="MM-Pow",
    )


def fleet_mm_perf(
    platform: FleetPlatform,
    goals: ManagerGoals,
    *,
    big_system: IdentifiedSystem,
    little_system: IdentifiedSystem,
) -> FleetDualMIMO:
    """Batched MM-Perf."""
    return FleetDualMIMO(
        platform,
        goals,
        big_system=big_system,
        little_system=little_system,
        gain_set=QOS_GAINS,
        name="MM-Perf",
    )


# ----------------------------------------------------------------------
# FS
# ----------------------------------------------------------------------
class FleetFullSystem(FleetResourceManager):
    """Batched ``FullSystemMIMO``: one 4x2 servo across the fleet."""

    def __init__(
        self,
        platform: FleetPlatform,
        goals: ManagerGoals,
        *,
        system: IdentifiedSystem,
        integral_weight: float = 0.05,
    ) -> None:
        super().__init__(platform, goals, name="FS")
        if system.model.n_inputs != 4 or system.model.n_outputs != 2:
            raise ValueError("FS requires a 4-input 2-output model")
        library = build_gain_library(
            system,
            qos_outputs=(0,),
            power_outputs=(1,),
            integral_weight=integral_weight,
        )
        big = platform.big
        little = platform.little
        limits = ActuatorLimits(
            lower=[
                big.opps.min_frequency,
                1.0,
                little.opps.min_frequency,
                1.0,
            ],
            upper=[
                big.opps.max_frequency,
                float(big.n_cores),
                little.opps.max_frequency,
                float(little.n_cores),
            ],
            max_step=[0.3, 1.0, 0.3, 1.0],
        )
        n = platform.n_devices
        self._gain_ids = np.full(n, _POWER_ID, dtype=np.int8)
        self.controller = BatchedLQGServo(
            [library.get(QOS_GAINS), library.get(POWER_GAINS)],
            system.operating_point,
            limits,
            n,
            initial=_POWER_ID,
            name="fs-4x2",
        )
        self._y = np.empty((n, 2), dtype=float)

    def _control(self, telemetry: FleetTelemetry) -> None:
        self.controller.set_reference(
            [self.goals.qos_reference, self.goals.power_budget_w]
        )
        y = self._y
        y[:, 0] = telemetry.qos_rate
        y[:, 1] = telemetry.chip_power_w
        u = self.controller.step(y)
        big = self.platform.big
        little = self.platform.little
        big.set_frequency(u[:, 0])
        big_mask = np.abs(u[:, 1] - big.active) >= _FS_DEADBAND
        big.apply_core_requests(u[:, 1], big_mask)
        little.set_frequency(u[:, 2])
        little_mask = np.abs(u[:, 3] - little.active) >= _FS_DEADBAND
        little.apply_core_requests(u[:, 3], little_mask)

    def gain_set_ids(self) -> np.ndarray:
        return self._gain_ids


# ----------------------------------------------------------------------
# SPECTR
# ----------------------------------------------------------------------
# The scalar manager's event abstraction runs on the default band edges.
_THRESHOLDS = ThreeBandThresholds()
_ACTION = {name: k for k, name in enumerate(ACTION_PRIORITIES)}
_OBSERVATIONS = (CRITICAL, SAFE_POWER, QOS_MET, QOS_NOT_MET)


class FleetSPECTR(FleetResourceManager):
    """Batched SPECTR: an array supervisor over two batched 2x2 servos.

    ``state`` holds every row's supervisor-state index (labels in
    ``encoded.state_names``); ``big_power_ref_w`` / ``little_power_ref_w``
    are the rows' power references.
    """

    def __init__(
        self,
        platform: FleetPlatform,
        goals: ManagerGoals,
        *,
        big_system: IdentifiedSystem,
        little_system: IdentifiedSystem,
        verified_supervisor: VerifiedSupervisor | None = None,
        supervisor_period_epochs: int = 2,
        enable_gain_scheduling: bool = True,
        enable_reference_regulation: bool = True,
        name: str = "SPECTR",
    ) -> None:
        super().__init__(platform, goals, name=name)
        if supervisor_period_epochs < 1:
            raise ValueError("supervisor_period_epochs must be >= 1")
        self.enable_gain_scheduling = enable_gain_scheduling
        self.enable_reference_regulation = enable_reference_regulation
        self.supervisor_period_epochs = supervisor_period_epochs
        n = platform.n_devices
        self.big_servo = _cluster_servo(
            platform.big, big_system, n, initial=_QOS_ID, name="big-mimo"
        )
        self.little_servo = _cluster_servo(
            platform.little,
            little_system,
            n,
            initial=_QOS_ID,
            name="little-mimo",
        )
        self.verified = verified_supervisor or build_case_study_supervisor()
        encoded = self.encoded = encode_automaton(self.verified.supervisor)
        # next[event, state]: successor state index, -1 where disabled.
        # The extra last row stands in for events outside the alphabet
        # and, for the action table, for uncontrollable events.
        table = np.full(
            (encoded.n_events + 1, encoded.n_states), -1, dtype=np.intp
        )
        for event in range(encoded.n_events):
            table[event, encoded.src[event]] = encoded.dst[event]
        def successors(name: str, *, action: bool = False) -> np.ndarray:
            index = encoded.event_index(name)
            if index is None or (
                action and not encoded.event_controllable[index]
            ):
                index = encoded.n_events
            return table[index]

        self._next = {name: successors(name) for name in _OBSERVATIONS}
        # (action, state), in ACTION_PRIORITIES order.
        self._next_action = np.stack(
            [successors(name, action=True) for name in ACTION_PRIORITIES]
        )
        self.state = np.full(n, encoded.initial, dtype=np.intp)
        # EventAbstractor's counters and capping flag, one per row.
        self._capping = np.zeros(n, dtype=bool)
        self._since_critical = np.zeros(n, dtype=np.int64)
        self._below_uncapping = np.zeros(n, dtype=np.int64)
        self._over_cap_streak = np.zeros(n, dtype=np.int64)
        budget_w = goals.power_budget_w
        self.big_power_ref_w = np.full(
            n, INITIAL_BIG_SHARE * budget_w, dtype=float
        )
        self.little_power_ref_w = np.full(
            n,
            max(LITTLE_POWER_FLOOR_W, INITIAL_LITTLE_SHARE * budget_w),
            dtype=float,
        )
        self._y_big = np.empty((n, 2), dtype=float)
        self._y_little = np.empty((n, 2), dtype=float)
        self._tick = 0
        self._refs_dirty = True
        self._written_qos_reference: float | None = None

    # -- control -------------------------------------------------------
    def _control(self, telemetry: FleetTelemetry) -> None:
        if self._tick % self.supervisor_period_epochs == 0:
            self._supervise(telemetry)
        self._refresh_references()
        y_big = self._y_big
        y_big[:, 0] = telemetry.qos_rate
        y_big[:, 1] = telemetry.big.power_w
        u_big = self.big_servo.step(y_big)
        _apply_cluster_commands(self.platform.big, u_big, _CLUSTER_DEADBAND)
        y_little = self._y_little
        y_little[:, 0] = telemetry.little.ips
        y_little[:, 1] = telemetry.little.power_w
        u_little = self.little_servo.step(y_little)
        _apply_cluster_commands(
            self.platform.little, u_little, _CLUSTER_DEADBAND
        )
        self._tick += 1

    # -- supervision ---------------------------------------------------
    def _supervise(self, telemetry: FleetTelemetry) -> None:
        """One invocation on every row: ``SupervisorEngine.invoke``.

        Each action slot lets every row fire the first action in
        ``ACTION_PRIORITIES`` that its state enables and whose guard
        holds (the scalar ``PriorityPolicy``); guards read the
        references as the previous slot's effects left them.
        """
        budget_w = self.goals.power_budget_w
        state = self._observe(telemetry, budget_w)
        big_power_w = telemetry.big.power_w
        little_idle = telemetry.little.ips < LITTLE_IDLE_IPS
        little_busy = telemetry.little.ips > LITTLE_BUSY_IPS
        columns = np.arange(state.size)
        for _ in range(MAX_ACTIONS_PER_INVOCATION):
            big = self.big_power_ref_w
            little = self.little_power_ref_w
            successors = self._next_action[:, state]
            allowed = successors >= 0
            allowed[_ACTION[DECREASE_BIG_POWER]] &= (
                big > big_power_w + BIG_TRIM_GUARD_W
            ) & (big > BIG_POWER_FLOOR_W)
            allowed[_ACTION[INCREASE_BIG_POWER]] &= (
                big
                < (budget_w - np.maximum(LITTLE_POWER_FLOOR_W, little))
                - BIG_RAISE_GUARD_W
            )
            allowed[_ACTION[DECREASE_LITTLE_POWER]] &= little_idle & (
                little > LITTLE_POWER_FLOOR_W + LITTLE_GUARD_W
            )
            allowed[_ACTION[INCREASE_LITTLE_POWER]] &= little_busy & (
                little < LITTLE_CAP_SHARE * budget_w - LITTLE_GUARD_W
            )
            fired = allowed.any(axis=0)
            if not fired.any():
                break
            choice = allowed.argmax(axis=0)
            state = np.where(fired, successors[choice, columns], state)
            self._apply_effects(
                np.where(fired, choice, -1), telemetry, budget_w
            )
        self.state = state

    def _observe(
        self, telemetry: FleetTelemetry, budget_w: float
    ) -> np.ndarray:
        """``EventAbstractor.classify`` and the engine's observation
        steps, row-wise; returns the post-observation states."""
        th = _THRESHOLDS
        chip_w = telemetry.chip_power_w
        over_cap = chip_w > th.capping_fraction * budget_w
        self._below_uncapping = np.where(
            chip_w < th.uncapping_fraction * budget_w,
            self._below_uncapping + 1,
            0,
        )
        self._over_cap_streak = np.where(
            over_cap, self._over_cap_streak + 1, 0
        )
        self._since_critical += 1
        capping = self._capping
        onset = over_cap & ~capping
        escalate = (
            capping
            & (self._since_critical >= th.escalation_grace)
            & (self._over_cap_streak >= 2)
        )
        safe = (
            capping
            & ~escalate
            & (self._below_uncapping >= th.uncapping_dwell)
        )
        critical = onset | escalate
        self._since_critical[critical] = 0
        self._capping = (capping | onset) & ~safe
        # Power observations first, then the QoS one, as the scalar
        # abstraction orders them; a disabled event leaves the state.
        state = self.state
        for event, mask in ((CRITICAL, critical), (SAFE_POWER, safe)):
            target = self._next[event][state]
            state = np.where(mask & (target >= 0), target, state)
        qos_met = (
            telemetry.qos_rate
            >= th.qos_tolerance * self.goals.qos_reference
        )
        target = np.where(
            qos_met, self._next[QOS_MET][state], self._next[QOS_NOT_MET][state]
        )
        return np.where(target >= 0, target, state)

    def _apply_effects(
        self, action: np.ndarray, telemetry: FleetTelemetry, budget_w: float
    ) -> None:
        """The scalar ``_effect_*`` methods on the rows that fired each
        action (``action`` is the row's index into ACTION_PRIORITIES,
        -1 for none)."""
        fired = {name: action == k for name, k in _ACTION.items()}
        if self.enable_gain_scheduling:
            for name, gain_id in (
                (SWITCH_GAINS, _POWER_ID),
                (SWITCH_QOS, _QOS_ID),
            ):
                for servo in (self.big_servo, self.little_servo):
                    rows = np.flatnonzero(
                        fired[name] & (servo.gain_ids != gain_id)
                    )
                    if rows.size:
                        servo.switch_rows(rows, gain_id)
        if not self.enable_reference_regulation:
            return
        big = self.big_power_ref_w
        little = self.little_power_ref_w
        # _capping_allocations on the references before this slot.
        capped_little = np.minimum(
            np.maximum(LITTLE_POWER_FLOOR_W, little),
            LITTLE_CAP_SHARE * budget_w,
        )
        capped_big = np.maximum(
            BIG_POWER_FLOOR_W,
            CAPPING_TARGET_FRACTION * budget_w - capped_little,
        )
        self.big_power_ref_w = np.select(
            [
                fired[SWITCH_QOS],
                fired[CONTROL_POWER],
                fired[DECREASE_CRITICAL_POWER],
                fired[DECREASE_BIG_POWER],
                fired[INCREASE_BIG_POWER],
            ],
            [
                INITIAL_BIG_SHARE * budget_w,
                capped_big,
                np.maximum(BIG_POWER_FLOOR_W, HARD_DROP_FACTOR * capped_big),
                np.maximum(
                    BIG_POWER_FLOOR_W,
                    telemetry.big.power_w + BIG_TRIM_MARGIN_W,
                ),
                np.minimum(
                    budget_w - np.maximum(LITTLE_POWER_FLOOR_W, little),
                    big + BIG_RAISE_STEP_W,
                ),
            ],
            big,
        )
        self.little_power_ref_w = np.select(
            [
                fired[SWITCH_QOS],
                fired[CONTROL_POWER],
                fired[DECREASE_CRITICAL_POWER],
                fired[DECREASE_LITTLE_POWER],
                fired[INCREASE_LITTLE_POWER],
            ],
            [
                max(LITTLE_POWER_FLOOR_W, INITIAL_LITTLE_SHARE * budget_w),
                capped_little,
                np.maximum(
                    LITTLE_POWER_FLOOR_W, HARD_DROP_FACTOR * capped_little
                ),
                np.maximum(
                    LITTLE_POWER_FLOOR_W,
                    telemetry.little.power_w + LITTLE_TRIM_MARGIN_W,
                ),
                np.minimum(
                    LITTLE_CAP_SHARE * budget_w, little + LITTLE_RAISE_STEP_W
                ),
            ],
            little,
        )
        self._refs_dirty = True

    def _refresh_references(self) -> None:
        qos_reference = self.goals.qos_reference
        if (
            not self._refs_dirty
            and qos_reference == self._written_qos_reference
        ):
            return
        big_refs = self.big_servo.references
        big_refs[:, 0] = qos_reference
        big_refs[:, 1] = self.big_power_ref_w
        self.big_servo.refresh_references()
        little_refs = self.little_servo.references
        little_refs[:, 0] = SPECTR_LITTLE_IPS_REFERENCE
        little_refs[:, 1] = self.little_power_ref_w
        self.little_servo.refresh_references()
        self._refs_dirty = False
        self._written_qos_reference = qos_reference

    def gain_set_ids(self) -> np.ndarray:
        # The scalar actuation record reports the Big MIMO's active set.
        return self.big_servo.gain_ids
