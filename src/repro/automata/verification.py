"""Property checks for synthesized supervisors (steps 4-5 of Figure 11).

Two properties must hold before a supervisor is deployed:

* **Nonblocking** — the closed-loop system can always complete some task,
  i.e. reach a marked ("ideal") state from every reachable state.
* **Controllability** — the supervisor never has to disable an
  uncontrollable event: whenever the plant can fire an uncontrollable
  event after a string both agree on, the supervisor permits it.

Both are checked on the synchronous product of supervisor and plant so
that the verdicts refer to the actual closed loop, matching the checks
Supremica performs for the paper.

Since the REPRO-M analyzer landed, the checks run on the bitset kernel
of :mod:`repro.automata.symbolic` — the closed loop is built over its
reachable pairs only, without materializing the composed automaton, and
every controllability violation carries a shortest witness trace.  The
original explicit-state walks are kept as test oracles
(``tests/automata/explicit_oracle.py``) for the equivalence suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.automata.automaton import Automaton, State
from repro.automata.events import Event
from repro.automata.symbolic import (
    EncodedAutomaton,
    backward_reachable,
    encode_automaton,
    forward_reachable,
    forward_search,
    reachable_product,
    witness_trace,
)

__all__ = [
    "ControllabilityViolation",
    "VerificationReport",
    "check_controllability",
    "check_nonblocking",
    "verify_supervisor",
]


@dataclass(frozen=True)
class ControllabilityViolation:
    """A witness that the supervisor disables an uncontrollable event.

    ``trace`` is a shortest event sequence (from the joint initial
    state) after which the plant reaches ``plant_state`` and the
    supervisor ``supervisor_state`` with ``event`` enabled only by the
    plant.  Explicit-oracle construction may omit it (empty tuple).
    """

    plant_state: State
    supervisor_state: State
    event: Event
    trace: tuple[str, ...] = field(default=(), compare=False)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"uncontrollable event {self.event.name!r} enabled by plant at "
            f"{self.plant_state} but disabled by supervisor at "
            f"{self.supervisor_state}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "plant_state": self.plant_state.name,
            "supervisor_state": self.supervisor_state.name,
            "event": {
                "name": self.event.name,
                "controllable": self.event.controllable,
                "observable": self.event.observable,
            },
            "trace": list(self.trace),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ControllabilityViolation":
        event = payload["event"]
        return cls(
            plant_state=State(payload["plant_state"]),
            supervisor_state=State(payload["supervisor_state"]),
            event=Event(
                name=event["name"],
                controllable=event["controllable"],
                observable=event.get("observable", True),
            ),
            trace=tuple(payload.get("trace", ())),
        )


@dataclass(frozen=True)
class VerificationReport:
    """Combined nonblocking + controllability verdict.

    Frozen and round-trippable through :meth:`to_dict` /
    :meth:`from_dict` so the exec layer can cache verification results
    alongside persisted policy bundles.
    """

    nonblocking: bool
    controllable: bool
    blocking_states: frozenset[State]
    violations: tuple[ControllabilityViolation, ...]

    @property
    def verified(self) -> bool:
        return self.nonblocking and self.controllable

    def summary(self) -> str:
        lines = [
            f"nonblocking:    {'PASS' if self.nonblocking else 'FAIL'}",
            f"controllable:   {'PASS' if self.controllable else 'FAIL'}",
        ]
        if self.blocking_states:
            lines.append(f"blocking states: {sorted(s.name for s in self.blocking_states)}")
        for violation in self.violations:
            lines.append(f"violation: {violation}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": "verification-report/1",
            "nonblocking": self.nonblocking,
            "controllable": self.controllable,
            "blocking_states": sorted(s.name for s in self.blocking_states),
            "violations": [v.to_dict() for v in self.violations],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "VerificationReport":
        return cls(
            nonblocking=bool(payload["nonblocking"]),
            controllable=bool(payload["controllable"]),
            blocking_states=frozenset(
                State(name) for name in payload.get("blocking_states", ())
            ),
            violations=tuple(
                ControllabilityViolation.from_dict(entry)
                for entry in payload.get("violations", ())
            ),
        )


def _violation_sort_key(
    violation: ControllabilityViolation,
) -> tuple[int, tuple[str, ...], str, str, str]:
    return (
        len(violation.trace),
        violation.trace,
        violation.plant_state.name,
        violation.supervisor_state.name,
        violation.event.name,
    )


def check_nonblocking(automaton: Automaton) -> bool:
    """Every reachable state can reach a marked state.

    Runs on the bitset kernel; equivalent to
    :func:`repro.automata.operations.is_nonblocking`.
    """
    enc = encode_automaton(automaton)
    reachable = forward_reachable(enc)
    if not reachable.any():
        return True
    return not bool((reachable & ~backward_reachable(enc)).any())


def _symbolic_controllability(
    plant: Automaton,
    supervisor: Automaton,
    plant_enc: EncodedAutomaton,
    sup_enc: EncodedAutomaton,
) -> tuple[bool, tuple[ControllabilityViolation, ...]]:
    pair = reachable_product(plant_enc, sup_enc, "controllability")
    tree = forward_search(pair.product)
    plant_states, sup_states = pair.factor_states()
    violations: list[ControllabilityViolation] = []
    for e, name in enumerate(plant_enc.event_names):
        if plant_enc.event_controllable[e]:
            continue
        assert plant_enc.enabled is not None
        plant_on = plant_enc.enabled[e][plant_states]
        sup_on = sup_enc.event_enabled(name)[sup_states]
        bad = plant_on & ~sup_on
        if not bad.any():
            continue
        event = plant.alphabet[name]
        for state in np.flatnonzero(bad).tolist():
            i, j = pair.split(state)
            violations.append(
                ControllabilityViolation(
                    plant_state=State(plant_enc.state_label(i)),
                    supervisor_state=State(sup_enc.state_label(j)),
                    event=event,
                    trace=witness_trace(pair.product, tree, state),
                )
            )
    violations.sort(key=_violation_sort_key)
    return not violations, tuple(violations)


def check_controllability(
    plant: Automaton, supervisor: Automaton
) -> tuple[bool, tuple[ControllabilityViolation, ...]]:
    """Verify L(S/P) is controllable w.r.t. L(P).

    Explores the joint reachable space of (plant, supervisor) with the
    bitset kernel.  At each joint state, every uncontrollable event the
    plant enables must also be enabled by the supervisor; each violation
    carries a shortest witness trace.  Violations are sorted by
    (trace length, trace, plant state, supervisor state, event).
    """
    if not plant.has_initial or not supervisor.has_initial:
        return True, ()
    return _symbolic_controllability(
        plant, supervisor, encode_automaton(plant), encode_automaton(supervisor)
    )


def verify_supervisor(plant: Automaton, supervisor: Automaton) -> VerificationReport:
    """Run both property checks and bundle the verdicts.

    Nonblocking is checked on the synchronous product ``plant ||
    supervisor`` — the actual closed loop — not on the supervisor alone:
    a supervisor that is nonblocking in isolation can still drive the
    closed loop into a state from which no marked state is reachable
    (e.g. it marks a state the plant cannot complete a task from).  The
    reported blocking states are composite ``plant.supervisor`` states of
    the closed loop.

    The closed loop is built symbolically over its reachable pairs; the
    composed automaton is never materialized.  An automaton without an
    initial state yields an empty closed loop, which is trivially
    nonblocking.
    """
    plant_enc = encode_automaton(plant)
    sup_enc = encode_automaton(supervisor)
    pair = reachable_product(plant_enc, sup_enc)
    blocked = ~backward_reachable(pair.product)
    nonblocking = not blocked.any()
    blocking = frozenset(
        State(pair.pair_label(i)) for i in np.flatnonzero(blocked).tolist()
    )
    if plant.has_initial and supervisor.has_initial:
        controllable, violations = _symbolic_controllability(
            plant, supervisor, plant_enc, sup_enc
        )
    else:
        controllable, violations = True, ()
    return VerificationReport(
        nonblocking=nonblocking,
        controllable=controllable,
        blocking_states=blocking,
        violations=violations,
    )
