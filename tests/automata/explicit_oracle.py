"""Explicit-state reference implementations of composition, synthesis
and verification.

These are the original state-at-a-time algorithms the fast paths
replaced: the synchronous product built through the checked
:class:`~repro.automata.automaton.Automaton` API one edge at a time,
the Ramadge-Wonham fixpoint over a Python-enumerated product, and the
closed-loop nonblocking / controllability walks over a materialized
``plant || supervisor``.  They exist only as test oracles — the
equivalence suites require
:func:`repro.automata.synchronous_composition`,
:func:`repro.automata.synthesize_supervisor` and
:func:`repro.automata.verify_supervisor` to reproduce them
field-for-field and byte-for-byte.

One oracle is not explicit-state: :func:`pairwise_composition` folds
the encoded product one pairwise
:func:`repro.automata.symbolic.reachable_product` at a time, and
:func:`repro.automata.encode_composition` must reproduce it byte for
byte in its single n-ary pass.

The synthesis oracle runs the extension pass on the same canonical
snapshot (Jacobi) schedule as the symbolic engine — every state is
judged against the round-start good set — so the two agree on the
``removed_*`` attribution and the round count, not just on the
(schedule-independent) supremal supervisor.
"""

from __future__ import annotations

import functools
from collections import deque

from repro.automata.automaton import Automaton, State
from repro.automata.operations import (
    accessible_states,
    blocking_states,
    coaccessible_states,
    is_nonblocking,
)
from repro.automata.symbolic import EncodedAutomaton, reachable_product
from repro.automata.synthesis import (
    ProductState,
    SynthesisError,
    SynthesisResult,
)
from repro.automata.verification import (
    ControllabilityViolation,
    VerificationReport,
    _violation_sort_key,
)

__all__ = [
    "explicit_check_controllability",
    "explicit_compose_all",
    "explicit_synchronous_composition",
    "explicit_synthesize_supervisor",
    "explicit_verify_supervisor",
    "pairwise_composition",
]


def explicit_synchronous_composition(
    a: Automaton, b: Automaton, name: str | None = None
) -> Automaton:
    """``A || B`` one checked edge at a time: the same FIFO walk and
    sorted event order as :func:`repro.automata.synchronous_composition`,
    going through ``step``, ``is_marked``, ``add_state`` and
    ``add_transition`` for every edge."""
    alphabet = a.alphabet.union(b.alphabet)
    composed = Automaton(name or f"{a.name}||{b.name}", alphabet)
    initial = a.initial.compose(b.initial)
    composed.add_state(
        initial,
        marked=a.is_marked(a.initial) and b.is_marked(b.initial),
        forbidden=a.is_forbidden(a.initial) or b.is_forbidden(b.initial),
        initial=True,
    )

    frontier: deque[tuple[State, State]] = deque([(a.initial, b.initial)])
    visited: set[tuple[State, State]] = {(a.initial, b.initial)}

    while frontier:
        state_a, state_b = frontier.popleft()
        source = state_a.compose(state_b)
        for event in alphabet:
            in_a = event in a.alphabet
            in_b = event in b.alphabet
            next_a = a.step(state_a, event) if in_a else state_a
            next_b = b.step(state_b, event) if in_b else state_b
            if in_a and next_a is None:
                continue
            if in_b and next_b is None:
                continue
            assert next_a is not None and next_b is not None
            target = next_a.compose(next_b)
            if (next_a, next_b) not in visited:
                visited.add((next_a, next_b))
                composed.add_state(
                    target,
                    marked=a.is_marked(next_a) and b.is_marked(next_b),
                    forbidden=a.is_forbidden(next_a) or b.is_forbidden(next_b),
                )
                frontier.append((next_a, next_b))
            composed.add_transition(source, event, target)
    return composed


def explicit_compose_all(automata: list[Automaton]) -> Automaton:
    """Left fold of :func:`explicit_synchronous_composition`."""
    result = automata[0]
    for other in automata[1:]:
        result = explicit_synchronous_composition(result, other)
    return result


def pairwise_composition(factors: list[EncodedAutomaton]) -> EncodedAutomaton:
    """Left fold of pairwise reachable products over encoded factors."""
    return functools.reduce(lambda a, b: reachable_product(a, b).product, factors)


def _build_product(
    plant: Automaton, spec: Automaton
) -> tuple[Automaton, dict[State, ProductState]]:
    """Reachable product of plant and spec with pair bookkeeping.

    Events private to the plant are interleaved (the specification does
    not constrain them); events private to the specification are treated
    as constraints the plant cannot execute, hence never fire.  A product
    state is forbidden if either component is forbidden.
    """
    alphabet = plant.alphabet.union(spec.alphabet)
    product = Automaton(f"sup({plant.name},{spec.name})", alphabet)
    start = ProductState(plant.initial, spec.initial)
    state_map: dict[State, ProductState] = {start.label(): start}
    product.add_state(
        start.label(),
        marked=plant.is_marked(plant.initial) and spec.is_marked(spec.initial),
        forbidden=plant.is_forbidden(plant.initial)
        or spec.is_forbidden(spec.initial),
        initial=True,
    )
    frontier = deque([start])
    visited = {start}
    while frontier:
        pair = frontier.popleft()
        for event in plant.alphabet:
            next_plant = plant.step(pair.plant, event)
            if next_plant is None:
                continue
            if event in spec.alphabet:
                next_spec = spec.step(pair.spec, event)
                if next_spec is None:
                    continue
            else:
                next_spec = pair.spec
            nxt = ProductState(next_plant, next_spec)
            if nxt not in visited:
                visited.add(nxt)
                state_map[nxt.label()] = nxt
                product.add_state(
                    nxt.label(),
                    marked=plant.is_marked(next_plant)
                    and spec.is_marked(next_spec),
                    forbidden=plant.is_forbidden(next_plant)
                    or spec.is_forbidden(next_spec),
                )
                frontier.append(nxt)
            product.add_transition(pair.label(), event, nxt.label())
    return product, state_map


def explicit_synthesize_supervisor(
    plant: Automaton, spec: Automaton
) -> SynthesisResult:
    """The explicit-state fixpoint: same contract as
    :func:`repro.automata.synthesize_supervisor`, enumerating the product
    with Python dict/deque walks, one state at a time."""
    if not plant.has_initial:
        raise SynthesisError("plant has no initial state")
    if not spec.has_initial:
        raise SynthesisError("specification has no initial state")

    product, state_map = _build_product(plant, spec)

    good: set[State] = {
        s for s in product.states if not product.is_forbidden(s)
    }
    removed_uncontrollable: set[State] = set()
    removed_blocking: set[State] = set()

    iterations = 0
    changed = True
    while changed:
        iterations += 1
        changed = False

        # Extension algorithm: drop states where the plant can fire an
        # uncontrollable event whose product successor has been removed
        # (or which the product never allowed at all), each judged
        # against the round-start snapshot.
        snapshot = frozenset(good)
        for state in sorted(snapshot):
            pair = state_map[state]
            for event in plant.enabled_events(pair.plant):
                if event.controllable:
                    continue
                target = product.step(state, event)
                if target is None or target not in snapshot:
                    good.discard(state)
                    removed_uncontrollable.add(state)
                    changed = True
                    break

        # Trimming algorithm: keep only accessible and coaccessible
        # states of the surviving sub-automaton.
        candidate = product.restricted_to(good)
        keep = accessible_states(candidate) & coaccessible_states(candidate)
        dropped = good - keep
        if dropped:
            removed_blocking.update(dropped)
            good = set(keep)
            changed = True

    supervisor = product.restricted_to(good, name=f"S({plant.name})")
    surviving_map = {s: state_map[s] for s in supervisor.states}
    return SynthesisResult(
        supervisor=supervisor,
        iterations=iterations,
        removed_uncontrollable=frozenset(removed_uncontrollable),
        removed_blocking=frozenset(removed_blocking),
        state_map=surviving_map,
    )


def explicit_check_controllability(
    plant: Automaton, supervisor: Automaton
) -> tuple[bool, tuple[ControllabilityViolation, ...]]:
    """Level-synchronized BFS over joint (plant, supervisor) states with
    events expanded in alphabet order, so witness traces match the
    symbolic kernel's deterministic tie-breaking exactly."""
    if not plant.has_initial or not supervisor.has_initial:
        return True, ()
    start = (plant.initial, supervisor.initial)
    words: dict[tuple[State, State], tuple[str, ...]] = {start: ()}
    frontier = [start]
    violations: list[ControllabilityViolation] = []
    events = list(plant.alphabet)
    while frontier:
        frontier.sort(key=lambda pair: (pair[0].name, pair[1].name))
        for plant_state, sup_state in frontier:
            sup_enabled = supervisor.enabled_events(sup_state)
            for event in plant.enabled_events(plant_state):
                if event not in sup_enabled and not event.controllable:
                    violations.append(
                        ControllabilityViolation(
                            plant_state,
                            sup_state,
                            event,
                            trace=words[(plant_state, sup_state)],
                        )
                    )
        next_frontier: list[tuple[State, State]] = []
        for event in events:
            for plant_state, sup_state in frontier:
                next_plant = plant.step(plant_state, event)
                next_sup = supervisor.step(sup_state, event)
                if next_plant is None or next_sup is None:
                    continue
                nxt = (next_plant, next_sup)
                if nxt not in words:
                    words[nxt] = words[(plant_state, sup_state)] + (event.name,)
                    next_frontier.append(nxt)
        frontier = next_frontier
    violations.sort(key=_violation_sort_key)
    return not violations, tuple(violations)


def explicit_verify_supervisor(
    plant: Automaton, supervisor: Automaton
) -> VerificationReport:
    """Materializes ``plant || supervisor`` and walks it with Python sets."""
    closed_loop = explicit_synchronous_composition(
        plant, supervisor, name=f"{plant.name}||{supervisor.name}"
    )
    controllable, violations = explicit_check_controllability(plant, supervisor)
    return VerificationReport(
        nonblocking=is_nonblocking(closed_loop),
        controllable=controllable,
        blocking_states=blocking_states(closed_loop),
        violations=violations,
    )
