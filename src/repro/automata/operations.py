"""Structural operations on DES automata.

Implements the synchronous composition operator ``||`` exactly as
defined in Section 4.3.1 of the paper, plus the reachability operators
(accessible, coaccessible, trim) on which supervisor synthesis is built.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.automata.automaton import Automaton, AutomatonError, State
from repro.automata.events import Event


def synchronous_composition(
    a: Automaton, b: Automaton, name: str | None = None
) -> Automaton:
    """``A || B``: synchronize shared events, interleave private ones.

    Follows the paper's definition: for composite state ``qA.qB`` and
    event ``e``::

        delta(qA.qB, e) = delta_A(qA,e).delta_B(qB,e)  if defined in both
                          delta_A(qA,e).qB             if e not in Sigma_B
                          qA.delta_B(qB,e)             if e not in Sigma_A
                          undefined                    otherwise

    Marked states are pairs of marked states (``M_A x M_B``); a composite
    state is forbidden if either component is forbidden.  Only the
    reachable part of the product is constructed, breadth-first from
    the initial pair with events in sorted order.

    The walk reads both factors' transition maps directly and fills the
    composite's tables in the order the checked ``add_state`` /
    ``add_transition`` calls would, keeping their determinism check:
    two pairs whose dotted names collide (``x.y``+``z`` and ``x``+``y.z``)
    still raise :class:`AutomatonError`.  The edge-at-a-time version
    through the public API is the test oracle
    (``tests/automata/explicit_oracle.py``).
    """
    alphabet = a.alphabet.union(b.alphabet)
    composed = Automaton(name or f"{a.name}||{b.name}", alphabet)
    names_a = a.alphabet.names()
    names_b = b.alphabet.names()
    # One plan for the whole walk: the union alphabet in sorted order,
    # with each event's membership in either factor.
    plan = [
        (event, event.name, event.name in names_a, event.name in names_b)
        for event in alphabet
    ]
    out_a = _out_edges(a)
    out_b = _out_edges(b)
    marked_a, marked_b = a._marked, b._marked
    forbidden_a, forbidden_b = a._forbidden, b._forbidden
    states = composed._states
    delta = composed._delta
    enabled = composed._enabled
    marked = composed._marked
    forbidden = composed._forbidden
    no_edges: dict[str, State] = {}

    def visit(state_a: State, state_b: State) -> State:
        label = State(f"{state_a.name}.{state_b.name}")
        states[label.name] = label
        if state_a in marked_a and state_b in marked_b:
            marked.add(label)
        if state_a in forbidden_a or state_b in forbidden_b:
            forbidden.add(label)
        return label

    initial_a, initial_b = a.initial, b.initial
    composed._initial = visit(initial_a, initial_b)
    # Pairs are keyed by component names: State equality is name
    # equality, and str hashes are cached.
    labels: dict[tuple[str, str], State] = {
        (initial_a.name, initial_b.name): composed._initial
    }
    frontier: deque[tuple[State, State]] = deque([(initial_a, initial_b)])

    while frontier:
        state_a, state_b = frontier.popleft()
        source = labels[state_a.name, state_b.name]
        succ_a = out_a.get(state_a.name, no_edges)
        succ_b = out_b.get(state_b.name, no_edges)
        fired: list[Event] = []
        for event, event_name, in_a, in_b in plan:
            if in_a:
                next_a = succ_a.get(event_name)
                if next_a is None:
                    continue
            else:
                next_a = state_a
            if in_b:
                next_b = succ_b.get(event_name)
                if next_b is None:
                    continue
            else:
                next_b = state_b
            key = (next_a.name, next_b.name)
            target = labels.get(key)
            if target is None:
                target = labels[key] = visit(next_a, next_b)
                frontier.append((next_a, next_b))
            existing = delta.setdefault((source, event), target)
            if existing is not target and existing != target:
                raise AutomatonError(
                    f"nondeterministic transition in {composed.name!r}: "
                    f"{source} on {event.name} goes to both {existing} and {target}"
                )
            fired.append(event)
        if fired:
            enabled.setdefault(source, set()).update(fired)
    return composed


def _out_edges(automaton: Automaton) -> dict[str, dict[str, State]]:
    """``automaton``'s transition map as state name -> event name -> target."""
    out: dict[str, dict[str, State]] = {}
    for (source, event), target in automaton._delta.items():
        out.setdefault(source.name, {})[event.name] = target
    return out


def compose_all(automata: Iterable[Automaton], name: str | None = None) -> Automaton:
    """Left fold of :func:`synchronous_composition` over ``automata``."""
    items = list(automata)
    if not items:
        raise AutomatonError("compose_all requires at least one automaton")
    if len(items) == 1:
        # Never rename the caller's automaton in place.
        return items[0] if name is None else items[0].copy(name)
    result = items[0]
    for other in items[1:]:
        result = synchronous_composition(result, other)
    if name is not None:
        result.name = name
    return result


def accessible_states(automaton: Automaton) -> frozenset[State]:
    """States reachable from the initial state."""
    if not automaton.has_initial:
        return frozenset()
    # Forward adjacency built once: automaton.successors is
    # O(transitions) per call, which made this quadratic on product
    # automata before the symbolic kernel benchmarks exposed it.
    forward: dict[State, set[State]] = {}
    for source, _event, target in automaton.iter_transitions():
        forward.setdefault(source, set()).add(target)
    seen: set[State] = {automaton.initial}
    frontier = deque([automaton.initial])
    while frontier:
        state = frontier.popleft()
        for successor in forward.get(state, ()):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return frozenset(seen)


def coaccessible_states(automaton: Automaton) -> frozenset[State]:
    """States from which some marked state is reachable.

    Computed by backward breadth-first search from the marked states.
    """
    seen: set[State] = set(automaton.marked)
    frontier = deque(automaton.marked)
    # Precompute the reverse adjacency once; automaton.predecessors is
    # O(transitions) per call which would make this quadratic.
    reverse: dict[State, set[State]] = {}
    for source, _event, target in automaton.iter_transitions():
        reverse.setdefault(target, set()).add(source)
    while frontier:
        state = frontier.popleft()
        for predecessor in reverse.get(state, ()):
            if predecessor not in seen:
                seen.add(predecessor)
                frontier.append(predecessor)
    return frozenset(seen)


def accessible(automaton: Automaton, name: str | None = None) -> Automaton:
    """Restrict to the reachable part."""
    return automaton.restricted_to(accessible_states(automaton), name=name)


def coaccessible(automaton: Automaton, name: str | None = None) -> Automaton:
    """Restrict to states that can still reach a marked state."""
    return automaton.restricted_to(coaccessible_states(automaton), name=name)


def trim(automaton: Automaton, name: str | None = None) -> Automaton:
    """Accessible *and* coaccessible part — the paper's trimming algorithm.

    A trim automaton is nonblocking by construction: every reachable
    state can complete some task (reach a marked state).
    """
    keep = accessible_states(automaton) & coaccessible_states(automaton)
    return automaton.restricted_to(keep, name=name)


def is_nonblocking(automaton: Automaton) -> bool:
    """True iff every reachable state is coaccessible (Section 4.3.4)."""
    reachable = accessible_states(automaton)
    if not reachable:
        return True
    return reachable <= coaccessible_states(automaton)


def blocking_states(automaton: Automaton) -> frozenset[State]:
    """Reachable states from which no marked state can be reached."""
    return frozenset(accessible_states(automaton) - coaccessible_states(automaton))
