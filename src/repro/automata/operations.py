"""Structural operations on DES automata.

Implements the synchronous composition operator ``||`` exactly as
defined in Section 4.3.1 of the paper, plus the reachability operators
(accessible, coaccessible, trim) on which supervisor synthesis is built.

Composition has one engine: the n-ary reachable product of the bitset
kernel (:func:`repro.automata.symbolic.reachable_composition`) over the
factors' memoized encodings, decoded once into an :class:`Automaton`
(:func:`repro.automata.symbolic.decode_automaton`).  The edge-at-a-time
walk through the checked API is the test oracle
(``tests/automata/explicit_oracle.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Iterable

import numpy as np

from repro.automata.automaton import Automaton, AutomatonError, State
from repro.automata.symbolic import (
    composition_states,
    decode_automaton,
    encode_automaton,
)


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
    reachable part of the product is constructed.  This is
    :func:`compose_all` of the two.
    """
    return compose_all([a, b], name)


def compose_all(automata: Iterable[Automaton], name: str | None = None) -> Automaton:
    """``automata[0] || ... || automata[-1]`` over its reachable states,
    named ``name`` (default: the factor names joined by ``||``).

    One reachable product over the factors' memoized encodings, decoded
    in bulk (states in ascending packed-key order, transitions grouped
    by event): the states, transitions, marking and alphabet of a
    pairwise fold, and the fold's first error.  Two reachable
    factor-state tuples with one dotted label raise
    :class:`AutomatonError` naming both.
    """
    items = list(automata)
    if not items:
        raise AutomatonError("compose_all requires at least one automaton")
    if len(items) == 1:
        # Never rename the caller's automaton in place.
        return items[0] if name is None else items[0].copy(name)
    # The pairwise fold's checks in its order: union, then initial states.
    alphabet = items[0].alphabet
    for k, item in enumerate(items[1:]):
        alphabet = alphabet.union(item.alphabet)
        for factor in items[:2] if not k else [item]:
            if not factor.has_initial:
                raise AutomatonError(
                    f"automaton {factor.name!r} has no initial state"
                )
    factors = [encode_automaton(item) for item in items]
    product, states = composition_states(factors)
    columns = [
        np.asarray(factor.state_names, dtype=object)[column].tolist()
        for factor, column in zip(factors, states)
    ]
    labels = list(map(".".join, zip(*columns)))
    name = name or "||".join(item.name for item in items)
    if len(set(labels)) < len(labels):
        first: dict[str, int] = {}
        for k, label in enumerate(labels):
            i = first.setdefault(label, k)
            if i != k:
                raise AutomatonError(
                    f"state label collision in {name!r}: factor states "
                    f"{tuple(c[i] for c in columns)} and "
                    f"{tuple(c[k] for c in columns)} both compose to {label!r}"
                )
    return decode_automaton(
        replace(product, name=name, state_names=tuple(labels)), alphabet
    )


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
