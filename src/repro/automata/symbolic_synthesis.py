"""Supremal supervisor synthesis on the bitset kernel.

An explicit Ramadge-Wonham fixpoint enumerates the plant x spec product
one Python ``(State, Event)`` lookup at a time, which caps synthesis
around the 61k-state scalable models.  This module runs the fixpoint —
trimming composed with the uncontrollable-extension pruning, iterated to
convergence (Section 4.3.4) — entirely as whole-array operations on
:class:`~repro.automata.symbolic.EncodedAutomaton`:

* the synthesis product is built over its reachable pairs only by
  :func:`~repro.automata.symbolic.reachable_product` with synthesis
  semantics: spec-private events are silenced (a constraint event the
  plant does not model can never fire — matching the explicit builder);
* the extension pass evaluates one *uncontrollable-escape mask* per
  plant event: ``escape = good & plant_enables_pairs & ~has_good_edge``,
  a handful of vectorized scatters instead of a per-state loop;
* trimming is ``forward_reachable & backward_reachable`` on the
  restriction of the product to the surviving states.  A round whose
  extension pass removed nothing after the previous round's trim skips
  its trim: trim is idempotent (a state on a path from the initial
  state to a kept state, or from a kept state to a marked one, is
  itself kept), so it could not drop a state.  That round changes
  nothing and ends the fixpoint; it still counts, so the round count
  is the explicit oracle's.

The fixpoint runs on the *Jacobi* (snapshot) schedule: each extension
pass judges every state against the round-start good set.  The supremal
fixpoint is unique regardless of schedule, but the bookkeeping that
attributes a pruned state to ``removed_uncontrollable`` versus
``removed_blocking`` is not — the snapshot schedule makes the
attribution canonical, so :func:`symbolic_synthesize_supervisor` and the
explicit test oracle (``tests/automata/explicit_oracle.py``) agree
field-for-field, not just up to isomorphism.

For models too large to compose explicitly, :func:`encode_composition`
builds the reachable synchronous product over encoded factors in one
pass — the 10-cluster plants (up to 1.65M reachable states) never exist
as Python object graphs at all, and :func:`supremal_fixpoint`
synthesizes directly on the encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from repro.automata.automaton import Automaton, State
from repro.automata.symbolic import (
    _STATE_DTYPE,
    EncodedAutomaton,
    PairEncoding,
    backward_reachable,
    decode_automaton,
    encode_automaton,
    forward_reachable,
    reachable_composition,
    reachable_product,
    restrict_states,
)
from repro.automata.synthesis import (
    ProductState,
    SynthesisError,
    SynthesisResult,
)

__all__ = [
    "SupremalFixpoint",
    "encode_composition",
    "supremal_fixpoint",
    "symbolic_synthesize_supervisor",
]


@dataclass
class SupremalFixpoint:
    """Raw outcome of the symbolic supremal fixpoint.

    All masks live in the synthesis product's state space — its
    reachable pairs, mapped back to ``plant * n_spec + spec`` keys by
    ``pair.pairs``: ``good`` is the supervisor's state set,
    ``removed_uncontrollable`` / ``removed_blocking`` partition the
    pruned (non-forbidden) pairs, and ``restricted`` is the product
    limited to the surviving states — the supervisor, still encoded.
    """

    pair: PairEncoding
    good: np.ndarray
    removed_uncontrollable: np.ndarray
    removed_blocking: np.ndarray
    iterations: int
    restricted: EncodedAutomaton

    @property
    def n_supervisor_states(self) -> int:
        return int(self.good.sum())

    @property
    def is_empty(self) -> bool:
        initial = self.pair.product.initial
        return initial < 0 or not bool(self.good[initial])


def _uncontrollable_escape_masks(
    plant: EncodedAutomaton, pair: PairEncoding
) -> list[tuple[int, np.ndarray]]:
    """Per uncontrollable plant event: ``(product event index, mask of
    pairs whose plant component enables the event)``.

    Derived from the plant's transition sources rather than its
    ``enabled`` matrix so composed encodings (which carry no matrix) work
    unchanged.  Spec-private uncontrollable events are skipped: they can
    never fire, so they cannot escape.
    """
    product = pair.product
    plant_states, _ = pair.factor_states()
    masks: list[tuple[int, np.ndarray]] = []
    for e, name in enumerate(product.event_names):
        if product.event_controllable[e]:
            continue
        pe = plant.event_index(name)
        if pe is None or not plant.src[pe].size:
            continue
        plant_on = np.zeros(plant.n_states, dtype=bool)
        plant_on[plant.src[pe].astype(np.intp)] = True
        masks.append((e, plant_on[plant_states]))
    return masks


def supremal_fixpoint(
    plant: EncodedAutomaton, spec: EncodedAutomaton
) -> SupremalFixpoint:
    """Supremal controllable nonblocking fixpoint over encoded factors.

    Accepts any encodings, including composed products from
    :func:`encode_composition`; only :func:`symbolic_synthesize_supervisor`
    needs state names for decoding.
    """
    pair = reachable_product(plant, spec, "synthesis")
    product = pair.product
    n = product.n_states
    good = ~product.forbidden
    removed_uncontrollable = np.zeros(n, dtype=bool)
    removed_blocking = np.zeros(n, dtype=bool)
    escapes = _uncontrollable_escape_masks(plant, pair)

    current = restrict_states(product, good)
    iterations = 0
    changed = True
    trimmed = False
    while changed:
        iterations += 1
        changed = False

        # Extension pass (Jacobi schedule): a pair escapes when its
        # plant component enables an uncontrollable event but the
        # good-restricted product has no edge for it — either the spec
        # never allowed the event here, or the successor was pruned in
        # an earlier round.
        escape = np.zeros(n, dtype=bool)
        for e, plant_pairs in escapes:
            has_edge = np.zeros(n, dtype=bool)
            src = current.src[e]
            if src.size:
                has_edge[src.astype(np.intp)] = True
            escape |= good & plant_pairs & ~has_edge
        if escape.any():
            removed_uncontrollable |= escape
            good &= ~escape
            current = restrict_states(current, good)
            changed = True
            trimmed = False

        # Trimming pass: keep the accessible and coaccessible part of
        # the surviving sub-product.  Trim is idempotent, so a round
        # whose extension pass removed nothing after the last trim
        # skips it (it could not drop a state) and, having changed
        # nothing, ends the fixpoint with the same round count.
        if trimmed:
            continue
        trimmed = True
        keep = forward_reachable(current) & backward_reachable(current) & good
        dropped = good & ~keep
        if dropped.any():
            removed_blocking |= dropped
            good = keep
            current = restrict_states(current, good)
            changed = True

    return SupremalFixpoint(
        pair=pair,
        good=good,
        removed_uncontrollable=removed_uncontrollable,
        removed_blocking=removed_blocking,
        iterations=iterations,
        restricted=current,
    )


def _pair_states(pair: PairEncoding, mask: np.ndarray) -> frozenset[State]:
    """Decode a product-state mask into ``plantState.specState`` labels."""
    left_names = pair.left.state_names
    right_names = pair.right.state_names
    assert left_names is not None and right_names is not None
    lefts, rights = np.divmod(pair.pairs[mask], pair.right.n_states)
    return frozenset(
        State(f"{left_names[i]}.{right_names[j]}")
        for i, j in zip(lefts.tolist(), rights.tolist())
    )


def _decode_result(
    plant: Automaton, spec: Automaton, fixpoint: SupremalFixpoint
) -> SynthesisResult:
    """Materialize a :class:`SynthesisResult` from the fixpoint masks:
    the supervisor is the restricted product compacted onto the kept
    pairs, decoded (and memoized) by
    :func:`~repro.automata.symbolic.decode_automaton`."""
    pair = fixpoint.pair
    left_names = pair.left.state_names
    right_names = pair.right.state_names
    if left_names is None or right_names is None:
        raise SynthesisError(
            "decoding requires named factor encodings; synthesize from "
            "Automaton models or keep the SupremalFixpoint encoded"
        )
    product, restricted, good = pair.product, fixpoint.restricted, fixpoint.good
    kept = np.flatnonzero(good)
    lefts, rights = (a.tolist() for a in np.divmod(pair.pairs[kept], pair.right.n_states))
    labels = tuple(f"{left_names[i]}.{right_names[j]}" for i, j in zip(lefts, rights))
    # Only kept pairs have transitions; a monotone compaction keeps order.
    index = np.cumsum(good, dtype=_STATE_DTYPE) - 1
    initial = product.initial
    compact = replace(
        restricted,
        name=f"S({plant.name})",
        n_states=kept.size,
        src=tuple(index[src] for src in restricted.src),
        dst=tuple(index[dst] for dst in restricted.dst),
        initial=int(index[initial]) if initial >= 0 and good[initial] else -1,
        marked=product.marked[kept],
        forbidden=product.forbidden[kept],
        state_names=labels,
        enabled=None,
    )
    supervisor = decode_automaton(compact, plant.alphabet.union(spec.alphabet))
    plant_states = tuple(State(name) for name in left_names)
    spec_states = tuple(State(name) for name in right_names)
    return SynthesisResult(
        supervisor=supervisor,
        iterations=fixpoint.iterations,
        removed_uncontrollable=_pair_states(
            pair, fixpoint.removed_uncontrollable
        ),
        removed_blocking=_pair_states(pair, fixpoint.removed_blocking),
        state_map={
            State(label): ProductState(plant_states[i], spec_states[j])
            for label, i, j in zip(labels, lefts, rights)
        },
    )


def symbolic_synthesize_supervisor(
    plant: Automaton, spec: Automaton
) -> SynthesisResult:
    """Supremal controllable nonblocking synthesis on the bitset kernel.

    The engine behind :func:`~repro.automata.synthesis.synthesize_supervisor`:
    the returned :class:`SynthesisResult` matches the explicit test
    oracle field-for-field (same supervisor states, transitions, marking
    and initial state; same ``removed_uncontrollable`` /
    ``removed_blocking`` attribution; same round count) — the
    equivalence suite asserts exact equality, not just isomorphism.
    """
    if not plant.has_initial:
        raise SynthesisError("plant has no initial state")
    if not spec.has_initial:
        raise SynthesisError("specification has no initial state")
    # Resolve the union alphabet first so conflicting controllability
    # attributes fail before any heavy work, as the explicit oracle does.
    plant.alphabet.union(spec.alphabet)
    fixpoint = supremal_fixpoint(encode_automaton(plant), encode_automaton(spec))
    return _decode_result(plant, spec, fixpoint)


def encode_composition(
    components: Iterable[Automaton | EncodedAutomaton],
    name: str | None = None,
) -> EncodedAutomaton:
    """The synchronous product over ``components``, fully encoded.

    The composed plant never exists as an :class:`Automaton`:
    :func:`~repro.automata.symbolic.reachable_composition` builds it in
    one BFS over all factors at once, each reachable state one integer
    key with a bit field per factor, so states and transition arrays
    stay proportional to the *reachable* product and no product of a
    prefix of the factors is built on the way.  The encoding is byte
    for byte the one a left fold of pairwise
    :func:`~repro.automata.symbolic.reachable_product` calls gives.
    This is the entry point for models whose explicit composition is
    itself infeasible (the 10-cluster fleet plants).  One component
    comes back as it is; none raises :class:`SynthesisError`.

    The result has no state names; pair it with
    :func:`supremal_fixpoint` for scale runs, or with named encodings
    when a decoded supervisor is required.
    """
    encoded = [
        item
        if isinstance(item, EncodedAutomaton)
        else encode_automaton(item)
        for item in components
    ]
    if not encoded:
        raise SynthesisError("encode_composition requires at least one component")
    composed = reachable_composition(encoded)
    if name is not None:
        composed = replace(composed, name=name)
    return composed
