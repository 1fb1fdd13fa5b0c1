"""Tests for the bitset reachability kernel (`repro.automata.symbolic`).

The kernel's contract is exact agreement with the explicit-state
toolkit: same reachable/coaccessible sets, same verification verdicts,
same (byte-identical) reports, and shortest counterexample traces that
replay on the original automaton.  Randomized automata exercise the
corners hand-written models miss: unreachable junk, empty alphabets,
missing initial states, self-loops, and uncontrollable escapes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.automaton import Automaton, automaton_from_table
from repro.automata.events import Alphabet, controllable, uncontrollable
from repro.automata.language import languages_equal
from repro.automata import verification
from repro.automata.operations import (
    accessible_states,
    coaccessible_states,
    compose_all,
    synchronous_composition,
)
from repro.automata.serialization import canonical_digest
from repro.automata.symbolic import (
    EncodedAutomaton,
    backward_reachable,
    encode_automaton,
    forward_reachable,
    forward_search,
    nearest_state,
    reachable_product,
    restrict_states,
    successor_table,
    witness_trace,
)
from repro.automata.verification import verify_supervisor
from tests.automata.explicit_oracle import (
    explicit_check_controllability,
    explicit_verify_supervisor,
)

EVENTS = [
    controllable("c1"),
    controllable("c2"),
    uncontrollable("u1"),
    uncontrollable("u2"),
]
SIGMA = Alphabet.of(EVENTS)
STATE_NAMES = ["Q0", "Q1", "Q2", "Q3", "Q4", "Q5"]


@st.composite
def automata(draw, name="rand", max_states=6, with_forbidden=False):
    n_states = draw(st.integers(min_value=1, max_value=max_states))
    states = STATE_NAMES[:n_states]
    automaton = Automaton(name, SIGMA)
    for state in states:
        automaton.add_state(state)
    automaton.set_initial(states[0])
    n_transitions = draw(st.integers(min_value=0, max_value=14))
    for _ in range(n_transitions):
        source = draw(st.sampled_from(states))
        event = draw(st.sampled_from(EVENTS))
        target = draw(st.sampled_from(states))
        if automaton.step(source, event) is None:
            automaton.add_transition(source, event, target)
    for state in states:
        if draw(st.booleans()):
            automaton.mark(state)
        if with_forbidden and draw(st.integers(0, 9)) == 0:
            automaton.forbid(state)
    return automaton


def _mask_names(enc, mask):
    return {enc.state_label(int(i)) for i in np.flatnonzero(mask)}


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
class TestEncoding:
    def test_indices_are_sorted_name_order(self):
        automaton = automaton_from_table(
            "M",
            SIGMA,
            [("B", "c1", "A"), ("A", "u1", "B")],
            initial="B",
            marked=["A"],
        )
        enc = encode_automaton(automaton)
        assert enc.state_names == ("A", "B")
        assert enc.initial == 1
        assert enc.marked.tolist() == [True, False]
        assert enc.event_names == tuple(e.name for e in SIGMA)

    def test_transition_arrays_sorted_by_source_then_target(self):
        automaton = automaton_from_table(
            "M",
            SIGMA,
            [
                ("C", "c1", "A"),
                ("A", "c1", "C"),
                ("B", "c1", "B"),
            ],
            initial="A",
        )
        enc = encode_automaton(automaton)
        e = enc.event_index("c1")
        assert enc.src[e].tolist() == [0, 1, 2]
        assert enc.dst[e].tolist() == [2, 1, 0]

    def test_enabled_matrix(self):
        automaton = automaton_from_table(
            "M",
            SIGMA,
            [("A", "c1", "B"), ("B", "u2", "B")],
            initial="A",
        )
        enc = encode_automaton(automaton)
        assert enc.event_enabled("c1").tolist() == [True, False]
        assert enc.event_enabled("u2").tolist() == [False, True]
        assert enc.event_enabled("nope").tolist() == [False, False]

    def test_no_initial_state(self):
        automaton = Automaton("M", SIGMA)
        automaton.add_state("A")
        enc = encode_automaton(automaton)
        assert enc.initial == -1
        assert not forward_reachable(enc).any()

    def test_controllable_flags_follow_alphabet(self):
        enc = encode_automaton(
            automaton_from_table("M", SIGMA, [], initial="A")
        )
        flags = dict(zip(enc.event_names, enc.event_controllable.tolist()))
        assert flags == {"c1": True, "c2": True, "u1": False, "u2": False}


# ----------------------------------------------------------------------
# Reachability vs the explicit operators
# ----------------------------------------------------------------------
class TestReachability:
    @settings(max_examples=120, deadline=None)
    @given(automata())
    def test_forward_matches_accessible_states(self, automaton):
        enc = encode_automaton(automaton)
        symbolic = _mask_names(enc, forward_reachable(enc))
        explicit = {s.name for s in accessible_states(automaton)}
        assert symbolic == explicit

    @settings(max_examples=120, deadline=None)
    @given(automata())
    def test_backward_matches_coaccessible_states(self, automaton):
        enc = encode_automaton(automaton)
        symbolic = _mask_names(enc, backward_reachable(enc))
        explicit = {s.name for s in coaccessible_states(automaton)}
        assert symbolic == explicit

    def test_event_mask_restricts_walk(self):
        automaton = automaton_from_table(
            "M",
            SIGMA,
            [("A", "c1", "B"), ("B", "u1", "C")],
            initial="A",
        )
        enc = encode_automaton(automaton)
        only_controllable = enc.event_controllable.copy()
        reach = forward_reachable(enc, event_mask=only_controllable)
        assert _mask_names(enc, reach) == {"A", "B"}

    def test_restrict_states_drops_transitions_and_status(self):
        automaton = automaton_from_table(
            "M",
            SIGMA,
            [("A", "c1", "B"), ("B", "c2", "C")],
            initial="A",
            marked=["C"],
        )
        enc = encode_automaton(automaton)
        keep = np.array([True, True, False])
        sub = restrict_states(enc, keep)
        assert _mask_names(sub, forward_reachable(sub)) == {"A", "B"}
        assert not sub.marked.any()
        assert sub.n_states == enc.n_states  # indices preserved


# ----------------------------------------------------------------------
# Products
# ----------------------------------------------------------------------
class TestProducts:
    @settings(max_examples=60, deadline=None)
    @given(automata(name="L"), automata(name="R"))
    def test_product_reachable_matches_explicit_composition(self, left, right):
        composed = synchronous_composition(left, right)
        explicit = {s.name for s in accessible_states(composed)}
        pair = reachable_product(
            encode_automaton(left), encode_automaton(right)
        )
        symbolic = {
            pair.pair_label(int(i))
            for i in np.flatnonzero(forward_reachable(pair.product))
        }
        assert symbolic == explicit

    def test_controllability_product_ignores_supervisor_private_events(self):
        plant = automaton_from_table(
            "P",
            Alphabet.of([controllable("c1"), uncontrollable("u1")]),
            [("P0", "c1", "P1")],
            initial="P0",
        )
        supervisor = automaton_from_table(
            "S",
            SIGMA,
            [("S0", "c1", "S1"), ("S1", "c2", "S0")],
            initial="S0",
        )
        pair = reachable_product(
            encode_automaton(plant),
            encode_automaton(supervisor),
            "controllability",
        )
        # c2 is supervisor-private: not an event of the product at all.
        assert pair.product.event_names == ("c1", "u1")
        reach = forward_reachable(pair.product)
        labels = {
            pair.pair_label(int(i)) for i in np.flatnonzero(reach)
        }
        assert labels == {"P0.S0", "P1.S1"}


    @settings(max_examples=60, deadline=None)
    @given(automata(name="L"), automata(name="R"))
    def test_product_holds_only_reachable_pairs_in_key_order(self, left, right):
        composed = synchronous_composition(left, right)
        pair = reachable_product(
            encode_automaton(left), encode_automaton(right)
        )
        assert pair.product.n_states == len(accessible_states(composed))
        assert forward_reachable(pair.product).all()
        # The compact index is the rank of the pair key: ascending keys,
        # and index() inverts split().
        assert (np.diff(pair.pairs) > 0).all()
        for state in range(pair.product.n_states):
            assert pair.index(*pair.split(state)) == state

    def test_unknown_semantics_rejected(self):
        enc = encode_automaton(
            automaton_from_table("M", SIGMA, [("A", "c1", "B")], initial="A")
        )
        with pytest.raises(ValueError, match="semantics"):
            reachable_product(enc, enc, "cross")

    def test_nondeterministic_encoding_rejected(self):
        # Two c1 edges leave state 0: a successor table can hold only
        # one, so the builder must refuse rather than keep the last.
        enc = EncodedAutomaton(
            name="hand",
            n_states=3,
            event_names=("c1",),
            event_controllable=np.array([True]),
            src=(np.array([0, 0]),),
            dst=(np.array([1, 2]),),
            initial=0,
            marked=np.zeros(3, dtype=bool),
            forbidden=np.zeros(3, dtype=bool),
        )
        with pytest.raises(ValueError, match="not deterministic"):
            successor_table(enc)
        other = encode_automaton(
            automaton_from_table("M", SIGMA, [("A", "c1", "B")], initial="A")
        )
        with pytest.raises(ValueError, match="not deterministic"):
            reachable_product(other, enc)


class TestProductSize:
    """Products must stay the size of their reachable part, never grow
    back to the ``left.n_states * right.n_states`` cross product."""

    def test_scalable_closed_loop_is_supervisor_sized(self, monkeypatch):
        from repro.core.scalable import (
            scalable_alphabet,
            scalable_counter_plant,
            scalable_specification,
        )
        from repro.automata.synthesis import synthesize_supervisor

        sigma = scalable_alphabet(4)
        plant = scalable_counter_plant(4, 3, sigma)
        supervisor = synthesize_supervisor(
            plant, scalable_specification(4, sigma)
        ).supervisor
        built = []

        def spy(*args, **kwargs):
            pair = reachable_product(*args, **kwargs)
            built.append(pair)
            return pair

        monkeypatch.setattr(verification, "reachable_product", spy)
        assert verification.verify_supervisor(plant, supervisor).verified
        closed_loop = built[0]
        assert closed_loop.product.name == f"{plant.name}||{supervisor.name}"
        assert len(supervisor) == 1620
        assert closed_loop.product.n_states == len(supervisor)

    def test_folded_plant_has_only_accessible_states(self):
        from repro.automata.symbolic_synthesis import encode_composition
        from repro.core.scalable import (
            scalable_alphabet,
            scalable_plant_components,
        )

        sigma = scalable_alphabet(3)
        components = scalable_plant_components(3, 3, sigma)
        folded = encode_composition(components)
        composed = compose_all(components)
        assert folded.n_states == len(accessible_states(composed))
        assert folded.n_transitions == composed.n_transitions


# ----------------------------------------------------------------------
# Search trees and witness traces
# ----------------------------------------------------------------------
class TestWitnessTraces:
    @settings(max_examples=100, deadline=None)
    @given(automata())
    def test_traces_replay_and_are_shortest(self, automaton):
        enc = encode_automaton(automaton)
        tree = forward_search(enc)
        # Explicit BFS depths for comparison.
        depths = {automaton.initial.name: 0}
        frontier = [automaton.initial]
        while frontier:
            nxt = []
            for state in frontier:
                for event in automaton.enabled_events(state):
                    target = automaton.step(state, event)
                    if target.name not in depths:
                        depths[target.name] = depths[state.name] + 1
                        nxt.append(target)
            frontier = nxt
        for index in np.flatnonzero(tree.visited):
            name = enc.state_label(int(index))
            trace = witness_trace(enc, tree, int(index))
            assert len(trace) == depths[name] == int(tree.depth[index])
            # The trace replays to the right state.
            state = automaton.initial
            for event_name in trace:
                state = automaton.step(state, event_name)
                assert state is not None
            assert state.name == name

    def test_nearest_state_prefers_min_depth_then_min_index(self):
        automaton = automaton_from_table(
            "M",
            SIGMA,
            [("A", "c1", "B"), ("A", "c2", "C"), ("B", "c1", "D")],
            initial="A",
        )
        enc = encode_automaton(automaton)
        tree = forward_search(enc)
        mask = np.array([False, True, True, True])  # B, C, D
        # B and C are both depth 1; B has the smaller index.
        assert enc.state_label(nearest_state(tree, mask)) == "B"
        assert nearest_state(tree, np.zeros(4, dtype=bool)) == -1


# ----------------------------------------------------------------------
# Verification equivalence (the kernel's headline contract)
# ----------------------------------------------------------------------
class TestVerificationEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(automata(name="P"), automata(name="S"))
    def test_reports_byte_identical(self, plant, supervisor):
        symbolic = verify_supervisor(plant, supervisor)
        explicit = explicit_verify_supervisor(plant, supervisor)
        assert symbolic.to_dict() == explicit.to_dict()
        assert symbolic.summary() == explicit.summary()

    @settings(max_examples=80, deadline=None)
    @given(automata(name="P"), automata(name="S"))
    def test_controllability_violations_identical(self, plant, supervisor):
        from repro.automata.verification import check_controllability

        sym_ok, sym_violations = check_controllability(plant, supervisor)
        exp_ok, exp_violations = explicit_check_controllability(
            plant, supervisor
        )
        assert sym_ok == exp_ok
        assert [
            (v.plant_state.name, v.supervisor_state.name, v.event.name, v.trace)
            for v in sym_violations
        ] == [
            (v.plant_state.name, v.supervisor_state.name, v.event.name, v.trace)
            for v in exp_violations
        ]

    def test_violation_traces_replay_on_the_plant(self):
        plant = automaton_from_table(
            "P",
            SIGMA,
            [("P0", "c1", "P1"), ("P1", "u1", "P2"), ("P2", "c1", "P0")],
            initial="P0",
            marked=["P0"],
        )
        supervisor = automaton_from_table(
            "S",
            SIGMA,
            [("S0", "c1", "S1"), ("S1", "c1", "S0")],
            initial="S0",
            marked=["S0"],
        )
        report = verify_supervisor(plant, supervisor)
        assert not report.controllable
        (violation,) = report.violations
        assert violation.event.name == "u1"
        assert violation.trace == ("c1",)
        state = plant.initial
        for event_name in violation.trace:
            state = plant.step(state, event_name)
        assert state == violation.plant_state
        assert plant.step(state, "u1") is not None


# ----------------------------------------------------------------------
# Canonical digests (M007's fingerprint)
# ----------------------------------------------------------------------
class TestCanonicalDigest:
    def test_invariant_under_state_renaming(self):
        a = automaton_from_table(
            "A",
            SIGMA,
            [("X", "c1", "Y"), ("Y", "u1", "X")],
            initial="X",
            marked=["Y"],
        )
        b = automaton_from_table(
            "B",
            SIGMA,
            [("Alpha", "c1", "Beta"), ("Beta", "u1", "Alpha")],
            initial="Alpha",
            marked=["Beta"],
        )
        assert canonical_digest(a) == canonical_digest(b)
        assert languages_equal(a, b)

    def test_sensitive_to_structure(self):
        a = automaton_from_table(
            "A", SIGMA, [("X", "c1", "Y")], initial="X", marked=["Y"]
        )
        b = automaton_from_table(
            "A", SIGMA, [("X", "c2", "Y")], initial="X", marked=["Y"]
        )
        assert canonical_digest(a) != canonical_digest(b)

    def test_unreachable_states_do_not_change_digest(self):
        a = automaton_from_table(
            "A", SIGMA, [("X", "c1", "Y")], initial="X", marked=["Y"]
        )
        b = automaton_from_table(
            "A",
            SIGMA,
            [("X", "c1", "Y"), ("Junk", "c2", "Junk")],
            initial="X",
            marked=["Y"],
        )
        assert canonical_digest(a) == canonical_digest(b)


# ----------------------------------------------------------------------
# Scaled sanity (small but composed, mirrors the benchmark's shape)
# ----------------------------------------------------------------------
def test_counter_plant_equivalence_small():
    from repro.core.scalable import (
        build_scalable_supervisor,
        scalable_alphabet,
        scalable_counter_plant,
    )

    for n_clusters in (2, 4):
        sigma = scalable_alphabet(n_clusters)
        plant = scalable_counter_plant(n_clusters, 3, sigma)
        supervisor = build_scalable_supervisor(n_clusters).supervisor
        symbolic = verify_supervisor(plant, supervisor)
        explicit = explicit_verify_supervisor(plant, supervisor)
        assert symbolic.to_dict() == explicit.to_dict()
        assert symbolic.verified
