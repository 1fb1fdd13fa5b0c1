"""Tests for the bitset reachability kernel (`repro.automata.symbolic`).

The kernel's contract is exact agreement with the explicit-state
toolkit: same reachable/coaccessible sets, same verification verdicts,
same (byte-identical) reports, and shortest counterexample traces that
replay on the original automaton.  Randomized automata exercise the
corners hand-written models miss: unreachable junk, empty alphabets,
missing initial states, self-loops, and uncontrollable escapes.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.automaton import Automaton, automaton_from_table
from repro.automata.events import Alphabet, controllable, uncontrollable
from repro.automata.language import languages_equal
from repro.automata import symbolic, verification
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
    _grid_fits,
    _key_dtype,
    _reachable_product,
    nearest_state,
    reachable_product,
    restrict_states,
    witness_trace,
)
from repro.automata.verification import verify_supervisor
from tests.automata.explicit_oracle import (
    explicit_check_controllability,
    explicit_synchronous_composition,
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
def automata(
    draw, name="rand", max_states=6, with_forbidden=False, sub_alphabet=False
):
    n_states = draw(st.integers(min_value=1, max_value=max_states))
    states = STATE_NAMES[:n_states]
    events = (
        draw(st.lists(st.sampled_from(EVENTS), unique=True))
        if sub_alphabet
        else EVENTS
    )
    automaton = Automaton(name, Alphabet.of(events))
    for state in states:
        automaton.add_state(state)
    automaton.set_initial(states[0])
    n_transitions = draw(st.integers(min_value=0, max_value=14)) if events else 0
    for _ in range(n_transitions):
        source = draw(st.sampled_from(states))
        event = draw(st.sampled_from(events))
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
        assert {a.dtype for a in (*enc.src, *enc.dst)} == {np.dtype(np.int32)}

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
        assert {a.dtype for a in (*sub.src, *sub.dst)} == {np.dtype(np.int32)}


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
        for dense, key in FORMS:
            with pytest.raises(ValueError, match="semantics"):
                _reachable_product(enc, enc, "cross", dense, key)

    def test_nondeterministic_encoding_rejected(self):
        # Two c1 edges leave one state: a successor table can hold only
        # one, so every found-pair form and key dtype of the builder
        # must refuse rather than keep the last, on either side of the
        # product -- also when a hand-built src breaks the sorted order
        # the encoder guarantees.
        def hand(src, dst):
            return EncodedAutomaton(
                name="hand",
                n_states=3,
                event_names=("c1",),
                event_controllable=np.array([True]),
                src=(np.array(src),),
                dst=(np.array(dst),),
                initial=0,
                marked=np.zeros(3, dtype=bool),
                forbidden=np.zeros(3, dtype=bool),
            )

        other = encode_automaton(
            automaton_from_table("M", SIGMA, [("A", "c1", "B")], initial="A")
        )
        for enc in (hand([0, 0], [1, 2]), hand([0, 1, 0], [1, 2, 2])):
            with pytest.raises(ValueError, match="not deterministic"):
                reachable_product(other, enc)
            for dense, key in FORMS:
                for left, right in ((other, enc), (enc, other)):
                    with pytest.raises(ValueError, match="not deterministic"):
                        _reachable_product(left, right, "synchronous", dense, key)
        # Unsorted but deterministic: one edge per source, so every
        # form builds the product, which walks 0 -> 2 -> 1 -> 0.
        unsorted = hand([2, 0, 1], [1, 2, 0])
        for dense, key in FORMS:
            loop = _reachable_product(
                unsorted, unsorted, "synchronous", dense, key
            ).product
            assert loop.n_states == 3
            assert forward_reachable(loop).all()


SEMANTICS = ("synchronous", "synthesis", "controllability")
# Every (dense, key dtype) form the product builder can take.
FORMS = [(dense, key) for dense in (True, False) for key in (np.int32, np.int64)]


def _encoding_bytes(pair):
    """A product encoding as comparable data: its scalars plus the
    dtype, shape and bytes of every array; the pair keys as int64, so
    encodings built on either key dtype compare."""
    product = pair.product
    arrays = (
        pair.pairs.astype(np.int64),
        product.event_controllable,
        product.marked,
        product.forbidden,
        *product.src,
        *product.dst,
    )
    return (
        product.name,
        product.n_states,
        product.event_names,
        product.initial,
        product.state_names,
        product.enabled,
        [(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
    )


def _assert_forms_agree(left, right, semantics):
    """Builds the product in every form; all must agree byte for byte,
    with int32 transition arrays and pair keys in the requested dtype."""
    pairs = [
        _reachable_product(left, right, semantics, dense, key)
        for dense, key in FORMS
    ]
    for pair, (_, key) in zip(pairs, FORMS):
        assert pair.pairs.dtype == key
        product = pair.product
        assert all(a.dtype == np.int32 for a in (*product.src, *product.dst))
        assert _encoding_bytes(pair) == _encoding_bytes(pairs[0])
    return pairs[0]


def _ring(name, n_states, moves):
    """A deterministic ring of ``n_states`` states; ``moves`` maps an
    event name to the step it takes around the ring."""
    names = [f"{name}{k:02d}" for k in range(n_states)]
    table = [
        (names[k], event, names[(k + step) % n_states])
        for event, step in moves.items()
        for k in range(n_states)
    ]
    return encode_automaton(
        automaton_from_table(
            name, SIGMA, table, initial=names[0], marked=names[::2]
        )
    )


@pytest.fixture
def forms(monkeypatch):
    """Records ``(left, right, dense, key)`` for every product built."""
    built = []
    build = symbolic._reachable_product

    def spy(left, right, semantics, dense, key):
        built.append((left, right, dense, key))
        return build(left, right, semantics, dense, key)

    monkeypatch.setattr(symbolic, "_reachable_product", spy)
    return built


def _table_cells(enc):
    return enc.n_events * enc.n_states


class TestPairForms:
    """The bool-grid and sorted-key forms of the found-pair set, on
    int32 or int64 keys, give byte-identical encodings; the size rules
    only pick between them."""

    @settings(max_examples=120, deadline=None)
    @given(
        automata(name="L", with_forbidden=True, sub_alphabet=True),
        automata(name="R", with_forbidden=True, sub_alphabet=True),
        st.sampled_from(SEMANTICS),
        st.sampled_from([None, "left", "right"]),
    )
    def test_forms_byte_identical(self, left, right, semantics, no_initial):
        left, right = encode_automaton(left), encode_automaton(right)
        if no_initial == "left":
            left = replace(left, initial=-1)
        elif no_initial == "right":
            right = replace(right, initial=-1)
        pair = _assert_forms_agree(left, right, semantics)
        if no_initial is not None:
            assert pair.product.initial == -1
            assert pair.product.n_states == 0

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_zero_state_factor(self, semantics):
        empty = encode_automaton(Automaton("E", SIGMA))
        other = _ring("M", 3, {"c1": 1, "u1": 2})
        assert empty.n_states == 0 and empty.initial == -1
        for left, right in ((empty, other), (other, empty)):
            assert _grid_fits(left, right)
            pair = _assert_forms_agree(left, right, semantics)
            assert pair.product.n_states == 0
            assert pair.product.initial == -1

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_size_rule_boundary(self, semantics, forms):
        # 6 x 12 pair cells against 4 * 6 + 4 * 12 successor-table
        # cells: equal, so the grid is allowed; one more right state
        # (78 against 76) tips the product onto the sorted keys.
        left = _ring("L", 6, {"c1": 1, "u1": 3})
        at_bound = _ring("R", 12, {"c1": 5, "c2": 1, "u2": 4})
        past_bound = _ring("R", 13, {"c1": 5, "c2": 1, "u2": 4})
        assert left.n_states * at_bound.n_states == _table_cells(
            left
        ) + _table_cells(at_bound)
        assert _grid_fits(left, at_bound)
        assert not _grid_fits(left, past_bound)
        for right in (at_bound, past_bound):
            chosen = reachable_product(left, right, semantics)
            assert _encoding_bytes(chosen) == _encoding_bytes(
                _assert_forms_agree(left, right, semantics)
            )
            assert chosen.product.n_states > 1
        assert [dense for _, _, dense, _ in forms] == [True, False]
        assert [key for *_, key in forms] == [np.int32, np.int32]

    def test_key_rule_boundary(self):
        # int32 keys exactly while two table entries (two disabled
        # sentinels at worst) sum without overflow:
        # 2 * (n_left * n_right + 1) < 2**31.
        def sized(n_states):
            return SimpleNamespace(n_states=n_states)

        assert 466 * 2_304_167 == 2**30 - 2
        assert 3 * 357_913_941 == 2**30 - 1
        assert _key_dtype(sized(466), sized(2_304_167)) is np.int32
        assert _key_dtype(sized(3), sized(357_913_941)) is np.int64
        assert _key_dtype(sized(0), sized(0)) is np.int32

    def test_state_count_limit(self):
        def sized(n_states):
            return EncodedAutomaton(
                name="huge",
                n_states=n_states,
                event_names=(),
                event_controllable=np.zeros(0, dtype=bool),
                src=(),
                dst=(),
                initial=-1,
                marked=np.zeros(0, dtype=bool),
                forbidden=np.zeros(0, dtype=bool),
            )

        assert sized(2**31 - 1).n_states == 2**31 - 1
        with pytest.raises(ValueError, match="at most 2147483647"):
            sized(2**31)

    def test_int64_keys_past_the_int32_key_space(self, forms):
        # Two 50,000-state factors: 2.5e9 pair keys overflow int32 and
        # the cross product dwarfs the successor tables, so every
        # product takes int64 sorted keys -- yet only a handful of
        # pairs is reachable, and each result must match the explicit
        # oracle.  The states past the core are unreachable, a few of
        # them with edges.
        from repro.automata.verification import check_controllability
        from tests.automata.test_symbolic_synthesis import assert_engines_agree

        n = 50_000

        def factor(name, core, marked):
            names = [f"{name}{k:05d}" for k in range(n)]
            automaton = Automaton(name, SIGMA)
            for state in names:
                automaton.add_state(state)
            junk = [(k, "c1", k + 1) for k in range(4, n - 1, 97)]
            junk += [(k, "u1", 4) for k in range(5, n, 1009)]
            for a, event, b in core + junk:
                automaton.add_transition(names[a], event, names[b])
            automaton.set_initial(names[0])
            for k in marked:
                automaton.mark(names[k])
            return automaton

        plant = factor(
            "P",
            [(0, "c1", 1), (1, "u1", 2), (2, "c2", 0), (1, "u2", 3),
             (3, "c1", 0), (2, "u2", 2)],
            marked=[0, 3],
        )
        spec = factor(
            "S",
            [(0, "c1", 1), (1, "u1", 0), (1, "c2", 2), (2, "u2", 0)],
            marked=[0, 2],
        )
        left, right = encode_automaton(plant), encode_automaton(spec)
        assert left.n_states * right.n_states > 2**31
        assert _key_dtype(left, right) is np.int64
        assert not _grid_fits(left, right)

        composed = explicit_synchronous_composition(plant, spec)
        pair = reachable_product(left, right)
        assert pair.pairs.dtype == np.int64
        assert all(a.dtype == np.int32 for a in pair.product.src)
        assert all(a.dtype == np.int32 for a in pair.product.dst)
        assert {pair.pair_label(k) for k in range(pair.product.n_states)} == {
            state.name for state in composed.states
        }
        assert {
            (
                pair.pair_label(int(a)),
                pair.product.event_names[e],
                pair.pair_label(int(b)),
            )
            for e in range(pair.product.n_events)
            for a, b in zip(pair.product.src[e], pair.product.dst[e])
        } == {
            (t.source.name, t.event.name, t.target.name)
            for t in composed.transitions
        }
        assert {
            pair.pair_label(int(k)) for k in np.flatnonzero(pair.product.marked)
        } == {state.name for state in composed.marked}
        assert_engines_agree(plant, spec)
        sym_ok, sym_violations = check_controllability(plant, spec)
        exp_ok, exp_violations = explicit_check_controllability(plant, spec)
        assert not sym_ok and sym_ok == exp_ok
        assert [(str(v), v.trace) for v in sym_violations] == [
            (str(v), v.trace) for v in exp_violations
        ]
        # One product per semantics, each on int64 sorted keys.
        assert [(dense, key) for *_, dense, key in forms] == [(False, np.int64)] * 3


class TestProductSize:
    """Products must stay the size of their reachable part, never grow
    back to the ``left.n_states * right.n_states`` cross product."""

    def test_scalable_closed_loop_is_supervisor_sized(self, monkeypatch, forms):
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
        del forms[:]  # keep only the products verification builds
        assert verification.verify_supervisor(plant, supervisor).verified
        closed_loop = built[0]
        assert closed_loop.product.name == f"{plant.name}||{supervisor.name}"
        assert len(supervisor) == 1620
        assert closed_loop.product.n_states == len(supervisor)
        # 2,268 x 1,620 pair cells would dwarf both successor tables:
        # every plant x supervisor product keeps the sorted keys.
        assert not _grid_fits(closed_loop.left, closed_loop.right)
        assert [dense for _, _, dense, _ in forms] == [False] * len(built)

    def test_grid_never_exceeds_the_successor_tables(self, forms):
        from repro.automata.symbolic_synthesis import encode_composition
        from repro.core.scalable import (
            build_scalable_supervisor,
            scalable_alphabet,
            scalable_counter_plant,
            scalable_plant_components,
            scalable_specification,
        )
        from repro.automata.synthesis import synthesize_supervisor

        sigma = scalable_alphabet(3)
        encode_composition(scalable_plant_components(3, 3, sigma))
        plant = scalable_counter_plant(3, 3, sigma)
        synthesize_supervisor(plant, scalable_specification(3, sigma))
        verify_supervisor(plant, build_scalable_supervisor(3).supervisor)
        assert {dense for _, _, dense, _ in forms} == {True, False}
        for left, right, dense, _ in forms:
            cells = left.n_states * right.n_states
            tables = _table_cells(left) + _table_cells(right)
            assert dense == (cells <= tables), (left.name, right.name)

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
        for kept in (tree.parent_state, tree.parent_event, tree.depth):
            assert kept.dtype == np.int32
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
