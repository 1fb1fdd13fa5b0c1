"""Equivalence gate: symbolic synthesis == explicit synthesis.

The symbolic engine is only allowed to exist because it is
indistinguishable from the explicit oracle — not merely up to
isomorphism, but field-for-field: same supervisor automaton (states,
transitions, marking, initial), same ``removed_uncontrollable`` /
``removed_blocking`` attribution, same round count, same ``state_map``.
This suite asserts exactly that on every committed model, on
hypothesis-generated plant/spec pairs (including spec-private events,
forbidden states, empty supervisors), and on the degenerate edges both
engines must reject identically.

It also gates how much work the fixpoint does: a round skips its trim
when the extension pass removed nothing since the last trim (trim is
idempotent), so ``forward_reachable`` and ``backward_reachable`` each
run ``max(1, iterations - 1)`` times per fixpoint — a count, not a
timing.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.automata import (
    SynthesisError,
    automaton_to_dict,
    canonical_digest,
    compose_all,
    encode_automaton,
    encode_composition,
    supremal_fixpoint,
    synthesize_supervisor,
)
from repro.automata import symbolic_synthesis
from repro.automata.automaton import Automaton
from repro.automata.events import Alphabet, controllable, uncontrollable
from repro.core.plant_model import case_study_plant
from repro.core.scalable import (
    fleet_alphabet,
    fleet_counter_plant,
    fleet_plant_components,
    fleet_specification,
    scalable_alphabet,
    scalable_counter_plant,
    scalable_plant_components,
    scalable_specification,
)
from repro.core.specification import case_study_specification
from tests.automata.explicit_oracle import explicit_synthesize_supervisor

PLANT_EVENTS = [
    controllable("c1"),
    controllable("c2"),
    uncontrollable("u1"),
    uncontrollable("u2"),
]
# Events only the specification knows: constraints the plant cannot
# execute, which the synthesis product must silence, never interleave.
SPEC_PRIVATE = [controllable("sc"), uncontrollable("su")]


def assert_engines_agree(plant, spec):
    explicit = explicit_synthesize_supervisor(plant, spec)
    symbolic = synthesize_supervisor(plant, spec)
    assert symbolic.supervisor.name == explicit.supervisor.name
    assert symbolic.supervisor.states == explicit.supervisor.states
    assert symbolic.supervisor.transitions == explicit.supervisor.transitions
    assert symbolic.supervisor.marked == explicit.supervisor.marked
    assert symbolic.supervisor.forbidden == explicit.supervisor.forbidden
    assert symbolic.supervisor.has_initial == explicit.supervisor.has_initial
    if explicit.supervisor.has_initial:
        assert symbolic.supervisor.initial == explicit.supervisor.initial
    assert (
        symbolic.removed_uncontrollable == explicit.removed_uncontrollable
    )
    assert symbolic.removed_blocking == explicit.removed_blocking
    assert symbolic.iterations == explicit.iterations
    assert symbolic.state_map == explicit.state_map
    assert symbolic.is_empty == explicit.is_empty
    # Identical named serialization implies identical marked language;
    # the canonical digest additionally pins the isomorphism gate.
    assert automaton_to_dict(symbolic.supervisor) == automaton_to_dict(
        explicit.supervisor
    )
    assert canonical_digest(symbolic.supervisor) == canonical_digest(
        explicit.supervisor
    )
    # The decoded out-edge index must match what add_transition builds.
    for state in explicit.supervisor.states:
        assert symbolic.supervisor.enabled_events(
            state
        ) == explicit.supervisor.enabled_events(state)
    return symbolic


@contextmanager
def counted_trims():
    """Count the fixpoint's ``forward_reachable`` and
    ``backward_reachable`` calls while the block runs."""
    counts = {"forward_reachable": 0, "backward_reachable": 0}

    def counting(name):
        original = getattr(symbolic_synthesis, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    with mock.patch.object(
        symbolic_synthesis, "forward_reachable", counting("forward_reachable")
    ), mock.patch.object(
        symbolic_synthesis, "backward_reachable", counting("backward_reachable")
    ):
        yield counts


def assert_trim_count(counts, iterations):
    """Every round but the last trims; the last (or only) round's
    trim is skipped unless it is also the first."""
    expected = max(1, iterations - 1)
    assert counts == {
        "forward_reachable": expected,
        "backward_reachable": expected,
    }


def counted_fixpoint(plant, spec):
    with counted_trims() as counts:
        fixpoint = supremal_fixpoint(plant, spec)
    assert_trim_count(counts, fixpoint.iterations)
    return fixpoint


@st.composite
def des_automata(draw, name, events, max_states=5, max_forbidden=2, min_marked=0):
    n_states = draw(st.integers(min_value=1, max_value=max_states))
    states = [f"{name}{i}" for i in range(n_states)]
    automaton = Automaton(name, Alphabet.of(events))
    for state in states:
        automaton.add_state(state)
    automaton.set_initial(states[0])
    if events:
        n_transitions = draw(st.integers(min_value=0, max_value=12))
        for _ in range(n_transitions):
            source = draw(st.sampled_from(states))
            event = draw(st.sampled_from(events))
            target = draw(st.sampled_from(states))
            if automaton.step(source, event) is None:
                automaton.add_transition(source, event, target)
    for state in draw(
        st.lists(
            st.sampled_from(states),
            min_size=min_marked,
            max_size=n_states,
            unique=True,
        )
    ):
        automaton.mark(state)
    for state in draw(
        st.lists(st.sampled_from(states), max_size=max_forbidden, unique=True)
    ):
        automaton.forbid(state)
    return automaton


@st.composite
def synthesis_pairs(draw):
    plant = draw(des_automata("P", PLANT_EVENTS))
    shared = draw(
        st.lists(st.sampled_from(PLANT_EVENTS), max_size=4, unique=True)
    )
    private = draw(
        st.lists(st.sampled_from(SPEC_PRIVATE), max_size=2, unique=True)
    )
    spec = draw(des_automata("S", shared + private, max_states=4))
    return plant, spec


@st.composite
def fold_problems(draw):
    """2-3 deterministic components over random subsets of the plant
    events, plus a spec over some of their events and spec-private
    ones."""
    n_components = draw(st.integers(min_value=2, max_value=3))
    components = []
    for name in "ABC"[:n_components]:
        events = draw(
            st.lists(
                st.sampled_from(PLANT_EVENTS), min_size=1, max_size=4, unique=True
            )
        )
        components.append(
            draw(
                des_automata(
                    name, events, max_states=3, max_forbidden=1, min_marked=1
                )
            )
        )
    plant_events = {event.name for c in components for event in c.alphabet}
    shared = draw(
        st.lists(
            st.sampled_from(
                [e for e in PLANT_EVENTS if e.name in plant_events]
            ),
            max_size=4,
            unique=True,
        )
    )
    private = draw(
        st.lists(st.sampled_from(SPEC_PRIVATE), max_size=1, unique=True)
    )
    spec = draw(
        des_automata(
            "S", shared + private, max_states=4, max_forbidden=1, min_marked=1
        )
    )
    return components, spec


class TestHypothesisEquivalence:
    @given(synthesis_pairs())
    @settings(max_examples=120, deadline=None)
    def test_engines_agree_on_random_pairs(self, pair):
        plant, spec = pair
        assert_engines_agree(plant, spec)

    @given(des_automata("P", PLANT_EVENTS))
    @settings(max_examples=60, deadline=None)
    def test_plant_as_its_own_spec(self, plant):
        # supC(P, P) — every event shared, heavy synchronization.
        spec = plant.relabel(lambda s: s.name.replace("P", "S"), name="S")
        assert_engines_agree(plant, spec)


class TestCommittedModels:
    def test_case_study(self):
        result = assert_engines_agree(
            case_study_plant(), case_study_specification()
        )
        assert not result.is_empty

    def test_scalable_counter_models(self):
        for n_clusters, levels in [(1, 2), (2, 3), (4, 3)]:
            sigma = scalable_alphabet(n_clusters)
            result = assert_engines_agree(
                scalable_counter_plant(n_clusters, levels, sigma),
                scalable_specification(n_clusters, sigma),
            )
            assert not result.is_empty

    def test_fleet_models(self):
        sigma = fleet_alphabet(2)
        result = assert_engines_agree(
            fleet_counter_plant(2, 2, sigma),
            fleet_specification(2, sigma),
        )
        assert not result.is_empty
        # The fleet spec actually bites: uncontrollable escapes pruned.
        assert result.removed_uncontrollable

    def test_machine_breakdown(self):
        sigma = Alphabet.of(
            [
                controllable("start"),
                uncontrollable("finish"),
                uncontrollable("break"),
                controllable("repair"),
            ]
        )
        plant = Automaton("machine", sigma, initial="Idle")
        plant.add_transition("Idle", "start", "Working")
        plant.add_transition("Working", "finish", "Idle")
        plant.add_transition("Working", "break", "Down")
        plant.add_transition("Down", "repair", "Idle")
        plant.mark("Idle")
        spec = Automaton(
            "never-break", Alphabet.of([sigma["break"]]), initial="Ok"
        )
        spec.add_state("Ok", marked=True)
        result = assert_engines_agree(plant, spec)
        # 'break' is uncontrollable, so Working.Ok falls to the
        # extension pass; the supremal answer disables controllable
        # 'start' and idles forever in the marked initial state.
        assert not result.is_empty
        assert len(result.supervisor) == 1
        assert result.supervisor.n_transitions == 0
        assert {s.name for s in result.removed_uncontrollable} == {
            "Working.Ok"
        }


class TestEdgeCases:
    def _machine(self):
        sigma = Alphabet.of([controllable("go"), uncontrollable("fail")])
        plant = Automaton("plant", sigma, initial="A")
        plant.add_transition("A", "go", "B")
        plant.mark("B")
        return sigma, plant

    def test_missing_plant_initial_raises_in_both_engines(self):
        sigma, plant = self._machine()
        headless = Automaton("headless", sigma)
        headless.add_state("A", marked=True)
        spec = Automaton("spec", sigma, initial="S")
        spec.mark("S")
        for synthesize in (synthesize_supervisor, explicit_synthesize_supervisor):
            with pytest.raises(SynthesisError):
                synthesize(headless, spec)

    def test_missing_spec_initial_raises_in_both_engines(self):
        sigma, plant = self._machine()
        spec = Automaton("spec", sigma)
        spec.add_state("S", marked=True)
        for synthesize in (synthesize_supervisor, explicit_synthesize_supervisor):
            with pytest.raises(SynthesisError):
                synthesize(plant, spec)

    def test_forbidden_initial_yields_empty_supervisor(self):
        sigma, plant = self._machine()
        plant.forbid("A")
        spec = Automaton("spec", sigma, initial="S")
        spec.mark("S")
        result = assert_engines_agree(plant, spec)
        assert result.is_empty

    def test_no_marked_states_yields_empty_supervisor(self):
        sigma = Alphabet.of([controllable("go")])
        plant = Automaton("plant", sigma, initial="A")
        plant.add_transition("A", "go", "B")
        spec = Automaton("spec", sigma, initial="S")
        spec.add_transition("S", "go", "S")
        result = assert_engines_agree(plant, spec)
        assert result.is_empty
        assert result.removed_blocking  # everything reachable blocks

    def test_spec_private_events_never_fire(self):
        sigma, plant = self._machine()
        spec_sigma = Alphabet.of(
            [sigma["go"], controllable("specOnly")]
        )
        spec = Automaton("spec", spec_sigma, initial="S0")
        spec.add_transition("S0", "go", "S1")
        spec.add_transition("S0", "specOnly", "SDead")
        spec.mark("S1")
        result = assert_engines_agree(plant, spec)
        assert not result.is_empty
        event_names = {
            t.event.name for t in result.supervisor.transitions
        }
        assert "specOnly" not in event_names


class TestEncodedFoldPath:
    def test_fold_matches_explicit_composition(self):
        # The scale path (encode_composition + supremal_fixpoint on the
        # encoding) must agree with decoding from the explicitly
        # composed plant on every aggregate number.
        sigma = scalable_alphabet(2)
        components = scalable_plant_components(2, 3, sigma)
        spec = scalable_specification(2, sigma)
        folded = supremal_fixpoint(
            encode_composition(components), encode_automaton(spec)
        )
        reference = synthesize_supervisor(
            scalable_counter_plant(2, 3, sigma), spec
        )
        assert folded.n_supervisor_states == len(reference.supervisor)
        assert int(folded.removed_uncontrollable.sum()) == len(
            reference.removed_uncontrollable
        )
        assert int(folded.removed_blocking.sum()) == len(
            reference.removed_blocking
        )
        assert folded.iterations == reference.iterations
        assert folded.is_empty == reference.is_empty

    def test_fleet_fold_matches_explicit_composition(self):
        sigma = fleet_alphabet(2)
        folded = supremal_fixpoint(
            encode_composition(fleet_plant_components(2, 2, sigma)),
            encode_automaton(fleet_specification(2, sigma)),
        )
        reference = synthesize_supervisor(
            fleet_counter_plant(2, 2, sigma), fleet_specification(2, sigma)
        )
        assert folded.n_supervisor_states == len(reference.supervisor)
        assert folded.iterations == reference.iterations

    def test_empty_components_rejected(self):
        with pytest.raises(SynthesisError):
            encode_composition([])

    @given(fold_problems())
    @settings(max_examples=80, deadline=None)
    def test_random_fold_matches_explicit_composition(self, problem):
        # Folding the reachable product over random components (shared
        # and private events, forbidden states) must synthesize what
        # the explicit oracle synthesizes from the composed plant.
        components, spec = problem
        folded = supremal_fixpoint(
            encode_composition(components), encode_automaton(spec)
        )
        reference = explicit_synthesize_supervisor(compose_all(components), spec)
        assert folded.n_supervisor_states == len(reference.supervisor)
        assert folded.iterations == reference.iterations
        assert int(folded.removed_uncontrollable.sum()) == len(
            reference.removed_uncontrollable
        )
        assert int(folded.removed_blocking.sum()) == len(
            reference.removed_blocking
        )
        assert folded.is_empty == reference.is_empty


class TestTrimPassCount:
    """A round trims only when the extension pass changed the restricted
    product since the last trim; the round still counts."""

    def test_case_study(self):
        fixpoint = counted_fixpoint(
            encode_automaton(case_study_plant()),
            encode_automaton(case_study_specification()),
        )
        assert not fixpoint.is_empty

    @pytest.mark.parametrize(
        "model, clusters, levels, states",
        [
            (
                (fleet_alphabet, fleet_plant_components, fleet_specification),
                3,
                2,
                800,
            ),
            (
                (
                    scalable_alphabet,
                    scalable_plant_components,
                    scalable_specification,
                ),
                4,
                3,
                1620,
            ),
        ],
        ids=["fleet3x2", "scalable4x3"],
    )
    def test_composed_models(self, model, clusters, levels, states):
        alphabet, components, specification = model
        sigma = alphabet(clusters)
        fixpoint = counted_fixpoint(
            encode_automaton(compose_all(components(clusters, levels, sigma))),
            encode_automaton(specification(clusters, sigma)),
        )
        assert fixpoint.n_supervisor_states == states

    def test_folded_scalable_7x3(self):
        sigma = scalable_alphabet(7)
        fixpoint = counted_fixpoint(
            encode_composition(scalable_plant_components(7, 3, sigma)),
            encode_automaton(scalable_specification(7, sigma)),
        )
        assert fixpoint.n_supervisor_states == 43_740

    @given(fold_problems())
    @settings(max_examples=80, deadline=None)
    def test_random_folds(self, problem):
        components, spec = problem
        counted_fixpoint(encode_composition(components), encode_automaton(spec))

    def test_trim_reruns_after_an_escape(self):
        # A chain where each removal exposes the next: round 1 trims the
        # dead end T1; round 2's extension pass drops E1 (its
        # uncontrollable u1 led to T1), which strands T2, so round 2
        # must trim again; round 3 drops E2 (u2 led to T2); round 4
        # changes nothing.  Skipping any trim but the last would keep
        # T2 and E2.
        sigma = Alphabet.of(
            [
                controllable("c1"),
                controllable("c2"),
                controllable("c3"),
                controllable("c4"),
                controllable("c5"),
                uncontrollable("u1"),
                uncontrollable("u2"),
            ]
        )
        plant = Automaton("chain", sigma, initial="I")
        plant.mark("I")
        plant.add_transition("I", "c1", "T2")
        plant.add_transition("T2", "c2", "E1")
        plant.add_transition("E1", "u1", "T1")
        plant.add_transition("E1", "c3", "I")
        plant.add_transition("I", "c4", "E2")
        plant.add_transition("E2", "u2", "T2")
        plant.add_transition("E2", "c5", "I")
        spec = Automaton("any", Alphabet.of([sigma["c1"]]), initial="S")
        spec.add_transition("S", "c1", "S")
        spec.mark("S")
        with counted_trims() as counts:
            result = assert_engines_agree(plant, spec)
        assert result.iterations == 4
        assert_trim_count(counts, result.iterations)
        assert {s.name for s in result.removed_blocking} == {"T1.S", "T2.S"}
        assert {s.name for s in result.removed_uncontrollable} == {
            "E1.S",
            "E2.S",
        }
        assert {s.name for s in result.supervisor.states} == {"I.S"}


class TestEncodeMemo:
    def _plant(self):
        sigma = Alphabet.of([controllable("go"), uncontrollable("fail")])
        plant = Automaton("plant", sigma, initial="A")
        plant.add_transition("A", "go", "B")
        plant.mark("B")
        return plant

    def test_repeated_encoding_is_memoized(self):
        plant = self._plant()
        assert encode_automaton(plant) is encode_automaton(plant)

    def test_new_transition_invalidates(self):
        plant = self._plant()
        first = encode_automaton(plant)
        plant.add_transition("B", "fail", "A")
        second = encode_automaton(plant)
        assert second is not first
        assert second.n_transitions == first.n_transitions + 1

    def test_marking_invalidates(self):
        plant = self._plant()
        first = encode_automaton(plant)
        plant.mark("A")
        second = encode_automaton(plant)
        assert second is not first
        assert int(second.marked.sum()) == int(first.marked.sum()) + 1

    def test_moved_initial_invalidates(self):
        plant = self._plant()
        first = encode_automaton(plant)
        plant.set_initial("B")
        second = encode_automaton(plant)
        assert second is not first
        assert second.initial != first.initial

    def test_copies_get_their_own_encoding(self):
        plant = self._plant()
        clone = plant.copy()
        assert encode_automaton(plant) is not encode_automaton(clone)
