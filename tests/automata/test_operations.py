"""Tests for synchronous composition and reachability operators."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.automata.automaton import (
    Automaton,
    AutomatonError,
    State,
    automaton_from_table,
)
from repro.automata.events import (
    Alphabet,
    AlphabetError,
    controllable,
    uncontrollable,
)
from repro.automata.operations import (
    accessible,
    accessible_states,
    blocking_states,
    coaccessible,
    coaccessible_states,
    compose_all,
    is_nonblocking,
    synchronous_composition,
    trim,
)
from repro.core.alphabet import case_study_alphabet
from repro.core.plant_model import (
    gain_mode_plant,
    power_capping_plant,
    qos_tracking_plant,
)
from repro.core.scalable import (
    fleet_alphabet,
    fleet_plant_components,
    scalable_alphabet,
    scalable_plant_components,
)
from repro.core.specification import budget_lock_spec, three_band_spec
from tests.automata.explicit_oracle import (
    explicit_compose_all,
    explicit_synchronous_composition,
)

SHARED = controllable("shared")
PRIV_A = controllable("privA")
PRIV_B = uncontrollable("privB")
SIGMA_A = Alphabet.of([SHARED, PRIV_A])
SIGMA_B = Alphabet.of([SHARED, PRIV_B])


def automaton_a():
    return automaton_from_table(
        "A",
        SIGMA_A,
        transitions=[("A0", "shared", "A1"), ("A0", "privA", "A0")],
        initial="A0",
        marked=["A1"],
    )


def automaton_b():
    return automaton_from_table(
        "B",
        SIGMA_B,
        transitions=[("B0", "shared", "B1"), ("B1", "privB", "B0")],
        initial="B0",
        marked=["B1"],
    )


class TestSynchronousComposition:
    def test_shared_events_synchronize(self):
        c = synchronous_composition(automaton_a(), automaton_b())
        # shared can only fire when both enable it
        assert c.step("A0.B0", "shared") == State("A1.B1")
        # after A has moved, B hasn't enabled shared so it's disabled
        assert c.step("A1.B1", "shared") is None

    def test_private_events_interleave(self):
        c = synchronous_composition(automaton_a(), automaton_b())
        assert c.step("A0.B0", "privA") == State("A0.B0")
        # privB is only enabled where B enables it
        assert c.step("A0.B0", "privB") is None
        assert c.step("A1.B1", "privB") == State("A1.B0")

    def test_marking_is_conjunction(self):
        c = synchronous_composition(automaton_a(), automaton_b())
        assert c.is_marked("A1.B1")
        assert not c.is_marked("A0.B0")
        assert not c.is_marked("A1.B0")

    def test_forbidden_is_disjunction(self):
        a = automaton_a()
        a.forbid("A1")
        c = synchronous_composition(a, automaton_b())
        assert c.is_forbidden("A1.B1")
        assert not c.is_forbidden("A0.B0")

    def test_only_reachable_part_constructed(self):
        a = automaton_a()
        a.add_state("unreachable", marked=True)
        c = synchronous_composition(a, automaton_b())
        assert all("unreachable" not in s.name for s in c.states)

    def test_alphabet_is_union(self):
        c = synchronous_composition(automaton_a(), automaton_b())
        assert c.alphabet.names() == {"shared", "privA", "privB"}

    def test_composition_with_self_preserves_language_shape(self):
        a = automaton_a()
        c = synchronous_composition(a, automaton_a())
        assert c.accepts(["shared"])
        assert not c.accepts(["privA"])

    def test_word_acceptance_semantics(self):
        c = synchronous_composition(automaton_a(), automaton_b())
        assert c.accepts(["privA", "shared"])
        assert not c.accepts(["privA"])

    def test_compose_all_three(self):
        extra = automaton_from_table(
            "C",
            Alphabet.of([SHARED]),
            transitions=[("C0", "shared", "C1")],
            initial="C0",
            marked=["C1"],
        )
        c = compose_all([automaton_a(), automaton_b(), extra], name="trio")
        assert c.name == "trio"
        assert c.step("A0.B0.C0", "shared") == State("A1.B1.C1")

    def test_compose_all_empty_rejected(self):
        with pytest.raises(AutomatonError):
            compose_all([])

    def test_compose_all_single(self):
        a = automaton_a()
        assert compose_all([a]) is a

    def test_compose_all_single_named_leaves_input_alone(self):
        a = automaton_a()
        a.forbid("A1")
        named = compose_all([a], name="X")
        assert named is not a
        assert named.name == "X"
        assert a.name == "A"
        assert list(named.alphabet._events.items()) == list(
            a.alphabet._events.items()
        )
        for table in ("_states", "_delta", "_enabled"):
            assert list(getattr(named, table).items()) == list(
                getattr(a, table).items()
            )
        assert named._marked == a._marked
        assert named._forbidden == a._forbidden == {State("A1")}
        assert named.initial == a.initial

    def test_alphabet_conflict_rejected(self):
        clash = automaton_from_table(
            "C",
            Alphabet.of([uncontrollable("shared")]),
            transitions=[("C0", "shared", "C0")],
            initial="C0",
        )
        with pytest.raises(AlphabetError):
            synchronous_composition(automaton_a(), clash)


def assert_same_automaton(fast: Automaton, oracle: Automaton, order) -> None:
    """Equal content, and ``compose_all``'s insertion order: states in
    ``order`` (the labels in ascending packed-key order, which is the
    encoding's index order), transitions grouped by event in alphabet
    order with their sources in ``order``, out-edge sets in ``order``."""
    assert fast.name == oracle.name
    assert list(fast.alphabet._events.items()) == list(
        oracle.alphabet._events.items()
    )
    assert fast._states == oracle._states
    assert list(fast._states) == list(order)
    rank = {label: k for k, label in enumerate(order)}
    assert fast._delta == oracle._delta
    assert list(fast._delta) == sorted(
        oracle._delta, key=lambda key: (key[1].name, rank[key[0].name])
    )
    assert fast._enabled == oracle._enabled
    assert [state.name for state in fast._enabled] == sorted(
        (state.name for state in oracle._enabled), key=rank.__getitem__
    )
    assert fast._marked == oracle._marked
    assert fast._forbidden == oracle._forbidden
    assert fast.initial == oracle.initial


def key_order(composed: Automaton) -> list[str]:
    """``composed``'s labels in packed-key order, for factors whose state
    names hold no dot: lexicographic in the factor state names."""
    return sorted(composed._states, key=lambda label: label.split("."))


def reachable_pairs(a: Automaton, b: Automaton) -> list[tuple[State, State]]:
    """The factor-state pairs of ``a || b`` reachable from the initial
    pair, by a search of their own, in packed-key order (ascending
    factor state names)."""
    events = a.alphabet.union(b.alphabet).names()
    start = (a.initial, b.initial)
    seen = {start}
    frontier = [start]
    while frontier:
        state_a, state_b = frontier.pop()
        for event in events:
            next_a = a.step(state_a, event) if event in a.alphabet else state_a
            next_b = b.step(state_b, event) if event in b.alphabet else state_b
            if next_a is not None and next_b is not None:
                if (next_a, next_b) not in seen:
                    seen.add((next_a, next_b))
                    frontier.append((next_a, next_b))
    return sorted(seen)


def collision_message(name: str, pairs) -> str | None:
    """``compose_all``'s error for the first pair (in ``pairs``' order)
    whose dotted label an earlier pair already has; ``None`` when the
    labels are distinct."""
    first: dict[str, tuple[str, str]] = {}
    for state_a, state_b in pairs:
        names = (state_a.name, state_b.name)
        label = ".".join(names)
        if label in first:
            return (
                f"state label collision in {name!r}: factor states "
                f"{first[label]} and {names} both compose to {label!r}"
            )
        first[label] = names
    return None


SHARED_EVENTS = [controllable("s1"), uncontrollable("s2")]
PRIVATE_LEFT = [controllable("l1"), uncontrollable("l2")]
PRIVATE_RIGHT = [controllable("r1"), uncontrollable("r2")]
# Dotted names let two different pairs compose to the same label.
DOTTED_NAMES = ["x", "y", "z", "x.y", "y.z"]
# Pools where (x, y.z) and (x.y, z) collide whenever both are reachable.
COLLIDING_LEFT = ["x", "x.y"]
COLLIDING_RIGHT = ["z", "y.z"]


@st.composite
def factors(draw, name, private, pool=DOTTED_NAMES):
    events = [e for e in SHARED_EVENTS + private if draw(st.booleans())]
    events = events or [private[0]]
    names = draw(st.permutations(pool))[: draw(st.integers(1, 5))]
    automaton = Automaton(name, Alphabet.of(events))
    for state in names:
        # Some states are never targeted: unreachable in the product.
        automaton.add_state(
            state,
            marked=draw(st.booleans()),
            forbidden=draw(st.integers(0, 3)) == 0,
        )
    automaton.set_initial(names[0])
    for source in names:
        for event in events:
            # Partial: a shared event missing on one side never fires.
            if draw(st.booleans()):
                automaton.add_transition(source, event, draw(st.sampled_from(names)))
    return automaton


class TestCompositionMatchesOracle:
    @given(st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_factors(self, colliding, data):
        pools = (COLLIDING_LEFT, COLLIDING_RIGHT) if colliding else (DOTTED_NAMES,) * 2
        a = data.draw(factors("A", PRIVATE_LEFT, pools[0]))
        b = data.draw(factors("B", PRIVATE_RIGHT, pools[1]))
        # The kernel raises exactly when two reachable pairs share a
        # label; the oracle, which merges them, raises only when their
        # transitions then conflict.
        pairs = reachable_pairs(a, b)
        collision = collision_message("A||B", pairs)
        try:
            oracle = explicit_synchronous_composition(a, b)
        except AutomatonError:
            assert collision is not None
            oracle = None
        if collision is not None:
            with pytest.raises(AutomatonError) as raised:
                synchronous_composition(a, b)
            assert str(raised.value) == collision
            return
        order = [f"{x.name}.{y.name}" for x, y in pairs]
        assert_same_automaton(synchronous_composition(a, b), oracle, order)

    @pytest.mark.parametrize(
        "components",
        [
            pytest.param(
                lambda: fleet_plant_components(3, 2, fleet_alphabet(3)),
                id="fleet3x2",
            ),
            pytest.param(
                lambda: scalable_plant_components(4, 3, scalable_alphabet(4)),
                id="scalable4x3",
            ),
            pytest.param(
                lambda: [
                    f(case_study_alphabet())
                    for f in (power_capping_plant, gain_mode_plant, qos_tracking_plant)
                ],
                id="ExynosPlant",
            ),
            pytest.param(
                lambda: [
                    f(case_study_alphabet()) for f in (three_band_spec, budget_lock_spec)
                ],
                id="ExynosSpec",
            ),
        ],
    )
    def test_committed_folds(self, components):
        oracle = explicit_compose_all(components())
        assert_same_automaton(compose_all(components()), oracle, key_order(oracle))

    def test_dotted_name_collision_is_nondeterminism(self):
        a = automaton_from_table(
            "A",
            Alphabet.of([controllable("c"), controllable("p")]),
            transitions=[("x.y", "c", "x.y"), ("x.y", "p", "x"), ("x", "c", "x")],
            initial="x.y",
        )
        b = automaton_from_table(
            "B",
            Alphabet.of([controllable("c"), controllable("q")]),
            transitions=[("z", "c", "z"), ("z", "q", "y.z"), ("y.z", "c", "z")],
            initial="z",
        )
        # (x, y.z) and (x.y, z) are both reachable and both label
        # x.y.z: the kernel names the two tuples, first in key order;
        # the oracle merges them and trips on the conflicting c edge.
        with pytest.raises(AutomatonError) as raised:
            synchronous_composition(a, b)
        assert str(raised.value) == (
            "state label collision in 'A||B': factor states "
            "('x', 'y.z') and ('x.y', 'z') both compose to 'x.y.z'"
        )
        with pytest.raises(AutomatonError) as raised:
            explicit_synchronous_composition(a, b)
        assert str(raised.value) == (
            "nondeterministic transition in 'A||B': "
            "x.y.z on c goes to both x.y.z and x.z"
        )

    def test_fold_errors_in_fold_order(self):
        # A missing initial state in the first factor is found before a
        # later factor's alphabet clash, as the pairwise fold finds it.
        lost = Automaton("L", SIGMA_A)
        lost.add_state("L0")
        clash = automaton_from_table(
            "C",
            Alphabet.of([uncontrollable("shared")]),
            transitions=[("C0", "shared", "C0")],
            initial="C0",
        )
        for factors, error in (
            ([lost, automaton_b(), clash], AutomatonError),
            ([automaton_a(), clash, lost], AlphabetError),
            ([automaton_a(), automaton_b(), lost], AutomatonError),
        ):
            with pytest.raises(error) as fold:
                explicit_compose_all(factors)
            with pytest.raises(error) as raised:
                compose_all(factors)
            assert str(raised.value) == str(fold.value)


class TestReachability:
    def make_chain(self):
        """I -> M -> D, with D a dead end; M marked."""
        sigma = Alphabet.of([controllable("x"), controllable("y")])
        return automaton_from_table(
            "chain",
            sigma,
            transitions=[("I", "x", "M"), ("M", "y", "D")],
            initial="I",
            marked=["M"],
        )

    def test_accessible_states(self):
        automaton = self.make_chain()
        automaton.add_state("orphan")
        assert accessible_states(automaton) == {
            State("I"),
            State("M"),
            State("D"),
        }

    def test_coaccessible_states(self):
        automaton = self.make_chain()
        assert coaccessible_states(automaton) == {State("I"), State("M")}

    def test_trim_removes_dead_end_and_orphans(self):
        automaton = self.make_chain()
        automaton.add_state("orphan", marked=True)
        trimmed = trim(automaton)
        assert trimmed.states == {State("I"), State("M")}

    def test_trim_is_nonblocking(self):
        assert is_nonblocking(trim(self.make_chain()))

    def test_blocking_states(self):
        automaton = self.make_chain()
        assert blocking_states(automaton) == {State("D")}

    def test_nonblocking_detects_dead_end(self):
        assert not is_nonblocking(self.make_chain())

    def test_accessible_operator_keeps_initial(self):
        automaton = self.make_chain()
        automaton.add_state("orphan")
        acc = accessible(automaton)
        assert acc.has_initial
        assert len(acc) == 3

    def test_coaccessible_operator(self):
        automaton = self.make_chain()
        co = coaccessible(automaton)
        assert State("D") not in co.states

    def test_empty_automaton_nonblocking(self):
        sigma = Alphabet.of([controllable("x")])
        from repro.automata.automaton import Automaton

        assert is_nonblocking(Automaton("empty", sigma))

    def test_accessible_of_no_initial_is_empty(self):
        from repro.automata.automaton import Automaton

        sigma = Alphabet.of([controllable("x")])
        automaton = Automaton("noinit", sigma)
        automaton.add_state("floating")
        assert accessible_states(automaton) == frozenset()
