"""Tests for modular supervisor synthesis (Section 3.1)."""

import pytest

from repro.automata.automaton import automaton_from_table
from repro.automata.events import Alphabet, controllable, uncontrollable
from repro.automata.language import languages_equal
from repro.automata.modular import synthesize_modular
from repro.core.plant_model import case_study_plant
from repro.core.specification import budget_lock_spec, three_band_spec

SIGMA = Alphabet.of(
    [
        controllable("a"),
        controllable("b"),
        uncontrollable("u"),
    ]
)


def loop_plant():
    return automaton_from_table(
        "P",
        SIGMA,
        transitions=[
            ("S", "a", "S"),
            ("S", "b", "S"),
            ("S", "u", "S"),
        ],
        initial="S",
        marked=["S"],
    )


def cap_spec(event, count, name):
    """At most ``count`` occurrences of ``event`` (forbidden after)."""
    sigma = Alphabet.of([SIGMA[event]])
    transitions = []
    for k in range(count + 1):
        transitions.append((f"N{k}", event, f"N{k + 1}"))
    return automaton_from_table(
        name,
        sigma,
        transitions=transitions,
        initial="N0",
        marked=[f"N{k}" for k in range(count + 1)],
        forbidden=[f"N{count + 1}"],
    )


class TestLanguageEquality:
    def test_identical_automata_equal(self):
        assert languages_equal(loop_plant(), loop_plant())

    def test_relabelled_automata_equal(self):
        plant = loop_plant()
        assert languages_equal(plant, plant.relabel(lambda s: s.name + "_x"))

    def test_different_languages_detected(self):
        other = automaton_from_table(
            "Q",
            SIGMA,
            transitions=[("S", "a", "S"), ("S", "u", "S")],  # no 'b'
            initial="S",
            marked=["S"],
        )
        assert not languages_equal(loop_plant(), other)

    def test_deep_difference_detected(self):
        a = automaton_from_table(
            "A",
            SIGMA,
            transitions=[("S", "a", "T"), ("T", "b", "S")],
            initial="S",
            marked=["S"],
        )
        b = automaton_from_table(
            "B",
            SIGMA,
            transitions=[("S", "a", "T"), ("T", "a", "S")],
            initial="S",
            marked=["S"],
        )
        assert not languages_equal(a, b)


class TestModularSynthesis:
    def test_independent_specs_form_valid_decomposition(self):
        result = synthesize_modular(
            loop_plant(),
            [cap_spec("a", 2, "capA"), cap_spec("b", 1, "capB")],
        )
        assert result.nonconflicting
        assert result.equivalent_to_monolithic
        assert result.is_valid_decomposition

    def test_composite_enforces_both_caps(self):
        result = synthesize_modular(
            loop_plant(),
            [cap_spec("a", 1, "capA"), cap_spec("b", 1, "capB")],
        )
        composite = result.composite
        assert composite.accepts(["a", "b"])
        state = composite.initial
        state = composite.step(state, "a")
        assert composite.step(state, "a") is None  # second 'a' disabled
        assert composite.step(state, "b") is not None

    def test_single_spec_renames_nothing_it_was_given(self):
        spec = cap_spec("a", 1, "capA")
        result = synthesize_modular(loop_plant(), [spec])
        assert spec.name == "capA"
        assert result.supervisors[0].supervisor.name == "S(P)"
        assert result.composite.name == "modular-composite"
        assert result.is_valid_decomposition

    def test_needs_at_least_one_spec(self):
        with pytest.raises(ValueError):
            synthesize_modular(loop_plant(), [])

    def test_case_study_decomposition_valid(self):
        """The Exynos case study's two specifications decompose validly:
        the composite of the per-spec supervisors equals the monolithic
        supervisor."""
        plant = case_study_plant()
        result = synthesize_modular(
            plant, [three_band_spec(), budget_lock_spec()]
        )
        assert result.is_valid_decomposition
        assert len(result.composite) == len(result.monolithic.supervisor)

    def test_modular_pieces_smaller_or_equal_than_problemwide(self):
        plant = case_study_plant()
        result = synthesize_modular(
            plant, [three_band_spec(), budget_lock_spec()]
        )
        # Each per-spec synthesis works against a smaller specification
        # automaton than the composed one.
        composed_spec_size = 4  # ThreeBand(4) x BudgetLock(2) reachable
        for per_spec in result.supervisors:
            assert len(per_spec.supervisor) <= 36  # bounded by plant
        assert result.summary()
