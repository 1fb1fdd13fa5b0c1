"""Encodings handed forward through the design flow.

``compose_all`` and supervisor synthesis both end holding an encoding of
the automaton they return: the n-ary product, and the restricted
synthesis product compacted onto the kept states.  When the labels are
strictly ascending, the encoding's index order is the encoder's
sorted-name order, so they register it in ``encode_automaton``'s memo
and synthesis and verification do not re-encode.  A registered encoding
is only allowed if it is exactly what ``_encode_automaton_uncached``
builds from the returned automaton: every field, dtypes included.
Labels that are not ascending register nothing.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import (
    AutomatonError,
    compose_all,
    synthesize_supervisor,
    verify_supervisor,
)
from repro.automata import symbolic
from repro.automata.automaton import Automaton
from repro.automata.events import Alphabet, controllable
from repro.automata.symbolic import (
    EncodedAutomaton,
    _encode_automaton_uncached,
    _encode_fingerprint,
)
from repro.core.plant_model import case_study_plant
from repro.core.scalable import (
    fleet_alphabet,
    fleet_budget_lock_spec,
    fleet_plant_components,
    fleet_specification,
    fleet_three_band_spec,
    scalable_alphabet,
    scalable_budget_lock_spec,
    scalable_plant_components,
    scalable_specification,
)
from repro.core.specification import case_study_specification, three_band_spec
from tests.automata.test_operations import (
    PRIVATE_LEFT,
    PRIVATE_RIGHT,
    SHARED_EVENTS,
)

# "a-1" sorts before "a.x" but after "a": a factor holding "a" and
# "a-1" gives labels that are not ascending in key order.
NAMES = ["a", "a-1", "b", "b.c", "c"]


@st.composite
def factors(draw, name, events):
    """A factor over ``events`` with 2-5 states named from ``NAMES``,
    most of them marked, most (state, event) pairs defined."""
    names = draw(st.permutations(NAMES))[: draw(st.integers(2, 5))]
    automaton = Automaton(name, Alphabet.of(events))
    for state in names:
        automaton.add_state(state, marked=draw(st.integers(0, 3)) > 0)
    automaton.set_initial(names[0])
    for source in names:
        for event in events:
            if draw(st.integers(0, 3)) > 0:
                automaton.add_transition(source, event, draw(st.sampled_from(names)))
    return automaton


def assert_exact(enc: EncodedAutomaton, automaton: Automaton) -> None:
    """``enc`` equals the encoder's output for ``automaton``, field for
    field: arrays by dtype, shape and bytes, everything else by type and
    value."""
    expected = _encode_automaton_uncached(automaton)

    def comparable(value):
        if isinstance(value, np.ndarray):
            return (value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, tuple):
            return tuple(comparable(item) for item in value)
        return (type(value), value)

    for field in dataclasses.fields(EncodedAutomaton):
        assert comparable(getattr(enc, field.name)) == comparable(
            getattr(expected, field.name)
        ), field.name


def registered(automaton: Automaton) -> EncodedAutomaton | None:
    """The encoding registered for ``automaton`` under its current
    fingerprint, if any."""
    entry = symbolic._ENCODE_MEMO.get(automaton)
    if entry is None or entry[0] != _encode_fingerprint(automaton):
        return None
    return entry[1]


def ascending(automaton: Automaton) -> bool:
    labels = list(automaton._states)
    return all(a < b for a, b in zip(labels, labels[1:]))


def assert_forwarded(automaton: Automaton) -> None:
    """A registered encoding, exact, for ascending labels; none
    otherwise."""
    enc = registered(automaton)
    if ascending(automaton):
        assert enc is not None
        assert_exact(enc, automaton)
    else:
        assert enc is None


def _fleet(clusters, levels):
    sigma = fleet_alphabet(clusters)
    return fleet_plant_components(clusters, levels, sigma), fleet_specification(
        clusters, sigma
    )


def _scalable(clusters, levels):
    sigma = scalable_alphabet(clusters)
    return scalable_plant_components(
        clusters, levels, sigma
    ), scalable_specification(clusters, sigma)


class TestCommittedModels:
    def test_case_study(self):
        plant, spec = case_study_plant(), case_study_specification()
        supervisor = synthesize_supervisor(plant, spec).supervisor
        for automaton in (plant, spec, supervisor):
            assert registered(automaton) is not None
            assert_exact(registered(automaton), automaton)

    @pytest.mark.parametrize(
        "build, states",
        [
            pytest.param(lambda: _fleet(3, 2), 800, id="fleet3x2"),
            pytest.param(lambda: _scalable(4, 3), 1_620, id="scalable4x3"),
        ],
    )
    def test_flow_models(self, build, states):
        components, spec = build()
        plant = compose_all(components)
        supervisor = synthesize_supervisor(plant, spec).supervisor
        assert len(supervisor) == states
        for automaton in (plant, spec, supervisor):
            assert registered(automaton) is not None
            assert_exact(registered(automaton), automaton)

    def test_fleet_3x2_flow_encodes_only_the_components(self, monkeypatch):
        # Compose -> synthesize -> verify encodes each component once
        # and nothing else: the plant, the spec and the supervisor are
        # all handed forward.
        encoded = []
        encode = symbolic._encode_automaton_uncached

        def spy(automaton):
            encoded.append(automaton.name)
            return encode(automaton)

        monkeypatch.setattr(symbolic, "_encode_automaton_uncached", spy)
        components, spec = _fleet(3, 2)
        plant = compose_all(components)
        result = synthesize_supervisor(plant, spec)
        report = verify_supervisor(plant, result.supervisor)
        assert report.verified and len(result.supervisor) == 800
        sigma = fleet_alphabet(3)
        spec_components = [
            three_band_spec(sigma),
            scalable_budget_lock_spec(3, sigma),
            fleet_three_band_spec(sigma),
            fleet_budget_lock_spec(3, sigma),
        ]
        assert Counter(encoded) == Counter(
            c.name for c in [*components, *spec_components]
        )


class TestRandomFactors:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_composition_and_supervisor(self, data):
        a = data.draw(factors("A", SHARED_EVENTS + PRIVATE_LEFT))
        b = data.draw(factors("B", SHARED_EVENTS + PRIVATE_RIGHT))
        spec = data.draw(
            factors("S", SHARED_EVENTS + PRIVATE_LEFT[:1] + [controllable("q1")])
        )
        try:
            plant = compose_all([a, b])
        except AutomatonError:
            return  # two reachable pairs share a label
        assert_forwarded(plant)
        assert_forwarded(synthesize_supervisor(plant, spec).supervisor)

    def test_descending_labels_register_nothing(self):
        # "a" < "a-1" in the factor, but "a-1.x" < "a.x" in the product.
        a = Automaton("A", [controllable("e")])
        a.add_state("a", initial=True)
        a.add_transition("a", "e", "a-1")
        b = Automaton("B", [controllable("f")])
        b.add_state("x", initial=True)
        plant = compose_all([a, b])
        assert list(plant._states) == ["a.x", "a-1.x"]
        assert registered(plant) is None
        assert_exact(symbolic.encode_automaton(plant), plant)
