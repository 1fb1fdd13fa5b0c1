"""Differential gate for the n-ary reachable product.

:func:`repro.automata.encode_composition` builds the synchronous product
of its factors in one BFS over bit-packed keys
(:func:`repro.automata.symbolic.reachable_composition`).  It must give,
byte for byte, the encoding a left fold of pairwise
:func:`~repro.automata.symbolic.reachable_product` calls gives
(``tests/automata/explicit_oracle.py::pairwise_composition``): the same
name, event order, controllability, state numbering, transition arrays,
marking, forbidden set and initial state.  Every case checks the n-ary
product on sorted keys, on the bool grid and moving from one to the
other at several points, against the oracle folded on int32 and on
int64 pair keys; the grid the size rule takes is never larger than the
product it builds.  The factor states
:func:`~repro.automata.symbolic.composition_states` reports for every
product state, which ``compose_all`` labels states with, are the fold's.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import SynthesisError, encode_automaton, encode_composition
from repro.automata import symbolic
from repro.automata.automaton import Automaton, automaton_from_table
from repro.automata.events import Alphabet, controllable, uncontrollable
from repro.automata.symbolic import (
    EncodedAutomaton,
    _field_widths,
    _packed_prefix,
    _reachable_composition,
    composition_states,
    reachable_product,
)
from repro.core.scalable import (
    fleet_alphabet,
    fleet_plant_components,
    scalable_alphabet,
    scalable_plant_components,
)
from tests.automata.explicit_oracle import pairwise_composition
from tests.automata.test_symbolic import SIGMA, automata

FACTOR_NAMES = "ABCDE"


def _encoding_bytes(enc: EncodedAutomaton):
    """An encoding as comparable data: its scalars plus the dtype, shape
    and bytes of every array."""
    arrays = (enc.event_controllable, enc.marked, enc.forbidden, *enc.src, *enc.dst)
    return (
        enc.name,
        enc.n_states,
        enc.event_names,
        enc.initial,
        enc.state_names,
        enc.enabled,
        [(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
    )


def _oracle(factors, key, monkeypatch):
    """The pairwise fold with every pair product on ``key`` pair keys."""
    with monkeypatch.context() as patch:
        patch.setattr(symbolic, "_key_dtype", lambda left, right: key)
        return pairwise_composition(factors)


def _grid_bytes(cells: int, nb: int) -> int:
    """Bytes of a found-key grid: one mark and one in-row count a key."""
    return cells * (1 + np.min_scalar_type(nb).itemsize)


def _composition_with_grids(factors, monkeypatch):
    """``encode_composition(factors)`` and, per packed product it built,
    ``(factors packed, product, grid bytes)`` (``0`` where it kept the
    sorted keys)."""
    built = []
    build = symbolic._reachable_composition
    search = symbolic._grid_search

    def spy(chunk, grid_after):
        with monkeypatch.context() as patch:
            grids = []

            def grid_search(pairs, frontier, successors, na, nb):
                grids.append(_grid_bytes(na * nb, nb))
                return search(pairs, frontier, successors, na, nb)

            patch.setattr(symbolic, "_grid_search", grid_search)
            product, keys = build(chunk, grid_after)
        built.append((len(chunk), product, sum(grids)))
        return product, keys

    with monkeypatch.context() as patch:
        patch.setattr(symbolic, "_reachable_composition", spy)
        composed = encode_composition(factors)
    return composed, built


def assert_matches_fold(factors, monkeypatch):
    """``encode_composition`` and the n-ary product forced onto sorted
    keys, onto the grid and across from one to the other equal the fold
    on int32 and on int64 pair keys.  The grid the size rule takes is
    never larger than the ``src`` and ``dst`` arrays (two int32 per
    transition) of the product it builds.  Returns the fold and, per
    packed product, ``(factors packed, product, grid bytes)``."""
    oracles = [_oracle(factors, key, monkeypatch) for key in (np.int32, np.int64)]
    expected = _encoding_bytes(oracles[0])
    assert _encoding_bytes(oracles[1]) == expected
    composed, built = _composition_with_grids(factors, monkeypatch)
    assert _encoding_bytes(composed) == expected
    for _, product, grid in built:
        assert grid <= 8 * product.n_transitions, (product.name, grid)
    if _packed_prefix(_field_widths(factors)) == len(factors):
        for grid_after in (0, 5, 40, math.inf):
            forced, _ = _reachable_composition(factors, grid_after)
            assert _encoding_bytes(forced) == expected, grid_after
    named, states = composition_states(factors)
    assert _encoding_bytes(named) == expected
    assert [s.tolist() for s in states] == [s.tolist() for s in _fold_states(factors)]
    return oracles[0], built


def _fold_states(factors):
    """Per factor, its state in every state of the pairwise fold."""
    states = [np.arange(factors[0].n_states)]
    product = factors[0]
    for factor in factors[1:]:
        pair = reachable_product(product, factor)
        left, right = pair.factor_states()
        states = [column[left] for column in states] + [right]
        product = pair.product
    return states


@st.composite
def factor_lists(draw):
    """2-5 deterministic factors, each over a drawn subset of the shared
    events plus one event of its own; one factor may lose its initial
    state."""
    n_factors = draw(st.integers(min_value=2, max_value=5))
    factors = []
    for name in FACTOR_NAMES[:n_factors]:
        own = (controllable if draw(st.booleans()) else uncontrollable)(
            f"p{name}"
        )
        automaton = draw(
            automata(
                name=name,
                max_states=4,
                with_forbidden=True,
                sub_alphabet=True,
                private=[own],
            )
        )
        factors.append(encode_automaton(automaton))
    no_initial = draw(st.sampled_from([None, *range(n_factors)]))
    if no_initial is not None:
        factors[no_initial] = replace(factors[no_initial], initial=-1)
    return factors


class TestMatchesPairwiseFold:
    @settings(max_examples=150, deadline=None)
    @given(factor_lists())
    def test_random_factors(self, factors):
        with pytest.MonkeyPatch.context() as monkeypatch:
            product, _ = assert_matches_fold(factors, monkeypatch)
        if any(f.initial < 0 for f in factors):
            assert product.n_states == 0 and product.initial == -1

    @pytest.mark.parametrize(
        "model, clusters, levels, states",
        [
            ("fleet", 3, 2, 1_568),
            ("scalable", 4, 3, 2_268),
            ("scalable", 7, 3, 61_236),
            ("fleet", 10, 2, 200_704),
        ],
    )
    def test_suite_models(self, model, clusters, levels, states, monkeypatch):
        if model == "fleet":
            components = fleet_plant_components(
                clusters, levels, fleet_alphabet(clusters)
            )
        else:
            components = scalable_plant_components(
                clusters, levels, scalable_alphabet(clusters)
            )
        factors = [encode_automaton(c) for c in components]
        product, built = assert_matches_fold(factors, monkeypatch)
        assert product.n_states == states
        # Every suite model fills enough of its key space to move to
        # the grid, within the bound assert_matches_fold checks.
        assert [grid > 0 for *_, grid in built] == [True]

    def test_zero_state_factor(self, monkeypatch):
        empty = encode_automaton(Automaton("E", SIGMA))
        ring = encode_automaton(
            automaton_from_table(
                "M", SIGMA, [("A", "c1", "B"), ("B", "u1", "A")], initial="A"
            )
        )
        for factors in ([empty, ring], [ring, empty, ring]):
            product, _ = assert_matches_fold(factors, monkeypatch)
            assert product.n_states == 0 and product.initial == -1


class TestEdges:
    @pytest.mark.parametrize(
        "chain, tick, n_factors, bits, chunks, states",
        [
            # 70 two-state factors that all flip on one shared event: 2
            # reachable states.
            (["off", "on", "off"], False, 70, 70, [57, 14], 2),
            # The same with a second shared event, a self-loop on every
            # state: still 2 states in a 2**57 key space, so the found
            # keys must stay sorted.
            (["off", "on", "off"], True, 70, 70, [57, 14], 2),
            # 31 three-state factors that all step a -> b -> c on one
            # shared event, disabled at c: every factor's entry is the
            # -space sentinel there, so one 62-bit key would sum 31 of
            # them, wrap int64 and step out of c.
            (["a", "b", "c"], False, 31, 62, [29, 3], 3),
        ],
    )
    def test_wide_keys_pack_the_longest_prefix(
        self, chain, tick, n_factors, bits, chunks, states, monkeypatch
    ):
        # The longest prefix whose sentinel sums fit int64 is built
        # first and heads the rest.
        events = [controllable("step")]
        table = [(a, "step", b) for a, b in zip(chain, chain[1:])]
        if tick:
            events.append(controllable("tick"))
            table += [(a, "tick", a) for a in dict.fromkeys(chain)]
        factors = [
            encode_automaton(
                automaton_from_table(
                    f"F{k:02d}",
                    Alphabet.of(events),
                    table,
                    initial=chain[0],
                    marked=[chain[0]],
                )
            )
            for k in range(n_factors)
        ]
        widths = _field_widths(factors)
        assert sum(widths) == bits
        prefix = _packed_prefix(widths)
        assert prefix == chunks[0] and sum(widths[:prefix]) <= 62
        product, built = assert_matches_fold(factors, monkeypatch)
        # A handful of transitions, fewer bytes than any chunk's grid
        # (2**58 keys down to 64): no chunk takes the grid.
        assert [(n, grid) for n, _, grid in built] == [(n, 0) for n in chunks]
        assert product.n_states == states
        assert product.marked.tolist() == [True] + [False] * (states - 1)

    def test_nondeterministic_factor_named_as_the_fold_names_it(self):
        hand = EncodedAutomaton(
            name="hand",
            n_states=3,
            event_names=("c1",),
            event_controllable=np.array([True]),
            src=(np.array([0, 0], dtype=np.int32),),
            dst=(np.array([1, 2], dtype=np.int32),),
            initial=0,
            marked=np.zeros(3, dtype=bool),
            forbidden=np.zeros(3, dtype=bool),
        )
        ring = encode_automaton(
            automaton_from_table("M", SIGMA, [("A", "c1", "B")], initial="A")
        )
        for factors in ([hand, ring], [ring, hand], [ring, ring, hand]):
            with pytest.raises(ValueError) as fold:
                pairwise_composition(factors)
            with pytest.raises(ValueError) as nary:
                encode_composition(factors)
            assert str(nary.value) == str(fold.value) == (
                "automaton 'hand' is not deterministic: event 'c1' has two "
                "transitions from one state"
            )

    def test_one_factor_and_none(self):
        enc = encode_automaton(
            automaton_from_table("M", SIGMA, [("A", "c1", "B")], initial="A")
        )
        assert encode_composition([enc]) is enc
        assert _encoding_bytes(encode_composition([enc], name="P")) == (
            _encoding_bytes(replace(enc, name="P"))
        )
        with pytest.raises(SynthesisError):
            encode_composition([])
