"""Discrete-event systems toolkit: automata and supervisory control.

A from-scratch replacement for the Supremica tool-set the paper uses:
finite automata over controllable/uncontrollable event alphabets,
synchronous composition, Ramadge-Wonham supervisor synthesis, and
nonblocking/controllability verification.
"""

from repro.automata.automaton import (
    Automaton,
    AutomatonError,
    State,
    Transition,
    automaton_from_table,
)
from repro.automata.events import (
    Alphabet,
    AlphabetError,
    Event,
    controllable,
    uncontrollable,
)
from repro.automata.language import (
    controllability_witness,
    enumerate_words,
    is_sublanguage,
    language_size,
    languages_equal,
    marked_language_difference,
)
from repro.automata.modular import (
    ModularSynthesisResult,
    synthesize_modular,
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
from repro.automata.serialization import (
    automaton_from_dict,
    automaton_to_dict,
    canonical_digest,
    canonical_form,
    dumps,
    loads,
)
from repro.automata.synthesis import (
    SynthesisError,
    SynthesisResult,
    supremal_controllable,
    synthesize_supervisor,
)
from repro.automata.symbolic_synthesis import (
    SupremalFixpoint,
    encode_composition,
    supremal_fixpoint,
    symbolic_synthesize_supervisor,
)
from repro.automata.symbolic import (
    EncodedAutomaton,
    PairEncoding,
    SearchTree,
    backward_reachable,
    encode_automaton,
    forward_reachable,
    forward_search,
    nearest_state,
    reachable_product,
    restrict_states,
    witness_trace,
)
from repro.automata.verification import (
    ControllabilityViolation,
    VerificationReport,
    check_controllability,
    check_nonblocking,
    verify_supervisor,
)

__all__ = [
    "Alphabet",
    "AlphabetError",
    "Automaton",
    "AutomatonError",
    "ControllabilityViolation",
    "EncodedAutomaton",
    "Event",
    "ModularSynthesisResult",
    "PairEncoding",
    "SearchTree",
    "State",
    "SupremalFixpoint",
    "SynthesisError",
    "SynthesisResult",
    "Transition",
    "VerificationReport",
    "accessible",
    "accessible_states",
    "automaton_from_dict",
    "automaton_from_table",
    "automaton_to_dict",
    "backward_reachable",
    "blocking_states",
    "canonical_digest",
    "canonical_form",
    "check_controllability",
    "check_nonblocking",
    "coaccessible",
    "coaccessible_states",
    "compose_all",
    "controllability_witness",
    "controllable",
    "dumps",
    "encode_automaton",
    "encode_composition",
    "enumerate_words",
    "forward_reachable",
    "forward_search",
    "is_nonblocking",
    "is_sublanguage",
    "language_size",
    "languages_equal",
    "loads",
    "marked_language_difference",
    "nearest_state",
    "reachable_product",
    "restrict_states",
    "supremal_controllable",
    "supremal_fixpoint",
    "symbolic_synthesize_supervisor",
    "synchronous_composition",
    "synthesize_modular",
    "synthesize_supervisor",
    "trim",
    "uncontrollable",
    "verify_supervisor",
    "witness_trace",
]
