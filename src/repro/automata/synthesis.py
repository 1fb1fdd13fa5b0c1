"""Ramadge-Wonham supervisor synthesis.

Implements step 3 of the paper's synthesis process (Figure 11): given a
plant model ``P`` and an intended-behaviour specification ``SP``, compute
the *supremal controllable and nonblocking* supervisor — the least
restrictive supervisor whose closed loop with the plant satisfies the
specification.

The algorithm is the classical fixpoint iteration the paper describes in
Section 4.3.4: the *trimming* algorithm (remove blocking states, ensuring
the nonblocking property) and the *extension* algorithm (remove states
where an uncontrollable plant event would escape the specification,
ensuring controllability) "must be run successively and iteratively,
until they return the same result".

:func:`synthesize_supervisor` runs the fixpoint as whole-array passes
over the bitset encoding of :mod:`repro.automata.symbolic_synthesis`,
which scales to millions of product states.  The extension pass uses a
canonical *snapshot* (Jacobi) schedule — every state is judged against
the round-start good set — so the ``removed_*`` attribution and the
round count are canonical (the supremal fixpoint itself is unique under
any schedule; only the bookkeeping needs canonicalizing).  The original
explicit-state enumeration is kept as a test oracle
(``tests/automata/explicit_oracle.py``) that the equivalence suite
compares against field-for-field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.automata.automaton import Automaton, State


@dataclass(frozen=True)
class ProductState:
    """A (plant state, spec state) pair tracked through synthesis."""

    plant: State
    spec: State

    def label(self) -> State:
        return State(f"{self.plant.name}.{self.spec.name}")


@dataclass
class SynthesisResult:
    """Outcome of supervisor synthesis.

    Attributes
    ----------
    supervisor:
        The synthesized supervisor automaton (empty if no supervisor
        exists).  State names are ``plantState.specState`` pairs.
    iterations:
        Number of trim/controllability fixpoint rounds executed.
    removed_uncontrollable:
        Product states pruned because an uncontrollable event escaped.
    removed_blocking:
        Product states pruned because they could not reach a marked state.
    state_map:
        Maps each supervisor state to its underlying (plant, spec) pair.
    """

    supervisor: Automaton
    iterations: int
    removed_uncontrollable: frozenset[State]
    removed_blocking: frozenset[State]
    state_map: dict[State, ProductState] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not self.supervisor.has_initial or len(self.supervisor) == 0


class SynthesisError(RuntimeError):
    """Raised when synthesis preconditions are violated."""


def synthesize_supervisor(plant: Automaton, spec: Automaton) -> SynthesisResult:
    """Compute the supremal controllable, nonblocking supervisor.

    Parameters
    ----------
    plant:
        The (possibly composed) plant model ``P``.  Must have an initial
        state.
    spec:
        The intended-behaviour specification ``SP``.  Forbidden states in
        either automaton are excluded from the supervisor outright.

    Returns
    -------
    SynthesisResult
        ``result.supervisor`` realizes the supremal controllable
        sublanguage of ``L(P || SP)`` w.r.t. ``L(P)``; it is trim and
        controllable, or empty when no supervisor exists.
    """
    # Imported lazily: symbolic_synthesis depends on this module's
    # dataclasses, so a top-level import would be circular.
    from repro.automata.symbolic_synthesis import symbolic_synthesize_supervisor

    return symbolic_synthesize_supervisor(plant, spec)


def supremal_controllable(plant: Automaton, spec: Automaton) -> Automaton:
    """Convenience wrapper returning only the supervisor automaton."""
    return synthesize_supervisor(plant, spec).supervisor
