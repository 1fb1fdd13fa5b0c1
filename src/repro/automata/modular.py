"""Modular supervisor synthesis (Section 3.1).

"SCT solves complex synthesis problems by breaking them into small-scale
sub-problems, known as modular synthesis ...  A decomposition is valid
if the solutions to sub-problems combine to solve the original problem,
and the resulting composite supervisors are non-blocking and minimally
restrictive."

This module synthesizes one supervisor per specification and checks the
validity conditions: the composite of the modular supervisors must be
*nonconflicting* (their synchronous composition is nonblocking) and
must agree with the monolithic supervisor synthesized against the
composed specification (checked by mutual language simulation over the
joint reachable space).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.automata.automaton import Automaton, State
from repro.automata.operations import compose_all, is_nonblocking
from repro.automata.synthesis import SynthesisResult, synthesize_supervisor


@dataclass
class ModularSynthesisResult:
    """Outcome of modular synthesis against several specifications."""

    supervisors: list[SynthesisResult]
    composite: Automaton
    nonconflicting: bool
    monolithic: SynthesisResult
    equivalent_to_monolithic: bool

    @property
    def is_valid_decomposition(self) -> bool:
        """The paper's validity condition for modular synthesis."""
        return self.nonconflicting and self.equivalent_to_monolithic

    def summary(self) -> str:
        lines = [
            f"modular supervisors: "
            f"{[len(r.supervisor) for r in self.supervisors]} states",
            f"composite:           {len(self.composite)} states, "
            f"nonconflicting={self.nonconflicting}",
            f"monolithic:          {len(self.monolithic.supervisor)} states",
            f"valid decomposition: {self.is_valid_decomposition}",
        ]
        return "\n".join(lines)


def _languages_equal(a: Automaton, b: Automaton) -> bool:
    """Check L(a) == L(b) by simultaneous breadth-first simulation.

    Both automata must be deterministic (ours are by construction); the
    languages differ iff some jointly-reachable pair enables different
    event sets, or one side's initial state is missing.
    """
    if not a.has_initial or not b.has_initial:
        return a.has_initial == b.has_initial
    start = (a.initial, b.initial)
    visited: set[tuple[State, State]] = {start}
    frontier = deque([start])
    while frontier:
        state_a, state_b = frontier.popleft()
        enabled_a = {e.name for e in a.enabled_events(state_a)}
        enabled_b = {e.name for e in b.enabled_events(state_b)}
        if enabled_a != enabled_b:
            return False
        for name in enabled_a:
            next_a = a.step(state_a, name)
            next_b = b.step(state_b, name)
            assert next_a is not None and next_b is not None
            pair = (next_a, next_b)
            if pair not in visited:
                visited.add(pair)
                frontier.append(pair)
    return True


def synthesize_modular(
    plant: Automaton, specifications: list[Automaton]
) -> ModularSynthesisResult:
    """Synthesize per-specification supervisors and validate them.

    Parameters
    ----------
    plant:
        The (composed) plant model.
    specifications:
        The individual behaviour specifications; each yields its own
        small supervisor.

    Returns
    -------
    ModularSynthesisResult
        Per-spec supervisors, their composite, the nonconflicting
        verdict, and the comparison with monolithic synthesis.
    """
    if not specifications:
        raise ValueError("need at least one specification")
    supervisors = [
        synthesize_supervisor(plant, spec) for spec in specifications
    ]
    composite = compose_all(
        [r.supervisor for r in supervisors], name="modular-composite"
    )
    nonconflicting = is_nonblocking(composite)

    monolithic_spec = compose_all(
        specifications, name="composed-spec"
    )
    monolithic = synthesize_supervisor(plant, monolithic_spec)

    # The composite controls the same closed loop iff, running against
    # the plant, it generates the same language as the monolithic
    # supervisor.  Both are already plant-restricted, so compare their
    # languages directly (state labels differ; simulation handles that).
    equivalent = _languages_equal(composite, monolithic.supervisor)

    return ModularSynthesisResult(
        supervisors=supervisors,
        composite=composite,
        nonconflicting=nonconflicting,
        monolithic=monolithic,
        equivalent_to_monolithic=equivalent,
    )
