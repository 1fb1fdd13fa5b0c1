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

from dataclasses import dataclass

from repro.automata.automaton import Automaton
from repro.automata.language import languages_equal
from repro.automata.operations import compose_all
from repro.automata.synthesis import SynthesisResult, synthesize_supervisor
from repro.automata.verification import check_nonblocking


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
    nonconflicting = check_nonblocking(composite)

    monolithic_spec = compose_all(
        specifications, name="composed-spec"
    )
    monolithic = synthesize_supervisor(plant, monolithic_spec)

    # The composite controls the same closed loop iff, running against
    # the plant, it generates the same language as the monolithic
    # supervisor.  Both are already plant-restricted, so compare their
    # languages directly (state labels differ; simulation handles that).
    equivalent = languages_equal(composite, monolithic.supervisor)

    return ModularSynthesisResult(
        supervisors=supervisors,
        composite=composite,
        nonconflicting=nonconflicting,
        monolithic=monolithic,
        equivalent_to_monolithic=equivalent,
    )
