"""The five-step supervisor synthesis process (Figure 11).

1. Develop the high-level plant model ``P`` (discrete-event system).
2. Develop the intended-behaviour specification ``SP``.
3. Synthesize the supervisor ``S`` from ``P`` and ``SP``.
4. Non-blocking property checks.
5. Controllability property checks.

Steps 4-5 "must be run successively and iteratively" — our synthesis
routine embeds the trim/extension fixpoint, and this module re-verifies
the result independently, exactly as Supremica does for the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.automaton import Automaton
from repro.automata.events import Alphabet
from repro.automata.synthesis import SynthesisResult, synthesize_supervisor
from repro.automata.verification import VerificationReport, verify_supervisor
from repro.core.alphabet import case_study_alphabet
from repro.core.plant_model import case_study_plant
from repro.core.specification import case_study_specification


class SynthesisFlowError(RuntimeError):
    """Raised when the synthesized supervisor fails verification."""


@dataclass
class VerifiedSupervisor:
    """A synthesized supervisor plus its formal certificates.

    Only ``supervisor`` is deployed at runtime; plant and specification
    are design artifacts (Section 4.3.3).
    """

    plant: Automaton
    specification: Automaton
    supervisor: Automaton
    synthesis: SynthesisResult
    verification: VerificationReport

    @property
    def verified(self) -> bool:
        return self.verification.verified

    def summary(self) -> str:
        lines = [
            f"plant:         {len(self.plant)} states, "
            f"{len(self.plant.transitions)} transitions",
            f"specification: {len(self.specification)} states",
            f"supervisor:    {len(self.supervisor)} states, "
            f"{len(self.supervisor.transitions)} transitions",
            f"synthesis:     {self.synthesis.iterations} fixpoint rounds, "
            f"{len(self.synthesis.removed_uncontrollable)} states pruned "
            f"(controllability), {len(self.synthesis.removed_blocking)} "
            f"(blocking)",
            self.verification.summary(),
        ]
        return "\n".join(lines)


def synthesize_and_verify(
    plant: Automaton, specification: Automaton
) -> VerifiedSupervisor:
    """Run steps 3-5 on the given models.

    Synthesis runs on the symbolic (bitset-kernel) engine; verification
    re-checks the result independently.

    Raises
    ------
    SynthesisFlowError
        If no supervisor exists or the verification checks fail (a
        correct-by-construction synthesis failing verification indicates
        a modelling bug worth failing loudly on).
    """
    synthesis = synthesize_supervisor(plant, specification)
    if synthesis.is_empty:
        raise SynthesisFlowError(
            "synthesis produced an empty supervisor: the specification "
            "is unachievable for this plant"
        )
    verification = verify_supervisor(plant, synthesis.supervisor)
    result = VerifiedSupervisor(
        plant=plant,
        specification=specification,
        supervisor=synthesis.supervisor,
        synthesis=synthesis,
        verification=verification,
    )
    if not result.verified:
        raise SynthesisFlowError(
            "synthesized supervisor failed verification:\n"
            + verification.summary()
        )
    return result


def build_case_study_supervisor(
    alphabet: Alphabet | None = None,
) -> VerifiedSupervisor:
    """Steps 1-5 for the Exynos case study of Section 4.2."""
    full = alphabet or case_study_alphabet()
    plant = case_study_plant(full)
    specification = case_study_specification(full)
    return synthesize_and_verify(plant, specification)
