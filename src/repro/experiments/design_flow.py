"""The systematic SPECTR design flow (Section 6, Figure 16).

Nine steps, automated end to end on the simulated platform:

1. Define the high-level goals (QoS tracking + chip power capping).
2. Decompose the plant and model each sub-plant (DES automata).
3. Describe the desired behaviour (specifications).
4. Synthesize and formally verify the supervisory controller.
5. Identify each minimal subsystem (staircase excitation + ARX least
   squares), gated by the R^2 >= 80% rule of thumb.
6. Define <goal, condition> pairs as Q/R weight sets.
7. Generate one MIMO gain set per pair (LQG design).
8. Verify robustness under the uncertainty guardbands.
9. Functional verification: close the loop in simulation and check the
   overall response before implementation.

This module lives in :mod:`repro.experiments` (the top architectural
layer) because steps 5-9 orchestrate managers, workloads and the
scenario runner; ``repro.core`` supplies only the supervisory-control
steps 2-4 and must not depend on the layers above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.control.gains import GainLibrary
from repro.control.robustness import robust_stability_analysis
from repro.managers.base import ManagerGoals
from repro.managers.identification import (
    IdentifiedSystem,
    identify_big_cluster,
    identify_little_cluster,
)
from repro.managers.mimo import CLUSTER_INTEGRAL_WEIGHT, build_gain_library
from repro.core.synthesis_flow import (
    VerifiedSupervisor,
    build_case_study_supervisor,
)

# The paper's uncertainty guardbands: 50% on QoS, 30% on power.
QOS_GUARDBAND = 0.50
POWER_GUARDBAND = 0.30
R_SQUARED_GATE = 0.80


@dataclass
class FlowStep:
    """Outcome of one design-flow step."""

    number: int
    title: str
    passed: bool
    detail: str = ""


@dataclass
class DesignFlowReport:
    """Full record of one design-flow execution."""

    steps: list[FlowStep] = field(default_factory=list)
    supervisor: VerifiedSupervisor | None = None
    subsystems: dict[str, IdentifiedSystem] = field(default_factory=dict)
    gain_libraries: dict[str, GainLibrary] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return all(step.passed for step in self.steps)

    def record(self, number: int, title: str, passed: bool, detail: str = "") -> None:
        self.steps.append(FlowStep(number, title, passed, detail))

    def format_text(self) -> str:
        lines = ["SPECTR design flow (Figure 16)"]
        for step in self.steps:
            status = "ok " if step.passed else "FAIL"
            lines.append(f"  step {step.number}: [{status}] {step.title}")
            if step.detail:
                lines.append(f"           {step.detail}")
        lines.append(
            f"overall: {'SUCCESS' if self.succeeded else 'FAILED'}"
        )
        return "\n".join(lines)


def run_design_flow(
    *,
    goals: ManagerGoals | None = None,
    r_squared_gate: float = R_SQUARED_GATE,
    closed_loop_check: bool = True,
) -> DesignFlowReport:
    """Execute the full nine-step flow for the Exynos case study.

    Returns a report with every intermediate artifact; raises nothing —
    failed gates are recorded so the architect can iterate (the flow's
    back-edges in Figure 16).
    """
    goals = goals or ManagerGoals(qos_reference=60.0, power_budget_w=5.0)
    report = DesignFlowReport()

    # Step 1: goals.
    report.record(
        1,
        "define high-level goals",
        True,
        f"QoS >= {goals.qos_reference:g}, chip power <= "
        f"{goals.power_budget_w:g} W",
    )

    # Steps 2-4: supervisory controller design.
    supervisor = build_case_study_supervisor()
    report.supervisor = supervisor
    report.record(
        2,
        "decompose the plant and model each sub-plant",
        True,
        f"composed plant: {len(supervisor.plant)} states",
    )
    report.record(
        3,
        "describe the desired behaviour",
        True,
        f"specification: {len(supervisor.specification)} states",
    )
    report.record(
        4,
        "synthesize and formally verify the supervisor",
        supervisor.verified,
        f"supervisor: {len(supervisor.supervisor)} states, "
        f"nonblocking={supervisor.verification.nonblocking}, "
        f"controllable={supervisor.verification.controllable}",
    )

    # Step 5: per-subsystem identification with the R^2 gate.
    subsystems = {
        "big": identify_big_cluster(),
        "little": identify_little_cluster(),
    }
    report.subsystems = subsystems
    for name, system in subsystems.items():
        passed = system.identification.meets_design_flow_gate(
            r_squared_gate
        )
        report.record(
            5,
            f"identify subsystem {name!r}",
            passed,
            f"R^2 = {system.r_squared:.3f} "
            f"(gate {r_squared_gate:.0%})",
        )

    # Step 6: <goal, condition> pairs.
    report.record(
        6,
        "define <goal, condition> pairs",
        True,
        "QoS-based gains (Q favours QoS 30:1), power-based gains "
        "(Q favours power 30:1), R prefers the fine-grained actuator",
    )

    # Step 7: gain generation, at the integral weight the cluster servos
    # deploy, so step 8 checks the gain sets a design bundle carries.
    for name, system in subsystems.items():
        library = build_gain_library(
            system, integral_weight=CLUSTER_INTEGRAL_WEIGHT
        )
        report.gain_libraries[name] = library
        report.record(
            7,
            f"generate gain sets for {name!r}",
            len(library) == 2,
            f"gain sets: {', '.join(library.names())}",
        )

    # Step 8: robustness verification under guardbands.
    for name, system in subsystems.items():
        library = report.gain_libraries[name]
        for gain_name in library.names():
            analysis = robust_stability_analysis(
                system.model,
                library.get(gain_name),
                [QOS_GUARDBAND, POWER_GUARDBAND],
            )
            report.record(
                8,
                f"robust stability of {name}/{gain_name}",
                analysis.robustly_stable,
                f"worst spectral radius {analysis.worst_radius:.3f} over "
                f"{analysis.vertices_checked} uncertainty vertices",
            )

    # Step 9: functional (closed-loop) verification in simulation.
    if closed_loop_check:
        from repro.experiments.runner import run_scenario
        from repro.experiments.scenario import three_phase_scenario
        from repro.managers.spectr import SPECTRManager
        from repro.workloads import x264

        trace = run_scenario(
            lambda soc, g: SPECTRManager(
                soc,
                g,
                big_system=subsystems["big"],
                little_system=subsystems["little"],
                verified_supervisor=supervisor,
            ),
            x264(),
            three_phase_scenario(
                qos_reference=goals.qos_reference,
                tdp_w=goals.power_budget_w,
            ),
        )
        metrics = trace.phase_metrics()
        qos_ok = abs(metrics[0].qos.steady_state_error_percent) < 10.0
        power_ok = (
            metrics[2].power.steady_state_error_percent > -8.0
        )  # obeys TDP in the disturbance phase
        report.record(
            9,
            "closed-loop functional verification",
            qos_ok and power_ok,
            f"phase-1 QoS error "
            f"{metrics[0].qos.steady_state_error_percent:+.1f}%, "
            f"phase-3 power error "
            f"{metrics[2].power.steady_state_error_percent:+.1f}%",
        )
    return report
