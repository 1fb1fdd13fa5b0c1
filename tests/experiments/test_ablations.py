"""Tests for the ablation machinery (flags + studies)."""

import numpy as np
import pytest

from repro.experiments.ablations import tdp_violation_fraction
from repro.experiments.figures import IdentifiedSystems, manager_factory
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import three_phase_scenario
from repro.managers.base import ManagerGoals
from repro.managers.mimo import QOS_GAINS
from repro.managers.spectr import SPECTRManager
from repro.platform.soc import ExynosSoC
from repro.workloads import x264


@pytest.fixture()
def systems(big_system, little_system, full_system):
    return IdentifiedSystems(
        big=big_system, little=little_system, full=full_system
    )


class TestAblationFlags:
    def test_disabled_gain_scheduling_never_switches(
        self, systems, verified_supervisor
    ):
        soc = ExynosSoC(qos_app=x264())
        soc.big.set_frequency(1.0)
        manager = SPECTRManager(
            soc,
            ManagerGoals(60.0, 5.0),
            big_system=systems.big,
            little_system=systems.little,
            verified_supervisor=verified_supervisor,
            enable_gain_scheduling=False,
        )
        for _ in range(100):
            manager.control(soc.step())
        manager.set_power_budget(2.0)  # harsh emergency
        for _ in range(100):
            manager.control(soc.step())
        assert manager.big_mimo.active_gains == QOS_GAINS
        assert manager.gain_log.switch_count == 0

    def test_disabled_reference_regulation_freezes_budgets(
        self, systems, verified_supervisor
    ):
        soc = ExynosSoC(qos_app=x264())
        soc.big.set_frequency(1.0)
        manager = SPECTRManager(
            soc,
            ManagerGoals(60.0, 5.0),
            big_system=systems.big,
            little_system=systems.little,
            verified_supervisor=verified_supervisor,
            enable_reference_regulation=False,
        )
        initial_big = manager.big_power_ref_w
        initial_little = manager.little_power_ref_w
        for _ in range(150):
            manager.control(soc.step())
        manager.set_power_budget(3.3)
        for _ in range(100):
            manager.control(soc.step())
        assert manager.big_power_ref_w == initial_big
        assert manager.little_power_ref_w == initial_little

    def test_custom_name_propagates(self, systems, verified_supervisor):
        soc = ExynosSoC(qos_app=x264())
        manager = SPECTRManager(
            soc,
            ManagerGoals(60.0, 5.0),
            big_system=systems.big,
            little_system=systems.little,
            verified_supervisor=verified_supervisor,
            name="SPECTR-variant",
        )
        assert manager.name == "SPECTR-variant"

    def test_supervisor_still_walks_when_ablated(
        self, systems, verified_supervisor
    ):
        """Ablation disables effects, not the formal model: the engine
        keeps tracking system state."""
        soc = ExynosSoC(qos_app=x264())
        manager = SPECTRManager(
            soc,
            ManagerGoals(60.0, 5.0),
            big_system=systems.big,
            little_system=systems.little,
            verified_supervisor=verified_supervisor,
            enable_gain_scheduling=False,
            enable_reference_regulation=False,
        )
        for _ in range(20):
            manager.control(soc.step())
        assert manager.engine.invocations == 10


class TestViolationMetric:
    def test_tdp_violation_fraction_bounds(self, systems):
        scenario = three_phase_scenario(phase_duration_s=2.0)
        trace = run_scenario(
            manager_factory("SPECTR", systems), x264(), scenario, seed=5
        )
        for phase in range(3):
            fraction = tdp_violation_fraction(trace, phase)
            assert 0.0 <= fraction <= 1.0

    def test_violation_detects_overrun(self, systems):
        scenario = three_phase_scenario(phase_duration_s=2.0)
        full = run_scenario(
            manager_factory("SPECTR", systems), x264(), scenario, seed=5
        )
        crippled = run_scenario(
            manager_factory(
                "SPECTR",
                systems,
                {
                    "enable_gain_scheduling": False,
                    "enable_reference_regulation": False,
                    "manager_name": "none",
                },
            ),
            x264(),
            scenario,
            seed=5,
        )
        assert tdp_violation_fraction(crippled, 2) >= tdp_violation_fraction(
            full, 2
        )
