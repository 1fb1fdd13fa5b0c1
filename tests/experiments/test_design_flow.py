"""Tests for the nine-step design flow (Figure 16)."""

import pytest

from repro.experiments.design_flow import run_design_flow
from repro.managers.base import ManagerGoals
from repro.managers.bundle import bundle_from_design
from repro.managers.mimo import CLUSTER_INTEGRAL_WEIGHT, build_gain_library


@pytest.fixture(scope="module")
def report():
    return run_design_flow()


class TestDesignFlow:
    def test_flow_succeeds_end_to_end(self, report):
        assert report.succeeded

    def test_all_nine_steps_present(self, report):
        numbers = {step.number for step in report.steps}
        assert numbers == set(range(1, 10))

    def test_supervisor_verified(self, report):
        assert report.supervisor is not None
        assert report.supervisor.verified

    def test_both_subsystems_identified(self, report):
        assert set(report.subsystems) == {"big", "little"}
        for system in report.subsystems.values():
            assert system.identification.meets_design_flow_gate()

    def test_gain_libraries_complete(self, report):
        for library in report.gain_libraries.values():
            assert library.names() == ("power", "qos")

    def test_checked_gains_are_the_bundled_gains(self, report):
        # Step 8 checks the gain sets a design bundle carries, the ones
        # the cluster servos deploy.
        bundle = bundle_from_design(report.supervisor, report.subsystems)
        assert bundle.gain_libraries == report.gain_libraries
        for name, system in report.subsystems.items():
            assert report.gain_libraries[name] is build_gain_library(
                system, integral_weight=CLUSTER_INTEGRAL_WEIGHT
            )

    def test_robustness_steps_all_pass(self, report):
        robustness = [s for s in report.steps if s.number == 8]
        assert len(robustness) == 4  # 2 subsystems x 2 gain sets
        assert all(s.passed for s in robustness)

    def test_format_text(self, report):
        text = report.format_text()
        assert "SUCCESS" in text
        assert "step 9" in text

    def test_strict_gate_fails_gracefully(self):
        strict = run_design_flow(
            r_squared_gate=0.999, closed_loop_check=False
        )
        assert not strict.succeeded
        failing = [s for s in strict.steps if not s.passed]
        assert all(s.number == 5 for s in failing)

    def test_skipping_closed_loop_check(self):
        fast = run_design_flow(closed_loop_check=False)
        assert {s.number for s in fast.steps} == set(range(1, 9))

    def test_custom_goals_recorded(self):
        custom = run_design_flow(
            goals=ManagerGoals(30.0, 4.0), closed_loop_check=False
        )
        assert "30" in custom.steps[0].detail
        assert "4" in custom.steps[0].detail
