"""Tests for the system-identification experiments."""

import numpy as np

from repro.control.residuals import whiteness_score


class TestBigCluster:
    def test_model_dimensions(self, big_system):
        assert big_system.model.n_inputs == 2
        assert big_system.model.n_outputs == 2

    def test_meets_design_flow_gate(self, big_system):
        # Figure 16's rule of thumb: R^2 >= 80%.
        assert big_system.identification.meets_design_flow_gate()

    def test_model_is_stable(self, big_system):
        assert big_system.model.is_stable()

    def test_operating_point_in_actuator_range(self, big_system):
        op = big_system.operating_point
        assert 0.2 <= op.u[0] <= 2.0  # frequency
        assert 1.0 <= op.u[1] <= 4.0  # cores

    def test_positive_dc_gains(self, big_system):
        """More frequency must mean more QoS and more power around the
        operating point (normalized coordinates preserve signs)."""
        gain = big_system.model.dc_gain()
        assert gain[0, 0] > 0  # freq -> QoS
        assert gain[1, 0] > 0  # freq -> power
        assert gain[1, 1] > 0  # cores -> power

    def test_validation_residuals_nonempty(self, big_system):
        assert big_system.validation_residuals.shape[0] > 50


class TestLittleCluster:
    def test_dimensions_and_gate(self, little_system):
        assert little_system.model.n_inputs == 2
        assert little_system.model.n_outputs == 2
        assert little_system.identification.meets_design_flow_gate(0.7)

    def test_stable(self, little_system):
        assert little_system.model.is_stable()


class TestFullSystem:
    def test_dimensions(self, full_system):
        assert full_system.model.n_inputs == 4
        assert full_system.model.n_outputs == 2

    def test_higher_order_than_cluster_models(self, big_system, full_system):
        assert full_system.model.order > big_system.model.order

    def test_stable(self, full_system):
        assert full_system.model.is_stable()


class TestPerCoreSystem:
    def test_dimensions(self, percore_system):
        assert percore_system.model.n_inputs == 10
        assert percore_system.model.n_outputs == 10

    def test_scalability_quality_ordering(
        self, big_system, full_system, percore_system
    ):
        """Section 5.2's conclusion: identification quality degrades
        with system size on the same training budget."""
        small = whiteness_score(big_system.validation_residuals)
        large = whiteness_score(percore_system.validation_residuals)
        assert small > large

    def test_residual_structure_worse_than_small_system(
        self, big_system, percore_system
    ):
        """The 10x10's residuals carry more unmodelled structure: its
        worst autocorrelation excursion exceeds the 2x2's."""
        from repro.control.residuals import analyze_residuals

        small = max(
            a.max_excursion
            for a in analyze_residuals(big_system.validation_residuals)
        )
        large = max(
            a.max_excursion
            for a in analyze_residuals(percore_system.validation_residuals)
        )
        assert large > small


class TestDeterminism:
    def test_identification_reproducible(self):
        """Two fresh identifications in one process agree bit for bit
        (the fixtures hold the committed models, not fresh ones)."""
        from repro.managers.identification import identify_big_cluster

        first = identify_big_cluster()
        again = identify_big_cluster()
        assert np.array_equal(
            again.identification.model.coeffs,
            first.identification.model.coeffs,
        )
