"""Tests for the lightweight figure generators (the expensive
figure-13/14 sweeps are covered by the integration test and benches)."""

import pytest

from repro.exec.job import ScenarioJob
from repro.exec.scenario_jobs import execute
from repro.experiments.figures import (
    fig3_conflicting_goals,
    fig5_model_accuracy,
    fig6_operation_count,
    fig12_synthesis,
    identified_systems,
    manager_factory,
    overhead_measurements,
)
from repro.experiments.fleet import fleet_manager_factory


class TestIdentifiedSystemsCache:
    def test_cached_instance_reused(self):
        a = identified_systems()
        b = identified_systems()
        assert a is b

    def test_percore_added_on_demand(self):
        systems = identified_systems(with_percore=True)
        assert systems.percore is not None

    def test_manager_factory_names(self):
        systems = identified_systems()
        for name in ("FS", "MM-Perf", "MM-Pow", "SPECTR"):
            assert callable(manager_factory(name, systems))
        with pytest.raises(ValueError):
            manager_factory("nope", systems)

    @pytest.mark.parametrize("name", ["FS", "MM-Perf", "MM-Pow"])
    def test_spectr_overrides_on_another_manager_are_rejected(self, name):
        # Ignored overrides would run the plain cell under a digest of
        # its own; the scalar and fleet factories and the engine refuse.
        systems = identified_systems()
        overrides = {"enable_gain_scheduling": False}
        for factory in (manager_factory, fleet_manager_factory):
            with pytest.raises(ValueError, match=f"manager {name!r}"):
                factory(name, systems, overrides)
        job = ScenarioJob(
            manager=name, overrides=tuple(overrides.items()), seed=1
        )
        with pytest.raises(ValueError, match="only SPECTR takes them"):
            execute(job)
        assert callable(manager_factory("SPECTR", systems, overrides))


class TestFig3:
    def test_conflict_shape(self):
        result = fig3_conflicting_goals(duration_s=6.0)
        fps_run = result.fps_oriented
        pow_run = result.power_oriented
        # FPS-oriented tracks FPS, misses power.
        assert fps_run["fps"][-40:].mean() == pytest.approx(
            result.fps_reference, rel=0.06
        )
        assert abs(
            fps_run["power"][-40:].mean() - result.power_reference
        ) > 0.5
        # Power-oriented tracks power, misses FPS.
        assert pow_run["power"][-40:].mean() == pytest.approx(
            result.power_reference, rel=0.10
        )
        assert abs(pow_run["fps"][-40:].mean() - result.fps_reference) > 5.0

    def test_format_text(self):
        result = fig3_conflicting_goals(duration_s=3.0)
        text = result.format_text()
        assert "FPS-oriented" in text
        assert "power-oriented" in text


class TestFig5:
    def test_small_model_fits_better(self):
        result = fig5_model_accuracy()
        assert result.small_fit_percent > result.large_fit_percent
        assert result.small_fit_percent > 45.0
        assert "Figure 5" in result.format_text()

    def test_series_lengths_match(self):
        result = fig5_model_accuracy()
        assert result.small_predicted.shape == result.small_measured.shape
        assert result.large_predicted.shape == result.large_measured.shape


class TestFig6:
    def test_monotone_growth(self):
        result = fig6_operation_count(core_counts=(10, 30, 50), orders=(2, 4))
        for order in (2, 4):
            counts = [result.operations[order][c] for c in (10, 30, 50)]
            assert counts == sorted(counts)

    def test_spectr_cheaper(self):
        result = fig6_operation_count(core_counts=(50,), orders=(2,))
        assert result.spectr_ops[50] < result.operations[2][50] / 100

    def test_format_text_rows(self):
        result = fig6_operation_count(core_counts=(10, 20), orders=(2,))
        text = result.format_text()
        assert "Figure 6" in text
        assert "   10" in text and "   20" in text


class TestFig12:
    def test_verified_supervisor(self):
        result = fig12_synthesis()
        assert result.verified.verified
        assert "PASS" in result.format_text()


class TestOverhead:
    def test_measurements_positive_and_ordered(self):
        result = overhead_measurements(repeats=50)
        assert result.mimo_step_us > 0
        assert result.supervisor_invocation_us > 0
        # The gain switch is a pointer swap: far cheaper than a MIMO step.
        assert result.gain_switch_us < result.mimo_step_us
        assert result.mimo_ops_per_invocation > 0
        assert "overhead" in result.format_text()
