"""Tests for goal-space sweeps."""

import pytest

from repro.experiments.sweeps import (
    SweepResult,
    qos_reference_sweep,
    tdp_sweep,
)


class TestSweepResult:
    def make(self):
        return SweepResult(
            title="t",
            x_label="x",
            x_values=(1.0, 2.0, 3.0),
            managers=("A", "B"),
            qos={"A": [10, 20, 30], "B": [10, 25, 40]},
            power={"A": [1.0, 2.0, 3.0], "B": [1.04, 3.0, 5.0]},
        )

    def test_format(self):
        text = self.make().format_text()
        assert "A QoS" in text and "B W" in text
        assert "1.00" in text

    def test_crossover_found(self):
        assert self.make().crossover("A", "B", "power") == 1.0

    def test_crossover_absent(self):
        result = self.make()
        result.power["A"] = [9.0, 9.0, 9.0]
        assert result.crossover("A", "B", "power") is None


class TestSweeps:
    def test_tdp_sweep_small(self):
        result = tdp_sweep(
            budgets=(6.0, 3.0),
            managers=("SPECTR", "MM-Pow"),
        )
        assert len(result.x_values) == 2
        # Generous budget: SPECTR saves power.
        assert result.power["SPECTR"][0] < result.power["MM-Pow"][0]
        # Tight budget: both track it.
        assert result.power["SPECTR"][1] == pytest.approx(3.0, abs=0.5)
        assert result.power["MM-Pow"][1] == pytest.approx(3.0, abs=0.5)

    def test_qos_sweep_small(self):
        result = qos_reference_sweep(
            references=(40.0, 75.0),
            managers=("SPECTR", "MM-Perf"),
        )
        # Attainable point: both meet it.
        assert result.qos["SPECTR"][0] == pytest.approx(40.0, rel=0.05)
        assert result.qos["MM-Perf"][0] == pytest.approx(40.0, rel=0.05)
        # Unattainable point: SPECTR obeys the budget, MM-Perf breaks it.
        assert result.power["SPECTR"][1] <= 5.2
        assert result.power["MM-Perf"][1] > 5.2
