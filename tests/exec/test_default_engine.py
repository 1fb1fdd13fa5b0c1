"""Sweeps, ablations and the fault campaign run every cell through an
experiment engine; without ``engine=`` they build a default one
(in-process, no cache, no journal).  A failing cell therefore surfaces
as the engine's :class:`EngineError`, quoting the cell's label."""

from __future__ import annotations

import pytest

from repro.exec.engine import EngineError


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


class TestFailingCell:
    def test_sweep(self, monkeypatch):
        from repro.experiments.sweeps import tdp_sweep

        monkeypatch.setattr("repro.exec.scenario_jobs.run_scenario", _boom)
        with pytest.raises(EngineError) as caught:
            tdp_sweep(budgets=(5.5,), managers=("SPECTR",))
        assert "1/1 jobs failed:\ntdp[5.5] SPECTR: RuntimeError: boom" in str(
            caught.value
        )

    def test_ablation(self, monkeypatch):
        from repro.experiments.ablations import ablate_supervisor_period

        monkeypatch.setattr("repro.exec.scenario_jobs.run_scenario", _boom)
        with pytest.raises(EngineError) as caught:
            ablate_supervisor_period(periods=(2,))
        assert (
            "1/1 jobs failed:\nablation: period 2 (100 ms): "
            "RuntimeError: boom"
        ) in str(caught.value)

    def test_campaign(self, monkeypatch):
        from repro.resilience.campaign import CampaignConfig, run_campaign

        monkeypatch.setattr("repro.resilience.campaign.run_scenario", _boom)
        config = CampaignConfig(
            managers=("SPECTR",), sensor_kinds=("stuck",), actuator_kinds=()
        )
        with pytest.raises(EngineError) as caught:
            run_campaign(config)
        message = str(caught.value)
        assert message.startswith("2/2 jobs failed:\n")
        assert "campaign: SPECTR/baseline: RuntimeError: boom" in message
        assert "campaign: SPECTR/stuck: RuntimeError: boom" in message
