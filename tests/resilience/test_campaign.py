"""Tests for the fault-campaign harness and its CLI."""

import json

import pytest

from repro.resilience.campaign import (
    CampaignConfig,
    run_campaign,
)
from repro.resilience.cli import _build_engine, build_parser, main

TINY = CampaignConfig(
    managers=("SPECTR",),
    sensor_kinds=("dropout",),
    actuator_kinds=("reject",),
    phase_duration_s=1.0,
    fault_start_s=0.3,
    fault_duration_s=0.5,
)


class TestConfig:
    def test_unknown_manager_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(managers=("SPECTR", "nope"))

    @pytest.mark.parametrize(
        "axis, value, valid",
        [
            ("target", "mid", "('big', 'little')"),
            ("sensor_kinds", ("stuck", "wobble"), "'stuck', 'dropout'"),
            ("actuator_kinds", ("melt",), "'reject', 'clamp'"),
        ],
    )
    def test_unknown_axis_value_rejected_naming_the_valid_ones(
        self, axis, value, valid
    ):
        # Rejected at construction, not later as a failing faulted cell.
        with pytest.raises(ValueError, match=f"unknown {axis}") as caught:
            CampaignConfig(**{axis: value})
        assert valid in str(caught.value)

    def test_bad_fault_window_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(fault_duration_s=0.0)

    def test_smoke_is_spectr_only(self):
        smoke = CampaignConfig.smoke()
        assert smoke.managers == ("SPECTR",)
        assert smoke.fault_end_s <= 3 * smoke.phase_duration_s


class TestCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(TINY)

    def test_one_run_per_fault_kind_plus_baseline(self, result):
        assert len(result.runs) == 2
        assert set(result.baselines) == {"SPECTR"}
        assert {r.fault_kind for r in result.runs} == {"dropout", "reject"}
        assert result.baselines["SPECTR"].fault_class == "none"

    def test_zero_violations(self, result):
        assert result.total_violations == 0

    def test_dropout_run_exercised_the_guard(self, result):
        dropout = next(r for r in result.runs if r.fault_kind == "dropout")
        assert dropout.guard_substitutions > 0
        assert dropout.guard_quarantines >= 1

    def test_json_is_deterministic_across_runs(self):
        first = run_campaign(TINY).to_json()
        second = run_campaign(TINY).to_json()
        assert first == second

    def test_json_payload_is_well_formed(self, result):
        payload = json.loads(result.to_json())
        assert payload["total_violations"] == 0
        assert payload["config"]["seed"] == TINY.seed
        assert len(payload["runs"]) == 2
        for run in payload["runs"]:
            assert set(run) >= {
                "manager",
                "fault_kind",
                "qos_mae",
                "violations_by_rule",
            }

    def test_markdown_report_structure(self, result):
        report = result.format_markdown()
        assert "# Fault campaign" in report
        assert "| manager |" in report
        assert "total invariant violations: 0" in report


class TestCLI:
    def test_smoke_exits_zero(self, capsys, tmp_path):
        json_path = tmp_path / "campaign.json"
        code = main(["--smoke", "--json", str(json_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "total invariant violations: 0" in out
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["total_violations"] == 0
        # SPECTR x (4 sensor + 5 actuator kinds)
        assert len(payload["runs"]) == 9

    def test_smoke_is_seed_deterministic(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["--smoke", "--json", str(first)]) == 0
        assert main(["--smoke", "--json", str(second)]) == 0
        capsys.readouterr()
        assert first.read_text(encoding="utf-8") == second.read_text(
            encoding="utf-8"
        )

    def test_no_degrade_flag(self, capsys):
        code = main(["--smoke", "--no-degrade"])
        capsys.readouterr()
        assert code == 0


class TestEngineFlags:
    """The campaign always runs on an engine; its flags decide only
    where the cells run and whether results are cached or journaled."""

    @pytest.mark.parametrize(
        ("flags", "cached"),
        [
            ([], False),
            (["--workers", "2"], True),
            (["--workers", "2", "--no-cache"], False),
            (["--cache-dir", "cache"], True),
            (["--journal", "run.jsonl"], True),
            (["--journal", "run.jsonl", "--no-cache"], False),
        ],
    )
    def test_cache_and_journal_follow_the_flags(
        self, monkeypatch, tmp_path, flags, cached
    ):
        monkeypatch.chdir(tmp_path)
        engine = _build_engine(build_parser().parse_args(flags))
        assert (engine.cache is not None) == cached
        assert (engine.journal is not None) == ("--journal" in flags)
        assert engine.max_workers == (2 if "--workers" in flags else 1)
