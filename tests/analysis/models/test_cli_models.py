"""CLI tests for ``python -m repro.analysis models``."""

import json

import pytest

from repro.analysis.cli import main
from repro.analysis.models.scan import scan_paths
from repro.automata.automaton import automaton_from_table
from repro.automata.events import Alphabet, controllable, uncontrollable
from repro.automata.serialization import automaton_to_dict
from repro.core.persistence import BUNDLE_FORMAT
from tests.analysis.models.conftest import write_model

SIGMA = Alphabet.of([controllable("go"), uncontrollable("fault")])


def _clean_plant():
    return automaton_from_table(
        "P",
        SIGMA,
        [("P0", "go", "P1"), ("P1", "fault", "P0")],
        initial="P0",
        marked=["P0"],
    )


def _blocking_plant():
    return automaton_from_table(
        "CapPlant",
        SIGMA,
        [
            ("Idle", "go", "Work"),
            ("Work", "go", "Idle"),
            ("Work", "fault", "Stuck"),
        ],
        initial="Idle",
        marked=["Idle"],
    )


def _chdir_with(tmp_path, monkeypatch, automaton, stem="plant"):
    write_model(tmp_path / "models" / f"{stem}.json", automaton)
    monkeypatch.chdir(tmp_path)


class TestModelsCli:
    def test_clean_model_exits_zero(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, _clean_plant())
        assert main(["models", "--no-cache", "models"]) == 0
        out = capsys.readouterr().out
        assert "1 files, 1 artifacts checked" in out
        assert "0 errors" in out

    def test_blocking_model_exits_one(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, _blocking_plant())
        assert main(["models", "--no-cache", "models"]) == 1
        assert "REPRO-M002" in capsys.readouterr().out

    def test_strict_promotes_warnings(self, tmp_path, monkeypatch, capsys):
        # Unreachable-state debris is warning-only: passes by default,
        # fails under --strict.
        debris = automaton_from_table(
            "D",
            SIGMA,
            [("Idle", "go", "Idle"), ("Orphan", "fault", "Orphan")],
            initial="Idle",
            marked=["Idle"],
        )
        _chdir_with(tmp_path, monkeypatch, debris)
        assert main(["models", "--no-cache", "models"]) == 0
        capsys.readouterr()
        assert main(["models", "--no-cache", "--strict", "models"]) == 1

    def test_missing_path_reports_c001(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["models", "--no-cache", "nowhere"]) == 1
        assert "REPRO-C001" in capsys.readouterr().out

    def test_json_format_carries_stats(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, _blocking_plant())
        main(["models", "--no-cache", "--format", "json", "models"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-models-report/1"
        assert payload["summary"]["errors"] == 1
        assert payload["stats"]["units_scanned"] == 1
        assert payload["stats"]["models_checked"] == 1

    def test_sarif_format(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, _blocking_plant())
        main(["models", "--no-cache", "--format", "sarif", "models"])
        payload = json.loads(capsys.readouterr().out)
        (run,) = payload["runs"]
        assert run["tool"]["driver"]["name"] == "repro-models"
        rule_ids = {r["ruleId"] for r in run["results"]}
        assert "REPRO-M002" in rule_ids

    def test_write_and_use_baseline(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, _blocking_plant())
        assert (
            main(["models", "--no-cache", "--write-baseline", "models"]) == 0
        )
        capsys.readouterr()
        # Accepted findings are filtered; scan passes, counters remain.
        assert main(["models", "--no-cache", "models"]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out
        assert (tmp_path / "models-baseline.json").is_file()

    def test_output_file(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, _blocking_plant())
        target = tmp_path / "report.sarif"
        main(
            [
                "models",
                "--no-cache",
                "--format",
                "sarif",
                "--output",
                str(target),
                "models",
            ]
        )
        assert "wrote" in capsys.readouterr().out
        assert json.loads(target.read_text(encoding="utf-8"))["runs"]

    def test_cache_dir_reused_across_runs(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, _clean_plant())
        cache_dir = tmp_path / "mc"
        argv = ["models", "--cache-dir", str(cache_dir), "--format", "json", "models"]
        main(argv)
        first = json.loads(capsys.readouterr().out)
        assert first["stats"]["cache_misses"] == 1
        main(argv)
        second = json.loads(capsys.readouterr().out)
        assert second["stats"]["cache_hits"] == 1
        assert any(cache_dir.rglob("*.pkl"))

    def test_bundle_manifest_unit(self, tmp_path, monkeypatch, capsys):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        manifest = {
            "format": BUNDLE_FORMAT,
            "supervisor": automaton_to_dict(_clean_plant()),
        }
        (bundle / "bundle.json").write_text(
            json.dumps(manifest), encoding="utf-8"
        )
        monkeypatch.chdir(tmp_path)
        assert main(["models", "--no-cache", "bundle"]) == 0
        assert "1 files, 1 artifacts checked" in capsys.readouterr().out

    def test_bundle_without_supervisor_is_a009(
        self, tmp_path, monkeypatch, capsys
    ):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "bundle.json").write_text(
            json.dumps({"format": BUNDLE_FORMAT}), encoding="utf-8"
        )
        monkeypatch.chdir(tmp_path)
        assert main(["models", "--no-cache", "bundle"]) == 1
        assert "REPRO-A009" in capsys.readouterr().out

    def test_undecodable_model_is_a001(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "models" / "plant.json"
        path.parent.mkdir(parents=True)
        path.write_text('{"name": "broken"}', encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["models", "--no-cache", "models"]) == 1
        out = capsys.readouterr().out
        assert "REPRO-A001" in out
        assert "missing required key(s)" in out

    def test_dispatch_through_analysis_main(
        self, tmp_path, monkeypatch, capsys
    ):
        _chdir_with(tmp_path, monkeypatch, _clean_plant())
        assert main(["models", "--no-cache", "models"]) == 0
        assert "artifacts checked" in capsys.readouterr().out


class TestPayloadGate:
    """Payload defects the loader rejects before decoding: each fails
    the model tier with its A-rule."""

    @pytest.mark.parametrize(
        ("overrides", "rule", "text"),
        [
            (
                {"marked": ["P0", "Ghost"]},
                "REPRO-A003",
                "marked state 'Ghost'",
            ),
            (
                {"forbidden": ["Ghost"]},
                "REPRO-A003",
                "forbidden state 'Ghost'",
            ),
            ({"initial": "Ghost"}, "REPRO-A003", "initial state 'Ghost'"),
            (
                {"initial": None},
                "REPRO-A005",
                "automaton 'P' has no initial state",
            ),
        ],
    )
    def test_bad_state_declaration_fails(
        self, tmp_path, monkeypatch, capsys, overrides, rule, text
    ):
        payload = {**automaton_to_dict(_clean_plant()), **overrides}
        path = tmp_path / "models" / "plant.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(payload), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["models", "--no-cache", "models"]) == 1
        out = capsys.readouterr().out
        assert f"error: {rule}: {text}" in out

    def test_blocking_closed_loop_is_m008_without_resynthesis(self, tmp_path):
        # The supervisor follows 'fault' but never re-enables 'go': it is
        # nonblocking alone (S1 is marked) and controllable ('go' is
        # controllable), yet the loop is stuck at P1.S1.
        plant = automaton_from_table(
            "P",
            SIGMA,
            [("P0", "fault", "P1"), ("P1", "go", "P0")],
            initial="P0",
            marked=["P0"],
        )
        supervisor = automaton_from_table(
            "S",
            SIGMA,
            [("S0", "fault", "S1")],
            initial="S0",
            marked=["S0", "S1"],
        )
        write_model(tmp_path / "unit" / "plant.json", plant)
        write_model(tmp_path / "unit" / "supervisor.json", supervisor)
        result = scan_paths([tmp_path / "unit"], resynthesize=False)
        (finding,) = result.report.errors
        assert finding.rule == "REPRO-M008"
        assert finding.message == (
            "closed loop (plant || supervisor) blocks: 1 blocking state(s) "
            "['P1.S1']; shortest counterexample trace to 'P1.S1': [fault]"
        )
