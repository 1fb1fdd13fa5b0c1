"""CLI tests for `python -m repro.analysis flow`."""

import json

from repro.analysis.cli import main
from repro.analysis.flow import analyze_project
from tests.analysis.flow.conftest import write_project

CLEAN = {"pkg/__init__.py": "", "pkg/mod.py": "def f(x):\n    return x\n"}
BAD = {
    "pkg/__init__.py": "",
    "pkg/mod.py": (
        "import numpy as np\n"
        "def f():\n"
        "    return np.random.default_rng()\n"
    ),
}


class TestFlowCli:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        write_project(tmp_path, CLEAN)
        monkeypatch.chdir(tmp_path)
        assert main(["flow", "--no-cache", "pkg"]) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_error_finding_exits_one(self, tmp_path, monkeypatch, capsys):
        write_project(tmp_path, BAD)
        monkeypatch.chdir(tmp_path)
        assert main(["flow", "--no-cache", "pkg"]) == 1
        assert "REPRO-F001" in capsys.readouterr().out

    def test_json_format(self, tmp_path, monkeypatch, capsys):
        write_project(tmp_path, BAD)
        monkeypatch.chdir(tmp_path)
        main(["flow", "--no-cache", "--format", "json", "pkg"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-flow-report/1"
        assert payload["summary"]["errors"] == 1
        assert payload["stats"]["modules_total"] == 2

    def test_sarif_format(self, tmp_path, monkeypatch, capsys):
        write_project(tmp_path, BAD)
        monkeypatch.chdir(tmp_path)
        main(["flow", "--no-cache", "--format", "sarif", "pkg"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        (run,) = payload["runs"]
        assert run["results"][0]["ruleId"] == "REPRO-F001"
        assert run["tool"]["driver"]["rules"][0]["id"] == "REPRO-F001"

    def test_write_and_use_baseline(self, tmp_path, monkeypatch, capsys):
        write_project(tmp_path, BAD)
        monkeypatch.chdir(tmp_path)
        assert main(["flow", "--no-cache", "--write-baseline", "pkg"]) == 0
        capsys.readouterr()
        # With the baseline in place the same scan passes.
        assert main(["flow", "--no-cache", "pkg"]) == 0

    def test_cache_dir_is_populated_and_reused(self, tmp_path, monkeypatch):
        write_project(tmp_path, CLEAN)
        monkeypatch.chdir(tmp_path)
        main(["flow", "--cache-dir", "cachedir", "pkg"])
        assert any((tmp_path / "cachedir").rglob("*.pkl"))
        assert main(["flow", "--cache-dir", "cachedir", "pkg"]) == 0

    def test_output_file(self, tmp_path, monkeypatch, capsys):
        write_project(tmp_path, CLEAN)
        monkeypatch.chdir(tmp_path)
        main(["flow", "--no-cache", "--format", "json", "--output", "r.json", "pkg"])
        assert json.loads((tmp_path / "r.json").read_text())["summary"]["ok"]

    def test_strict_fails_on_warnings(self, tmp_path, monkeypatch):
        write_project(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/mod.py": (
                    "def f(epoch_ms, dwell_s):\n"
                    "    return epoch_ms + dwell_s\n"
                ),
            },
        )
        monkeypatch.chdir(tmp_path)
        assert main(["flow", "--no-cache", "pkg"]) == 0
        assert main(["flow", "--no-cache", "--strict", "pkg"]) == 1

    def test_main_dispatches_flow_subcommand(self, tmp_path, monkeypatch, capsys):
        write_project(tmp_path, CLEAN)
        monkeypatch.chdir(tmp_path)
        assert main(["flow", "--no-cache", "pkg"]) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_custom_entry_pattern(self, tmp_path):
        # Hot-path entry points are an API option (the CLI uses the
        # step-kernel defaults).
        write_project(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/mod.py": (
                    "import numpy as np\n"
                    "def tick(values):\n"
                    "    return np.sum(values)\n"
                ),
            },
        )
        assert not analyze_project([tmp_path / "pkg"]).report.errors
        result = analyze_project(
            [tmp_path / "pkg"], entry_points=("pkg.mod.tick",)
        )
        assert [f.rule for f in result.report.errors] == ["REPRO-F003"]
