"""End-to-end gate: run ``python -m repro.analysis`` in-process.

The same invocations ``scripts/check.sh`` wires into CI: the repo's own
``src/`` tree must come back clean from the classic tier (lint and
architecture) and from ``all``, and the seeded bad-artifact fixtures
must fail the model tier with a ``file:line`` finding.
"""

from pathlib import Path

from repro.analysis.cli import analyze_paths, main
from repro.analysis.findings import Severity

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "analysis" / "fixtures"


class TestCleanTree:
    def test_src_tree_exits_zero(self, capsys):
        assert main([str(REPO / "src")]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out

    def test_src_tree_report_counts(self):
        report = analyze_paths([REPO / "src"])
        assert report.ok
        assert report.files_checked > 50
        assert report.errors == ()
        assert report.count(Severity.WARNING) == 0

    def test_every_tier_on_src_and_artifacts_exits_zero(
        self, monkeypatch, capsys
    ):
        # The committed case study's forbidden Threshold.Locked state is
        # not blocking, and each tier's committed baseline applies.
        monkeypatch.chdir(REPO)
        assert main(["all", "--no-cache", "src", "artifacts"]) == 0
        merged = capsys.readouterr().out.splitlines()[-1].split()
        # merged, files, errors, warnings, notes
        assert merged[0] == "merged"
        assert merged[2:] == ["0", "0", "0"]


class TestSeededBadArtifacts:
    def test_nondeterministic_automaton_fails_with_location(self, capsys):
        path = FIXTURES / "nondeterministic_automaton.json"
        assert main(["models", "--no-cache", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}:1: error: REPRO-A002" in out

    def test_alphabet_mismatch_bundle_fails(self, capsys):
        bundle = FIXTURES / "alphabet_mismatch_bundle"
        assert main(["models", "--no-cache", str(bundle)]) == 1
        out = capsys.readouterr().out
        assert "REPRO-M004" in out
        # One report per defect: M007's re-synthesis, which could only
        # fail on the same conflict, is skipped.
        assert "REPRO-M007" not in out
        assert "1 errors" in out

    def test_fixture_dir_is_discovered_by_walking(self, capsys):
        # Walking the directory (not naming files) must still find both
        # seeded artifacts: one automaton JSON + one bundle dir.
        assert main(["models", "--no-cache", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "REPRO-A002" in out
        assert "REPRO-M004" in out


class TestSeverityGating:
    def test_warning_only_file_passes_unless_strict(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("def f(period):\n    return period\n")
        assert main([str(path)]) == 0
        capsys.readouterr()
        assert main(["--strict", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REPRO-L006" in out

    def test_nonexistent_path_fails_the_gate(self, capsys):
        # A typo'd path in CI must not pass green with "0 files checked".
        assert main([str(REPO / "no-such-dir")]) == 1
        out = capsys.readouterr().out
        assert "REPRO-C001" in out
        assert "does not exist" in out

    def test_artifact_only_path_fails_the_classic_form(self, capsys):
        # Artifacts are the model tier's: the bare form, which lints
        # Python only, must not pass them with "0 files checked".
        assert main(["--no-cache", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert (
            f"{FIXTURES}: error: REPRO-C001: input holds no Python module; "
            "check artifacts with `python -m repro.analysis models`"
        ) in out
        assert main(["--no-cache", str(REPO / "src"), str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert out.count("REPRO-C001") == 1

    def test_lint_error_fails_the_gate(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("def f(x=[]):\n    return x\n")
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}:1: error: REPRO-L001" in out
