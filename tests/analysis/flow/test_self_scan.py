"""Repo self-scan: the flow analyzer gates src/repro with zero
non-baselined findings — the acceptance criterion of the flow gate."""

from pathlib import Path

import pytest

from repro.analysis.flow import Baseline, analyze_project, apply_baseline

REPO = Path(__file__).resolve().parents[3]
SRC_REPRO = REPO / "src" / "repro"
BASELINE = REPO / "analysis-baseline.json"


@pytest.fixture(scope="module")
def scan():
    result = analyze_project([SRC_REPRO])
    result.report.findings = apply_baseline(
        result.report.findings, Baseline.load(BASELINE)
    )
    return result


class TestSelfScan:
    def test_baseline_file_is_checked_in(self):
        assert BASELINE.is_file()

    def test_zero_non_baselined_findings(self, scan):
        assert list(scan.report) == [], scan.report.format_text()

    def test_no_stale_baseline_entries(self, scan):
        stale = [f for f in scan.report.findings if f.rule == "REPRO-N002"]
        assert stale == []

    def test_scan_covers_the_whole_package(self, scan):
        assert scan.stats.modules_total > 90
        assert scan.stats.functions > 700
        assert scan.stats.call_edges > 1000

    def test_without_baseline_only_known_hot_path_exemptions(self):
        result = analyze_project([SRC_REPRO])
        errors = result.report.errors
        # The only accepted findings are the allowlisted step-kernel
        # reductions in soc.py whose numpy call order is the golden-trace
        # bit-identity contract.
        assert errors, "expected the deliberate F003 exemptions to surface"
        for finding in errors:
            assert finding.rule == "REPRO-F003"
            assert finding.path.endswith("platform/soc.py")
            assert (
                "_telemetry_with_idle_insertion" in finding.message
                or "_idle_adjusted_capacity" in finding.message
            )
