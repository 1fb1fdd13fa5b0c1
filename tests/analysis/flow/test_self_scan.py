"""Repo self-scan: the flow analyzer gates src/repro with zero
non-baselined findings — the acceptance criterion of the flow gate."""

import ast
from pathlib import Path

import pytest

from repro.analysis.flow import Baseline, analyze_project, apply_baseline
from repro.analysis.flow.rules import _HOT_PATH_ALLOWED, check_hot_path_purity
from repro.analysis.lint import STEP_KERNEL_ALLOWED_FUNCTIONS

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
        # The allowlist, not the baseline, exempts the step-kernel
        # reductions in soc.py whose numpy call order is the golden-trace
        # bit-identity contract, and the run-once probes.
        assert not result.report.errors
        exempted = check_hot_path_purity(result.graph)
        assert exempted, "expected the deliberate F003 exemptions to surface"
        for finding in exempted:
            assert finding.rule == "REPRO-F003"
            qualname = finding.message.split(" in ")[1].split(" ")[0]
            assert qualname.rsplit(".", 1)[1] in _HOT_PATH_ALLOWED
        assert {
            "repro.platform.soc._telemetry_with_idle_insertion",
            "repro.platform.soc._idle_adjusted_capacity",
        } <= {f.message.split(" in ")[1].split(" ")[0] for f in exempted}


def _defined_function_names(root: Path) -> set[str]:
    names = set()
    for path in root.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names.update(
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
    return names


def test_allowlisted_functions_exist():
    # An allowlist entry whose function is gone would silently exempt
    # any future function that takes its name.
    defined = _defined_function_names(SRC_REPRO)
    assert STEP_KERNEL_ALLOWED_FUNCTIONS <= _HOT_PATH_ALLOWED
    for allowlist in (_HOT_PATH_ALLOWED, STEP_KERNEL_ALLOWED_FUNCTIONS):
        assert sorted(allowlist - defined) == []
