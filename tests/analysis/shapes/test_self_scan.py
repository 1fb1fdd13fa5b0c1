"""Repo self-scan: the shapes analyzer gates src/repro with zero
non-baselined findings — the acceptance criterion of the shapes gate.

Unlike the flow tier (whose baseline carries the deliberate F003
exemptions), the shapes baseline is *empty*: the contracted kernels
pass the abstract interpreter outright, including the ctypes ABI
cross-check of the embedded C kernels.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.flow.baseline import Baseline, apply_baseline
from repro.analysis.shapes import analyze_project

REPO = Path(__file__).resolve().parents[3]
SRC_REPRO = REPO / "src" / "repro"
BASELINE = REPO / "shapes-baseline.json"


@pytest.fixture(scope="module")
def scan():
    result = analyze_project([SRC_REPRO])
    result.report.findings = apply_baseline(
        result.report.findings, Baseline.load(BASELINE)
    )
    return result


class TestSelfScan:
    def test_baseline_file_is_checked_in_and_empty(self):
        assert BASELINE.is_file()
        payload = json.loads(BASELINE.read_text(encoding="utf-8"))
        assert payload["entries"] == []

    def test_zero_findings(self, scan):
        assert list(scan.report) == [], scan.report.format_text()

    def test_scan_covers_the_whole_package(self, scan):
        assert scan.stats.modules_total > 100

    def test_kernel_modules_are_contracted(self, scan):
        contracted = {
            name for name, r in scan.records.items() if r.contracted
        }
        assert {
            "repro.platform.fleet",
            "repro.control.batch",
            "repro.control.statespace",
            "repro.control.lqg",
        } <= contracted

    def test_fused_abi_is_cross_checked(self, scan):
        # The embedded C kernels must actually be parsed — an S004
        # check that silently saw no C functions would prove nothing.
        from repro.analysis.shapes.csig import parse_c_functions

        import repro.control.fused as fused

        functions = parse_c_functions(fused._C_SOURCE)
        assert "fused_servo_step" in functions
        # The parameter this analyzer caught mis-bound as c_longlong in
        # the original binding really is a pointer in the C source.
        params = {p.name: p for p in functions["fused_servo_step"].params}
        assert params["max_step"].kind == "pointer"
        assert params["max_step"].decl == "const double *"
        # Per-row gain ids are the servo's int8 gain_ids buffer; the
        # gain-pack table is a pointer, not an integer handle.
        assert params["gain_ids"].kind == "pointer"
        assert params["gain_ids"].decl == "const signed char *"
        assert params["packs"].kind == "pointer"
