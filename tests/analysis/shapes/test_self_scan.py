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
        # numpy's refill loop is declared, not defined, in the source:
        # the one non-static function that is not an entry point.
        numpy_fill = functions.pop("random_standard_normal_fill")
        assert [p.decl for p in numpy_fill.params] == [
            "bitgen_t *",
            "intptr_t",
            "double *",
        ]
        assert set(functions) == {
            "fused_servo_step",
            "plant_tick",
            "opp_snap",
            "noise_fill",
        }
        # Each per-call entry point reads one argument block, so its
        # whole ABI is a single pointer to the C ``arg`` union array.
        for name, function in functions.items():
            (param,) = function.params
            assert param.kind == "pointer", name
            assert param.decl == "const arg *", name
            assert function.returns == "void", name
