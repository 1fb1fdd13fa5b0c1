"""Suppression and baseline interplay for the shapes tier.

The S-rules ride the same ``# repro: noqa[...]`` and baseline machinery
as every other tier: suppressions must name real rule ids (REPRO-N001
polices typos) and baseline entries must still match a live finding
(REPRO-N002 polices staleness).
"""

import json

from repro.analysis.flow.baseline import Baseline, apply_baseline
from repro.analysis.shapes import analyze_project

from tests.analysis.shapes.conftest import write_project

MISMATCH = """\
def f(a, b):
    # repro: shape[a: (N, p) f8; b: (N, m) f8; -> ?]
    return a + b{noqa}
"""


def _scan(tmp_path, *, noqa="", name="pkg/bad.py"):
    root = write_project(
        tmp_path, {"pkg/__init__.py": "", name: MISMATCH.format(noqa=noqa)}
    )
    return analyze_project([root / "pkg"])


class TestNoqaInterplay:
    def test_mismatch_fires_without_suppression(self, tmp_path):
        result = _scan(tmp_path)
        assert [f.rule for f in result.report] == ["REPRO-S001"]

    def test_noqa_s001_is_honored(self, tmp_path):
        result = _scan(tmp_path, noqa="  # repro: noqa[REPRO-S001]")
        assert list(result.report) == []

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        result = _scan(tmp_path, noqa="  # repro: noqa[REPRO-S002]")
        assert [f.rule for f in result.report] == ["REPRO-S001"]

    def test_unknown_s_id_is_n001(self, tmp_path):
        result = _scan(tmp_path, noqa="  # repro: noqa[REPRO-S099]")
        rules = sorted(f.rule for f in result.report)
        assert rules == ["REPRO-N001", "REPRO-S001"]
        n001 = next(f for f in result.report if f.rule == "REPRO-N001")
        assert "unknown rule id 'REPRO-S099'" in n001.message

    def test_empty_noqa_is_n001(self, tmp_path):
        result = _scan(tmp_path, noqa="  # repro: noqa[]")
        rules = sorted(f.rule for f in result.report)
        assert rules == ["REPRO-N001", "REPRO-S001"]


class TestBaselineInterplay:
    def _baseline_for(self, tmp_path, findings):
        path = tmp_path / "shapes-baseline.json"
        path.write_text(
            json.dumps(
                {
                    "schema": "flow-baseline/1",
                    "entries": [
                        {
                            "path": f.path,
                            "rule": f.rule,
                            "message": f.message,
                        }
                        for f in findings
                    ],
                }
            ),
            encoding="utf-8",
        )
        return Baseline.load(path)

    def test_baselined_finding_is_absorbed(self, tmp_path):
        raw = _scan(tmp_path)
        baseline = self._baseline_for(tmp_path, list(raw.report))
        root = tmp_path / "pkg"
        findings = analyze_project([root]).report.findings
        assert apply_baseline(findings, baseline) == []

    def test_stale_entry_is_n002(self, tmp_path):
        raw = _scan(tmp_path)
        baseline = self._baseline_for(tmp_path, list(raw.report))
        # Fix the bug the baseline vouched for; the entry goes stale.
        (tmp_path / "pkg" / "bad.py").write_text(
            MISMATCH.format(noqa="").replace("(N, m)", "(N, p)"),
            encoding="utf-8",
        )
        findings = analyze_project([tmp_path / "pkg"]).report.findings
        kept = apply_baseline(findings, baseline)
        assert [f.rule for f in kept] == ["REPRO-N002"]
        assert "stale baseline entry" in kept[0].message
