"""Tests for the shared Finding/Severity/Report core."""

import ast
import re
from pathlib import Path

import repro.analysis
from repro.analysis.findings import RULE_REGISTRY, Finding, Report, Severity

ANALYSIS = Path(repro.analysis.__file__).parent
RULE_ID = re.compile(r"REPRO-[A-Z]\d{3}")


def finding(severity, line=3, rule="REPRO-X001", path="src/mod.py"):
    return Finding(
        path=path, line=line, rule=rule, severity=severity, message="msg"
    )


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    def test_str_is_lowercase(self):
        assert str(Severity.ERROR) == "error"


class TestFinding:
    def test_format_includes_file_and_line(self):
        text = finding(Severity.ERROR).format()
        assert text.startswith("src/mod.py:3: error: REPRO-X001:")

    def test_format_without_line_omits_it(self):
        assert finding(Severity.INFO, line=0).format().startswith("src/mod.py: ")

    def test_sort_order_is_by_location(self):
        a = finding(Severity.ERROR, path="a.py", line=9)
        b = finding(Severity.WARNING, path="b.py", line=1)
        assert sorted([b, a]) == [a, b]


class TestReport:
    def test_empty_report_is_ok(self):
        report = Report()
        assert report.ok
        assert report.exit_code == 0
        assert len(report) == 0

    def test_error_fails_the_run(self):
        report = Report()
        report.add(finding(Severity.ERROR))
        assert not report.ok
        assert report.exit_code == 1
        assert report.errors == (finding(Severity.ERROR),)

    def test_warnings_alone_do_not_fail(self):
        report = Report()
        report.extend([finding(Severity.WARNING), finding(Severity.INFO)])
        assert report.ok
        assert report.exit_code == 0

    def test_summary_counts_by_severity(self):
        report = Report(files_checked=2, artifacts_checked=1)
        report.extend(
            [finding(Severity.ERROR), finding(Severity.WARNING, line=4)]
        )
        assert report.summary() == (
            "2 files, 1 artifacts checked: 1 errors, 1 warnings, 0 notes"
        )

    def test_format_text_filters_by_severity(self):
        report = Report()
        report.extend(
            [finding(Severity.ERROR), finding(Severity.WARNING, line=4)]
        )
        text = report.format_text(min_severity=Severity.ERROR)
        assert "error" in text
        assert "warning" not in text.splitlines()[0]


def _docstrings(tree):
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, owners) and ast.get_docstring(node) is not None:
            yield node.body[0].value


class TestRuleRegistry:
    def test_every_rule_id_in_the_analyzers_is_registered(self):
        mentioned = {
            rule
            for path in ANALYSIS.rglob("*.py")
            for rule in RULE_ID.findall(path.read_text(encoding="utf-8"))
        }
        assert mentioned - RULE_REGISTRY.keys() == set()

    def test_every_registered_rule_is_emitted(self):
        # An emitted id is a string constant in code, not in a docstring
        # and not in the registry itself.
        emitted = set()
        for path in ANALYSIS.rglob("*.py"):
            if path.name == "findings.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            docs = set(map(id, _docstrings(tree)))
            emitted.update(
                node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docs
                and RULE_ID.fullmatch(node.value)
            )
        assert RULE_REGISTRY.keys() - emitted == set()
