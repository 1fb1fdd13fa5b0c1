"""Suppression (`# repro: noqa[...]`) parsing and filtering tests."""

from repro.analysis.findings import Finding, Severity
from repro.analysis.suppress import (
    collect_suppressions,
    comment_tokens,
    filter_findings,
)


def collect(source):
    return collect_suppressions(comment_tokens(source), "m.py")


def finding(line, rule="REPRO-F004"):
    return Finding(
        path="m.py", line=line, rule=rule, severity=Severity.ERROR, message="x"
    )


class TestCollectSuppressions:
    def test_single_and_multiple_ids(self):
        source = (
            "x = 1  # repro: noqa[REPRO-L006]\n"
            "y = 2  # repro: noqa[REPRO-F003, REPRO-F004]\n"
        )
        suppressions, findings = collect(source)
        assert findings == []
        assert suppressions[1] == frozenset({"REPRO-L006"})
        assert suppressions[2] == frozenset({"REPRO-F003", "REPRO-F004"})

    def test_unknown_rule_id_is_n001(self):
        suppressions, findings = collect("x = 1  # repro: noqa[REPRO-BOGUS]\n")
        assert suppressions == {}
        assert [f.rule for f in findings] == ["REPRO-N001"]
        assert "REPRO-BOGUS" in findings[0].message

    def test_empty_bracket_is_n001(self):
        _suppressions, findings = collect("x = 1  # repro: noqa[]\n")
        assert [f.rule for f in findings] == ["REPRO-N001"]

    def test_docstring_mention_is_not_a_suppression(self):
        source = '"""Use `# repro: noqa[REPRO-L006]` to suppress."""\n'
        suppressions, findings = collect(source)
        assert suppressions == {}
        assert findings == []

    def test_mid_comment_mention_is_not_a_suppression(self):
        source = "# the marker (`# repro: noqa[RULE]`) is documented here\n"
        suppressions, findings = collect(source)
        assert suppressions == {}
        assert findings == []


class TestFilterFindings:
    def test_suppressed_line_and_rule_dropped(self):
        kept = filter_findings(
            [finding(3), finding(4)], {3: frozenset({"REPRO-F004"})}
        )
        assert [f.line for f in kept] == [4]

    def test_other_rule_on_same_line_kept(self):
        kept = filter_findings(
            [finding(3, rule="REPRO-F001")], {3: frozenset({"REPRO-F004"})}
        )
        assert len(kept) == 1

    def test_n001_is_never_suppressible(self):
        kept = filter_findings(
            [finding(3, rule="REPRO-N001")], {3: frozenset({"REPRO-N001"})}
        )
        assert [f.rule for f in kept] == ["REPRO-N001"]
