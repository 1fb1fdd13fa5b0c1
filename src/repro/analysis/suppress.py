"""Inline finding suppressions: ``# repro: noqa[RULE-ID, ...]``.

A source line carrying the comment suppresses findings of the named
rules **on that physical line** (the line the finding anchors at — for
multi-line statements, put the comment on the statement's first line).
The marker is deliberately namespaced (``repro:``) so it cannot collide
with flake8/ruff ``noqa`` handling, and deliberately requires explicit
rule ids: there is no blanket ``noqa`` — every suppression names what it
silences and is validated against the rule registry.  A suppression
naming an unknown rule id is itself an error finding (``REPRO-N001``,
the lint-of-the-lint), so a typo cannot silently disable nothing.

Every tier honors the same markers through this module: the module
pass (:mod:`repro.analysis.project`) collects each module's map once
and every tier filters its findings with it.
"""

from __future__ import annotations

import io
import re
import tokenize

from repro.analysis.findings import Finding, Severity, known_rule_ids

__all__ = [
    "SUPPRESSION_PATTERN",
    "collect_suppressions",
    "comment_tokens",
    "filter_findings",
]

# `# repro: noqa[REPRO-L006]` / `# repro: noqa[REPRO-F003, REPRO-F004]`
# Anchored at the comment start: a comment (or docstring) merely
# *mentioning* the syntax mid-text is not a suppression.
SUPPRESSION_PATTERN = re.compile(
    r"^#\s*repro:\s*noqa\[(?P<ids>[^\]]*)\]"
)


def comment_tokens(source: str) -> list[tuple[int, str]]:
    """(lineno, text) for each comment token of a module that mentions
    ``repro:`` (suppressions and shape contracts); [] otherwise, and
    the comments read so far if tokenization fails."""
    comments: list[tuple[int, str]] = []
    if "repro:" not in source:  # cheap pre-filter for the common case
        return comments
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # broken source is REPRO-L000's problem, not ours
    return comments


def collect_suppressions(
    comments: list[tuple[int, str]], path: str
) -> tuple[dict[int, frozenset[str]], list[Finding]]:
    """Parse suppression markers out of a module's ``comments``
    (:func:`comment_tokens`).

    Returns ``(suppressions, findings)`` where ``suppressions`` maps a
    1-based line number to the rule ids suppressed on that line, and
    ``findings`` holds one ``REPRO-N001`` error per id that is not in
    the rule registry (including an empty bracket list).
    """
    known = known_rule_ids()
    suppressions: dict[int, frozenset[str]] = {}
    findings: list[Finding] = []
    for lineno, comment in comments:
        match = SUPPRESSION_PATTERN.match(comment)
        if match is None:
            continue
        ids = tuple(
            part.strip() for part in match.group("ids").split(",") if part.strip()
        )
        if not ids:
            findings.append(
                Finding(
                    path=path,
                    line=lineno,
                    rule="REPRO-N001",
                    severity=Severity.ERROR,
                    message="empty suppression `# repro: noqa[]`; name the "
                    "rule ids being silenced",
                )
            )
            continue
        valid = frozenset(rule for rule in ids if rule in known)
        for rule in ids:
            if rule not in known:
                findings.append(
                    Finding(
                        path=path,
                        line=lineno,
                        rule="REPRO-N001",
                        severity=Severity.ERROR,
                        message=f"suppression names unknown rule id {rule!r}; "
                        "see repro.analysis.findings.RULE_REGISTRY",
                    )
                )
        if valid:
            suppressions[lineno] = valid
    return suppressions, findings


def filter_findings(
    findings: list[Finding],
    suppressions: dict[int, frozenset[str]],
) -> list[Finding]:
    """Drop findings whose (line, rule) is suppressed.

    ``REPRO-N001`` findings are never suppressible — a suppression
    cannot vouch for itself.
    """
    if not suppressions:
        return list(findings)
    return [
        f
        for f in findings
        if f.rule == "REPRO-N001"
        or f.rule not in suppressions.get(f.line, frozenset())
    ]
