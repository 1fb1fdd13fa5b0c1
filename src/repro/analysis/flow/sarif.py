"""JSON and SARIF 2.1.0 emitters for every analyzer tier's report.

The JSON payload is the machine-readable twin of
:meth:`repro.analysis.findings.Report.format_text` — stable keys, sorted
findings, plus the scan statistics the benchmark asserts on.  The SARIF
payload follows the OASIS SARIF 2.1.0 schema closely enough for GitHub
code-scanning upload: one ``run`` per tier with a rule catalogue drawn
from :data:`repro.analysis.findings.RULE_REGISTRY` and one ``result``
per finding.
"""

from __future__ import annotations

import json
from typing import Any

from repro import __version__
from repro.analysis.findings import RULE_REGISTRY, Finding, Report, Severity

__all__ = [
    "SARIF_VERSION",
    "report_to_json",
    "reports_to_json",
    "reports_to_sarif",
]

SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_SARIF_LEVELS = {
    Severity.INFO: "note",
    Severity.WARNING: "warning",
    Severity.ERROR: "error",
}


def _finding_payload(finding: Finding) -> dict[str, Any]:
    return {
        "path": finding.path,
        "line": finding.line,
        "rule": finding.rule,
        "severity": str(finding.severity),
        "message": finding.message,
    }


def _json_payload(
    report: Report, stats: dict[str, Any] | None, tool_name: str
) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "schema": f"{tool_name}-report/1",
        "tool": {"name": tool_name, "version": __version__},
        "summary": {
            "files_checked": report.files_checked,
            "errors": report.count(Severity.ERROR),
            "warnings": report.count(Severity.WARNING),
            "notes": report.count(Severity.INFO),
            "ok": report.ok,
        },
        "findings": [_finding_payload(f) for f in report],
    }
    if stats is not None:
        payload["stats"] = stats
    return payload


def report_to_json(
    report: Report,
    stats: dict[str, Any] | None = None,
    *,
    tool_name: str = "repro-flow",
) -> str:
    return json.dumps(_json_payload(report, stats, tool_name), indent=2) + "\n"


def reports_to_json(
    reports: list[tuple[str, Report, dict[str, Any] | None]],
) -> str:
    """One JSON document with one payload per (tool_name, report,
    stats) tier, under ``"tiers"``."""
    payloads = [_json_payload(r, stats, name) for name, r, stats in reports]
    return json.dumps({"tiers": payloads}, indent=2) + "\n"


def _sarif_run(report: Report, tool_name: str) -> dict[str, Any]:
    """One SARIF ``run`` object for one analyzer's report."""
    emitted_rules = sorted({f.rule for f in report})
    rules = [
        {
            "id": rule,
            "name": rule.replace("-", ""),
            "shortDescription": {
                "text": RULE_REGISTRY.get(rule, "unregistered rule")
            },
        }
        for rule in emitted_rules
    ]
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    results = [
        {
            "ruleId": finding.rule,
            "ruleIndex": rule_index[finding.rule],
            "level": _SARIF_LEVELS[finding.severity],
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {"startLine": max(finding.line, 1)},
                    }
                }
            ],
        }
        for finding in report
    ]
    return {
        "tool": {
            "driver": {
                "name": tool_name,
                "informationUri": "https://example.invalid/repro",
                "version": __version__,
                "rules": rules,
            }
        },
        "results": results,
    }


def reports_to_sarif(reports: list[tuple[str, Report]]) -> str:
    """One SARIF document with one run per (tool_name, report) pair.

    ``python -m repro.analysis all --report-dir`` writes one for every
    tier: CI uploads a single ``analysis-report.sarif`` artifact in
    which each analyzer tier remains an individually attributable run.
    """
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [_sarif_run(report, tool_name) for tool_name, report in reports],
    }
    return json.dumps(payload, indent=2) + "\n"
