"""Shared helpers for the shapes-analyzer tests."""

import textwrap
from pathlib import Path

import pytest

import repro.analysis.project as analysis_project

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def write_project(root: Path, files: dict[str, str]) -> Path:
    """Lay out a mini-project of dedented sources under ``root``."""
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


@pytest.fixture
def project(tmp_path):
    def _make(files: dict[str, str]) -> Path:
        return write_project(tmp_path, files)

    return _make


def scan_source(source: str, path: str = "mod.py"):
    """Scan one dedented source string; returns the sorted S-findings."""
    record = analysis_project.scan_source(textwrap.dedent(source), path, "mod")
    return list(record.shapes)


def triples(findings):
    return [(f.line, f.rule, f.message) for f in findings]
