"""Fixtures for the benchmark suite's own tests.

Run with ``python -m pytest benchmarks/suite/tests``.  The suite's
modules are plain scripts one directory up, so that directory goes on
``sys.path``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parents[1]
if str(SUITE) not in sys.path:
    sys.path.insert(0, str(SUITE))


@pytest.fixture(scope="session", autouse=True)
def warm_identification_cache():
    """Replaces the paper-benchmark fixture of ``benchmarks/conftest.py``:
    the suite sets up its own child processes and needs no warm cache."""
