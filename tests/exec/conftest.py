"""Fixtures for the experiment-engine suite."""

from __future__ import annotations

import pytest

from repro.exec.cache import ResultCache


@pytest.fixture(scope="session")
def exec_cache(tmp_path_factory) -> ResultCache:
    """One shared on-disk result cache for the whole suite; entries are
    per-job (content-addressed), so tests do not interfere."""
    return ResultCache(tmp_path_factory.mktemp("exec-cache"))
