"""Shared fixtures.

The big, little and full models are the committed ones every process
runs (``identified_systems()``); fresh identification is tested in
``tests/managers/test_identification.py`` and
``tests/managers/test_committed_design.py``.  The per-core model
identification and supervisor synthesis take ~1 s each, so they are
session-scoped and shared across the whole suite.
"""

from __future__ import annotations

import pytest

from repro.core.synthesis_flow import build_case_study_supervisor
from repro.experiments.figures import identified_systems
from repro.managers.identification import identify_percore_system


@pytest.fixture(scope="session")
def big_system():
    return identified_systems().big


@pytest.fixture(scope="session")
def little_system():
    return identified_systems().little


@pytest.fixture(scope="session")
def full_system():
    return identified_systems().full


@pytest.fixture(scope="session")
def percore_system():
    return identify_percore_system()


@pytest.fixture(scope="session")
def verified_supervisor():
    return build_case_study_supervisor()
