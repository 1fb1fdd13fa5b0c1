"""Benchmark-suite fixtures.

Each benchmark regenerates one table or figure of the paper and saves
its rendered text under ``benchmarks/results/`` so the reproduction
output can be inspected after a run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def save_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _save


@pytest.fixture(scope="session", autouse=True)
def warm_design_artifacts():
    """Warm all shared design artifacts once so individual benchmarks
    time their own computation, not the setup.

    The big/little/full models load from the committed
    ``artifacts/design/``, the verified supervisor is derived once per
    process, and the benchmark-only per-core model is identified on top.
    """
    from repro.experiments.figures import case_study_supervisor, identified_systems

    case_study_supervisor()
    identified_systems(with_percore=True)
