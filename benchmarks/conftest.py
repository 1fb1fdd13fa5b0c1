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


BENCH_CACHE_DIR = Path(__file__).parent / ".exec-cache"


@pytest.fixture(scope="session")
def bench_cache():
    """The benchmark suite's persistent on-disk result cache."""
    from repro.exec.cache import ResultCache

    return ResultCache(BENCH_CACHE_DIR)


@pytest.fixture(scope="session", autouse=True)
def warm_identification_cache(bench_cache):
    """Warm all shared design artifacts once so individual benchmarks
    time their own computation, not the setup.

    The big/little/full models load from the committed
    ``artifacts/design/``, the verified supervisor from the persistent
    exec artifact cache (derived on the very first benchmark run,
    loaded from disk afterwards); the benchmark-only per-core model is
    identified on top.
    """
    from repro.exec.artifacts import prime_process
    from repro.experiments.figures import identified_systems

    prime_process(bench_cache)
    identified_systems(with_percore=True)
