"""Serial-vs-parallel-vs-cached equivalence and determinism.

The engine's contract is that worker count and cache state are pure
performance knobs: the same job list produces bit-identical results
serially (workers=1), across a spawn pool (workers=4), and from a warm
cache.  These tests drive the real migrated callers — the TDP sweep and
the resilience fault campaign — through all three paths and require
exact equality of their result objects / canonical JSON.
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.exec.engine import ExperimentEngine
from repro.resilience.campaign import CampaignConfig, run_campaign
from tests.exec.golden import golden_job

SWEEP_BUDGETS = (5.5, 3.5)
SWEEP_MANAGERS = ("SPECTR", "MM-Pow")


@pytest.fixture(scope="module")
def smoke_config() -> CampaignConfig:
    return CampaignConfig.smoke()


class TestSweepEquivalence:
    @pytest.fixture(scope="class")
    def sweep_runs(self, exec_cache):
        from repro.experiments.sweeps import tdp_sweep

        def run(workers: int):
            engine = ExperimentEngine(max_workers=workers, cache=exec_cache)
            result = tdp_sweep(
                budgets=SWEEP_BUDGETS,
                managers=SWEEP_MANAGERS,
                engine=engine,
            )
            return result, engine.last_records

        serial, serial_records = run(1)
        parallel, parallel_records = run(4)
        return serial, serial_records, parallel, parallel_records

    def test_parallel_equals_serial(self, sweep_runs):
        serial, _, parallel, _ = sweep_runs
        assert serial.qos == parallel.qos  # exact float equality
        assert serial.power == parallel.power
        assert serial.format_text() == parallel.format_text()

    def test_second_run_was_served_from_cache(self, sweep_runs):
        _, _, _, parallel_records = sweep_runs
        assert all(r.cache_hit for r in parallel_records)

    def test_engine_equals_legacy_serial_loop(self, sweep_runs):
        from repro.experiments.sweeps import tdp_sweep

        serial, _, _, _ = sweep_runs
        legacy = tdp_sweep(
            budgets=SWEEP_BUDGETS, managers=SWEEP_MANAGERS
        )
        assert legacy.qos == serial.qos
        assert legacy.power == serial.power

    def test_systems_and_engine_are_mutually_exclusive(self, exec_cache):
        from repro.experiments.figures import identified_systems
        from repro.experiments.sweeps import tdp_sweep

        with pytest.raises(ValueError, match="not both"):
            tdp_sweep(
                systems=identified_systems(),
                engine=ExperimentEngine(cache=exec_cache),
            )


class TestCampaignEquivalence:
    @pytest.fixture(scope="class")
    def campaign_runs(self, smoke_config, exec_cache):
        """``(json, wall seconds, engine records)`` per execution path."""

        def run(workers: int | None):
            engine = (
                None
                if workers is None
                else ExperimentEngine(max_workers=workers, cache=exec_cache)
            )
            start = time.perf_counter()
            payload = run_campaign(smoke_config, engine=engine).to_json()
            elapsed = time.perf_counter() - start
            return payload, elapsed, engine.last_records if engine else []

        return {
            "legacy": run(None),
            "serial": run(1),  # first engine pass: executes every cell
            "parallel": run(4),
            "cached": run(1),  # second engine pass: all cache hits
        }

    def test_all_paths_identical(self, campaign_runs):
        assert len({payload for payload, _, _ in campaign_runs.values()}) == 1

    def test_warm_cache_beats_cold_serial(self, campaign_runs):
        # Measured 137x on a 2-CPU x86 box.
        _, serial_s, serial_records = campaign_runs["serial"]
        _, cached_s, cached_records = campaign_runs["cached"]
        assert not any(r.cache_hit for r in serial_records)
        assert all(r.cache_hit for r in cached_records)
        speedup = serial_s / cached_s
        assert speedup >= 5.0, (
            f"warm cache only {speedup:.1f}x faster than the cold serial run"
        )


class TestTraceDeterminism:
    def test_rerun_is_bit_identical(self):
        from repro.exec.engine import _worker_execute

        _, first, _ = _worker_execute(golden_job("SPECTR"))
        _, second, _ = _worker_execute(golden_job("SPECTR"))
        assert np.array_equal(first.qos, second.qos)
        assert np.array_equal(first.chip_power, second.chip_power)
        assert first.gain_sets == second.gain_sets


class TestSharedStateHazards:
    """Regressions for latent hazards the engine migration surfaced."""

    def test_actuation_log_is_per_instance(self, big_system, little_system):
        # managers.base once initialized actuation_log with a stray
        # dataclasses.field() call; a shared-list regression would let
        # one manager's records leak into another's.
        from repro.managers.base import ManagerGoals
        from repro.managers.mm import mm_pow
        from repro.platform.soc import ExynosSoC

        def build():
            return mm_pow(
                ExynosSoC(),
                ManagerGoals(qos_reference=60.0, power_budget_w=5.0),
                big_system=big_system,
                little_system=little_system,
            )

        first, second = build(), build()
        assert first.actuation_log == []
        first.actuation_log.append("marker")
        assert second.actuation_log == []

    def test_scenario_trace_with_resilience_events_pickles(
        self, smoke_config
    ):
        # Campaign traces carry guard/invariant/degrade event records;
        # all of them must survive the spawn boundary.
        from repro.resilience.campaign import _run_one

        run = _run_one("SPECTR", smoke_config, "stuck")
        clone = pickle.loads(pickle.dumps(run))
        assert clone.to_json_dict() == run.to_json_dict()

    def test_campaign_config_is_digest_stable(self, smoke_config):
        from repro.resilience.campaign import campaign_jobs

        digests = [job.digest() for job in campaign_jobs(smoke_config)]
        assert len(set(digests)) == len(digests)  # every cell distinct
        again = [job.digest() for job in campaign_jobs(smoke_config)]
        assert digests == again
