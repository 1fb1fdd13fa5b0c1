"""Serial-vs-parallel-vs-cached equivalence, oracles and determinism.

The engine's contract is that worker count and cache state are pure
performance knobs: the same job list produces bit-identical results
serially (workers=1), across a spawn pool (workers=4), and from a warm
cache.  These tests drive the engine's callers — the TDP sweep, the
ablation studies and the resilience fault campaign — through all three
paths and require exact equality of their result objects / canonical
JSON.  Each caller is also checked against an oracle written here: the
same cells run directly through ``run_scenario``, with managers and
faults built by the test itself.
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.exec.engine import ExperimentEngine
from repro.experiments.figures import case_study_supervisor, identified_systems
from repro.experiments.runner import run_scenario
from repro.managers.spectr import SPECTRManager
from repro.resilience.campaign import CampaignConfig, run_campaign
from repro.workloads import x264
from tests.exec.golden import golden_job

SWEEP_BUDGETS = (5.5, 3.5)
SWEEP_MANAGERS = ("SPECTR", "MM-Pow")
ORACLE_SERIES = ("qos", "chip_power", "big_frequency", "little_frequency")


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

    def test_each_cell_equals_a_direct_run(self, sweep_runs):
        from repro.experiments.sweeps import _single_phase_scenario
        from repro.managers.mm import mm_pow

        serial, _, _, _ = sweep_runs
        systems = identified_systems()
        builders = {
            "SPECTR": lambda soc, goals: SPECTRManager(
                soc,
                goals,
                big_system=systems.big,
                little_system=systems.little,
                verified_supervisor=case_study_supervisor(),
            ),
            "MM-Pow": lambda soc, goals: mm_pow(
                soc,
                goals,
                big_system=systems.big,
                little_system=systems.little,
            ),
        }
        for index, budget in enumerate(SWEEP_BUDGETS):
            for manager in SWEEP_MANAGERS:
                trace = run_scenario(
                    builders[manager],
                    x264(),
                    _single_phase_scenario(60.0, budget),
                    seed=2018,
                )
                metrics = trace.phase_metrics()[0]
                assert serial.qos[manager][index] == metrics.qos.mean
                assert serial.power[manager][index] == metrics.power.mean


class TestAblationOracle:
    """Every ablation variant equals a direct run of the SPECTR it
    names, built here with the constructor's own keywords."""

    @pytest.mark.parametrize(
        ("study", "expected"),
        [
            (
                "ablate_mechanisms",
                {
                    "SPECTR (full)": {},
                    "no gain scheduling": {
                        "enable_gain_scheduling": False,
                        "name": "SPECTR-noGS",
                    },
                    "no reference regulation": {
                        "enable_reference_regulation": False,
                        "name": "SPECTR-noRR",
                    },
                    "supervisor disabled": {
                        "enable_gain_scheduling": False,
                        "enable_reference_regulation": False,
                        "name": "SPECTR-none",
                    },
                },
            ),
            (
                "ablate_supervisor_period",
                {
                    f"period {p} ({p * 50} ms)": {
                        "supervisor_period_epochs": p,
                        "name": f"SPECTR-p{p}",
                    }
                    for p in (1, 2, 4, 10)
                },
            ),
        ],
    )
    def test_each_variant_equals_a_direct_run(self, study, expected):
        from repro.experiments import ablations
        from repro.experiments.scenario import three_phase_scenario

        result = getattr(ablations, study)()
        assert list(result.traces) == list(expected)
        systems = identified_systems()
        for variant, kwargs in expected.items():

            def build(soc, goals, kwargs=kwargs):
                return SPECTRManager(
                    soc,
                    goals,
                    big_system=systems.big,
                    little_system=systems.little,
                    verified_supervisor=case_study_supervisor(),
                    **kwargs,
                )

            direct = run_scenario(
                build, x264(), three_phase_scenario(), seed=2018
            )
            trace = result.traces[variant]
            assert trace.manager == direct.manager, variant
            assert trace.gain_sets == direct.gain_sets, variant
            for series in ORACLE_SERIES:
                assert np.array_equal(
                    getattr(trace, series), getattr(direct, series)
                ), (variant, series)


def _campaign_oracle(config: CampaignConfig) -> str:
    """The campaign's JSON, every cell run here through ``run_scenario``
    with the platform fault models built directly."""
    from repro.platform.faults import (
        ActuatorFaultModel,
        ActuatorProxy,
        FaultModel,
        inject_actuator_fault,
        inject_power_sensor_fault,
    )
    from repro.experiments.figures import manager_factory
    from repro.experiments.scenario import three_phase_scenario
    from repro.resilience.campaign import CampaignResult, _metrics_from_trace
    from repro.resilience.degrade import DegradationPolicy
    from repro.resilience.guard import TelemetryGuard
    from repro.resilience.monitor import InvariantMonitor
    from repro.resilience.pipeline import ResiliencePipeline

    magnitudes = {"clamp": 0.9, "partial": 0.3}

    def cell(manager_name, kind):
        def soc_setup(soc):
            if kind in FaultModel.VALID_KINDS:
                fault = FaultModel(
                    kind=kind,
                    start_s=config.fault_start_s,
                    end_s=config.fault_end_s,
                )
                inject_power_sensor_fault(soc, config.target, fault)
            elif kind is not None:
                fault = ActuatorFaultModel(
                    kind=kind,
                    start_s=config.fault_start_s,
                    end_s=config.fault_end_s,
                    magnitude=magnitudes.get(kind, 1.0),
                    probability=1.0,
                    delay_s=0.2,
                )
                inject_actuator_fault(
                    soc, config.target, fault, seed=config.seed
                )

        proxies = {}

        def manager_setup(manager):
            for cluster in (manager.soc.big, manager.soc.little):
                proxies[cluster.name] = ActuatorProxy(cluster)
                manager.attach_actuator_proxy(
                    cluster.name, proxies[cluster.name]
                )
            manager.attach_resilience(
                ResiliencePipeline(
                    guard=TelemetryGuard(),
                    monitor=InvariantMonitor(),
                    degrade=DegradationPolicy(),
                )
            )

        trace = run_scenario(
            manager_factory(manager_name, identified_systems()),
            x264(),
            three_phase_scenario(phase_duration_s=config.phase_duration_s),
            seed=config.seed,
            soc_setup=soc_setup,
            manager_setup=manager_setup,
        )
        if kind is None:
            fault_class = "none"
        elif kind in FaultModel.VALID_KINDS:
            fault_class = "sensor"
        else:
            fault_class = "actuator"
        return _metrics_from_trace(
            trace,
            manager_name,
            fault_kind=kind or "none",
            fault_class=fault_class,
            target=config.target,
            fault_start_s=config.fault_start_s,
            fault_end_s=config.fault_end_s,
            proxies=proxies,
        )

    assert config.with_degrade
    result = CampaignResult(config=config)
    for manager_name in config.managers:
        result.baselines[manager_name] = cell(manager_name, None)
        for kind in (*config.sensor_kinds, *config.actuator_kinds):
            result.runs.append(cell(manager_name, kind))
    return result.to_json()


class TestCampaignEquivalence:
    @pytest.fixture(scope="class")
    def campaign_runs(self, smoke_config, exec_cache):
        """``(json, wall seconds, engine records)`` per execution path;
        the ``oracle`` path runs every cell directly, without an
        engine."""

        def run(workers: int):
            engine = ExperimentEngine(max_workers=workers, cache=exec_cache)
            start = time.perf_counter()
            payload = run_campaign(smoke_config, engine=engine).to_json()
            elapsed = time.perf_counter() - start
            return payload, elapsed, engine.last_records

        return {
            "oracle": (_campaign_oracle(smoke_config), 0.0, []),
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
