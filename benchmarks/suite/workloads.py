"""The five benchmark workloads.

A workload runs in *rounds*: one pass over its operations.  ``run.py``
discards one warm-up round and times the rest.  Every operation's
output is checked twice over: against the warm-up round's output (the
same inputs must give the same bytes, traced or not) and, once per run,
against a fixed reference — the golden fixtures, the scalar oracle,
known supervisor state counts, the analyzer's exit code and rescan
counts.  An operation that raises or fails a check counts as failed.

The load is a closed loop with one client: one operation at a time,
the experiment engine at ``max_workers=1``, no extra threads.  The only
process a workload starts is the analyzer the analysis gate runs.

Every operation's time is scaled to the reference host speed by the
host-speed probes that ran during it (``hostspeed``), so slow stretches
of a shared host do not read as a slow program.

All inputs derive from the run seed through ``derive_seed``; the
reference checks use the fixed golden seed 2018.  Importing this
module imports every layer the workloads touch, which is part of the
measured set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

from repro.automata.operations import compose_all
from repro.automata.symbolic import encode_automaton
from repro.automata.symbolic_synthesis import (
    encode_composition,
    supremal_fixpoint,
)
from repro.automata.synthesis import synthesize_supervisor
from repro.automata.verification import verify_supervisor
from repro.core.scalable import (
    fleet_alphabet,
    fleet_plant_components,
    fleet_specification,
    scalable_alphabet,
    scalable_plant_components,
    scalable_specification,
)
from repro.core.synthesis_flow import build_case_study_supervisor
from repro.exec.artifacts import ensure_design_artifacts
from repro.exec.cache import ResultCache
from repro.exec.engine import ExperimentEngine
from repro.exec.fleet_jobs import FleetScenarioJob
from repro.exec.job import FaultSpec, ScenarioJob, derive_seed
from repro.experiments.figures import (
    MANAGER_NAMES,
    identified_systems,
    manager_factory,
)
from repro.experiments.fleet import fleet_manager_factory, run_fleet_scenario
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import three_phase_scenario
from repro.platform.faults import ActuatorFaultModel, FaultModel
from repro.resilience.campaign import CampaignConfig, campaign_jobs, run_campaign
from repro.workloads import x264

from hostspeed import Probe
from tracing import Tracer, WorkloadProxy

ROOT = Path(__file__).resolve().parents[2]
SUITE = Path(__file__).resolve().parent
FIXTURES = ROOT / "tests" / "exec" / "fixtures"

GOLDEN_SEED = 2018
TRACE_SERIES = (
    "qos",
    "chip_power",
    "big_power",
    "little_power",
    "big_frequency",
    "big_cores",
    "little_frequency",
    "little_cores",
)

# End-to-end metrics a workload reports beside the contract's
# ``round_s``, one sample per timed round: name -> (unit, better).
# ``round_host_s`` is ``round_s`` before scaling to the reference host
# speed; every other time is scaled.
DETAIL_METRICS = {
    "round_host_s": ("s", "lower"),
    **{
        f"{slug}_steps_per_s": ("steps/s", "higher")
        for slug in ("fs", "mm_perf", "mm_pow", "spectr")
    },
    "campaign_s": ("s", "lower"),
    "campaign_warm_ms": ("ms", "lower"),
    "fleet_job_s": ("s", "lower"),
    "gate_cold_s": ("s", "lower"),
    "gate_warm_s": ("s", "lower"),
}


def slug(manager: str) -> str:
    """Metric-name form of a manager name: ``MM-Perf`` -> ``mm_perf``."""
    return manager.lower().replace("-", "_")


class CheckFailed(AssertionError):
    """An operation's output differs from its reference."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _same_series(actual: Any, expected: Any, label: str) -> None:
    """Bit-for-bit equality of every pinned trace series."""
    for series in TRACE_SERIES:
        got = np.asarray(getattr(actual, series), dtype=float)
        want = np.asarray(
            expected[series] if isinstance(expected, dict) else getattr(expected, series),
            dtype=float,
        )
        _expect(
            got.shape == want.shape and np.array_equal(got, want),
            f"{label}: {series} differs from the reference",
        )


def _fingerprint(trace: Any) -> str:
    """SHA-256 over a trace's pinned series and gain schedule."""
    digest = hashlib.sha256()
    for series in TRACE_SERIES:
        digest.update(np.ascontiguousarray(getattr(trace, series), dtype=float).tobytes())
    if hasattr(trace, "gain_ids"):
        digest.update(np.ascontiguousarray(trace.gain_ids).tobytes())
    else:
        digest.update("\n".join(trace.gain_sets).encode("utf-8"))
    return digest.hexdigest()


def _gain_switches(trace: Any) -> float:
    """Gain-set changes per device over one run."""
    if hasattr(trace, "gain_ids"):
        ids = np.asarray(trace.gain_ids)
        return float(np.count_nonzero(ids[1:] != ids[:-1])) / ids.shape[1]
    sets = [name for name in trace.gain_sets if name]
    return float(sum(1 for a, b in zip(sets, sets[1:]) if a != b))


@dataclass
class Round:
    """One round's timing: ``seconds`` is the sum of its operations'
    times in reference seconds (``hostspeed``), ``host_seconds`` the sum
    of their host times."""

    seconds: float = 0.0
    host_seconds: float = 0.0
    detail: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


class Workload:
    """Operation accounting and reference bookkeeping shared by all.

    A workload is built as ``cls(seed, smoke, work_dir, probe)``:
    ``seed`` derives its inputs, ``smoke`` shrinks it, ``work_dir`` is a
    directory of its own for files it writes, and ``probe`` is the
    running host-speed probe that scales its times.
    """

    name = ""

    def __init__(self, work_dir: Path, probe: Probe) -> None:
        self.work_dir = work_dir
        self.probe = probe
        self.attempted = 0
        self.failures: list[str] = []
        self.rounds = 0
        self._references: dict[str, Any] = {}

    # -- accounting ------------------------------------------------------
    def operation(
        self,
        result: Round,
        tracer: Tracer | None,
        label: str,
        root: str,
        run: Callable[[], Any],
        check: Callable[[Any], None] | None = None,
    ) -> tuple[Any, float]:
        """Time ``run`` as one operation of ``result``, then check its
        output; ``label`` names the operation in the trace.

        Returns ``(output, seconds)``, the seconds scaled to the
        reference host speed; the output is ``None`` when the operation
        raised or failed its check.
        """
        self.attempted += 1
        value = failure = None
        start = perf_counter()
        try:
            if tracer is None:
                value = run()
            else:
                with tracer.operation(label, root):
                    value = run()
        except Exception as exc:  # a failed operation is data, not a crash
            failure = exc
        end = perf_counter()
        seconds = self.probe.scaled(start, end)
        result.seconds += seconds
        result.host_seconds += end - start
        if failure is None and check is not None:
            try:
                check(value)
            except Exception as exc:
                failure = exc
        if failure is not None:
            self._fail(label, failure)
            return None, seconds
        return value, seconds

    def verify(self, label: str, check: Callable[[], None]) -> None:
        """A reference check that is an operation of its own."""
        self.attempted += 1
        try:
            check()
        except Exception as exc:
            self._fail(label, exc)

    def _fail(self, label: str, exc: Exception) -> None:
        self.failures.append(f"{label}: {type(exc).__name__}: {exc}")

    def same_as_first(self, key: str, value: Any) -> None:
        """The first value seen under ``key`` is the reference for every
        later one: same inputs, same output, traced or not."""
        reference = self._references.setdefault(key, value)
        _expect(value == reference, f"{key}: output differs from the first round's")

    # -- protocol --------------------------------------------------------
    def round(self, tracer: Tracer | None) -> Round:
        raise NotImplementedError

    def final_checks(self) -> None:
        """Reference checks run once, after the timed rounds."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Scenario workloads: the paper's experiment, scalar and fleet
# ----------------------------------------------------------------------
# Span name -> per-manager metric suffix; values are self time per
# device-step in microseconds, so scalar and fleet rows compare.
_LAYER_SPANS = {
    "experiments.loop": "experiments.loop_self_us",
    "platform.step": "platform.step_us",
    "platform.sensors": "platform.sensors_us",
    "platform.scheduler": "platform.scheduler_us",
    "platform.workload": "platform.workload_us",
    "platform.actuate": "platform.actuate_us",
    "control.servo": "control.servo_us",
    "control.switch_gains": "control.switch_gains_us",
    "managers.control": "managers.control_self_us",
    "managers.supervise": "managers.supervise_us",
    "managers.refresh_refs": "managers.refresh_refs_us",
}


def _manager_layers(
    tracer: Tracer, steps: dict[str, int], switches: dict[str, list[float]]
) -> dict[str, float]:
    """Per-manager layer table of one traced round."""
    seconds: dict[tuple[str, str], float] = {}
    calls: dict[tuple[str, str], int] = {}
    for (op, name), (self_s, count) in tracer.self_times().items():
        if op < 0:
            continue
        key = (tracer.ops[op], name)
        seconds[key] = seconds.get(key, 0.0) + self_s
        calls[key] = calls.get(key, 0) + int(count)
    layers: dict[str, float] = {}
    for (manager, name), self_s in seconds.items():
        if manager not in steps:  # its operation failed
            continue
        layers[f"{slug(manager)}.{_LAYER_SPANS[name]}"] = (
            self_s / steps[manager] * 1e6
        )
    # Operation time from the root spans alone: the layer self times
    # above must add up to it.
    op_seconds: dict[str, float] = {}
    for _, start, end, parent, op in tracer.spans:
        if parent < 0 and op >= 0:
            manager = tracer.ops[op]
            op_seconds[manager] = op_seconds.get(manager, 0.0) + end - start
    runs = {manager: len(values) for manager, values in switches.items()}
    for manager, total_steps in steps.items():
        prefix = slug(manager)
        layers[f"{prefix}.op_us"] = op_seconds[manager] / total_steps * 1e6
        layers[f"{prefix}.managers.gain_switches"] = float(
            np.mean(switches[manager])
        )
        supervise = calls.get((manager, "managers.supervise"))
        if supervise:
            layers[f"{prefix}.managers.supervise_calls"] = supervise / runs[manager]
    return layers


def _trace_scalar(tracer: Tracer):
    """``run_scenario`` hooks that wrap the SoC's and manager's layer
    boundaries on the freshly built objects."""

    def soc_setup(soc) -> None:
        tracer.wrap(soc, "step", "platform.step")
        tracer.wrap(soc, "_cluster_telemetry", "platform.sensors")
        tracer.wrap(soc.scheduler, "place", "platform.scheduler")
        tracer.wrap(soc.scheduler, "place_idle", "platform.scheduler")
        soc.qos_app = WorkloadProxy(soc.qos_app, tracer, "platform.workload")
        for cluster in (soc.big, soc.little):
            tracer.wrap(cluster, "set_frequency", "platform.actuate")
            tracer.wrap(cluster, "set_active_cores", "platform.actuate")

    def manager_setup(manager) -> None:
        tracer.wrap(manager, "control", "managers.control")
        if hasattr(manager, "_supervise"):
            tracer.wrap(manager, "_supervise", "managers.supervise")
        if hasattr(manager, "controller"):
            servos = [manager.controller]
        else:
            servos = [manager.big_mimo.controller, manager.little_mimo.controller]
        for servo in servos:
            tracer.wrap(servo, "step", "control.servo")
            tracer.wrap(servo, "switch_gains", "control.switch_gains")

    return {"soc_setup": soc_setup, "manager_setup": manager_setup}


def _trace_fleet(tracer: Tracer, factory):
    """A fleet manager factory that wraps the platform's and manager's
    layer boundaries once both are built."""

    def build(platform, goals):
        manager = factory(platform, goals)
        tracer.wrap(platform, "step", "platform.step")
        tracer.wrap(platform, "_place", "platform.scheduler")
        tracer.wrap(platform, "_qos_rate", "platform.workload")
        for cluster in (platform.big, platform.little):
            tracer.wrap(cluster, "set_frequency", "platform.actuate")
            tracer.wrap(cluster, "apply_core_requests", "platform.actuate")
        tracer.wrap(manager, "control", "managers.control")
        if hasattr(manager, "_supervise"):
            tracer.wrap(manager, "_supervise", "managers.supervise")
            tracer.wrap(manager, "_refresh_references", "managers.refresh_refs")
        if hasattr(manager, "controller"):
            servos = [manager.controller]
        else:
            servos = [manager.big_servo, manager.little_servo]
        for servo in servos:
            tracer.wrap(servo, "step", "control.servo")
            tracer.wrap(servo, "switch_rows", "control.switch_gains")
        return manager

    return build


def _rotated(round_index: int) -> tuple[str, ...]:
    """The four managers, rotated per round so that no manager always
    runs first or last."""
    k = round_index % len(MANAGER_NAMES)
    return MANAGER_NAMES[k:] + MANAGER_NAMES[:k]


def _scenario():
    return three_phase_scenario(phase_duration_s=5.0)


class PaperScalar(Workload):
    """``run_scenario`` on x264, 8 seeds x the four managers."""

    name = "paper-scalar"

    def __init__(self, seed: int, smoke: bool, work_dir: Path, probe: Probe) -> None:
        super().__init__(work_dir, probe)
        systems = identified_systems()
        self.scenario = _scenario()
        self.seeds = [
            derive_seed(seed, self.name, i) for i in range(1 if smoke else 8)
        ]
        self.factories = {m: manager_factory(m, systems) for m in MANAGER_NAMES}

    def round(self, tracer: Tracer | None) -> Round:
        result = Round()
        steps = dict.fromkeys(MANAGER_NAMES, 0)
        busy = dict.fromkeys(MANAGER_NAMES, 0.0)
        switches: dict[str, list[float]] = {m: [] for m in MANAGER_NAMES}
        hooks = _trace_scalar(tracer) if tracer is not None else {}
        for seed in self.seeds:
            for manager in _rotated(self.rounds):
                trace, seconds = self.operation(
                    result,
                    tracer,
                    manager,
                    "experiments.loop",
                    lambda: run_scenario(
                        self.factories[manager],
                        x264(),
                        self.scenario,
                        seed=seed,
                        **hooks,
                    ),
                    lambda t: self.same_as_first(f"{manager}/{seed}", _fingerprint(t)),
                )
                busy[manager] += seconds
                if trace is not None:
                    steps[manager] += len(trace.times)
                    switches[manager].append(_gain_switches(trace))
        for manager in MANAGER_NAMES:
            if busy[manager] > 0:
                result.detail[f"{slug(manager)}_steps_per_s"] = steps[manager] / busy[manager]
        if tracer is not None:
            result.layers = _manager_layers(tracer, steps, switches)
        self.rounds += 1
        return result

    def final_checks(self) -> None:
        # The golden jobs of tests/exec/golden.py, spelled out here so the
        # benchmark reads the fixtures without importing the test tree.
        fixture = json.loads((FIXTURES / "golden_traces.json").read_text(encoding="utf-8"))
        jobs = [
            ScenarioJob(
                manager=manager,
                scenario=three_phase_scenario(phase_duration_s=1.0),
                seed=GOLDEN_SEED,
                label=f"golden:{manager}",
            )
            for manager in MANAGER_NAMES
        ]
        records = ExperimentEngine(max_workers=1).run(jobs)
        for record in records:
            manager = record.job.manager

            def check(record=record, manager=manager) -> None:
                _expect(record.ok, str(record.error))
                golden = fixture["managers"][manager]
                _expect(record.result.manager == golden["manager"], "manager name")
                _expect(list(record.result.gain_sets) == golden["gain_sets"], "gain schedule")
                _same_series(record.result, golden, f"golden {manager}")

            self.verify(f"golden trace {manager}", check)


class Fleet1000(Workload):
    """``run_fleet_scenario`` at N=1000 devices, the four managers."""

    name = "fleet-1000"

    def __init__(self, seed: int, smoke: bool, work_dir: Path, probe: Probe) -> None:
        super().__init__(work_dir, probe)
        self.systems = identified_systems()
        self.scenario = _scenario()
        n = 32 if smoke else 1000
        self.seeds = [derive_seed(seed, self.name, i) for i in range(n)]
        self.factories = {
            m: fleet_manager_factory(m, self.systems) for m in MANAGER_NAMES
        }
        # Rows 0 and N-1 of each manager's first trace, for the oracle.
        self.edge_rows: dict[str, dict[int, Any]] = {}

    def round(self, tracer: Tracer | None) -> Round:
        result = Round()
        steps: dict[str, int] = {}
        switches: dict[str, list[float]] = {}
        for manager in _rotated(self.rounds):
            factory = self.factories[manager]
            if tracer is not None:
                factory = _trace_fleet(tracer, factory)
            trace, seconds = self.operation(
                result,
                tracer,
                manager,
                "experiments.loop",
                lambda: run_fleet_scenario(
                    factory, x264(), self.scenario, seeds=self.seeds
                ),
                lambda t: self.same_as_first(manager, _fingerprint(t)),
            )
            if trace is None:
                continue
            device_steps = trace.times.shape[0] * trace.n_devices
            result.detail[f"{slug(manager)}_steps_per_s"] = device_steps / seconds
            steps[manager] = device_steps
            switches[manager] = [_gain_switches(trace)]
            if manager not in self.edge_rows:
                last = trace.n_devices - 1
                self.edge_rows[manager] = {0: trace.row(0), last: trace.row(last)}
        if tracer is not None:
            result.layers = _manager_layers(tracer, steps, switches)
        self.rounds += 1
        return result

    def final_checks(self) -> None:
        for manager, rows in self.edge_rows.items():
            for row, fleet_row in rows.items():

                def check(manager=manager, row=row, fleet_row=fleet_row) -> None:
                    oracle = run_scenario(
                        manager_factory(manager, self.systems),
                        x264(),
                        self.scenario,
                        seed=self.seeds[row],
                    )
                    _expect(fleet_row.gain_sets == oracle.gain_sets, "gain schedule")
                    _same_series(fleet_row, oracle, f"{manager} row {row}")

                self.verify(f"scalar oracle {manager} row {row}", check)

        def golden() -> None:
            fixture = json.loads(
                (FIXTURES / "golden_fleet.json").read_text(encoding="utf-8")
            )["fleet"]
            job = FleetScenarioJob(
                manager="SPECTR",
                scenario=three_phase_scenario(phase_duration_s=1.0),
                seed=GOLDEN_SEED,
                n_devices=3,
                device_faults=(
                    (
                        1,
                        FaultSpec(
                            kind="reject",
                            target="big",
                            start_s=0.5,
                            duration_s=1.0,
                            probability=0.7,
                        ),
                    ),
                ),
                label="golden:fleet",
            )
            (trace,) = ExperimentEngine(max_workers=1).results([job])
            _expect(trace.manager == fixture["manager"], "manager name")
            _expect(trace.n_devices == fixture["n_devices"], "fleet size")
            _expect(list(trace.gain_names) == fixture["gain_names"], "gain names")
            _expect(
                np.array_equal(trace.gain_ids, np.asarray(fixture["gain_ids"], dtype=np.int8)),
                "gain ids",
            )
            _same_series(trace, fixture, "golden fleet")

        self.verify("golden fleet job", golden)


# ----------------------------------------------------------------------
# Campaign: many short engine jobs with the resilience pipeline attached
# ----------------------------------------------------------------------
class Campaign(Workload):
    """A cold fault campaign and a faulted fleet job through a fresh
    result cache, then the same jobs again from the warm cache."""

    name = "campaign"

    def __init__(self, seed: int, smoke: bool, work_dir: Path, probe: Probe) -> None:
        super().__init__(work_dir, probe)
        self.config = CampaignConfig(
            managers=("SPECTR",) if smoke else MANAGER_NAMES,
            seed=derive_seed(seed, self.name),
        )
        n_devices = 32 if smoke else 200
        picker = random.Random(derive_seed(seed, self.name, "faults"))
        rows = sorted(picker.sample(range(n_devices), 4))
        kinds = picker.sample(FaultModel.VALID_KINDS, 2) + picker.sample(
            ActuatorFaultModel.VALID_KINDS, 2
        )
        self.job = FleetScenarioJob(
            manager="SPECTR",
            scenario=_scenario(),
            seed=derive_seed(seed, self.name, "fleet"),
            n_devices=n_devices,
            device_faults=tuple(
                (row, FaultSpec(kind=kind)) for row, kind in zip(rows, kinds)
            ),
            label="campaign: faulted fleet",
        )
        self.warm_passes = 2 if smoke else 10
        # Design artifacts are pre-seeded once; every round copies this
        # template so the timed part starts from the same cold cache.
        self.template = work_dir / "template"
        shutil.rmtree(work_dir, ignore_errors=True)
        ensure_design_artifacts(ResultCache(self.template))
        self.first_fleet: Any = None

    def round(self, tracer: Tracer | None) -> Round:
        result = Round()
        directory = self.work_dir / f"round-{self.rounds}"
        shutil.copytree(self.template, directory)
        try:
            cache = ResultCache(directory)
            engine = ExperimentEngine(max_workers=1, cache=cache)
            if tracer is not None:
                tracer.wrap(cache, "get", "exec.cache_get")
                tracer.wrap(cache, "put", "exec.cache_put")
                tracer.wrap(engine, "run", "exec.run")

            records: list = []  # every engine job record of the round

            def campaign():
                outcome = run_campaign(self.config, engine=engine)
                records.extend(engine.last_records)
                return outcome

            def fleet_job():
                (trace,) = engine.results([self.job])
                records.extend(engine.last_records)
                return trace

            cold, campaign_s = self.operation(
                result,
                tracer,
                "campaign cold",
                "experiments.campaign",
                campaign,
                lambda r: self.same_as_first("campaign", r.to_json()),
            )
            fleet, fleet_s = self.operation(
                result,
                tracer,
                "fleet job cold",
                "experiments.fleet_job",
                fleet_job,
                lambda t: self.same_as_first("fleet job", _fingerprint(t)),
            )
            if self.first_fleet is None:
                self.first_fleet = fleet

            def warm_check(outputs) -> None:
                campaign, trace = outputs
                self.same_as_first("campaign", campaign.to_json())
                self.same_as_first("fleet job", _fingerprint(trace))

            warm_s = 0.0
            for index in range(self.warm_passes):
                _, seconds = self.operation(
                    result,
                    tracer,
                    f"warm pass {index}",
                    "experiments.warm_pass",
                    lambda: (campaign(), fleet_job()),
                    warm_check,
                )
                warm_s += seconds
            result.detail = {
                "campaign_s": campaign_s,
                "fleet_job_s": fleet_s,
                "campaign_warm_ms": warm_s / self.warm_passes * 1e3,
            }
            if tracer is not None:
                result.layers = self._layers(tracer, cache, records, cold)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        self.rounds += 1
        return result

    def _layers(self, tracer, cache, records, cold) -> dict[str, float]:
        jobs = [*campaign_jobs(self.config), self.job]
        with tracer.span("exec.digest"):
            start = perf_counter()
            for job in jobs:
                job.digest(salt=cache.salt)
            digest_s = perf_counter() - start
        totals = tracer.self_times()
        cold_ops = {
            op
            for op, label in enumerate(tracer.ops)
            if label in ("campaign cold", "fleet job cold")
        }
        cold_run_s = sum(
            end - start
            for name, start, end, _, op in tracer.spans
            if name == "exec.run" and op in cold_ops
        )
        executed = [r for r in records if r.mode == "serial"]
        job_s = sum(r.duration_s for r in executed)

        def per_call_ms(name: str) -> float:
            seconds = sum(v[0] for (_, n), v in totals.items() if n == name)
            count = sum(v[1] for (_, n), v in totals.items() if n == name)
            return seconds / count * 1e3 if count else 0.0

        lookups = cache.hits + cache.misses
        layers = {
            "exec.job_ms": job_s / len(executed) * 1e3 if executed else 0.0,
            "exec.overhead_ms": (cold_run_s - job_s) * 1e3,
            "exec.digest_us": digest_s / len(jobs) * 1e6,
            "exec.cache_get_ms": per_call_ms("exec.cache_get"),
            "exec.cache_put_ms": per_call_ms("exec.cache_put"),
            "exec.cache_hit_ratio": cache.hits / lookups if lookups else 0.0,
            "exec.retries": float(sum(max(r.attempts - 1, 0) for r in records)),
            "exec.failed_jobs": float(sum(1 for r in records if not r.ok)),
        }
        if cold is not None:
            runs = [*cold.runs, *cold.baselines.values()]
            layers["resilience.invariant_violations"] = float(cold.total_violations)
            layers["resilience.guard_substitutions"] = float(
                sum(r.guard_substitutions for r in runs)
            )
            layers["resilience.degrade_engagements"] = float(
                sum(r.degrade_engagements for r in runs)
            )
        return layers

    def final_checks(self) -> None:
        if self.first_fleet is None:
            return
        seeds = self.job.seeds()
        for row, spec in self.job.device_faults:

            def check(row=row, spec=spec) -> None:
                oracle_job = ScenarioJob(
                    manager=self.job.manager,
                    scenario=self.job.scenario,
                    seed=seeds[row],
                    fault=spec,
                    label=f"oracle row {row}",
                )
                (oracle,) = ExperimentEngine(max_workers=1).results([oracle_job])
                _same_series(self.first_fleet.row(row), oracle, f"faulted row {row}")

            self.verify(f"faulted row {row} vs scalar oracle", check)


# ----------------------------------------------------------------------
# Synthesis: the offline design flow
# ----------------------------------------------------------------------
_MODELS = {
    "fleet": (fleet_alphabet, fleet_plant_components, fleet_specification),
    "scalable": (scalable_alphabet, scalable_plant_components, scalable_specification),
}
# (label, model, clusters, levels, supervisor states): composed and
# verified explicitly, then folded without materializing the plant.
_FLOWS = (("fleet3x2", "fleet", 3, 2, 800), ("scalable4x3", "scalable", 4, 3, 1620))
_FOLDS = (
    ("scalable7x3", "scalable", 7, 3, 43_740),
    ("fleet10x2", "fleet", 10, 2, 102_400),
)


class Synthesis(Workload):
    """Case-study synthesis, two compose-synthesize-verify flows and two
    folded scale points, in a seeded order."""

    name = "synthesis"

    def __init__(self, seed: int, smoke: bool, work_dir: Path, probe: Probe) -> None:
        super().__init__(work_dir, probe)
        ops = ["case-study", *(f[0] for f in _FLOWS), *(f[0] for f in _FOLDS)]
        random.Random(derive_seed(seed, self.name)).shuffle(ops)
        self.order = ops

    @contextmanager
    def _stage(self, tracer: Tracer | None, layers: dict, name: str) -> Iterator[None]:
        start = perf_counter()
        try:
            if tracer is None:
                yield
            else:
                with tracer.span(name):
                    yield
        finally:
            layers[name] = layers.get(name, 0.0) + perf_counter() - start

    def round(self, tracer: Tracer | None) -> Round:
        result = Round()
        stages: dict[str, float] = {}
        states: dict[str, int] = {}
        flows = {f[0]: f for f in _FLOWS}
        folds = {f[0]: f for f in _FOLDS}

        def flow(label, model, clusters, levels, expected):
            alphabet, components, specification = _MODELS[model]
            with self._stage(tracer, stages, "automata.compose"):
                sigma = alphabet(clusters)
                plant = compose_all(components(clusters, levels, sigma))
                spec = specification(clusters, sigma)
            with self._stage(tracer, stages, "automata.synthesize"):
                synthesis = synthesize_supervisor(plant, spec)
            with self._stage(tracer, stages, "automata.verify"):
                report = verify_supervisor(plant, synthesis.supervisor)
            states[label] = len(synthesis.supervisor)
            _expect(report.verified, f"{label}: verify_supervisor does not say verified")
            _expect(states[label] == expected, f"{label}: {states[label]} states, expected {expected}")

        def fold(label, model, clusters, levels, expected):
            alphabet, components, specification = _MODELS[model]
            with self._stage(tracer, stages, f"automata.encode_composition.{label}"):
                sigma = alphabet(clusters)
                plant = encode_composition(components(clusters, levels, sigma))
                spec = encode_automaton(specification(clusters, sigma))
            with self._stage(tracer, stages, f"automata.fixpoint.{label}"):
                fixpoint = supremal_fixpoint(plant, spec)
            states[label] = fixpoint.n_supervisor_states
            _expect(states[label] == expected, f"{label}: {states[label]} states, expected {expected}")

        def case_study():
            with self._stage(tracer, stages, "core.case_study"):
                verified = build_case_study_supervisor()
            _expect(verified.verification.verified, "case study: not verified")

        for label in self.order:
            if label == "case-study":
                run = case_study
            elif label in flows:
                run = lambda spec=flows[label]: flow(*spec)
            else:
                run = lambda spec=folds[label]: fold(*spec)
            self.operation(result, tracer, label, "bench.design_step", run)

        if tracer is not None:
            result.layers = {
                "automata.compose_s": stages.get("automata.compose", 0.0),
                "automata.synthesize_s": stages.get("automata.synthesize", 0.0),
                "automata.verify_s": stages.get("automata.verify", 0.0),
                "core.case_study_ms": stages.get("core.case_study", 0.0) * 1e3,
            }
            for label, *_ in _FOLDS:
                result.layers[f"automata.encode_composition_s.{label}"] = stages.get(
                    f"automata.encode_composition.{label}", 0.0
                )
                result.layers[f"automata.fixpoint_s.{label}"] = stages.get(
                    f"automata.fixpoint.{label}", 0.0
                )
            for label in ("scalable7x3", "fleet10x2", "fleet3x2"):
                if label in states:
                    result.layers[f"automata.supervisor_states.{label}"] = float(
                        states[label]
                    )
        self.rounds += 1
        return result


# ----------------------------------------------------------------------
# Analysis gate: the developer's pre-merge static analysis
# ----------------------------------------------------------------------
_GATE_TIERS = ("classic", "flow", "models", "shapes")


class AnalysisGate(Workload):
    """``python -m repro.analysis all`` on a copy of the sources: cold,
    then again after appending a comment to one seeded module."""

    name = "analysis-gate"

    def __init__(self, seed: int, smoke: bool, work_dir: Path, probe: Probe) -> None:
        super().__init__(work_dir, probe)
        shutil.rmtree(work_dir, ignore_errors=True)
        # Mid-sized modules only, so the seed moves which module the
        # warm run rescans but not how much work that rescan is.
        candidates = sorted(
            path.relative_to(ROOT).as_posix()
            for path in (ROOT / "src" / "repro").rglob("*.py")
            if path.name != "__init__.py"
            and 150 <= len(path.read_text(encoding="utf-8").splitlines()) <= 400
        )
        self.touched = candidates[derive_seed(seed, self.name) % len(candidates)]
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def _copy_sources(self, directory: Path) -> None:
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", directory / "src", ignore=skip)
        shutil.copytree(ROOT / "artifacts", directory / "artifacts", ignore=skip)
        for name in ("analysis-baseline.json", "models-baseline.json", "shapes-baseline.json"):
            shutil.copy2(ROOT / name, directory / name)

    def _gate(self, directory: Path, tracer: Tracer | None, phase: str) -> dict:
        """One ``analysis all`` run in an analyzer process of its own,
        which probes the host speed and times each tier; its probe
        samples join this process's, its tier spans the trace."""
        report_file = directory / f"gate-{phase}.json"
        command = [
            sys.executable,
            str(SUITE / "gate_analyzer.py"),
            str(report_file),
            "all",
            "--report-dir",
            "reports",
        ]
        with self.probe.paused():
            completed = subprocess.run(
                command,
                cwd=directory,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=150,
            )
        _expect(
            completed.returncode == 0,
            f"analysis all exited {completed.returncode}: "
            f"{(completed.stdout + completed.stderr)[-400:]}",
        )
        analyzer = json.loads(report_file.read_text(encoding="utf-8"))
        self.probe.add(analyzer["probe"])
        reports = directory / "reports"
        outcome = {
            "flow": json.loads((reports / "flow-report.json").read_text(encoding="utf-8"))["stats"],
            "shapes": json.loads((reports / "shapes-report.json").read_text(encoding="utf-8"))["stats"],
            "tiers": {},
        }
        if tracer is not None:
            for span in analyzer["tiers"]:
                tracer.add_span(span["name"], span["start"], span["end"])
                tier = span["name"].split(".", 1)[1]
                outcome["tiers"][tier] = span["end"] - span["start"]
        return outcome

    def round(self, tracer: Tracer | None) -> Round:
        result = Round()
        directory = self.work_dir / f"round-{self.rounds}"
        self._copy_sources(directory)
        try:
            cold, cold_s = self.operation(
                result,
                tracer,
                "gate cold",
                "analysis.gate",
                lambda: self._gate(directory, tracer, "cold"),
            )
            with open(directory / self.touched, "a", encoding="utf-8") as handle:
                handle.write("# touched by the benchmark's warm gate run\n")

            def rescans(outcome: dict) -> None:
                flow = outcome["flow"]["reanalyzed"]
                shapes = outcome["shapes"]["rescanned"]
                _expect(
                    (flow, shapes) == (1, 1),
                    f"warm run rescanned flow={flow} shapes={shapes}, expected 1 each",
                )

            warm, warm_s = self.operation(
                result,
                tracer,
                "gate warm",
                "analysis.gate",
                lambda: self._gate(directory, tracer, "warm"),
                rescans,
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        result.detail = {"gate_cold_s": cold_s, "gate_warm_s": warm_s}
        if tracer is not None and cold is not None and warm is not None:
            layers = {
                "analysis.modules": float(cold["flow"]["modules_total"]),
                "analysis.flow_rescanned.warm": float(warm["flow"]["reanalyzed"]),
                "analysis.shapes_rescanned.warm": float(warm["shapes"]["rescanned"]),
            }
            for phase, outcome in (("cold", cold), ("warm", warm)):
                for tier in _GATE_TIERS:
                    layers[f"analysis.{tier}_s.{phase}"] = outcome["tiers"].get(tier, 0.0)
            result.layers = layers
        self.rounds += 1
        return result

    def peak_rss_mb(self) -> float:
        # The gate's memory is the analyzer's, in the child processes.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {
    cls.name: cls for cls in (PaperScalar, Fleet1000, Campaign, Synthesis, AnalysisGate)
}
