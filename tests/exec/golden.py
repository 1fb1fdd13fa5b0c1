"""Golden-trace helpers shared by the regression tests and the
fixture generator (``scripts/make_golden_traces.py``).

The golden scenario is the paper's three-phase scenario shrunk to 1 s
phases: long enough that every phase transition, gain switch, and
background-task arrival happens, short enough for CI.  Fixtures store
every float as its shortest ``repr`` (what ``json`` emits), which
round-trips float64 losslessly — so "equal to fixture" means
bit-identical simulation output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.exec.fleet_jobs import FleetScenarioJob
from repro.exec.job import FaultSpec, ScenarioJob
from repro.exec.scenario_jobs import workload_by_name
from repro.experiments.figures import (
    MANAGER_NAMES,
    identified_systems,
    manager_factory,
)
from repro.experiments.fleet import FleetTrace
from repro.experiments.runner import ScenarioTrace, run_scenario
from repro.experiments.scenario import Scenario, three_phase_scenario

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_traces.json"
FLEET_FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_fleet.json"
SERVO_FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_servo.json"
GOLDEN_MANAGERS = MANAGER_NAMES
GOLDEN_SEED = 2018

# The golden fleet: three devices, the middle one carrying an actuator
# fault (so the fixture pins the scalar-oracle splice path too).
GOLDEN_FLEET_DEVICES = 3
GOLDEN_FLEET_FAULT_ROW = 1
GOLDEN_FLEET_FAULT = FaultSpec(
    kind="reject", target="big", start_s=0.5, duration_s=1.0, probability=0.7
)

# The servo state the servo fixture digests, per servo.
SERVO_STATE = ("_xhat", "_z", "_du_prev", "_u_prev")

# The trace series pinned by the fixture (all float64 ndarrays).
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


def golden_scenario() -> Scenario:
    return three_phase_scenario(phase_duration_s=1.0)


def golden_job(manager: str) -> ScenarioJob:
    return ScenarioJob(
        manager=manager,
        scenario=golden_scenario(),
        seed=GOLDEN_SEED,
        label=f"golden:{manager}",
    )


def golden_fleet_job() -> FleetScenarioJob:
    return FleetScenarioJob(
        manager="SPECTR",
        scenario=golden_scenario(),
        seed=GOLDEN_SEED,
        n_devices=GOLDEN_FLEET_DEVICES,
        device_faults=((GOLDEN_FLEET_FAULT_ROW, GOLDEN_FLEET_FAULT),),
        label="golden:fleet",
    )


def trace_payload(trace: ScenarioTrace) -> dict:
    """The JSON-serializable fixture payload of one trace."""
    payload: dict = {
        "manager": trace.manager,
        "gain_sets": list(trace.gain_sets),
    }
    for series in TRACE_SERIES:
        payload[series] = [float(v) for v in getattr(trace, series)]
    return payload


def servo_digest(manager: str) -> str:
    """sha256 over every servo's :data:`SERVO_STATE` after the golden
    job (FS: its one servo; the others: big, then little)."""
    job = golden_job(manager)
    built: list = []
    run_scenario(
        manager_factory(manager, identified_systems()),
        workload_by_name(job.workload),
        golden_scenario(),
        seed=job.seed,
        manager_setup=built.append,
    )
    (manager_object,) = built
    if hasattr(manager_object, "controller"):
        servos = [manager_object.controller]
    else:
        servos = [
            manager_object.big_mimo.controller,
            manager_object.little_mimo.controller,
        ]
    digest = hashlib.sha256()
    for servo in servos:
        for name in SERVO_STATE:
            state = np.asarray(getattr(servo, name), dtype="<f8")
            digest.update(state.tobytes())
    return digest.hexdigest()


def fleet_payload(trace: FleetTrace) -> dict:
    """The JSON-serializable fixture payload of one fleet trace."""
    payload: dict = {
        "manager": trace.manager,
        "n_devices": trace.n_devices,
        "gain_names": list(trace.gain_names),
        "gain_ids": [[int(v) for v in row] for row in trace.gain_ids],
    }
    for series in TRACE_SERIES:
        payload[series] = [
            [float(v) for v in row] for row in getattr(trace, series)
        ]
    return payload


def load_fixture() -> dict:
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def load_fleet_fixture() -> dict:
    return json.loads(FLEET_FIXTURE_PATH.read_text(encoding="utf-8"))


def load_servo_fixture() -> dict:
    return json.loads(SERVO_FIXTURE_PATH.read_text(encoding="utf-8"))


def assert_matches_golden(trace: ScenarioTrace, golden: dict) -> None:
    """Exact (bit-identical) comparison of a trace against the fixture."""
    assert trace.manager == golden["manager"]
    assert list(trace.gain_sets) == golden["gain_sets"]
    for series in TRACE_SERIES:
        expected = np.asarray(golden[series], dtype=float)
        actual = np.asarray(getattr(trace, series), dtype=float)
        assert actual.shape == expected.shape, series
        assert np.array_equal(actual, expected), (
            f"{trace.manager}.{series} deviates from the golden trace "
            f"(max abs diff "
            f"{float(np.max(np.abs(actual - expected))):.3e}); if the "
            "change is intentional, regenerate with "
            "scripts/make_golden_traces.py"
        )


def assert_matches_golden_fleet(trace: FleetTrace, golden: dict) -> None:
    """Exact comparison of a fleet trace against the fleet fixture."""
    assert trace.manager == golden["manager"]
    assert trace.n_devices == golden["n_devices"]
    assert list(trace.gain_names) == golden["gain_names"]
    assert np.array_equal(
        trace.gain_ids, np.asarray(golden["gain_ids"], dtype=np.int8)
    )
    for series in TRACE_SERIES:
        expected = np.asarray(golden[series], dtype=float)
        actual = np.asarray(getattr(trace, series), dtype=float)
        assert actual.shape == expected.shape, series
        assert np.array_equal(actual, expected), (
            f"fleet.{series} deviates from the golden fleet trace "
            f"(max abs diff "
            f"{float(np.max(np.abs(actual - expected))):.3e}); if the "
            "change is intentional, regenerate with "
            "scripts/make_golden_traces.py"
        )
