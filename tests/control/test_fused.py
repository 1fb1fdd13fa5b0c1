"""The compiled servo kernel's fallback reasons and reach.

Bit-identity of the fused step itself is the differential harness's job
(``tests/platform/test_fleet_equivalence.py``).  These tests pin what
decides *whether* the kernel runs: the reason a servo stays on numpy,
a raising probe's named fallback, and that every fleet manager's servo
and both fleet clusters (through the fleet's compiled tick) run the
kernel wherever it builds.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.control import batch as batch_module
from repro.control.batch import BatchedLQGServo
from repro.control.fused import fused_kernel, unavailable_reason
from repro.control.lqg import ActuatorLimits, design_lqg_servo
from repro.control.statespace import OperatingPoint, StateSpaceModel
from repro.experiments.figures import MANAGER_NAMES, identified_systems
from repro.experiments.fleet import fleet_manager_factory
from repro.managers.base import ManagerGoals
from repro.platform import soc as soc_module
from repro.platform.fleet import FleetPlatform
from repro.platform.soc import ExynosSoC, SoCConfig


@pytest.fixture(scope="module")
def kernel():
    k = fused_kernel()
    if k is None:
        pytest.skip(unavailable_reason())
    return k


@pytest.fixture(scope="module")
def systems():
    return identified_systems()


def _fleet_servos(manager):
    if hasattr(manager, "controller"):
        return [manager.controller]
    return [manager.big_servo, manager.little_servo]


def _three_state_servo(n_rows):
    model = StateSpaceModel(
        A=[[0.6, 0.1, 0.0], [0.05, 0.5, 0.1], [0.0, 0.1, 0.4]],
        B=[[0.8, 0.3], [0.2, 0.7], [0.1, 0.1]],
        C=[[1.0, 0.2, 0.0], [0.1, 1.0, 0.3]],
        D=np.zeros((2, 2)),
    )
    gains = design_lqg_servo(
        model, output_weights=[1.0, 1.0], effort_weights=[1.0, 1.0]
    )
    op = OperatingPoint(u=[1.0, 1.0], y=[2.0, 2.0])
    limits = ActuatorLimits(lower=[-10.0, -10.0], upper=[10.0, 10.0])
    return BatchedLQGServo([gains], op, limits, n_rows)


class TestFusedReason:
    def test_odd_inner_dimension_runs_compiled(self, kernel):
        # Inner dimension 3: the servo's one sequential order serves
        # every shape.
        servo = _three_state_servo(4)
        assert servo.fused_reason is None
        assert servo._fused is kernel
        rng = np.random.default_rng(3)
        fused = []
        for _ in range(6):
            Y = 2.0 + 4.0 * rng.standard_normal((4, 2))
            fused.append(servo._step_fused(Y, kernel).copy())
        state = [servo.X.copy(), servo.Z.copy(), servo.DU.copy()]
        reference = _three_state_servo(4)
        rng = np.random.default_rng(3)
        for u in fused:
            Y = 2.0 + 4.0 * rng.standard_normal((4, 2))
            assert reference._step_numpy(Y).tobytes() == u.tobytes()
        for got, want in zip(
            state, [reference.X, reference.Z, reference.DU]
        ):
            assert got.tobytes() == want.tobytes()

    def test_disabled_kernel_is_reported(self):
        # The kernel's availability is decided once per process, so the
        # disabled case runs in a fresh interpreter.
        code = (
            "import numpy as np\n"
            "from repro.control.batch import BatchedLQGServo\n"
            "from repro.control.lqg import ActuatorLimits, design_lqg_servo\n"
            "from repro.control.statespace import OperatingPoint, StateSpaceModel\n"
            "model = StateSpaceModel(A=np.eye(2) * 0.5, B=np.eye(2), "
            "C=np.eye(2), D=np.zeros((2, 2)))\n"
            "gains = design_lqg_servo(model, output_weights=[1.0, 1.0], "
            "effort_weights=[1.0, 1.0])\n"
            "servo = BatchedLQGServo([gains], OperatingPoint(u=[0, 0], "
            "y=[0, 0]), ActuatorLimits(lower=[-1, -1], upper=[1, 1]), 3)\n"
            "print(servo.fused_reason)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "REPRO_DISABLE_FUSED": "1", "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert result.stdout.strip() == "disabled"

    def test_raising_servo_probe_names_the_exception(
        self, kernel, monkeypatch
    ):
        def raising(self, *args):
            raise RuntimeError("kernel call failed")

        monkeypatch.setattr(BatchedLQGServo, "_step_fused", raising)
        monkeypatch.setattr(batch_module, "_PROBE_MEMO", {})
        servo = _three_state_servo(4)
        assert servo.fused_reason == (
            "probe raised RuntimeError: kernel call failed"
        )
        assert servo._fused is None
        # The numpy step still serves the servo, from the state the
        # probe restored.
        reference = _three_state_servo(4)
        Y = np.full((4, 2), 3.0)
        assert servo.step(Y).tobytes() == reference._step_numpy(Y).tobytes()


class TestFusedCoverage:
    """Every fleet manager's servo and every fleet cluster's sensor read
    run the compiled kernels.

    Guards the gain against silently regressing when a gain library
    changes: a servo or cluster that falls back names why.
    """

    @pytest.mark.parametrize("manager", MANAGER_NAMES)
    def test_fleet_manager_servos_are_fused(self, manager, systems):
        platform = FleetPlatform(seeds=tuple(range(1, 10)))
        fleet = fleet_manager_factory(manager, systems)(
            platform, ManagerGoals(60.0, 5.0)
        )
        servos = _fleet_servos(fleet)
        if fused_kernel() is None:
            pytest.skip(servos[0].fused_reason)
        assert [s.fused_reason for s in servos] == [None] * len(servos)
        assert all(s._fused is not None for s in servos)

    def test_fleet_clusters_read_through_the_kernel(self):
        # Both clusters read inside the fleet's compiled plant tick.
        platform = FleetPlatform(seeds=tuple(range(1, 10)))
        clusters = (platform.big, platform.little)
        if fused_kernel() is None:
            assert platform.tick_reason == unavailable_reason()
            assert [c.telemetry_kernel for c in clusters] == [None, None]
            pytest.skip(unavailable_reason())
        assert platform.tick_reason is None
        assert all(c.telemetry_kernel is fused_kernel() for c in clusters)

    def test_raising_telemetry_probe_names_the_exception(
        self, kernel, monkeypatch
    ):
        # The scalar sensor read's probe: a raising compiled read falls
        # back to the Python read with the exception named.
        def broken(*args):
            raise RuntimeError("kernel call failed")

        monkeypatch.setattr(soc_module.CompiledSensors, "read", broken)
        monkeypatch.setattr(soc_module, "_SENSOR_MEMO", {})
        soc = ExynosSoC(config=SoCConfig(seed=1))
        for cluster in soc.clusters():
            assert cluster.compiled_sensors() is None
            assert cluster.fused_reason == (
                "probe raised RuntimeError: kernel call failed"
            )
        assert soc.tick_reason == (
            "big sensors: probe raised RuntimeError: kernel call failed"
        )
        # The Python read still serves the run.
        soc.step()


class TestCompileRace:
    def test_concurrent_first_builds_both_get_a_kernel(self, tmp_path):
        # Two fresh interpreters build the kernel into one empty temp
        # dir at the same time; neither may see the other's half-written
        # source.
        code = (
            "from repro.control.fused import unavailable_reason\n"
            "print(unavailable_reason())\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {
            **os.environ,
            "PYTHONPATH": src,
            "TMPDIR": str(tmp_path),
        }
        env.pop("REPRO_DISABLE_FUSED", None)
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", code],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outputs = [worker.communicate(timeout=300) for worker in workers]
        for stdout, stderr in outputs:
            assert stdout.strip() == "None", stderr
        # One published object; no per-process source or object left.
        leftovers = sorted(path.name for path in tmp_path.iterdir())
        assert len(leftovers) == 1 and leftovers[0].endswith(".so"), leftovers

