"""The scalar servo's compiled step equals its numpy step, bit for bit.

``LQGServoController.step`` runs the fused kernel on its single row
wherever a construction-time probe verifies it.  These tests pin that
the verified step reproduces the numpy reference step in every output
and every piece of state, for the MIMO palettes and FS's 4x2 servo,
and that every scalar manager's servo actually runs the kernel.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.control import lqg
from repro.control.fused import SERVO_PACKS, fused_kernel, unavailable_reason
from repro.control.lqg import LQGServoController
from repro.experiments.figures import (
    MANAGER_NAMES,
    identified_systems,
    manager_factory,
)
from repro.managers.base import ManagerGoals
from repro.managers.fs import FullSystemMIMO
from repro.managers.mimo import (
    POWER_GAINS,
    QOS_GAINS,
    build_gain_library,
    cluster_actuator_limits,
)
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


def _palette(systems, which):
    """(system, [qos gains, power gains], limits) of one scalar servo."""
    soc = ExynosSoC(config=SoCConfig(seed=1))
    if which == "fs":
        system = systems.full
        library = build_gain_library(
            system, qos_outputs=(0,), power_outputs=(1,), integral_weight=0.05
        )
        fs = FullSystemMIMO(soc, ManagerGoals(60.0, 5.0), system=system)
        limits = fs.controller.limits
    else:
        system = getattr(systems, which)
        library = build_gain_library(system, integral_weight=0.08)
        limits = cluster_actuator_limits(getattr(soc, which))
    return system, [library.get(QOS_GAINS), library.get(POWER_GAINS)], limits


def _state(controller):
    return [
        controller._xhat.tobytes(),
        controller._z.tobytes(),
        controller._du_prev.tobytes(),
        controller._u_prev.tobytes(),
    ]


@pytest.mark.parametrize("which", ["big", "little", "fs"])
def test_fused_step_equals_numpy_step(which, kernel, systems, monkeypatch):
    system, palette, limits = _palette(systems, which)
    op = system.operating_point
    fused = LQGServoController(palette[0], op, limits)
    assert fused.fused_reason is None
    # The numpy-forced twin: no kernel for the controller module, so
    # every construction and gain switch keeps the numpy step.
    with monkeypatch.context() as patch:
        patch.setattr(lqg, "fused_kernel", lambda: None)
        reference = LQGServoController(palette[0], op, limits)
        assert reference._fused is None

        rng = np.random.default_rng(0x5F0)
        p = op.y.size
        saturated = 0
        for phase in range(6):
            if phase == 3:
                for controller in (fused, reference):
                    controller.reset()
            if phase in (1, 4):
                # Bumpless switch to the other gain set and back later.
                target = palette[1] if phase == 1 else palette[0]
                for controller in (fused, reference):
                    controller.switch_gains(target)
                assert fused.fused_reason is None
                assert reference._fused is None
                assert _state(fused) == _state(reference), (phase, "switch")
            new_ref = (op.y + op.y_scale * rng.standard_normal(p)).tolist()
            for controller in (fused, reference):
                controller.set_reference(new_ref)
            for scale in (0.5, 3.0, 50.0):
                for tick in range(6):
                    y = op.y + op.y_scale * scale * rng.standard_normal(p)
                    measured = y.tolist() if tick % 2 else y
                    u_fused = fused.step(measured)
                    u_numpy = reference.step(measured)
                    where = (phase, scale, tick)
                    assert u_fused.tobytes() == u_numpy.tobytes(), where
                    assert _state(fused) == _state(reference), where
                    saturated += bool(
                        np.any(u_numpy == limits.lower)
                        or np.any(u_numpy == limits.upper)
                    )
        assert fused.invocations == reference.invocations
        # The large-scale measurements must drive the actuators onto
        # their limits, so the anti-windup branch is exercised.
        assert saturated > 0


@pytest.mark.parametrize("which", ["big", "fs"])
def test_gain_switch_repoints_the_compiled_step(
    which, kernel, systems, monkeypatch
):
    # A switch repoints the argument block's gain-pack slot at the new
    # set's row; the servo stays on the kernel and keeps matching the
    # numpy step, switched the same way, bit for bit.
    system, palette, limits = _palette(systems, which)
    op = system.operating_point
    fused = LQGServoController(palette[0], op, limits)
    with monkeypatch.context() as patch:
        patch.setattr(lqg, "fused_kernel", lambda: None)
        reference = LQGServoController(palette[0], op, limits)
    rng = np.random.default_rng(0x5A1)
    for gains in (palette[1], palette[0], palette[1]):
        fused.switch_gains(gains)
        with monkeypatch.context() as patch:
            patch.setattr(lqg, "fused_kernel", lambda: None)
            reference.switch_gains(gains)
        assert fused._fused is kernel
        assert fused._block[SERVO_PACKS] == gains.fused_pack.row_address
        assert _state(fused) == _state(reference)
        for scale in (0.5, 3.0, 50.0):
            y = op.y + op.y_scale * scale * rng.standard_normal(op.y.size)
            assert fused.step(y).tobytes() == reference.step(y).tobytes()
            assert _state(fused) == _state(reference)


class TestScalarFusedCoverage:
    """Every scalar manager's servo runs the compiled step.

    The scalar twin of ``TestFusedCoverage``: a servo that falls back
    where the kernel builds names why, and this test fails.
    """

    @pytest.mark.parametrize("manager", MANAGER_NAMES)
    def test_scalar_manager_servos_are_fused(self, manager, systems):
        soc = ExynosSoC(config=SoCConfig(seed=1))
        built = manager_factory(manager, systems)(soc, ManagerGoals(60.0, 5.0))
        if hasattr(built, "controller"):
            pairs = [(built.controller, None)]
        else:
            pairs = [
                (mimo.controller, mimo) for mimo in (built.big_mimo, built.little_mimo)
            ]
        if fused_kernel() is None:
            pytest.skip(pairs[0][0].fused_reason)
        for controller, mimo in pairs:
            assert controller.fused_reason is None, controller.name
            assert controller._fused is not None
            if mimo is None:
                continue
            # Both gain sets of the library run the kernel.
            for name in (POWER_GAINS, QOS_GAINS):
                mimo.switch_gains(name)
                assert controller.fused_reason is None, (controller.name, name)

    def test_disabled_kernel_is_reported_on_a_scalar_servo(self):
        # The kernel's availability is decided once per process, so the
        # disabled case runs in a fresh interpreter.
        code = (
            "import numpy as np\n"
            "from repro.control.lqg import ActuatorLimits, "
            "LQGServoController, design_lqg_servo\n"
            "from repro.control.statespace import OperatingPoint, StateSpaceModel\n"
            "model = StateSpaceModel(A=np.eye(2) * 0.5, B=np.eye(2), "
            "C=np.eye(2), D=np.zeros((2, 2)))\n"
            "gains = design_lqg_servo(model, output_weights=[1.0, 1.0], "
            "effort_weights=[1.0, 1.0])\n"
            "servo = LQGServoController(gains, OperatingPoint(u=[0, 0], "
            "y=[0, 0]), ActuatorLimits(lower=[-1, -1], upper=[1, 1]))\n"
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


def test_pickled_gains_rebuild_their_pack(kernel, systems):
    # The pack holds this process's raw addresses: a pickled gain set
    # drops it and rebuilds its own on first use.
    _, palette, limits = _palette(systems, "big")
    gains = palette[0]
    assert gains.fused_pack.row is not None
    copy = pickle.loads(pickle.dumps(gains))
    assert copy._fused_pack is None
    servo = LQGServoController(copy, systems.big.operating_point, limits)
    assert servo.fused_reason is None
    assert copy.fused_pack is not gains.fused_pack
    assert copy.fused_pack.key == gains.fused_pack.key
