"""Golden servo state: each manager's final servo state on the golden
scenario must match the committed digest (``fixtures/golden_servo.json``).

The golden traces pin the actuation, which the discrete OPP ladder and
core counts quantize; this fixture pins the continuous state behind it
(estimate, integrators, last move and last command of every servo).  It
holds only because the identified models and their gain sets are
committed and loaded, not re-identified on the host's BLAS, and every
servo product runs in one reduction order: CI and ``scripts/check.sh``
rerun it under other OpenBLAS kernels.  Intentional behaviour changes
regenerate the fixture with ``scripts/make_golden_traces.py``.
"""

from __future__ import annotations

import pytest

from tests.exec.golden import (
    GOLDEN_MANAGERS,
    SERVO_STATE,
    load_servo_fixture,
    servo_digest,
)

pytestmark = pytest.mark.exec_smoke


@pytest.fixture(scope="module")
def fixture() -> dict:
    return load_servo_fixture()


def test_fixture_covers_every_manager_and_field(fixture):
    assert sorted(fixture["managers"]) == sorted(GOLDEN_MANAGERS)
    assert fixture["state"] == list(SERVO_STATE)


@pytest.mark.parametrize("manager", GOLDEN_MANAGERS)
def test_servo_state_matches_golden(manager, fixture):
    assert servo_digest(manager) == fixture["managers"][manager], (
        f"{manager}'s servo state deviates from the golden digest; if the "
        "change is intentional, regenerate with scripts/make_golden_traces.py"
    )
