#!/usr/bin/env python
"""Regenerate the golden-trace regression fixtures.

Runs every manager through the short three-phase golden scenario
(1 s phases, seed 2018) serially and writes the full trace series to
``tests/exec/fixtures/golden_traces.json``, the golden fleet to
``golden_fleet.json`` and a digest of each manager's final servo state
to ``golden_servo.json``.  The regression suite
(``tests/exec/test_golden_traces.py``) asserts that serial, parallel,
and warm-cache engine runs all reproduce these values **exactly** —
JSON stores each float's shortest ``repr``, which round-trips float64
losslessly, so the comparison is bit-for-bit.

Only rerun this script when the simulation or controllers intentionally
change behaviour; commit the regenerated fixture with that change.

Usage::

    python scripts/make_golden_traces.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.exec.engine import _worker_execute  # noqa: E402
from tests.exec.golden import (  # noqa: E402
    FIXTURE_PATH,
    FLEET_FIXTURE_PATH,
    GOLDEN_MANAGERS,
    SERVO_FIXTURE_PATH,
    SERVO_STATE,
    fleet_payload,
    golden_fleet_job,
    golden_job,
    servo_digest,
    trace_payload,
)


def main() -> int:
    payload = {
        "schema": "golden-traces/1",
        "scenario": "three-phase, 1.0 s phases, seed 2018",
        "managers": {},
    }
    for manager in GOLDEN_MANAGERS:
        status, trace, duration_s = _worker_execute(golden_job(manager))
        if status != "ok":
            print(trace, file=sys.stderr)
            return 1
        payload["managers"][manager] = trace_payload(trace)
        print(f"{manager}: {duration_s:.2f} s")
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FIXTURE_PATH}")

    fleet_job = golden_fleet_job()
    status, fleet_trace, duration_s = _worker_execute(fleet_job)
    if status != "ok":
        print(fleet_trace, file=sys.stderr)
        return 1
    fleet_doc = {
        "schema": "golden-fleet/1",
        "scenario": (
            "three-phase, 1.0 s phases, seed 2018, "
            f"{fleet_job.n_devices} devices, "
            f"row {fleet_job.device_faults[0][0]} faulted"
        ),
        "fleet": fleet_payload(fleet_trace),
    }
    print(f"fleet[{fleet_job.n_devices}]: {duration_s:.2f} s")
    FLEET_FIXTURE_PATH.write_text(
        json.dumps(fleet_doc, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FLEET_FIXTURE_PATH}")

    servo_doc = {
        "schema": "golden-servo/1",
        "scenario": "three-phase, 1.0 s phases, seed 2018",
        "state": list(SERVO_STATE),
        "managers": {manager: servo_digest(manager) for manager in GOLDEN_MANAGERS},
    }
    SERVO_FIXTURE_PATH.write_text(
        json.dumps(servo_doc, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {SERVO_FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
