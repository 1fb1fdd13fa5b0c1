"""Self-test job runners for the engine tests.

The engine resolves a job's runner by dotted name inside its worker
(``repro.exec.engine._resolve_runner``).  Spawned pool workers start
with the parent's ``sys.path``, which under pytest holds the repo root,
so ``tests.exec.runners.<name>`` resolves there as it does in the
serial path; ``tests/exec/test_engine.py`` runs every runner below
through a process pool.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

from repro.exec.job import ScenarioJob

ECHO = "tests.exec.runners._echo_runner"
CRASH_ONCE = "tests.exec.runners._crash_once_runner"
ALWAYS_CRASH = "tests.exec.runners._always_crash_runner"
COUNTING = "tests.exec.runners._counting_runner"


def _echo_runner(job: ScenarioJob) -> Any:
    """Return the job label, or raise if the spec says so."""
    params = job.params()
    if "raise" in params:
        raise ValueError(str(params["raise"]))
    return ("echo", job.label)


def _crash_once_runner(job: ScenarioJob) -> str:
    """Hard-kill the worker while a sentinel file exists (crash drill)."""
    sentinel = Path(str(job.params()["sentinel"]))
    if sentinel.exists():
        sentinel.unlink()
        os._exit(13)
    return "survived"


def _always_crash_runner(job: ScenarioJob) -> str:
    """Hard-kill the worker unconditionally (retry-exhaustion drill)."""
    os._exit(13)


def _counting_runner(job: ScenarioJob) -> Any:
    """Echo runner that appends one line per dispatch to a tally file
    (O_APPEND single write: atomic across workers) — dispatch-count
    drills for the redispatch/no-double-cache regression tests."""
    params = job.params()
    tally = Path(str(params["tally"]))
    with open(tally, "a", encoding="utf-8") as fh:
        fh.write(f"{job.label}\n")
    if "sentinel" in params:
        sentinel = Path(str(params["sentinel"]))
        if sentinel.exists():
            sentinel.unlink()
            os._exit(13)
    return ("counted", job.label)
