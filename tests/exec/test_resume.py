"""Resume semantics: SIGTERM an engine mid-campaign, restart, same bytes.

The satellite regression for the run journal: a real engine process is
killed (SIGTERM, no cleanup handler — the crash case) partway through a
four-manager fault campaign, then restarted against the same journal
and cache.  The union of the two runs must equal an uninterrupted run
byte-for-byte, with the completed prefix served from the journal+cache
instead of being recomputed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.exec_smoke

MANAGERS = ("FS", "MM-Perf", "MM-Pow", "SPECTR")

# The driver: one serial engine run over the campaign, with an optional
# per-completion pause so the parent can SIGTERM it mid-run.  Results
# are dumped only on a *completed* run — an interrupted driver leaves
# nothing but the journal and cache behind, exactly like a crash.
_DRIVER = """\
import json, sys, time
from pathlib import Path

from repro.exec.cache import ResultCache
from repro.exec.engine import ExperimentEngine
from repro.exec.job import canonical_encode
from repro.exec.supervision import RunJournal
from repro.resilience.campaign import CampaignConfig, campaign_jobs

state = Path(sys.argv[1])
pause_s = float(sys.argv[2])
config = CampaignConfig(
    managers=("FS", "MM-Perf", "MM-Pow", "SPECTR"),
    sensor_kinds=("stuck",),
    actuator_kinds=(),
    phase_duration_s=0.6,
    fault_start_s=0.2,
    fault_duration_s=0.2,
)
cache = ResultCache(state / "cache")
journal = RunJournal(state / "journal.jsonl", salt=cache.salt)
engine = ExperimentEngine(
    max_workers=1,
    cache=cache,
    journal=journal,
    progress=(lambda record: time.sleep(pause_s)) if pause_s else None,
)
records = engine.run(campaign_jobs(config))
payload = {
    "ok": [r.ok for r in records],
    "modes": [r.mode for r in records],
    "digests": [r.digest for r in records],
    "results": canonical_encode(
        [r.result.to_json_dict() for r in records]
    ),
}
(state / "results.json").write_text(json.dumps(payload), encoding="utf-8")
"""


def _spawn(driver: Path, state: Path, pause_s: float) -> subprocess.Popen:
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, str(driver), str(state), str(pause_s)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


def _run_to_completion(driver: Path, state: Path) -> dict:
    proc = _spawn(driver, state, pause_s=0.0)
    _, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 0, stderr.decode("utf-8", "replace")
    return json.loads((state / "results.json").read_text(encoding="utf-8"))


def _done_count(journal_path: Path) -> int:
    if not journal_path.exists():
        return 0
    count = 0
    for line in journal_path.read_text(encoding="utf-8").splitlines()[1:]:
        try:
            if json.loads(line).get("status") == "done":
                count += 1
        except json.JSONDecodeError:
            continue  # torn tail line mid-write
    return count


class TestSigtermResume:
    def test_union_of_interrupted_and_resumed_equals_clean_run(
        self, tmp_path
    ):
        driver = tmp_path / "driver.py"
        driver.write_text(_DRIVER, encoding="utf-8")
        state = tmp_path / "state"
        reference = tmp_path / "reference"
        state.mkdir()
        reference.mkdir()

        # Uninterrupted reference: fresh cache, fresh journal.
        clean = _run_to_completion(driver, reference)
        assert all(clean["ok"])
        assert len(clean["digests"]) == 2 * len(MANAGERS)

        # Interrupted run: SIGTERM once the journal shows progress but
        # before the campaign can finish (the driver pauses after each
        # completion to hold that window open).
        proc = _spawn(driver, state, pause_s=0.5)
        journal_path = state / "journal.jsonl"
        deadline = time.monotonic() + 240
        while _done_count(journal_path) < 1:
            if time.monotonic() > deadline:  # pragma: no cover
                proc.kill()
                pytest.fail("driver made no journal progress in 240 s")
            if proc.poll() is not None:  # pragma: no cover
                pytest.fail(
                    "driver finished before it could be interrupted: "
                    + proc.stderr.read().decode("utf-8", "replace")
                )
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        assert proc.returncode != 0
        assert not (state / "results.json").exists()
        completed = _done_count(journal_path)
        assert 1 <= completed < 2 * len(MANAGERS)

        # Resume against the same journal + cache; the union must match
        # the clean run exactly, without recomputing the finished prefix.
        resumed = _run_to_completion(driver, state)
        assert all(resumed["ok"])
        assert resumed["digests"] == clean["digests"]
        assert resumed["results"] == clean["results"]
        served = [
            mode
            for mode in resumed["modes"]
            if mode in ("cache", "journal")
        ]
        assert len(served) >= completed
        # Exactly one fresh "done" line per job across both runs: the
        # journal never double-records work the resume skipped.
        assert _done_count(journal_path) == 2 * len(MANAGERS)
