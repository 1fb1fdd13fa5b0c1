#!/usr/bin/env python
"""Regenerate the committed design-flow artifacts.

Runs the paper's full design flow (compose Exynos plant + specification,
synthesize the supremal controllable nonblocking supervisor, verify it)
and serializes the three automata to ``artifacts/case_study/`` where the
formal model analyzer (``python -m repro.analysis models``) scans them
in CI.  It also identifies the big, little and full controller models,
designs the gain libraries the four managers build from them, and
writes both losslessly to ``artifacts/design/``, which
``identified_systems()`` loads in every process.  Re-run and commit
whenever the plant, specification, identification or gain design
intentionally changes — otherwise the analyzer's REPRO-M007 rule flags
the automata as stale, and ``tests/managers/test_committed_design.py``
the models.

Usage::

    python scripts/make_model_artifacts.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.automata.serialization import (  # noqa: E402
    automaton_to_dict,
    canonical_digest,
)
from repro.core.synthesis_flow import build_case_study_supervisor  # noqa: E402
from repro.experiments.figures import DESIGN_DIR, write_design  # noqa: E402

ARTIFACT_DIR = REPO_ROOT / "artifacts" / "case_study"


def main() -> int:
    verified = build_case_study_supervisor()
    if not verified.verification.verified:
        print("refusing to write artifacts: verification failed")
        print(verified.verification.summary())
        return 1
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    models = {
        "plant": verified.plant,
        "specification": verified.specification,
        "supervisor": verified.supervisor,
    }
    for role, automaton in sorted(models.items()):
        target = ARTIFACT_DIR / f"{role}.json"
        payload = automaton_to_dict(automaton)
        target.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(
            f"wrote {target} ({len(automaton.states)} states, "
            f"digest {canonical_digest(automaton)[:12]})"
        )
    write_design(DESIGN_DIR)
    print(f"wrote {DESIGN_DIR} (big, little and full models with their gains)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
