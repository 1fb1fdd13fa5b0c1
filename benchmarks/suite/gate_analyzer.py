"""The analyzer process of an analysis-gate round.

Usage: ``python gate_analyzer.py REPORT.json all [options...]``

Runs ``python -m repro.analysis all [options...]`` in this process with
two additions, and writes both to ``REPORT.json``:

* the host-speed probe of ``hostspeed``, started before the analyzer is
  imported, so the parent can scale the gate's time by the host speed
  the analyzer met;
* one span (name, start, end) per call of each analyzer tier: the four
  tier functions the entry point looks up at call time are rebound, in
  this short-lived process only, to timers around the originals.

The exit status is the analyzer's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import Probe


def main(argv: list[str]) -> int:
    probe = Probe()
    probe.start()

    import repro.analysis.cli as cli
    import repro.analysis.flow as flow
    import repro.analysis.models.scan as models_scan
    import repro.analysis.shapes as shapes

    spans: list[dict] = []

    def timed(module, attribute: str, tier: str) -> None:
        original = getattr(module, attribute)

        def run(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spans.append(
                    {"name": f"analysis.{tier}", "start": start, "end": perf_counter()}
                )

        setattr(module, attribute, run)

    timed(cli, "analyze_paths", "classic")
    timed(flow, "analyze_project", "flow")
    timed(models_scan, "scan_paths", "models")
    timed(shapes, "analyze_project", "shapes")
    try:
        return cli.main(argv[1:])
    finally:
        probe.stop()
        report = {"tiers": spans, "probe": probe.to_json()}
        Path(argv[0]).write_text(json.dumps(report), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
