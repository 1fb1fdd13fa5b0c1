"""One benchmark process: set up, run one workload's rounds, report.

``run.py`` starts this script; it is not meant to be run by hand::

    child.py --spawned-at T --setup-only
    child.py --spawned-at T --workload W --seed S --seconds N --trace 0|1
             --work-dir DIR [--spans FILE] [--smoke]

``T`` is the parent's :func:`time.perf_counter` reading taken just
before it started this process.  On Linux that clock is the
system-wide monotonic clock, so ``perf_counter() - T`` at the end of
set-up is the time from spawn to ready: interpreter start, imports,
controller identification, case-study synthesis, and loading and
probing the compiled fleet kernels.

The host-speed probe of ``hostspeed`` starts first and runs until the
child ends; set-up and every operation are reported in reference
seconds, set-up also in host seconds (``ready_host_s``).

The last line of standard output is one JSON object with the set-up
breakdown and, unless ``--setup-only``, every round's timings, the
operation counts and failures, and the peak resident set size.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported inside set_up, where it is timed
    from hostspeed import Probe


def set_up(spawned_at: float) -> tuple[dict, Probe]:
    """Everything a workload needs before its first operation; returns
    the set-up report and the running host-speed probe."""
    start = perf_counter()
    from hostspeed import Probe

    probe = Probe()
    probe.start()
    import numpy as np

    import workloads
    from repro.control.fused import fused_kernel
    from repro.experiments.figures import case_study_supervisor, identified_systems
    from repro.experiments.fleet import fleet_manager_factory
    from repro.managers.base import ManagerGoals
    from repro.platform.fleet import FleetPlatform

    imported = perf_counter()
    systems = identified_systems()
    identified = perf_counter()
    case_study_supervisor()
    synthesized = perf_counter()

    # Kernel load plus the construction-time probes: one tiny fleet and
    # one of each fleet manager on it.  The probe verdicts are read back
    # from the objects they configured.
    fused_kernel()
    platform = FleetPlatform(qos_app=workloads.x264(), seeds=(1, 2))
    first = workloads.three_phase_scenario().phases[0]
    goals = ManagerGoals(first.qos_reference, first.power_budget_w)
    servo_fused = {}
    for name in workloads.MANAGER_NAMES:
        manager = fleet_manager_factory(name, systems)(platform, goals)
        servos = (
            [manager.controller]
            if hasattr(manager, "controller")
            else [manager.big_servo, manager.little_servo]
        )
        servo_fused[name] = all(servo._fused is not None for servo in servos)
    platform.big.set_frequency(np.full(platform.n_devices, 1.0))
    fused = {
        "servo": servo_fused,
        "telemetry": all(
            cluster.telemetry_kernel is not None
            for cluster in (platform.big, platform.little)
        ),
        "snap": platform.big.opps._snap_kernel is not None,
    }
    probed = perf_counter()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    report = {
        "ready_s": probe.scaled(spawned_at, probed),
        "ready_host_s": probed - spawned_at,
        "setup": {
            "imports_ms": probe.scaled(start, imported) * 1e3,
            "identify_ms": probe.scaled(imported, identified) * 1e3,
            "case_study_ms": probe.scaled(identified, synthesized) * 1e3,
            "fused_ms": probe.scaled(synthesized, probed) * 1e3,
        },
        "fused": fused,
        "versions": {"numpy": np.__version__, "blas": blas_name},
    }
    return report, probe


def measure(args: argparse.Namespace, probe: Probe) -> dict:
    """Warm-up round, then timed rounds for ``args.seconds``; a traced
    run alternates untraced and traced rounds so the tracing overhead is
    measured in the same process."""
    from tracing import Tracer
    from workloads import DETAIL_METRICS, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke, Path(args.work_dir), probe)
    if not args.smoke:
        workload.round(None)
    rounds = []
    tracer = None
    start = perf_counter()
    while True:
        for traced in (False, True) if args.trace else (False,):
            tracer = Tracer() if traced else None
            result = workload.round(tracer)
            rounds.append(
                {
                    "traced": traced,
                    "seconds": result.seconds,
                    "detail": {**result.detail, "round_host_s": result.host_seconds},
                    "layers": result.layers,
                }
            )
        if args.smoke or perf_counter() - start >= args.seconds:
            break
    workload.final_checks()
    if args.trace and args.spans:
        tracer.write_jsonl(Path(args.spans))
    return {
        "rounds": rounds,
        "detail_units": DETAIL_METRICS,
        "attempted": workload.attempted,
        "failures": workload.failures,
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir")
    parser.add_argument("--spans")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    report, probe = set_up(args.spawned_at)
    if not args.setup_only:
        report.update(measure(args, probe))
    probe.stop()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
