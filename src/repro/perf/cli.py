"""``python -m repro.perf`` — hotspot profiling from the command line.

``profile <manager>`` runs one three-phase scenario with a
:class:`~repro.perf.profiler.StepProfiler` attached and prints the
per-stage hotspot table plus end-to-end throughput, then each LQG
servo's step path: ``compiled`` (the fused kernel) or ``numpy`` with
the servo's ``fused_reason``, then the fleet's sensor-noise refill:
``compiled`` (the ``noise_fill`` kernel) or ``numpy`` with
``FleetPlatform.fused_reason``, and last the plant tick, sensor reads
included, of the SoC and of a fleet of the same workload: ``compiled``
(the ``plant_tick`` kernel) or ``python``/``numpy`` with
``tick_reason``.
"""

from __future__ import annotations

import argparse
import time
from typing import Sequence

from repro.perf.profiler import StepProfiler

__all__ = ["main"]


def _resolve_manager(name: str) -> str:
    from repro.experiments.figures import MANAGER_NAMES

    for candidate in MANAGER_NAMES:
        if candidate.lower() == name.lower():
            return candidate
    raise SystemExit(
        f"unknown manager {name!r}; choose from "
        f"{', '.join(MANAGER_NAMES)} (case-insensitive)"
    )


def _resolve_workload(name: str):
    from repro.workloads import all_qos_workloads

    workloads = all_qos_workloads()
    for workload in workloads:
        if workload.name.lower() == name.lower():
            return workload
    raise SystemExit(
        f"unknown workload {name!r}; choose from "
        f"{', '.join(w.name for w in workloads)}"
    )


def _servo_report(manager) -> str:
    """One line per LQG servo of ``manager``: its step path and, on
    the numpy path, why (``fused_reason``)."""
    from repro.control.lqg import LQGServoController

    servos = []
    for value in vars(manager).values():
        servo = getattr(value, "controller", value)
        if isinstance(servo, LQGServoController):
            servos.append(servo)
    lines = [f"{'servo':<14} {'path':<9} fused_reason"]
    for servo in servos:
        path = "numpy" if servo._fused is None else "compiled"
        reason = servo.fused_reason if servo._fused is None else "-"
        lines.append(f"{servo.name:<14} {path:<9} {reason}")
    return "\n".join(lines)


def _noise_report(seed: int) -> str:
    """The fleet's sensor-noise refill path and, on the numpy loop,
    why (``FleetPlatform.fused_reason``)."""
    from repro.platform.fleet import FleetPlatform

    reason = FleetPlatform(seeds=(seed,)).fused_reason
    path = "numpy" if reason is not None else "compiled"
    return "\n".join(
        [
            f"{'noise':<14} {'path':<9} fused_reason",
            f"{'fleet refill':<14} {path:<9} {reason or '-'}",
        ]
    )


def _tick_report(socs, workload, seed: int) -> str:
    """The plant tick's path of each profiled SoC and of a fleet of the
    same workload and, off the compiled kernel, why (``tick_reason``)."""
    from repro.platform.fleet import FleetPlatform

    fleet = FleetPlatform(qos_app=workload, seeds=(seed,))
    rows = [("soc", "python", soc.tick_reason) for soc in socs]
    rows.append(("fleet", "numpy", fleet.tick_reason))
    lines = [f"{'tick':<14} {'path':<9} fused_reason"]
    for name, fallback, reason in rows:
        path = fallback if reason is not None else "compiled"
        lines.append(f"{name:<14} {path:<9} {reason or '-'}")
    return "\n".join(lines)


def _cmd_profile(args: argparse.Namespace) -> int:
    # Heavy imports stay inside the command so ``--help`` is instant.
    from repro.experiments.figures import identified_systems, manager_factory
    from repro.experiments.runner import run_scenario
    from repro.experiments.scenario import three_phase_scenario

    manager_name = _resolve_manager(args.manager)
    workload = _resolve_workload(args.workload)
    scenario = three_phase_scenario(phase_duration_s=args.duration / 3.0)

    print(
        f"profiling {manager_name} on {workload.name!r} "
        f"({args.duration:.0f} s scenario, seed {args.seed}) ..."
    )
    systems = identified_systems()
    factory = manager_factory(manager_name, systems)

    profiler = StepProfiler()
    managers = []
    socs = []

    def soc_setup(soc) -> None:
        socs.append(soc)
        profiler.attach_soc(soc)

    def manager_setup(manager) -> None:
        managers.append(manager)
        profiler.attach_manager(manager)

    t0 = time.perf_counter()
    trace = run_scenario(
        factory,
        workload,
        scenario,
        seed=args.seed,
        soc_setup=soc_setup,
        manager_setup=manager_setup,
    )
    elapsed = time.perf_counter() - t0
    profiler.detach()

    steps = len(trace.times)
    print()
    print(profiler.report(steps_per_s=steps / elapsed if elapsed > 0 else 0.0))
    for manager in managers:
        print()
        print(_servo_report(manager))
    print()
    print(_noise_report(args.seed))
    print()
    print(_tick_report(socs, workload, args.seed))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Profile the per-tick hot path of a resource manager.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    profile = sub.add_parser(
        "profile", help="run one scenario and print a per-stage hotspot table"
    )
    profile.add_argument(
        "manager",
        help="manager name (FS, MM-Perf, MM-Pow, SPECTR; case-insensitive)",
    )
    profile.add_argument(
        "--workload", default="x264", help="QoS workload name (default: x264)"
    )
    profile.add_argument(
        "--duration",
        type=float,
        default=15.0,
        help="total scenario duration in seconds (default: 15)",
    )
    profile.add_argument(
        "--seed", type=int, default=2018, help="platform RNG seed"
    )
    profile.set_defaults(func=_cmd_profile)

    args = parser.parse_args(argv)
    return args.func(args)
