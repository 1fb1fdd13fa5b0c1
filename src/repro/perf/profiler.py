"""Per-stage wall-clock profiler for the simulation/control tick.

Hooks are plain instance attributes shadowing bound methods, installed
by :meth:`StepProfiler.attach` and removed by :meth:`StepProfiler.detach`:

* ``soc.step``                  -> ``step_total`` (whole plant tick)
* ``soc.scheduler.place[_idle]`` -> ``scheduler``
* ``soc._plant_tick``           -> ``tick_kernel`` (the compiled tick:
  QoS rate, busy clamps and both sensor reads in one kernel call)
* ``soc._qos_rate``             -> ``workload`` (QoS rate, Python tick)
* ``soc._cluster_telemetry``    -> ``sensors`` (two calls per Python tick)
* ``manager.control``           -> ``controller`` (includes supervisor)
* ``manager._supervise``        -> ``supervisor`` (SPECTR-style managers)

A SoC on the compiled tick (``soc.tick_reason is None``) reports its
rate and sensor time as one ``tick_kernel`` stage; one on the Python
tick reports them as ``workload`` and ``sensors``.  No hook changes
which tick runs: the workload itself is never wrapped.

Because every hook is an instance attribute, a detached profiler leaves
the objects exactly as constructed — the hot path never checks a flag,
so the overhead-when-detached is structurally zero (verified by
``tests/perf/test_profiler.py``).  The hooks only observe timing; they
never touch the RNG, so a profiled run stays bit-identical to an
unprofiled one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

STAGES = (
    "step_total",
    "scheduler",
    "tick_kernel",
    "workload",
    "sensors",
    "controller",
    "supervisor",
)

# Human-oriented notes for the report, keyed by stage.
_STAGE_NOTES = {
    "step_total": "one ExynosSoC.step (plant tick)",
    "scheduler": "background-task placement",
    "tick_kernel": "compiled tick: QoS rate + both sensor reads",
    "workload": "QoS application rate model (Python tick)",
    "sensors": "cluster telemetry reads (Python tick)",
    "controller": "manager.control (incl. supervisor)",
    "supervisor": "supervisory-engine invocations",
}


@dataclass
class StageStats:
    """Accumulated wall-clock for one stage."""

    calls: int = 0
    total_s: float = 0.0

    @property
    def mean_us(self) -> float:
        if self.calls == 0:
            return 0.0
        return self.total_s / self.calls * 1e6


@dataclass
class StepProfiler:
    """Attachable per-stage profiler for an SoC + manager pair."""

    stats: dict[str, StageStats] = field(
        default_factory=lambda: {name: StageStats() for name in STAGES}
    )
    _undo: list[Callable[[], None]] = field(default_factory=list)

    @property
    def attached(self) -> bool:
        return bool(self._undo)

    # ------------------------------------------------------------------
    def attach(self, soc: Any, manager: Any | None = None) -> "StepProfiler":
        """Install hooks on ``soc`` (and optionally its manager)."""
        self.attach_soc(soc)
        if manager is not None:
            self.attach_manager(manager)
        return self

    def attach_soc(self, soc: Any) -> None:
        self._wrap(soc, "step", "step_total")
        self._wrap(soc.scheduler, "place", "scheduler")
        if hasattr(soc.scheduler, "place_idle"):
            self._wrap(soc.scheduler, "place_idle", "scheduler")
        self._wrap(soc, "_plant_tick", "tick_kernel")
        self._wrap(soc, "_qos_rate", "workload")
        self._wrap(soc, "_cluster_telemetry", "sensors")

    def attach_manager(self, manager: Any) -> None:
        self._wrap(manager, "control", "controller")
        if hasattr(manager, "_supervise"):
            self._wrap(manager, "_supervise", "supervisor")

    def detach(self) -> None:
        """Remove every hook, restoring the objects exactly."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    def _wrap(self, obj: Any, method_name: str, stage: str) -> None:
        original = getattr(obj, method_name)
        stats = self.stats[stage]

        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                stats.calls += 1
                stats.total_s += time.perf_counter() - t0

        setattr(obj, method_name, timed)

        def undo() -> None:
            # Only remove the shadow if nothing else replaced it since.
            if obj.__dict__.get(method_name) is timed:
                delattr(obj, method_name)

        self._undo.append(undo)

    # ------------------------------------------------------------------
    def tick_total_s(self) -> float:
        """Wall-clock of plant tick + controller (the full control loop;
        ``manager.control`` runs outside ``soc.step``)."""
        return (
            self.stats["step_total"].total_s + self.stats["controller"].total_s
        )

    def report(self, *, steps_per_s: float | None = None) -> str:
        """Hotspot table, one row per stage, sorted by total time.

        ``supervisor`` time is nested inside ``controller`` time, and
        ``scheduler``/``tick_kernel``/``workload``/``sensors`` are
        nested inside ``step_total``; percentages are of the full control loop
        (plant tick + controller).
        """
        tick = self.tick_total_s()
        header = (
            f"{'stage':<12} {'calls':>8} {'total ms':>10} "
            f"{'us/call':>9} {'% loop':>7}  note"
        )
        lines = [header, "-" * len(header)]
        ordered = sorted(
            STAGES, key=lambda name: self.stats[name].total_s, reverse=True
        )
        for name in ordered:
            stat = self.stats[name]
            share = 100.0 * stat.total_s / tick if tick > 0 else 0.0
            lines.append(
                f"{name:<12} {stat.calls:>8} {stat.total_s * 1e3:>10.3f} "
                f"{stat.mean_us:>9.1f} {share:>6.1f}%  {_STAGE_NOTES[name]}"
            )
        steps = self.stats["step_total"].calls
        if steps and tick > 0:
            lines.append("")
            measured = steps / tick
            lines.append(
                f"{steps} steps, {tick * 1e3:.1f} ms in the control loop "
                f"({measured:.0f} steps/s inside the loop)"
            )
        if steps_per_s is not None:
            lines.append(
                f"end-to-end run_scenario throughput: {steps_per_s:.0f} steps/s"
            )
        return "\n".join(lines)
