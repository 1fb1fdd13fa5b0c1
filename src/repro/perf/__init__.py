"""Opt-in, per-stage profiling of the simulation/control hot path.

SPECTR's pitch is that supervisory control is cheap (Section 5.3
measures microsecond-scale invocations against a 50 ms epoch); this
package keeps the reproduction honest about its own cost.  A
:class:`StepProfiler` attaches to any ``ExynosSoC`` + manager pair and
accumulates wall-clock time and call counts per stage (scheduler /
workload / sensors / controller / supervisor).  Attachment is purely
instance-level — detaching removes every hook, so an unprofiled step
pays nothing.

CLI::

    python -m repro.perf profile spectr

prints a hotspot table for one scenario run.  The benchmark suite
(``benchmarks/suite/``) times the hot path per layer, and
``tests/perf/test_speed_floors.py`` gates its speedup over the
pre-rework baseline.
"""

from repro.perf.profiler import STAGES, StageStats, StepProfiler

__all__ = ["STAGES", "StageStats", "StepProfiler"]
