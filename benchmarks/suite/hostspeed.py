"""Host-speed scaling of the benchmark's times.

The benchmark runs on a shared host whose speed changes under it: from
one fraction of a second to the next the same code runs at full speed
or up to 1.8 times slower, and the share of slow time drifts over
minutes.  A median over a run of a few seconds does not average that
out, and a block timed between two operations misses what happened
during a long one.

So every benchmark process that does measured work runs a *probe*:
every ``INTERVAL_S`` of wall time a timer signal interrupts the main
thread, which runs a fixed block of about 1.5 ms — a pure-Python
dictionary loop and a numpy loop over small arrays, the two kinds of
work the program does — and records when it started and how long it
took.  An operation's time is then scaled by the probes that ran
during it::

    scaled_s = (host_s - probe time inside) * REFERENCE_S / mean(probe durations)

A scaled time is the time the operation would have taken on a host
that runs the block in ``REFERENCE_S``; on the reference machine at
rest the two agree.  An operation shorter than a few intervals is
scaled by the last ``MIN_PROBES`` probes.  The block is benchmark code,
so no change to the program moves it; it draws no random numbers and
touches no program state, so it changes no output.

Probe times come from :func:`time.perf_counter`, the system-wide
monotonic clock on Linux, so a child process's probes (the analyzer of
the analysis gate) merge with its parent's.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from contextlib import contextmanager
from statistics import fmean
from time import perf_counter
from typing import Iterator

import numpy as np

# The block's median time on the reference machine (2-vCPU x86-64 VM,
# Python 3.11, numpy 2.4) while its host was quiet.
REFERENCE_S = 1.45e-3
INTERVAL_S = 0.05
MIN_PROBES = 4

_ARRAYS = np.random.default_rng(0).standard_normal((2, 256))


def probe_block() -> int:
    """The fixed block; returns a value so the work cannot be skipped."""
    table = dict.fromkeys(range(256), 0)
    acc = 0
    for i in range(8000):
        table[i & 255] = i
        acc += table[(i * 7) & 255] ^ i
    a, b = _ARRAYS[0].copy(), _ARRAYS[1]
    for _ in range(40):
        a = np.clip(np.where(a > b, a * 1.5, b - 0.5), -3.0, 3.0)
    return acc + int(a[0] > 0)


class Probe:
    """The probe of one process: ``starts`` and ``durations`` of every
    sample it took, in time order, and its warm-ups, which are not
    samples (a process's first numpy calls pay one-off costs) but whose
    time is not the program's either."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.warm_ups: list[tuple[float, float]] = []
        self._sampling = False

    def start(self) -> None:
        """Warm the block up, take one sample, then sample every
        ``INTERVAL_S`` until :meth:`stop`."""
        begin = perf_counter()
        for _ in range(3):
            probe_block()
        self.warm_ups.append((begin, perf_counter() - begin))
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """No samples in this process while another one does the work."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _sample(self, *_signal: object) -> None:
        # A tick delayed by a long native call can run this handler so
        # late that the next tick arrives while it runs, and Python then
        # re-enters it between two bytecodes; the inner call skips its
        # sample, so that no sample's time includes another's.
        if self._sampling:
            return
        self._sampling = True
        try:
            start = perf_counter()
            probe_block()
            duration = perf_counter() - start
            self.starts.append(start)
            self.durations.append(duration)
        finally:
            self._sampling = False

    def add(self, samples: dict) -> None:
        """Merge another process's samples (``to_json``), taken while
        this probe was paused."""
        self.starts.extend(samples["starts"])
        self.durations.extend(samples["durations"])
        self.warm_ups.extend(map(tuple, samples["warm_ups"]))

    def to_json(self) -> dict:
        return {"starts": self.starts, "durations": self.durations, "warm_ups": self.warm_ups}

    def scaled(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` in reference seconds: its time
        without the probe's own, at the mean speed of the samples inside
        it (at least the last ``MIN_PROBES``)."""
        low = bisect_left(self.starts, start)
        high = bisect_left(self.starts, end)
        probe_s = sum(self.durations[low:high]) + sum(
            duration for begin, duration in self.warm_ups if start <= begin < end
        )
        basis = self.durations[max(0, min(low, high - MIN_PROBES)) : high]
        return (end - start - probe_s) * REFERENCE_S / fmean(basis)
