"""Summary statistics shared by ``run.py`` and ``compare.py``.

Quartiles use :func:`statistics.quantiles` with its default
(exclusive) method, so they match what an external checker computes
from the same values.  A tail percentile is reported only when at
least ten samples lie beyond it; with fewer, it would be one or two
samples dressed up as a distribution.
"""

from __future__ import annotations

import statistics
from typing import Sequence

# Candidate tail percentiles, highest first, each with the number of
# equal-probability intervals whose last cut point it is.  A percentile
# with d intervals has n / d samples beyond it.
_TAILS = ((99.9, 1000), (99.0, 100), (90.0, 10))
MIN_TAIL_EXCEEDANCES = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile; a single sample is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """``(p, value)`` for the highest percentile with >= 10 samples
    beyond it, or ``None`` when the sample is too small for any."""
    for p, intervals in _TAILS:
        if len(values) >= MIN_TAIL_EXCEEDANCES * intervals:
            return p, float(statistics.quantiles(values, n=intervals)[-1])
    return None


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 when flat)."""
    mid = median(values)
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def summarize(values: Sequence[float], bound: float | None = None) -> dict:
    """Median, quartiles, count, optional tail and the noisy flag.

    ``noisy`` marks a metric whose interquartile range is wider than
    its regression bound: a change within that bound cannot be told
    apart from run-to-run noise, so the output says so instead of
    hiding it.
    """
    values = [float(v) for v in values]
    q1, q3 = quartiles(values)
    summary = {
        "value": median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }
    tail = tail_percentile(values)
    if tail is not None:
        summary["tail"] = {"p": tail[0], "value": tail[1]}
    if bound is not None:
        summary["noisy"] = relative_spread(values) > bound
    return summary
