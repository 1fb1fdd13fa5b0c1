"""Summary statistics: median, quartiles, tail percentile, noisy flag."""

from __future__ import annotations

import statistics

import pytest

from stats import median, quartiles, relative_spread, summarize, tail_percentile


def test_median_and_quartiles_match_the_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert median(values) == 4.0
    assert quartiles(values) == (q1, q3)


def test_a_single_sample_is_its_own_quartiles():
    assert quartiles([2.5]) == (2.5, 2.5)
    assert relative_spread([2.5]) == 0.0


@pytest.mark.parametrize("n", [1, 10, 99])
def test_no_tail_percentile_with_fewer_than_ten_samples_beyond_it(n):
    assert tail_percentile([float(i) for i in range(n)]) is None


@pytest.mark.parametrize("n", [100, 500, 999])
def test_p90_once_ten_samples_lie_beyond_it(n):
    values = [float(i) for i in range(n)]
    p, value = tail_percentile(values)
    assert p == 90.0
    assert value == statistics.quantiles(values, n=10)[-1]
    assert sum(1 for v in values if v > value) >= 10


def test_p99_from_a_thousand_samples():
    values = [float(i) for i in range(1000)]
    p, value = tail_percentile(values)
    assert p == 99.0
    assert value == statistics.quantiles(values, n=100)[-1]


def test_summary_flags_a_spread_wider_than_the_bound():
    steady = summarize([1.0, 1.01, 0.99, 1.0, 1.02], bound=0.1)
    noisy = summarize([1.0, 1.5, 0.7, 1.2, 0.8], bound=0.1)
    assert not steady["noisy"]
    assert noisy["noisy"]
    assert steady["n"] == 5 and steady["value"] == 1.0
    assert "tail" not in steady
