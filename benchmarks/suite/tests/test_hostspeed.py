"""Host-speed scaling: the arithmetic of ``Probe.scaled`` and the
signal-driven sampling itself."""

from __future__ import annotations

import time

import pytest

from hostspeed import INTERVAL_S, MIN_PROBES, REFERENCE_S, Probe, probe_block


def _probe(samples: list[tuple[float, float]], warm_ups=()) -> Probe:
    probe = Probe()
    probe.add(
        {
            "starts": [start for start, _ in samples],
            "durations": [duration for _, duration in samples],
            "warm_ups": list(warm_ups),
        }
    )
    return probe


def test_at_reference_speed_a_scaled_time_is_the_time_without_the_probe():
    probe = _probe([(t / 10, REFERENCE_S) for t in range(100)])
    inside = 10 * REFERENCE_S  # samples at 1.0, 1.1, ..., 1.9
    assert probe.scaled(1.0, 2.0) == pytest.approx(1.0 - inside)


def test_a_slow_host_is_scaled_back_to_the_reference_speed():
    slow = 1.6 * REFERENCE_S
    probe = _probe([(t / 10, slow) for t in range(100)])
    host_work = 1.0 - 10 * slow
    assert probe.scaled(1.0, 2.0) == pytest.approx(host_work / 1.6)


def test_the_speed_is_the_mean_over_the_samples_inside_the_interval():
    # Fast before 5 s, slow from 5 s on; an interval across the change
    # is scaled by the mean of exactly its own samples.
    fast, slow = REFERENCE_S, 2.0 * REFERENCE_S
    samples = [(t / 10, fast if t < 50 else slow) for t in range(100)]
    probe = _probe(samples)
    inside = [d for s, d in samples if 4.0 <= s < 6.0]
    expected = (2.0 - sum(inside)) * REFERENCE_S / (sum(inside) / len(inside))
    assert probe.scaled(4.0, 6.0) == pytest.approx(expected)


def test_a_short_interval_uses_the_last_samples():
    samples = [(float(t), REFERENCE_S * (1 + t)) for t in range(10)]
    probe = _probe(samples)
    # No sample inside [9.5, 9.6]: the last MIN_PROBES set the speed.
    basis = [d for _, d in samples[-MIN_PROBES:]]
    expected = 0.1 * REFERENCE_S / (sum(basis) / len(basis))
    assert probe.scaled(9.5, 9.6) == pytest.approx(expected)


def test_warm_ups_are_subtracted_but_do_not_set_the_speed():
    samples = [(t / 10, REFERENCE_S) for t in range(20)]
    probe = _probe(samples, warm_ups=[(0.55, 0.02)])
    assert probe.scaled(0.5, 1.0) == pytest.approx(0.5 - 5 * REFERENCE_S - 0.02)


def test_another_process_samples_round_trip_through_json():
    probe = _probe([(0.0, REFERENCE_S)], warm_ups=[(0.0, 0.01)])
    copy = Probe()
    copy.add(probe.to_json())
    assert copy.to_json() == probe.to_json()


def test_the_block_is_deterministic():
    assert probe_block() == probe_block()


def test_a_sample_taken_inside_another_is_skipped(monkeypatch):
    import hostspeed

    probe = Probe()
    nested = []

    def block_interrupted_by_a_tick() -> int:
        if not nested:
            nested.append(True)
            probe._sample()  # the handler re-entered mid-block
        return 0

    monkeypatch.setattr(hostspeed, "probe_block", block_interrupted_by_a_tick)
    probe._sample()
    assert len(probe.starts) == len(probe.durations) == 1


def test_a_running_probe_samples_every_interval_and_pauses():
    probe = Probe()
    probe.start()
    try:
        deadline = time.perf_counter() + 12 * INTERVAL_S
        while time.perf_counter() < deadline:
            sum(range(1000))
        running = len(probe.starts)
        with probe.paused():
            time.sleep(4 * INTERVAL_S)
        paused = len(probe.starts) - running
    finally:
        probe.stop()
    assert running >= 6  # the first sample plus about one per interval
    assert paused == 0
    assert probe.starts == sorted(probe.starts)
    assert len(probe.warm_ups) == 1
