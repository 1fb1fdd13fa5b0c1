"""ExperimentEngine: pool execution, retries, fallbacks, caching."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.exec.cache import ResultCache
from repro.exec.engine import EngineError, ExperimentEngine
from repro.exec.job import ScenarioJob
from tests.exec.runners import ALWAYS_CRASH, COUNTING, CRASH_ONCE, ECHO

pytestmark = pytest.mark.exec_smoke


def _echo_job(label: str, **params) -> ScenarioJob:
    # The label is excluded from the digest by design, so echo jobs that
    # must stay distinct under a cache carry it as an override too.
    params.setdefault("tag", label)
    return ScenarioJob(
        manager="SPECTR",
        runner=ECHO,
        overrides=tuple(sorted(params.items())),
        label=label,
    )


class TestSerial:
    def test_results_in_input_order(self):
        jobs = [_echo_job(str(i)) for i in range(5)]
        assert ExperimentEngine().results(jobs) == [
            ("echo", str(i)) for i in range(5)
        ]

    def test_runner_exception_becomes_failure_record(self):
        records = ExperimentEngine().run([_echo_job("bad", **{"raise": "boom"})])
        assert not records[0].ok
        assert "boom" in records[0].error
        assert records[0].attempts == 1

    def test_results_raises_engine_error_on_failure(self):
        with pytest.raises(EngineError, match="boom"):
            ExperimentEngine().results([_echo_job("bad", **{"raise": "boom"})])

    def test_unknown_runner_is_a_job_failure_not_a_crash(self):
        job = ScenarioJob(manager="SPECTR", runner="repro.exec.engine.nope")
        record = ExperimentEngine().run([job])[0]
        assert not record.ok and "not callable" in record.error

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentEngine(max_workers=0)
        with pytest.raises(ValueError):
            ExperimentEngine(max_crash_retries=-1)


class TestParallel:
    def test_pool_results_match_serial(self):
        jobs = [_echo_job(str(i)) for i in range(6)]
        serial = ExperimentEngine().results(jobs)
        parallel = ExperimentEngine(max_workers=3).results(jobs)
        assert parallel == serial

    def test_records_report_process_mode(self):
        # The echo runner lives in the test tree: a spawned worker must
        # resolve it by dotted name, not fail the job on the import.
        records = ExperimentEngine(max_workers=2).run([_echo_job("a")])
        assert records[0].mode == "process"
        assert records[0].ok and records[0].result == ("echo", "a")
        assert records[0].attempts == 1

    def test_unpicklable_job_falls_back_to_serial(self):
        @dataclass(frozen=True)
        class Local:  # local class: digestable but not picklable
            x: int = 1

        jobs = [
            _echo_job("pickles"),
            _echo_job("does-not", obj=Local()),
        ]
        records = ExperimentEngine(max_workers=2).run(jobs)
        assert [r.mode for r in records] == ["process", "serial"]
        assert all(r.ok for r in records)

    def test_worker_crash_is_retried(self, tmp_path):
        sentinel = tmp_path / "crash-once"
        sentinel.touch()
        job = ScenarioJob(
            manager="SPECTR",
            runner=CRASH_ONCE,
            overrides=(("sentinel", str(sentinel)),),
        )
        record = ExperimentEngine(max_workers=2).run([job])[0]
        assert record.ok and record.result == "survived"
        assert record.attempts == 2

    def test_crash_retries_are_bounded(self):
        job = ScenarioJob(manager="SPECTR", runner=ALWAYS_CRASH)
        record = ExperimentEngine(max_workers=2, max_crash_retries=1).run([job])[0]
        assert not record.ok
        assert "crashed" in record.error
        assert record.attempts == 2  # initial try + one retry


class TestBrokenPoolRedispatch:
    """Jobs in flight at a BrokenProcessPool are re-dispatched exactly
    once per kill budget and never double-cached."""

    @staticmethod
    def _counting_job(label: str, tally, sentinel=None) -> ScenarioJob:
        overrides = [("tag", label), ("tally", str(tally))]
        if sentinel is not None:
            overrides.append(("sentinel", str(sentinel)))
        return ScenarioJob(
            manager="SPECTR",
            runner=COUNTING,
            overrides=tuple(sorted(overrides)),
            label=label,
        )

    def test_crashed_job_dispatched_exactly_once_per_budget(self, tmp_path):
        tally = tmp_path / "tally"
        sentinel = tmp_path / "crash-once"
        sentinel.touch()
        job = self._counting_job("c", tally, sentinel)
        record = ExperimentEngine(max_workers=2, max_crash_retries=3).run([job])[0]
        assert record.ok
        # One crashing dispatch + one clean redispatch — no extras.
        dispatches = tally.read_text(encoding="utf-8").splitlines()
        assert dispatches == ["c", "c"]
        assert record.attempts == 2

    def test_exhausted_budget_stops_redispatching(self, tmp_path):
        tally = tmp_path / "tally"
        job = ScenarioJob(
            manager="SPECTR",
            runner=ALWAYS_CRASH,
            overrides=(("tally", str(tally)),),
        )
        record = ExperimentEngine(max_workers=2, max_crash_retries=2).run([job])[0]
        assert not record.ok
        assert record.attempts == 3  # initial + exactly two retries
        assert record.kills == 3

    def test_crash_survivor_is_cached_exactly_once(self, tmp_path):
        puts: list[str] = []

        class CountingCache(ResultCache):
            def put(self, digest, value):
                puts.append(digest)
                return super().put(digest, value)

        cache = CountingCache(tmp_path / "c")
        tally = tmp_path / "tally"
        sentinel = tmp_path / "crash-once"
        sentinel.touch()
        jobs = [
            self._counting_job("c", tally, sentinel),
            self._counting_job("x", tally),
            self._counting_job("y", tally),
        ]
        records = ExperimentEngine(max_workers=2, cache=cache).run(jobs)
        assert all(r.ok for r in records)
        # Every digest cached exactly once, crash-retried or not.
        assert sorted(puts) == sorted(r.digest for r in records)

    def test_crash_retry_run_matches_clean_run_bytes(self, tmp_path):
        from repro.exec.job import canonical_encode

        tally_a = tmp_path / "tally-a"
        tally_b = tmp_path / "tally-b"
        sentinel = tmp_path / "crash-once"

        def run(tally, crash: bool):
            if crash:
                sentinel.touch()
            jobs = [
                self._counting_job("c", tally, sentinel),
                self._counting_job("x", tally),
            ]
            return ExperimentEngine(max_workers=2, max_crash_retries=2).run(jobs)

        crashed = run(tally_a, crash=True)
        clean = run(tally_b, crash=False)
        # Byte-identical results and outcomes, minus attempts/duration
        # (the tally path is part of the spec, so digests differ by
        # construction; the produced values must not).
        assert canonical_encode(
            [r.result for r in crashed]
        ) == canonical_encode([r.result for r in clean])
        assert [r.ok for r in crashed] == [r.ok for r in clean]
        assert [r.error for r in crashed] == [r.error for r in clean]
        # ... and the retry really happened in the crashed run.
        assert crashed[0].attempts == 2 and clean[0].attempts == 1


class TestCaching:
    def test_second_run_hits_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        engine = ExperimentEngine(cache=cache)
        jobs = [_echo_job("x"), _echo_job("y")]
        first = engine.results(jobs)
        second = engine.results(jobs)
        assert first == second
        assert all(r.cache_hit for r in engine.last_records)
        assert all(r.mode == "cache" for r in engine.last_records)

    def test_failures_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        engine = ExperimentEngine(cache=cache)
        engine.run([_echo_job("bad", **{"raise": "x"})])
        assert len(cache) == 0

    def test_poisoned_entry_is_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        engine = ExperimentEngine(cache=cache)
        job = _echo_job("precious")
        engine.results([job])
        digest = engine.last_records[0].digest
        path = cache._payload_path(digest)
        path.write_bytes(b"\x00" * path.stat().st_size)
        assert engine.results([job]) == [("echo", "precious")]
        assert cache.invalidations == 1
        assert not engine.last_records[0].cache_hit

    def test_salt_change_invalidates_implicitly(self, tmp_path):
        engine_v1 = ExperimentEngine(cache=ResultCache(tmp_path, salt="v1"))
        engine_v1.results([_echo_job("x")])
        engine_v2 = ExperimentEngine(cache=ResultCache(tmp_path, salt="v2"))
        engine_v2.results([_echo_job("x")])
        assert not engine_v2.last_records[0].cache_hit

    def test_no_cache_engine_always_recomputes(self):
        engine = ExperimentEngine()
        engine.results([_echo_job("x")])
        assert not engine.last_records[0].cache_hit


class TestIntrospection:
    def test_describe_last(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        engine.run([_echo_job("x")])
        engine.run([_echo_job("x")])
        summary = engine.describe_last()
        assert "1 cache hits" in summary and "0 failed" in summary
