"""ResultCache: round-trips, integrity sidecars, poisoning detection."""

from __future__ import annotations

import pickle

import pytest

from repro.exec.cache import CACHE_FORMAT, ResultCache, default_salt

pytestmark = pytest.mark.exec_smoke

DIGEST = "ab" * 32
OTHER = "cd" * 32


@pytest.fixture()
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache")


class TestRoundTrip:
    def test_miss_then_hit(self, cache):
        hit, value = cache.get(DIGEST)
        assert not hit and value is None
        assert cache.put(DIGEST, {"answer": 42})
        hit, value = cache.get(DIGEST)
        assert hit and value == {"answer": 42}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_floats_round_trip_exactly(self, cache):
        payload = [0.1 + 0.2, 1e-309, -0.0, 2**-1074]
        cache.put(DIGEST, payload)
        _, value = cache.get(DIGEST)
        assert [repr(v) for v in value] == [repr(v) for v in payload]

    def test_entries_and_len(self, cache):
        assert len(cache) == 0
        cache.put(DIGEST, 1)
        cache.put(OTHER, 2)
        assert cache.entries() == sorted([DIGEST, OTHER])

    def test_unpicklable_value_is_not_cached(self, cache):
        assert not cache.put(DIGEST, lambda: None)
        assert len(cache) == 0


class TestIntegrity:
    def test_corrupted_payload_is_evicted(self, cache):
        cache.put(DIGEST, "payload")
        path = cache._payload_path(DIGEST)
        path.write_bytes(b"poisoned" + path.read_bytes()[8:])
        hit, _ = cache.get(DIGEST)
        assert not hit
        assert cache.invalidations == 1
        assert not path.exists()

    def test_poisoned_sidecar_rewritten_to_match_is_still_evicted(
        self, cache
    ):
        # An attacker (or bug) that rewrites both payload and sidecar
        # consistently defeats the checksum; the unpickle guard still
        # refuses garbage.
        import hashlib

        cache.put(DIGEST, "payload")
        garbage = b"not a pickle at all"
        cache._payload_path(DIGEST).write_bytes(garbage)
        cache._sidecar_path(DIGEST).write_text(
            hashlib.sha256(garbage).hexdigest() + "\n", encoding="utf-8"
        )
        hit, _ = cache.get(DIGEST)
        assert not hit
        assert cache.invalidations == 1

    def test_missing_sidecar_is_a_miss(self, cache):
        cache.put(DIGEST, "payload")
        cache._sidecar_path(DIGEST).unlink()
        hit, _ = cache.get(DIGEST)
        assert not hit


class TestInvalidation:
    def test_invalidate_removes_everything(self, cache):
        cache.put(DIGEST, "payload")
        cache.invalidate(DIGEST)
        assert len(cache) == 0
        assert not cache._payload_path(DIGEST).exists()
        assert not cache._sidecar_path(DIGEST).exists()

    def test_clear(self, cache):
        cache.put(DIGEST, 1)
        cache.put(OTHER, 2)
        assert cache.clear() == 2
        assert len(cache) == 0
        # and the cache keeps working afterwards
        cache.put(DIGEST, 3)
        assert cache.get(DIGEST) == (True, 3)


class TestEvictionObservability:
    def test_sidecar_corruption_eviction_is_counted(self, cache):
        # The satellite regression: corrupt the *sidecar* so the
        # checksum fails, and assert the eviction shows up on the
        # persistent counters instead of being healed silently.
        cache.put(DIGEST, "payload")
        cache._sidecar_path(DIGEST).write_text(
            "0" * 64 + "\n", encoding="utf-8"
        )
        hit, _ = cache.get(DIGEST)
        assert not hit
        counts = cache.eviction_counts()
        assert counts["checksum"] == 1
        assert sum(counts.values()) == 1

    def test_decode_failures_counted_separately(self, cache):
        import hashlib

        cache.put(DIGEST, "payload")
        garbage = b"not a pickle at all"
        cache._payload_path(DIGEST).write_bytes(garbage)
        cache._sidecar_path(DIGEST).write_text(
            hashlib.sha256(garbage).hexdigest() + "\n", encoding="utf-8"
        )
        cache.get(DIGEST)
        assert cache.eviction_counts()["decode"] == 1

    def test_counts_survive_process_restart(self, tmp_path):
        first = ResultCache(tmp_path / "cache")
        first.put(DIGEST, "payload")
        first._payload_path(DIGEST).write_bytes(b"junk")
        first.get(DIGEST)
        # A fresh instance (fresh session counters) still sees the scar.
        second = ResultCache(tmp_path / "cache")
        assert second.invalidations == 0
        assert second.eviction_counts()["checksum"] == 1

    def test_explicit_invalidate_recorded_as_explicit(self, cache):
        cache.put(DIGEST, "payload")
        cache.invalidate(DIGEST)
        assert cache.eviction_counts()["explicit"] == 1

    def test_unknown_reason_rejected(self, cache):
        with pytest.raises(ValueError, match="unknown eviction reason"):
            cache.invalidate(DIGEST, reason="gremlins")

    def test_clear_resets_the_ledger(self, cache):
        cache.put(DIGEST, "payload")
        cache.invalidate(DIGEST)
        cache.clear()
        assert sum(cache.eviction_counts().values()) == 0

    def test_describe_surfaces_evictions(self, cache):
        cache.put(DIGEST, "payload")
        cache._payload_path(DIGEST).write_bytes(b"junk")
        cache.get(DIGEST)
        text = cache.describe()
        assert "evictions on record: 1" in text
        assert "1 checksum" in text

    def test_cli_cache_info_shows_evictions(self, tmp_path, capsys):
        from repro.exec.cli import main

        cache = ResultCache(tmp_path / "cache")
        cache.put(DIGEST, "payload")
        cache._payload_path(DIGEST).write_bytes(b"junk")
        cache.get(DIGEST)
        exit_code = main(
            ["cache", "info", "--cache-dir", str(tmp_path / "cache")]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "evictions on record: 1" in out
        assert "1 checksum" in out


class TestSalt:
    def test_default_salt_embeds_format_and_version(self):
        import repro

        assert CACHE_FORMAT in default_salt()
        assert repro.__version__ in default_salt()

    def test_explicit_salt_wins(self, tmp_path):
        assert ResultCache(tmp_path, salt="s1").salt == "s1"


class TestConcurrencySafety:
    def test_put_is_atomic_no_tmp_left_behind(self, cache):
        cache.put(DIGEST, list(range(1000)))
        leftovers = [
            p
            for p in cache.directory.rglob("*")
            if p.is_file() and ".tmp" in p.name
        ]
        assert leftovers == []

    def test_double_put_last_write_wins(self, cache):
        cache.put(DIGEST, "first")
        cache.put(DIGEST, "second")
        assert cache.get(DIGEST) == (True, "second")
        assert pickle.loads(cache._payload_path(DIGEST).read_bytes()) == (
            "second"
        )
