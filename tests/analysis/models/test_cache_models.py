"""The model tier's unit cache: sidecar integrity, eviction, and scan
integration."""

from __future__ import annotations

from repro.analysis.findings import Finding, Severity
from repro.analysis.models.scan import UnitRecord, scan_paths, unit_cache
from repro.automata.automaton import automaton_from_table
from repro.automata.events import Alphabet, controllable, uncontrollable

from tests.analysis.models.conftest import write_model

SIGMA = Alphabet.of([controllable("go"), uncontrollable("fault")])


def _finding(message: str = "m") -> Finding:
    return Finding(
        path="a.json",
        line=1,
        rule="REPRO-M001",
        severity=Severity.WARNING,
        message=message,
    )


def _blocking_plant():
    return automaton_from_table(
        "CapPlant",
        SIGMA,
        [
            ("Idle", "go", "Work"),
            ("Work", "go", "Idle"),
            ("Work", "fault", "Stuck"),
        ],
        initial="Idle",
        marked=["Idle"],
    )


class TestCacheUnit:
    def test_roundtrip(self, tmp_path):
        cache = unit_cache(tmp_path / "cache")
        stored = UnitRecord((_finding("one"), _finding("two")), 1)
        assert cache.load("unit", b"content") is None
        cache.store("unit", b"content", stored)
        assert cache.load("unit", b"content") == stored
        assert (cache.hits, cache.misses) == (1, 1)

    def test_content_and_unit_key_the_entry(self, tmp_path):
        cache = unit_cache(tmp_path / "cache")
        cache.store("unit", b"v1", UnitRecord((_finding(),), 1))
        assert cache.load("unit", b"v2") is None
        assert cache.load("other", b"v1") is None
        assert cache.load("unit", b"v1") is not None

    def test_corrupt_payload_evicts(self, tmp_path):
        cache = unit_cache(tmp_path / "cache")
        cache.store("unit", b"c", UnitRecord((_finding(),), 1))
        entry = cache._entry_path(cache.key_for("unit", b"c"))
        entry.write_bytes(b"garbage")
        assert cache.load("unit", b"c") is None
        assert cache.evictions == 1
        assert not entry.exists()

    def test_unpicklable_garbage_with_valid_sidecar_evicts(self, tmp_path):
        cache = unit_cache(tmp_path / "cache")
        cache.store("unit", b"c", UnitRecord((_finding(),), 1))
        entry = cache._entry_path(cache.key_for("unit", b"c"))
        import hashlib

        payload = b"not a pickle"
        entry.write_bytes(payload)
        entry.with_suffix(".pkl.sha256").write_text(
            hashlib.sha256(payload).hexdigest() + "\n", encoding="utf-8"
        )
        assert cache.load("unit", b"c") is None
        assert cache.evictions == 1

    def test_non_finding_payload_rejected(self, tmp_path):
        import hashlib
        import pickle

        cache = unit_cache(tmp_path / "cache")
        key = cache.key_for("unit", b"c")
        entry = cache._entry_path(key)
        entry.parent.mkdir(parents=True)
        payload = pickle.dumps(["not", "findings"])
        entry.write_bytes(payload)
        entry.with_suffix(".pkl.sha256").write_text(
            hashlib.sha256(payload).hexdigest() + "\n", encoding="utf-8"
        )
        assert cache.load("unit", b"c") is None
        assert cache.evictions == 1


class TestScanIntegration:
    def test_second_scan_hits_and_replays_findings(self, tmp_path):
        unit = tmp_path / "unit"
        write_model(unit / "plant.json", _blocking_plant())
        cache = unit_cache(tmp_path / "cache")

        first = scan_paths([unit], cache=cache)
        assert cache.misses == 1 and cache.hits == 0
        second = scan_paths([unit], cache=cache)
        assert cache.hits == 1

        assert sorted(second.report.findings) == sorted(
            first.report.findings
        )
        # Stats are restored from the cached record, not re-derived.
        assert second.stats.models_checked == first.stats.models_checked == 1
        assert second.stats.units_scanned == 1
        assert second.stats.resynthesized == 0

    def test_edit_invalidates(self, tmp_path):
        unit = tmp_path / "unit"
        path = write_model(unit / "plant.json", _blocking_plant())
        cache = unit_cache(tmp_path / "cache")
        scan_paths([unit], cache=cache)
        path.write_text(
            path.read_text(encoding="utf-8").replace("CapPlant", "Edited"),
            encoding="utf-8",
        )
        scan_paths([unit], cache=cache)
        assert cache.hits == 0
        assert cache.misses == 2

    def test_resynth_mode_does_not_share_entries(self, tmp_path):
        unit = tmp_path / "unit"
        write_model(unit / "plant.json", _blocking_plant())
        cache = unit_cache(tmp_path / "cache")
        scan_paths([unit], cache=cache, resynthesize=True)
        result = scan_paths([unit], cache=cache, resynthesize=False)
        # The quick mode must not replay the resynth entry (different
        # flag -> different content key), even for the same bytes.
        assert cache.hits == 0
        assert cache.misses == 2
        # Identical findings here (a lone plant never re-synthesizes),
        # arrived at independently.
        assert len(result.report.findings) == 3
