"""Content-addressed on-disk result cache.

Entries are keyed by the SHA-256 digest of the job spec —
see :meth:`repro.exec.job.ScenarioJob.digest` — with a *salt* folded
into every key.  The default salt combines the cache format version and
the package version, so upgrading either invalidates the whole cache
implicitly (stale entries simply stop being addressed; ``clear()`` is
the explicit hatch).

Integrity: every payload carries a SHA-256 sidecar.  A corrupted or
tampered entry (bit-rot, a partial write, a poisoned cache) fails the
checksum on load, is deleted, counted in :attr:`ResultCache.invalidations`,
and reported as a miss — callers fall back to recomputing, never to
trusting a bad payload.  Evictions are not silent: each one is appended
(with its reason) to an ``evictions.jsonl`` ledger inside the cache
directory, so corruption that the cache healed over is still observable
afterwards — ``python -m repro.exec cache`` surfaces the per-reason
counts (see :meth:`ResultCache.eviction_counts`).

Payloads are Python pickles; the cache directory is a local, per-user
working area (like ``.pytest_cache``), not an exchange format.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
from pathlib import Path
from typing import Any

import repro

__all__ = ["CACHE_FORMAT", "EVICTION_REASONS", "ResultCache", "default_salt"]

CACHE_FORMAT = "exec-cache/1"

# Why an entry was evicted; the ledger and counters are keyed by these.
#   checksum  payload bytes no longer match the SHA-256 sidecar
#   decode    checksum passed but the pickle failed to decode
#   explicit  programmatic invalidate() with no specific cause
EVICTION_REASONS = ("checksum", "decode", "explicit")


def default_salt() -> str:
    """Cache-key salt: format version + package version."""
    return f"{CACHE_FORMAT}:repro-{repro.__version__}"


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ResultCache:
    """Content-addressed pickle store with integrity sidecars.

    Layout::

        <directory>/objects/<digest[:2]>/<digest>.pkl        payload
        <directory>/objects/<digest[:2]>/<digest>.sha256     checksum

    Writes are atomic (temp file + ``os.replace``), so concurrent
    workers racing to cache the same digest are safe: both write
    identical content and the last rename wins.
    """

    def __init__(self, directory: str | Path, *, salt: str | None = None):
        self.directory = Path(directory)
        self.salt = default_salt() if salt is None else salt
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- paths ---------------------------------------------------------
    @property
    def objects_dir(self) -> Path:
        return self.directory / "objects"

    def _payload_path(self, digest: str) -> Path:
        return self.objects_dir / digest[:2] / f"{digest}.pkl"

    def _sidecar_path(self, digest: str) -> Path:
        return self.objects_dir / digest[:2] / f"{digest}.sha256"

    @property
    def eviction_ledger(self) -> Path:
        """Append-only JSONL record of every eviction and its reason."""
        return self.directory / "evictions.jsonl"

    # -- core operations -----------------------------------------------
    def get(self, digest: str) -> tuple[bool, Any]:
        """``(hit, value)``; corrupt entries are evicted and miss."""
        payload_path = self._payload_path(digest)
        sidecar_path = self._sidecar_path(digest)
        if not payload_path.exists() or not sidecar_path.exists():
            self.misses += 1
            return False, None
        data = payload_path.read_bytes()
        expected = sidecar_path.read_text(encoding="utf-8").strip()
        if _sha256_hex(data) != expected:
            self.invalidate(digest, reason="checksum")
            self.misses += 1
            return False, None
        try:
            value = pickle.loads(data)
        except Exception:
            # Checksum passed but the payload does not decode (schema
            # drift under an unchanged salt, or a poisoned sidecar
            # rewritten to match): evict and recompute.
            self.invalidate(digest, reason="decode")
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, digest: str, value: Any) -> bool:
        """Store a value; returns False (uncached) if it cannot pickle."""
        try:
            data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        payload_path = self._payload_path(digest)
        payload_path.parent.mkdir(parents=True, exist_ok=True)
        self._write_atomic(payload_path, data)
        self._write_atomic(
            self._sidecar_path(digest),
            (_sha256_hex(data) + "\n").encode("utf-8"),
        )
        return True

    def invalidate(self, digest: str, *, reason: str = "explicit") -> None:
        """Evict one entry (payload and sidecar), recording ``reason``
        in the persistent eviction ledger."""
        if reason not in EVICTION_REASONS:
            raise ValueError(
                f"unknown eviction reason {reason!r}; "
                f"choose from {EVICTION_REASONS}"
            )
        self.invalidations += 1
        for path in (self._payload_path(digest), self._sidecar_path(digest)):
            path.unlink(missing_ok=True)
        self._record_eviction(digest, reason)

    def clear(self) -> int:
        """Explicit invalidation of everything; returns entries removed.

        The eviction ledger is removed too: it describes entries of the
        store being discarded, and a fresh cache starts a fresh history.
        """
        removed = len(self)
        if self.objects_dir.exists():
            shutil.rmtree(self.objects_dir, ignore_errors=True)
        self.eviction_ledger.unlink(missing_ok=True)
        return removed

    # -- introspection -------------------------------------------------
    def entries(self) -> list[str]:
        """Digests currently stored (sorted)."""
        if not self.objects_dir.exists():
            return []
        return sorted(
            path.stem for path in self.objects_dir.glob("*/*.pkl")
        )

    def __len__(self) -> int:
        return len(self.entries())

    def size_bytes(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(
            path.stat().st_size
            for path in self.directory.rglob("*")
            if path.is_file()
        )

    def eviction_counts(self) -> dict[str, int]:
        """Per-reason eviction totals from the persistent ledger.

        Unlike the session counters (:attr:`hits` / :attr:`misses` /
        :attr:`invalidations`), these survive process restarts: a cache
        that silently healed over corruption in a previous run still
        shows the scar here.
        """
        counts = {reason: 0 for reason in EVICTION_REASONS}
        if not self.eviction_ledger.exists():
            return counts
        with open(self.eviction_ledger, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    reason = json.loads(line).get("reason")
                except ValueError:
                    continue  # torn append: the eviction itself still held
                if reason in counts:
                    counts[reason] += 1
        return counts

    def describe(self) -> str:
        evictions = self.eviction_counts()
        evicted_total = sum(evictions.values())
        evicted = ", ".join(
            f"{count} {reason}"
            for reason, count in evictions.items()
            if count
        )
        return (
            f"cache {self.directory} — {len(self)} entries, "
            f"{self.size_bytes() / 1024:.1f} KiB, salt {self.salt!r} "
            f"(session: {self.hits} hits, {self.misses} misses, "
            f"{self.invalidations} invalidations; "
            f"evictions on record: {evicted_total}"
            f"{' — ' + evicted if evicted else ''})"
        )

    # -- helpers -------------------------------------------------------
    def _record_eviction(self, digest: str, reason: str) -> None:
        """Append one eviction to the ledger (single O_APPEND write —
        atomic enough across racing workers for a count log)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(
            {"digest": digest, "reason": reason}, sort_keys=True
        )
        with open(self.eviction_ledger, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    @staticmethod
    def _write_atomic(path: Path, data: bytes) -> None:
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)
