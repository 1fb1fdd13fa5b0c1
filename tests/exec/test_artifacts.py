"""Design-artifact caching: build-once, verify-on-load, rebuild on rot."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.automata.verification import VerificationReport
from repro.core.persistence import _gains_to_arrays, load_bundle
from repro.core.synthesis_flow import VerifiedSupervisor
from repro.exec.artifacts import (
    VERIFICATION_FILE,
    design_digest,
    ensure_design_artifacts,
)
from repro.exec.cache import ResultCache
from repro.experiments.figures import identified_systems
from repro.managers import mimo


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory) -> ResultCache:
    cache = ResultCache(tmp_path_factory.mktemp("artifacts"))
    ensure_design_artifacts(cache)
    return cache


def test_first_build_populates_cache_and_bundle(warm_cache):
    digest = design_digest(warm_cache.salt)
    assert digest in warm_cache.entries()
    bundle = warm_cache.bundle_dir(digest)
    assert bundle.is_dir() and any(bundle.iterdir())


def test_reload_is_bit_identical_to_build(warm_cache):
    first = ensure_design_artifacts(warm_cache)
    second = ensure_design_artifacts(warm_cache)
    sys_a, ver_a = first
    sys_b, ver_b = second
    for cluster in ("big", "little", "full"):
        model_a = getattr(sys_a, cluster).model
        model_b = getattr(sys_b, cluster).model
        assert np.array_equal(model_a.A, model_b.A)
        assert np.array_equal(model_a.B, model_b.B)
        assert np.array_equal(model_a.C, model_b.C)
    assert ver_a.supervisor.states == ver_b.supervisor.states


def test_cached_container_omits_percore(warm_cache):
    """The cached payload is the supervisor alone: no models (percore
    included) are pickled, and the returned systems are the committed
    ones every process loads."""
    hit, payload = warm_cache.get(design_digest(warm_cache.salt))
    assert hit and isinstance(payload, VerifiedSupervisor)
    systems, _ = ensure_design_artifacts(warm_cache)
    assert systems is identified_systems()


def test_verification_certificate_written_beside_bundle(warm_cache):
    digest = design_digest(warm_cache.salt)
    certificate = warm_cache.bundle_dir(digest) / VERIFICATION_FILE
    assert certificate.is_file()
    payload = json.loads(certificate.read_text(encoding="utf-8"))
    report = VerificationReport.from_dict(payload)
    assert report.verified
    _, verified = ensure_design_artifacts(warm_cache)
    assert report == verified.verification


def test_tampered_certificate_forces_rebuild(tmp_path):
    cache = ResultCache(tmp_path / "c")
    ensure_design_artifacts(cache)
    digest = design_digest(cache.salt)
    certificate = cache.bundle_dir(digest) / VERIFICATION_FILE
    payload = json.loads(certificate.read_text(encoding="utf-8"))
    # A syntactically valid report that does not match what verification
    # recomputes: the certificate no longer certifies this bundle.
    payload["nonblocking"] = False
    certificate.write_text(json.dumps(payload), encoding="utf-8")
    systems, verified = ensure_design_artifacts(cache)
    assert cache.invalidations >= 1
    assert verified.verification.verified
    report = VerificationReport.from_dict(
        json.loads(certificate.read_text(encoding="utf-8"))
    )
    assert report == verified.verification  # rewritten on rebuild


def test_corrupt_bundle_forces_rebuild(tmp_path):
    cache = ResultCache(tmp_path / "c")
    ensure_design_artifacts(cache)
    digest = design_digest(cache.salt)
    # Trash every bundle file: verify() must fail, the entry must be
    # invalidated, and the artifacts rebuilt (trust-but-verify).
    for path in cache.bundle_dir(digest).rglob("*"):
        if path.is_file():
            path.write_bytes(b"rotten")
    systems, verified = ensure_design_artifacts(cache)
    assert cache.invalidations >= 1
    assert verified.supervisor.states  # rebuilt, usable
    # ... and the fresh entry round-trips again.
    hit, _ = cache.get(digest)
    assert hit


def test_cold_build_bundles_the_committed_gains(tmp_path, monkeypatch):
    """A cold build bundles the gain sets the cluster servos deploy,
    which the committed design files pre-fill: it designs none."""

    def no_design(*args, **kwargs):
        raise AssertionError("the design-artifact build designed a gain set")

    monkeypatch.setattr(mimo, "design_lqg_servo", no_design)
    cache = ResultCache(tmp_path / "c")
    systems, _ = ensure_design_artifacts(cache)
    bundle = load_bundle(cache.bundle_dir(design_digest(cache.salt)))
    for role in ("big", "little"):
        committed = mimo.build_gain_library(
            getattr(systems, role), integral_weight=mimo.CLUSTER_INTEGRAL_WEIGHT
        )
        bundled = bundle.gain_libraries[role]
        assert bundled.names() == committed.names()
        for name in committed.names():
            expected = _gains_to_arrays(committed.get(name), name)
            loaded = _gains_to_arrays(bundled.get(name), name)
            assert expected.keys() == loaded.keys()
            for key, array in expected.items():
                assert np.array_equal(loaded[key], array), key
