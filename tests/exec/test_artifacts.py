"""The design artifacts every process derives, and the bundle built
from them."""

from __future__ import annotations

import numpy as np

from repro.automata.serialization import automaton_to_dict
from repro.core.persistence import _gains_to_arrays, load_bundle, save_bundle
from repro.core.synthesis_flow import build_case_study_supervisor
from repro.exec.artifacts import ensure_design_artifacts
from repro.exec.cache import ResultCache
from repro.experiments.figures import case_study_supervisor, identified_systems
from repro.managers import mimo
from repro.managers.bundle import bundle_from_design


def test_reload_is_bit_identical_to_build(tmp_path):
    cache = ResultCache(tmp_path / "c")
    sys_a, ver_a = ensure_design_artifacts(cache)
    sys_b, ver_b = ensure_design_artifacts(cache)
    for cluster in ("big", "little", "full"):
        model_a = getattr(sys_a, cluster).model
        model_b = getattr(sys_b, cluster).model
        assert np.array_equal(model_a.A, model_b.A)
        assert np.array_equal(model_a.B, model_b.B)
        assert np.array_equal(model_a.C, model_b.C)
    assert ver_a is ver_b
    fresh = build_case_study_supervisor()
    assert automaton_to_dict(ver_a.supervisor) == automaton_to_dict(
        fresh.supervisor
    )
    assert ver_a.verification == fresh.verification


def test_cached_container_omits_percore(tmp_path):
    """Nothing is cached, the per-core model included: the cache
    directory is created empty, and the returned systems and supervisor
    are the ones this process loads and derives."""
    cache = ResultCache(tmp_path / "c")
    systems, verified = ensure_design_artifacts(cache)
    assert cache.directory.is_dir()
    assert list(cache.directory.iterdir()) == []
    assert systems is identified_systems()
    assert verified is case_study_supervisor()


def test_cold_build_bundles_the_committed_gains(tmp_path, monkeypatch):
    """A bundle of the committed systems holds the gain sets the cluster
    servos deploy, which the committed design files pre-fill: building
    it designs none."""

    def no_design(*args, **kwargs):
        raise AssertionError("building the bundle designed a gain set")

    monkeypatch.setattr(mimo, "design_lqg_servo", no_design)
    systems = identified_systems()
    save_bundle(
        bundle_from_design(
            case_study_supervisor(),
            {"big": systems.big, "little": systems.little},
        ),
        tmp_path / "bundle",
    )
    bundle = load_bundle(tmp_path / "bundle")
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
