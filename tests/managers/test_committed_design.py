"""The committed design-flow output (``artifacts/design/``).

Every process loads the big, little and full models, and the gain sets
the managers design from them, from the committed files.  These tests
check that the files are current (a fresh identification and gain
design reproduces them), that loading them runs no identification and
no gain design, and that a missing or malformed file fails loudly.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.core.persistence import BundleError
from repro.experiments import figures
from repro.experiments.figures import (
    DESIGN_DIR,
    MANAGER_NAMES,
    identified_systems,
    manager_factory,
    write_design,
)
from repro.experiments.fleet import fleet_manager_factory
from repro.managers import mimo
from repro.managers.base import ManagerGoals
from repro.managers.bundle import DESIGN_ARRAYS, DESIGN_MANIFEST
from repro.platform.fleet import FleetPlatform
from repro.platform.soc import ExynosSoC
from repro.workloads import x264

# Relative to each array's largest entry.  Fixed before comparing: four
# orders above the 5.2e-11 by which the models differ between OpenBLAS
# kernels (SkylakeX vs Prescott), so a host's BLAS passes and a stale
# model does not.
RTOL = 1e-9


def test_committed_design_is_current(tmp_path):
    """Re-identify, re-design the managers' gains, compare with the file:
    the manifest (names, orders, dt, gain-library keys) exactly, every
    array to ``RTOL``."""
    write_design(tmp_path)
    assert json.loads((tmp_path / DESIGN_MANIFEST).read_text()) == json.loads(
        (DESIGN_DIR / DESIGN_MANIFEST).read_text()
    )
    with np.load(tmp_path / DESIGN_ARRAYS) as fresh, np.load(
        DESIGN_DIR / DESIGN_ARRAYS
    ) as committed:
        assert sorted(fresh.files) == sorted(committed.files)
        for key in committed.files:
            new, old = fresh[key], committed[key]
            assert new.shape == old.shape, key
            error = float(np.max(np.abs(new - old), initial=0.0))
            scale = float(np.max(np.abs(old), initial=0.0))
            assert error <= RTOL * scale, (
                f"{key}: committed value is stale (max abs diff {error:.3e}, "
                f"scale {scale:.3e}); regenerate with "
                "scripts/make_model_artifacts.py"
            )


@pytest.fixture
def cleared(monkeypatch):
    """This process's model cache emptied (restored afterwards)."""
    monkeypatch.setattr(figures, "_SYSTEMS_CACHE", None)


def test_loading_runs_no_soc_step(cleared, monkeypatch):
    def step(self):
        raise AssertionError("identified_systems() stepped an SoC")

    monkeypatch.setattr(ExynosSoC, "step", step)
    systems = identified_systems()
    assert systems.big.name == "big-2x2" and systems.percore is None


def test_default_managers_design_no_gains(cleared, monkeypatch):
    def design(*args, **kwargs):
        raise AssertionError("a manager designed a gain set at construction")

    monkeypatch.setattr(mimo, "design_lqg_servo", design)
    systems = identified_systems()
    goals = ManagerGoals(60.0, 5.0)
    soc = ExynosSoC(qos_app=x264())
    platform = FleetPlatform(qos_app=x264(), seeds=(1, 2))
    for name in MANAGER_NAMES:
        manager_factory(name, systems)(soc, goals)
        fleet_manager_factory(name, systems)(platform, goals)


def _drop_arrays(design):
    (design / DESIGN_ARRAYS).unlink()


def _rot_arrays(design):
    (design / DESIGN_ARRAYS).write_bytes(b"rotten")


def _rot_manifest(design):
    (design / DESIGN_MANIFEST).write_text("{", encoding="utf-8")


def _bump_format(design):
    manifest = json.loads((design / DESIGN_MANIFEST).read_text(encoding="utf-8"))
    manifest["format"] = "spectr-identified-systems/0"
    (design / DESIGN_MANIFEST).write_text(json.dumps(manifest), encoding="utf-8")


@pytest.mark.parametrize(
    "corrupt", [_drop_arrays, _rot_arrays, _rot_manifest, _bump_format]
)
def test_missing_or_malformed_design_names_the_regeneration_command(
    corrupt, cleared, monkeypatch, tmp_path
):
    copy = tmp_path / "design"
    shutil.copytree(DESIGN_DIR, copy)
    corrupt(copy)
    monkeypatch.setattr(figures, "DESIGN_DIR", copy)
    with pytest.raises(BundleError, match="make_model_artifacts.py"):
        identified_systems()
