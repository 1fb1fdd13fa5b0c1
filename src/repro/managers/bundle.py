"""Assembling deployable policy bundles from design-flow artifacts.

:class:`~repro.core.persistence.PolicyBundle` is the serialized artifact
(core layer); this module owns the *construction* of a bundle from
identified subsystems because gain-library design lives in
:mod:`repro.managers.mimo` and the core layer must not import managers.

It also owns the format of the committed identified models and their
gain libraries (:func:`save_design`, :func:`load_design`), stored
losslessly so that every process and host runs the same bits.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints
from zipfile import BadZipFile

import numpy as np

from repro.control.gains import GainLibrary
from repro.core.persistence import (
    BundleError,
    PolicyBundle,
    _gains_to_arrays,
    gains_from_arrays,
)
from repro.core.synthesis_flow import VerifiedSupervisor
from repro.managers.identification import IdentifiedSystem
from repro.managers.mimo import CLUSTER_INTEGRAL_WEIGHT, build_gain_library

__all__ = ["bundle_from_design", "load_design", "save_design"]

DESIGN_FORMAT = "spectr-identified-systems/1"
DESIGN_MANIFEST = "identified.json"
DESIGN_ARRAYS = "identified.npz"


def bundle_from_design(
    verified_supervisor: VerifiedSupervisor,
    subsystems: dict[str, IdentifiedSystem],
) -> PolicyBundle:
    """Assemble a bundle from design-flow artifacts.

    ``subsystems`` maps names to
    :class:`~repro.managers.identification.IdentifiedSystem`; each gets
    the gain library its cluster servo deploys
    (:data:`~repro.managers.mimo.CLUSTER_INTEGRAL_WEIGHT`), which the
    committed design files pre-fill, so a bundle of committed systems
    solves no DARE.
    """
    libraries = {
        name: build_gain_library(system, integral_weight=CLUSTER_INTEGRAL_WEIGHT)
        for name, system in subsystems.items()
    }
    operating_points = {
        name: system.operating_point
        for name, system in subsystems.items()
    }
    return PolicyBundle(
        supervisor=verified_supervisor.supervisor,
        plant=verified_supervisor.plant,
        gain_libraries=libraries,
        operating_points=operating_points,
    )


def _flatten(obj, prefix: str, arrays: dict[str, np.ndarray]) -> dict:
    """The dataclass ``obj``'s fields: arrays into ``arrays`` under their
    ``prefix/field`` path, nested dataclasses as dicts, the rest as is."""
    meta = {}
    for f in fields(obj):
        value, path = getattr(obj, f.name), f"{prefix}/{f.name}"
        if isinstance(value, np.ndarray):
            arrays[path] = value
        else:
            meta[f.name] = (
                _flatten(value, path, arrays) if is_dataclass(value) else value
            )
    return meta


def _unflatten(cls, meta: dict, prefix: str, arrays: dict[str, np.ndarray]):
    """The dataclass ``cls`` that :func:`_flatten` wrote."""
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        path = f"{prefix}/{f.name}"
        if path in arrays:
            values[f.name] = arrays[path]
        elif is_dataclass(hints[f.name]):
            values[f.name] = _unflatten(hints[f.name], meta[f.name], path, arrays)
        else:
            values[f.name] = meta[f.name]
    return cls(**values)


def save_design(systems: dict[str, IdentifiedSystem], directory: Path) -> None:
    """Write ``systems`` (role -> system) and the gain libraries
    :func:`~repro.managers.mimo.build_gain_library` memoized on them."""
    manifest: dict = {"format": DESIGN_FORMAT, "systems": {}}
    arrays: dict[str, np.ndarray] = {}
    for role, system in systems.items():
        libraries = []
        memo = system._gain_library_cache
        for index, (key, library) in enumerate(memo.items()):
            libraries.append(
                {"key": key, "name": library.name, "gain_sets": library.names()}
            )
            for name in library.names():
                prefix = f"{role}/gains{index}/{name}"
                arrays.update(_gains_to_arrays(library.get(name), prefix))
        manifest["systems"][role] = {
            "system": _flatten(system, role, arrays),
            "gain_libraries": libraries,
        }
    directory.mkdir(parents=True, exist_ok=True)
    (directory / DESIGN_MANIFEST).write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    np.savez(directory / DESIGN_ARRAYS, **arrays)


def _load_system(role: str, meta: dict, arrays: dict) -> IdentifiedSystem:
    system = _unflatten(IdentifiedSystem, meta["system"], role, arrays)
    # build_gain_library's memo, pre-filled: the managers design nothing.
    system._gain_library_cache = {}
    for index, entry in enumerate(meta["gain_libraries"]):
        library = GainLibrary(name=entry["name"])
        for name in entry["gain_sets"]:
            gains = gains_from_arrays(arrays, f"{role}/gains{index}/{name}", name)
            if not all(
                np.array_equal(getattr(gains.model, m), getattr(system.model, m))
                for m in "ABCD"
            ):
                raise BundleError(f"{role} gain set {name!r} is not on its model")
            # One model per library, as designed: a switch between its
            # sets skips the dimension check (LQGServoController).
            gains.model = system.model
            library.register(gains)
        qos, power, integral_weight, effort_scale = entry["key"]
        key = (tuple(qos), tuple(power), integral_weight, effort_scale)
        system._gain_library_cache[key] = library
    return system


def load_design(directory: Path) -> dict[str, IdentifiedSystem]:
    """The systems :func:`save_design` wrote, with their gain memos; a
    missing or malformed file raises :class:`BundleError` naming the
    command that regenerates it."""
    try:
        manifest = json.loads(
            (directory / DESIGN_MANIFEST).read_text(encoding="utf-8")
        )
        if manifest["format"] != DESIGN_FORMAT:
            raise ValueError(f"format {manifest['format']!r}")
        with np.load(directory / DESIGN_ARRAYS) as data:
            arrays = {key: data[key] for key in data.files}
        return {
            role: _load_system(role, meta, arrays)
            for role, meta in manifest["systems"].items()
        }
    except (OSError, ValueError, KeyError, TypeError, BadZipFile, BundleError) as exc:
        raise BundleError(
            f"cannot load the design models in {directory} "
            f"({type(exc).__name__}: {exc}); regenerate them with "
            "`python scripts/make_model_artifacts.py`"
        ) from exc
