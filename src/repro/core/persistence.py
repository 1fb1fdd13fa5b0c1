"""Policy-bundle persistence.

Section 3.2: "New policies and their corresponding parameters can be
added to the supervisor on demand (e.g., by upgrading the firmware or
OS)".  The deployable artifact is a *policy bundle*: the verified
supervisor automaton plus the predesigned LQG gain sets per subsystem.
This module serializes a bundle to a directory (JSON for the automaton,
``.npz`` for the gain matrices) and reloads it without re-running
synthesis or controller design — the paper's firmware-upgrade path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.automata.automaton import Automaton
from repro.automata.serialization import automaton_from_dict, automaton_to_dict
from repro.automata.verification import check_nonblocking, verify_supervisor
from repro.control.gains import GainLibrary
from repro.control.lqg import LQGGains
from repro.control.statespace import OperatingPoint, StateSpaceModel

BUNDLE_MANIFEST = "bundle.json"
BUNDLE_GAINS = "gains.npz"
BUNDLE_FORMAT = "spectr-policy-bundle/1"


class BundleError(RuntimeError):
    """Raised on malformed or tampered policy bundles."""


@dataclass
class PolicyBundle:
    """Everything a runtime needs to instantiate SPECTR's controllers."""

    supervisor: Automaton
    plant: Automaton | None
    gain_libraries: dict[str, GainLibrary]
    operating_points: dict[str, OperatingPoint]

    def verify(self) -> bool:
        """Re-run the formal checks on load (trust but verify).

        Nonblocking is intrinsic to the supervisor; controllability is
        checked against the bundled plant when present.
        """
        if self.plant is None:
            return check_nonblocking(self.supervisor)
        return verify_supervisor(self.plant, self.supervisor).verified


def _gains_to_arrays(gains: LQGGains, prefix: str) -> dict[str, np.ndarray]:
    model = gains.model
    return {
        f"{prefix}/A": model.A,
        f"{prefix}/B": model.B,
        f"{prefix}/C": model.C,
        f"{prefix}/D": model.D,
        f"{prefix}/dt": np.array([model.dt]),
        f"{prefix}/K_state": gains.K_state,
        f"{prefix}/K_integral": gains.K_integral,
        f"{prefix}/L": gains.L,
        f"{prefix}/Q_output": gains.Q_output,
        f"{prefix}/R_effort": gains.R_effort,
        f"{prefix}/integral_mask": gains.integral_mask,
    }


def gains_from_arrays(
    arrays: dict[str, np.ndarray], prefix: str, name: str
) -> LQGGains:
    """Reconstruct one :class:`LQGGains` from flat ``prefix/key`` arrays.

    Public because the static artifact analyzer
    (:mod:`repro.analysis`) reads gain files through the same path the
    runtime loader uses.
    """
    def get(key: str) -> np.ndarray:
        full = f"{prefix}/{key}"
        if full not in arrays:
            raise BundleError(f"bundle missing array {full!r}")
        return arrays[full]

    model = StateSpaceModel(
        A=get("A"),
        B=get("B"),
        C=get("C"),
        D=get("D"),
        dt=float(get("dt")[0]),
        name=f"{prefix}-model",
    )
    return LQGGains(
        name=name,
        model=model,
        K_state=get("K_state"),
        K_integral=get("K_integral"),
        L=get("L"),
        Q_output=get("Q_output"),
        R_effort=get("R_effort"),
        integral_mask=get("integral_mask"),
    )


def save_bundle(bundle: PolicyBundle, directory: str | Path) -> Path:
    """Write a policy bundle to ``directory`` (created if needed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    manifest: dict = {
        "format": BUNDLE_FORMAT,
        "supervisor": automaton_to_dict(bundle.supervisor),
        "plant": (
            automaton_to_dict(bundle.plant)
            if bundle.plant is not None
            else None
        ),
        "subsystems": {},
    }
    arrays: dict[str, np.ndarray] = {}
    for subsystem, library in bundle.gain_libraries.items():
        op = bundle.operating_points[subsystem]
        manifest["subsystems"][subsystem] = {
            "gain_sets": list(library.names()),
            "operating_point": {
                "u": op.u.tolist(),
                "y": op.y.tolist(),
                "u_scale": op.u_scale.tolist(),
                "y_scale": op.y_scale.tolist(),
            },
        }
        for gain_name in library.names():
            arrays.update(
                _gains_to_arrays(
                    library.get(gain_name), f"{subsystem}/{gain_name}"
                )
            )
    (directory / BUNDLE_MANIFEST).write_text(
        json.dumps(manifest, indent=2)
    )
    np.savez(directory / BUNDLE_GAINS, **arrays)
    return directory


def load_bundle(directory: str | Path) -> PolicyBundle:
    """Reload a policy bundle; raises :class:`BundleError` on problems."""
    directory = Path(directory)
    manifest_path = directory / BUNDLE_MANIFEST
    if not manifest_path.exists():
        raise BundleError(f"no {BUNDLE_MANIFEST} in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise BundleError(f"corrupt manifest: {exc}") from exc
    if manifest.get("format") != BUNDLE_FORMAT:
        raise BundleError(
            f"unsupported bundle format {manifest.get('format')!r}"
        )
    supervisor = automaton_from_dict(manifest["supervisor"])
    plant = (
        automaton_from_dict(manifest["plant"])
        if manifest.get("plant") is not None
        else None
    )
    with np.load(directory / BUNDLE_GAINS) as data:
        arrays = {key: data[key] for key in data.files}

    libraries: dict[str, GainLibrary] = {}
    operating_points: dict[str, OperatingPoint] = {}
    for subsystem, meta in manifest["subsystems"].items():
        library = GainLibrary(name=f"{subsystem}-gains")
        for gain_name in meta["gain_sets"]:
            library.register(
                gains_from_arrays(
                    arrays, f"{subsystem}/{gain_name}", gain_name
                )
            )
        libraries[subsystem] = library
        op = meta["operating_point"]
        operating_points[subsystem] = OperatingPoint(
            u=op["u"], y=op["y"], u_scale=op["u_scale"], y_scale=op["y_scale"]
        )
    return PolicyBundle(
        supervisor=supervisor,
        plant=plant,
        gain_libraries=libraries,
        operating_points=operating_points,
    )
