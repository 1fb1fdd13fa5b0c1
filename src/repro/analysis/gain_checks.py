"""Numeric validation of LQG gain-set artifacts.

Gain scheduling (Section 3.2) deploys *predesigned* gain sets; a bad
array in a policy bundle — wrong shape, NaN from a failed Riccati solve,
or a gain that does not stabilize the identified model — produces a
controller that misbehaves at the 50 ms epoch where it cannot be
debugged.  These checks reject such a gain file before a manager ever
loads it, without running the plant: :func:`check_gains` on one gain
set, :func:`check_bundle_gains` on every set a policy bundle declares
(the model tier runs it on each bundle unit).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.analysis.findings import Finding, Severity
from repro.control.lqg import LQGGains
from repro.core.persistence import BUNDLE_GAINS, gains_from_arrays

__all__ = ["check_bundle_gains", "check_gains"]

# Spectral radii this close to 1.0 get a warning: the gain is nominally
# stabilizing but has no margin against model uncertainty (the paper
# applies 30-50% guardbands on top of the identified model).
_MARGIN = 0.995


def _finding(path: str, rule: str, severity: Severity, message: str) -> Finding:
    return Finding(path=path, line=1, rule=rule, severity=severity, message=message)


def _matrices(gains: LQGGains) -> dict[str, np.ndarray]:
    model = gains.model
    return {
        "A": model.A,
        "B": model.B,
        "C": model.C,
        "D": model.D,
        "K_state": gains.K_state,
        "K_integral": gains.K_integral,
        "L": gains.L,
        "Q_output": gains.Q_output,
        "R_effort": gains.R_effort,
        "integral_mask": np.atleast_2d(gains.integral_mask),
    }


def check_gains(gains: LQGGains, path: str = "<gains>") -> list[Finding]:
    """All numeric checks on one gain set.

    Emits: NaN/Inf screening (G001), shape consistency with the
    state-space model (G002), closed-loop instability of the augmented
    servo loop (G003), observer instability (G004) and cost matrices
    that are not symmetric / positive (semi-)definite (G005).
    """
    findings: list[Finding] = []
    label = f"gain set {gains.name!r}"

    for name, matrix in _matrices(gains).items():
        if not np.all(np.isfinite(matrix)):
            findings.append(
                _finding(
                    path,
                    "REPRO-G001",
                    Severity.ERROR,
                    f"{label}: matrix {name} contains NaN/Inf entries",
                )
            )
    if findings:
        # Spectral checks on non-finite matrices only cascade noise.
        return findings

    model = gains.model
    n, m, p = model.n_states, model.n_inputs, model.n_outputs
    expected = {
        "K_state": (m, n),
        "K_integral": (m, p),
        "L": (n, p),
        "Q_output": (p, p),
        "R_effort": (m, m),
    }
    shapes_ok = True
    for name, shape in expected.items():
        actual = getattr(gains, name).shape
        if actual != shape:
            shapes_ok = False
            findings.append(
                _finding(
                    path,
                    "REPRO-G002",
                    Severity.ERROR,
                    f"{label}: {name} has shape {actual}, expected {shape} "
                    f"for a {n}-state / {m}-input / {p}-output model",
                )
            )
    if gains.integral_mask.shape != (p,):
        shapes_ok = False
        findings.append(
            _finding(
                path,
                "REPRO-G002",
                Severity.ERROR,
                f"{label}: integral_mask has shape "
                f"{gains.integral_mask.shape}, expected ({p},)",
            )
        )
    if not shapes_ok:
        return findings

    # Closed-loop stability of the augmented servo loop.  The LQR gain
    # was designed on the integrator-augmented system (see
    # repro.control.lqg.design_lqg_servo); reconstruct that augmentation
    # over the outputs that carry integral action and check
    # eig(A_aug - B_aug K_aug) strictly inside the unit circle.
    active = np.flatnonzero(gains.integral_mask)
    n_act = active.size
    A_aug = np.block(
        [
            [model.A, np.zeros((n, n_act))],
            [-model.C[active, :], np.eye(n_act)],
        ]
    )
    B_aug = np.vstack([model.B, -model.D[active, :]])
    K_aug = np.hstack([gains.K_state, gains.K_integral[:, active]])
    radius = _spectral_radius(A_aug - B_aug @ K_aug)
    if radius >= 1.0:
        findings.append(
            _finding(
                path,
                "REPRO-G003",
                Severity.ERROR,
                f"{label}: closed loop unstable — spectral radius of "
                f"eig(A-BK) on the augmented servo loop is {radius:.4f} "
                "(must be < 1)",
            )
        )
    elif radius >= _MARGIN:
        findings.append(
            _finding(
                path,
                "REPRO-G003",
                Severity.WARNING,
                f"{label}: closed-loop spectral radius {radius:.4f} leaves "
                "almost no stability margin for model uncertainty",
            )
        )

    # Observer (Kalman predictor) stability: estimator error dynamics
    # are e' = (A - L C) e.
    obs_radius = _spectral_radius(model.A - gains.L @ model.C)
    if obs_radius >= 1.0:
        findings.append(
            _finding(
                path,
                "REPRO-G004",
                Severity.ERROR,
                f"{label}: observer unstable — spectral radius of "
                f"eig(A-LC) is {obs_radius:.4f} (must be < 1)",
            )
        )

    # Cost/weight matrices: the Riccati solutions behind K and L only
    # exist for symmetric PSD state cost and symmetric PD effort cost,
    # so asymmetry or negative eigenvalues mark a corrupted artifact.
    findings.extend(
        _check_symmetric_psd(
            gains.Q_output, f"{label}: Q_output", path, definite=False
        )
    )
    findings.extend(
        _check_symmetric_psd(
            gains.R_effort, f"{label}: R_effort", path, definite=True
        )
    )
    return findings


def _spectral_radius(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def _check_symmetric_psd(
    matrix: np.ndarray, label: str, path: str, *, definite: bool
) -> list[Finding]:
    findings: list[Finding] = []
    if not np.allclose(matrix, matrix.T, atol=1e-9):
        findings.append(
            _finding(
                path,
                "REPRO-G005",
                Severity.ERROR,
                f"{label} is not symmetric",
            )
        )
        return findings
    eigenvalues = np.linalg.eigvalsh(matrix)
    floor = 1e-12 if definite else -1e-9
    if np.min(eigenvalues) < floor:
        kind = "positive definite" if definite else "positive semidefinite"
        findings.append(
            _finding(
                path,
                "REPRO-G005",
                Severity.ERROR,
                f"{label} is not {kind} "
                f"(min eigenvalue {np.min(eigenvalues):.3e})",
            )
        )
    return findings


def check_bundle_gains(
    directory: Path, manifest: Mapping[str, Any]
) -> list[Finding]:
    """:func:`check_gains` on every gain set a bundle manifest declares.

    A declared set that ``gains.npz`` cannot supply is G002; an
    unreadable ``gains.npz`` is G001.
    """
    gains_path = directory / BUNDLE_GAINS
    subsystems = manifest.get("subsystems") or {}
    if not subsystems:
        return []
    if not gains_path.is_file():
        return [
            _finding(
                str(gains_path),
                "REPRO-G002",
                Severity.ERROR,
                "manifest declares gain sets but gains.npz is missing",
            )
        ]
    try:
        with np.load(gains_path) as data:
            arrays = {key: data[key] for key in data.files}
    except (OSError, ValueError) as exc:
        return [
            _finding(
                str(gains_path),
                "REPRO-G001",
                Severity.ERROR,
                f"unreadable gains.npz: {exc}",
            )
        ]

    findings: list[Finding] = []
    for subsystem, meta in subsystems.items():
        for gain_name in meta.get("gain_sets", ()):
            prefix = f"{subsystem}/{gain_name}"
            try:
                gains = gains_from_arrays(arrays, prefix, gain_name)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                findings.append(
                    _finding(
                        str(gains_path),
                        "REPRO-G002",
                        Severity.ERROR,
                        f"gain set {prefix!r} cannot be reconstructed: {exc}",
                    )
                )
                continue
            findings.extend(check_gains(gains, f"{gains_path}#{prefix}"))
    return findings
