"""Batched LQG servo: one controller update for N devices per array op.

:class:`BatchedLQGServo` replays ``LQGServoController.step`` across an
``(N, ·)`` state batch with per-row bit-identical results.

Its step runs the compiled kernel of :mod:`repro.control.fused`
wherever a construction-time differential probe shows it reproduces
the numpy step bit-for-bit; ``fused_reason`` says why it does not.
The kernel reads each row's gain id, so it serves uniform and mixed
batches alike.

The numpy step is the reference: the scalar servo's recurrence, run
once per gain group over that group's rows.  Rows may run different
gain sets simultaneously (SPECTR's supervisor switches rows
independently), and a batch on one gain set is one group.  Each
product reads the gain set's kernel pack (``gains.fused_pack``), the
matrices the scalar step reads, and runs in the servo's one reduction
order (:func:`~repro.control.lqg.sequential_matvec`: per row, a
sequential sum with no FMA from the first product) as a loop over the
matrix's columns, each column one multiply-add over every row of the
group.  Gathering a group's rows and scattering the results back
preserves bit-identity because every operation is row-independent.

State (``X``, ``Z``, ``DU``, ``U_prev``, the normalized references and
the command rows) lives in fixed buffers that both step paths update
in place, so the kernel's argument block, built once, stays valid.
"""

from __future__ import annotations

import numpy as np

from repro.control.fused import (
    SERVO_Y,
    fused_kernel,
    servo_block,
    servo_context_key,
    unavailable_reason,
)
from repro.control.lqg import ActuatorLimits
from repro.control.statespace import ModelError, OperatingPoint

__all__ = ["BatchedLQGServo"]

# Differential-probe verdicts keyed by everything the probe reads (see
# BatchedLQGServo._probe_key).  The probe is deterministic, so an
# identical servo always re-derives the same verdict; a fleet run
# rebuilds its managers and would otherwise repeat the probe every run.
_PROBE_MEMO: dict[bytes, bool] = {}


class BatchedLQGServo:
    """N rows of ``LQGServoController`` advanced together.

    ``gain_sets`` is the palette of gain sets rows may run; every row
    starts on ``gain_sets[initial]``.  ``sets`` holds their kernel
    packs, which both step paths read.  References are physical, one
    ``(N, p)`` row each; managers with a fleet-wide reference use
    :meth:`set_reference`; SPECTR's supervisor writes per-row
    ``references`` directly and calls :meth:`refresh_references`.
    ``fused_reason`` is ``None`` when :meth:`step` runs the compiled
    kernel, and otherwise says why it runs numpy.
    """

    def __init__(
        self,
        gain_sets,
        operating_point: OperatingPoint,
        limits: ActuatorLimits,
        n_rows: int,
        *,
        initial: int = 0,
        anti_windup: float = 0.9,
        name: str = "batched-lqg",
    ) -> None:  # repro: shape[n_rows: int[N]]
        gain_sets = list(gain_sets)
        if not gain_sets:
            raise ModelError("need at least one gain set")
        first = gain_sets[0]
        for g in gain_sets[1:]:
            if (
                g.n_states != first.n_states
                or g.n_inputs != first.n_inputs
                or g.n_outputs != first.n_outputs
            ):
                raise ModelError("gain set dimensions differ across palette")
        if operating_point.u.size != first.n_inputs:
            raise ModelError("operating point u dimension mismatch")
        if operating_point.y.size != first.n_outputs:
            raise ModelError("operating point y dimension mismatch")
        self.sets = [g.fused_pack for g in gain_sets]
        self.name = name
        self.operating_point = operating_point
        self.limits = limits
        self.anti_windup = float(anti_windup)  # repro: shape[float]
        self.n_rows = int(n_rows)  # repro: shape[int[N]]
        n, m, p = first.n_states, first.n_inputs, first.n_outputs
        self.gain_ids = np.full(self.n_rows, initial, dtype=np.int8)  # repro: shape[(N,) i1]
        self.X = np.zeros((self.n_rows, n), dtype=float)  # repro: shape[(N, n) f8]
        self.Z = np.zeros((self.n_rows, p), dtype=float)  # repro: shape[(N, p) f8]
        self.DU = np.zeros((self.n_rows, m), dtype=float)  # repro: shape[(N, m) f8]
        self.U_prev = np.tile(operating_point.u, (self.n_rows, 1))  # repro: shape[(N, m) f8]
        self._u_next = np.empty((self.n_rows, m))  # repro: shape[(N, m) f8]
        self.references = np.tile(operating_point.y, (self.n_rows, 1))  # repro: shape[(N, p) f8]
        self._dr = (  # repro: shape[(N, p) f8]
            self.references - operating_point.y
        ) / operating_point.y_scale
        self._reference_key: list | None = None
        self._u_scale_safe = np.where(  # repro: shape[(m,) f8]
            operating_point.u_scale == 0, 1.0, operating_point.u_scale
        )
        self.invocations = 0  # repro: shape[int]
        # Compiled whole-step kernel: enabled only when available for
        # these dimensions AND a differential probe reproduces the
        # numpy path bit-for-bit for every gain set in the palette,
        # uniform and mixed.
        self._dims = (n, m, p)
        self._fused = None
        self._packs = None  # repro: shape[(G, 9) i8 | none]
        self._block: np.ndarray | None = None
        self._block_address = 0
        self.fused_reason = self._enable_fused()

    def _enable_fused(self) -> str | None:
        """Turn the compiled step on, or return why it stays off."""
        kernel = fused_kernel()
        if kernel is None:
            return unavailable_reason()
        if not kernel.fits(*self._dims):
            return "dims"
        self._packs = np.concatenate([g.row for g in self.sets])
        # The argument block captures every buffer's address; ``Y`` is
        # written per call.  Every referenced buffer is updated strictly
        # in place by both step paths and by switch_rows.
        self._block = servo_block(
            self.n_rows,
            self._dims,
            None,
            self._dr,
            self.X,
            self.Z,
            self.DU,
            self.U_prev,
            self._u_next,
            self._packs,
            self.gain_ids,
            self.operating_point,
            self._u_scale_safe,
            self.limits,
            self.anti_windup,
        )
        self._block_address = self._block.ctypes.data
        key = self._probe_key()
        verdict = _PROBE_MEMO.get(key)
        if verdict is None:
            verdict = self._probe_fused(kernel)
            if len(_PROBE_MEMO) < 256:
                _PROBE_MEMO[key] = verdict
        if not verdict:
            return "differential probe mismatch"
        self._fused = kernel
        return None

    # ------------------------------------------------------------------
    def set_reference(self, reference) -> None:
        """Fleet-wide reference (same list-key memo as the scalar servo)."""
        if isinstance(reference, list) and reference == self._reference_key:
            return
        row = np.asarray(reference, dtype=float).ravel()
        if row.size != self.references.shape[1]:
            raise ModelError(
                f"reference needs {self.references.shape[1]} entries, "
                f"got {row.size}"
            )
        self.references = np.tile(row, (self.n_rows, 1))
        self._reference_key = row.tolist()
        self.refresh_references()

    def refresh_references(self) -> None:
        """Recompute normalized references after ``references`` changed.

        Pure element-wise normalization, so recomputing unchanged rows
        reproduces their previous values bit-for-bit.  ``_dr`` is
        updated in place: its address is captured by the fused argument
        block and must stay stable.
        """
        op = self.operating_point
        np.subtract(self.references, op.y, out=self._dr)
        np.divide(self._dr, op.y_scale, out=self._dr)

    # ------------------------------------------------------------------
    def switch_rows(self, rows, new_id: int, *, bumpless: bool = True) -> None:
        """Gain-schedule ``rows`` onto ``gain_sets[new_id]``.

        Mirrors ``LQGServoController.switch_gains``: estimator state is
        preserved; with ``bumpless`` the integrators are re-solved so the
        commanded input is continuous across the switch.
        """
        g = self.sets[new_id]
        if bumpless:
            rhs = _matvec_rows(g.neg_K_state, self.X[rows]) - self.DU[rows]
            z = _matvec_rows(g.K_integral_pinv, rhs)
            self.Z[rows] = z * g.integral_mask
        self.gain_ids[rows] = np.int8(new_id)

    # ------------------------------------------------------------------
    def step(self, measured_outputs: np.ndarray) -> np.ndarray:
        # repro: shape[measured_outputs: (N, p) f8; -> (N, m) f8]
        """One control interval for every row; returns ``(N, m)`` u.

        The returned array is the servo's command buffer: the next step
        overwrites it.
        """
        kernel = self._fused
        if kernel is None:
            return self._step_numpy(measured_outputs)
        return self._step_fused(measured_outputs, kernel)

    def _step_fused(self, measured_outputs, kernel) -> np.ndarray:
        # repro: shape[measured_outputs: (N, p) f8; -> (N, m) f8]
        """Whole step in one compiled per-row pass (probe-verified)."""
        Y = measured_outputs
        if (
            not isinstance(Y, np.ndarray)
            or Y.dtype != np.float64
            or not Y.flags.c_contiguous
        ):
            Y = np.ascontiguousarray(Y, dtype=float)
        self._block[SERVO_Y] = Y.ctypes.data
        kernel.servo_step(self._block_address)
        self.invocations += 1
        return self._u_next

    def _step_numpy(self, measured_outputs: np.ndarray) -> np.ndarray:
        # repro: shape[measured_outputs: (N, p) f8; -> (N, m) f8]
        """The reference step: the scalar recurrence per gain group."""
        op = self.operating_point
        dy = (measured_outputs - op.y) / op.y_scale
        for gain_id in np.unique(self.gain_ids):
            rows = np.flatnonzero(self.gain_ids == gain_id)
            self._advance(self.sets[gain_id], rows, dy[rows])
        self.invocations += 1
        return self._u_next

    def _advance(self, g, rows, dy) -> None:
        # repro: shape[rows: (R,) i8; dy: (R, p) f8]
        """``LQGServoController._step_numpy`` on ``rows`` with gain pack
        ``g``; every operation is row-independent."""
        op = self.operating_point
        X, Z, DU = self.X[rows], self.Z[rows], self.DU[rows]

        # Predictor-form Kalman update using last interval's input.
        y_pred = _matvec_rows(g.C, X) + _matvec_rows(g.D, DU)
        X = (
            _matvec_rows(g.A, X)
            + _matvec_rows(g.B, DU)
            + _matvec_rows(g.L, dy - y_pred)
        )
        Z = Z + g.integral_mask * (self._dr[rows] - dy)

        du = _matvec_rows(g.neg_K_state, X) - _matvec_rows(g.K_integral, Z)
        u_raw = op.denormalize_u(du)
        u = self.limits.clip(u_raw, previous=self.U_prev[rows])

        # Anti-windup: rows with no saturation skip the correction;
        # np.where keeps their integrators byte-identical (masked
        # in-place updates can flip +0.0 to -0.0).
        excess = (u_raw - u) / self._u_scale_safe
        saturated = _saturated_rows(excess)
        if saturated.any():
            correction = _matvec_rows(g.K_integral_pinv, excess)
            Z = np.where(
                saturated[:, None], Z + self.anti_windup * correction, Z
            )

        self.X[rows] = X
        self.Z[rows] = Z
        self.DU[rows] = op.normalize_u(u)
        self.U_prev[rows] = u
        self._u_next[rows] = u

    def _probe_key(self) -> bytes:
        """Everything :meth:`_probe_fused` reads: row count, gain
        matrices, operating point, limits and anti-windup gain (the
        probe runs from the construction-time state and references,
        which these determine)."""
        header = np.array([self.n_rows, len(self.sets)], dtype=np.int64)
        context = servo_context_key(
            self.operating_point, self.limits, self.anti_windup
        )
        return b"".join(
            [header.tobytes(), context, *(g.key for g in self.sets)]
        )

    def _probe_fused(self, kernel) -> bool:
        """Differential gate for the compiled kernel.

        Runs the numpy and fused paths over identical random inputs —
        covering every gain set uniformly, then random per-row gain ids,
        in both saturated and unsaturated regimes — and enables the
        kernel only on bit-exact agreement of every output and every
        piece of internal state.
        """
        state = (self.X, self.Z, self.DU, self.U_prev, self.gain_ids)
        saved = [buffer.copy() for buffer in state]
        invocations = self.invocations
        op = self.operating_point
        shape = (self.n_rows, op.y.size)
        outputs: list[list[np.ndarray]] = []
        finals: list[list[np.ndarray]] = []
        try:
            for use_fused in (False, True):
                for buffer, value in zip(state, saved):
                    buffer[...] = value
                rng = np.random.default_rng(0xF05ED)
                run: list[np.ndarray] = []
                n_sets = len(self.sets)
                for set_index in [*range(n_sets), None]:
                    if set_index is None:
                        # Random per-row ids, but every other 8-row
                        # lane block uniform (cycling through the sets):
                        # mixed and uniform blocks in one batch.
                        ids = rng.integers(0, n_sets, self.n_rows)
                        block = np.arange(self.n_rows) // 8
                        whole = block % 2 == 0
                        ids[whole] = block[whole] // 2 % n_sets
                        self.gain_ids[:] = ids
                    else:
                        self.gain_ids[:] = np.int8(set_index)
                    for scale in (0.5, 3.0, 50.0):
                        for _ in range(2):
                            Y = op.y + op.y_scale * scale * (
                                rng.standard_normal(shape)
                            )
                            if use_fused:
                                u = self._step_fused(Y, kernel)
                            else:
                                u = self._step_numpy(Y)
                            run.append(u.copy())
                outputs.append(run)
                finals.append([buffer.copy() for buffer in state[:4]])
        finally:
            for buffer, value in zip(state, saved):
                buffer[...] = value
            self.invocations = invocations
        return all(
            np.array_equal(a, b) for a, b in zip(outputs[0], outputs[1])
        ) and all(np.array_equal(a, b) for a, b in zip(finals[0], finals[1]))


def _matvec_rows(matrix: np.ndarray, X: np.ndarray) -> np.ndarray:
    # repro: shape[matrix: (r, k) f8; X: (R, k) f8]
    """``sequential_matvec(matrix, x)`` for every row ``x`` of ``X``, an
    ``(R, r)`` array: the same sequential sum, one column of ``matrix``
    at a time."""
    acc = X[:, :1] * matrix[:, 0]
    for j in range(1, matrix.shape[1]):
        acc = acc + X[:, j : j + 1] * matrix[:, j]
    return acc


def _saturated_rows(excess: np.ndarray) -> np.ndarray:
    # repro: shape[excess: (R, m) f8; -> (R,) b1]
    """Per-row ``excess.any()`` via column compares (faster than np.any
    on small widths, and ``-0.0 != 0.0`` is False, matching ``any``)."""
    mask = excess[:, 0] != 0.0
    for column in range(1, excess.shape[1]):
        mask = mask | (excess[:, column] != 0.0)
    return mask
