"""LQG servo controllers with output-priority weighting.

This is the paper's low-level controller building block: an LQG
(Linear-Quadratic-Gaussian) regulator extended with integral action so
that it *tracks* reference values (set-points) for each measured output.
Output priorities are expressed exactly as in Section 2.1: a weighted
Tracking Error Cost matrix ``Q`` (e.g. a 30:1 FPS:power ratio for the
FPS-oriented controller of Figure 3a) and a Control Effort Cost matrix
``R`` (the paper uses 2:1 to prefer frequency moves over core-count
moves).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.control.fused import (
    SERVO_PACKS,
    FusedKernel,
    ServoGainPack,
    fused_kernel,
    servo_block,
    servo_context_key,
    unavailable_reason,
)
from repro.control.riccati import kalman_gain, lqr_gain
from repro.control.statespace import ModelError, OperatingPoint, StateSpaceModel


@dataclass
class LQGGains:
    """A complete, immutable set of controller gains.

    Gain scheduling (Section 3.2) swaps whole :class:`LQGGains` objects:
    "the supervisor ... simply points the coefficient matrices to a
    different set of stored values".
    """

    name: str
    model: StateSpaceModel
    K_state: np.ndarray  # feedback on estimated model state
    K_integral: np.ndarray  # feedback on tracking-error integrators
    L: np.ndarray  # Kalman observer gain
    Q_output: np.ndarray  # output priority weights (diagonal)
    R_effort: np.ndarray  # control effort weights (diagonal)
    # Optional at construction; normalized to a dense mask (all outputs
    # servoed) in __post_init__, so it is always an ndarray afterwards.
    integral_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.integral_mask is None:
            self.integral_mask = np.ones(self.model.n_outputs, dtype=float)
        else:
            self.integral_mask = np.asarray(self.integral_mask, float).ravel()
        self._K_integral_pinv: np.ndarray | None = None
        self._fused_pack: ServoGainPack | None = None

    def __getstate__(self) -> dict:
        # The kernel pack holds this process's raw addresses.
        state = self.__dict__.copy()
        state["_fused_pack"] = None
        return state

    @property
    def K_integral_pinv(self) -> np.ndarray:
        """Pseudo-inverse of ``K_integral``, computed once per gain set.

        Used by anti-windup back-calculation and bumpless gain
        switching every saturated interval; the gains are immutable, so
        one lazy factorization replaces a per-step ``np.linalg.pinv``.
        """
        pinv = self._K_integral_pinv
        if pinv is None:
            pinv = np.linalg.pinv(self.K_integral)
            self._K_integral_pinv = pinv
        return pinv

    @property
    def fused_pack(self) -> ServoGainPack:
        """This gain set's compiled-servo pack, built once per gain set.

        Contiguous matrices and the kernel's gain-pack row, shared by
        every scalar and fleet servo that runs these gains (building it
        per servo would cost more than the kernel saves).
        """
        pack = self._fused_pack
        if pack is None:
            pack = self._fused_pack = ServoGainPack(self)
        return pack

    @property
    def n_inputs(self) -> int:
        return self.model.n_inputs

    @property
    def n_outputs(self) -> int:
        return self.model.n_outputs

    @property
    def n_states(self) -> int:
        return self.model.n_states

    def operations_per_invocation(self) -> int:
        """Multiply-add count of one controller invocation.

        Counts the observer update, integrator update and feedback
        products — the matrix work behind Figure 6 and the Section 5.3
        overhead numbers.
        """
        n, m, p = self.n_states, self.n_inputs, self.n_outputs
        observer = n * n + n * m + n * p + p * n + p * m  # Ax+Bu+L(y-yhat)
        feedback = m * n + m * p  # K_state @ xhat + K_integral @ z
        return observer + feedback


def design_lqg_servo(
    model: StateSpaceModel,
    *,
    output_weights: np.ndarray | list[float],
    effort_weights: np.ndarray | list[float],
    integral_weight: float = 0.04,
    state_weight: float = 1e-3,
    process_noise: float = 1e-2,
    measurement_noise: float = 1e-1,
    integral_threshold: float = 0.1,
    name: str = "gains",
) -> LQGGains:
    """Design an LQG servo (LQI) gain set for ``model``.

    The plant state is augmented with one integrator per output,
    ``z(t+1) = z(t) + (r(t) - y(t))``, and LQR is solved on::

        [x; z]' = [[A, 0], [-C, I]] [x; z] + [[B], [-D]] u

    with cost ``blkdiag(state_weight*C'QyC, integral_weight*Qy)`` and
    effort ``diag(effort_weights)``.  Larger ``Qy`` entries make the
    controller fight harder for that output — the priority mechanism the
    paper's MM-Perf / MM-Pow variants differ by.

    Outputs whose relative weight falls below ``integral_threshold``
    get *no* integral action (their integrator weight and accumulation
    are zeroed).  This realizes the priority semantics of Section 2.1:
    an output de-prioritized 30:1 influences transients through the
    state feedback but is not servoed to its reference — otherwise the
    infinite DC gain of even a tiny integrator would eventually drag
    the system off the favoured output's reference.

    A steady-state Kalman filter supplies the state estimate.

    Raises
    ------
    ModelError
        If weight dimensions do not match the model.
    """
    qy = np.asarray(output_weights, dtype=float).ravel()
    ru = np.asarray(effort_weights, dtype=float).ravel()
    if qy.size != model.n_outputs:
        raise ModelError(
            f"need {model.n_outputs} output weights, got {qy.size}"
        )
    if ru.size != model.n_inputs:
        raise ModelError(f"need {model.n_inputs} effort weights, got {ru.size}")
    if np.any(qy < 0) or np.any(ru <= 0):
        raise ModelError("output weights must be >=0 and effort weights >0")

    n, m, p = model.n_states, model.n_inputs, model.n_outputs
    Qy = np.diag(qy)
    mask = (qy / qy.max() >= integral_threshold).astype(float)
    active = np.flatnonzero(mask)
    if active.size == 0:
        raise ModelError("at least one output must carry integral action")
    # Augment only the servoed outputs: a zero-cost integrator is a
    # marginal mode the DARE cannot stabilize through the cost.
    C_act = model.C[active, :]
    D_act = model.D[active, :]
    p_act = active.size
    A_aug = np.block(
        [
            [model.A, np.zeros((n, p_act), dtype=float)],
            [-C_act, np.eye(p_act)],
        ]
    )
    B_aug = np.vstack([model.B, -D_act])
    Q_aug = np.block(
        [
            [state_weight * (model.C.T @ Qy @ model.C), np.zeros((n, p_act), dtype=float)],
            [np.zeros((p_act, n), dtype=float), integral_weight * np.diag(qy[active])],
        ]
    )
    # Keep the augmented cost positive definite so the DARE is well posed.
    Q_aug += 1e-9 * np.eye(n + p_act)
    R_aug = np.diag(ru)

    K = lqr_gain(A_aug, B_aug, Q_aug, R_aug)
    K_state = K[:, :n]
    K_integral = np.zeros((m, p), dtype=float)
    K_integral[:, active] = K[:, n:]

    W = process_noise * np.eye(n)
    V = measurement_noise * np.eye(p)
    L = kalman_gain(model.A, model.C, W, V)

    return LQGGains(
        name=name,
        model=model,
        K_state=K_state,
        K_integral=K_integral,
        L=L,
        Q_output=Qy,
        R_effort=R_aug,
        integral_mask=mask,
    )


@dataclass
class ActuatorLimits:
    """Physical saturation and slew bounds for each control input.

    ``max_step`` limits how far an actuator may move per control
    interval (DVFS governors step through OPPs; hotplug adds/removes a
    core at a time).  ``None`` disables slew limiting.
    """

    lower: np.ndarray  # repro: shape[(m,) f8]
    upper: np.ndarray  # repro: shape[(m,) f8]
    max_step: np.ndarray | None = None  # repro: shape[(m,) f8 | none]

    def __post_init__(self) -> None:
        self.lower = np.asarray(self.lower, dtype=float).ravel()
        self.upper = np.asarray(self.upper, dtype=float).ravel()
        if self.lower.shape != self.upper.shape:
            raise ModelError("actuator limit shapes differ")
        if np.any(self.lower > self.upper):
            raise ModelError("actuator lower bound exceeds upper bound")
        if self.max_step is not None:
            self.max_step = np.asarray(self.max_step, dtype=float).ravel()
            if self.max_step.shape != self.lower.shape:
                raise ModelError("max_step shape mismatch")
            if np.any(self.max_step <= 0):
                raise ModelError("max_step entries must be positive")

    def clip(self, u: np.ndarray, previous: np.ndarray | None = None) -> np.ndarray:
        # minimum(maximum(...)) is np.clip without its per-call argument
        # normalization overhead; bit-identical for non-NaN bounds.
        clipped = np.asarray(u, dtype=float)
        if self.max_step is not None and previous is not None:
            clipped = np.minimum(
                np.maximum(clipped, previous - self.max_step),
                previous + self.max_step,
            )
        return np.minimum(np.maximum(clipped, self.lower), self.upper)


def sequential_matvec(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    # repro: shape[matrix: (r, k) f8; x: (k,) f8; -> (r,) f8]
    """``matrix @ x`` in the servo's one reduction order.

    Each row is a sequential sum with no FMA, starting from the first
    product (``s = a0*x0; s = s + a1*x1; ...``), which is what the
    compiled servo's ``dot`` computes.  ``np.add.accumulate`` is strictly
    sequential (``np.add.reduce`` may sum pairwise, and ``matrix @ x``
    takes whatever order the host's BLAS kernel picks).
    """
    return np.add.accumulate(matrix * x, axis=1)[:, -1]


# Differential-probe verdicts of the scalar servo's compiled step, keyed
# by gain-set content and servo context (see
# LQGServoController._select_step).  The probe is deterministic and
# starts from a canonical state, so identical keys always re-derive the
# same verdict; every run_scenario rebuilds its managers and would
# otherwise repeat the probe.
_PROBE_MEMO: dict[tuple[bytes, bytes], bool] = {}


class LQGServoController:
    """Runtime LQG tracking controller with hot-swappable gains.

    The controller operates on *physical* quantities; the
    :class:`OperatingPoint` converts to/from the deviation coordinates
    of the identified model.  Anti-windup back-calculation keeps the
    error integrators honest when actuators saturate (always the case
    near the frequency/core-count rails of the Exynos platform).

    :meth:`step` runs the compiled servo kernel of
    :mod:`repro.control.fused` on its single row wherever a
    differential probe shows it reproduces the numpy step bit-for-bit
    for the active gain set; ``fused_reason`` is ``None`` then, and
    otherwise says why the numpy step runs.
    """

    def __init__(
        self,
        gains: LQGGains,
        operating_point: OperatingPoint,
        limits: ActuatorLimits,
        *,
        anti_windup: float = 0.9,
        name: str = "lqg",
    ) -> None:
        if operating_point.u.size != gains.n_inputs:
            raise ModelError("operating point u dimension mismatch")
        if operating_point.y.size != gains.n_outputs:
            raise ModelError("operating point y dimension mismatch")
        self.name = name
        self.gains = gains
        self.operating_point = operating_point
        self.limits = limits
        self.anti_windup = float(anti_windup)
        n, m, p = gains.n_states, gains.n_inputs, gains.n_outputs
        self._reference = operating_point.y.copy()
        self._reference_key = self._reference.tolist()
        # Divisor for anti-windup excess, with zero scales neutralized;
        # constant per operating point, precomputed off the hot path.
        self._u_scale_safe = np.where(
            operating_point.u_scale == 0, 1.0, operating_point.u_scale
        )
        # State, normalized reference and the kernel's measurement and
        # command rows are fixed buffers that both step paths update in
        # place, so the kernel's captured addresses stay valid.  Each
        # length-k vector is the kernel's single (1, k) row.
        self._xhat = np.zeros(n, dtype=float)
        self._z = np.zeros(p, dtype=float)
        self._du_prev = np.zeros(m, dtype=float)
        self._u_prev = operating_point.u.copy()
        self._dr = operating_point.normalize_y(self._reference)
        self._y_row = np.zeros(p, dtype=float)
        self._u_row = np.zeros(m, dtype=float)
        self._gain_ids = np.zeros(1, dtype=np.int8)
        self._dims = (n, m, p)
        self._fits = FusedKernel.fits(n, m, p)
        self.reset()
        self._context_key = servo_context_key(
            operating_point, limits, self.anti_windup
        )
        self._fused = None
        self._block: np.ndarray | None = None
        self._block_address = 0
        self.fused_reason = self._select_step()

    # ------------------------------------------------------------------
    @property
    def reference(self) -> np.ndarray:
        """Current physical reference (set-point) vector."""
        return self._reference.copy()

    def set_reference(self, reference: np.ndarray | list[float]) -> None:
        # Managers call set_reference every tick, usually with an
        # unchanged list; a plain list compare against the stored key
        # skips the asarray/normalize round-trip entirely.
        if isinstance(reference, list) and reference == self._reference_key:
            return
        reference = np.asarray(reference, dtype=float).ravel()
        if reference.size != self.gains.n_outputs:
            raise ModelError(
                f"reference needs {self.gains.n_outputs} entries, "
                f"got {reference.size}"
            )
        self._reference = reference
        self._reference_key = reference.tolist()
        # Normalized once here instead of every step.
        self._dr[...] = self.operating_point.normalize_y(reference)

    def switch_gains(self, gains: LQGGains, *, bumpless: bool = True) -> None:
        """Hot-swap the gain set (supervisory gain scheduling).

        The estimator state is preserved, so switching takes effect
        immediately — matching the paper's zero-overhead pointer swap.
        With ``bumpless`` (default), the newly-active integrators are
        re-initialized so the commanded input is continuous across the
        switch: without it, the fresh gain set's feedback jerks the
        actuators and the transient can ring for hundreds of
        milliseconds (bumpless transfer is standard practice when gain
        scheduling between linear controllers [Leith & Leithead 2000]).
        """
        # A library's gain sets share one model, so its switches skip
        # the dimension check.
        if gains.model is not self.gains.model and (
            gains.n_states, gains.n_inputs, gains.n_outputs
        ) != self._dims:
            raise ModelError("gain set dimensions incompatible with controller")
        self.gains = gains
        if bumpless:
            self._resolve_integrators(gains)
        self.fused_reason = self._select_step()

    def _resolve_integrators(self, gains: LQGGains) -> None:
        # du = -Ks@xhat - Ki@z; continuity (du == du_prev) requires
        # Ki@z = -Ks@xhat - du_prev, solved in the least-squares
        # sense and masked to the active integrators.
        g = gains.fused_pack
        rhs = sequential_matvec(g.neg_K_state, self._xhat) - self._du_prev
        z = sequential_matvec(g.K_integral_pinv, rhs)
        self._z[...] = z * g.integral_mask

    def reset(self) -> None:
        self._xhat[...] = 0.0
        self._z[...] = 0.0
        self._du_prev[...] = 0.0
        self._u_prev[...] = self.operating_point.u
        self.invocations = 0

    # ------------------------------------------------------------------
    def step(self, measured_outputs: np.ndarray | list[float]) -> np.ndarray:
        """One control interval: consume measurements, emit actuations.

        Parameters
        ----------
        measured_outputs:
            Physical sensor vector ``y(t)``.

        Returns
        -------
        numpy.ndarray
            Physical actuator vector ``u(t)``, saturated to limits.
        """
        kernel = self._fused
        if kernel is None:
            return self._step_numpy(measured_outputs)
        return self._step_fused(measured_outputs, kernel)

    def _step_fused(self, measured_outputs, kernel) -> np.ndarray:
        """The step as one compiled call on this servo's single row."""
        self._y_row[:] = measured_outputs
        kernel.servo_step(self._block_address)
        self.invocations += 1
        return self._u_row.copy()

    def _step_numpy(self, measured_outputs) -> np.ndarray:
        """The reference step: the recurrence the kernel reproduces.

        It reads the gain set's kernel pack, the matrices the kernel
        reads, and computes every product with
        :func:`sequential_matvec`, in the kernel's one reduction order.
        """
        g = self.gains.fused_pack
        op = self.operating_point
        xhat, z, du_prev = self._xhat, self._z, self._du_prev
        y = np.asarray(measured_outputs, dtype=float).ravel()
        dy = op.normalize_y(y)

        # Predictor-form Kalman update using last interval's input.
        y_pred = sequential_matvec(g.C, xhat) + sequential_matvec(
            g.D, du_prev
        )
        xhat[...] = (
            sequential_matvec(g.A, xhat)
            + sequential_matvec(g.B, du_prev)
            + sequential_matvec(g.L, dy - y_pred)
        )

        # Tracking-error integrators (masked: de-prioritized outputs do
        # not accumulate, so a later gain switch starts them clean).
        z += g.integral_mask * (self._dr - dy)

        du = sequential_matvec(g.neg_K_state, xhat) - sequential_matvec(
            g.K_integral, z
        )
        u_raw = op.denormalize_u(du)
        u = self.limits.clip(u_raw, previous=self._u_prev)

        # Anti-windup (back-calculation): shift the integrators so the
        # commanded input matches the saturated one.  With
        # du = -Kz z, achieving ddu = -excess requires dz = pinv(Kz) @ excess.
        excess = (u_raw - u) / self._u_scale_safe
        if excess.any():
            correction = sequential_matvec(g.K_integral_pinv, excess)
            z += self.anti_windup * correction

        du_prev[...] = op.normalize_u(u)
        self._u_prev[...] = u
        self.invocations += 1
        return u

    # ------------------------------------------------------------------
    def _select_step(self) -> str | None:
        """Enable the compiled step for the active gains, or return why
        the numpy step runs instead."""
        self._fused = None
        kernel = fused_kernel()
        if kernel is None:
            return unavailable_reason()
        if not self._fits:
            return "dims"
        pack = self.gains.fused_pack
        if self._block is None:
            self._block = servo_block(
                1,
                self._dims,
                self._y_row,
                self._dr,
                self._xhat,
                self._z,
                self._du_prev,
                self._u_prev,
                self._u_row,
                pack.row,
                self._gain_ids,
                self.operating_point,
                self._u_scale_safe,
                self.limits,
                self.anti_windup,
            )
            self._block_address = self._block.ctypes.data
        # The gain-pack table is this pack's own row: a gain switch
        # repoints one slot.
        self._block[SERVO_PACKS] = pack.row_address
        key = (pack.key, self._context_key)
        verdict = _PROBE_MEMO.get(key)
        if verdict is None:
            verdict = self._probe_fused(kernel)
            if len(_PROBE_MEMO) < 256:
                _PROBE_MEMO[key] = verdict
        if not verdict:
            return "differential probe mismatch"
        self._fused = kernel
        return None

    def _probe_fused(self, kernel) -> bool:
        """Differential gate for the compiled step on the active gains.

        Runs the numpy and the fused step over identical random
        measurements from one canonical start (zero estimator state at
        the operating point), at three magnitudes so the slew and
        bound limits and anti-windup fire, changing the reference and
        re-solving the integrators as a bumpless gain switch does
        between magnitudes.  The kernel is enabled only when every
        command and every state vector agrees bit-for-bit.  The
        controller's own state is restored afterwards, and the
        canonical start makes the verdict a function of the memo key.
        """
        op = self.operating_point
        state = (self._xhat, self._z, self._du_prev, self._u_prev, self._dr)
        saved = [vector.copy() for vector in state]
        invocations = self.invocations
        runs = []
        try:
            for fused in (False, True):
                self.reset()
                rng = np.random.default_rng(0x5CA1A)
                trace = []
                for scale in (0.5, 3.0, 50.0):
                    self._dr[...] = op.normalize_y(
                        op.y + op.y_scale * rng.standard_normal(op.y.size)
                    )
                    for _ in range(4):
                        y = op.y + op.y_scale * scale * rng.standard_normal(
                            op.y.size
                        )
                        if fused:
                            u = self._step_fused(y, kernel)
                        else:
                            u = self._step_numpy(y)
                        trace.extend(v.tobytes() for v in (u, *state))
                    self._resolve_integrators(self.gains)
                runs.append(trace)
        finally:
            for vector, value in zip(state, saved):
                vector[...] = value
            self.invocations = invocations
        return runs[0] == runs[1]

    # ------------------------------------------------------------------
    def predicted_outputs(self) -> np.ndarray:
        """Physical output vector the Kalman observer currently expects.

        This is the model's one-step prediction ``C @ xhat + D @ du``
        mapped back to physical units — the best model-based estimate of
        the plant outputs available *without* a fresh measurement.  The
        telemetry guard uses it to substitute readings from quarantined
        sensors so the closed loop survives sensor dropouts.
        """
        g = self.gains.fused_pack
        dy_pred = sequential_matvec(g.C, self._xhat) + sequential_matvec(
            g.D, self._du_prev
        )
        return self.operating_point.denormalize_y(dy_pred)

    def state_snapshot(self) -> dict[str, np.ndarray]:
        """Internal state (for logging/diagnostics)."""
        return {
            "xhat": self._xhat.copy(),
            "z": self._z.copy(),
            "du_prev": self._du_prev.copy(),
        }
