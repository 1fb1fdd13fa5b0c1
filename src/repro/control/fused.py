"""Optional compiled fast paths for the per-tick control and fleet loops.

The numpy paths spend most of their time dispatching many small
ufunc/matvec calls per tick.  This module fuses three of those loops
into C functions that sweep their rows once each, with every
elementwise expression written in scalar evaluation order (compiled
with ``-ffp-contract=off`` so the compiler cannot fuse or reorder
anything we did not write explicitly):

* ``fused_servo_step`` — the entire per-row
  ``LQGServoController.step`` recurrence with every dot product
  inlined.  One kernel serves both servos: the fleet's
  :class:`~repro.control.batch.BatchedLQGServo` steps N rows per call,
  and the scalar :class:`~repro.control.lqg.LQGServoController` steps
  its single row (N=1);
* ``fleet_telemetry`` — the per-row cluster sensor read
  (``soc.read_cluster_telemetry`` mirror in ``platform/fleet.py``);
* ``opp_snap`` — the per-row DVFS table snap
  (``OPPTable.snap_indices`` in ``platform/opp.py``).

Every function is gated by its caller on a construction-time
differential probe against the numpy reference, so a kernel only ever
runs where it is machine-verified bit-identical.

Bit-identity with ``M @ x`` is the hard part: BLAS picks a different
reduction order per matrix shape (FMA lanes with a horizontal-sum tree
for wide kernels, alternating non-FMA accumulators for short-output
shapes, a single FMA for inner dimension 2, and for inner dimension
``4q + 2`` either blocked reduction over the first ``4q`` elements with
the last two folded in as one FMA pair).  It may even differ between
rows of one matrix: OpenBLAS reduces rows in blocks of 4 and the
remainder rows with another kernel.  The kernel implements each
observed reduction as a *dot variant*, and :func:`dot_variant` probes a
matrix against ``np.matvec`` and returns one variant code *per row* —
the code that reproduces that row bit-for-bit on random data, or
:data:`NO_VARIANT` when no candidate does, in which case the caller
keeps the numpy path.

The servo step serves a whole gain-scheduled palette at once: it takes
a table of per-gain-set pointers (matrices, integral mask, per-row
variant codes) and each row's gain id.  A block of 8 rows sharing one
gain set steps lane-parallel; a mixed block steps row by row, each row
with its own set.  A gain set's row of that table is built once, by
:class:`ServoGainPack`, and cached on the immutable
:class:`~repro.control.lqg.LQGGains`, so both servos share it.  On top
of the per-row probe, each servo only enables the kernel after an
end-to-end differential probe shows the fused step reproduces its numpy
step bit-for-bit: the fleet servo for every gain set, uniform and
mixed; the scalar servo for each gain set it is switched onto.

The kernel is strictly optional: it compiles lazily with the system C
compiler into a cached shared object, and any failure (no compiler,
failed build, unprobeable matrix) falls back to numpy with the reason
recorded — :func:`unavailable_reason` for the kernel, ``fused_reason``
per servo.  ``REPRO_DISABLE_FUSED=1`` forces the numpy path (used by
tests to cover both implementations).  Nothing here changes results —
only how fast they are produced.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

import numpy as np

__all__ = [
    "NO_VARIANT",
    "SERVO_MATRICES",
    "ServoGainPack",
    "dot_variant",
    "fused_kernel",
    "servo_context_key",
    "servo_tail",
    "unavailable_reason",
    "FusedKernel",
]

# Stack-buffer capacity in the C source; callers must check fits().
_MAX_DIM = 32

_C_SOURCE = r"""
#include <math.h>
typedef long long i64;

/* Dot-product reduction orders observed in BLAS dgemv kernels.  Which
 * one a given matrix shape gets is machine- and library-specific; the
 * Python side probes each matrix and passes a variant code. */

/* 4 FMA lanes over chunks of 4, horizontal sum (l0+l2)+(l1+l3). */
static double dot_v4_h2(const double *a, const double *x, i64 k) {
    double l[4] = {0.0, 0.0, 0.0, 0.0};
    i64 t;
    int j;
    for (t = 0; t + 4 <= k; t += 4)
        for (j = 0; j < 4; ++j) l[j] = fma(a[t + j], x[t + j], l[j]);
    return (l[0] + l[2]) + (l[1] + l[3]);
}

/* Two alternating non-FMA accumulators, final l0+l1. */
static double dot_x2_nofma(const double *a, const double *x, i64 k) {
    double l0 = 0.0, l1 = 0.0;
    i64 t;
    for (t = 0; t + 2 <= k; t += 2) {
        l0 = l0 + a[t] * x[t];
        l1 = l1 + a[t + 1] * x[t + 1];
    }
    return l0 + l1;
}

/* Inner dimension 2 as a single FMA: fma(a0, x0, a1*x1). */
static double dot2_fma(const double *a, const double *x, i64 k) {
    (void)k;
    return fma(a[0], x[0], a[1] * x[1]);
}

/* Codes 3 and 4 serve inner dimension k = 4q + 2: codes 0 and 1 over
 * the first k-2 elements, then the 2-wide tail folded in as one FMA
 * pair.  Each reduction has one call site, so all of them inline. */
static double dot(int variant, const double *a, const double *x, i64 k) {
    const i64 body = variant >= 3 ? k - 2 : k;
    double s;
    switch (variant) {
    case 0:
    case 3:
        s = dot_v4_h2(a, x, body);
        break;
    case 1:
    case 4:
        s = dot_x2_nofma(a, x, body);
        break;
    default:
        return dot2_fma(a, x, k);
    }
    if (variant >= 3)
        s = s + fma(a[k - 2], x[k - 2], a[k - 1] * x[k - 1]);
    return s;
}

/* Exported so the Python probe can compare variants against numpy. */
double fused_dot(i64 variant, const double *a, const double *x, i64 k) {
    return dot((int)variant, a, x, k);
}

/* out = M @ x with M (r, k) row-major, row i reduced with the probed
 * dot variant v[i]. */
static void matvec(const double *M, i64 r, i64 k, const signed char *v,
                   const double *x, double *out) {
    i64 i;
    for (i = 0; i < r; ++i) out[i] = dot(v[i], M + i * k, x, k);
}

/* One gain set: its matrices, then each matrix's per-row dot variant
 * codes.  Python passes the palette as a (G, 17) int64 table of these
 * addresses, so the struct must be exactly 17 pointer-sized slots. */
typedef struct {
    const double *Cm, *Am, *Bm, *Dm, *Lm, *negK, *Ki, *Kipinv, *imask;
    const signed char *vC, *vA, *vB, *vD, *vL, *vK, *vKi, *vP;
} gain_pack;

_Static_assert(sizeof(gain_pack) == 17 * sizeof(i64), "gain_pack layout");

/* Shared per-call servo context: dimensions, state pointers, gain
 * palette with per-row gain ids, operating point and limits. */
typedef struct {
    i64 n, m, p;
    const double *Y, *dr;
    double *X, *Z, *DU, *U_prev, *U_out;
    const gain_pack *packs;
    const signed char *gain_ids;
    const double *op_y, *y_scale, *op_u, *u_scale, *u_scale_safe;
    const double *lower, *upper, *max_step;
    int has_max_step;
    double anti_windup;
} servo_ctx;

/* One LQGServoController.step for rows [r0, r1), each row with its own
 * gain set.  Elementwise algebra mirrors the scalar source line for
 * line.  X, Z, DU, U_prev update in place; U_out receives the
 * saturated physical command. */
static void servo_rows(const servo_ctx *c, i64 r0, i64 r1)
{
    double dy[32], ypred[32], resid[32], tmp[32], xnew[32];
    double du[32], kiz[32], uraw[32], exc[32], corr[32];
    const i64 n = c->n, m = c->m, p = c->p;
    i64 r, i, j;
    for (r = r0; r < r1; ++r) {
        const gain_pack *g = &c->packs[c->gain_ids[r]];
        const double *y = c->Y + r * p;
        const double *drr = c->dr + r * p;
        double *x = c->X + r * n;
        double *z = c->Z + r * p;
        double *duprev = c->DU + r * m;
        double *uprev = c->U_prev + r * m;
        double *uout = c->U_out + r * m;

        /* dy = (y - op.y) / y_scale */
        for (i = 0; i < p; ++i)
            dy[i] = (y[i] - c->op_y[i]) / c->y_scale[i];

        /* y_pred = C @ x + D @ du_prev */
        matvec(g->Cm, p, n, g->vC, x, ypred);
        matvec(g->Dm, p, m, g->vD, duprev, tmp);
        for (i = 0; i < p; ++i) ypred[i] = ypred[i] + tmp[i];

        /* xhat = (A @ x + B @ du_prev) + L @ (dy - y_pred) */
        matvec(g->Am, n, n, g->vA, x, xnew);
        matvec(g->Bm, n, m, g->vB, duprev, tmp);
        for (i = 0; i < n; ++i) xnew[i] = xnew[i] + tmp[i];
        for (i = 0; i < p; ++i) resid[i] = dy[i] - ypred[i];
        matvec(g->Lm, n, p, g->vL, resid, tmp);
        for (i = 0; i < n; ++i) xnew[i] = xnew[i] + tmp[i];
        for (i = 0; i < n; ++i) x[i] = xnew[i];

        /* z = z + integral_mask * (dr - dy) */
        for (i = 0; i < p; ++i)
            z[i] = z[i] + g->imask[i] * (drr[i] - dy[i]);

        /* du = (-K_state) @ xhat - K_integral @ z */
        matvec(g->negK, m, n, g->vK, xnew, du);
        matvec(g->Ki, m, p, g->vKi, z, kiz);
        for (j = 0; j < m; ++j) du[j] = du[j] - kiz[j];

        /* u_raw = op.u + du * u_scale; slew + bound clip; excess.
         * (a > b) ? a : b replicates np.maximum's non-NaN element
         * select (ties take the second operand, like the ufunc). */
        for (j = 0; j < m; ++j) {
            double raw = c->op_u[j] + du[j] * c->u_scale[j];
            double cc = raw;
            uraw[j] = raw;
            if (c->has_max_step) {
                double lo = uprev[j] - c->max_step[j];
                double hi = uprev[j] + c->max_step[j];
                cc = (cc > lo) ? cc : lo;
                cc = (cc < hi) ? cc : hi;
            }
            cc = (cc > c->lower[j]) ? cc : c->lower[j];
            cc = (cc < c->upper[j]) ? cc : c->upper[j];
            uout[j] = cc;
            exc[j] = (raw - cc) / c->u_scale_safe[j];
        }

        /* Anti-windup back-calculation, per row like the scalar. */
        for (j = 0; j < m; ++j) {
            if (exc[j] != 0.0) {
                matvec(g->Kipinv, p, m, g->vP, exc, corr);
                for (i = 0; i < p; ++i)
                    z[i] = z[i] + c->anti_windup * corr[i];
                break;
            }
        }

        /* du_prev = (u - op.u) / u_scale; u_prev = u */
        for (j = 0; j < m; ++j)
            duprev[j] = (uout[j] - c->op_u[j]) / c->u_scale[j];
        for (j = 0; j < m; ++j) uprev[j] = uout[j];
    }
}

/* Lane-parallel variants: LANES rows advance together, one row per
 * lane.  Every lane executes exactly the scalar op sequence on its own
 * data (lanes never mix), so per-row results are bit-identical to
 * servo_rows while the independent FMA chains pipeline.  xT/outT are
 * lane-major: element i of lane l at [i*LANES + l]. */
#define LANES 8

static void dot4_v4_h2(const double *a, const double *xT, i64 k,
                       double *out) {
    double l0[LANES], l1[LANES], l2[LANES], l3[LANES];
    i64 t;
    int l;
    for (l = 0; l < LANES; ++l) l0[l] = l1[l] = l2[l] = l3[l] = 0.0;
    for (t = 0; t + 4 <= k; t += 4) {
        for (l = 0; l < LANES; ++l)
            l0[l] = fma(a[t], xT[t * LANES + l], l0[l]);
        for (l = 0; l < LANES; ++l)
            l1[l] = fma(a[t + 1], xT[(t + 1) * LANES + l], l1[l]);
        for (l = 0; l < LANES; ++l)
            l2[l] = fma(a[t + 2], xT[(t + 2) * LANES + l], l2[l]);
        for (l = 0; l < LANES; ++l)
            l3[l] = fma(a[t + 3], xT[(t + 3) * LANES + l], l3[l]);
    }
    for (l = 0; l < LANES; ++l) out[l] = (l0[l] + l2[l]) + (l1[l] + l3[l]);
}

static void dot4_x2_nofma(const double *a, const double *xT, i64 k,
                          double *out) {
    double l0[LANES], l1[LANES];
    i64 t;
    int l;
    for (l = 0; l < LANES; ++l) l0[l] = l1[l] = 0.0;
    for (t = 0; t + 2 <= k; t += 2) {
        for (l = 0; l < LANES; ++l)
            l0[l] = l0[l] + a[t] * xT[t * LANES + l];
        for (l = 0; l < LANES; ++l)
            l1[l] = l1[l] + a[t + 1] * xT[(t + 1) * LANES + l];
    }
    for (l = 0; l < LANES; ++l) out[l] = l0[l] + l1[l];
}

static void dot4_2fma(const double *a, const double *xT, i64 k,
                      double *out) {
    int l;
    (void)k;
    for (l = 0; l < LANES; ++l)
        out[l] = fma(a[0], xT[l], a[1] * xT[LANES + l]);
}

/* Same code split as dot(). */
static void dot4(int variant, const double *a, const double *xT, i64 k,
                 double *out) {
    const i64 body = variant >= 3 ? k - 2 : k;
    int l;
    switch (variant) {
    case 0:
    case 3:
        dot4_v4_h2(a, xT, body, out);
        break;
    case 1:
    case 4:
        dot4_x2_nofma(a, xT, body, out);
        break;
    default:
        dot4_2fma(a, xT, k, out);
        return;
    }
    if (variant >= 3)
        for (l = 0; l < LANES; ++l)
            out[l] = out[l] + fma(a[k - 2], xT[(k - 2) * LANES + l],
                                  a[k - 1] * xT[(k - 1) * LANES + l]);
}

static void matvec4(const double *M, i64 r, i64 k, const signed char *v,
                    const double *xT, double *outT) {
    i64 i;
    for (i = 0; i < r; ++i)
        dot4(v[i], M + i * k, xT, k, outT + i * LANES);
}

/* One full LANES-row block: transpose in, lane-parallel step,
 * scatter out.  Per-lane op order matches servo_rows statement for
 * statement. */
static void servo_block(const servo_ctx *c, i64 r0, const gain_pack *g)
{
    double xT[32 * LANES], dupT[32 * LANES], dyT[32 * LANES];
    double ypredT[32 * LANES], tmpT[32 * LANES], xnewT[32 * LANES];
    double zT[32 * LANES], duT[32 * LANES], kizT[32 * LANES];
    double urawT[32 * LANES], uoutT[32 * LANES], excT[32 * LANES];
    double excl[32], corr[32];
    const i64 n = c->n, m = c->m, p = c->p;
    i64 i, j, jj;
    int l;

    for (i = 0; i < n; ++i)
        for (l = 0; l < LANES; ++l)
            xT[i * LANES + l] = c->X[(r0 + l) * n + i];
    for (j = 0; j < m; ++j)
        for (l = 0; l < LANES; ++l)
            dupT[j * LANES + l] = c->DU[(r0 + l) * m + j];

    /* dy = (y - op.y) / y_scale */
    for (i = 0; i < p; ++i)
        for (l = 0; l < LANES; ++l)
            dyT[i * LANES + l] =
                (c->Y[(r0 + l) * p + i] - c->op_y[i]) / c->y_scale[i];

    /* y_pred = C @ x + D @ du_prev */
    matvec4(g->Cm, p, n, g->vC, xT, ypredT);
    matvec4(g->Dm, p, m, g->vD, dupT, tmpT);
    for (i = 0; i < p; ++i)
        for (l = 0; l < LANES; ++l)
            ypredT[i * LANES + l] =
                ypredT[i * LANES + l] + tmpT[i * LANES + l];

    /* xhat = (A @ x + B @ du_prev) + L @ (dy - y_pred) */
    matvec4(g->Am, n, n, g->vA, xT, xnewT);
    matvec4(g->Bm, n, m, g->vB, dupT, tmpT);
    for (i = 0; i < n; ++i)
        for (l = 0; l < LANES; ++l)
            xnewT[i * LANES + l] =
                xnewT[i * LANES + l] + tmpT[i * LANES + l];
    for (i = 0; i < p; ++i)
        for (l = 0; l < LANES; ++l)
            tmpT[i * LANES + l] =
                dyT[i * LANES + l] - ypredT[i * LANES + l];
    matvec4(g->Lm, n, p, g->vL, tmpT, ypredT);
    for (i = 0; i < n; ++i)
        for (l = 0; l < LANES; ++l)
            xnewT[i * LANES + l] =
                xnewT[i * LANES + l] + ypredT[i * LANES + l];
    for (i = 0; i < n; ++i)
        for (l = 0; l < LANES; ++l)
            c->X[(r0 + l) * n + i] = xnewT[i * LANES + l];

    /* z = z + integral_mask * (dr - dy) */
    for (i = 0; i < p; ++i)
        for (l = 0; l < LANES; ++l)
            zT[i * LANES + l] =
                c->Z[(r0 + l) * p + i]
                + g->imask[i]
                      * (c->dr[(r0 + l) * p + i] - dyT[i * LANES + l]);

    /* du = (-K_state) @ xhat - K_integral @ z */
    matvec4(g->negK, m, n, g->vK, xnewT, duT);
    matvec4(g->Ki, m, p, g->vKi, zT, kizT);
    for (j = 0; j < m; ++j)
        for (l = 0; l < LANES; ++l)
            duT[j * LANES + l] = duT[j * LANES + l] - kizT[j * LANES + l];

    /* u_raw, slew + bound clip, excess (same selects as servo_rows). */
    for (j = 0; j < m; ++j) {
        for (l = 0; l < LANES; ++l) {
            double raw = c->op_u[j] + duT[j * LANES + l] * c->u_scale[j];
            double cc = raw;
            urawT[j * LANES + l] = raw;
            if (c->has_max_step) {
                double lo = c->U_prev[(r0 + l) * m + j] - c->max_step[j];
                double hi = c->U_prev[(r0 + l) * m + j] + c->max_step[j];
                cc = (cc > lo) ? cc : lo;
                cc = (cc < hi) ? cc : hi;
            }
            cc = (cc > c->lower[j]) ? cc : c->lower[j];
            cc = (cc < c->upper[j]) ? cc : c->upper[j];
            uoutT[j * LANES + l] = cc;
            excT[j * LANES + l] = (raw - cc) / c->u_scale_safe[j];
        }
    }

    /* Anti-windup: rare, handled per lane with the scalar matvec. */
    for (l = 0; l < LANES; ++l) {
        for (j = 0; j < m; ++j) {
            if (excT[j * LANES + l] != 0.0) {
                for (jj = 0; jj < m; ++jj)
                    excl[jj] = excT[jj * LANES + l];
                matvec(g->Kipinv, p, m, g->vP, excl, corr);
                for (i = 0; i < p; ++i)
                    zT[i * LANES + l] =
                        zT[i * LANES + l] + c->anti_windup * corr[i];
                break;
            }
        }
    }

    /* Scatter state back out. */
    for (i = 0; i < p; ++i)
        for (l = 0; l < LANES; ++l)
            c->Z[(r0 + l) * p + i] = zT[i * LANES + l];
    for (j = 0; j < m; ++j) {
        for (l = 0; l < LANES; ++l) {
            double u = uoutT[j * LANES + l];
            c->U_out[(r0 + l) * m + j] = u;
            c->DU[(r0 + l) * m + j] = (u - c->op_u[j]) / c->u_scale[j];
            c->U_prev[(r0 + l) * m + j] = u;
        }
    }
}

/* Entry point.  Row r runs gain set packs[gain_ids[r]].  A full block
 * of LANES rows that share one gain id steps lane-parallel; a mixed
 * block, and the remainder rows, step one row at a time. */
void fused_servo_step(
    i64 N, i64 n, i64 m, i64 p,
    const double *Y, const double *dr,
    double *X, double *Z, double *DU, double *U_prev, double *U_out,
    const gain_pack *packs, const signed char *gain_ids,
    const double *op_y, const double *y_scale,
    const double *op_u, const double *u_scale, const double *u_scale_safe,
    const double *lower, const double *upper,
    const double *max_step, int has_max_step,
    double anti_windup)
{
    servo_ctx c;
    i64 r0;
    i64 blocked = N - (N % LANES);
    int l, same;
    c.n = n; c.m = m; c.p = p;
    c.Y = Y; c.dr = dr;
    c.X = X; c.Z = Z; c.DU = DU; c.U_prev = U_prev; c.U_out = U_out;
    c.packs = packs; c.gain_ids = gain_ids;
    c.op_y = op_y; c.y_scale = y_scale; c.op_u = op_u;
    c.u_scale = u_scale; c.u_scale_safe = u_scale_safe;
    c.lower = lower; c.upper = upper; c.max_step = max_step;
    c.has_max_step = has_max_step;
    c.anti_windup = anti_windup;
    for (r0 = 0; r0 < blocked; r0 += LANES) {
        same = 1;
        for (l = 1; l < LANES; ++l)
            same &= gain_ids[r0 + l] == gain_ids[r0];
        if (same)
            servo_block(&c, r0, &packs[gain_ids[r0]]);
        else
            servo_rows(&c, r0, r0 + LANES);
    }
    servo_rows(&c, blocked, N);
}

/* One cluster sensor read per row: the fleet _cluster_telemetry body
 * (platform/fleet.py) with identical op order per element.  z has row
 * stride z_stride doubles (it is a column slice of the noise block);
 * the (a > b) ? a : b / (a < b) ? a : b selects replicate
 * np.maximum/np.minimum on non-NaN data, and rint() is the same
 * round-half-to-even as np.rint under the default rounding mode. */
void fleet_telemetry(
    i64 N, i64 nc,
    const double *active, const i64 *opp, const double *bce,
    const double *z, i64 z_stride,
    const double *dyn_table, const double *leak_table,
    const double *rate_table,
    double idle_frac, double uncore,
    const double *noise, const signed char *res_mask,
    const double *res, const double *floor_v, int any_res,
    double *power, double *ips)
{
    double v[17];
    i64 r, c, j;
    for (r = 0; r < N; ++r) {
        double act = active[r];
        i64 k = opp[r];
        double b = bce[r];
        double busy = (b > 0.0) ? b : 0.0;
        double idle, target, s;
        const double *zr = z + r * z_stride;
        busy = (busy < act) ? busy : act;
        idle = act - busy;
        /* true power: dyn*(busy + idle_frac*idle) + leak*active + uncore */
        v[0] = dyn_table[k] * (busy + idle_frac * idle)
             + leak_table[k] * act + uncore;
        /* per-core PMU target: (bce * core_rate) * (1 / active) */
        target = (b * rate_table[k]) * (1.0 / act);
        for (j = 0; j < nc; ++j)
            v[j + 1] = ((double)j < act) ? target : 0.0;
        for (c = 0; c < nc + 1; ++c) {
            double g = 1.0 + noise[c] * zr[c];
            double val;
            g = (g > 0.0) ? g : 0.0;
            g = (g < 2.0) ? g : 2.0;
            val = v[c] * g;
            if (any_res && res_mask[c])
                val = rint(val / res[c]) * res[c];
            v[c] = (val > floor_v[c]) ? val : floor_v[c];
        }
        power[r] = v[0];
        /* Sequential per-core fold, like the scalar accumulation. */
        s = 0.0;
        for (j = 0; j < nc; ++j) s = s + v[j + 1];
        ips[r] = s;
    }
}

/* One OPPTable snap per row: searchsorted(side='left') as a binary
 * search, then the same clamp-at-rails and
 * prefer-the-lower-point-on-ties float compares as snap_indices. */
void opp_snap(i64 N, const double *f, const double *freqs, i64 nfreq,
              i64 *out)
{
    i64 last = nfreq - 1;
    i64 r;
    for (r = 0; r < N; ++r) {
        double x = f[r];
        i64 lo, hi_bound, hi;
        double below, above;
        if (x <= freqs[0]) { out[r] = 0; continue; }
        if (x >= freqs[last]) { out[r] = last; continue; }
        lo = 0;
        hi_bound = nfreq;
        while (lo < hi_bound) {
            i64 mid = (lo + hi_bound) >> 1;
            if (freqs[mid] < x) lo = mid + 1; else hi_bound = mid;
        }
        hi = (lo > 1) ? lo : 1;
        if (hi > last) hi = last;
        below = freqs[hi - 1];
        above = freqs[hi];
        out[r] = (x - below <= above - x) ? hi - 1 : hi;
    }
}
"""


# -march=native lets fma() compile to the hardware instruction instead
# of a libm call; -ffp-contract=off still forbids the compiler from
# contracting or reordering anything we did not write explicitly.
# Compilation happens on the machine that runs the kernel, so native
# targeting is safe; the flags are part of the cache key.
_CFLAGS = (
    "-O2",
    "-march=native",
    "-fPIC",
    "-shared",
    # Forbid implicit mul+add contraction: every fma in the kernels is
    # explicit, so codegen matches the probed reduction orders exactly.
    "-ffp-contract=off",
    # rint/fma never touch errno; dropping errno bookkeeping lets gcc
    # inline them to single instructions without changing any result.
    "-fno-math-errno",
)


def _compile(source: str):
    digest = hashlib.sha256(
        (source + "\x00" + " ".join(_CFLAGS)).encode()
    ).hexdigest()[:16]
    cache = tempfile.gettempdir()
    so_path = os.path.join(cache, f"repro-fused-{digest}.so")
    if not os.path.exists(so_path):
        # Source and object are per-process: concurrent first builds in
        # one temp dir must not truncate each other's input.  The
        # atomic rename publishes whichever finishes first.
        build_path = so_path + f".build-{os.getpid()}"
        c_path = build_path + ".c"
        try:
            with open(c_path, "w", encoding="utf-8") as handle:
                handle.write(source)
            subprocess.run(
                ["cc", *_CFLAGS, c_path, "-o", build_path, "-lm"],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(build_path, so_path)
        finally:
            for leftover in (c_path, build_path):
                if os.path.exists(leftover):
                    os.remove(leftover)
    return ctypes.CDLL(so_path)


class FusedKernel:
    """ctypes binding of the compiled per-row fleet kernels."""

    def __init__(self, lib) -> None:
        dot = lib.fused_dot
        dot.restype = ctypes.c_double
        dot.argtypes = [
            ctypes.c_longlong,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_longlong,
        ]
        self._dot = dot
        step = lib.fused_servo_step
        step.restype = None
        # 4 dims; Y and 6 state pointers; the gain-pack table and the
        # per-row gain ids; 7 operating-point/limit pointers and the
        # max_step pointer (passed as a raw address); has_max_step,
        # anti_windup.
        step.argtypes = (
            [ctypes.c_longlong] * 4
            + [ctypes.c_void_p] * 17
            + [ctypes.c_int, ctypes.c_double]
        )
        self._step = step
        telemetry = lib.fleet_telemetry
        telemetry.restype = None
        telemetry.argtypes = (
            [ctypes.c_longlong] * 2
            + [ctypes.c_void_p] * 4
            + [ctypes.c_longlong]
            + [ctypes.c_void_p] * 3
            + [ctypes.c_double] * 2
            + [ctypes.c_void_p] * 4
            + [ctypes.c_int]
            + [ctypes.c_void_p] * 2
        )
        self._telemetry = telemetry
        snap = lib.opp_snap
        snap.restype = None
        snap.argtypes = [
            ctypes.c_longlong,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_longlong,
            ctypes.c_void_p,
        ]
        self._snap = snap

    @staticmethod
    def fits(n: int, m: int, p: int) -> bool:
        return max(n, m, p) <= _MAX_DIM

    def dot(self, variant: int, a_row: np.ndarray, x: np.ndarray) -> float:
        return self._dot(
            variant, a_row.ctypes.data, x.ctypes.data, a_row.size
        )

    def servo_step_ptrs(self, rows, n, m, p, y_ptr, tail) -> None:
        """One ``fused_servo_step`` call with every post-``Y`` argument
        pre-resolved.

        ``tail`` is the tuple of raw pointer/flag/scalar arguments the
        caller captured once (the underlying buffers are updated in
        place between calls, so their addresses are stable until the
        caller rebuilds the tuple).
        """
        self._step(rows, n, m, p, y_ptr, *tail)

    def cluster_telemetry(
        self,
        active,
        opp_idx,
        bce,
        z,
        dyn_table,
        leak_table,
        rate_table,
        idle_frac,
        uncore,
        noise_row,
        res_mask_i8,
        safe_res_row,
        floor_row,
        any_resolution,
        power_out,
        ips_out,
    ) -> None:
        args = self.telemetry_args(
            active,
            opp_idx,
            dyn_table,
            leak_table,
            rate_table,
            idle_frac,
            uncore,
            noise_row,
            res_mask_i8,
            safe_res_row,
            floor_row,
            any_resolution,
            power_out,
            ips_out,
        )
        self.cluster_telemetry_ptrs(args, bce, z)

    def telemetry_args(
        self,
        active,
        opp_idx,
        dyn_table,
        leak_table,
        rate_table,
        idle_frac,
        uncore,
        noise_row,
        res_mask_i8,
        safe_res_row,
        floor_row,
        any_resolution,
        power_out,
        ips_out,
    ) -> list:
        """Reusable argument vector for :meth:`cluster_telemetry_ptrs`.

        Slots 4-6 (bce pointer, z pointer, z stride) are placeholders
        filled per call; everything else is a raw pointer or scalar that
        stays valid only while the backing arrays keep their identity —
        callers cache this and must rebuild when any of them is
        replaced.
        """
        return [
            active.size,
            noise_row.size - 1,
            active.ctypes.data,
            opp_idx.ctypes.data,
            0,
            0,
            0,
            dyn_table.ctypes.data,
            leak_table.ctypes.data,
            rate_table.ctypes.data,
            idle_frac,
            uncore,
            noise_row.ctypes.data,
            res_mask_i8.ctypes.data,
            safe_res_row.ctypes.data,
            floor_row.ctypes.data,
            1 if any_resolution else 0,
            power_out.ctypes.data,
            ips_out.ctypes.data,
        ]

    def cluster_telemetry_ptrs(self, args: list, bce, z) -> None:
        """Invoke the telemetry kernel with a prebuilt argument vector."""
        args[4] = bce.ctypes.data
        args[5] = z.ctypes.data
        args[6] = z.strides[0] // 8
        self._telemetry(*args)

    def snap_indices(self, f, freqs, out) -> None:
        self._snap(
            f.size, f.ctypes.data, freqs.ctypes.data, freqs.size,
            out.ctypes.data,
        )


# Dot variant codes of the C ``dot`` switch: 0 v4_h2, 1 x2_nofma,
# 2 dot2_fma, 3 v4_h2+pair, 4 x2+pair.  ``NO_VARIANT`` marks a row that
# no candidate reproduces.
NO_VARIANT = -1


def _candidates(k: int) -> tuple[int, ...]:
    """Applicable codes for inner dimension ``k``, in probe order."""
    if k == 2:
        return (2, 1)
    if k % 4 == 0:
        return (1, 0)
    if k % 4 == 2:
        return (3, 4, 1)
    return ()


# Probe verdicts keyed by matrix content; the probe is deterministic
# (fixed rng seed, data-dependent only), so identical matrices always
# re-derive the same variants.  Rebuilding the same controllers per run
# would otherwise repeat every probe.
_VARIANT_MEMO: dict[bytes, np.ndarray] = {}


def dot_variant(kernel: FusedKernel, matrix: np.ndarray) -> np.ndarray:
    # repro: shape[matrix: (r, k) f8; -> (r,) i1]
    """Per-row dot variants reproducing ``np.matvec(matrix, ·)`` bit-exactly.

    BLAS may reduce different rows of one matrix differently (OpenBLAS
    reduces rows in blocks of 4 and the remainder rows with another
    kernel), so each row gets its own code.  The first candidate that
    reproduces *every* row on random vectors across magnitudes is used
    for all of them; failing that, each row takes the first candidate
    that reproduces it.  A row no candidate reproduces gets
    :data:`NO_VARIANT`; the caller then keeps the numpy path and reports
    the row.
    """
    key = matrix.shape[1].to_bytes(4, "little") + matrix.tobytes()
    codes = _VARIANT_MEMO.get(key)
    if codes is None:
        codes = _dot_variant_probe(kernel, matrix)
        codes.flags.writeable = False
        if len(_VARIANT_MEMO) < 4096:
            _VARIANT_MEMO[key] = codes
    return codes


def _dot_variant_probe(kernel: FusedKernel, matrix: np.ndarray) -> np.ndarray:
    matrix = np.ascontiguousarray(matrix, dtype=float)
    r, k = matrix.shape
    rng = np.random.default_rng(0xD07)
    batches = [
        rng.standard_normal((17, k)) * scale for scale in (1e-3, 1.0, 1e3)
    ]
    # (vector address, reference products) pairs; raw addresses keep
    # the thousands of probe calls off the ndarray.ctypes path.
    samples = [
        (X.ctypes.data + 8 * k * j, reference)
        for X in batches
        for j, reference in enumerate(np.matvec(matrix, X).tolist())
    ]

    def reproduces(code: int, i: int) -> bool:
        row = matrix.ctypes.data + 8 * k * i
        return all(
            kernel._dot(code, row, x, k) == reference[i]
            for x, reference in samples
        )

    candidates = _candidates(k)
    codes = np.full(r, NO_VARIANT, dtype=np.int8)
    for code in candidates:
        if all(reproduces(code, i) for i in range(r)):
            codes[:] = code
            return codes
    for i in range(r):
        codes[i] = next(
            (code for code in candidates if reproduces(code, i)), NO_VARIANT
        )
    return codes


# The gain matrices the servo kernel reduces, in its gain_pack order;
# the integral mask and the per-matrix variant codes follow them.
SERVO_MATRICES = (
    "C",
    "A",
    "B",
    "D",
    "L",
    "neg_K_state",
    "K_integral",
    "K_integral_pinv",
)


class ServoGainPack:
    """One gain set laid out for ``fused_servo_step``.

    Holds the contiguous matrices the kernel reads (:data:`SERVO_MATRICES`
    and ``integral_mask``), their per-row dot variants and ``row``, the
    set's ``(1, 17)`` row of the kernel's gain-pack table.  ``row`` is
    ``None`` without a kernel, or when some matrix row has no bit-exact
    inlined reduction on this machine (``gap`` names it).  ``key`` is
    the set's content, for the servos' probe memos.

    Built once per gain set and cached on the immutable
    :class:`~repro.control.lqg.LQGGains` (``fused_pack``), so the
    scalar and fleet servos share one pack.  ``row`` holds this
    process's addresses: the pack never crosses a pickle.
    """

    def __init__(self, gains) -> None:
        model = gains.model
        self.C = np.ascontiguousarray(model.C)  # repro: shape[(p, n) f8]
        self.A = np.ascontiguousarray(model.A)  # repro: shape[(n, n) f8]
        self.B = np.ascontiguousarray(model.B)  # repro: shape[(n, m) f8]
        self.D = np.ascontiguousarray(model.D)  # repro: shape[(p, m) f8]
        self.L = np.ascontiguousarray(gains.L)  # repro: shape[(n, p) f8]
        self.neg_K_state = np.ascontiguousarray(  # repro: shape[(m, n) f8]
            -gains.K_state
        )
        self.K_integral = np.ascontiguousarray(  # repro: shape[(m, p) f8]
            gains.K_integral
        )
        self.K_integral_pinv = np.ascontiguousarray(  # repro: shape[(p, m) f8]
            gains.K_integral_pinv
        )
        self.integral_mask = np.ascontiguousarray(  # repro: shape[(p,) f8]
            gains.integral_mask
        )
        matrices = [getattr(self, name) for name in SERVO_MATRICES]
        dims = np.array(self.B.shape + self.C.shape, dtype=np.int64)
        self.key = b"".join(
            part.tobytes() for part in [dims, *matrices, self.integral_mask]
        )
        self.variants = None  # repro: shape[(3*n+3*p+2*m,) i1 | none]
        self.row = None  # repro: shape[(1, 17) i8 | none]
        self.gap: str | None = None
        kernel = fused_kernel()
        if kernel is None:
            return
        codes = []
        for name, matrix in zip(SERVO_MATRICES, matrices):
            rows = dot_variant(kernel, matrix)
            missing = np.flatnonzero(rows == NO_VARIANT)
            if missing.size:
                self.gap = f"no bit-exact dot variant: {name} row {missing[0]}"
                return
            codes.append(rows)
        self.variants = np.concatenate(codes)
        base = self.variants.ctypes.data
        starts = np.cumsum([0] + [matrix.shape[0] for matrix in matrices])
        self.row = np.array(
            [
                [matrix.ctypes.data for matrix in matrices]
                + [self.integral_mask.ctypes.data]
                + [base + int(start) for start in starts[:-1]]
            ],
            dtype=np.int64,
        )


def servo_context_key(operating_point, limits, anti_windup: float) -> bytes:
    """Content key of everything a servo's differential probe reads
    besides its gain sets: operating point, limits, anti-windup gain."""
    op = operating_point
    parts = [
        np.array([limits.max_step is not None], dtype=np.int64),
        np.array([anti_windup], dtype=float),
        op.y, op.y_scale, op.u, op.u_scale,
        limits.lower, limits.upper,
    ]
    if limits.max_step is not None:
        parts.append(limits.max_step)
    return b"".join(np.ascontiguousarray(part).tobytes() for part in parts)


def servo_tail(
    dr,
    X,
    Z,
    DU,
    U_prev,
    U_out,
    packs,
    gain_ids,
    operating_point,
    u_scale_safe,
    limits,
    anti_windup: float,
) -> tuple:
    """Raw arguments of ``fused_servo_step`` after ``Y``, for
    :meth:`FusedKernel.servo_step_ptrs`.

    Row-major ``(N, ·)`` state buffers (a length-k vector is one
    ``(1, k)`` row), the ``(G, 17)`` gain-pack table and the ``(N,)``
    int8 gain ids, then the operating point and limits.  The addresses
    stay valid only while every buffer is updated in place; a caller
    that replaces one must rebuild the tuple.
    """
    op = operating_point
    if limits.max_step is None:
        step_ptr, has_step = limits.lower.ctypes.data, 0
    else:
        step_ptr, has_step = limits.max_step.ctypes.data, 1
    return (
        dr.ctypes.data,
        X.ctypes.data,
        Z.ctypes.data,
        DU.ctypes.data,
        U_prev.ctypes.data,
        U_out.ctypes.data,
        packs.ctypes.data,
        gain_ids.ctypes.data,
        op.y.ctypes.data,
        op.y_scale.ctypes.data,
        op.u.ctypes.data,
        op.u_scale.ctypes.data,
        u_scale_safe.ctypes.data,
        limits.lower.ctypes.data,
        limits.upper.ctypes.data,
        step_ptr,
        has_step,
        float(anti_windup),
    )


_KERNEL: FusedKernel | None = None
_UNAVAILABLE: str | None = None
_TRIED = False


def fused_kernel() -> FusedKernel | None:
    """The process-wide kernel, or ``None`` when unavailable.

    Unavailability is sticky and explained by :func:`unavailable_reason`:
    ``REPRO_DISABLE_FUSED=1``, no compiler or a failed build all mean
    the numpy path runs instead, with identical results.
    """
    global _KERNEL, _TRIED, _UNAVAILABLE
    if _TRIED:
        return _KERNEL
    _TRIED = True
    if os.environ.get("REPRO_DISABLE_FUSED", "") not in ("", "0"):
        _UNAVAILABLE = "disabled"
        return None
    try:
        _KERNEL = FusedKernel(_compile(_C_SOURCE))
    except Exception as error:
        _KERNEL = None
        # A failed compile carries the compiler's diagnostics in stderr.
        stderr = getattr(error, "stderr", None) or b""
        detail = stderr.decode(errors="replace")
        _UNAVAILABLE = f"no kernel: {error} {detail}".strip()
    return _KERNEL


def unavailable_reason() -> str | None:
    """Why :func:`fused_kernel` returned ``None`` (``None`` when it did
    not): ``"disabled"`` under ``REPRO_DISABLE_FUSED``, otherwise
    ``"no kernel: ..."`` with the build error text."""
    fused_kernel()
    return _UNAVAILABLE
