"""Optional compiled fast paths for the per-tick control and platform loops.

The numpy and Python paths spend most of their time dispatching many
small ufunc/matvec calls, or interpreting scalar arithmetic, per tick.
This module moves five of those loops into C functions that sweep
their rows once each, with every elementwise expression written in
scalar evaluation order (compiled with ``-ffp-contract=off`` so the
compiler cannot fuse or reorder anything we did not write explicitly):

* ``fused_servo_step`` — the entire per-row
  ``LQGServoController.step`` recurrence with every dot product
  inlined.  One kernel serves both servos: the fleet's
  :class:`~repro.control.batch.BatchedLQGServo` steps N rows per call,
  and the scalar :class:`~repro.control.lqg.LQGServoController` steps
  its single row (N=1);
* ``fleet_telemetry`` — the per-row cluster sensor read
  (``soc.read_cluster_telemetry``).  The scalar SoC's
  ``soc.CompiledSensors`` reads one cluster's single row through it,
  per-core readings included, wherever the SoC's tick runs in Python
  (a sibling cluster faulted, time-aware or under idle insertion);
* ``plant_tick`` — the rest of the plant tick after the background
  placement: the Big cluster's fair share, the QoS workload's rate
  (Amdahl speedup over a per-OPP ``peak_rate * frequency_scale`` table,
  the serial-phase rescale, the clamped noise gain and the floor at 0),
  both clusters' busy clamps and both sensor reads, through the same
  row reader as ``fleet_telemetry``.  One kernel serves both ticks:
  ``soc.CompiledTick`` runs the scalar SoC's single row (per-core
  readings out, the QoS gain drawn by ``rng.normal``), and
  ``fleet.CompiledFleetTick`` runs N rows (per-core NULL, the gain from
  the pre-drawn standard normal, the chip power out).  The RNG calls,
  the placement and the heartbeat window stay in Python;
* ``opp_snap`` — the per-row DVFS table snap
  (``OPPTable.snap_indices`` in ``platform/opp.py``);
* ``noise_fill`` — the fleet's sensor-noise refill
  (``FleetPlatform._refill_noise``): one standard-normal fill per row
  from that row's own numpy bit generator.  It is numpy's own code on
  numpy's own state: the ``random_standard_normal_fill`` loop that
  ``Generator.standard_normal(out=row)`` runs, linked from numpy's
  static ``numpy/random/lib/libnpyrandom.a``, called on each row's
  ``bitgen_t`` (:func:`bitgen_table`).  Both are numpy's public C API
  for extending ``numpy.random``.  Without the archive, or when its
  build or load-time probe fails, the other four kernels still build
  and only the refill stays on numpy (:func:`noise_fill_reason`).

Each of the five takes a single pointer to an *argument block*: an
array of C ``arg`` slots (``union { i64; double; void * }``), built
once per set of buffers with :func:`arg_block` (:func:`servo_block`,
:func:`telemetry_args`, :func:`plant_tick_args`).  A call then
marshals one pointer instead of 5-23 positional ctypes arguments, and
the caller rewrites only its per-call slots: ``Y`` for the fleet servo,
``z`` for the fleet tick, which reads each cluster's tables and state
through that cluster's telemetry block.  The scalar callers keep even
those in place: their inputs live in fixed buffers the block points
into (the scalar sensor read's and the scalar tick's each in one
scratch array), so a call is the bare pointer.

Every function is gated on a differential probe against the numpy (or,
for the scalar sensor read and tick, Python) reference — by its caller,
run once per content and memoized through :func:`probe_verdict`, or
for the noise refill once at load — so a kernel only ever runs where
it is machine-verified bit-identical.

Every servo product has one defined reduction order: a sequential sum
with no FMA, starting from the first product (``s = a0*x0; s = s +
a1*x1; ...``).  The C ``dot`` computes it, and both numpy references
compute it too (``lqg.sequential_matvec`` for the scalar servo, a
column loop in ``batch.BatchedLQGServo`` for the fleet) instead of
``M @ x``, whose order is whatever the host's BLAS kernel picks.  So the
servo's bits depend on neither the BLAS build nor the CPU it dispatches
for, and the kernel has one code path.

The servo step serves a whole gain-scheduled palette at once: it takes
a table of per-gain-set pointers (matrices and integral mask) and each
row's gain id.  A block of 8 rows sharing one gain set steps
lane-parallel; a mixed block steps row by row, each row with its own
set.  A gain set's row of that table is built once, by
:class:`ServoGainPack`, and cached on the immutable
:class:`~repro.control.lqg.LQGGains`, so both servos share it.  Each
servo only enables the kernel after an end-to-end differential probe
shows the fused step reproduces its numpy step bit-for-bit: the fleet
servo for every gain set, uniform and mixed; the scalar servo for each
gain set it is switched onto.

The kernel is strictly optional: it compiles lazily with the system C
compiler into a cached shared object, and any failure (no compiler,
failed build, failed or raising probe) falls back to numpy or Python
with the reason recorded — :func:`unavailable_reason` for the kernel,
:func:`noise_fill_reason` for the refill, ``fused_reason`` per servo,
per SoC cluster and per fleet, ``tick_reason`` per SoC and per fleet.
``REPRO_DISABLE_FUSED=1`` forces those paths (used by tests to cover
both implementations).  Nothing here changes results —
only how fast they are produced.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import struct
import subprocess
import tempfile

import numpy as np

__all__ = [
    "MAX_SENSORS",
    "QOS_DRAWN_GAIN",
    "QOS_NONE",
    "QOS_QUIET",
    "QOS_STANDARD_NORMAL",
    "SERVO_MATRICES",
    "SERVO_PACKS",
    "SERVO_Y",
    "ServoGainPack",
    "fused_kernel",
    "TICK_Z",
    "arg_block",
    "bitgen_table",
    "noise_block",
    "noise_fill_reason",
    "plant_tick_args",
    "probe_verdict",
    "servo_block",
    "servo_context_key",
    "telemetry_args",
    "unavailable_reason",
    "FusedKernel",
]

# Stack-buffer capacity in the C source; callers must check fits().
_MAX_DIM = 32

# Sensors per cluster (the power sensor and one PMU per core) that a
# row read may hold; read_row's v[17] has room for them.  Callers check.
MAX_SENSORS = 16

_C_SOURCE = r"""
#include <math.h>
typedef long long i64;

/* One argument slot.  Each entry point takes a single pointer to an
 * array of these, prebuilt by the caller, so a call marshals one
 * pointer instead of every argument. */
typedef union { i64 i; double d; void *p; } arg;

_Static_assert(sizeof(arg) == sizeof(i64), "arg layout");

/* The servo's one reduction order for every matrix-vector product: a
 * sequential sum with no FMA (the source is built with
 * -ffp-contract=off), starting from the first product:
 * s = a0*x0; s = s + a1*x1; ...  The numpy reference steps compute
 * each product in this same order, so the kernel needs no knowledge
 * of the host's BLAS. */
static double dot(const double *a, const double *x, i64 k) {
    double s = a[0] * x[0];
    i64 t;
    for (t = 1; t < k; ++t) s = s + a[t] * x[t];
    return s;
}

/* out = M @ x with M (r, k) row-major. */
static void matvec(const double *M, i64 r, i64 k, const double *x,
                   double *out) {
    i64 i;
    for (i = 0; i < r; ++i) out[i] = dot(M + i * k, x, k);
}

/* One gain set: its matrices and integral mask.  Python passes the
 * palette as a (G, 9) int64 table of these addresses, so the struct
 * must be exactly 9 pointer-sized slots. */
typedef struct {
    const double *Cm, *Am, *Bm, *Dm, *Lm, *negK, *Ki, *Kipinv, *imask;
} gain_pack;

_Static_assert(sizeof(gain_pack) == 9 * sizeof(i64), "gain_pack layout");

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
        matvec(g->Cm, p, n, x, ypred);
        matvec(g->Dm, p, m, duprev, tmp);
        for (i = 0; i < p; ++i) ypred[i] = ypred[i] + tmp[i];

        /* xhat = (A @ x + B @ du_prev) + L @ (dy - y_pred) */
        matvec(g->Am, n, n, x, xnew);
        matvec(g->Bm, n, m, duprev, tmp);
        for (i = 0; i < n; ++i) xnew[i] = xnew[i] + tmp[i];
        for (i = 0; i < p; ++i) resid[i] = dy[i] - ypred[i];
        matvec(g->Lm, n, p, resid, tmp);
        for (i = 0; i < n; ++i) xnew[i] = xnew[i] + tmp[i];
        for (i = 0; i < n; ++i) x[i] = xnew[i];

        /* z = z + integral_mask * (dr - dy) */
        for (i = 0; i < p; ++i)
            z[i] = z[i] + g->imask[i] * (drr[i] - dy[i]);

        /* du = (-K_state) @ xhat - K_integral @ z */
        matvec(g->negK, m, n, xnew, du);
        matvec(g->Ki, m, p, z, kiz);
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
                matvec(g->Kipinv, p, m, exc, corr);
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

/* Lane-parallel step: LANES rows advance together, one row per lane.
 * Every lane executes exactly the scalar op sequence on its own data
 * (lanes never mix), so per-row results are bit-identical to
 * servo_rows while the independent add chains pipeline.  xT/outT are
 * lane-major: element i of lane l at [i*LANES + l]. */
#define LANES 8

/* dot() on LANES rows at once.  The sums stay in a local acc[] and are
 * stored once at the end: accumulating through out, which may alias
 * xT as far as the compiler knows, keeps every partial sum in memory. */
static void dot4(const double *a, const double *xT, i64 k, double *out) {
    double acc[LANES];
    i64 t;
    int l;
    for (l = 0; l < LANES; ++l) acc[l] = a[0] * xT[l];
    for (t = 1; t < k; ++t)
        for (l = 0; l < LANES; ++l)
            acc[l] = acc[l] + a[t] * xT[t * LANES + l];
    for (l = 0; l < LANES; ++l) out[l] = acc[l];
}

static void matvec4(const double *M, i64 r, i64 k, const double *xT,
                    double *outT) {
    i64 i;
    for (i = 0; i < r; ++i) dot4(M + i * k, xT, k, outT + i * LANES);
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
    matvec4(g->Cm, p, n, xT, ypredT);
    matvec4(g->Dm, p, m, dupT, tmpT);
    for (i = 0; i < p; ++i)
        for (l = 0; l < LANES; ++l)
            ypredT[i * LANES + l] =
                ypredT[i * LANES + l] + tmpT[i * LANES + l];

    /* xhat = (A @ x + B @ du_prev) + L @ (dy - y_pred) */
    matvec4(g->Am, n, n, xT, xnewT);
    matvec4(g->Bm, n, m, dupT, tmpT);
    for (i = 0; i < n; ++i)
        for (l = 0; l < LANES; ++l)
            xnewT[i * LANES + l] =
                xnewT[i * LANES + l] + tmpT[i * LANES + l];
    for (i = 0; i < p; ++i)
        for (l = 0; l < LANES; ++l)
            tmpT[i * LANES + l] =
                dyT[i * LANES + l] - ypredT[i * LANES + l];
    matvec4(g->Lm, n, p, tmpT, ypredT);
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
    matvec4(g->negK, m, n, xnewT, duT);
    matvec4(g->Ki, m, p, zT, kizT);
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
                matvec(g->Kipinv, p, m, excl, corr);
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

/* Entry point, reading its argument block: N, n, m, p; Y, dr, X, Z,
 * DU, U_prev, U_out; the gain-pack table and per-row gain ids; op_y,
 * y_scale, op_u, u_scale, u_scale_safe, lower, upper, max_step;
 * has_max_step, anti_windup.  Row r runs gain set packs[gain_ids[r]].
 * A full block of LANES rows that share one gain id steps
 * lane-parallel; a mixed block, and the remainder rows, step one row
 * at a time. */
void fused_servo_step(const arg *a)
{
    servo_ctx c;
    const i64 N = a[0].i;
    const signed char *gain_ids = a[12].p;
    const gain_pack *packs = a[11].p;
    i64 r0;
    i64 blocked = N - (N % LANES);
    int l, same;
    c.n = a[1].i; c.m = a[2].i; c.p = a[3].i;
    c.Y = a[4].p; c.dr = a[5].p;
    c.X = a[6].p; c.Z = a[7].p; c.DU = a[8].p; c.U_prev = a[9].p;
    c.U_out = a[10].p;
    c.packs = packs; c.gain_ids = gain_ids;
    c.op_y = a[13].p; c.y_scale = a[14].p; c.op_u = a[15].p;
    c.u_scale = a[16].p; c.u_scale_safe = a[17].p;
    c.lower = a[18].p; c.upper = a[19].p; c.max_step = a[20].p;
    c.has_max_step = (int)a[21].i;
    c.anti_windup = a[22].d;
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

/* One cluster's sensor read: its tables, its state and outputs, loaded
 * from a fleet_telemetry argument block (slots below). */
typedef struct {
    i64 nc;
    const double *active;
    const i64 *opp;
    const double *dyn_table, *leak_table, *rate_table;
    double idle_frac, uncore;
    const double *noise;
    const signed char *res_mask;
    const double *res, *floor_v;
    i64 any_res;
    double *power, *ips, *per_core;
} sensor_ctx;

static void sensor_ctx_load(const arg *a, sensor_ctx *s)
{
    s->nc = a[1].i;
    s->active = a[2].p;
    s->opp = a[3].p;
    s->dyn_table = a[7].p;
    s->leak_table = a[8].p;
    s->rate_table = a[9].p;
    s->idle_frac = a[10].d;
    s->uncore = a[11].d;
    s->noise = a[12].p;
    s->res_mask = a[13].p;
    s->res = a[14].p;
    s->floor_v = a[15].p;
    s->any_res = a[16].i;
    s->power = a[17].p;
    s->ips = a[18].p;
    s->per_core = a[19].p;
}

/* Row r's read with busy equivalents b and noise draws zr:
 * read_cluster_telemetry's body (platform/soc.py) with identical op
 * order per element.  The gain clamp selects (a > b) ? a : b /
 * (a < b) ? a : b reproduce the scalar if-chain and
 * np.maximum/np.minimum on non-NaN data (the gain is never -0.0).
 * rint() is the same round-half-to-even as Python's round() and
 * np.rint; adding +0.0 maps a -0.0 quotient to +0.0, as round()'s int
 * result does.  The floor select keeps the reading on a tie, like
 * max(value, floor): a -0.0 per-core reading (negative bce, gain
 * clamped to 0) stays -0.0.  Only per_core can show that sign; the
 * sums start from +0.0, and power is never negative. */
static void read_row(const sensor_ctx *s, i64 r, double b, const double *zr)
{
    const i64 nc = s->nc;
    const double act = s->active[r];
    const i64 k = s->opp[r];
    double busy = (b > 0.0) ? b : 0.0;
    double idle, target, sum;
    double v[17];
    i64 c, j;
    busy = (busy < act) ? busy : act;
    idle = act - busy;
    /* true power: dyn*(busy + idle_frac*idle) + leak*active + uncore */
    v[0] = s->dyn_table[k] * (busy + s->idle_frac * idle)
         + s->leak_table[k] * act + s->uncore;
    /* per-core PMU target: (bce * core_rate) * (1 / active) */
    target = (b * s->rate_table[k]) * (1.0 / act);
    for (j = 0; j < nc; ++j)
        v[j + 1] = ((double)j < act) ? target : 0.0;
    for (c = 0; c < nc + 1; ++c) {
        double g = 1.0 + s->noise[c] * zr[c];
        double val;
        g = (g > 0.0) ? g : 0.0;
        g = (g < 2.0) ? g : 2.0;
        val = v[c] * g;
        if (s->any_res && s->res_mask[c])
            val = (rint(val / s->res[c]) + 0.0) * s->res[c];
        v[c] = (s->floor_v[c] > val) ? s->floor_v[c] : val;
    }
    s->power[r] = v[0];
    /* Sequential per-core fold, like the scalar accumulation. */
    sum = 0.0;
    for (j = 0; j < nc; ++j) sum = sum + v[j + 1];
    s->ips[r] = sum;
    if (s->per_core)
        for (j = 0; j < nc; ++j) s->per_core[r * nc + j] = v[j + 1];
}

/* One cluster sensor read per row.  Arguments: N, nc; active, opp,
 * bce, z, z_stride (z rows are z_stride doubles apart); the per-OPP dyn/leak/rate
 * tables, idle_frac, uncore; the per-sensor noise, res_mask, res,
 * floor rows and any_res; the power and ips outputs, and per_core
 * (N, nc) or NULL. */
void fleet_telemetry(const arg *a)
{
    const i64 N = a[0].i;
    const double *bce = a[4].p;
    const double *z = a[5].p;
    const i64 z_stride = a[6].i;
    sensor_ctx s;
    i64 r;
    sensor_ctx_load(a, &s);
    for (r = 0; r < N; ++r) read_row(&s, r, bce[r], z + r * z_stride);
}

/* perf.amdahl_speedup with a continuous thread count. */
static double amdahl(double pf, double threads)
{
    if (threads <= 0.0) return 0.0;
    if (threads < 1.0) return threads;
    return 1.0 / ((1.0 - pf) + pf / threads);
}

/* One plant tick per row, after the background placement: the Big
 * cluster's fair share, the QoS workload's rate, both clusters' busy
 * clamps and both sensor reads, in ExynosSoC's op order.  Arguments:
 * N; the QoS mode (0 no workload, 1 noise-free, 2 gain 1 +
 * variability * z from a standard-normal draw, 3 z is the drawn gain
 * itself), variability, QoS threads, nominal parallel fraction, a
 * pointer to the current parallel fraction, the per-OPP peak_rate *
 * frequency_scale table of the Big cluster; the Big and Little
 * background demand rows; the noise z, its row stride and the Big and Little column offsets (the
 * QoS draw is column 0); the Big and Little fleet_telemetry argument
 * blocks (their bce, z and z_stride slots are not read); the QoS rate,
 * Big busy and Little busy outputs, and the chip power output or NULL.
 * Selects follow the scalar min()/max() on ties: min(a, b) keeps a
 * unless b < a, max(base, 0.0) keeps base unless 0.0 > base. */
void plant_tick(const arg *a)
{
    const i64 N = a[0].i, qos = a[1].i;
    const double variability = a[2].d, threads = a[3].d;
    const double nominal_pf = a[4].d;
    const double pf = *(const double *)a[5].p;
    const double *peak_fs = a[6].p;
    const double *big_demand = a[7].p, *little_demand = a[8].p;
    const double *z = a[9].p;
    const i64 z_stride = a[10].i, big_off = a[11].i, little_off = a[12].i;
    double *qos_out = a[15].p, *big_busy_out = a[16].p;
    double *little_busy_out = a[17].p, *chip = a[18].p;
    double reference = 0.0, rescale = 1.0;
    int rescaled = 0;
    sensor_ctx big, little;
    i64 r;
    sensor_ctx_load(a[13].p, &big);
    sensor_ctx_load(a[14].p, &little);
    if (qos) {
        /* QoSWorkload.rate's anchors: the reference speedup at the
         * current fraction, and the serial-phase rescale phase_ref /
         * nominal_ref. */
        reference = amdahl(pf, threads);
        if (pf != nominal_pf) {
            const double nominal = amdahl(nominal_pf, threads);
            if (nominal > 0.0) {
                rescaled = 1;
                rescale = amdahl(pf, threads) / nominal;
            }
        }
    }
    for (r = 0; r < N; ++r) {
        const double *zr = z + r * z_stride;
        const double big_cap = big.active[r], little_cap = little.active[r];
        const double runnable = threads + big_demand[r];
        const double little_run = little_demand[r];
        const double big_busy = (runnable < big_cap) ? runnable : big_cap;
        const double little_busy =
            (little_run < little_cap) ? little_run : little_cap;
        if (qos) {
            double share, base = 0.0;
            if (runnable <= 0.0) {
                share = 0.0;
            } else {
                share = big_cap / runnable;
                share = (share < 1.0) ? share : 1.0;
            }
            if (reference != 0.0)
                base = peak_fs[big.opp[r]] * amdahl(pf, threads * share)
                     / reference;
            if (rescaled) base = base * rescale;
            if (qos >= 2) {
                double g = (qos == 2) ? 1.0 + variability * zr[0] : zr[0];
                g = (g < 0.5) ? 0.5 : ((g > 1.5) ? 1.5 : g);
                base = base * g;
            }
            qos_out[r] = (0.0 > base) ? 0.0 : base;
        }
        read_row(&big, r, big_busy, zr + big_off);
        read_row(&little, r, little_busy, zr + little_off);
        big_busy_out[r] = big_busy;
        little_busy_out[r] = little_busy;
        if (chip) chip[r] = big.power[r] + little.power[r];
    }
}

/* One OPPTable snap per row: searchsorted(side='left') as a binary
 * search, then the same clamp-at-rails and
 * prefer-the-lower-point-on-ties float compares as snap_indices.
 * Arguments: N, f, freqs, nfreq, out. */
void opp_snap(const arg *a)
{
    const i64 N = a[0].i, nfreq = a[3].i;
    const double *f = a[1].p, *freqs = a[2].p;
    i64 *out = a[4].p;
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

#ifdef REPRO_NOISE_FILL
#include <stdint.h>

/* numpy's C API for extending numpy.random: the bit generator handle
 * (numpy/random/bitgen.h; opaque here, only its address crosses) and
 * the fill loop of Generator.standard_normal, from the static
 * libnpyrandom.a linked into this object.  npy_intp is intptr_t. */
typedef struct bitgen bitgen_t;
void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt,
                                 double *out);

/* One noise refill per row: count standard normals into row r of out
 * (rows count doubles apart) from row r's own bit generator, the one
 * call Generator.standard_normal(out=row) makes, so the values and the
 * state each generator is left in are numpy's.  No generator lock is
 * taken: the caller owns its generators.  Arguments: N, bitgens (N
 * bitgen_t pointers), out, count. */
void noise_fill(const arg *a)
{
    const i64 N = a[0].i, count = a[3].i;
    bitgen_t *const *bitgens = a[1].p;
    double *out = a[2].p;
    i64 r;
    for (r = 0; r < N; ++r)
        random_standard_normal_fill(bitgens[r], (intptr_t)count,
                                    out + r * count);
}
#endif
"""


# -march=native lets rint() compile to the hardware rounding
# instruction instead of a libm call; -ffp-contract=off still forbids
# the compiler from contracting or reordering anything we did not write
# explicitly.
# Compilation happens on the machine that runs the kernel, so native
# targeting is safe; the flags are part of the cache key.
_CFLAGS = (
    "-O2",
    "-march=native",
    "-fPIC",
    "-shared",
    # Forbid implicit mul+add contraction: every product and every sum
    # rounds on its own, as in the numpy references.
    "-ffp-contract=off",
    # rint never touches errno; dropping errno bookkeeping lets gcc
    # inline it to a single instruction without changing any result.
    "-fno-math-errno",
)


def _npyrandom_archive() -> str:
    """Path of numpy's static ``numpy.random`` C library, which ships
    ``random_standard_normal_fill`` for extension code to link."""
    return os.path.join(
        os.path.dirname(np.random.__file__), "lib", "libnpyrandom.a"
    )


def _object_path(source: str, archive: str | None) -> str:
    """The cached shared object for ``source``, linked with ``archive``
    (numpy's ``libnpyrandom.a``) or without it.

    The key covers the source, the flags and the archive's identity —
    the numpy version and the archive's sha256: numpy's ``Generator``
    streams may change between versions, and the archive is linked
    statically, so an object built against an older one would keep its
    algorithm.
    """
    identity = "no archive"
    if archive is not None:
        with open(archive, "rb") as handle:
            archive_digest = hashlib.sha256(handle.read()).hexdigest()
        identity = f"numpy {np.__version__} {archive_digest}"
    key = "\x00".join([source, " ".join(_CFLAGS), identity])
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join(tempfile.gettempdir(), f"repro-fused-{digest}.so")


def _compile(source: str, archive: str | None = None):
    """Build ``source`` into a cached shared object and load it; with
    ``archive``, the noise refill is compiled in and the archive linked
    statically."""
    so_path = _object_path(source, archive)
    if not os.path.exists(so_path):
        # Source and object are per-process: concurrent first builds in
        # one temp dir must not truncate each other's input.  The
        # atomic rename publishes whichever finishes first.
        build_path = so_path + f".build-{os.getpid()}"
        c_path = build_path + ".c"
        # The archive follows the source that calls into it.
        link = [] if archive is None else ["-DREPRO_NOISE_FILL", archive]
        try:
            with open(c_path, "w", encoding="utf-8") as handle:
                handle.write(source)
            subprocess.run(
                ["cc", *_CFLAGS, c_path, *link, "-o", build_path, "-lm"],
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
    """ctypes binding of the compiled per-row kernels.

    ``servo_step``, ``telemetry``, ``plant_tick``, ``snap`` and
    ``noise_fill`` each take the address of an argument block
    (:func:`arg_block`) and nothing else.  ``noise_fill`` is ``None`` when the object was built without
    the refill or its load-time probe failed; ``noise_reason`` then
    says why (see :func:`noise_fill_reason`).
    """

    def __init__(self, lib, noise_gap: str | None = None) -> None:
        step = lib.fused_servo_step
        step.restype = None
        step.argtypes = [ctypes.c_void_p]
        self.servo_step = step
        telemetry = lib.fleet_telemetry
        telemetry.restype = None
        telemetry.argtypes = [ctypes.c_void_p]
        self.telemetry = telemetry
        snap = lib.opp_snap
        snap.restype = None
        snap.argtypes = [ctypes.c_void_p]
        self.snap = snap
        tick = lib.plant_tick
        tick.restype = None
        tick.argtypes = [ctypes.c_void_p]
        self.plant_tick = tick
        # ``noise_gap`` says why ``lib`` was built without the refill.
        self.noise_fill = None
        self.noise_reason = noise_gap
        if noise_gap is None:
            fill = lib.noise_fill
            fill.restype = None
            fill.argtypes = [ctypes.c_void_p]
            self.noise_fill = fill

    @staticmethod
    def fits(n: int, m: int, p: int) -> bool:
        return max(n, m, p) <= _MAX_DIM


def arg_block(values) -> np.ndarray:
    # repro: shape[-> (k,) i8]
    """A kernel call's argument block: one 8-byte C ``arg`` slot per
    value.

    A Python ``float`` fills a ``double`` slot; any other value (an int,
    a bool, a raw address) fills an ``i64`` or pointer slot.  The block
    is an int64 array: pass ``block.ctypes.data`` to the kernel, and
    rewrite a per-call slot with ``block[i] = address``.  Addresses in
    it stay valid only while the arrays they point into keep their
    identity.
    """
    layout = "".join("d" if isinstance(v, float) else "q" for v in values)
    return np.frombuffer(
        bytearray(struct.pack(f"={layout}", *values)), dtype=np.int64
    )


# Python's PyCapsule_GetPointer, bound privately (the shared
# ``ctypes.pythonapi`` attribute keeps its own signature).  It holds the
# GIL, as the Python C API requires.
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
)(("PyCapsule_GetPointer", ctypes.pythonapi))


def bitgen_table(generators) -> np.ndarray:
    # repro: shape[-> (N,) i8]
    """Each generator's ``bitgen_t *``, as an int64 address per row.

    numpy publishes it as the ``"BitGenerator"`` capsule of
    ``Generator.bit_generator`` — its C API for extending
    ``numpy.random``.  An address stays valid only while its generator
    lives: the caller must keep the generators.
    """
    return np.array(
        [
            _capsule_pointer(rng.bit_generator.capsule, b"BitGenerator")
            for rng in generators
        ],
        dtype=np.int64,
    )


def noise_block(bitgens: np.ndarray, out: np.ndarray) -> np.ndarray:
    # repro: shape[bitgens: (N,) i8; out: (N, w) f8; -> (k,) i8]
    """The argument block of ``noise_fill``: one refill of every row of
    the C-contiguous ``out`` from the generator at the same row of
    :func:`bitgen_table`'s ``bitgens``.  Valid while both arrays keep
    their identity and the generators live."""
    if not (
        out.ndim == 2
        and out.dtype == np.float64
        and out.flags.c_contiguous
        and bitgens.dtype == np.int64
        and bitgens.shape == out.shape[:1]
    ):
        raise ValueError(
            "noise_fill needs a C-contiguous (N, k) float64 buffer and "
            "N int64 bitgen addresses"
        )
    rows, count = out.shape
    return arg_block([rows, bitgens.ctypes.data, out.ctypes.data, count])


def telemetry_args(
    tables,
    rows: int,
    *,
    active: int,
    opp: int,
    power_out: int,
    ips_out: int,
    bce: int = 0,
    z: int = 0,
    z_stride: int = 0,
    per_core_out: int = 0,
) -> list:
    """``fleet_telemetry``'s arguments for ``rows`` rows of one cluster.

    The keyword arguments are raw addresses (``z_stride`` in doubles);
    ``per_core_out`` 0 passes NULL, and ``bce``, ``z`` and ``z_stride`` may
    be left 0 for a block that only ``plant_tick`` reads.  ``tables``
    supplies the per-OPP tables and per-sensor rows
    (``soc.SensorTables``, or a ``FleetCluster``, which holds the same
    attributes).
    """
    return [
        rows,
        tables.noise_row.size - 1,
        active,
        opp,
        bce,
        z,
        z_stride,
        tables.dynamic_table.ctypes.data,
        tables.leakage_table.ctypes.data,
        tables.core_rate_table.ctypes.data,
        float(tables.idle_core_fraction),
        float(tables.uncore_power),
        tables.noise_row.ctypes.data,
        tables.res_mask_i8.ctypes.data,
        tables.safe_res_row.ctypes.data,
        tables.floor_row.ctypes.data,
        1 if tables.any_resolution else 0,
        power_out,
        ips_out,
        per_core_out,
    ]


# ``plant_tick``'s QoS modes: no workload, a noise-free workload, a
# noise gain 1 + variability * z from a standard-normal draw (the
# fleet's pre-drawn column), or the drawn gain itself (the scalar SoC's
# ``rng.normal(1, variability)``).
QOS_NONE, QOS_QUIET, QOS_STANDARD_NORMAL, QOS_DRAWN_GAIN = 0, 1, 2, 3

# Slot of ``plant_tick``'s argument block a fleet call rewrites.
TICK_Z = 9


def plant_tick_args(
    rows: int,
    *,
    qos_mode: int,
    variability: float,
    threads: float,
    parallel_fraction: float,
    current_fraction: int,
    peak_rate_table: int,
    big_demand: int,
    little_demand: int,
    z: int,
    z_stride: int,
    big_offset: int,
    little_offset: int,
    big_telemetry: int,
    little_telemetry: int,
    qos_out: int,
    big_busy_out: int,
    little_busy_out: int,
    chip_out: int = 0,
) -> list:
    """``plant_tick``'s arguments for ``rows`` rows.

    Every keyword but the first four, ``z_stride`` and the offsets is a
    raw address: ``current_fraction`` of the one current parallel
    fraction (``parallel_fraction`` is the workload's nominal one),
    ``peak_rate_table`` of the Big cluster's per-OPP
    ``peak_rate * frequency_scale``, the two demand rows, the noise
    ``z`` (rows ``z_stride`` doubles apart, the QoS draw in column 0
    and each cluster's draws from its offset), each cluster's
    ``fleet_telemetry`` argument block (:func:`telemetry_args`; its
    bce, z and stride slots are not read) and the outputs.
    ``chip_out`` 0 passes NULL.  ``qos_mode`` is one of the ``QOS_*``
    codes.
    """
    return [
        rows,
        qos_mode,
        float(variability),
        float(threads),
        float(parallel_fraction),
        current_fraction,
        peak_rate_table,
        big_demand,
        little_demand,
        z,
        z_stride,
        big_offset,
        little_offset,
        big_telemetry,
        little_telemetry,
        qos_out,
        big_busy_out,
        little_busy_out,
        chip_out,
    ]


# The gain matrices the servo kernel reduces, in its gain_pack order;
# the integral mask follows them.
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
    and ``integral_mask``) and ``row``, the set's ``(1, 9)`` row of the
    kernel's gain-pack table (at ``row_address``, so a single-row servo
    switches gain sets by pointing its argument block at it).  Both
    numpy reference steps read the same matrices.  ``key`` is the set's
    content, for the servos' probe memos.

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
        self.row = np.array(  # repro: shape[(1, 9) i8]
            [[part.ctypes.data for part in [*matrices, self.integral_mask]]],
            dtype=np.int64,
        )
        self.row_address = self.row.ctypes.data


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


# Slots of ``fused_servo_step``'s argument block that hold ``Y`` and
# the gain-pack table.
SERVO_Y, SERVO_PACKS = 4, 11


def servo_block(
    rows: int,
    dims,
    Y,
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
) -> np.ndarray:
    """The argument block of ``fused_servo_step`` for ``rows`` rows.

    Row-major ``(N, ·)`` state buffers (a length-k vector is one
    ``(1, k)`` row), the ``(G, 9)`` gain-pack table and the ``(N,)``
    int8 gain ids, then the operating point and limits.  ``Y`` may be
    ``None`` for a caller that writes slot :data:`SERVO_Y` per call.
    The addresses stay valid only while every buffer is updated in
    place; a caller that replaces one must rebuild the block.
    """
    op = operating_point
    if limits.max_step is None:
        step_ptr, has_step = limits.lower.ctypes.data, 0
    else:
        step_ptr, has_step = limits.max_step.ctypes.data, 1
    return arg_block(
        [
            rows,
            *dims,
            0 if Y is None else Y.ctypes.data,
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
        ]
    )


# Verdicts each probe memo keeps; content past it is probed on every bind.
_MEMO_SIZE = 256


def probe_verdict(memo: dict, key, probe) -> tuple:
    """A differential probe's verdict on content ``key``, memoized in
    ``memo``: ``(value, reason)``.

    ``probe()`` returns ``(value, matches)``: whatever the caller builds
    on the way and keeps with the verdict (``None`` if nothing), and
    whether the kernel reproduced its reference bit for bit.  ``reason``
    is ``None`` on a match, ``"differential probe mismatch"`` otherwise,
    or ``"probe raised <Type>: <msg>"`` (value ``None``) when the probe
    raised.  Probes are deterministic in their key, so a verdict is
    computed once per content, up to the first 256 contents.
    """
    entry = memo.get(key)
    if entry is None:
        try:
            value, matches = probe()
            entry = (value, None if matches else "differential probe mismatch")
        except Exception as exc:
            entry = (None, f"probe raised {type(exc).__name__}: {exc}")
        if len(memo) < _MEMO_SIZE:
            memo[key] = entry
    return entry


# Seeds of the refill's load-time probe: small, mid and past 2**63.
_NOISE_PROBE_SEEDS = (0, 2018, 2**63 + 1, 2**128 - 3)


def _probe_noise_fill(kernel: FusedKernel) -> str | None:
    """Differential gate for ``noise_fill``: refills generators of a
    few seeds twice and requires every value, and each generator's next
    draw, to equal ``Generator.standard_normal`` on twins of the same
    seeds.  Returns ``None`` on a match, else why not."""
    count = 37
    try:
        fast = [np.random.default_rng(seed) for seed in _NOISE_PROBE_SEEDS]
        slow = [np.random.default_rng(seed) for seed in _NOISE_PROBE_SEEDS]
        out = np.empty((len(fast), count))
        bitgens = bitgen_table(fast)
        block = noise_block(bitgens, out)
        for _ in range(2):
            kernel.noise_fill(block.ctypes.data)
            for row, rng in zip(out, slow):
                if not np.array_equal(row, rng.standard_normal(count)):
                    return "differential probe mismatch"
        for a, b in zip(fast, slow):
            if a.standard_normal() != b.standard_normal():
                return "differential probe mismatch"
    except Exception as exc:
        return f"probe raised {type(exc).__name__}: {exc}"
    return None


def _describe(error: Exception) -> str:
    # A failed compile carries the compiler's diagnostics in stderr.
    stderr = getattr(error, "stderr", None) or b""
    return f"{error} {stderr.decode(errors='replace')}".strip()


def _load() -> FusedKernel:
    """Build and bind the kernels, with the noise refill when numpy's
    random archive is there, builds and passes its probe.  The servo,
    telemetry and snap kernels never depend on the archive: without it
    they build alone and only the refill falls back."""
    archive = _npyrandom_archive()
    if not os.path.exists(archive):
        gap = f"no numpy random archive: {archive} not found"
        return FusedKernel(_compile(_C_SOURCE), gap)
    try:
        kernel = FusedKernel(_compile(_C_SOURCE, archive))
    except Exception as error:
        gap = f"refill build failed: {_describe(error)}"
        return FusedKernel(_compile(_C_SOURCE), gap)
    kernel.noise_reason = _probe_noise_fill(kernel)
    if kernel.noise_reason is not None:
        kernel.noise_fill = None
    return kernel


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
        _KERNEL = _load()
    except Exception as error:
        _KERNEL = None
        _UNAVAILABLE = f"no kernel: {_describe(error)}"
    return _KERNEL


def unavailable_reason() -> str | None:
    """Why :func:`fused_kernel` returned ``None`` (``None`` when it did
    not): ``"disabled"`` under ``REPRO_DISABLE_FUSED``, otherwise
    ``"no kernel: ..."`` with the build error text."""
    fused_kernel()
    return _UNAVAILABLE


def noise_fill_reason() -> str | None:
    """Why the compiled noise refill does not run (``None`` when it
    does): the kernel's :func:`unavailable_reason`, ``"no numpy random
    archive: <path> not found"``, ``"refill build failed: ..."``,
    ``"differential probe mismatch"`` or ``"probe raised ..."``."""
    kernel = fused_kernel()
    if kernel is None:
        return _UNAVAILABLE
    return kernel.noise_reason
