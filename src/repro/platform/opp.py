"""Operating performance points (DVFS tables) for the simulated SoC.

Frequency/voltage pairs modelled after the Exynos 5422 used on the
ODROID-XU3: the "Big" Cortex-A15 cluster scales 200 MHz - 2.0 GHz, the
"Little" Cortex-A7 cluster 200 MHz - 1.4 GHz, both in 100 MHz steps with
the voltage rising roughly linearly across the range.  DVFS is applied
per cluster (footnote 4 of the paper: the platform "provides only
per-cluster power sensors and DVFS").
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.control.fused import arg_block, fused_kernel


@dataclass(frozen=True)
class OPP:
    """One operating point: frequency in GHz, supply voltage in volts."""

    frequency_ghz: float
    voltage_v: float

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0 or self.voltage_v <= 0:
            raise ValueError("OPP entries must be positive")


class OPPTable:
    """An ordered, immutable DVFS table with snapping and interpolation."""

    # Bound on the request-keyed snap memo.  Requests at the actuator
    # rails (saturated controllers re-requesting min/max frequency every
    # interval) and re-snaps of already-snapped values dominate the hot
    # path, so even a small memo absorbs most lookups; once full, new
    # keys fall through to the bisection without being cached.
    SNAP_CACHE_LIMIT = 4096

    def __init__(self, points: list[OPP], name: str = "opp") -> None:
        if not points:
            raise ValueError("OPP table must be non-empty")
        ordered = sorted(points, key=lambda p: p.frequency_ghz)
        freqs = [p.frequency_ghz for p in ordered]
        if len(set(freqs)) != len(freqs):
            raise ValueError("duplicate frequencies in OPP table")
        volts = [p.voltage_v for p in ordered]
        if any(b < a for a, b in zip(volts, volts[1:])):
            raise ValueError("voltage must be non-decreasing with frequency")
        self.name = name
        self._points = tuple(ordered)
        self._freqs = tuple(freqs)
        self._snap_cache: dict[float, OPP] = {}
        # Array mirrors of the table columns for the vectorized snap
        # (repro.platform.fleet).  Built from the exact same Python
        # floats as the scalar tuple, so indexed lookups are bit-equal.
        self._freqs_array = np.array(freqs, dtype=float)
        self._volts_array = np.array(volts, dtype=float)
        # Compiled-snap handle, resolved lazily on the first vectorized
        # snap (None until probed; stays None if the probe fails).
        self._snap_kernel = None
        self._snap_probed = False
        # opp_snap's argument block (built with the kernel): N, f and
        # out are written per call.
        self._snap_block = None
        self._snap_address = 0

    @property
    def points(self) -> tuple[OPP, ...]:
        return self._points

    @property
    def min_frequency(self) -> float:
        return self._freqs[0]

    @property
    def max_frequency(self) -> float:
        return self._freqs[-1]

    @property
    def frequencies(self) -> tuple[float, ...]:
        return self._freqs

    def snap(self, frequency_ghz: float) -> OPP:
        """Nearest valid operating point to a requested frequency.

        Requests outside the table clamp to the extremes — this is the
        actuator-saturation behaviour the controllers experience.
        """
        f = float(frequency_ghz)
        if f != f:  # NaN: bisect and searchsorted disagree on NaN placement
            raise ValueError(f"cannot snap NaN frequency on table {self.name!r}")
        cached = self._snap_cache.get(f)
        if cached is not None:
            return cached
        if f <= self._freqs[0]:
            opp = self._points[0]
        elif f >= self._freqs[-1]:
            opp = self._points[-1]
        else:
            index = bisect_left(self._freqs, f)
            below, above = self._points[index - 1], self._points[index]
            if f - below.frequency_ghz <= above.frequency_ghz - f:
                opp = below
            else:
                opp = above
        if len(self._snap_cache) < self.SNAP_CACHE_LIMIT:
            self._snap_cache[f] = opp
        return opp

    def voltage_for(self, frequency_ghz: float) -> float:
        """Voltage of the snapped operating point."""
        return self.snap(frequency_ghz).voltage_v

    @property
    def frequency_array(self):
        """Table frequencies as a float array (read-only by convention)."""
        return self._freqs_array

    @property
    def voltage_array(self):
        """Table voltages as a float array (read-only by convention)."""
        return self._volts_array

    def snap_indices(self, requests, out=None):
        """Vectorized `snap`: table indices for an array of requests.

        Bit-equivalent to calling :meth:`snap` per element — the same
        clamp-at-rails and prefer-the-lower-point-on-ties comparisons are
        evaluated with the same IEEE doubles.  NaN requests raise, as in
        the scalar path.  ``out`` (int64, same length) receives the
        indices when given — required for the compiled single-sweep
        snap, which is used only after a construction-time probe shows
        it reproduces the numpy formulation index-for-index.
        """
        f = np.asarray(requests, dtype=float)
        if np.isnan(f).any():
            raise ValueError(f"cannot snap NaN frequency on table {self.name!r}")
        last = len(self._freqs) - 1
        if (
            out is not None
            and last > 0
            and f.ndim == 1
            and out.shape == f.shape
            and out.dtype == np.int64
        ):
            kernel = self._resolve_snap_kernel()
            if kernel is not None:
                if not f.flags.c_contiguous:
                    f = np.ascontiguousarray(f)
                self._snap_compiled(kernel, f, out)
                return out
        chosen = self._snap_indices_numpy(f)
        if out is not None and out.shape == chosen.shape:
            out[...] = chosen
            return out
        return chosen

    def _snap_indices_numpy(self, f: np.ndarray):
        freqs = self._freqs_array
        last = len(self._freqs) - 1
        if last == 0:
            return np.full(f.shape, 0)
        index = np.searchsorted(freqs, f, side="left")
        hi = np.minimum(np.maximum(index, 1), last)
        below = freqs[hi - 1]
        above = freqs[hi]
        chosen = np.where(f - below <= above - f, hi - 1, hi)
        chosen = np.where(f <= freqs[0], 0, chosen)
        chosen = np.where(f >= freqs[last], last, chosen)
        return chosen

    def _snap_compiled(self, kernel, f: np.ndarray, out: np.ndarray) -> None:
        block = self._snap_block
        block[0] = f.size
        block[1] = f.ctypes.data
        block[4] = out.ctypes.data
        kernel.snap(self._snap_address)

    def _resolve_snap_kernel(self):
        """Probe-gated compiled snap (None when unavailable or inexact).

        The probe sweeps random requests plus every table frequency,
        every midpoint (the tie cases) and both rails, and accepts the
        kernel only on index-for-index agreement with the numpy path.
        """
        if self._snap_probed:
            return self._snap_kernel
        self._snap_probed = True
        kernel = fused_kernel()
        if kernel is None:
            return None
        freqs = self._freqs_array
        self._snap_block = arg_block([0, 0, freqs.ctypes.data, freqs.size, 0])
        self._snap_address = self._snap_block.ctypes.data
        rng = np.random.default_rng(0x59A9)
        probe = np.concatenate(
            [
                rng.uniform(freqs[0] - 1.0, freqs[-1] + 1.0, 4096),
                freqs,
                (freqs[:-1] + freqs[1:]) / 2.0,
                [freqs[0] - 0.5, freqs[-1] + 0.5],
            ]
        )
        reference = self._snap_indices_numpy(probe)
        fast = np.empty(probe.shape, dtype=np.int64)
        try:
            self._snap_compiled(kernel, np.ascontiguousarray(probe), fast)
        except Exception:
            return None
        if np.array_equal(reference, fast):
            self._snap_kernel = kernel
        return self._snap_kernel

    def __len__(self) -> int:
        return len(self._points)


def _linear_table(
    f_min: float, f_max: float, v_min: float, v_max: float, step: float, name: str
) -> OPPTable:
    points = []
    f = f_min
    while f <= f_max + 1e-9:
        fraction = (f - f_min) / (f_max - f_min) if f_max > f_min else 0.0
        points.append(OPP(round(f, 3), round(v_min + fraction * (v_max - v_min), 4)))
        f += step
    return OPPTable(points, name=name)


def big_cluster_opps() -> OPPTable:
    """Cortex-A15-like table: 200 MHz @ 0.90 V up to 2.0 GHz @ 1.3625 V."""
    return _linear_table(0.2, 2.0, 0.90, 1.3625, 0.1, "big-a15")


def little_cluster_opps() -> OPPTable:
    """Cortex-A7-like table: 200 MHz @ 0.90 V up to 1.4 GHz @ 1.25 V."""
    return _linear_table(0.2, 1.4, 0.90, 1.25, 0.1, "little-a7")
