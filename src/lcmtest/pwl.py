"""Exact geometry of empirical CDFs and sampled paths on [0, 1].

One hull algorithm serves every caller: weighted antitonic regression of
segment slopes (pool-adjacent-violators).

* An empirical CDF is held as its corner points ``(px, py)``, two sorted
  arrays.  Every vertex of its least concave majorant (LCM) is a corner, so
  :func:`hull_vertices` only picks corners, and :func:`corner_gaps` gives
  the gap ``LCM - ECDF`` at both ends of each interval between corners.
* A sampled path gets its hull value at every grid point from the fitted
  slopes, in :func:`lcm_gap_on_grid`, for the pathwise coupling verifiers.

All L^p norms are evaluated exactly: on each segment the integrand is a
power of an affine ramp, for which the antiderivative is closed-form.
Quadrature never enters.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import isotonic_regression

#: Absolute slack for internal majorization checks.  The geometry is exact up
#: to float rounding, so anything past this indicates a bug, not noise.
MAJORIZATION_TOL = 1e-12

_SLOPE_TOL = 1e-12


class GeometryError(ValueError):
    """An internal geometric invariant failed; indicates an upstream bug."""


def as_sorted_array(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        raise ValueError(f"{name} must be strictly increasing")
    return arr


def ecdf_corners(samples) -> tuple[np.ndarray, np.ndarray]:
    """Corner points ``(px, py)`` of the empirical CDF of a sample in [0, 1].

    ``px`` holds the distinct observations and ``py`` the ECDF's value at
    each, ending at exactly 1; ties merge into one corner carrying their
    joint mass.  The origin leads unless there is mass at 0.  Values outside
    [0, 1] are rejected rather than clipped: they signal data the test does
    not cover.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("sample must be a nonempty 1-d collection")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    if arr.min() < 0.0 or arr.max() > 1.0:
        bad = arr[(arr < 0.0) | (arr > 1.0)][0]
        raise ValueError(f"sample value {bad!r} outside [0, 1]")
    if arr.max() == 0.0:
        raise ValueError("all observations are zero; the ECDF is degenerate")
    xs, counts = np.unique(arr, return_counts=True)
    vs = np.cumsum(counts) / arr.size
    vs[-1] = 1.0
    if xs[0] > 0.0:
        return np.concatenate(([0.0], xs)), np.concatenate(([0.0], vs))
    # A jump at zero lifts the anchor: the majorant starts at the post-jump
    # value, not at the origin.
    return xs, vs


def hull_vertices(px, py) -> np.ndarray:
    """Indices of the points on the upper concave hull, first and last included.

    ``px`` must be strictly increasing.  Blocks of pooled slopes are the
    hull's segments and their ends its vertices; equal adjacent slopes pool,
    so collinear points drop out.  Scaling the spacings by 2**600 is exact
    and keeps slopes over subnormal spacings finite; as infinities they
    would compare equal and pool.

    Pooled means are rounded, so two blocks on one line can miss pooling;
    the slopes between the chosen vertices themselves are checked, and a
    vertex where they fail to fall strictly is dropped.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    dx = np.ldexp(np.diff(px), 600)
    idx = isotonic_regression(np.diff(py) / dx, weights=dx, increasing=False).blocks
    slopes = np.diff(py[idx]) / np.ldexp(np.diff(px[idx]), 600)
    if np.all(np.diff(slopes) < 0.0):
        return idx
    return _strictly_concave(px, py, idx)


def _strictly_concave(px, py, idx) -> np.ndarray:
    """Drop vertices of ``idx`` until the slopes between them fall strictly."""

    def slope(a, b):
        return (py[b] - py[a]) / np.ldexp(px[b] - px[a], 600)

    kept = [int(idx[0])]
    for v in idx[1:]:
        v = int(v)
        while len(kept) > 1 and slope(kept[-2], kept[-1]) <= slope(kept[-1], v):
            kept.pop()
        kept.append(v)
    return np.asarray(kept, dtype=idx.dtype)


def corner_gaps(px, py, idx) -> tuple[np.ndarray, np.ndarray]:
    """Gap ``hull - ECDF`` at both ends of each interval ``[px[j], px[j+1])``.

    The hull runs through the corners ``idx``; the ECDF equals ``py[j]`` on
    the interval, so the gap is an affine ramp from ``v_lo[j]`` to
    ``v_hi[j]``.  A gap below ``-MAJORIZATION_TOL`` raises
    :class:`GeometryError`; smaller negative dust is clamped to zero.
    """
    hull = np.interp(px, px[idx], py[idx])
    v_lo = hull[:-1] - py[:-1]
    v_hi = hull[1:] - py[:-1]
    worst = min(float(v_lo.min()), float(v_hi.min()))
    if worst < -MAJORIZATION_TOL:
        raise GeometryError(f"majorization violated by {-worst:.3e} at a corner")
    return np.maximum(v_lo, 0.0), np.maximum(v_hi, 0.0)


def ramp_pow_integrals(v_lo, v_hi, lengths, p: float) -> np.ndarray:
    """Exact integral of ``ramp(t)**p`` per segment.

    Each segment carries an affine ramp running from ``v_lo`` to ``v_hi``
    (both nonnegative) over ``lengths``.  Integer ``p`` uses the geometric
    identity ``(b^{p+1}-a^{p+1})/(b-a) = sum a^i b^{p-i}``, which has no
    removable singularity; non-integer ``p`` uses the closed-form
    antiderivative with a midpoint fallback when the endpoints nearly agree.
    """
    v_lo = np.asarray(v_lo, dtype=np.float64)
    v_hi = np.asarray(v_hi, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.float64)
    if p < 1.0:
        raise ValueError("norm index p must be at least 1")
    k = int(round(p))
    if p == k:
        # lo_pows[i] = v_lo**(i+1), likewise hi_pows; acc = hi^k + lo hi^(k-1)
        # + ... + lo^k, summed in that order.
        lo_pows = [v_lo]
        hi_pows = [v_hi]
        for _ in range(k - 1):
            lo_pows.append(lo_pows[-1] * v_lo)
            hi_pows.append(hi_pows[-1] * v_hi)
        acc = hi_pows[-1].copy()
        for i in range(1, k):
            acc += lo_pows[i - 1] * hi_pows[k - i - 1]
        acc += lo_pows[-1]
        return lengths * acc / (k + 1)
    gap = v_hi - v_lo
    near = np.abs(gap) <= 1e-9 * np.maximum(v_lo, v_hi)
    den = np.where(near, 1.0, gap) * (p + 1.0)
    exact = (np.power(v_hi, p + 1.0) - np.power(v_lo, p + 1.0)) / den
    mid = np.power(0.5 * (v_lo + v_hi), p)
    return lengths * np.where(near, mid, exact)


# -- Fast grid route -----------------------------------------------------------
#
# Hull values at every grid point via weighted antitonic regression of the
# segment slopes (the classical majorant/isotonic duality).  The chord from
# the first to the last grid point is removed first: the majorant gap is
# invariant under affine shifts, and removing the chord makes the identity
# gap(W) == gap(W - chord) hold to the bit, not just to rounding.


def lcm_gap_on_grid(grid, values) -> np.ndarray:
    """Gap ``LCM(path) - path`` at every grid point of a sampled path.

    ``values`` is one path, or a 2-d array with one path per row, all on
    ``grid``; the gap has its shape.  Each row's gap is bit-for-bit what the
    row alone would give.
    """
    grid = as_sorted_array(grid, "grid")
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim not in (1, 2) or values.shape[-1] != grid.size:
        raise ValueError("grid and values differ in length")
    if grid.size < 2:
        raise ValueError("need at least two grid points")

    rows = values.reshape(-1, grid.size)
    chord_slope = (rows[:, -1] - rows[:, 0]) / (grid[-1] - grid[0])
    yc = (rows - rows[:, :1]) - (grid - grid[0]) * chord_slope[:, None]
    dx = np.diff(grid)
    s = np.diff(yc, axis=1) / dx
    # Concave up to slope dust: the path is its own majorant.  The tolerance
    # scales with the original slopes (canonical + chord), so an affine path
    # whose rounded values wiggle at the last bit still maps to a zero gap.
    slope_dust = _SLOPE_TOL * (1.0 + np.abs(chord_slope) + np.max(np.abs(s), axis=1))
    bent = np.flatnonzero(~np.all(np.diff(s, axis=1) <= slope_dust[:, None], axis=1))
    gap = np.zeros_like(yc)
    if bent.size:
        yb = yc[bent]
        hull = np.empty_like(yb)
        hull[:, 0] = yb[:, 0]
        fitted = np.empty((bent.size, dx.size))
        for j, r in enumerate(bent.tolist()):
            fitted[j] = isotonic_regression(s[r], weights=dx, increasing=False).x
        np.cumsum(fitted * dx, axis=1, out=hull[:, 1:])
        hull -= yb
        worst = hull.min(axis=1)
        low = worst < -1e-9 * np.maximum(1.0, np.max(np.abs(yb), axis=1))
        if low.any():
            raise GeometryError(f"hull fell below the path by {-float(worst[low].min()):.3e}")
        np.maximum(hull, 0.0, out=hull)
        gap[bent] = hull
    return gap.reshape(values.shape)


def pow_integral_from_gaps(grid, gaps, p: float):
    """Exact ``integral gap(t)**p dt`` for a gap sampled on ``grid``: a
    float for one gap, an array with one integral per row for a 2-d ``gaps``."""
    lengths = np.diff(np.asarray(grid, dtype=np.float64))
    gaps = np.asarray(gaps, dtype=np.float64)
    out = np.sum(ramp_pow_integrals(gaps[..., :-1], gaps[..., 1:], lengths, p), axis=-1)
    return float(out) if out.ndim == 0 else out


def gap_pow_integral(grid, values, p: float):
    """Exact ``integral (LCM(path) - path)**p`` over the grid span, per row
    for a 2-d ``values``."""
    return pow_integral_from_gaps(grid, lcm_gap_on_grid(grid, values), p)
