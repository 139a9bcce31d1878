"""The two pathwise couplings behind least favourability, on sampled Wiener
paths: the one module that knows about grids.  It builds grids, samples
Wiener paths, takes a sampled path's majorant gap at every grid point, and
checks the interval rescaling identity and the dominance coupling path by
path.  Each verifier takes a seed and a path count, checks its own inputs,
builds the CDF's intervals and its grids once per call, and runs the paths
in passes of at most ``_POINTS_PER_PASS`` grid points, one matrix with a
path per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models, pwl
from .streams import generator, substream

#: Pathwise coupling identities hold up to float accumulation only; a gap
#: beyond this is a bug, not discretization error.
COUPLING_TOL = 1e-9

_GRID_MERGE_TOL = 1e-12
_SLOPE_TOL = 1e-12
_LENGTH_TOL = 1e-12  # slack on the total of the coupling lengths
#: Grid points in one pass of a verifier, a matrix of as many paths as fit.
_POINTS_PER_PASS = 2**16


def as_sorted_array(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        raise ValueError(f"{name} must be strictly increasing")
    return arr


def uniform_grid(size: int) -> np.ndarray:
    """Uniform grid with ``size`` subintervals: j / size for j = 0 .. size."""
    if size < 1:
        raise ValueError("grid size must be positive")
    return np.arange(size + 1, dtype=np.float64) / size


def sample_wiener(grid, streams) -> np.ndarray:
    """Wiener paths at the grid points, one row per stream of ``streams``:
    W(0) = 0, independent Gaussian increments with variance equal to the
    time step.  Row i is deterministic given ``streams[i]`` and does not
    depend on the other streams.  The grid must be strictly increasing from
    0 to 1."""
    grid = as_sorted_array(grid, "grid")
    if grid.size < 2 or grid[0] != 0.0 or grid[-1] != 1.0:
        raise ValueError("grid must span [0, 1] with 0 and 1 as grid points")
    values = np.zeros((len(streams), grid.size))
    for stream, row in zip(streams, values):
        generator(stream).standard_normal(out=row[1:])
    values[:, 1:] *= np.sqrt(np.diff(grid))
    np.cumsum(values[:, 1:], axis=1, out=values[:, 1:])
    return values


# -- The grid hull ----------------------------------------------------------------
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
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (1, 2) or values.shape[-1] != grid.size:
        raise ValueError("grid and values differ in length")
    if grid.size < 2:
        raise ValueError("need at least two grid points")

    rows = values.reshape(-1, grid.size)  # a view is read where it lies, not copied
    chord_slope = (rows[:, -1] - rows[:, 0]) / (grid[-1] - grid[0])
    yc = rows - rows[:, :1]
    hull = (grid - grid[0]) * chord_slope[:, None]  # the chord, then the rises, then the hull
    yc -= hull
    dx = np.diff(grid)
    s = np.diff(yc, axis=1)
    s /= dx
    # Concave up to slope dust: the path is its own majorant.  The tolerance scales with the
    # original slopes (canonical + chord), so an affine path whose rounded values wiggle at the
    # last bit still maps to a zero gap.  A NaN bends its row; a two-point grid bends none.
    slope_dust = _SLOPE_TOL * (1.0 + np.abs(chord_slope) + np.maximum(s.max(axis=1), -s.min(axis=1)))
    rise = np.subtract(s[:, 1:], s[:, :-1], out=hull[:, 2:])
    bent = ~(rise.max(axis=1, initial=-np.inf) <= slope_dust) & (grid.size > 2)
    if not bent.all():  # rows are independent, so the bent ones alone give the same gaps
        gap = np.zeros(rows.shape)
        gap[bent] = lcm_gap_on_grid(grid, rows[bent])
        return gap.reshape(values.shape)
    hull[:, 0] = yc[:, 0]  # every Wiener path is bent: this array becomes the gap
    fit = pwl._pava(s, dx)[0]
    np.cumsum(np.multiply(fit, dx, out=fit), axis=1, out=hull[:, 1:])
    hull -= yc
    worst = hull.min(axis=1)
    low = worst < -1e-9 * np.maximum(1.0, np.maximum(yc.max(axis=1), -yc.min(axis=1)))
    if low.any():
        raise pwl.GeometryError(f"hull fell below the path by {-float(worst[low].min()):.3e}")
    np.maximum(hull, 0.0, out=hull)
    return hull.reshape(values.shape)


def pow_integral_from_gaps(grid, gaps, p: float):
    """Exact ``integral gap(t)**p dt`` for a gap sampled on ``grid``: a
    float for one gap, an array with one integral per row for a 2-d ``gaps``."""
    lengths = np.diff(np.asarray(grid, dtype=np.float64))
    gaps = np.asarray(gaps, dtype=np.float64)
    out = np.sum(pwl.ramp_pow_integrals(gaps[..., :-1], gaps[..., 1:], lengths, p), axis=-1)
    return float(out) if out.ndim == 0 else out


# -- The couplings ------------------------------------------------------------------


def coupling_lengths(iv: models.IntervalStructure, p: float) -> np.ndarray:
    """Sub-interval lengths ``d**(2/(p+2)) * h**(p/(p+2))`` for the dominance coupling.

    By the weighted AM-GM inequality each length is at most
    ``2/(p+2) * d + p/(p+2) * h``, so the lengths always sum to at most 1 and
    fit inside the unit interval.  Undefined for ``p = inf``.
    """
    if math.isinf(pwl.norm_index(p)):
        raise ValueError("coupling lengths are undefined for p = inf")
    if iv.is_empty:
        raise ValueError("nothing to verify: a strictly concave CDF has no affine intervals")
    lengths = np.power(iv.d, 2.0 / (p + 2.0)) * np.power(iv.h, p / (p + 2.0))
    total = float(lengths.sum())
    if total > 1.0 + _LENGTH_TOL:
        raise ValueError(f"coupling lengths sum to {total} > 1; invalid intervals")
    return lengths


def _block_grid(knots, widths, grid_size: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    # The base grid scaled into each block [knots[k], knots[k] + widths[k]],
    # merged with the base points not within _GRID_MERGE_TOL of a block
    # point, and each block's index span.  Block ends are pinned to the
    # exact knots, so junctions coincide bit-for-bit.
    base = uniform_grid(grid_size)
    parts = []
    for k, width in enumerate(widths):
        pts = knots[k] + width * base
        pts[0] = knots[k]
        pts[-1] = knots[k + 1]
        parts.append(pts)
    blocks = np.unique(np.concatenate(parts))
    idx = np.searchsorted(blocks, base)
    left = blocks[np.clip(idx - 1, 0, blocks.size - 1)]
    right = blocks[np.clip(idx, 0, blocks.size - 1)]
    near = (np.abs(base - left) <= _GRID_MERGE_TOL) | (np.abs(base - right) <= _GRID_MERGE_TOL)
    master = np.unique(np.concatenate([blocks, base[~near]]))
    ends = np.searchsorted(master, knots).tolist()
    return master, list(zip(ends[:-1], ends[1:]))


def _unit_preimage(u: np.ndarray, start: float, width: float) -> np.ndarray:
    # Block grid points mapped affinely onto [0, 1], ends pinned.
    out = (u - start) / width
    out[0] = 0.0
    out[-1] = 1.0
    return out


def _wiener_passes(master: np.ndarray, seed, paths: int):
    # (rows, W) in passes of at most _POINTS_PER_PASS grid points: W holds the
    # Wiener paths on ``master`` drawn from substream(seed, i, 0), i in rows.
    step = max(1, _POINTS_PER_PASS // master.size)
    for lo in range(0, paths, step):
        rows = range(lo, min(lo + step, paths))
        yield slice(lo, rows.stop), sample_wiener(master, [substream(seed, i, 0) for i in rows])


@dataclass(frozen=True)
class CouplingIdentity:
    """Both routes to one pathwise limit draw, one entry per path, and their gaps."""

    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def gap(self) -> np.ndarray:
        return np.abs(self.lhs - self.rhs)


def verify_rescaling_identity(
    spec: models.ConcaveCdf, p: float, seed, paths: int, grid_size: int
) -> CouplingIdentity:
    """Check, pathwise, that the interval-rescaled Wiener representation
    reproduces the derivative-route draw, on ``paths`` Wiener paths (path i
    drawn from ``substream(seed, i, 0)``) and a base grid of ``grid_size``
    subintervals.

    ``lhs`` applies interval-local majorants to the composed bridge;
    ``rhs`` rescales the same underlying Wiener path into one standard
    Wiener path per interval and aggregates their gap norms.  The two are
    equal for every path up to float accumulation (``COUPLING_TOL``), not
    merely in distribution.  The grids are built once per call, and each
    path's entries do not depend on the number of paths.  A p outside
    [1, 64], p = inf, a CDF with no affine interval and an interval too
    narrow for distinct grid points in double precision are ValueErrors.
    """
    if math.isinf(pwl.norm_index(p)):
        raise ValueError("the rescaling identity covers finite p only")
    iv = models.extract_intervals(spec)
    if iv.is_empty:
        raise ValueError("a strictly concave CDF has a degenerate limit: no intervals to rescale")
    kx = np.append(iv.a, iv.b[-1])
    ku = models.evaluate(spec, kx)  # np.interp returns the knot ordinates exactly
    master, spans = _block_grid(ku, iv.h, grid_size)
    blocks = []
    for k, (i0, i1) in enumerate(spans):
        u_pre = _unit_preimage(master[i0 : i1 + 1], ku[k], iv.h[k])
        x_blk = kx[k] + iv.d[k] * u_pre
        x_blk[-1] = kx[k + 1]
        if not np.all(np.diff(x_blk) > 0.0):
            where = f"affine interval ({float(iv.a[k])!r}, {float(iv.b[k])!r})"
            raise ValueError(f"{where} is too narrow for distinct grid points at grid {grid_size}")
        blocks.append((i0, i1 + 1, u_pre, x_blk, iv.h[k] ** -0.5, iv.d[k] * iv.h[k] ** (p / 2.0)))
    lhs_pow = np.zeros(paths)
    rhs_pow = np.zeros(paths)
    for rows, w in _wiener_passes(master, seed, paths):
        b = master * w[:, -1:]
        np.subtract(w, b, out=b)  # the Brownian bridge B(u) = W(u) - u W(1)
        for i0, i1, u_pre, x_blk, scale, weight in blocks:
            lhs_pow[rows] += pow_integral_from_gaps(x_blk, lcm_gap_on_grid(x_blk, b[:, i0:i1]), p)
            w_k = w[:, i0:i1] - w[:, i0 : i0 + 1]
            w_k *= scale
            rhs_pow[rows] += weight * pow_integral_from_gaps(u_pre, lcm_gap_on_grid(u_pre, w_k), p)
    return CouplingIdentity(pwl._roots(lhs_pow, p), pwl._roots(rhs_pow, p))


@dataclass(frozen=True)
class DominanceCheck:
    """Pathwise checks of the dominance coupling, one entry per path.

    ``lhs`` is the rescaled-interval aggregate, ``rhs`` the full-path gap
    norm; ``hull_excess`` is the worst violation of the interval-hull
    inequality (sub-interval majorant must not exceed the full majorant) at
    any grid point.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    hull_excess: np.ndarray

    @property
    def violation(self) -> np.ndarray:
        return (self.lhs > self.rhs + COUPLING_TOL) | (self.hull_excess > COUPLING_TOL)


def verify_dominance_coupling(
    iv: models.IntervalStructure, p: float, seed, paths: int, grid_size: int
) -> DominanceCheck:
    """Check, pathwise, the coupling that makes the uniform law dominant,
    on ``paths`` Wiener paths (path i drawn from ``substream(seed, i, 0)``)
    and a base grid of ``grid_size`` subintervals.

    Sub-intervals of the coupling lengths are packed into [0, 1] left to
    right from 0, in interval order; one standard Wiener path per
    sub-interval is carved out of a single Wiener path by rescaling.  For
    every path the aggregated gap norm is at most the full-path gap norm,
    because each sub-interval majorant sits below the full majorant.
    """
    lengths = coupling_lengths(iv, p)
    knots = np.concatenate(([0.0], np.cumsum(lengths)))
    master, spans = _block_grid(knots, lengths, grid_size)
    blocks = [
        (i0, i1 + 1, _unit_preimage(master[i0 : i1 + 1], a, l), math.sqrt(l), l ** ((p + 2.0) / 2.0))
        for (i0, i1), a, l in zip(spans, knots, lengths)
    ]
    lhs_pow = np.zeros(paths)
    rhs_pow = np.zeros(paths)
    hull_excess = np.zeros(paths)
    for rows, w in _wiener_passes(master, seed, paths):
        full_gap = lcm_gap_on_grid(master, w)
        rhs_pow[rows] = pow_integral_from_gaps(master, full_gap, p)
        for i0, i1, u_pre, root, weight in blocks:
            w_k = w[:, i0:i1] - w[:, i0 : i0 + 1]
            w_k /= root
            sub_gap = lcm_gap_on_grid(u_pre, w_k)
            lhs_pow[rows] += weight * pow_integral_from_gaps(u_pre, sub_gap, p)
            excess = np.subtract(np.multiply(sub_gap, root, out=sub_gap), full_gap[:, i0:i1], out=sub_gap).max(axis=1)
            # Python's max(kept, new): the new value only where it is larger.
            hull_excess[rows] = np.where(excess > hull_excess[rows], excess, hull_excess[rows])
    return DominanceCheck(pwl._roots(lhs_pow, p), pwl._roots(rhs_pow, p), hull_excess)
