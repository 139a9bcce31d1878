"""Exact geometry of empirical CDFs on [0, 1].

An empirical CDF is held as its corner points ``(px, py)``, two sorted
arrays.  Every vertex of its least concave majorant (LCM) is a corner, so
:func:`hull_vertices` only picks corners, by weighted antitonic regression
of segment slopes (pool-adjacent-violators), and :func:`corner_gaps` gives
the gap ``LCM - ECDF`` at both ends of each interval between corners.  L^p
norms are exact: on each segment the integrand is a power of an affine
ramp, integrated in closed form by :func:`ramp_pow_integrals`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from pathlib import Path

import numpy as np
import scipy


def _load_pava_kernel():
    # scipy's compiled PAVA kernel, loaded from its file without running
    # scipy/optimize/__init__.py, which imports scipy.linalg, scipy.sparse and
    # the solvers, ~0.45 s this package never uses.  The module is not put in
    # sys.modules, so a later `import scipy.optimize` sets its _pava_pybind
    # attribute as usual; CPython's extension cache hands it this same module.
    name = "scipy.optimize._pava_pybind"
    spec = importlib.machinery.PathFinder.find_spec(name, [str(Path(scipy.__file__).parent / "optimize")])
    if spec is None:
        raise ImportError(f"{name} not found in scipy {scipy.__version__}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.pava


_pava_kernel = _load_pava_kernel()

#: Absolute slack for internal majorization checks.  The geometry is exact up
#: to float rounding, so anything past this indicates a bug, not noise.
MAJORIZATION_TOL = 1e-12
#: Largest finite norm index: a gap is at most ~n^{-1/2}, and its 64th power
#: is a normal double up to n ~ 10^9; the limit engine's overflow past p ~ 175.
MAX_P = 64.0


class GeometryError(ValueError):
    """An internal geometric invariant failed; indicates an upstream bug."""


def norm_index(p) -> float:
    """The package's one rule for the norm index: ``p``, a number or a string
    ``float`` parses ('2.5', ' Infinity '), as a float if it is in [1,
    ``MAX_P``] or inf; anything else, NaN and -inf too, is a ValueError."""
    p = float(p)
    if not (1.0 <= p <= MAX_P or p == np.inf):
        raise ValueError(f"norm index must be in [1, {MAX_P:g}] or 'inf' (use 'inf' for larger p), got {p!r}")
    return p


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

    ``px`` and ``py`` are nonempty 1-d arrays of equal length, and ``px`` is
    strictly increasing; anything else is a ValueError.  Blocks of pooled
    slopes are the hull's segments and their ends its vertices; equal
    adjacent slopes pool, so collinear points drop out.  Scaling the spacings
    by 2**600 is exact and keeps slopes over subnormal spacings finite; as
    infinities they would compare equal and pool.

    Pooled means are rounded, so two blocks on one line can miss pooling;
    the slopes between the chosen vertices themselves are checked, and a
    vertex where they fail to fall strictly is dropped.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    if px.ndim != 1 or px.size == 0 or px.shape != py.shape:
        raise ValueError("px and py must be nonempty 1-d arrays of equal length")
    dx = np.ldexp(np.diff(px), 600)
    if not np.all(dx > 0.0):
        raise ValueError("px must be strictly increasing")
    idx = _pava(np.diff(py) / dx, dx)[1]
    slopes = np.diff(py[idx]) / np.ldexp(np.diff(px[idx]), 600)
    if np.all(np.diff(slopes) < 0.0):
        return idx
    return _strictly_concave(px, py, idx)


def _pava(y, w) -> tuple[np.ndarray, np.ndarray | None]:
    """Weighted antitonic regression of ``y`` by pool-adjacent-violators:
    the decreasing fit and its block boundaries, as scipy's public isotonic
    regression function gives them with ``increasing=False``.

    ``y`` is one row, or a 2-d array of rows each fitted alone (blocks None).
    ``w`` must be 1-d and as long as a row, else ValueError: the compiled
    kernel indexes it by the row's length.  The weights must be positive;
    both callers pass spacings they have checked are.  The kernel fits a
    decreasing row as the increasing fit of its reverse and overwrites its
    weight argument with pooled weights, so it gets reversed copies of both.
    It is the same call, on the same arrays, that scipy's public function
    makes after its checks, so each row's fit and blocks are the same bits.
    """
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if y.ndim not in (1, 2) or w.shape != y.shape[-1:]:
        raise ValueError("PAVA needs 1-d weights of equal length to the values' rows")
    fit = np.atleast_2d(y)[:, ::-1].copy()
    pooled = np.empty_like(w)
    starts = np.full(w.size + 1, -1, dtype=np.intp)
    for row in fit:  # fitted in place; the kernel writes each start before it reads it
        pooled[:] = w[::-1]
        _, _, blocks, b = _pava_kernel(row, pooled, starts)
    # blocks[: b + 1] runs from 0 to the row's length.
    return fit.reshape(y.shape)[..., ::-1], (y.size - blocks[b::-1] if y.ndim == 1 else None)


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
    The abscissae are scaled by 2**600, as in :func:`hull_vertices`, so a
    slope over a subnormal spacing stays finite.
    """
    sx = np.ldexp(px, 600)
    hull = np.interp(sx, sx[idx], py[idx])
    v_lo = hull[:-1] - py[:-1]
    v_hi = hull[1:] - py[:-1]
    worst = min(float(v_lo.min()), float(v_hi.min()))
    if worst < -MAJORIZATION_TOL:
        raise GeometryError(f"majorization violated by {-worst:.3e} at a corner")
    return np.maximum(v_lo, 0.0), np.maximum(v_hi, 0.0)


def ramp_pow_integrals(v_lo, v_hi, lengths, p: float) -> np.ndarray:
    """Exact integral of ``ramp(t)**p`` per segment, for a finite norm index p.

    Each segment carries an affine ramp running from ``v_lo`` to ``v_hi`` (both
    nonnegative, of one shape) over ``lengths``, which broadcast to that shape.  p = 1,
    2, 3 and 4 use the identity ``(b^{p+1}-a^{p+1})/(b-a) = sum a^i b^{p-i}``, free of
    removable singularities; any other p, where its 2p power arrays would grow, uses the
    closed-form antiderivative, with a midpoint fallback when the ends nearly agree.
    """
    p = norm_index(p)
    if np.isinf(p):
        raise ValueError("ramp integrals need a finite p; the sup norm is the largest corner gap")
    v_lo = np.asarray(v_lo, dtype=np.float64)
    v_hi = np.asarray(v_hi, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.float64)
    if p in (1.0, 2.0, 3.0, 4.0):
        k = int(p)
        # lo_pows[i] = v_lo**(i+1), likewise hi_pows; acc = hi^k + lo hi^(k-1)
        # + ... + lo^k, summed in that order in hi^k's own array (at k = 1, a copy).
        lo_pows = [v_lo]
        hi_pows = [v_hi]
        for _ in range(k - 1):
            lo_pows.append(lo_pows[-1] * v_lo)
            hi_pows.append(hi_pows[-1] * v_hi)
        acc = hi_pows[-1] if k > 1 else v_hi.copy()
        for i in range(1, k):
            acc += lo_pows[i - 1] * hi_pows[k - i - 1]
        acc += lo_pows[-1]
        acc *= lengths
        acc /= k + 1
        return acc
    gap = v_hi - v_lo
    near = np.abs(gap) <= 1e-9 * np.maximum(v_lo, v_hi)
    den = np.where(near, 1.0, gap) * (p + 1.0)
    exact = (np.power(v_hi, p + 1.0) - np.power(v_lo, p + 1.0)) / den
    mid = np.power(0.5 * (v_lo + v_hi), p)
    return lengths * np.where(near, mid, exact)


def _roots(powers: np.ndarray, p: float) -> np.ndarray:
    # p-th roots one entry at a time, as Python floats: numpy's array ** need
    # not round like scalar pow.  At p = 1 the root is the identity.
    if p == 1.0:
        return powers
    return np.array([x ** (1.0 / p) for x in powers.tolist()])
