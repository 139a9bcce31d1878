"""Exact geometry of empirical CDFs on [0, 1].

An empirical CDF is held as its corner points ``(px, py)``, two sorted
arrays.  Every vertex of its least concave majorant (LCM) is a corner, so
:func:`hull_vertices` only picks corners, by weighted antitonic regression
of segment slopes (pool-adjacent-violators), and :func:`corner_gaps` gives
the gap ``LCM - ECDF`` at both ends of each interval between corners.  L^p
norms are exact: on each segment the integrand is a power of an affine
ramp, integrated in closed form by :func:`ramp_pow_integrals`.

The majorant of a large sample has few vertices: 2 to ~400 of 10^6
corners on uniform, concave and convex laws.  Before the regression,
:func:`hull_vertices` drops the corners well below the hull of every
``HULL_BLOCK``-th corner.  That coarse hull joins corners, so it lies below
the majorant, and a corner below it lies below a chord of two corners,
which no vertex does.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
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
#: Corners per block of :func:`hull_vertices`' candidate filter, and the
#: stride of its coarse hull.  Of 16 to 64, 24 and 32 made the three
#: benchmark laws' hulls at 10^6 corners fastest.
HULL_BLOCK = 32
#: Fewest corners on which :func:`hull_vertices` runs its candidate filter.
#: Timed in process on the benchmark's three laws, the filter took 1.6 to
#: 1.9 times the unfiltered hull at 1000 corners, 1.15 times summed over the
#: laws at 6000, 0.94 at 8000 and 0.9 at 10^4 (0.5 to 1.25 by law).
HULL_FILTER_CORNERS = 8192


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
    # The sample is sorted in place after the leading 0, by the sort np.unique
    # runs, and the checks read the sorted ends: NaN sorts last, -inf first.
    n = arr.size
    px = np.empty(n + 1)
    px[0] = 0.0
    xs = px[1:]
    xs[:] = arr
    xs.sort()
    if not (np.isfinite(xs[0]) and np.isfinite(xs[-1])):
        raise ValueError("sample contains non-finite values")
    if xs[0] < 0.0 or xs[-1] > 1.0:
        bad = arr[(arr < 0.0) | (arr > 1.0)][0]
        raise ValueError(f"sample value {bad!r} outside [0, 1]")
    if xs[-1] == 0.0:
        raise ValueError("all observations are zero; the ECDF is degenerate")
    new = xs[1:] != xs[:-1]
    if new.all():
        py = np.arange(n + 1, dtype=np.float64)
    else:
        # A run of ties keeps its first value, as np.unique does: of -0.0 and
        # 0.0, the one the sort put first.
        first = np.flatnonzero(np.concatenate(([True], new)))
        k = first.size
        xs[:k] = xs[first]
        px = px[: k + 1]
        py = np.empty(k + 1)
        py[0] = 0.0
        py[1:k] = first[1:]  # a run ends just before the next one starts
        py[k] = n
    py /= n
    if px[1] > 0.0:
        return px, py
    # A jump at zero lifts the anchor: the majorant starts at the post-jump
    # value, not at the origin.
    return px[1:], py[1:]


def hull_vertices(px, py) -> np.ndarray:
    """Indices of the points on the upper concave hull, first and last included.

    ``px`` and ``py`` are nonempty 1-d arrays of equal length and finite
    values, and ``px`` is strictly increasing; anything else is a ValueError.
    Blocks of pooled slopes are the hull's segments and their ends its
    vertices; equal adjacent slopes pool, so collinear points drop out.
    Scaling the spacings by 2**600 is exact and keeps slopes over subnormal
    spacings finite; as infinities they would compare equal and pool.

    The regression runs on the corners :func:`_hull_candidates` keeps: a
    corner more than ``MAJORIZATION_TOL`` below a polyline through other
    corners is no vertex, so every vertex is kept.  Of 10^6 ECDF corners a
    few dozen to a few thousand are kept, ~17 % for U^2, and all when every
    corner is a vertex.  Pooled means are rounded, so two blocks on one line
    can miss pooling; the slopes between the chosen vertices themselves are
    checked, and a vertex where they fail to fall strictly is dropped.
    Which corners enter the regression changes that rounding, so where a
    corner's two chord slopes agree to about 1 ulp the filter can decide
    whether it is kept: the indices equal a regression's over every corner
    on the inputs tested, not by proof.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    if px.ndim != 1 or px.size == 0 or px.shape != py.shape:
        raise ValueError("px and py must be nonempty 1-d arrays of equal length")
    if not np.all(px[1:] > px[:-1]):
        raise ValueError("px must be strictly increasing")
    # NaN fails every comparison above and propagates through min and max.
    low, high = float(py.min()), float(py.max())
    if not all(map(math.isfinite, (px[0], px[-1], low, high))):
        raise ValueError("px and py must be finite")
    cand = _hull_candidates(px, py, low, high)
    cx, cy = (px, py) if cand is None else (px[cand], py[cand])
    dx = np.diff(cx)
    np.ldexp(dx, 600, out=dx)
    slopes = np.diff(cy)
    slopes /= dx
    idx = _pava(slopes, dx)[1]
    if cand is not None:
        idx = cand[idx]
    slopes = np.diff(py[idx]) / np.ldexp(np.diff(px[idx]), 600)
    if np.all(np.diff(slopes) < 0.0):
        return idx
    return _strictly_concave(px, py, idx)


def _hull_candidates(px, py, low, high) -> np.ndarray | None:
    """Sorted indices of the corners that may be hull vertices, or None for all.

    The coarse points are every ``HULL_BLOCK``-th corner and the last one.
    Their hull is a polyline through corners, so it lies below the full
    hull, and between two adjacent coarse points it is one chord, lowest at
    an end.  Block j holds the ``HULL_BLOCK`` corners from coarse point j;
    a corner more than ``tol`` below the lower end of its block's chord lies
    strictly below a chord of two corners and is no vertex.  Each corner of
    a full block is tested so; the corners after the last full block are
    all kept.
    ``tol`` is ``MAJORIZATION_TOL`` times the largest height past 1: with
    heights below 2**500 and finite scaled abscissae no slope or value of
    the polyline overflows, and its rounding is far below ``tol``.

    None below ``HULL_FILTER_CORNERS`` corners, where the filter costs more
    than it saves, and when over half the coarse points lie on their hull,
    as when every corner is a vertex or all lie on a line: most corners
    would then be kept, at the filter's cost.
    """
    n, m = px.size, HULL_BLOCK
    if n < HULL_FILTER_CORNERS or max(-low, high) >= 2.0**500:
        return None
    full = (n - 1) // m
    sx = np.ldexp(np.append(px[: n - 1 : m], px[-1]), 600)
    cy = np.append(py[: n - 1 : m], py[-1])
    if not math.isfinite(sx[-1] - sx[0]):
        return None
    dx = np.diff(sx)
    ends = _pava(np.diff(cy) / dx, dx)[1]
    chord = np.interp(sx, sx[ends], cy[ends])
    tol = MAJORIZATION_TOL * max(1.0, -low, high)
    if 2 * np.count_nonzero(cy >= chord - tol) > cy.size:
        return None
    floor = np.minimum(chord[:full], chord[1 : full + 1])
    floor -= tol
    hit = np.flatnonzero(py[: full * m].reshape(full, m) >= floor[:, None])
    return np.concatenate((hit, np.arange(full * m, n)))


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
    starts = np.empty(w.size + 1, dtype=np.intp)
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
    # Both ramps overwrite arrays done with: v_lo the scaled abscissae, v_hi
    # the hull, each entry read before it is written.
    v_lo = np.subtract(hull[:-1], py[:-1], out=sx[:-1])
    v_hi = np.subtract(hull[1:], py[:-1], out=hull[1:])
    worst = min(float(v_lo.min()), float(v_hi.min()))
    if worst < -MAJORIZATION_TOL:
        raise GeometryError(f"majorization violated by {-worst:.3e} at a corner")
    if worst < 0.0:
        np.maximum(v_lo, 0.0, out=v_lo)
        np.maximum(v_hi, 0.0, out=v_hi)
    return v_lo, v_hi


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
        if k == 1:
            acc = v_hi + v_lo
        else:
            # acc = hi^k + lo hi^(k-1) + ... + lo^k, added in that order.  Each
            # power is v*v*...*v from the left and each mixed term one product
            # of a lo and a hi power, so the bits are those of keeping every
            # power; but one power array lives at a time, in `term`, save hi^2
            # beside lo^2 at k = 4.
            acc = _power(v_hi, k)
            term = np.empty_like(acc)
            for i in range(1, k):
                lo = _power(v_lo, i, term)
                hi = _power(v_hi, k - i, None if lo is term else term)
                acc += np.multiply(lo, hi, out=term)
            acc += _power(v_lo, k, term)
        acc *= lengths
        acc /= k + 1
        return acc
    gap = v_hi - v_lo
    near = np.abs(gap) <= 1e-9 * np.maximum(v_lo, v_hi)
    den = np.where(near, 1.0, gap) * (p + 1.0)
    exact = (np.power(v_hi, p + 1.0) - np.power(v_lo, p + 1.0)) / den
    mid = np.power(0.5 * (v_lo + v_hi), p)
    return lengths * np.where(near, mid, exact)


def _power(v: np.ndarray, i: int, out: np.ndarray | None = None) -> np.ndarray:
    # v**i for a whole i >= 1: v itself, or the products v*v*...*v from the
    # left, written to out (a new array if None).
    if i == 1:
        return v
    out = np.multiply(v, v, out=out)
    for _ in range(i - 2):
        out *= v
    return out


def _roots(powers: np.ndarray, p: float) -> np.ndarray:
    # p-th roots one entry at a time, as Python floats: numpy's array ** need
    # not round like scalar pow.  At p = 1 the root is the identity.
    if p == 1.0:
        return powers
    return np.array([x ** (1.0 / p) for x in powers.tolist()])
