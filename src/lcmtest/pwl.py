"""Exact geometry of step and piecewise-linear functions on [0, 1].

This module owns three kinds of objects and the arithmetic between them:

* :class:`StepCdf` -- a right-continuous step function (an empirical CDF),
* :class:`PiecewiseLinear` -- a continuous piecewise-linear function, in
  particular least concave majorants (LCMs),
* :class:`DiffSegments` -- the nonnegative piecewise-affine difference
  ``majorant - function``, ready for closed-form L^p integration.

One hull algorithm serves every caller: weighted antitonic regression of
segment slopes (pool-adjacent-violators).  :func:`lcm_gap_on_grid` turns the
fitted slopes into hull values at every grid point for the Monte Carlo
engine; :func:`lcm_of_step` uses the same regression only to choose which
corner points of a step CDF are hull vertices, and interpolates between
those original points, so its knots are exact input values.

All L^p norms are evaluated exactly: on each segment the integrand is a
power of an affine ramp, for which the antiderivative is closed-form.
Quadrature never enters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression

#: Absolute slack for internal majorization checks.  The geometry is exact up
#: to float rounding, so anything past this indicates a bug, not noise.
MAJORIZATION_TOL = 1e-12

_SLOPE_TOL = 1e-12


class GeometryError(ValueError):
    """An internal geometric invariant failed; indicates an upstream bug."""


def _as_sorted_array(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        raise ValueError(f"{name} must be strictly increasing")
    return arr


@dataclass(frozen=True, eq=False)
class StepCdf:
    """Right-continuous step function on [0, infinity).

    The function is 0 before ``xs[0]``, equals ``vs[i]`` on
    ``[xs[i], xs[i+1])``, and stays at ``vs[-1] == 1`` from the last jump on.
    """

    xs: np.ndarray
    vs: np.ndarray

    def __post_init__(self):
        xs = _as_sorted_array(self.xs, "jump abscissas")
        vs = _as_sorted_array(self.vs, "jump values")
        if xs.size != vs.size:
            raise ValueError("jump abscissas and values differ in length")
        if xs[0] < 0.0 or xs[-1] > 1.0:
            raise ValueError("jump abscissas must lie in [0, 1]")
        if vs[0] <= 0.0 or vs[-1] != 1.0:
            raise ValueError("jump values must lie in (0, 1] and end at 1")
        xs.flags.writeable = False
        vs.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vs", vs)

    @property
    def support_end(self) -> float:
        """Last jump location; the function is constant 1 beyond it."""
        return float(self.xs[-1])

    def evaluate(self, x) -> np.ndarray:
        """Right-continuous evaluation at scalar or array ``x``."""
        x = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self.xs, x, side="right")
        vals = np.where(idx > 0, self.vs[np.maximum(idx - 1, 0)], 0.0)
        return vals if vals.ndim else vals[()]

    def jump_weights(self) -> np.ndarray:
        """Mass assigned to each jump (multiplicity / n for an ECDF)."""
        return np.diff(self.vs, prepend=0.0)


def build_ecdf(samples) -> StepCdf:
    """Empirical CDF of a sample contained in [0, 1].

    Ties merge into a single jump carrying their joint mass.  Values outside
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
    return StepCdf(xs, vs)


@dataclass(frozen=True, eq=False)
class PiecewiseLinear:
    """Continuous piecewise-linear function on ``[xs[0], xs[-1]]``.

    With ``concave=True`` the knots are canonical: segment slopes strictly
    decrease and no interior knot is collinear with its neighbours.
    """

    xs: np.ndarray
    ys: np.ndarray
    concave: bool = False

    def __post_init__(self):
        xs = _as_sorted_array(self.xs, "knot abscissas")
        ys = np.ascontiguousarray(self.ys, dtype=np.float64)
        if ys.shape != xs.shape:
            raise ValueError("knot abscissas and ordinates differ in length")
        if xs.size < 2:
            raise ValueError("need at least two knots")
        if not np.all(np.isfinite(ys)):
            raise ValueError("knot ordinates contain non-finite entries")
        if self.concave:
            # Slopes over spacings scaled by 2**600, as in lcm_of_step, and
            # the tolerance by the same exact power of two: over subnormal
            # spacings plain slopes overflow and their differences are nan.
            s = np.diff(ys) / np.ldexp(np.diff(xs), 600)
            scale = max(2.0**-600, float(np.max(np.abs(s))))
            if np.any(np.diff(s) > _SLOPE_TOL * scale):
                raise ValueError("slopes must strictly decrease for a concave function")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])

    def slopes(self) -> np.ndarray:
        return np.diff(self.ys) / np.diff(self.xs)

    def evaluate(self, x) -> np.ndarray:
        """Evaluate at scalar or array ``x`` inside the domain."""
        x = np.asarray(x, dtype=np.float64)
        lo, hi = self.domain
        if np.any(x < lo - MAJORIZATION_TOL) or np.any(x > hi + MAJORIZATION_TOL):
            raise ValueError(f"evaluation point outside domain [{lo}, {hi}]")
        out = np.interp(np.clip(x, lo, hi), self.xs, self.ys)
        return out if out.ndim else out[()]


def lcm_of_step(f: StepCdf) -> PiecewiseLinear:
    """Least concave majorant of a step CDF on [0, last jump].

    The LCM is the upper concave hull of the origin together with the
    post-jump corner points: any concave majorant must dominate the corners,
    and the hull through them is concave and minimal.  Beyond the last jump
    both the step function and its majorant equal 1.
    """
    if f.xs[0] > 0.0:
        px = np.concatenate(([0.0], f.xs))
        py = np.concatenate(([0.0], f.vs))
    else:
        # A jump at zero lifts the anchor: the majorant must start at the
        # post-jump value, not at the origin.
        px, py = f.xs, f.vs
    # Blocks of pooled slopes are the hull's segments; their ends are its
    # vertices.  Equal adjacent slopes pool, so collinear corners drop out.
    # Scaling the spacings by 2**600 is exact and keeps slopes over subnormal
    # spacings finite; as infinities they would compare equal and pool.
    dx = np.ldexp(np.diff(px), 600)
    blocks = isotonic_regression(np.diff(py) / dx, weights=dx, increasing=False).blocks
    return PiecewiseLinear(px[blocks], py[blocks], concave=True)


@dataclass(frozen=True, eq=False)
class DiffSegments:
    """A nonnegative piecewise-affine difference, one affine piece per row.

    On ``[x_lo[i], x_hi[i]]`` the difference equals ``alpha[i] + beta[i] * x``;
    ``v_lo`` and ``v_hi`` cache the endpoint values (clamped at zero), which
    is the numerically stable form the integrators consume.
    """

    x_lo: np.ndarray
    x_hi: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    v_lo: np.ndarray
    v_hi: np.ndarray

    def __post_init__(self):
        for name in ("x_lo", "x_hi", "alpha", "beta", "v_lo", "v_hi"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (
            self.x_lo.shape == self.x_hi.shape == self.alpha.shape
            == self.beta.shape == self.v_lo.shape == self.v_hi.shape
        ):
            raise ValueError("segment arrays differ in length")
        if np.any(self.x_hi <= self.x_lo):
            raise ValueError("segments must have positive length")
        if np.any(self.x_lo[1:] != self.x_hi[:-1]):
            raise ValueError("segments must be contiguous")
        if np.any(self.v_lo < 0.0) or np.any(self.v_hi < 0.0):
            raise ValueError("difference must be nonnegative at segment endpoints")

    @property
    def lengths(self) -> np.ndarray:
        return self.x_hi - self.x_lo


def diff_segments(m: PiecewiseLinear, f, domain: tuple[float, float]) -> DiffSegments:
    """Difference ``m - f`` over ``domain`` as contiguous affine segments.

    ``f`` may be a :class:`StepCdf` (affine pieces of slope zero between
    jumps) or a :class:`PiecewiseLinear`.  Segment breakpoints are the union
    of the knots and jump points of both functions, so each piece is affine.
    Majorization is checked at every breakpoint; a violation beyond
    ``MAJORIZATION_TOL`` raises :class:`GeometryError`.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ValueError("domain must have positive length")
    mlo, mhi = m.domain
    if lo < mlo - MAJORIZATION_TOL or hi > mhi + MAJORIZATION_TOL:
        raise GeometryError("domain extends beyond the majorant's knots")

    if isinstance(f, StepCdf):
        f_breaks = f.xs
    elif isinstance(f, PiecewiseLinear):
        flo, fhi = f.domain
        if lo < flo or hi > fhi:
            raise GeometryError("domain extends beyond the minorant's knots")
        f_breaks = f.xs
    else:
        raise TypeError("f must be a StepCdf or PiecewiseLinear")

    def inner(a):
        return a[(a > lo) & (a < hi)]

    bks = np.unique(np.concatenate(([lo, hi], inner(m.xs), inner(f_breaks))))
    mv = m.evaluate(bks)

    if isinstance(f, StepCdf):
        fv = f.evaluate(bks[:-1])  # constant on each [b_i, b_{i+1})
        v_lo = mv[:-1] - fv
        v_hi = mv[1:] - fv
    else:
        fall = f.evaluate(bks)
        v_lo = mv[:-1] - fall[:-1]
        v_hi = mv[1:] - fall[1:]

    worst = min(float(v_lo.min()), float(v_hi.min()))
    if worst < -MAJORIZATION_TOL:
        raise GeometryError(f"majorization violated by {-worst:.3e} at a breakpoint")
    v_lo = np.maximum(v_lo, 0.0)
    v_hi = np.maximum(v_hi, 0.0)

    x_lo, x_hi = bks[:-1], bks[1:]
    beta = (v_hi - v_lo) / (x_hi - x_lo)
    alpha = v_lo - beta * x_lo
    return DiffSegments(x_lo, x_hi, alpha, beta, v_lo, v_hi)


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
        lo_pows = [np.ones_like(v_lo)]
        hi_pows = [np.ones_like(v_hi)]
        for _ in range(k):
            lo_pows.append(lo_pows[-1] * v_lo)
            hi_pows.append(hi_pows[-1] * v_hi)
        acc = np.zeros_like(v_lo)
        for i in range(k + 1):
            acc += lo_pows[i] * hi_pows[k - i]
        return lengths * acc / (k + 1)
    gap = v_hi - v_lo
    near = np.abs(gap) <= 1e-9 * np.maximum(v_lo, v_hi)
    den = np.where(near, 1.0, gap) * (p + 1.0)
    exact = (np.power(v_hi, p + 1.0) - np.power(v_lo, p + 1.0)) / den
    mid = np.power(0.5 * (v_lo + v_hi), p)
    return lengths * np.where(near, mid, exact)


def lp_norm(d: DiffSegments, p: float) -> float:
    """L^p norm of a segment difference; ``p = inf`` takes the endpoint max.

    The maximum of a nonnegative piecewise-affine function is attained at a
    breakpoint, so the sup norm is a genuine max, not a large-p limit.
    """
    if np.isinf(p):
        if d.v_lo.size == 0:
            return 0.0
        return float(max(d.v_lo.max(), d.v_hi.max()))
    if p < 1.0:
        raise ValueError("norm index p must be at least 1")
    total = float(np.sum(ramp_pow_integrals(d.v_lo, d.v_hi, d.lengths, p)))
    return total ** (1.0 / p)


# -- Fast grid route -----------------------------------------------------------
#
# Hull values at every grid point via weighted antitonic regression of the
# segment slopes (the classical majorant/isotonic duality).  The chord from
# the first to the last grid point is removed first: the majorant gap is
# invariant under affine shifts, and removing the chord makes the identity
# gap(W) == gap(W - chord) hold to the bit, not just to rounding.


def lcm_gap_on_grid(grid, values) -> np.ndarray:
    """Gap ``LCM(path) - path`` at every grid point of a sampled path."""
    grid = _as_sorted_array(grid, "grid")
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise ValueError("grid and values differ in length")
    if grid.size < 2:
        raise ValueError("need at least two grid points")

    chord_slope = (values[-1] - values[0]) / (grid[-1] - grid[0])
    yc = (values - values[0]) - (grid - grid[0]) * chord_slope
    dx = np.diff(grid)
    s = np.diff(yc) / dx
    # Concave up to slope dust: the path is its own majorant.  The tolerance
    # scales with the original slopes (canonical + chord), so an affine path
    # whose rounded values wiggle at the last bit still maps to a zero gap.
    slope_dust = _SLOPE_TOL * (1.0 + abs(chord_slope) + float(np.max(np.abs(s))))
    if np.all(np.diff(s) <= slope_dust):
        return np.zeros_like(yc)
    fitted = isotonic_regression(s, weights=dx, increasing=False).x
    hull = np.empty_like(yc)
    hull[0] = yc[0]
    np.cumsum(fitted * dx, out=hull[1:])
    gap = hull - yc
    worst = float(gap.min())
    if worst < -1e-9 * max(1.0, float(np.max(np.abs(yc)))):
        raise GeometryError(f"hull fell below the path by {-worst:.3e}")
    np.maximum(gap, 0.0, out=gap)
    return gap


def pow_integral_from_gaps(grid, gaps, p: float) -> float:
    """Exact ``integral gap(t)**p dt`` for a gap sampled on ``grid``."""
    lengths = np.diff(np.asarray(grid, dtype=np.float64))
    return float(np.sum(ramp_pow_integrals(gaps[:-1], gaps[1:], lengths, p)))


def gap_pow_integral(grid, values, p: float) -> float:
    """Exact ``integral (LCM(path) - path)**p`` over the grid span."""
    return pow_integral_from_gaps(grid, lcm_gap_on_grid(grid, values), p)
