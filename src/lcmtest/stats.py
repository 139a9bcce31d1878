"""Finite-sample concavity test statistics.

All three statistics measure how far the empirical CDF sits below its least
concave majorant, scaled by sqrt(n):

* :func:`lp_stat` -- unweighted L^p distance (Lebesgue measure on [0, 1]);
* :func:`weighted_stat` -- distance integrated against a model CDF;
* :func:`empirical_stat` -- distance integrated against the empirical measure.

The unweighted and piecewise-affine-weighted integrals are closed-form; only
the power-law weight needs adaptive quadrature, since ``(a + b*u)**p *
u**(gamma-1)`` has no elementary antiderivative for general p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from . import models, pwl

_QUAD_EPSABS = 1e-12  # per-segment budget; total stays well under 1e-10


@dataclass(frozen=True)
class StatisticResult:
    value: float
    n: int
    p: float
    kind: str

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"statistic must be finite and nonnegative, got {self.value!r}")


def _gap_segments(samples) -> tuple[pwl.DiffSegments, int]:
    f = pwl.build_ecdf(samples)
    m = pwl.lcm_of_step(f)
    d = pwl.diff_segments(m, f, domain=(0.0, f.support_end))
    return d, len(np.asarray(samples))


def lp_stat(samples, p: float) -> StatisticResult:
    """sqrt(n) times the L^p distance between the ECDF and its majorant.

    The difference vanishes beyond the largest observation, so integrating
    over [0, max(X)] equals integrating over [0, 1].  Exact for every p,
    including p = inf (breakpoint maximum).
    """
    d, n = _gap_segments(samples)
    value = float(np.sqrt(n) * pwl.lp_norm(d, p))
    return StatisticResult(value, n, float(p), "lp")


def weighted_stat(samples, p: float, weight: models.ConcaveCdf) -> StatisticResult:
    """sqrt(n) times the L^p distance weighted by a model CDF.

    Defined for finite p only.  Uniform and piecewise-affine weights are
    integrated exactly (their densities are piecewise constant); power
    weights use adaptive quadrature with an algebraic-singularity rule on
    the segment touching zero.
    """
    if np.isinf(p):
        raise ValueError("the weighted statistic is defined for finite p only")
    if p < 1.0:
        raise ValueError("norm index p must be at least 1")
    d, n = _gap_segments(samples)

    if isinstance(weight, models.UniformCdf) or (
        isinstance(weight, models.PowerCdf) and weight.gamma == 1.0
    ):
        total = float(np.sum(pwl.ramp_pow_integrals(d.v_lo, d.v_hi, d.lengths, p)))
    elif isinstance(weight, models.PiecewiseAffineCdf):
        total = _piecewise_weighted_integral(d, weight, p)
    elif isinstance(weight, models.PowerCdf):
        total = _power_weighted_integral(d, weight.gamma, p)
    else:
        raise TypeError(f"not a concave CDF spec: {weight!r}")
    value = float(np.sqrt(n) * total ** (1.0 / p))
    return StatisticResult(value, n, float(p), "weighted")


def _piecewise_weighted_integral(d: pwl.DiffSegments, weight, p: float) -> float:
    wx = np.asarray(weight.xs)
    slopes = np.diff(weight.ys) / np.diff(wx)
    total = 0.0
    for x0, x1, v0, v1 in zip(d.x_lo, d.x_hi, d.v_lo, d.v_hi):
        cuts = np.unique(np.concatenate(([x0, x1], wx[(wx > x0) & (wx < x1)])))
        vals = v0 + (v1 - v0) * (cuts - x0) / (x1 - x0)
        for c0, c1, g0, g1 in zip(cuts[:-1], cuts[1:], vals[:-1], vals[1:]):
            seg = int(np.searchsorted(wx, c0, side="right")) - 1
            dens = slopes[seg] if 0 <= seg < slopes.size else 0.0
            if dens > 0.0:
                total += dens * float(pwl.ramp_pow_integrals(g0, g1, c1 - c0, p))
    return total


def _power_weighted_integral(d: pwl.DiffSegments, gamma: float, p: float) -> float:
    total = 0.0
    for x0, x1, a, b, v0, v1 in zip(d.x_lo, d.x_hi, d.alpha, d.beta, d.v_lo, d.v_hi):
        if v0 == 0.0 and v1 == 0.0:
            continue
        if x0 == 0.0:
            # dF = gamma * u**(gamma-1) du is singular at 0; hand the
            # algebraic factor to the quadrature rule.
            val, _ = quad(
                lambda u: gamma * (a + b * u) ** p,
                x0,
                x1,
                weight="alg",
                wvar=(gamma - 1.0, 0.0),
                epsabs=_QUAD_EPSABS,
                limit=200,
            )
        else:
            val, _ = quad(
                lambda u: gamma * (a + b * u) ** p * u ** (gamma - 1.0),
                x0,
                x1,
                epsabs=_QUAD_EPSABS,
                limit=200,
            )
        total += val
    return total


def empirical_stat(samples, p: float) -> StatisticResult:
    """sqrt(n) times the L^p distance weighted by the empirical measure.

    The empirical CDF is evaluated right-continuously at each observation,
    so every jump contributes its post-jump value.  Finite p only.
    """
    if np.isinf(p):
        raise ValueError("the empirical-weight statistic is defined for finite p only")
    if p < 1.0:
        raise ValueError("norm index p must be at least 1")
    f = pwl.build_ecdf(samples)
    m = pwl.lcm_of_step(f)
    gaps = np.asarray(m.evaluate(f.xs)) - f.vs
    worst = float(gaps.min())
    if worst < -pwl.MAJORIZATION_TOL:
        raise pwl.GeometryError(f"majorization violated by {-worst:.3e}")
    gaps = np.maximum(gaps, 0.0)
    n = len(np.asarray(samples))
    total = float(np.sum(f.jump_weights() * gaps**p))
    value = float(np.sqrt(n) * total ** (1.0 / p))
    return StatisticResult(value, n, float(p), "empirical")


# -- Exact rational cross-check ------------------------------------------------


def exact_gap_pow_integral(samples, p: int) -> Fraction:
    """``integral (LCM(F_n) - F_n)**p`` as an exact rational number.

    Every double is a dyadic rational, so the hull, the segment endpoints and
    the polynomial integral can all be carried out in exact arithmetic.  Used
    to cross-check the floating-point path and to print exact values.
    """
    if p != int(p) or p < 1:
        raise ValueError("the exact route needs an integer p >= 1")
    p = int(p)
    arr = sorted(float(v) for v in np.asarray(samples, dtype=np.float64))
    n = len(arr)
    if n == 0:
        raise ValueError("sample must be nonempty")
    xs: list[Fraction] = []
    vs: list[Fraction] = []
    seen = 0
    for i, v in enumerate(arr):
        seen += 1
        if i == n - 1 or arr[i + 1] != v:
            xs.append(Fraction(v))
            vs.append(Fraction(seen, n))

    if xs[0] > 0:
        px = [Fraction(0)] + xs
        py = [Fraction(0)] + vs
    else:
        px, py = list(xs), list(vs)
    hx: list[Fraction] = []
    hy: list[Fraction] = []
    for x, y in zip(px, py):
        while len(hx) >= 2:
            cross = (hx[-1] - hx[-2]) * (y - hy[-2]) - (x - hx[-2]) * (hy[-1] - hy[-2])
            if cross >= 0:
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(x)
        hy.append(y)

    # Every hull knot is a corner point, so the corner points are all the
    # breakpoints, and one merge walk over them and the hull segments
    # evaluates the hull at each.  On [px[j], px[j+1]) the step equals py[j].
    if len(px) < 2:
        return Fraction(0)
    hull = []
    k = 0
    for x in px:
        while hx[k + 1] < x:
            k += 1
        hull.append(hy[k] + (x - hx[k]) / (hx[k + 1] - hx[k]) * (hy[k + 1] - hy[k]))
    total = Fraction(0)
    for j in range(len(px) - 1):
        g0 = hull[j] - py[j]
        g1 = hull[j + 1] - py[j]
        acc = Fraction(0)
        for i in range(p + 1):
            acc += g0**i * g1 ** (p - i)
        total += (px[j + 1] - px[j]) * acc / (p + 1)
    return total
