"""The finite-sample concavity test statistic.

:func:`lp_stat` is sqrt(n) times the L^p distance between the empirical CDF
and its least concave majorant, integrated exactly for every p.
:func:`exact_gap_pow_integral` recomputes the integral in exact rational
arithmetic, as a cross-check and for printing exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import pwl


@dataclass(frozen=True)
class StatisticResult:
    value: float
    n: int
    p: float
    kind: str

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"statistic must be finite and nonnegative, got {self.value!r}")


def lp_stat(samples, p: float) -> StatisticResult:
    """sqrt(n) times the L^p distance between the ECDF and its majorant.

    The difference vanishes beyond the largest observation, so integrating
    over [0, max(X)] equals integrating over [0, 1].  Exact for every p in
    [1, ``pwl.MAX_P``] and for p = inf: the gap is affine between corners,
    so its maximum is a corner value.
    """
    p = pwl.norm_index(p)
    px, py = pwl.ecdf_corners(samples)
    v_lo, v_hi = pwl.corner_gaps(px, py, pwl.hull_vertices(px, py))
    if np.isinf(p):
        norm = float(max(v_lo.max(), v_hi.max()))
    else:
        total = float(np.sum(pwl.ramp_pow_integrals(v_lo, v_hi, np.diff(px), p)))
        norm = total ** (1.0 / p)
    n = len(np.asarray(samples))
    return StatisticResult(float(np.sqrt(n) * norm), n, p, "lp")


# -- Exact rational cross-check ------------------------------------------------


def exact_gap_pow_integral(samples, p: int) -> Fraction:
    """``integral (LCM(F_n) - F_n)**p`` as an exact rational number.

    Every double is a dyadic rational, so the hull, the segment endpoints and
    the polynomial integral can all be carried out in exact arithmetic.  Used
    to cross-check the floating-point path and to print exact values.
    """
    p = pwl.norm_index(p)
    if not p.is_integer():
        raise ValueError("the exact route needs an integer p")
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
