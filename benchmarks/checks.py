"""Reference computations the benchmark checks the program against.

Nothing here calls ``lcmtest.pwl``: the statistic is recomputed from the
sample with a qhull convex hull and a closed-form segment integral, and the
sup-norm limit law comes from the grid-free Balabdaoui-Pitman (2011)
representation.  The benchmark keeps its own copy of that oracle so that it
measures the same thing whatever later changes do to the test helpers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.stats import binom
from scipy.spatial import ConvexHull, QhullError

#: Mean discretisation error of a Brownian extreme sampled on a grid of step
#: dt is BETA * sqrt(dt), BETA = -zeta(1/2) / sqrt(2 pi) (Asmussen, Glynn &
#: Pitman 1995, Ann. Appl. Probab. 5(4)).
BETA = 0.5825971579390106

#: Checks on Monte Carlo estimates allow this many standard errors.
SE_MULTIPLE = 4.0

#: Chance that a correct table fails one side of one p = inf cell check.
TAIL = 1e-6


def grid_bias_allowance(grid_size: int) -> float:
    """How far the grid-sup quantile may sit below the exact one.

    The sup gap at its argmax is the distance from a local minimum of the
    path up to the hull through two path maxima.  On a grid each of those
    extremes is missed by about BETA * sqrt(1 / grid_size) on average, so the
    grid sup falls short by about twice that: 0.0091 at grid 16384.
    """
    return 2.0 * BETA / math.sqrt(grid_size)


# -- Exact law of sup(LCM(B) - B) -------------------------------------------------


def _kennedy_cdf(y: np.ndarray) -> np.ndarray:
    # P(max of a standard Brownian excursion <= y): the theta series for
    # y >= 0.6, its Jacobi dual below, where the theta series cancels badly.
    k = np.arange(1.0, 21.0)[:, None]
    out = np.empty_like(y)
    big = y >= 0.6
    t = (k * y[big]) ** 2
    out[big] = 1.0 + 2.0 * np.sum((1.0 - 4.0 * t) * np.exp(-2.0 * t), axis=0)
    ys = y[~big]
    series = np.sum(k**2 * np.exp(-(math.pi**2) * k**2 / (2.0 * ys**2)), axis=0)
    out[~big] = math.sqrt(2.0 * math.pi) * math.pi**2 / ys**3 * series
    return out


def sup_gap_cdf(x: float, steps: int = 1000) -> float:
    """P(sup(LCM(B) - B) <= x) for a Brownian bridge B on [0, 1].

    The sup equals in law max_i sqrt(l_i) E_i, with l uniform stick-breaking
    and E_i i.i.d. Kennedy.  phi(t) = P(every stick of a breaking of [0, t]
    passes) solves t phi(t) = int_0^t K(x / sqrt(s)) phi(t - s) ds; the answer
    is phi(1), here by the trapezoid rule on ``steps`` steps.
    """
    h = 1.0 / steps
    k = _kennedy_cdf(x / np.sqrt(h * np.arange(1, steps + 1)))
    phi = np.empty(steps + 1)
    phi[0] = 1.0
    for j in range(1, steps + 1):
        phi[j] = (float(np.dot(k[: j - 1], phi[j - 1 : 0 : -1])) + 0.5 * k[j - 1]) / (j - 0.5)
    return float(phi[steps])


def sup_order_statistic_range(n: int, alpha: float, grid_size: int) -> tuple[float, float]:
    """Where the p = inf table cell of an n-replication table may fall.

    The cell is the k-th smallest of n grid sups, k = ceil((1 - alpha) n).
    Grid sups lie below the continuum sup path by path, so the k-th exceeds
    x with chance at most P(Bin(n, G(x)) < k), G the exact CDF.  They fall
    short of it by about the grid-bias allowance, so the k-th is below x with
    chance about P(Bin(n, G(x + allowance)) >= k).  Each end is placed where
    its chance is TAIL.  Exact order-statistic bounds, unlike a margin in
    reported standard errors, hold at a few hundred replications, where the
    far tail holds two or three draws.
    """
    k = min(max(math.ceil((1.0 - alpha) * n - 1e-9), 1), n)
    allowance = grid_bias_allowance(grid_size)
    hi = brentq(lambda x: binom.cdf(k - 1, n, sup_gap_cdf(x)) - TAIL, 0.5, 6.0, xtol=1e-6)
    lo = brentq(lambda x: binom.sf(k - 1, n, sup_gap_cdf(x + allowance)) - TAIL, 0.2, 4.0, xtol=1e-6)
    return lo, hi


# -- The finite-sample statistic, recomputed ------------------------------------


def _upper_hull(px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Upper chain of the qhull hull, left to right.  qhull lists 2-d hull
    # vertices counter-clockwise, so walking from the rightmost vertex to the
    # leftmost one runs along the top.
    try:
        verts = ConvexHull(np.column_stack([px, py])).vertices
    except (QhullError, ValueError):
        # Fewer than three points, or all on one line: the hull is the chord.
        return px[[0, -1]], py[[0, -1]]
    order = np.roll(verts, -int(np.argmax(px[verts])))
    stop = int(np.nonzero(order == verts[np.argmin(px[verts])])[0][0])
    top = order[: stop + 1][::-1]
    return px[top], py[top]


def lp_statistic(sample, p: float) -> float:
    """sqrt(n) * ||LCM(F_n) - F_n||_p over [0, 1], for p in {1, 2, inf}.

    The majorant is the upper hull of the ECDF corner points and the origin
    (or of the corners alone when there is mass at 0).  On each flat of the
    ECDF the gap is an affine ramp from a to b, whose p-th power integrates
    to L / (p + 1) * sum_j a^j b^(p - j).
    """
    sample = np.asarray(sample, dtype=np.float64)
    xs, counts = np.unique(sample, return_counts=True)
    vs = np.cumsum(counts) / sample.size
    if xs[0] > 0.0:
        px, py = np.concatenate(([0.0], xs)), np.concatenate(([0.0], vs))
    else:
        px, py = xs, vs
    hx, hy = _upper_hull(px, py)
    hull = np.interp(px, hx, hy)
    # Flat i runs over [px[i], px[i+1]) at height py[i].
    a = np.maximum(hull[:-1] - py[:-1], 0.0)
    b = np.maximum(hull[1:] - py[:-1], 0.0)
    lengths = np.diff(px)
    if math.isinf(p):
        norm = float(max(a.max(initial=0.0), b.max(initial=0.0)))
    else:
        k = int(p)
        if k != p:
            raise ValueError("the reference covers p in {1, 2, inf}")
        power_sum = sum(a**j * b ** (k - j) for j in range(k + 1))
        norm = float(np.sum(lengths * power_sum) / (k + 1)) ** (1.0 / k)
    return math.sqrt(sample.size) * norm
