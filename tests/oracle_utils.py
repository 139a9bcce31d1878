"""Independent oracles used by the tests.

The hull oracle evaluates the upper concave envelope pointwise as the max
over all bracketing chords, in exact integer arithmetic (every double is a
dyadic rational, so the points scale to integers losslessly).  It shares no
code and no rounding with the library's pool-adjacent-violators hull.  The
qhull oracle takes the upper hull from scipy's Quickhull, which shares no
code with it either.  The quadrature oracle integrates difference functions
numerically with scipy's adaptive rule.

The sup-gap oracle gives the exact limit law of ``sup(LCM(B) - B)`` for a
Brownian bridge ``B`` on [0, 1], with no grid.  It uses the representation of
Balabdaoui & Pitman (2011, Bernoulli 17(1)): the sup equals in law
``max_i sqrt(l_i) * E_i``, with ``l`` uniform stick-breaking and ``E_i``
i.i.d. maxima of a standard Brownian excursion (Kennedy's law).  Nothing
here imports ``lcmtest``.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.spatial import ConvexHull, QhullError


def _to_scaled_ints(values) -> tuple[list[int], int]:
    # Exact: v = n / d with d a power of two; rescale to the common denominator.
    ratios = [float(v).as_integer_ratio() for v in values]
    common = 1
    for _, d in ratios:
        common = max(common, d)
    return [n * (common // d) for n, d in ratios], common


def exact_hull_values(px, py) -> list[Fraction]:
    """Upper-hull value at each input point: max over bracketing chords.

    O(n^2) exact chord evaluations per point.
    """
    X, dx = _to_scaled_ints(px)
    Y, dy = _to_scaled_ints(py)
    n = len(X)
    out = []
    for c in range(n):
        # best tracked as num/den in scaled-y units, den > 0
        best_num, best_den = Y[c], 1
        xc = X[c]
        for i in range(c):
            left = xc - X[i]
            for j in range(c + 1, n):
                den = X[j] - X[i]
                num = Y[i] * (X[j] - xc) + Y[j] * left
                if num * best_den > best_num * den:
                    best_num, best_den = num, den
        out.append(Fraction(best_num, best_den * dy))
    return out


def eval_pl_exact(hx, hy, x) -> Fraction:
    """Evaluate a float-knot piecewise-linear function exactly at float x."""
    X = [Fraction(float(v)) for v in hx]
    Y = [Fraction(float(v)) for v in hy]
    xq = Fraction(float(x))
    for i in range(len(X) - 1):
        if X[i] <= xq <= X[i + 1]:
            return Y[i] + (Y[i + 1] - Y[i]) * (xq - X[i]) / (X[i + 1] - X[i])
    raise ValueError("point outside hull domain")


def qhull_upper_hull(px, py) -> tuple[np.ndarray, np.ndarray]:
    """Upper-hull vertices of points with strictly increasing x, left to right.

    Quickhull lists the vertices counterclockwise, so the run from the
    rightmost point round to the leftmost one is the upper chain.  Points
    that qhull finds degenerate (all collinear) have the chord as their hull.
    """
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    try:
        ccw = ConvexHull(np.column_stack([px, py])).vertices.tolist()
    except QhullError:
        return px[[0, -1]], py[[0, -1]]
    last = px.size - 1
    start = ccw.index(last)
    turn = ccw[start:] + ccw[:start]
    upper = turn[: turn.index(0) + 1][::-1]
    return px[upper], py[upper]


def step_hull_points(xs, vs):
    """Point set whose upper hull is the LCM of a step CDF."""
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if xs[0] > 0.0:
        return np.concatenate(([0.0], xs)), np.concatenate(([0.0], vs))
    return xs, vs


def quad_gap_norm(hull_x, hull_y, step_xs, step_vs, p: float) -> float:
    """Adaptive-quadrature L^p norm of hull minus step over [0, last jump].

    The hull is supplied as point values (affine between points), so this
    route never touches the library's hull or norm code.
    """
    hx = np.asarray(hull_x, dtype=float)
    hy = np.asarray(hull_y, dtype=float)
    sx = np.asarray(step_xs, dtype=float)
    sv = np.asarray(step_vs, dtype=float)

    def gap(x):
        h = np.interp(x, hx, hy)
        i = np.searchsorted(sx, x, side="right")
        f = 0.0 if i == 0 else sv[i - 1]
        return max(h - f, 0.0) ** p

    hi = float(sx[-1])
    pts = sorted(set(hx.tolist()) | set(sx.tolist()))
    pts = [x for x in pts if 0.0 < x < hi]
    val, _ = quad(gap, 0.0, hi, points=pts, limit=max(100, 3 * len(pts)))
    return val ** (1.0 / p)


# Number of series terms in both forms of Kennedy's CDF; at the switch point
# the slower (theta) series has decayed below 1e-100 by then.
_KENNEDY_TERMS = np.arange(1, 21, dtype=float)[:, None]
KENNEDY_SWITCH = 0.6


def kennedy_cdf_theta(y) -> np.ndarray:
    """Kennedy's CDF as ``1 + 2 sum_k (1 - 4k^2y^2) exp(-2k^2y^2)``.

    Accurate for y >= ``KENNEDY_SWITCH``; cancels badly for small y.
    """
    k2y2 = _KENNEDY_TERMS**2 * np.atleast_1d(np.asarray(y, dtype=float)) ** 2
    return 1.0 + 2.0 * np.sum((1.0 - 4.0 * k2y2) * np.exp(-2.0 * k2y2), axis=0)


def kennedy_cdf_dual(y) -> np.ndarray:
    """Jacobi-dual form ``sqrt(2 pi) pi^2 / y^3 sum_k k^2 exp(-pi^2 k^2 / (2 y^2))``.

    Accurate for 0 < y < ``KENNEDY_SWITCH``.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    terms = _KENNEDY_TERMS**2 * np.exp(-(math.pi**2) * _KENNEDY_TERMS**2 / (2.0 * y**2))
    return math.sqrt(2.0 * math.pi) * math.pi**2 / y**3 * np.sum(terms, axis=0)


def kennedy_cdf(y) -> np.ndarray:
    """P(max of a standard Brownian excursion <= y), for y > 0."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.empty_like(y)
    hi = y >= KENNEDY_SWITCH
    out[hi] = kennedy_cdf_theta(y[hi])
    out[~hi] = kennedy_cdf_dual(y[~hi])
    return out


def sup_gap_cdf(x: float, steps: int = 1000) -> float:
    """P(sup(LCM(B) - B) <= x) for a Brownian bridge B on [0, 1].

    With ``phi(t)`` the probability that every stick of a stick-breaking of
    [0, t] passes, ``t phi(t) = int_0^t K(x / sqrt(s)) phi(t - s) ds`` (the
    first stick has length s, uniform on [0, t]), and the answer is
    ``phi(1)``.  Solved on ``steps`` trapezoid steps; the s = 0 end has
    ``K = 1`` and its half weight moves to the left side.
    """
    h = 1.0 / steps
    k = kennedy_cdf(x / np.sqrt(h * np.arange(1, steps + 1)))
    phi = np.empty(steps + 1)
    phi[0] = 1.0
    for j in range(1, steps + 1):
        inner = float(np.dot(k[: j - 1], phi[j - 1 : 0 : -1]))
        phi[j] = (inner + 0.5 * k[j - 1]) / (j - 0.5)
    return float(phi[steps])


def sup_gap_quantiles(alphas, steps: int = 1000) -> dict[float, float]:
    """Upper (1 - alpha) quantiles of sup(LCM(B) - B), by root-finding."""
    return {
        float(a): brentq(lambda x: sup_gap_cdf(x, steps) - (1.0 - a), 0.5, 4.0, xtol=1e-10)
        for a in alphas
    }


def sample_sup_gap(n: int, rng, sticks: int = 48) -> np.ndarray:
    """Direct draws of ``max_i sqrt(l_i) E_i``, truncated after ``sticks`` sticks.

    ``E_i`` comes from inverting Kennedy's CDF tabulated on [0.2, 5].  The
    length left after 48 sticks is about e^-48, far too short to hold the
    max at any quantile of interest.
    """
    ys = np.linspace(0.2, 5.0, 20001)
    cdf = kennedy_cdf(ys)
    out = np.empty(n)
    for start in range(0, n, 10_000):  # chunks keep the working set small
        rows = min(10_000, n - start)
        u = rng.random((rows, sticks))
        before = np.cumprod(np.concatenate([np.ones((rows, 1)), 1.0 - u[:, :-1]], axis=1), axis=1)
        excursion_max = np.interp(rng.random((rows, sticks)), cdf, ys)
        out[start : start + rows] = np.max(np.sqrt(u * before) * excursion_max, axis=1)
    return out
