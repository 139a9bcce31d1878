"""Independent oracles used by the tests.

The hull oracle evaluates the upper concave envelope pointwise as the max
over all bracketing chords, in exact integer arithmetic (every double is a
dyadic rational, so the points scale to integers losslessly).  It shares no
code and no rounding with the library's pool-adjacent-violators hull.  The
qhull oracle takes the upper hull from scipy's Quickhull, which shares no
code with it either.  The quadrature oracles integrate difference functions
numerically with scipy's adaptive rule.

The sup-gap oracle gives the exact limit law of ``sup(LCM(B) - B)`` for a
Brownian bridge ``B`` on [0, 1], with no grid.  It uses the representation of
Balabdaoui & Pitman (2011, Bernoulli 17(1)): the sup equals in law
``max_i sqrt(l_i) * E_i``, with ``l`` uniform stick-breaking and ``E_i``
i.i.d. maxima of a standard Brownian excursion (Kennedy's law).

The exact moments of ``X_p = ||LCM(W) - W||_p`` for a Wiener path W on
[0, 1] rest on the same picture: the faces of the majorant have uniform
stick-breaking lengths ``l_i``, for which ``E sum f(l_i) = int_0^1 f(x)/x
dx`` and the pair density is ``1/(xy)`` on ``x + y < 1``, and on face i the
gap is an independent excursion of length ``l_i``, whose area ``A`` has
``E A = sqrt(pi/8)`` and ``E A^2 = 5/12``, and ``E int e^2 = 1/2``
(Groeneboom 1983; Balabdaoui & Pitman 2011; Janson 2007, Probab. Surveys 4).
The moments of every order, of A, of the energy ``Y = int e^2`` and of
``X_p^p``, come from recursions at the end of this file.  The CDFs of A and
Y come from adaptive quadrature: of the Airy density series for A, and of
the Gil-Pelaez inversion integral of Y's characteristic function for Y.
Nothing here imports ``lcmtest``.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
from scipy import special
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.spatial import ConvexHull, QhullError


#: E X_1 = E A int_0^1 x^{3/2} / x dx.
MEAN_X1 = (2.0 / 3.0) * math.sqrt(math.pi / 8.0)
#: E X_1^2 = E A^2 int_0^1 x^2 dx + (E A)^2 int int_{x+y<1} sqrt(xy) dx dy.
SECOND_MOMENT_X1 = 5.0 / 36.0 + math.pi**2 / 192.0
#: E X_2^2 = (1/2) int_0^1 x dx.
SECOND_MOMENT_X2 = 0.25
#: Mean and second moment of Kennedy's law, the max of a standard excursion.
KENNEDY_MEAN = math.sqrt(math.pi / 2.0)
KENNEDY_SECOND_MOMENT = math.pi**2 / 6.0


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


def qhull_gap_pow_integral(grid, values, p: float) -> float:
    """``integral (hull - path)**p`` for a path linear between grid points.

    The hull comes from :func:`qhull_upper_hull`; its vertices are grid
    points, so the gap is affine on each grid interval, and adaptive
    quadrature integrates its p-th power interval by interval.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    hx, hy = qhull_upper_hull(grid, values)
    gap = np.maximum(np.interp(grid, hx, hy) - values, 0.0)
    return _affine_pow_integral(grid, gap[:-1], gap[1:], p)


def quad_gap_norm(hull_x, hull_y, step_xs, step_vs, p: float) -> float:
    """Adaptive-quadrature L^p norm of hull minus step over [step_xs[0], step_xs[-1]].

    The hull is supplied as point values, affine between points, and the
    step function takes the value ``step_vs[j]`` on ``[step_xs[j],
    step_xs[j + 1])``, so this route never touches the library's hull or
    norm code.  Between consecutive points of either the gap is affine, and
    adaptive quadrature integrates its p-th power piece by piece.
    """
    hx = np.asarray(hull_x, dtype=float)
    hy = np.asarray(hull_y, dtype=float)
    sx = np.asarray(step_xs, dtype=float)
    sv = np.asarray(step_vs, dtype=float)
    xs = np.union1d(hx, sx)
    xs = xs[(xs >= sx[0]) & (xs <= sx[-1])]
    hull = np.interp(xs, hx, hy)
    step = sv[np.searchsorted(sx, xs[:-1], side="right") - 1]
    gap_lo = np.maximum(hull[:-1] - step, 0.0)
    gap_hi = np.maximum(hull[1:] - step, 0.0)
    return _affine_pow_integral(xs, gap_lo, gap_hi, p) ** (1.0 / p)


def _affine_pow_integral(xs, gap_lo, gap_hi, p: float) -> float:
    # Sum over the intervals [xs[j], xs[j + 1]] of the integral of the p-th
    # power of the affine gap running from gap_lo[j] to gap_hi[j], each by
    # adaptive quadrature on [0, 1] scaled by the interval's length.
    total = 0.0
    for x0, x1, g0, g1 in zip(xs[:-1], xs[1:], gap_lo, gap_hi):
        val, _ = quad(lambda t: (g0 + (g1 - g0) * t) ** p, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)
        total += (x1 - x0) * val
    return total


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


def sup_gap_cdf(x, steps: int = 1000):
    """P(sup(LCM(B) - B) <= x) for a Brownian bridge B on [0, 1], for a
    number x (a float comes back) or for every value of an array x at once.

    With ``phi(t)`` the probability that every stick of a stick-breaking of
    [0, t] passes, ``t phi(t) = int_0^t K(x / sqrt(s)) phi(t - s) ds`` (the
    first stick has length s, uniform on [0, t]), and the answer is
    ``phi(1)``.  Solved on ``steps`` trapezoid steps; the s = 0 end has
    ``K = 1`` and its half weight moves to the left side.  Row i of ``back``
    holds x_i's phi backwards, ``back[i, steps - j] = phi(j / steps)``, so
    each step's convolution is a product of two forward slices.
    """
    xs = np.asarray(x, dtype=float)
    h = 1.0 / steps
    root_s = np.sqrt(h * np.arange(1, steps + 1))
    k = np.array([kennedy_cdf(xi / root_s) for xi in xs.ravel()]).reshape(-1, steps)
    back = np.empty((k.shape[0], steps + 1))
    back[:, steps] = 1.0
    for j in range(1, steps + 1):
        inner = np.einsum("ij,ij->i", k[:, : j - 1], back[:, steps - j + 1 : steps])
        back[:, steps - j] = (inner + 0.5 * k[:, j - 1]) / (j - 0.5)
    return float(back[0, 0]) if xs.ndim == 0 else back[:, 0].reshape(xs.shape)


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


# -- Exact moments of the face laws and of X_p --------------------------------------


def moments_from_cumulants(kappa) -> list:
    """E X^k for k = 1 .. len(kappa), from the cumulants ``kappa[n - 1] =
    kappa_n``: m_k = sum_{n=1}^{k} C(k - 1, n - 1) kappa_n m_{k-n}.  Exact
    when the cumulants are Fractions."""
    m = [1]
    for k in range(1, len(kappa) + 1):
        m.append(sum(math.comb(k - 1, n - 1) * kappa[n - 1] * m[k - n] for n in range(1, k + 1)))
    return m[1:]


def excursion_area_moments(kmax: int) -> list[float]:
    """E A^k for k = 1 .. kmax, A the area under a standard Brownian excursion:
    ``E A^k = 4 sqrt(pi) 2^{-k/2} k! K_k / Gamma((3k - 1)/2)`` with Wright's
    constants ``K_0 = -1/2``, ``K_k = (3k - 4)/4 K_{k-1} + sum_{j=1}^{k-1}
    K_j K_{k-j}`` (Janson 2007, Probab. Surveys 4, section 2)."""
    wright = [Fraction(-1, 2)]
    for k in range(1, kmax + 1):
        pairs = sum((wright[j] * wright[k - j] for j in range(1, k)), Fraction(0))
        wright.append(Fraction(3 * k - 4, 4) * wright[k - 1] + pairs)
    scale = 4.0 * math.sqrt(math.pi)
    return [
        scale * 2.0 ** (-k / 2) * math.factorial(k) * float(wright[k]) / math.gamma((3 * k - 1) / 2)
        for k in range(1, kmax + 1)
    ]


def _bernoulli(n: int) -> list[Fraction]:
    # B_0 .. B_n, with B_1 = -1/2: B_m = -1/(m + 1) sum_{j<m} C(m + 1, j) B_j.
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def excursion_energy_moments(kmax: int) -> list[Fraction]:
    """E Y^k for k = 1 .. kmax, exact, Y = int_0^1 e^2 for a standard
    Brownian excursion e.  ``log E e^{-sY} = -(3/2) log(sinh x / x)`` with
    x = sqrt(2s), and ``log(sinh x / x) = sum_n 2^{2n} B_{2n} x^{2n} / (2n
    (2n)!)``, so the n-th cumulant is ``-(3/2) n! 2^{2n} B_{2n} (-2)^n /
    (2n (2n)!)``: 1/2, 1/15, ..."""
    b = _bernoulli(2 * kmax)
    kappa = [
        Fraction(-3, 2) * math.factorial(n) * 4**n * b[2 * n] * (-2) ** n / (2 * n * math.factorial(2 * n))
        for n in range(1, kmax + 1)
    ]
    return moments_from_cumulants(kappa)


def excursion_pow_mean(p: float) -> float:
    """E Z_p = E int_0^1 e^p for a standard Brownian excursion e.  At time t,
    e(t) is sqrt(t(1 - t)) times a chi variable with 3 degrees of freedom,
    so ``E Z_p = 2^{p/2} Gamma((p + 3)/2) / Gamma(3/2) * B(1 + p/2, 1 + p/2)``."""
    beta = math.gamma(1.0 + p / 2.0) ** 2 / math.gamma(2.0 + p)
    return 2.0 ** (p / 2.0) * math.gamma((p + 3.0) / 2.0) / math.gamma(1.5) * beta


def stick_breaking_sum_moments(face_moments, a: float) -> list[float]:
    """E (sum_i l_i^a Z_i)^k for k = 1 .. len(face_moments), with l uniform
    stick-breaking of [0, 1] and Z_i i.i.d., independent of l, with
    ``E Z^n = face_moments[n - 1]``.  With a = 1 + p/2 and Z_i = Z_p this is
    E X_p^{pk}.

    The sticks are the jumps J_i of a gamma subordinator on [0, 1], divided
    by their total T, which is Exp(1) and independent of the l_i.  So S =
    sum_i J_i^a Z_i = T^a sum_i l_i^a Z_i, and E S^k = Gamma(ak + 1) times
    the moment wanted.  S sums over a Poisson process of intensity x^{-1}
    e^{-x} dx, so its n-th cumulant is Gamma(an) E Z^n.
    """
    kappa = [math.gamma(a * n) * float(z) for n, z in enumerate(face_moments, 1)]
    return [m / math.gamma(a * k + 1.0) for k, m in enumerate(moments_from_cumulants(kappa), 1)]


# -- CDFs of the face laws ----------------------------------------------------------

#: |a_j| for the first 30 zeros a_j of Ai.  For x <= 3 the area density's
#: terms past the 18th have v_j > 60, so they add less than e^-60.
_AIRY_ZEROS = np.abs(special.ai_zeros(30)[0])


def area_density(x: float) -> float:
    """Density of the area A under a standard Brownian excursion, for
    0 < x <= 3: ``2 sqrt(6) / x^2 sum_j v_j^{2/3} e^{-v_j} U(-5/6, 4/3;
    v_j)`` with ``v_j = 2 |a_j|^3 / (27 x^2)`` (Takacs 1991; Janson 2007,
    Probab. Surveys 4).  Above 3 the law has mass under 1e-20."""
    v = 2.0 * _AIRY_ZEROS**3 / (27.0 * x * x)
    terms = v ** (2.0 / 3.0) * np.exp(-v) * special.hyperu(-5.0 / 6.0, 4.0 / 3.0, v)
    return 2.0 * math.sqrt(6.0) / (x * x) * float(terms.sum())


def area_cdf(x) -> np.ndarray:
    """P(A <= x) for each x in (0, 3]: the density integrated by adaptive
    quadrature from 0, one piece between each sorted point and the next."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    order = np.argsort(x)
    edges = np.concatenate(([0.0], x[order]))
    pieces = [
        quad(area_density, lo, hi, epsabs=1e-15, epsrel=1e-12)[0] for lo, hi in zip(edges[:-1], edges[1:])
    ]
    out = np.empty_like(x)
    out[order] = np.cumsum(pieces)
    return out


def _energy_char(t: float) -> complex:
    # E e^{itY} = (x / sinh x)^{3/2}, x = sqrt(-2it), through
    # log(x / sinh x) = log 2x - x - log(1 - e^{-2x}): analytic for Re x > 0
    # and 0 as x -> 0, so it is the branch continuous from t = 0.
    x = cmath.sqrt(-2j * t)
    return cmath.exp(1.5 * (cmath.log(2.0 * x) - x - cmath.log(1.0 - cmath.exp(-2.0 * x))))


def energy_cdf(y) -> np.ndarray:
    """P(Y <= y) for each y > 0, Y = int_0^1 e^2 the energy of a standard
    Brownian excursion, by Gil-Pelaez inversion: ``F(y) = 1/2 - (1/pi)
    int_0^inf Im(e^{-ity} E e^{itY}) / t dt``, integrated by adaptive
    quadrature in u = sqrt(t).  |E e^{itY}| falls like e^{-1.5 u}, so
    stopping at u = 30 leaves out less than 1e-17."""

    def integrand(u: float, y: float) -> float:
        t = u * u
        return 2.0 * (cmath.exp(-1j * t * y) * _energy_char(t)).imag / u

    out = []
    for v in np.atleast_1d(np.asarray(y, dtype=float)).tolist():
        integral = quad(integrand, 0.0, 30.0, args=(v,), limit=1000, epsabs=1e-14, epsrel=1e-12)[0]
        out.append(0.5 - integral / math.pi)
    return np.array(out)
