"""Checks of the oracles themselves.

Most check the exact sup-gap oracle that criterion 1 uses as its p = inf
reference.  They run in about two seconds, so the reference is checked
without building the full-scale table.  One checks the qhull upper hull
against the exact chord oracle, and the last ones check the exact moment
recursions against closed forms and a direct stick-breaking sample, and
the face laws' CDF oracles against those moments.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import fixed_quad, quad
from scipy.special import zeta

from oracle_utils import (
    KENNEDY_SWITCH,
    MEAN_X1,
    SECOND_MOMENT_X1,
    SECOND_MOMENT_X2,
    area_cdf,
    area_density,
    energy_cdf,
    excursion_area_moments,
    excursion_energy_moments,
    excursion_pow_mean,
    exact_hull_values,
    kennedy_cdf,
    kennedy_cdf_dual,
    kennedy_cdf_theta,
    moments_from_cumulants,
    qhull_upper_hull,
    sample_sup_gap,
    stick_breaking_sum_moments,
    sup_gap_cdf,
    sup_gap_quantiles,
)

ALPHAS = (0.01, 0.05, 0.10)


def test_kennedy_forms_agree_at_switch():
    ys = KENNEDY_SWITCH + np.array([-0.1, -0.05, 0.0, 0.05, 0.1])
    np.testing.assert_allclose(kennedy_cdf_theta(ys), kennedy_cdf_dual(ys), rtol=0, atol=1e-15)


def test_kennedy_moments():
    # The max of a standard Brownian excursion has mean sqrt(pi/2) and
    # second moment pi^2/6.
    def tail(y):
        return 1.0 - kennedy_cdf(y)[0]

    mean = quad(tail, 0.0, np.inf)[0]
    second = quad(lambda y: 2.0 * y * tail(y), 0.0, np.inf)[0]
    assert abs(mean - math.sqrt(math.pi / 2.0)) < 1e-9
    assert abs(second - math.pi**2 / 6.0) < 1e-9


def _sup_gap_cdf_one(x: float, steps: int = 1000) -> float:
    # The Volterra solve for one x, one np.dot a step: the reference for the
    # solve over an array of x.
    h = 1.0 / steps
    k = kennedy_cdf(x / np.sqrt(h * np.arange(1, steps + 1)))
    phi = np.empty(steps + 1)
    phi[0] = 1.0
    for j in range(1, steps + 1):
        inner = float(np.dot(k[: j - 1], phi[j - 1 : 0 : -1]))
        phi[j] = (inner + 0.5 * k[j - 1]) / (j - 0.5)
    return float(phi[steps])


def test_sup_gap_cdf_over_an_array_equals_the_one_x_solve():
    # Only the order of each step's sum differs, so the two agree to a few
    # ulps; a number in gives a float out.
    xs = np.array([[0.3, 0.9, 1.3], [1.68, 2.4, 3.5]])
    got = sup_gap_cdf(xs, 400)
    want = np.array([[_sup_gap_cdf_one(x, 400) for x in row] for row in xs])
    assert got.shape == xs.shape and np.max(np.abs(got - want)) <= 4e-15
    assert isinstance(sup_gap_cdf(1.68), float)
    assert abs(sup_gap_cdf(1.68) - _sup_gap_cdf_one(1.68)) <= 4e-15


def test_sup_gap_cdf_is_a_nondecreasing_cdf():
    xs = np.linspace(0.3, 3.5, 65)
    values = sup_gap_cdf(xs)
    assert np.all(np.diff(values) >= 0.0)
    assert values[0] < 1e-6 and values[-1] > 1.0 - 1e-6


def test_sup_gap_quantiles_exact_and_step_stable():
    coarse = sup_gap_quantiles(ALPHAS)
    fine = sup_gap_quantiles(ALPHAS, steps=2000)
    for alpha, want in zip(ALPHAS, (1.7197, 1.4628, 1.3357)):
        assert round(coarse[alpha], 4) == want
        assert round(fine[alpha], 4) == want
    # 1.68, the commonly quoted 99% point, is the 98.7% point of the limit law.
    assert round(sup_gap_cdf(1.68), 4) == 0.9869


def test_sup_gap_quantiles_match_direct_sample():
    draws = np.sort(sample_sup_gap(100_000, np.random.default_rng(20240)))
    n = draws.size
    exact = sup_gap_quantiles(ALPHAS)
    for alpha in ALPHAS:
        # Order-statistic quantile; its standard error is half the spread of
        # the order statistics one binomial standard deviation of ranks away.
        rank = math.ceil((1.0 - alpha) * n)
        spread = math.sqrt(n * alpha * (1.0 - alpha))
        se = 0.5 * (draws[math.ceil(rank + spread) - 1] - draws[math.floor(rank - spread) - 1])
        assert abs(draws[rank - 1] - exact[alpha]) <= 3.0 * se, (alpha, draws[rank - 1], se)


def test_qhull_upper_hull_matches_exact_chord_oracle(rng):
    for n in (2, 3, 10, 40):
        for _ in range(10):
            px = np.unique(np.concatenate([[0.0, 1.0], rng.random(n - 2)]))
            py = np.cumsum(rng.standard_normal(px.size)) * 0.1
            hx, hy = qhull_upper_hull(px, py)
            assert hx[0] == px[0] and hx[-1] == px[-1]
            got = np.interp(px, hx, hy)
            for g, want in zip(got, exact_hull_values(px, py)):
                assert abs(Fraction(float(g)) - want) <= 1e-15


def test_excursion_moment_recursions_match_closed_forms():
    # E A^k for k = 1 .. 4, as Janson (2007) lists them.
    want = [math.sqrt(math.pi / 8.0), 5.0 / 12.0, 15.0 * math.sqrt(2.0 * math.pi) / 128.0, 221.0 / 1008.0]
    np.testing.assert_allclose(excursion_area_moments(4), want, rtol=1e-14)
    # Y is the sum of int b^2 over three independent Brownian bridges b, and
    # int b^2 = sum_n N_n^2 / (n pi)^2, so kappa_m(Y) = 3 2^{m-1} (m-1)!
    # zeta(2m) / pi^{2m}: a route through neither Bernoulli numbers nor the
    # Laplace transform.
    kappa = [
        3.0 * 2.0 ** (m - 1) * math.factorial(m - 1) * zeta(2 * m) / math.pi ** (2 * m)
        for m in range(1, 7)
    ]
    energy = excursion_energy_moments(6)
    assert energy[:2] == [Fraction(1, 2), Fraction(19, 60)]
    np.testing.assert_allclose([float(m) for m in energy], moments_from_cumulants(kappa), rtol=1e-13)
    # E Z_p: the area, the energy, and E |3-d bridge|^4 = 15 (t(1 - t))^2.
    for p, want in ((1.0, math.sqrt(math.pi / 8.0)), (2.0, 0.5), (4.0, 0.5)):
        assert excursion_pow_mean(p) == pytest.approx(want, rel=1e-14)


def test_stick_breaking_map_matches_pair_density_forms():
    # The closed forms from the single and pair densities of the sticks.
    x1 = stick_breaking_sum_moments(excursion_area_moments(2), 1.5)
    assert x1 == pytest.approx([MEAN_X1, SECOND_MOMENT_X1], rel=1e-14)
    x2sq = stick_breaking_sum_moments(excursion_energy_moments(1), 2.0)
    assert x2sq == pytest.approx([SECOND_MOMENT_X2], rel=1e-14)


def test_stick_breaking_map_matches_direct_sample():
    # sum_i l_i^a Z_i with Z_i ~ Exp(1), E Z^n = n!, drawn directly from 48
    # sticks (the stick left is about e^-48), at a = 1.5 and 2.25.
    rng = np.random.default_rng(2026)
    u = rng.random((100_000, 48))
    sticks = u * np.cumprod(np.concatenate([np.ones((u.shape[0], 1)), 1.0 - u[:, :-1]], axis=1), axis=1)
    z = rng.exponential(size=u.shape)
    for a in (1.5, 2.25):
        s = np.sum(sticks**a * z, axis=1)
        for k, want in enumerate(stick_breaking_sum_moments([1, 2, 6], a), 1):
            values = s**k
            se = values.std(ddof=1) / math.sqrt(values.size)
            assert abs(values.mean() - want) <= 3.0 * se, (a, k, values.mean(), want, se)


def test_area_oracle_matches_exact_moments():
    # The law has mass under 1e-20 above 3.
    mass, mean, second = (
        quad(lambda x: x**k * area_density(x), 0.0, 3.0, limit=200, epsabs=1e-15, epsrel=1e-13)[0]
        for k in range(3)
    )
    assert abs(mass - 1.0) < 1e-11 and abs(area_cdf(3.0)[0] - 1.0) < 1e-11
    want = excursion_area_moments(2)
    assert abs(mean - want[0]) < 1e-10 and abs(second - want[1]) < 1e-10


def test_energy_oracle_matches_exact_moments():
    # E Y = int (1 - F) and E Y^2 = int 2y (1 - F) over [0, 8], past which
    # 1 - F is below 1e-16, by 12-point Gauss-Legendre on each of four pieces.
    edges = (0.0, 0.3, 1.0, 3.0, 8.0)
    mean = second = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mean += fixed_quad(lambda y: 1.0 - energy_cdf(y), lo, hi, n=12)[0]
        second += fixed_quad(lambda y: 2.0 * y * (1.0 - energy_cdf(y)), lo, hi, n=12)[0]
    want = excursion_energy_moments(2)
    assert abs(mean - float(want[0])) < 1e-8 and abs(second - float(want[1])) < 1e-8
