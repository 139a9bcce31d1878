"""Checks of the oracles themselves.

Most check the exact sup-gap oracle that criterion 1 uses as its p = inf
reference.  They run in about two seconds, so the reference is checked
without building the full-scale table.  One checks the qhull upper hull
against the exact chord oracle.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from oracle_utils import (
    KENNEDY_SWITCH,
    exact_hull_values,
    kennedy_cdf,
    kennedy_cdf_dual,
    kennedy_cdf_theta,
    qhull_upper_hull,
    sample_sup_gap,
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


def test_sup_gap_cdf_is_a_nondecreasing_cdf():
    xs = np.linspace(0.3, 3.5, 65)
    values = np.array([sup_gap_cdf(x) for x in xs])
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
