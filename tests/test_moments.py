"""Exact-moment gates for the limit engine and the grid route.

The engine draws the uniform limit ``X_p = ||LCM(W) - W||_p`` with no grid
hull, so its means sit on the exact moments in ``oracle_utils`` within Monte
Carlo error (two-sided, 3 se): the moments of X_1 and X_2^2 of orders 1 to
4, and E X_p^p at norm indices the engine samples.  The grid route (the gap
norm of a sampled Wiener path) takes the hull of the grid points, which lies
below the hull of the whole path, so its mean falls below the exact one.
"""

import math

import numpy as np

from lcmtest import coupling, limits, models
from lcmtest.streams import substream
from oracle_utils import (
    KENNEDY_MEAN,
    KENNEDY_SECOND_MOMENT,
    MEAN_X1,
    excursion_area_moments,
    excursion_energy_moments,
    excursion_pow_mean,
    stick_breaking_sum_moments,
    sup_gap_quantiles,
)

UNIFORM = models.extract_intervals(models.UniformCdf())


def _mean_and_se(values):
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1)) / math.sqrt(values.size)


def _assert_within_3se(values, exact, name):
    mean, se = _mean_and_se(values)
    assert abs(mean - exact) <= 3.0 * se, f"{name}: {mean:.6f} vs exact {exact:.6f}, se {se:.6f}"


def test_engine_matches_exact_moments_at_default_budget():
    # X_1 = sum_i l_i^{3/2} A_i and X_2^2 = sum_i l_i^2 Y_i.
    config = limits.SimConfig(limits.DEFAULT_GRID, 20_000, 8181)
    draws = limits.simulate_draws(UNIFORM, (1.0, 2.0), config)
    x1, x2sq = draws[:, 0], draws[:, 1] ** 2
    exact_x1 = stick_breaking_sum_moments(excursion_area_moments(4), 1.5)
    exact_x2sq = stick_breaking_sum_moments(excursion_energy_moments(4), 2.0)
    for k in range(1, 5):
        _assert_within_3se(x1**k, exact_x1[k - 1], f"E X_1^{k}")
        _assert_within_3se(x2sq**k, exact_x2sq[k - 1], f"E X_2^{2 * k}")


def test_sampled_route_matches_exact_mean_power():
    # At p outside {1, 2, inf} the engine samples each face's excursion on
    # about budget * l_i points: E X_p^p = E Z_p / (1 + p/2).
    ps = (2.5, 3.0)
    draws = limits.simulate_draws(UNIFORM, ps, limits.SimConfig(1024, 20_000, 8585))
    for j, p in enumerate(ps):
        _assert_within_3se(draws[:, j] ** p, excursion_pow_mean(p) / (1.0 + p / 2.0), f"E X_{p}^{p}")


def test_kennedy_draws_match_exact_moments():
    u = np.random.default_rng(8282).random(1_000_000)
    draws = limits._face_quantiles([math.inf], u)[math.inf]
    _assert_within_3se(draws, KENNEDY_MEAN, "Kennedy mean")
    _assert_within_3se(draws**2, KENNEDY_SECOND_MOMENT, "Kennedy second moment")


def test_engine_sup_matches_exact_quantiles():
    config = limits.SimConfig(limits.DEFAULT_GRID, 20_000, 8383)
    draws = np.sort(limits.simulate_draws(UNIFORM, (math.inf,), config)[:, 0])
    for alpha, exact in sup_gap_quantiles((0.01, 0.05, 0.10)).items():
        est = limits.estimate_quantiles(draws, [alpha])[alpha]
        assert abs(est.quantile - exact) <= 3.0 * est.se, (alpha, est, exact)


def test_grid_route_falls_below_exact_mean():
    grid = coupling.uniform_grid(1024)
    x1 = []  # ||gap||_1, no root needed
    for lo in range(0, 4000, 250):
        paths = coupling.sample_wiener(grid, [substream(8484, i) for i in range(lo, lo + 250)])
        x1.extend(coupling.pow_integral_from_gaps(grid, coupling.lcm_gap_on_grid(grid, paths), 1.0).tolist())
    mean, se = _mean_and_se(x1)
    assert mean + 3.0 * se < MEAN_X1, (mean, se, MEAN_X1)
