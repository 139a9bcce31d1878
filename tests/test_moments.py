"""Exact-moment gates for the limit engine and the grid route.

The engine draws the uniform limit ``X_p = ||LCM(W) - W||_p`` with no grid
hull, so its means sit on the exact moments in ``oracle_utils`` within Monte
Carlo error (two-sided, 3 se).  The grid route (the gap norm of a sampled
Wiener path) takes the hull of the grid points, which lies below the hull of
the whole path, so its mean falls below the exact one.
"""

import math

import numpy as np

from lcmtest import coupling, limits, models
from lcmtest.streams import substream
from oracle_utils import (
    KENNEDY_MEAN,
    KENNEDY_SECOND_MOMENT,
    MEAN_X1,
    SECOND_MOMENT_X1,
    SECOND_MOMENT_X2,
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
    config = limits.SimConfig(limits.DEFAULT_GRID, 20_000, 8181)
    draws = limits.simulate_draws(UNIFORM, (1.0, 2.0), config)
    x1, x2 = draws[:, 0], draws[:, 1]
    _assert_within_3se(x1, MEAN_X1, "E X_1")
    _assert_within_3se(x1**2, SECOND_MOMENT_X1, "E X_1^2")
    _assert_within_3se(x2**2, SECOND_MOMENT_X2, "E X_2^2")


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
        x1.extend(coupling.gap_pow_integral(grid, paths, 1.0).tolist())
    mean, se = _mean_and_se(x1)
    assert mean + 3.0 * se < MEAN_X1, (mean, se, MEAN_X1)
