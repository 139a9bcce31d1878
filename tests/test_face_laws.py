"""Arbiters of the limit engine's exact face laws.

At p = 1, 2 and inf the engine maps one uniform per majorant face through a
tabulated inverse CDF: the area A of a standard Brownian excursion (the
Airy law, from its density series), its energy Y = int e^2 (by Talbot
inversion of its Laplace transform) and its maximum K (Kennedy's law).  The
tables are checked against exact moments, which come from other
mathematics, and the draws against the engine's sampled-excursion route,
which shares neither the Airy series nor the inversion.
"""

import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from lcmtest import limits
from lcmtest.streams import generator, substream


def _drawn_moments(cdf, xs):
    # Mean and second moment of np.interp(U, cdf, xs), the law the engine
    # draws: uniform on each table cell, with the cell's CDF increment as mass.
    mass = np.diff(cdf)
    a, b = xs[:-1], xs[1:]
    return float(mass @ (0.5 * (a + b))), float(mass @ ((a * a + a * b + b * b) / 3.0))


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_face_law_tables_are_cdfs(p):
    cdf, xs = limits._FACE_LAWS[p]()
    assert np.all(np.diff(xs) > 0.0) and np.all(np.diff(cdf) >= 0.0)
    assert 0.0 <= cdf[0] < 1e-15 and abs(cdf[-1] - 1.0) <= 1e-10
    assert not cdf.flags.writeable and not xs.flags.writeable


def test_area_table_matches_exact_moments():
    # E A = sqrt(pi/8), E A^2 = 5/12 (Janson 2007).  The table's trapezoid
    # mean is good to 1e-12; interpolating it adds ~1e-7 to E A^2.
    cdf, xs = limits._area_table()
    assert abs(xs[0] + trapezoid(1.0 - cdf, xs) - math.sqrt(math.pi / 8.0)) < 1e-11
    mean, second = _drawn_moments(cdf, xs)
    assert abs(mean - math.sqrt(math.pi / 8.0)) < 1e-10
    assert abs(second - 5.0 / 12.0) < 1e-6


def test_energy_table_matches_exact_moments():
    # The cumulants of Y are read off log phi(s) = 1.5 log(x / sinh x),
    # x = sqrt(2s): E Y = 1/2 and Var Y = 1/15.
    cdf, ys = limits._energy_table()
    assert abs(ys[0] + trapezoid(1.0 - cdf, ys) - 0.5) < 1e-10
    mean, second = _drawn_moments(cdf, ys)
    assert abs(mean - 0.5) < 1e-10
    assert abs(second - mean**2 - 1.0 / 15.0) < 1e-6


def test_face_quantiles_ordered_on_a_fine_grid():
    # int e <= (int e^2)^{1/2} <= max e on every excursion, so the quantile
    # functions keep that order, which makes X_1 <= X_2 <= X_inf draw by draw.
    tails = np.logspace(-15, -3, 1000)
    u = np.concatenate([tails, np.linspace(0.0, 1.0, 1_000_001)[1:-1], 1.0 - tails])
    area = limits._face_quantile(1.0, u)
    root_energy = np.sqrt(limits._face_quantile(2.0, u))
    top = limits._face_quantile(math.inf, u)
    assert (root_energy - area).min() > 0.01
    assert (top - root_energy).min() > 0.1


def test_sampled_excursions_match_exact_face_laws_in_mean():
    # The sampled-excursion route at budget 1024, called directly, against
    # the exact face laws on independent streams: the means of X_1 and
    # X_2^2 agree within 3 combined se.
    n = 20_000
    sampled = []
    for lo in range(0, n, 500):
        rngs = [generator(substream(9191, i, 0)) for i in range(lo, lo + 500)]
        lengths, counts = limits._face_lengths(rngs)
        first = np.concatenate([[0], np.cumsum(counts[:-1])])
        sampled.append(
            limits._excursion_pow_integrals(rngs, lengths, counts, first, 1024, (1.0, 2.0))
        )
    x1_sampled, x2sq_sampled = np.concatenate(sampled, axis=1)
    exact = limits.simulate_draws(limits._UNIT, (1.0, 2.0), limits.SimConfig(1024, n, 9292))
    for name, a, b in (
        ("E X_1", x1_sampled, exact[:, 0]),
        ("E X_2^2", x2sq_sampled, exact[:, 1] ** 2),
    ):
        se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(n)
        assert abs(a.mean() - b.mean()) <= 3.0 * se, (name, a.mean(), b.mean(), se)
