import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmtest import models, stats
from test_models import concave_specs

SQRT_SIXTH = math.sqrt(1.0 / 6.0)  # scaled L^2 distance for both worked samples


# -- unweighted statistic -----------------------------------------------------------


def test_lp_stat_quarter_one():
    res = stats.lp_stat([0.25, 1.0], 2.0)
    assert res.value == pytest.approx(SQRT_SIXTH, rel=1e-12)
    assert res.n == 2 and res.kind == "lp"


def test_lp_stat_half_one_same_value():
    # Both difference profiles integrate to 1/12, so the values coincide.
    assert stats.lp_stat([0.5, 1.0], 2.0).value == pytest.approx(SQRT_SIXTH, rel=1e-12)


def test_lp_stat_sup_single_point():
    assert stats.lp_stat([1.0], math.inf).value == 1.0


def test_lp_stat_sup_is_breakpoint_max():
    samples = [0.2, 0.7, 1.0]
    res = stats.lp_stat(samples, math.inf)
    from lcmtest import pwl

    f = pwl.build_ecdf(samples)
    m = pwl.lcm_of_step(f)
    left_limits = np.asarray(m.evaluate(f.xs)) - np.concatenate(([0.0], f.vs[:-1]))
    post_jump = np.asarray(m.evaluate(f.xs)) - f.vs
    want = math.sqrt(3) * max(left_limits.max(), post_jump.max(), m.evaluate(0.0))
    assert res.value == pytest.approx(want, rel=1e-12)


# -- weighted statistic -------------------------------------------------------------


def test_weighted_uniform_equals_lp():
    a = stats.weighted_stat([0.25, 1.0], 2.0, models.UniformCdf()).value
    b = stats.lp_stat([0.25, 1.0], 2.0).value
    assert a == pytest.approx(b, rel=1e-14)


def test_weighted_power_closed_form():
    # Hand antiderivative: (2/5)u^{5/2} - (1/3)u^{3/2} + (1/8)u^{1/2} on the
    # second ramp; total integral 13/216, statistic sqrt(2 * 13/216).
    res = stats.weighted_stat([0.25, 1.0], 2.0, models.PowerCdf(0.5))
    assert res.value == pytest.approx(math.sqrt(2 * 13 / 216), rel=1e-9)


def test_weighted_single_point_p1():
    res = stats.weighted_stat([1.0], 1.0, models.UniformCdf())
    assert res.value == pytest.approx(0.5, rel=1e-14)


def test_weighted_piecewise_weight_matches_quadrature():
    from scipy.integrate import quad
    from lcmtest import pwl

    samples = [0.15, 0.35, 0.6, 1.0]
    weight = models.PiecewiseAffineCdf.from_knots([(0, 0), (0.3, 0.6), (0.9, 1)])
    p = 2.0
    res = stats.weighted_stat(samples, p, weight)

    f = pwl.build_ecdf(samples)
    m = pwl.lcm_of_step(f)

    def integrand(u):
        gap = max(float(m.evaluate(u)) - float(f.evaluate(u)), 0.0)
        du = 1e-7
        dens = (models.evaluate(weight, u + du) - models.evaluate(weight, max(u - du, 0.0))) / (
            2 * du
        )
        return gap**p * dens

    want, _ = quad(integrand, 0.0, 1.0, points=[0.15, 0.3, 0.35, 0.6, 0.9], limit=200)
    assert res.value == pytest.approx(math.sqrt(4 * want), rel=1e-4)


def test_weighted_rejects_inf():
    with pytest.raises(ValueError):
        stats.weighted_stat([0.5, 1.0], math.inf, models.UniformCdf())


# -- empirically weighted statistic ---------------------------------------------------


def test_empirical_touching_hull_gives_zero():
    assert stats.empirical_stat([0.25, 1.0], 2.0).value == 0.0


def test_empirical_three_points():
    res = stats.empirical_stat([0.2, 0.3, 1.0], 2.0)
    assert res.value == pytest.approx(1.0 / 9.0, rel=1e-12)


def test_empirical_single_point():
    assert stats.empirical_stat([1.0], 1.0).value == 0.0


def test_empirical_rejects_inf():
    with pytest.raises(ValueError):
        stats.empirical_stat([0.5, 1.0], math.inf)


# -- exact rational route -------------------------------------------------------------


def test_exact_gap_integral_worked_examples():
    assert stats.exact_gap_pow_integral([0.25, 1.0], 2) == Fraction(1, 12)
    assert stats.exact_gap_pow_integral([0.5, 1.0], 2) == Fraction(1, 12)


def test_exact_gap_integral_matches_float(rng):
    cases = [rng.random(int(rng.integers(1, 12))) for _ in range(25)] + [rng.random(2000)]
    for samples in cases:
        for p in (1, 2, 3):
            exact = float(stats.exact_gap_pow_integral(samples, p))
            got = (stats.lp_stat(samples, float(p)).value / math.sqrt(samples.size)) ** p
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-15)


# -- invariants -----------------------------------------------------------------------


@given(
    st.lists(st.floats(0.001, 1.0), min_size=1, max_size=20),
    st.sampled_from([1.0, 2.0, 2.5, np.inf]),
    st.randoms(),
)
@settings(max_examples=100, deadline=None)
def test_permutation_invariance(samples, p, pyrandom):
    if np.isinf(p):
        base = stats.lp_stat(samples, p).value
    else:
        base = (
            stats.lp_stat(samples, p).value,
            stats.empirical_stat(samples, p).value,
        )
    shuffled = list(samples)
    pyrandom.shuffle(shuffled)
    if np.isinf(p):
        assert stats.lp_stat(shuffled, p).value == base
    else:
        assert (
            stats.lp_stat(shuffled, p).value,
            stats.empirical_stat(shuffled, p).value,
        ) == base


@given(concave_specs(), st.lists(st.floats(0.001, 1.0), min_size=1, max_size=25))
@settings(max_examples=150, deadline=None)
def test_sup_statistic_grows_under_pit(spec, samples):
    # The sup-norm statistic never decreases when observations are replaced
    # by their probability-integral transforms under a concave CDF.
    before = stats.lp_stat(samples, math.inf).value
    transformed = models.pit_transform(spec, samples)
    if float(np.max(transformed)) == 0.0:
        return
    after = stats.lp_stat(transformed, math.inf).value
    assert before <= after + 1e-12


def test_finite_p_monotonicity_can_fail():
    # The two worked samples: the transformed value is NOT larger at p=2
    # (both equal sqrt(1/6)), so no finite-p monotonicity is asserted.
    before = stats.lp_stat([0.25, 1.0], 2.0).value
    after = stats.lp_stat(models.pit_transform(models.PowerCdf(0.5), [0.25, 1.0]), 2.0).value
    assert after == pytest.approx(before, rel=1e-12)
