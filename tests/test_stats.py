import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmtest import models, pwl, stats
from oracle_utils import exact_hull_values
from test_models import concave_specs

SQRT_SIXTH = math.sqrt(1.0 / 6.0)  # scaled L^2 distance for both worked samples


# -- the statistic -------------------------------------------------------------------


def test_lp_stat_quarter_one():
    res = stats.lp_stat([0.25, 1.0], 2.0)
    assert res.value == pytest.approx(SQRT_SIXTH, rel=1e-12)
    assert res.n == 2 and res.kind == "lp"


def test_lp_stat_half_one_same_value():
    # Both difference profiles integrate to 1/12, so the values coincide.
    assert stats.lp_stat([0.5, 1.0], 2.0).value == pytest.approx(SQRT_SIXTH, rel=1e-12)


def test_lp_stat_sup_single_point():
    assert stats.lp_stat([1.0], math.inf).value == 1.0


def test_lp_stat_up_to_the_largest_p():
    # At n = 10^6 the largest gap is ~1e-3, and its 64th power is still a
    # normal double: the norms rise with p towards the sup and none is 0.
    samples = np.random.default_rng(11).random(10**6)
    values = [stats.lp_stat(samples, p).value for p in (2.0, 8.0, 32.0, pwl.MAX_P, math.inf)]
    assert values[0] > 0.0
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_lp_stat_sup_is_breakpoint_max():
    samples = [0.2, 0.7, 1.0]
    res = stats.lp_stat(samples, math.inf)
    px, py = pwl.ecdf_corners(samples)
    hull = np.array([float(v) for v in exact_hull_values(px, py)])
    left_limits = hull[1:] - py[:-1]
    post_jump = hull - py
    want = math.sqrt(3) * max(left_limits.max(), post_jump.max())
    assert res.value == pytest.approx(want, rel=1e-12)


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


def test_lp_stat_over_a_subnormal_spacing():
    # 1/54 at p = 2; a slope over the spacing 5e-324 overflowed when the
    # hull was interpolated on unscaled abscissae.
    samples = [5e-324, 1e-323, 0.5]
    assert stats.exact_gap_pow_integral(samples, 2) == Fraction(1, 54)
    for p, want in ((1.0, math.sqrt(3) / 12), (2.0, math.sqrt(3 / 54)), (np.inf, 1 / math.sqrt(3))):
        assert stats.lp_stat(samples, p).value == pytest.approx(want, rel=1e-14)


@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=20),
    st.sampled_from([5e-324, 1e-323, 2.5e-310, 1e-300]),
    st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_lp_stat_matches_exact_at_subnormal_spacings(steps, scale, far):
    # Observations spaced by multiples of a subnormal or tiny step, with
    # observations far from them that keep the integral a normal double.
    samples = np.concatenate((np.asarray(steps, dtype=float) * scale, far))
    for p in (1, 2):
        exact = float(stats.exact_gap_pow_integral(samples, p))
        got = (stats.lp_stat(samples, float(p)).value / math.sqrt(samples.size)) ** p
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("p", [5, 8, 16])
def test_exact_gap_integral_matches_closed_form_above_p_4(rng, p):
    # Above p = 4 the ramp integrals take the closed form, not the power sum.
    for samples in [rng.random(int(rng.integers(1, 12))) for _ in range(25)]:
        exact = float(stats.exact_gap_pow_integral(samples, p))
        got = (stats.lp_stat(samples, float(p)).value / math.sqrt(samples.size)) ** p
        assert got == pytest.approx(exact, rel=1e-10, abs=0.0)


# -- invariants -----------------------------------------------------------------------


@given(
    st.lists(st.floats(0.001, 1.0), min_size=1, max_size=20),
    st.sampled_from([1.0, 2.0, 2.5, np.inf]),
    st.randoms(),
)
@settings(max_examples=100, deadline=None)
def test_permutation_invariance(samples, p, pyrandom):
    base = stats.lp_stat(samples, p).value
    shuffled = list(samples)
    pyrandom.shuffle(shuffled)
    assert stats.lp_stat(shuffled, p).value == base


@given(concave_specs(), st.lists(st.floats(0.001, 1.0), min_size=1, max_size=25))
@settings(max_examples=150, deadline=None)
def test_sup_statistic_grows_under_pit(spec, samples):
    # The sup-norm statistic never decreases when observations are replaced
    # by their probability-integral transforms under a concave CDF.
    before = stats.lp_stat(samples, math.inf).value
    transformed = models.evaluate(spec, samples)
    if float(np.max(transformed)) == 0.0:
        return
    after = stats.lp_stat(transformed, math.inf).value
    assert before <= after + 1e-12


def test_finite_p_monotonicity_can_fail():
    # The two worked samples: the transformed value is NOT larger at p=2
    # (both equal sqrt(1/6)), so no finite-p monotonicity is asserted.
    before = stats.lp_stat([0.25, 1.0], 2.0).value
    after = stats.lp_stat(models.evaluate(models.PowerCdf(0.5), [0.25, 1.0]), 2.0).value
    assert after == pytest.approx(before, rel=1e-12)
