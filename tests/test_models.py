import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from lcmtest import coupling, models

TWO_SEGMENT = models.PiecewiseAffineCdf.from_knots([(0, 0), (0.5, 0.75), (1, 1)])


# -- evaluation ---------------------------------------------------------------------


def test_evaluate_uniform():
    assert models.evaluate(models.UniformCdf(), 0.3) == 0.3


def test_evaluate_power():
    assert models.evaluate(models.PowerCdf(0.5), 0.25) == 0.5


def test_evaluate_piecewise():
    assert models.evaluate(TWO_SEGMENT, 0.25) == 0.375
    assert models.evaluate(TWO_SEGMENT, 1.7) == 1.0


def test_evaluate_rejects_negative():
    with pytest.raises(ValueError):
        models.evaluate(models.UniformCdf(), -0.1)


# -- spec validation ----------------------------------------------------------------


def test_piecewise_rejects_slope_increase():
    with pytest.raises(ValueError):
        models.PiecewiseAffineCdf.from_knots([(0, 0), (0.5, 0.25), (1, 1)])


def test_piecewise_merges_equal_slopes():
    spec = models.PiecewiseAffineCdf.from_knots([(0, 0), (0.25, 0.45), (0.5, 0.9), (1, 1)])
    assert spec.xs == (0.0, 0.5, 1.0)
    assert spec.ys == (0.0, 0.9, 1.0)


def test_piecewise_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        models.PiecewiseAffineCdf.from_knots([(0.1, 0), (1, 1)])
    with pytest.raises(ValueError):
        models.PiecewiseAffineCdf.from_knots([(0, 0), (1, 0.9)])
    with pytest.raises(ValueError):
        models.PiecewiseAffineCdf.from_knots([(0, 0), (1.2, 1)])


@pytest.mark.parametrize(
    "knots",
    [
        [(0, 0), (math.nan, 0.5), (1, 1)],
        [(0, 0), (0.5, math.nan), (1, 1)],
        [(0, 0), (0.5, 0.75), (math.nan, 1)],
        [(0, 0), (math.inf, 0.5), (1, 1)],
    ],
    ids=["nan-x", "nan-y", "nan-end", "inf-x"],
)
def test_piecewise_rejects_non_finite_knots(knots):
    # NaN fails every comparison, so no order or slope check would trip on it.
    with pytest.raises(ValueError, match="knots must be finite"):
        models.PiecewiseAffineCdf.from_knots(knots)


def test_power_gamma_range():
    with pytest.raises(ValueError):
        models.PowerCdf(0.0)
    with pytest.raises(ValueError):
        models.PowerCdf(1.5)


# -- interval structure -------------------------------------------------------------


def test_intervals_uniform():
    iv = models.extract_intervals(models.UniformCdf())
    assert iv.as_tuples() == [(0.0, 1.0, 1.0, 1.0)]


def test_intervals_power_is_empty():
    iv = models.extract_intervals(models.PowerCdf(0.5))
    assert iv.is_empty and len(iv) == 0 and iv.d.size == 0


def test_intervals_power_gamma_one_is_unit():
    iv = models.extract_intervals(models.PowerCdf(1.0))
    assert iv.as_tuples() == [(0.0, 1.0, 1.0, 1.0)]


def test_intervals_two_segment():
    iv = models.extract_intervals(TWO_SEGMENT)
    assert iv.as_tuples() == [(0.0, 0.5, 0.5, 0.75), (0.5, 1.0, 0.5, 0.25)]


def test_intervals_sum_exact_for_piecewise():
    spec = models.PiecewiseAffineCdf.from_knots([(0, 0), (0.25, 0.5), (0.4, 0.72), (0.8, 1)])
    iv = models.extract_intervals(spec)
    assert float(iv.d.sum()) == pytest.approx(spec.xs[-1], abs=1e-15)
    assert iv.d.tolist() == np.diff(spec.xs).tolist()
    assert float(iv.h.sum()) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "a, b, h",
    [
        ([0.0], [0.5, 1.0], [0.5]),
        ([0.5], [0.5], [0.5]),
        ([0.0], [0.5], [0.0]),
        ([0.5, 0.0], [1.0, 0.5], [0.5, 0.5]),
        ([0.0, 0.4], [0.5, 1.0], [0.5, 0.5]),
        ([0.5], [1.5], [0.5]),
        ([0.0, 0.5], [0.5, 1.0], [0.75, 0.5]),
    ],
    ids=["shapes", "no-width", "no-rise", "unsorted", "overlapping", "past-1", "rise-over-1"],
)
def test_interval_structure_rejects_invalid(a, b, h):
    with pytest.raises(ValueError):
        models.IntervalStructure(np.array(a), np.array(b), np.array(h))


# -- coupling lengths ---------------------------------------------------------------


def test_coupling_lengths_two_segment():
    iv = models.extract_intervals(TWO_SEGMENT)
    lengths = coupling.coupling_lengths(iv, 2.0)
    np.testing.assert_allclose(lengths, [math.sqrt(0.375), math.sqrt(0.125)], rtol=1e-15)
    assert lengths.sum() <= 1.0


def test_coupling_lengths_unit_interval():
    iv = models.extract_intervals(models.UniformCdf())
    for p in (1.0, 2.0, 7.5):
        assert coupling.coupling_lengths(iv, p).tolist() == [1.0]


def test_coupling_lengths_depth_equals_rise():
    iv = models.IntervalStructure(np.array([0.0]), np.array([0.5]), np.array([0.5]))
    assert coupling.coupling_lengths(iv, 2.0)[0] == pytest.approx(0.5, rel=1e-15)


def test_coupling_lengths_reject_inf():
    iv = models.extract_intervals(models.UniformCdf())
    with pytest.raises(ValueError):
        coupling.coupling_lengths(iv, math.inf)


@st.composite
def concave_specs(draw):
    k = draw(st.integers(1, 5))
    widths = draw(st.lists(st.integers(1, 20), min_size=k, max_size=k))
    slopes = draw(st.lists(st.integers(1, 60), min_size=k, max_size=k, unique=True))
    slopes = sorted(slopes, reverse=True)
    xbar = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    w = np.asarray(widths, dtype=float)
    w *= xbar / w.sum()
    h = np.asarray(slopes, dtype=float) * w
    h /= h.sum()
    xs = np.concatenate(([0.0], np.cumsum(w)))
    ys = np.concatenate(([0.0], np.cumsum(h)))
    xs[-1], ys[-1] = xbar, 1.0
    return models.PiecewiseAffineCdf(tuple(xs), tuple(ys))


@given(concave_specs(), st.sampled_from([1.0, 1.5, 2.0, 3.0, 10.0]))
@settings(max_examples=150, deadline=None)
def test_coupling_lengths_sum_below_one(spec, p):
    iv = models.extract_intervals(spec)
    lengths = coupling.coupling_lengths(iv, p)
    assert float(lengths.sum()) <= 1.0 + 1e-12
    # AM-GM bound, interval by interval
    bound = 2.0 / (p + 2.0) * iv.d + p / (p + 2.0) * iv.h
    assert np.all(lengths <= bound + 1e-12)


# -- sampling and PIT ---------------------------------------------------------------


def test_quantile_examples():
    assert models.quantile(models.UniformCdf(), 0.42) == 0.42
    assert models.quantile(models.PowerCdf(0.5), 0.5) == 0.25
    assert models.quantile(TWO_SEGMENT, 0.75) == 0.5


def test_pit_examples():
    np.testing.assert_allclose(
        models.evaluate(models.PowerCdf(0.5), [0.25, 1.0]), [0.5, 1.0]
    )
    samples = [0.1, 0.4, 0.9]
    np.testing.assert_allclose(models.evaluate(models.UniformCdf(), samples), samples)
    np.testing.assert_allclose(models.evaluate(TWO_SEGMENT, [0.5]), [0.75])


def test_inverse_cdf_sample_deterministic():
    a = models.inverse_cdf_sample(models.PowerCdf(0.5), 10, 7)
    b = models.inverse_cdf_sample(models.PowerCdf(0.5), 10, 7)
    np.testing.assert_array_equal(a, b)
    assert np.all((a >= 0) & (a <= 1))


@pytest.mark.parametrize(
    "spec", [models.UniformCdf(), models.PowerCdf(0.5), TWO_SEGMENT], ids=["unif", "pow", "pwa"]
)
def test_pit_of_samples_is_uniform(spec):
    draws = models.inverse_cdf_sample(spec, 100_000, 991)
    u = models.evaluate(spec, draws)
    assert kstest(u, "uniform").pvalue > 1e-3


# -- serialization ------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec", [models.UniformCdf(), models.PowerCdf(0.25), TWO_SEGMENT], ids=["unif", "pow", "pwa"]
)
def test_spec_dict_roundtrip(spec):
    assert models.spec_from_dict(models.spec_to_dict(spec)) == spec


def test_spec_from_dict_rejects_junk():
    with pytest.raises(ValueError):
        models.spec_from_dict({"type": "cauchy"})
    with pytest.raises(ValueError):
        models.spec_from_dict({"gamma": 0.5})
    with pytest.raises(ValueError):
        models.spec_from_dict({"type": "power"})
