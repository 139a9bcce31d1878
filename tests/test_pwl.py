import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmtest import pwl
from oracle_utils import (
    eval_pl_exact,
    exact_hull_values,
    qhull_upper_hull,
    quad_gap_norm,
    step_hull_points,
)

NORM_RTOL = 1e-8


# -- construction ----------------------------------------------------------------


def test_build_ecdf_basic():
    f = pwl.build_ecdf([0.25, 1.0])
    assert f.xs.tolist() == [0.25, 1.0]
    assert f.vs.tolist() == [0.5, 1.0]


def test_build_ecdf_single():
    f = pwl.build_ecdf([0.5])
    assert f.xs.tolist() == [0.5]
    assert f.vs.tolist() == [1.0]


def test_build_ecdf_ties_merge():
    f = pwl.build_ecdf([0.3, 0.3])
    assert f.xs.tolist() == [0.3]
    assert f.vs.tolist() == [1.0]


def test_build_ecdf_rejects_bad_input():
    with pytest.raises(ValueError):
        pwl.build_ecdf([])
    with pytest.raises(ValueError):
        pwl.build_ecdf([0.5, 1.5])
    with pytest.raises(ValueError):
        pwl.build_ecdf([-0.1])
    with pytest.raises(ValueError):
        pwl.build_ecdf([0.2, np.nan])


def test_step_evaluate():
    f = pwl.build_ecdf([0.25, 1.0])
    assert f.evaluate(0.1) == 0.0
    assert f.evaluate(0.25) == 0.5
    assert f.evaluate(0.9) == 0.5
    assert f.evaluate(1.0) == 1.0
    assert f.evaluate(2.0) == 1.0


# -- hulls -------------------------------------------------------------------------


def test_lcm_of_step_two_jumps():
    m = pwl.lcm_of_step(pwl.build_ecdf([0.25, 1.0]))
    assert m.xs.tolist() == [0.0, 0.25, 1.0]
    assert m.ys.tolist() == [0.0, 0.5, 1.0]


def test_lcm_of_step_collinear_removed():
    m = pwl.lcm_of_step(pwl.build_ecdf([0.5, 1.0]))
    assert m.xs.tolist() == [0.0, 1.0]
    assert m.ys.tolist() == [0.0, 1.0]


def test_lcm_of_step_single_jump():
    m = pwl.lcm_of_step(pwl.build_ecdf([1.0]))
    assert m.xs.tolist() == [0.0, 1.0]
    assert m.ys.tolist() == [0.0, 1.0]


def test_lcm_of_step_jump_at_zero():
    # A jump at 0 lifts the hull anchor to the post-jump value.
    f = pwl.StepCdf(np.array([0.0, 0.5]), np.array([0.5, 1.0]))
    m = pwl.lcm_of_step(f)
    assert m.evaluate(0.0) == 0.5
    assert np.all(m.evaluate(f.xs) >= f.vs - pwl.MAJORIZATION_TOL)


def test_lcm_of_path_affine():
    assert pwl.lcm_gap_on_grid([0.0, 0.5, 1.0], [0.0, 0.5, 1.0]).tolist() == [0.0, 0.0, 0.0]


def test_lcm_of_path_vee():
    assert pwl.lcm_gap_on_grid([0.0, 0.5, 1.0], [0.5, 0.0, 0.5]).tolist() == [0.0, 0.5, 0.0]


def test_lcm_of_path_restriction():
    # Over the slice [0.5, 1] the path is a single segment: its own majorant.
    grid = np.array([0.0, 0.5, 1.0])
    values = np.array([0.0, 1.0, 0.0])
    assert pwl.lcm_gap_on_grid(grid[1:], values[1:]).tolist() == [0.0, 0.0]


# -- difference segments -----------------------------------------------------------


def test_diff_segments_chord():
    f = pwl.build_ecdf([1.0])
    m = pwl.lcm_of_step(f)
    d = pwl.diff_segments(m, f, (0.0, 1.0))
    assert d.x_lo.tolist() == [0.0]
    assert d.x_hi.tolist() == [1.0]
    assert d.alpha.tolist() == [0.0]
    assert d.beta.tolist() == [1.0]


def test_diff_segments_two_ramps():
    f = pwl.build_ecdf([0.25, 1.0])
    m = pwl.lcm_of_step(f)
    d = pwl.diff_segments(m, f, (0.0, 1.0))
    assert d.x_lo.tolist() == [0.0, 0.25]
    np.testing.assert_allclose(d.beta, [2.0, 2.0 / 3.0], rtol=1e-15)
    np.testing.assert_allclose(d.alpha, [0.0, -2.0 / 3.0 * 0.25], rtol=1e-15)


def test_diff_segments_identity():
    m = pwl.PiecewiseLinear([0.0, 0.4, 1.0], [0.0, 0.6, 1.0], concave=True)
    d = pwl.diff_segments(m, m, (0.0, 1.0))
    assert np.all(d.v_lo == 0.0) and np.all(d.v_hi == 0.0)


def test_diff_segments_majorization_guard():
    f = pwl.build_ecdf([0.25, 1.0])
    low = pwl.PiecewiseLinear([0.0, 1.0], [0.0, 1.0])  # below the jump at 0.25
    with pytest.raises(pwl.GeometryError):
        pwl.diff_segments(low, f, (0.0, 1.0))


# -- norms --------------------------------------------------------------------------


def test_lp_norm_closed_form():
    f = pwl.build_ecdf([0.25, 1.0])
    d = pwl.diff_segments(pwl.lcm_of_step(f), f, (0.0, 1.0))
    np.testing.assert_allclose(pwl.lp_norm(d, 2.0), math.sqrt(1.0 / 12.0), rtol=1e-14)
    assert pwl.lp_norm(d, np.inf) == 0.5


def test_piecewise_linear_rejects_convex_knots():
    with pytest.raises(ValueError):
        pwl.PiecewiseLinear([0.0, 0.5, 1.0], [0.0, 0.25, 1.0], concave=True)
    # Over subnormal spacings plain slopes overflow; the check must still bite.
    with pytest.raises(ValueError):
        pwl.PiecewiseLinear([0.0, 5e-324, 1e-323], [0.0, 0.25, 1.0], concave=True)


def test_lp_norm_zero_difference():
    m = pwl.PiecewiseLinear([0.0, 1.0], [0.0, 1.0], concave=True)
    d = pwl.diff_segments(m, m, (0.0, 1.0))
    for p in (1.0, 2.0, 2.5, np.inf):
        assert pwl.lp_norm(d, p) == 0.0


def test_lp_norm_rejects_small_p():
    f = pwl.build_ecdf([1.0])
    d = pwl.diff_segments(pwl.lcm_of_step(f), f, (0.0, 1.0))
    with pytest.raises(ValueError):
        pwl.lp_norm(d, 0.5)


def test_ramp_integral_near_constant_stability():
    # Nearly flat ramp: closed form would cancel; fallback stays accurate.
    lo = np.array([0.5])
    hi = np.array([0.5 + 1e-14])
    out = pwl.ramp_pow_integrals(lo, hi, np.array([1.0]), 2.5)
    np.testing.assert_allclose(out, 0.5**2.5, rtol=1e-12)


# -- oracle cross-checks ------------------------------------------------------------


def test_hull_matches_exact_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 51))
        f = pwl.build_ecdf(rng.random(n))
        px, py = step_hull_points(f.xs, f.vs)
        m = pwl.lcm_of_step(f)
        oracle = exact_hull_values(px, py)
        for x, want in zip(px, oracle):
            assert eval_pl_exact(m.xs, m.ys, x) == want


def _tied_samples(rng):
    for _ in range(150):
        yield np.round(rng.random(int(rng.integers(1, 51))), 2)
    for _ in range(50):
        s = rng.random(int(rng.integers(2, 51)))
        s[: s.size // 2] = 0.0
        s[-max(1, s.size // 4) :] = 1.0
        yield s
    for v in (0.3, 1.0, 1e-300):
        yield np.array([v])
    yield np.array([5e-324] * 3 + [1e-323])  # slopes overflow without scaling


def test_hull_matches_exact_oracle_on_ties(rng):
    # Ties, mass at 0 and 1, n = 1 and subnormal spacings.  Tied corners can
    # make the float hull pick a different but numerically equivalent vertex
    # set, so these inputs get a tolerance, not ``==``.
    for samples in _tied_samples(rng):
        f = pwl.build_ecdf(samples)
        px, py = step_hull_points(f.xs, f.vs)
        m = pwl.lcm_of_step(f)
        for x, want in zip(px, exact_hull_values(px, py)):
            assert abs(eval_pl_exact(m.xs, m.ys, x) - want) <= Fraction(1, 2**52)


def test_lp_norm_matches_quadrature(rng):
    for _ in range(40):
        n = int(rng.integers(2, 51))
        f = pwl.build_ecdf(rng.random(n))
        m = pwl.lcm_of_step(f)
        d = pwl.diff_segments(m, f, (0.0, float(f.xs[-1])))
        for p in (1.0, 2.0, 2.5, 3.0):
            want = quad_gap_norm(m.xs, m.ys, f.xs, f.vs, p)
            got = pwl.lp_norm(d, p)
            assert got == pytest.approx(want, rel=NORM_RTOL)


# -- fast grid route -----------------------------------------------------------------


def test_gap_on_grid_matches_knot_route(rng):
    for _ in range(100):
        m = int(rng.integers(2, 200))
        grid = np.sort(rng.random(m + 1))
        grid[0], grid[-1] = 0.0, 1.0
        grid = np.unique(grid)
        if grid.size < 3:
            continue
        values = np.cumsum(rng.standard_normal(grid.size)) * 0.1
        hx, hy = qhull_upper_hull(grid, values)
        want = np.interp(grid, hx, hy) - values
        got = pwl.lcm_gap_on_grid(grid, values)
        np.testing.assert_allclose(got, np.maximum(want, 0.0), atol=1e-11)


def test_gap_on_grid_concave_input_is_exactly_zero():
    grid = np.linspace(0.0, 1.0, 50)
    values = np.sqrt(grid)
    assert np.all(pwl.lcm_gap_on_grid(grid, values) == 0.0)


def test_gap_pow_integral_matches_lp_norm(rng):
    grid = np.linspace(0.0, 1.0, 129)
    values = np.cumsum(rng.standard_normal(129)) * 0.1
    hull = pwl.PiecewiseLinear(*qhull_upper_hull(grid, values), concave=True)
    interp = pwl.PiecewiseLinear(grid, values)
    d = pwl.diff_segments(hull, interp, (0.0, 1.0))
    for p in (1.0, 2.0, 3.0, 2.5):
        want = pwl.lp_norm(d, p) ** p
        got = pwl.gap_pow_integral(grid, values, p)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-15)


# -- property tests ------------------------------------------------------------------


@st.composite
def ecdf_samples(draw):
    vals = draw(
        st.lists(
            st.floats(0.001, 1.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=30,
        )
    )
    return vals


@given(ecdf_samples())
@settings(max_examples=150, deadline=None)
def test_hull_majorizes_and_touches(samples):
    f = pwl.build_ecdf(samples)
    m = pwl.lcm_of_step(f)
    hull_at_jumps = np.asarray(m.evaluate(f.xs))
    assert np.all(hull_at_jumps >= f.vs - pwl.MAJORIZATION_TOL)
    # hull vertices are input points: the hull touches where it bends
    for x, y in zip(m.xs[1:], m.ys[1:]):
        i = np.searchsorted(f.xs, x)
        assert i < f.xs.size and f.xs[i] == x and f.vs[i] == y


@given(ecdf_samples(), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_hull_minimality(samples, salt):
    # Lowering any hull vertex breaks majorization (or drops the anchor
    # below zero, which breaks it at the origin).
    eps = 1e-9 + (salt % 100) * 1e-4
    f = pwl.build_ecdf(samples)
    m = pwl.lcm_of_step(f)
    points_x, points_v = step_hull_points(f.xs, f.vs)
    for k in range(m.xs.size):
        lowered = m.ys.copy()
        lowered[k] -= eps
        low_vals = np.interp(points_x, m.xs, lowered)
        assert np.any(low_vals < points_v - pwl.MAJORIZATION_TOL)


@given(ecdf_samples())
@settings(max_examples=100, deadline=None)
def test_hull_idempotent(samples):
    m = pwl.lcm_of_step(pwl.build_ecdf(samples))
    assert np.all(pwl.lcm_gap_on_grid(m.xs, m.ys) == 0.0)
    assert np.all(np.diff(m.slopes()) < 0.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_gap_affine_shift_invariance(seed):
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 65)
    theta = np.cumsum(rng.standard_normal(65)) * 0.125
    shift = rng.normal() + rng.normal() * grid
    base = pwl.lcm_gap_on_grid(grid, theta)
    shifted = pwl.lcm_gap_on_grid(grid, theta + shift)
    np.testing.assert_allclose(shifted, base, atol=1e-10)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_hull_monotone_under_domain_restriction(seed):
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 33)
    values = np.cumsum(rng.standard_normal(33)) * 0.2
    i0, i1 = sorted(rng.choice(np.arange(33), size=2, replace=False))
    if i1 - i0 < 1:
        return
    inner = slice(i0, i1 + 1)
    small = values[inner] + pwl.lcm_gap_on_grid(grid[inner], values[inner])
    big = values + pwl.lcm_gap_on_grid(grid, values)
    assert np.all(small <= big[inner] + 1e-12)
