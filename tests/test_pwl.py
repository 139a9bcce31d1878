import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from lcmtest import coupling, limits, models, pwl, stats
from lcmtest.streams import substream
from oracle_utils import (
    eval_pl_exact,
    exact_hull_values,
    qhull_gap_pow_integral,
    qhull_upper_hull,
    quad_gap_norm,
)

NORM_RTOL = 1e-8


def _hull(samples):
    px, py = pwl.ecdf_corners(samples)
    idx = pwl.hull_vertices(px, py)
    return px[idx], py[idx]


def _gaps(samples):
    px, py = pwl.ecdf_corners(samples)
    return px, pwl.corner_gaps(px, py, pwl.hull_vertices(px, py))


# -- construction ----------------------------------------------------------------


def test_build_ecdf_basic():
    px, py = pwl.ecdf_corners([0.25, 1.0])
    assert px.tolist() == [0.0, 0.25, 1.0]
    assert py.tolist() == [0.0, 0.5, 1.0]


def test_build_ecdf_single():
    px, py = pwl.ecdf_corners([0.5])
    assert px.tolist() == [0.0, 0.5]
    assert py.tolist() == [0.0, 1.0]


def test_build_ecdf_ties_merge():
    px, py = pwl.ecdf_corners([0.3, 0.3])
    assert px.tolist() == [0.0, 0.3]
    assert py.tolist() == [0.0, 1.0]


def test_build_ecdf_rejects_bad_input():
    with pytest.raises(ValueError):
        pwl.ecdf_corners([])
    with pytest.raises(ValueError):
        pwl.ecdf_corners([0.5, 1.5])
    with pytest.raises(ValueError):
        pwl.ecdf_corners([-0.1])
    with pytest.raises(ValueError):
        pwl.ecdf_corners([0.2, np.nan])
    with pytest.raises(ValueError, match="all observations are zero"):
        pwl.ecdf_corners([0.0, 0.0])


def test_step_evaluate():
    # Corners carry the right-continuous value; mass at 0 replaces the origin.
    px, py = pwl.ecdf_corners([1.0, 0.25, 0.0, 0.25])
    assert px.tolist() == [0.0, 0.25, 1.0]
    assert py.tolist() == [0.25, 0.75, 1.0]


# -- hulls -------------------------------------------------------------------------


def test_lcm_of_step_two_jumps():
    hx, hy = _hull([0.25, 1.0])
    assert hx.tolist() == [0.0, 0.25, 1.0]
    assert hy.tolist() == [0.0, 0.5, 1.0]


def test_lcm_of_step_collinear_removed():
    hx, hy = _hull([0.5, 1.0])
    assert hx.tolist() == [0.0, 1.0]
    assert hy.tolist() == [0.0, 1.0]


def test_lcm_of_step_single_jump():
    hx, hy = _hull([1.0])
    assert hx.tolist() == [0.0, 1.0]
    assert hy.tolist() == [0.0, 1.0]


def test_lcm_of_step_jump_at_zero():
    # A jump at 0 lifts the hull anchor to the post-jump value.
    px, py = pwl.ecdf_corners([0.0, 0.5])
    hx, hy = _hull([0.0, 0.5])
    assert hx[0] == 0.0 and hy[0] == 0.5
    assert np.all(np.interp(px, hx, hy) >= py - pwl.MAJORIZATION_TOL)


def test_lcm_of_path_affine():
    assert coupling.lcm_gap_on_grid([0.0, 0.5, 1.0], [0.0, 0.5, 1.0]).tolist() == [0.0, 0.0, 0.0]


def test_lcm_of_path_vee():
    assert coupling.lcm_gap_on_grid([0.0, 0.5, 1.0], [0.5, 0.0, 0.5]).tolist() == [0.0, 0.5, 0.0]


def test_lcm_of_path_restriction():
    # Over the slice [0.5, 1] the path is a single segment: its own majorant.
    grid = np.array([0.0, 0.5, 1.0])
    values = np.array([0.0, 1.0, 0.0])
    assert coupling.lcm_gap_on_grid(grid[1:], values[1:]).tolist() == [0.0, 0.0]


# -- difference segments -----------------------------------------------------------


def test_diff_segments_chord():
    px, (v_lo, v_hi) = _gaps([1.0])
    assert px.tolist() == [0.0, 1.0]
    assert v_lo.tolist() == [0.0]
    assert v_hi.tolist() == [1.0]


def test_diff_segments_two_ramps():
    px, (v_lo, v_hi) = _gaps([0.25, 1.0])
    beta = (v_hi - v_lo) / np.diff(px)
    alpha = v_lo - beta * px[:-1]
    assert px[:-1].tolist() == [0.0, 0.25]
    np.testing.assert_allclose(beta, [2.0, 2.0 / 3.0], rtol=1e-15)
    np.testing.assert_allclose(alpha, [0.0, -2.0 / 3.0 * 0.25], rtol=1e-15)


def test_diff_segments_identity():
    # Concave corners are all hull vertices: the gap vanishes at each of them.
    px, py = pwl.ecdf_corners([0.1, 0.1, 0.1, 0.4, 1.0])
    idx = pwl.hull_vertices(px, py)
    v_lo, v_hi = pwl.corner_gaps(px, py, idx)
    assert idx.tolist() == list(range(px.size))
    assert np.all(v_lo == 0.0)
    assert v_hi.tolist() == np.diff(py).tolist()


def test_diff_segments_majorization_guard():
    px, py = pwl.ecdf_corners([0.25, 1.0])
    chord = np.array([0, px.size - 1])  # below the corner at 0.25
    with pytest.raises(pwl.GeometryError):
        pwl.corner_gaps(px, py, chord)


# -- norms --------------------------------------------------------------------------


def test_lp_norm_closed_form():
    px, (v_lo, v_hi) = _gaps([0.25, 1.0])
    total = float(np.sum(pwl.ramp_pow_integrals(v_lo, v_hi, np.diff(px), 2.0)))
    np.testing.assert_allclose(math.sqrt(total), math.sqrt(1.0 / 12.0), rtol=1e-14)
    assert max(v_lo.max(), v_hi.max()) == 0.5


def test_piecewise_linear_rejects_convex_knots():
    assert pwl.hull_vertices([0.0, 0.5, 1.0], [0.0, 0.25, 1.0]).tolist() == [0, 2]
    # Over subnormal spacings plain slopes overflow to equal infinities and
    # would pool; the scaled slopes still tell a concave bend from a convex one.
    assert pwl.hull_vertices([0.0, 5e-324, 1e-323], [0.0, 0.25, 1.0]).tolist() == [0, 2]
    assert pwl.hull_vertices([0.0, 5e-324, 1e-323], [0.0, 0.75, 1.0]).tolist() == [0, 1, 2]


def test_lp_norm_zero_difference():
    zeros = np.zeros(3)
    for p in (1.0, 2.0, 2.5):
        assert np.all(pwl.ramp_pow_integrals(zeros, zeros, np.full(3, 0.25), p) == 0.0)


def test_lp_norm_rejects_small_p():
    with pytest.raises(ValueError):
        stats.lp_stat([1.0], 0.5)
    with pytest.raises(ValueError):
        pwl.ramp_pow_integrals([0.0], [1.0], [1.0], 0.5)


@pytest.mark.parametrize("p", [0.5, 64.5, 200.0, 1e5, 1e300, math.nan, -math.inf])
def test_norm_index_rule_at_every_entry_point(p):
    # One ValueError, naming the range, from every function that takes p,
    # before any work that a large p would make hang, overflow or underflow.
    spec = models.PiecewiseAffineCdf.from_knots([(0, 0), (0.5, 0.75), (1, 1)])
    iv = models.extract_intervals(spec)
    calls = [
        lambda: pwl.norm_index(p),
        lambda: pwl.ramp_pow_integrals([0.0], [1.0], [1.0], p),
        lambda: stats.lp_stat([0.25, 1.0], p),
        lambda: stats.exact_gap_pow_integral([0.25, 1.0], p),
        lambda: pwl.norm_index(repr(p)),
        lambda: limits.simulate_draws(iv, (2.0, p), limits.SimConfig(16, 4)),
        lambda: limits.limit_draw_general(iv, p, substream(1, 0), 16),
        lambda: coupling.coupling_lengths(iv, p),
        lambda: coupling.verify_rescaling_identity(spec, p, 1, 1, 16),
        lambda: coupling.verify_dominance_coupling(iv, p, 1, 1, 16),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"\[1, 64\] or 'inf'"):
            call()


def test_ramp_integral_near_constant_stability():
    # Nearly flat ramp: closed form would cancel; fallback stays accurate.
    lo = np.array([0.5])
    hi = np.array([0.5 + 1e-14])
    out = pwl.ramp_pow_integrals(lo, hi, np.array([1.0]), 2.5)
    np.testing.assert_allclose(out, 0.5**2.5, rtol=1e-12)


# -- oracle cross-checks ------------------------------------------------------------


def _assert_hull_matches_oracle(samples, tol=Fraction(0)):
    px, py = pwl.ecdf_corners(samples)
    idx = pwl.hull_vertices(px, py)
    for x, want in zip(px, exact_hull_values(px, py)):
        assert abs(eval_pl_exact(px[idx], py[idx], x) - want) <= tol


def test_hull_matches_exact_oracle(rng):
    for _ in range(200):
        _assert_hull_matches_oracle(rng.random(int(rng.integers(1, 51))))


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
        _assert_hull_matches_oracle(samples, Fraction(1, 2**52))


@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=25),
    st.sampled_from([5e-324, 1e-322, 2.5e-310, 1e-300, 3e-298]),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_hull_matches_exact_oracle_at_tiny_spacings(steps, scale, with_one):
    # Corners spaced by multiples of a subnormal or near-1e-300 step, with or
    # without a far corner at 1 that makes the spacings differ by ~300 decades.
    samples = np.asarray(steps, dtype=float) * scale
    if with_one:
        samples = np.append(samples, 1.0)
    _assert_hull_matches_oracle(samples, Fraction(1, 2**52))


def test_hull_on_a_million_duplicates():
    values = np.array([0.1, 0.3, 0.35, 0.8, 1.0])
    samples = np.random.default_rng(5).permutation(np.repeat(values, 200_000))
    px, py = pwl.ecdf_corners(samples)
    assert px.tolist() == [0.0, *values.tolist()]
    assert py.tolist() == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    _assert_hull_matches_oracle(samples)
    exact = float(stats.exact_gap_pow_integral(values, 2))
    assert (stats.lp_stat(samples, 2.0).value / 1000.0) ** 2 == pytest.approx(exact, rel=1e-12)


def test_lp_norm_matches_quadrature(rng):
    for _ in range(40):
        n = int(rng.integers(2, 51))
        samples = rng.random(n)
        px, py = pwl.ecdf_corners(samples)
        idx = pwl.hull_vertices(px, py)
        for p in (1.0, 2.0, 2.5, 3.0):
            want = quad_gap_norm(px[idx], py[idx], px, py, p)
            got = stats.lp_stat(samples, p).value / math.sqrt(n)
            assert got == pytest.approx(want, rel=NORM_RTOL)


# -- the PAVA kernel ------------------------------------------------------------------


def _pava_rows(rng):
    # (slopes, weights): random rows of length 1 to 400; exactly equal
    # adjacent slopes and ties; and ECDF segment slopes with the spacings
    # scaled by 2**600, as hull_vertices passes them.
    for n in range(1, 401):
        yield rng.standard_normal(n), rng.random(n) + 1e-3
    for n in (1, 2, 5, 40, 320):
        yield np.repeat(rng.standard_normal(n), 2), rng.random(2 * n) + 1e-3
        yield np.round(rng.standard_normal(n), 1), np.ones(n)
        yield np.full(n, 0.25), rng.random(n) + 1e-3
    for n in (1, 2, 30, 400):
        for samples in (rng.random(n), np.round(rng.random(n), 2), rng.random(n) * 1e-300):
            px, py = pwl.ecdf_corners(samples)
            dx = np.ldexp(np.diff(px), 600)
            yield np.diff(py) / dx, dx


def test_pava_matches_isotonic_regression():
    for slopes, weights in _pava_rows(np.random.default_rng(2201)):
        want = isotonic_regression(slopes, weights=weights, increasing=False)
        y, w = slopes.copy(), weights.copy()
        fit, blocks = pwl._pava(y, w)
        assert np.array_equal(fit, want.x)
        assert np.array_equal(blocks, want.blocks)
        # The kernel fits and pools copies; the caller's arrays stay as they were.
        assert np.array_equal(y, slopes) and np.array_equal(w, weights)


_PAVA_VALUE = st.sampled_from([-1.0, 0.0, 0.25, 3.0]) | st.floats(-1e3, 1e3, allow_subnormal=False)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(_PAVA_VALUE, min_size=n, max_size=n), max_size=6),
            st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
            _PAVA_VALUE,
        )
    )
)
def test_pava_of_rows_equals_one_call_per_row(case):
    # Rows with ties (few distinct values) and a constant row; each row of a
    # 2-d fit is the 1-d fit of that row, to the bit.
    rows, weights, level = case
    w = np.array(weights)
    y = np.array(rows + [[level] * w.size]).reshape(-1, w.size)
    before = y.copy()
    fit, blocks = pwl._pava(y, w)
    assert blocks is None and fit.shape == y.shape
    assert np.array_equal(y, before)
    for row, got in zip(y, fit):
        assert got.tobytes() == pwl._pava(row, w)[0].tobytes()


@pytest.mark.parametrize("shape, w", [((3, 4), np.ones(3)), ((3, 4), np.ones(5)), ((3, 4), np.ones((3, 4))),
                                      ((2, 3, 4), np.ones(4))])
def test_pava_rejects_weights_unlike_a_row(shape, w):
    with pytest.raises(ValueError, match="equal length"):
        pwl._pava(np.zeros(shape), w)


@pytest.mark.parametrize("y, w", [([0.0, 1.0], [1.0]), ([0.0], [1.0, 1.0]), ([[0.0, 1.0]], [[1.0, 1.0]])])
def test_pava_rejects_mismatched_shapes(y, w):
    # The kernel would read, and write, past the end of a short weight buffer.
    with pytest.raises(ValueError, match="equal length"):
        pwl._pava(y, w)


@pytest.mark.parametrize(
    "px, py, match",
    [
        ([0.0, 1.0], [0.0, 0.5, 1.0], "equal length"),
        ([0.0, 0.5, 1.0], [0.0, 1.0], "equal length"),
        ([[0.0, 1.0]], [[0.0, 1.0]], "equal length"),
        ([], [], "nonempty"),
        ([0.0, 0.5, 0.5, 1.0], [0.0, 0.25, 0.75, 1.0], "strictly increasing"),
        ([0.0, 0.6, 0.5, 1.0], [0.0, 0.25, 0.75, 1.0], "strictly increasing"),
        ([0.0, np.nan, 1.0], [0.0, 0.5, 1.0], "strictly increasing"),
    ],
)
def test_hull_vertices_rejects_bad_corners(px, py, match):
    with pytest.raises(ValueError, match=match):
        pwl.hull_vertices(px, py)


def test_gap_on_grid_batch_equals_row_by_row():
    # Concave rows, which skip the PAVA, between bent ones, on an uneven grid:
    # a weight or block buffer leaking from one row into the next shows here.
    rng = np.random.default_rng(2202)
    grid = np.unique(np.concatenate(([0.0, 1.0], rng.random(319))))
    rows = [np.cumsum(rng.standard_normal(grid.size)) * 0.1 for _ in range(6)]
    rows += [np.sqrt(grid), 0.5 - 2.0 * grid, np.log1p(grid)]
    batch = np.stack([rows[i] for i in rng.permutation(len(rows))])
    want = np.stack([coupling.lcm_gap_on_grid(grid, row) for row in batch])
    got = coupling.lcm_gap_on_grid(grid, batch)
    assert np.array_equal(got, want)
    assert np.count_nonzero(got.any(axis=1)) == 6


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
        got = coupling.lcm_gap_on_grid(grid, values)
        np.testing.assert_allclose(got, np.maximum(want, 0.0), atol=1e-11)


def test_gap_on_grid_concave_input_is_exactly_zero():
    grid = np.linspace(0.0, 1.0, 50)
    values = np.sqrt(grid)
    assert np.all(coupling.lcm_gap_on_grid(grid, values) == 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 40), st.integers(1, 5))
def test_gap_on_grid_reads_strided_views(seed, n, m):
    # A strided view's gap has the bytes of the gap of a contiguous copy of
    # it, with concave rows between bent ones.
    rng = np.random.default_rng(seed)
    w = np.cumsum(rng.standard_normal((2 * m, 2 * n)), axis=1) * 0.1
    w[1::3] = np.sqrt(np.arange(2 * n))
    i0 = int(rng.integers(0, n - 2))
    i1 = int(rng.integers(i0 + 3, 2 * n + 1))

    def grid(size):
        return np.unique(np.concatenate(([0.0, 1.0], rng.random(size - 2))))

    for g, view in [(grid(i1 - i0), w[:, i0:i1]), (grid(2 * n), w[::2]), (grid(n), w[1, ::2]), (grid(2 * m), w[:, 1])]:
        if g.size != view.shape[-1]:  # two uniforms coincided
            continue
        got = coupling.lcm_gap_on_grid(g, view)
        want = coupling.lcm_gap_on_grid(g, np.ascontiguousarray(view))
        assert got.shape == view.shape and got.tobytes() == want.tobytes()


_G4 = [0.0, 0.25, 0.5, 1.0]


@pytest.mark.parametrize(
    "grid, values, want",
    [
        # Two points: one slope, nothing to bend, whatever the values.
        ([0.0, 1.0], [[0.3, 0.7], [math.nan, 1.0], [0.0, math.inf], [-math.inf, 2.0]], [[0.0, 0.0]] * 4),
        # A NaN bends its row and stays; an infinity makes infinite slope dust.
        (
            _G4,
            [[0.0, math.nan, 0.2, 0.1], [0.0, math.inf, 0.2, 0.1], [0.0, 0.1, -math.inf, 0.1],
             [0.0, 0.1, 0.3, 0.2], [0.0, 0.5, 0.25, 0.5]],
            [[0.0, math.nan, math.nan, math.nan], [0.0] * 4, [0.0] * 4, [0.0, 0.049999999999999975, 0.0, 0.0],
             [0.0, 0.0, 0.25, 0.0]],
        ),
        # Every row concave: no PAVA at all.
        (_G4, [np.sqrt(_G4), 0.5 - 2.0 * np.array(_G4), np.log1p(_G4)], [[0.0] * 4] * 3),
        # Bent rows between a concave and a constant one.
        (
            _G4,
            [[0.0, 0.5, 0.25, 0.5], [0.0, 0.5, 0.75, 1.0], [0.1, 0.0, 0.3, 0.2], [0.3] * 4],
            [[0.0, 0.0, 0.25, 0.0], [0.0] * 4, [0.0, 0.19999999999999998, 0.0, 0.0], [0.0] * 4],
        ),
    ],
)
def test_gap_on_grid_pinned_edge_cases(grid, values, want):
    # Branches that verify's Wiener paths never take, pinned to the bit.
    with np.errstate(invalid="ignore"):
        got = coupling.lcm_gap_on_grid(grid, np.array(values, dtype=np.float64))
    assert np.array_equal(got, want, equal_nan=True)
    assert not np.signbit(got[~np.isnan(got)]).any()


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0])
def test_ramp_pow_integrals_keeps_inputs_and_bits(p):
    # The sum a^i b^(k-i), in its order, scaled by lengths / (k + 1), for
    # scalar and 1-d lengths and for 2-d values with 1-d lengths.
    rng = np.random.default_rng(2801)
    for shape, lengths in [((9,), 0.125), ((9,), rng.random(9)), ((4, 9), rng.random(9))]:
        lo, hi = rng.random(shape), rng.random(shape)
        inputs = [np.copy(a) for a in (lo, hi, lengths)]
        got = pwl.ramp_pow_integrals(lo, hi, lengths, p)
        acc = {
            1: hi + lo,
            2: hi * hi + lo * hi + lo * lo,
            3: hi * hi * hi + lo * (hi * hi) + (lo * lo) * hi + lo * lo * lo,
            4: hi * hi * hi * hi + lo * (hi * hi * hi) + (lo * lo) * (hi * hi) + (lo * lo * lo) * hi + lo * lo * lo * lo,
        }[int(p)]
        want = lengths * acc / (int(p) + 1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip((lo, hi, lengths), inputs))


def test_gap_pow_integral_matches_lp_norm(rng):
    grid = np.linspace(0.0, 1.0, 129)
    values = np.cumsum(rng.standard_normal(129)) * 0.1
    for p in (1.0, 2.0, 3.0, 2.5):
        want = qhull_gap_pow_integral(grid, values, p)
        got = coupling.pow_integral_from_gaps(grid, coupling.lcm_gap_on_grid(grid, values), p)
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
    px, py = pwl.ecdf_corners(samples)
    idx = pwl.hull_vertices(px, py)
    assert np.all(np.interp(px, px[idx], py[idx]) >= py - pwl.MAJORIZATION_TOL)
    # the hull runs through corners, from the first to the last
    assert idx[0] == 0 and idx[-1] == px.size - 1 and np.all(np.diff(idx) > 0)


@given(ecdf_samples(), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_hull_minimality(samples, salt):
    # Lowering any hull vertex breaks majorization (or drops the anchor
    # below zero, which breaks it at the origin).
    eps = 1e-9 + (salt % 100) * 1e-4
    px, py = pwl.ecdf_corners(samples)
    hx, hy = _hull(samples)
    for k in range(hx.size):
        lowered = hy.copy()
        lowered[k] -= eps
        low_vals = np.interp(px, hx, lowered)
        assert np.any(low_vals < py - pwl.MAJORIZATION_TOL)


@given(ecdf_samples())
@settings(max_examples=100, deadline=None)
# (0, 0), (0.1, 0.1) and (1, 1) are collinear, but the two pooled slope
# means round apart and PAVA alone keeps the middle corner.
@example(samples=[1.0] * 19 + [0.5] * 8 + [0.0625, 0.09375, 0.1])
def test_hull_idempotent(samples):
    hx, hy = _hull(samples)
    assert np.all(coupling.lcm_gap_on_grid(hx, hy) == 0.0)
    assert np.all(np.diff(np.diff(hy) / np.diff(hx)) < 0.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_gap_affine_shift_invariance(seed):
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 65)
    theta = np.cumsum(rng.standard_normal(65)) * 0.125
    shift = rng.normal() + rng.normal() * grid
    base = coupling.lcm_gap_on_grid(grid, theta)
    shifted = coupling.lcm_gap_on_grid(grid, theta + shift)
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
    small = values[inner] + coupling.lcm_gap_on_grid(grid[inner], values[inner])
    big = values + coupling.lcm_gap_on_grid(grid, values)
    assert np.all(small <= big[inner] + 1e-12)
