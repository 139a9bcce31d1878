import json
import math

import numpy as np
import pytest

from lcmtest import limits, models
from lcmtest.streams import substream

TWO_SEGMENT = models.PiecewiseAffineCdf.from_knots([(0, 0), (0.5, 0.75), (1, 1)])
SHORT_SUPPORT = models.PiecewiseAffineCdf.from_knots([(0, 0), (0.4, 0.6), (0.8, 1)])


# -- paths ----------------------------------------------------------------------------


def test_wiener_starts_at_zero():
    w = limits.sample_wiener(limits.uniform_grid(64), 5)
    assert w.values[0] == 0.0


def test_wiener_moments():
    grid = np.array([0.0, 0.3, 0.7, 1.0])
    n = 100_000
    vals = np.empty((n, 4))
    for i in range(n):
        vals[i] = limits.sample_wiener(grid, substream(77, i)).values
    assert np.var(vals[:, 3]) == pytest.approx(1.0, abs=0.02)
    cov = np.mean(vals[:, 1] * vals[:, 2])
    assert cov == pytest.approx(0.3, abs=0.02)


def test_bridge_endpoints_and_moments():
    grid = np.array([0.0, 0.3, 0.7, 1.0])
    n = 100_000
    vals = np.empty((n, 4))
    for i in range(n):
        w = limits.sample_wiener(grid, substream(78, i))
        b = limits.to_bridge(w)
        assert b.values[-1] == 0.0
        vals[i] = b.values
    cov = np.mean(vals[:, 1] * vals[:, 2])
    assert cov == pytest.approx(0.3 - 0.21, abs=0.02)


def test_bridge_of_zero_path():
    grid = limits.uniform_grid(8)
    w = limits.SampledPath(grid, np.zeros(9))
    assert np.all(limits.to_bridge(w).values == 0.0)


def test_sampled_path_validation():
    with pytest.raises(ValueError):
        limits.SampledPath(np.array([0.0, 0.5]), np.array([0.0]))
    with pytest.raises(ValueError):
        limits.SampledPath(np.array([0.1, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        limits.SampledPath(np.array([0.0, 0.9]), np.array([0.0, 0.0]))


# -- gap norms ------------------------------------------------------------------------


def test_gap_norm_affine_path_is_zero():
    grid = limits.uniform_grid(16)
    path = limits.SampledPath(grid, 0.3 + 0.2 * grid)
    for p in (1.0, 2.0, math.inf):
        assert limits.gap_norm(path, p) == 0.0


def test_gap_norm_vee_sup():
    path = limits.SampledPath(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.0, 0.5]))
    assert limits.gap_norm(path, math.inf) == 0.5


def test_gap_norm_bridge_identity_exact(rng):
    grid = limits.uniform_grid(128)
    for i in range(500):
        w = limits.sample_wiener(grid, substream(31, i))
        b = limits.to_bridge(w)
        for p in (1.0, 2.0, math.inf):
            assert limits.gap_norm(w, p) == limits.gap_norm(b, p)


def test_refined_grid_hull_dominates_coarse(rng):
    # The hull over more points can only rise at shared abscissas.
    from lcmtest import pwl

    coarse = limits.uniform_grid(32)
    fine = limits.uniform_grid(64)
    for i in range(50):
        w = limits.sample_wiener(fine, substream(13, i))
        fine_hull = w.values + pwl.lcm_gap_on_grid(fine, w.values)
        coarse_hull = w.values[::2] + pwl.lcm_gap_on_grid(coarse, w.values[::2])
        assert np.all(coarse_hull <= fine_hull[::2] + 1e-12)


# -- limit draws ----------------------------------------------------------------------


def test_limit_draw_general_empty_is_zero():
    iv = models.extract_intervals(models.PowerCdf(0.5))
    assert limits.limit_draw_general(iv, 2.0, 1, grid_size=64) == 0.0


def test_limit_draw_unit_interval_matches_uniform():
    iv = models.extract_intervals(models.UniformCdf())
    for i in range(20):
        assert limits.limit_draw_uniform(2.0, substream(3, i), 128) == limits.limit_draw_general(
            iv, 2.0, substream(3, i), grid_size=128
        )


def test_limit_draw_general_rejects_inf():
    iv = models.extract_intervals(models.UniformCdf())
    with pytest.raises(ValueError):
        limits.limit_draw_general(iv, math.inf, 1)


def test_derivative_route_uniform_matches_uniform_draw():
    for i in range(20):
        a = limits.limit_draw_uniform(2.0, substream(11, i), 128)
        b = limits.verify_rescaling_identity(models.UniformCdf(), 2.0, substream(11, i), 128).lhs
        assert a == b


def test_derivative_route_rejects_strictly_concave():
    with pytest.raises(ValueError):
        limits.verify_rescaling_identity(models.PowerCdf(0.5), 2.0, 1, 64)


def test_derivative_route_matches_rescaled_representation():
    for i in range(50):
        check = limits.verify_rescaling_identity(TWO_SEGMENT, 2.0, substream(21, i), 128)
        assert check.gap < 1e-9


def test_simulate_draws_match_single_draws_any_workers():
    iv = models.extract_intervals(TWO_SEGMENT)
    cfg = limits.SimConfig(grid_size=64, replications=30, master_seed=31)
    ps = (1.0, 2.5)
    serial = limits.simulate_draws(iv, ps, cfg, workers=1)
    assert np.array_equal(serial, limits.simulate_draws(iv, ps, cfg, workers=2))
    for i, row in enumerate(serial):
        want = [limits.limit_draw_general(iv, p, substream(31, i), 64) for p in ps]
        assert row.tolist() == want


def test_simulate_draws_caps_workers_at_cpu_count(monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a capped run must not start a process pool")

    iv = models.extract_intervals(TWO_SEGMENT)
    cfg = limits.SimConfig(grid_size=32, replications=12, master_seed=5)
    want = limits.simulate_draws(iv, (2.0,), cfg, workers=1)
    monkeypatch.setattr(limits.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(limits, "ProcessPoolExecutor", NoPool)
    assert np.array_equal(limits.simulate_draws(iv, (2.0,), cfg, workers=8), want)


# -- couplings ------------------------------------------------------------------------


def test_rescaling_identity_uniform_gap_is_exactly_zero():
    for i in range(50):
        check = limits.verify_rescaling_identity(models.UniformCdf(), 3.0, substream(5, i), 128)
        assert check.gap == 0.0


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_rescaling_identity_two_segment(p):
    worst = 0.0
    for i in range(100):
        worst = max(worst, limits.verify_rescaling_identity(TWO_SEGMENT, p, substream(6, i), 128).gap)
    assert worst < 1e-9


def test_rescaling_identity_short_support():
    # Support ending before 1: the composed bridge vanishes beyond it, and
    # the identity still holds pathwise.
    worst = 0.0
    for i in range(100):
        worst = max(worst, limits.verify_rescaling_identity(SHORT_SUPPORT, 2.0, substream(8, i), 128).gap)
    assert worst < 1e-9


def test_dominance_unit_interval_is_equality():
    iv = models.extract_intervals(models.UniformCdf())
    for i in range(20):
        check = limits.verify_dominance_coupling(iv, 2.0, substream(9, i), 128)
        assert check.lhs == check.rhs
        assert check.hull_excess == 0.0
        assert not check.violation


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_dominance_two_segment(p):
    iv = models.extract_intervals(TWO_SEGMENT)
    for i in range(300):
        check = limits.verify_dominance_coupling(iv, p, substream(10, i), 128)
        assert not check.violation
        assert check.lhs >= 0.0 and check.rhs >= 0.0


def test_dominance_rejects_inf():
    iv = models.extract_intervals(TWO_SEGMENT)
    with pytest.raises(ValueError):
        limits.verify_dominance_coupling(iv, math.inf, 1)


# -- quantiles ------------------------------------------------------------------------


def test_estimate_quantiles_rank_convention():
    q = limits.estimate_quantiles(np.arange(1.0, 11.0), [0.1])
    assert q[0.1].quantile == 9.0
    assert q[0.1].rank == 9


def test_estimate_quantiles_constant_draws():
    q = limits.estimate_quantiles(np.full(100, 3.25), [0.01, 0.5, 0.9])
    for est in q.values():
        assert est.quantile == 3.25
        assert est.se == 0.0


def test_estimate_quantiles_rejects_empty_and_bad_alpha():
    with pytest.raises(ValueError):
        limits.estimate_quantiles(np.array([]), [0.1])
    with pytest.raises(ValueError):
        limits.estimate_quantiles(np.ones(5), [1.5])


# -- critical-value tables --------------------------------------------------------------


def _tiny_config():
    return limits.SimConfig(grid_size=64, replications=400, master_seed=4242)


def test_table_deterministic_across_workers():
    cfg = _tiny_config()
    t1 = limits.build_critical_table(cfg, alphas=(0.05, 0.10), ps=(1.0, math.inf), workers=1)
    t2 = limits.build_critical_table(cfg, alphas=(0.05, 0.10), ps=(1.0, math.inf), workers=2)
    assert t1.to_dict()["entries"] == t2.to_dict()["entries"]


def test_table_matches_single_draws():
    cfg = limits.SimConfig(grid_size=64, replications=50, master_seed=99)
    table = limits.build_critical_table(cfg, alphas=(0.5,), ps=(2.0,), workers=1)
    draws = np.array([limits.limit_draw_uniform(2.0, substream(99, i), 64) for i in range(50)])
    want = limits.estimate_quantiles(draws, [0.5])[0.5].quantile
    assert table.lookup(2.0, 0.5).quantile == want


def test_table_quantiles_decrease_in_alpha():
    table = limits.build_critical_table(_tiny_config(), alphas=(0.01, 0.05, 0.2), ps=(2.0,))
    qs = [table.lookup(2.0, a).quantile for a in (0.01, 0.05, 0.2)]
    assert qs[0] >= qs[1] >= qs[2]


def test_table_json_roundtrip(tmp_path):
    table = limits.build_critical_table(_tiny_config(), alphas=(0.05,), ps=(1.0, 2.5, math.inf))
    path = tmp_path / "table.json"
    table.save(path)
    loaded = limits.CriticalValueTable.load(path)
    assert loaded.to_dict()["entries"] == table.to_dict()["entries"]
    doc = json.loads(path.read_text())
    assert {row["p"] for row in doc["entries"]} == {"1", "2.5", "inf"}
    assert set(doc["provenance"]) >= {"grid_size", "replications", "master_seed", "built_at"}


def test_table_lookup_missing_entry():
    table = limits.build_critical_table(_tiny_config(), alphas=(0.05,), ps=(2.0,))
    with pytest.raises(KeyError):
        table.lookup(1.0, 0.05)


def test_p_key_and_parse():
    assert limits.p_key(2.0) == "2"
    assert limits.p_key(math.inf) == "inf"
    assert limits.p_key(2.5) == "2.5"
    assert limits.parse_p("inf") == math.inf
    assert limits.parse_p("2") == 2.0
    with pytest.raises(ValueError):
        limits.parse_p("0.5")
