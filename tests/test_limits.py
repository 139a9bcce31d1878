import json
import math
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import lcmtest
from lcmtest import limits, models, pwl
from lcmtest.streams import substream

SRC = str(Path(__file__).resolve().parent.parent / "src")
TWO_SEGMENT = models.PiecewiseAffineCdf.from_knots([(0, 0), (0.5, 0.75), (1, 1)])
SHORT_SUPPORT = models.PiecewiseAffineCdf.from_knots([(0, 0), (0.4, 0.6), (0.8, 1)])


# -- paths ----------------------------------------------------------------------------


def test_wiener_starts_at_zero():
    w = limits.sample_wiener(limits.uniform_grid(64), 5)
    assert w[0] == 0.0


def test_wiener_moments():
    grid = np.array([0.0, 0.3, 0.7, 1.0])
    n = 100_000
    vals = np.empty((n, 4))
    for i in range(n):
        vals[i] = limits.sample_wiener(grid, substream(77, i))
    assert np.var(vals[:, 3]) == pytest.approx(1.0, abs=0.02)
    cov = np.mean(vals[:, 1] * vals[:, 2])
    assert cov == pytest.approx(0.3, abs=0.02)


def test_bridge_endpoints_and_moments():
    grid = np.array([0.0, 0.3, 0.7, 1.0])
    n = 100_000
    vals = np.empty((n, 4))
    for i in range(n):
        w = limits.sample_wiener(grid, substream(78, i))
        b = w - grid * w[-1]
        assert b[-1] == 0.0
        vals[i] = b
    cov = np.mean(vals[:, 1] * vals[:, 2])
    assert cov == pytest.approx(0.3 - 0.21, abs=0.02)


def test_sample_wiener_validates_grid():
    bad = [[0.1, 1.0], [0.0, 0.9], [0.0], [0.0, 0.5, 0.5, 1.0], [0.0, math.nan, 1.0], [[0.0, 1.0]]]
    for grid in bad:
        with pytest.raises(ValueError):
            limits.sample_wiener(grid, 1)


# -- gap norms ------------------------------------------------------------------------


def _gap_norm(grid, values, p: float) -> float:
    # L^p norm of the majorant gap of a sampled path, p = inf for the sup.
    if math.isinf(p):
        return float(pwl.lcm_gap_on_grid(grid, values).max())
    return pwl.gap_pow_integral(grid, values, p) ** (1 / p)


def test_gap_norm_affine_path_is_zero():
    grid = limits.uniform_grid(16)
    for p in (1.0, 2.0, math.inf):
        assert _gap_norm(grid, 0.3 + 0.2 * grid, p) == 0.0


def test_gap_norm_vee_sup():
    assert _gap_norm(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.0, 0.5]), math.inf) == 0.5


def test_gap_norm_bridge_identity_exact(rng):
    grid = limits.uniform_grid(128)
    for i in range(500):
        w = limits.sample_wiener(grid, substream(31, i))
        b = w - grid * w[-1]
        for p in (1.0, 2.0, math.inf):
            assert _gap_norm(grid, w, p) == _gap_norm(grid, b, p)


def test_refined_grid_hull_dominates_coarse(rng):
    # The hull over more points can only rise at shared abscissas.
    coarse = limits.uniform_grid(32)
    fine = limits.uniform_grid(64)
    for i in range(50):
        w = limits.sample_wiener(fine, substream(13, i))
        fine_hull = w + pwl.lcm_gap_on_grid(fine, w)
        coarse_hull = w[::2] + pwl.lcm_gap_on_grid(coarse, w[::2])
        assert np.all(coarse_hull <= fine_hull[::2] + 1e-12)


# -- limit draws ----------------------------------------------------------------------


def test_limit_draw_general_empty_is_zero():
    iv = models.extract_intervals(models.PowerCdf(0.5))
    assert limits.limit_draw_general(iv, 2.0, 1, grid_size=64) == 0.0


def test_limit_draw_general_rejects_inf():
    iv = models.extract_intervals(models.UniformCdf())
    with pytest.raises(ValueError):
        limits.limit_draw_general(iv, math.inf, 1)


def test_derivative_route_uniform_matches_uniform_draw():
    # The identity verifier's Wiener path is drawn from substream(stream, 0)
    # on the uniform grid; under the uniform law its lhs is that path's gap norm.
    grid = limits.uniform_grid(128)
    for i in range(20):
        w = limits.sample_wiener(grid, substream(11, i, 0))
        a = pwl.gap_pow_integral(grid, w, 2.0) ** (1 / 2.0)
        b = limits.verify_rescaling_identity(models.UniformCdf(), 2.0, substream(11, i), 128).lhs
        assert a == b


def test_derivative_route_rejects_strictly_concave():
    with pytest.raises(ValueError):
        limits.verify_rescaling_identity(models.PowerCdf(0.5), 2.0, 1, 64)


def test_derivative_route_matches_rescaled_representation():
    for i in range(50):
        check = limits.verify_rescaling_identity(TWO_SEGMENT, 2.0, substream(21, i), 128)
        assert check.gap < 1e-9


def test_simulate_draws_match_single_draws_any_workers(monkeypatch):
    monkeypatch.setattr(limits, "_WORK_PER_WORKER", 1)  # a pool even for this small job
    iv = models.extract_intervals(TWO_SEGMENT)
    cfg = limits.SimConfig(grid_size=64, replications=30, master_seed=31)
    ps = (1.0, 2.5)
    serial = limits.simulate_draws(iv, ps, cfg, workers=1)
    assert np.array_equal(serial, limits.simulate_draws(iv, ps, cfg, workers=2))
    for i, row in enumerate(serial):
        want = [limits.limit_draw_general(iv, p, substream(31, i), 64) for p in ps]
        assert row.tolist() == want


def test_engine_columns_ordered_and_independent_of_the_others():
    # p = 1 and p = 2 integrate the same excursions, so ||.||_1 <= ||.||_2
    # draw by draw; no column depends on which other indices are asked for.
    iv = models.extract_intervals(TWO_SEGMENT)
    cfg = limits.SimConfig(grid_size=256, replications=200, master_seed=41)
    both = limits.simulate_draws(iv, (1.0, 2.0, math.inf), cfg)
    assert np.all(both[:, 0] <= both[:, 1] * (1 + 1e-12))
    for j, p in enumerate((1.0, 2.0, math.inf)):
        assert np.array_equal(limits.simulate_draws(iv, (p,), cfg)[:, 0], both[:, j])


def test_stick_breaking_rounds_do_not_change_faces(monkeypatch):
    # Uniforms drawn 4 or 28 at a time are the same numbers as 64 at once, so
    # no stream's faces change when stick-breaking takes several rounds and
    # the streams of a pass finish in different rounds.  (Later draws do
    # change: the round size sets where a stream's Kennedy uniforms start.)
    for spec in (models.UniformCdf(), TWO_SEGMENT):
        nk = len(models.extract_intervals(spec).d)
        streams = [substream(43, i, k) for i in range(40) for k in range(nk)]
        monkeypatch.setattr(limits, "_STICKS", 64)
        lengths, counts = limits._face_lengths([limits.generator(s) for s in streams])
        assert counts.min() > 4 and counts.max() > counts.min()
        first = np.concatenate([[0], np.cumsum(counts[:-1])])
        left = 1.0 - np.add.reduceat(lengths, first)
        assert np.all((0.0 < left) & (left < limits._STICK_TAIL * (1 + 1e-3) + 1e-15))
        for sticks in (4, 28):
            monkeypatch.setattr(limits, "_STICKS", sticks)
            got = limits._face_lengths([limits.generator(s) for s in streams])
            assert np.array_equal(got[0], lengths) and np.array_equal(got[1], counts)


def test_kennedy_table_not_built_at_import():
    code = (
        "import lcmtest, lcmtest.cli; from lcmtest import limits; "
        "assert limits._kennedy_table.cache_info().currsize == 0"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})


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


def test_small_simulation_runs_without_a_pool(monkeypatch):
    # Fewer replications than pay for starting worker processes run here.
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a small simulation must not start a process pool")

    cfg = limits.SimConfig(grid_size=1024, replications=150, master_seed=5)
    want = limits.simulate_draws(limits._UNIT, (1.0, math.inf), cfg, workers=1)
    monkeypatch.setattr(limits.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(limits, "ProcessPoolExecutor", NoPool)
    got = limits.simulate_draws(limits._UNIT, (1.0, math.inf), cfg, workers=4)
    assert np.array_equal(got, want)


def test_engine_draws_do_not_depend_on_the_pass(monkeypatch):
    # Rows are drawn _POINTS_PER_PASS // (budget * intervals) at a time; a
    # row's draws are the same whichever rows share its pass, and with
    # stick-breaking that takes several rounds for every stream.
    iv = models.extract_intervals(TWO_SEGMENT)
    keys = [(i,) for i in range(45)]
    ps = (1.0, 2.0, math.inf)
    for sticks in (limits._STICKS, 4):
        monkeypatch.setattr(limits, "_STICKS", sticks)
        monkeypatch.setattr(limits, "_POINTS_PER_PASS", 2**16)  # all 45 rows in one pass
        want = limits._law_draws(iv.d, iv.h, ps, 17, keys, 64)
        for rows in (1, 7, 30):
            monkeypatch.setattr(limits, "_POINTS_PER_PASS", rows * 64 * 2)
            assert np.array_equal(limits._law_draws(iv.d, iv.h, ps, 17, keys, 64), want)


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


def test_table_deterministic_across_workers(monkeypatch):
    monkeypatch.setattr(limits, "_WORK_PER_WORKER", 1)
    cfg = _tiny_config()
    t1 = limits.build_critical_table(cfg, alphas=(0.05, 0.10), ps=(1.0, math.inf), workers=1)
    t2 = limits.build_critical_table(cfg, alphas=(0.05, 0.10), ps=(1.0, math.inf), workers=2)
    assert t1.to_dict()["entries"] == t2.to_dict()["entries"]


def test_table_matches_single_draws():
    cfg = limits.SimConfig(grid_size=64, replications=50, master_seed=99)
    table = limits.build_critical_table(cfg, alphas=(0.5,), ps=(2.0,), workers=1)
    draws = [limits.limit_draw_general(limits._UNIT, 2.0, substream(99, i), 64) for i in range(50)]
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
    prov = doc["provenance"]
    assert set(prov) >= {
        "engine", "grid_size", "replications", "master_seed", "built_at",
        "lcmtest_version", "numpy_version", "scipy_version", "workers", "timing",
    }
    assert prov["lcmtest_version"] == lcmtest.__version__ and prov["engine"] == limits.ENGINE
    assert prov["numpy_version"] == np.__version__ and prov["workers"] == 1
    assert prov["timing"]["seconds"] > 0.0
    assert prov["timing"]["reps_per_s"] == pytest.approx(400 / prov["timing"]["seconds"])


def test_package_version_matches_pyproject():
    # Tables record lcmtest.__version__; the packaging metadata must agree.
    with open(Path(SRC).parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == lcmtest.__version__


def test_flat_substream_key_matches_nested_substreams():
    # simulate_draws draws interval k of replication i from
    # substream(seed, i, k); limit_draw_general from
    # substream(substream(seed, i), k).
    for seed in (0, 171717, 2**70):
        for i, k in ((0, 0), (5, 3), (199_999, 1)):
            flat = substream(seed, i, k)
            nested = substream(substream(seed, i), k)
            assert (flat.entropy, flat.spawn_key) == (nested.entropy, nested.spawn_key)
            assert np.array_equal(flat.generate_state(4), nested.generate_state(4))


def test_substream_of_int_matches_seed_sequence_child():
    for seed in (0, 99, 2**70, np.int64(171717)):
        root = np.random.SeedSequence(int(seed))
        for key in ((), (5,), (3, 4)):
            got = substream(seed, *key)
            want = substream(root, *key)
            assert (got.entropy, got.spawn_key) == (want.entropy, want.spawn_key)
            assert np.array_equal(got.generate_state(4), want.generate_state(4))


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
