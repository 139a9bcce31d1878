import itertools
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
    w = limits.sample_wiener(limits.uniform_grid(64), [5, 6])
    assert w.shape == (2, 65)
    assert np.all(w[:, 0] == 0.0)


def test_wiener_moments():
    grid = np.array([0.0, 0.3, 0.7, 1.0])
    n = 100_000
    vals = limits.sample_wiener(grid, [substream(77, i) for i in range(n)])
    assert np.var(vals[:, 3]) == pytest.approx(1.0, abs=0.02)
    cov = np.mean(vals[:, 1] * vals[:, 2])
    assert cov == pytest.approx(0.3, abs=0.02)


def test_bridge_endpoints_and_moments():
    grid = np.array([0.0, 0.3, 0.7, 1.0])
    n = 100_000
    w = limits.sample_wiener(grid, [substream(78, i) for i in range(n)])
    vals = w - grid * w[:, -1:]
    assert np.all(vals[:, -1] == 0.0)
    cov = np.mean(vals[:, 1] * vals[:, 2])
    assert cov == pytest.approx(0.3 - 0.21, abs=0.02)


def test_sample_wiener_validates_grid():
    bad = [[0.1, 1.0], [0.0, 0.9], [0.0], [0.0, 0.5, 0.5, 1.0], [0.0, math.nan, 1.0], [[0.0, 1.0]]]
    for grid in bad:
        with pytest.raises(ValueError):
            limits.sample_wiener(grid, [1])


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
    for w in limits.sample_wiener(grid, [substream(31, i) for i in range(500)]):
        b = w - grid * w[-1]
        for p in (1.0, 2.0, math.inf):
            assert _gap_norm(grid, w, p) == _gap_norm(grid, b, p)


def test_refined_grid_hull_dominates_coarse(rng):
    # The hull over more points can only rise at shared abscissas.
    coarse = limits.uniform_grid(32)
    fine = limits.uniform_grid(64)
    w = limits.sample_wiener(fine, [substream(13, i) for i in range(50)])
    fine_hull = w + pwl.lcm_gap_on_grid(fine, w)
    coarse_hull = w[:, ::2] + pwl.lcm_gap_on_grid(coarse, w[:, ::2])
    assert np.all(coarse_hull <= fine_hull[:, ::2] + 1e-12)


# -- limit draws ----------------------------------------------------------------------


def test_limit_draw_general_empty_is_zero():
    iv = models.extract_intervals(models.PowerCdf(0.5))
    assert limits.limit_draw_general(iv, 2.0, 1, grid_size=64) == 0.0


def test_limit_draw_general_at_inf_is_a_row_of_simulate_draws():
    # p = inf: max_k sqrt(h_k) sup gap(W_k), the same draw by either entry.
    iv = models.extract_intervals(TWO_SEGMENT)
    rows = limits.simulate_draws(iv, (math.inf,), limits.SimConfig(64, 20, 51))[:, 0]
    assert rows.min() > 0.0
    for i, want in enumerate(rows.tolist()):
        assert limits.limit_draw_general(iv, math.inf, substream(51, i), 64) == want


def test_derivative_route_uniform_matches_uniform_draw():
    # The identity verifier's Wiener path is drawn from substream(stream, 0)
    # on the uniform grid; under the uniform law its lhs is that path's gap norm.
    grid = limits.uniform_grid(128)
    w = limits.sample_wiener(grid, [substream(11, i, 0) for i in range(20)])
    streams = [substream(11, i) for i in range(20)]
    lhs = limits.verify_rescaling_identity(models.UniformCdf(), 2.0, streams, 128).lhs
    for row, b in zip(w, lhs.tolist()):
        assert pwl.gap_pow_integral(grid, row, 2.0) ** (1 / 2.0) == b


def test_derivative_route_rejects_strictly_concave():
    with pytest.raises(ValueError):
        limits.verify_rescaling_identity(models.PowerCdf(0.5), 2.0, [1], 64)


def test_derivative_route_matches_rescaled_representation():
    check = limits.verify_rescaling_identity(TWO_SEGMENT, 2.0, [substream(21, i) for i in range(50)], 128)
    assert check.gap.size == 50 and check.gap.max() < 1e-9


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
    # p = 1, 2 and inf map one uniform per face through stochastically
    # ordered face laws, so ||.||_1 <= ||.||_2 <= ||.||_inf draw by draw; no
    # column depends on which other indices are asked for.
    cfg = limits.SimConfig(grid_size=256, replications=1000, master_seed=41)
    ps = (1.0, 2.0, 3.0, math.inf)
    for spec in (models.UniformCdf(), TWO_SEGMENT):
        iv = models.extract_intervals(spec)
        every = limits.simulate_draws(iv, ps, cfg)
        assert np.all(every[:, 0] <= every[:, 1] * (1 + 1e-12))
        assert np.all(every[:, 1] <= every[:, 3] * (1 + 1e-12))
        for j, p in enumerate(ps):
            assert np.array_equal(limits.simulate_draws(iv, (p,), cfg)[:, 0], every[:, j])


# Draws of SimConfig(64, 4, 2026) recorded before p = 1 and 2 had exact face
# laws.  p = inf maps the same uniforms through Kennedy's law, and p = 3
# samples the same excursions after them, so neither may move.
RECORDED = {
    "uniform": {
        3.0: [0.4340771829337905, 0.4207084019342367, 0.46988021393631746, 0.5952895565730569],
        math.inf: [1.0459922078238846, 0.9617618954070586, 0.7141943857517458, 1.1581599013043227],
    },
    "two": {
        3.0: [0.3213162745311887, 0.3346421595812776, 0.36064422918771405, 0.419517757673985],
        math.inf: [0.905855824136056, 0.8329102338143849, 0.6185104813012348, 1.0029958961740215],
    },
}


@pytest.mark.parametrize("name,spec", [("uniform", models.UniformCdf()), ("two", TWO_SEGMENT)])
def test_sampled_and_sup_columns_equal_recorded_draws(name, spec):
    iv = models.extract_intervals(spec)
    ps = (1.0, 2.0, 3.0, math.inf)
    draws = limits.simulate_draws(iv, ps, limits.SimConfig(64, 4, 2026))
    for p, want in RECORDED[name].items():
        assert draws[:, ps.index(p)].tolist() == want


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
        "assert all(t.cache_info().currsize == 0 for t in limits._FACE_LAWS.values())"
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
    # simulate_draws draws _POINTS_PER_PASS // _pass_points rows a pass; a
    # row's draws are the same whichever rows share its pass, in this
    # process or in a pool, and with stick-breaking that takes several rounds
    # for every stream.  (Pool workers are forked, so they see the patches.)
    monkeypatch.setattr(limits, "_WORK_PER_WORKER", 1)  # a pool whenever workers > 1
    iv = models.extract_intervals(TWO_SEGMENT)
    cfg = limits.SimConfig(grid_size=64, replications=45, master_seed=17)
    for ps in ((1.0, 2.0, math.inf), (1.0, 2.5, math.inf)):
        row_points = limits._pass_points(iv, ps, 64)
        for sticks in (limits._STICKS, 4):
            monkeypatch.setattr(limits, "_STICKS", sticks)
            monkeypatch.setattr(limits, "_POINTS_PER_PASS", 45 * row_points)  # one pass
            want = limits.simulate_draws(iv, ps, cfg, workers=1)
            for rows, workers in itertools.product((1, 7, 30), (1, 2)):
                monkeypatch.setattr(limits, "_POINTS_PER_PASS", rows * row_points)
                assert np.array_equal(limits.simulate_draws(iv, ps, cfg, workers), want)


def test_work_counts_the_budget_only_for_sampled_norms(monkeypatch):
    # p = 1, 2 and inf draw no face points, so at budget 16384 a pass holds
    # as many replications as at any budget, and 600 of them run here.
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("this simulation is too small for a process pool")

    iv = models.extract_intervals(TWO_SEGMENT)
    exact = (1.0, 2.0, math.inf)
    assert limits._row_points(iv, exact, 16384) == limits._row_points(iv, exact, 64)
    assert limits._row_points(iv, (2.5,), 16384) == 2 * (16384 + limits._STREAM_COST_POINTS)
    assert limits._pass_points(iv, exact, 16384) == limits._pass_points(iv, exact, 64)
    assert limits._pass_points(iv, (2.5,), 16384) == 2 * 16384  # the budget sizes passes of sampled norms
    cfg = limits.SimConfig(grid_size=16384, replications=600, master_seed=5)
    assert limits._workers_used(iv, (2.5,), cfg, 4) > 1
    want = limits.simulate_draws(iv, exact, cfg, workers=1)
    monkeypatch.setattr(limits.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(limits, "ProcessPoolExecutor", NoPool)
    assert np.array_equal(limits.simulate_draws(iv, exact, cfg, workers=4), want)


def test_simulate_draws_reports_progress(monkeypatch):
    monkeypatch.setattr(limits, "_WORK_PER_WORKER", 1)  # a pool whenever workers > 1
    iv = models.extract_intervals(TWO_SEGMENT)
    monkeypatch.setattr(limits, "_POINTS_PER_PASS", 7 * limits._pass_points(iv, (2.0,), 64))
    cfg = limits.SimConfig(grid_size=64, replications=45, master_seed=17)
    for workers in (1, 2):
        calls = []
        limits.simulate_draws(iv, (2.0,), cfg, workers, lambda done, n: calls.append((done, n)))
        done = [d for d, _ in calls]
        assert done == sorted(done) and calls[-1] == (45, 45)
        assert {n for _, n in calls} == {45}


# -- couplings ------------------------------------------------------------------------


def test_rescaling_identity_uniform_gap_is_exactly_zero():
    streams = [substream(5, i) for i in range(50)]
    check = limits.verify_rescaling_identity(models.UniformCdf(), 3.0, streams, 128)
    assert np.all(check.gap == 0.0)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_rescaling_identity_two_segment(p):
    check = limits.verify_rescaling_identity(TWO_SEGMENT, p, [substream(6, i) for i in range(100)], 128)
    assert check.gap.max() < 1e-9


def test_rescaling_identity_short_support():
    # Support ending before 1: the composed bridge vanishes beyond it, and
    # the identity still holds pathwise.
    streams = [substream(8, i) for i in range(100)]
    check = limits.verify_rescaling_identity(SHORT_SUPPORT, 2.0, streams, 128)
    assert check.gap.max() < 1e-9


def test_dominance_unit_interval_is_equality():
    iv = models.extract_intervals(models.UniformCdf())
    check = limits.verify_dominance_coupling(iv, 2.0, [substream(9, i) for i in range(20)], 128)
    assert np.array_equal(check.lhs, check.rhs)
    assert np.all(check.hull_excess == 0.0)
    assert not check.violation.any()


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_dominance_two_segment(p):
    iv = models.extract_intervals(TWO_SEGMENT)
    check = limits.verify_dominance_coupling(iv, p, [substream(10, i) for i in range(300)], 128)
    assert not check.violation.any()
    assert np.all(check.lhs >= 0.0) and np.all(check.rhs >= 0.0)


FOUR_INTERVALS = models.PiecewiseAffineCdf.from_knots(
    [(0.0, 0.0), (0.1, 0.3), (0.3, 0.6), (0.6, 0.85), (1.0, 1.0)]
)


def _identity_one_path(spec, p, stream, grid_size):
    # The rescaling identity on a single path: 1-d gaps, scalar roots.
    iv = models.extract_intervals(spec)
    kx = np.append(iv.a, iv.b[-1])
    ku = models.evaluate(spec, kx)
    master, spans = limits._block_grid(ku, iv.h, grid_size)
    w = limits.sample_wiener(master, [substream(stream, 0)])[0]
    b = w - master * w[-1]
    lhs = rhs = 0.0
    for k, (i0, i1) in enumerate(spans):
        u = limits._unit_preimage(master[i0 : i1 + 1], ku[k], iv.h[k])
        x = kx[k] + iv.d[k] * u
        x[-1] = kx[k + 1]
        lhs += pwl.pow_integral_from_gaps(x, pwl.lcm_gap_on_grid(x, b[i0 : i1 + 1]), p)
        w_k = (w[i0 : i1 + 1] - w[i0]) * iv.h[k] ** -0.5
        gap = pwl.lcm_gap_on_grid(u, w_k)
        rhs += iv.d[k] * iv.h[k] ** (p / 2.0) * pwl.pow_integral_from_gaps(u, gap, p)
    return float(lhs) ** (1.0 / p), float(rhs) ** (1.0 / p)


def _dominance_one_path(iv, p, stream, grid_size):
    # The dominance coupling on a single path: 1-d gaps, scalar roots.
    lengths = models.coupling_lengths(iv, p)
    packed = models.pack_intervals(lengths)
    knots = [a for a, _ in packed] + [packed[-1][1]]
    master, spans = limits._block_grid(knots, lengths, grid_size)
    w = limits.sample_wiener(master, [substream(stream, 0)])[0]
    full_gap = pwl.lcm_gap_on_grid(master, w)
    rhs = pwl.pow_integral_from_gaps(master, full_gap, p) ** (1.0 / p)
    lhs, hull_excess = 0.0, 0.0
    for (i0, i1), a, l in zip(spans, knots, lengths):
        u = limits._unit_preimage(master[i0 : i1 + 1], a, l)
        root = math.sqrt(l)
        sub_gap = pwl.lcm_gap_on_grid(u, (w[i0 : i1 + 1] - w[i0]) / root)
        lhs += l ** ((p + 2.0) / 2.0) * pwl.pow_integral_from_gaps(u, sub_gap, p)
        hull_excess = max(hull_excess, float((sub_gap * root - full_gap[i0 : i1 + 1]).max()))
    return float(lhs) ** (1.0 / p), rhs, hull_excess


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize(
    "spec", [models.UniformCdf(), TWO_SEGMENT, FOUR_INTERVALS], ids=["uniform", "two", "four"]
)
def test_batched_verifiers_equal_one_path_reference(monkeypatch, spec, p):
    # Narrow passes, so 40 paths span two or more of them on every grid.
    monkeypatch.setattr(limits, "_POINTS_PER_PASS", 2**11)
    iv = models.extract_intervals(spec)
    streams = [substream(606, i) for i in range(40)]
    for grid in (64, 256):
        got = limits.verify_rescaling_identity(spec, p, streams, grid)
        want = [_identity_one_path(spec, p, s, grid) for s in streams]
        assert (got.lhs.tolist(), got.rhs.tolist()) == tuple(map(list, zip(*want)))
        got = limits.verify_dominance_coupling(iv, p, streams, grid)
        want = [_dominance_one_path(iv, p, s, grid) for s in streams]
        got = (got.lhs.tolist(), got.rhs.tolist(), got.hull_excess.tolist())
        assert got == tuple(map(list, zip(*want)))


def test_dominance_rejects_inf():
    iv = models.extract_intervals(TWO_SEGMENT)
    with pytest.raises(ValueError):
        limits.verify_dominance_coupling(iv, math.inf, [1])


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
