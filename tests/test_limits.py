import hashlib
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
from lcmtest import coupling, limits, models, pwl
from lcmtest.streams import substream

SRC = str(Path(__file__).resolve().parent.parent / "src")
TWO_SEGMENT = models.PiecewiseAffineCdf.from_knots([(0, 0), (0.5, 0.75), (1, 1)])
SHORT_SUPPORT = models.PiecewiseAffineCdf.from_knots([(0, 0), (0.4, 0.6), (0.8, 1)])


# -- paths ----------------------------------------------------------------------------


def test_wiener_starts_at_zero():
    w = coupling.sample_wiener(coupling.uniform_grid(64), [5, 6])
    assert w.shape == (2, 65)
    assert np.all(w[:, 0] == 0.0)


def test_wiener_moments():
    grid = np.array([0.0, 0.3, 0.7, 1.0])
    n = 100_000
    vals = coupling.sample_wiener(grid, [substream(77, i) for i in range(n)])
    assert np.var(vals[:, 3]) == pytest.approx(1.0, abs=0.02)
    cov = np.mean(vals[:, 1] * vals[:, 2])
    assert cov == pytest.approx(0.3, abs=0.02)


def test_bridge_endpoints_and_moments():
    grid = np.array([0.0, 0.3, 0.7, 1.0])
    n = 100_000
    w = coupling.sample_wiener(grid, [substream(78, i) for i in range(n)])
    vals = w - grid * w[:, -1:]
    assert np.all(vals[:, -1] == 0.0)
    cov = np.mean(vals[:, 1] * vals[:, 2])
    assert cov == pytest.approx(0.3 - 0.21, abs=0.02)


def test_sample_wiener_validates_grid():
    bad = [[0.1, 1.0], [0.0, 0.9], [0.0], [0.0, 0.5, 0.5, 1.0], [0.0, math.nan, 1.0], [[0.0, 1.0]]]
    for grid in bad:
        with pytest.raises(ValueError):
            coupling.sample_wiener(grid, [1])


# -- gap norms ------------------------------------------------------------------------


def _gap_norm(grid, values, p: float) -> float:
    # L^p norm of the majorant gap of a sampled path, p = inf for the sup.
    if math.isinf(p):
        return float(coupling.lcm_gap_on_grid(grid, values).max())
    return coupling.pow_integral_from_gaps(grid, coupling.lcm_gap_on_grid(grid, values), p) ** (1 / p)


def test_gap_norm_affine_path_is_zero():
    grid = coupling.uniform_grid(16)
    for p in (1.0, 2.0, math.inf):
        assert _gap_norm(grid, 0.3 + 0.2 * grid, p) == 0.0


def test_gap_norm_vee_sup():
    assert _gap_norm(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.0, 0.5]), math.inf) == 0.5


def test_gap_norm_bridge_identity_exact(rng):
    grid = coupling.uniform_grid(128)
    for w in coupling.sample_wiener(grid, [substream(31, i) for i in range(500)]):
        b = w - grid * w[-1]
        for p in (1.0, 2.0, math.inf):
            assert _gap_norm(grid, w, p) == _gap_norm(grid, b, p)


def test_refined_grid_hull_dominates_coarse(rng):
    # The hull over more points can only rise at shared abscissas.
    coarse = coupling.uniform_grid(32)
    fine = coupling.uniform_grid(64)
    w = coupling.sample_wiener(fine, [substream(13, i) for i in range(50)])
    fine_hull = w + coupling.lcm_gap_on_grid(fine, w)
    coarse_hull = w[:, ::2] + coupling.lcm_gap_on_grid(coarse, w[:, ::2])
    assert np.all(coarse_hull <= fine_hull[:, ::2] + 1e-12)


# -- limit draws ----------------------------------------------------------------------


def test_limit_draw_general_empty_is_zero():
    iv = models.extract_intervals(models.PowerCdf(0.5))
    assert limits.limit_draw_general(iv, 2.0, 1, grid_size=64) == 0.0


def test_limit_draw_general_at_inf_is_a_row_of_simulate_draws():
    # p = inf: max_k sqrt(h_k) sup gap(W_k), the same draw by either entry:
    # limit_draw_general is the block of one replication drawn from its
    # stream, as simulate_draws draws a one-replication simulation.
    iv = models.extract_intervals(TWO_SEGMENT)
    for seed in range(20):
        want = limits.simulate_draws(iv, (math.inf,), limits.SimConfig(64, 1, seed))[0, 0]
        assert want > 0.0
        assert limits.limit_draw_general(iv, math.inf, substream(seed, 0), 64) == want


def test_derivative_route_uniform_matches_uniform_draw():
    # The identity verifier draws path i from substream(seed, i, 0) on the
    # uniform grid; under the uniform law its lhs is that path's gap norm.
    grid = coupling.uniform_grid(128)
    w = coupling.sample_wiener(grid, [substream(11, i, 0) for i in range(20)])
    lhs = coupling.verify_rescaling_identity(models.UniformCdf(), 2.0, 11, 20, 128).lhs
    for row, b in zip(w, lhs.tolist()):
        assert _gap_norm(grid, row, 2.0) == b


def test_derivative_route_rejects_strictly_concave():
    with pytest.raises(ValueError):
        coupling.verify_rescaling_identity(models.PowerCdf(0.5), 2.0, 1, 1, 64)


def test_derivative_route_matches_rescaled_representation():
    check = coupling.verify_rescaling_identity(TWO_SEGMENT, 2.0, 21, 50, 128)
    assert check.gap.size == 50 and check.gap.max() < 1e-9


def test_simulate_draws_rows_are_rows_of_their_blocks():
    # Row i is row i % _BLOCK of the block drawn from substream(seed, i //
    # _BLOCK); the last block holds the replications left over.
    ps = (1.0, 2.5, math.inf)
    n = 2 * limits._BLOCK + 37
    for spec in (models.UniformCdf(), TWO_SEGMENT):
        iv = models.extract_intervals(spec)
        draws = limits.simulate_draws(iv, ps, limits.SimConfig(64, n, 31))
        for b, lo in enumerate(range(0, n, limits._BLOCK)):
            rows = min(limits._BLOCK, n - lo)
            block = limits._law_draws(iv.d, iv.h, ps, substream(31, b), rows, 64)
            assert np.array_equal(draws[lo : lo + rows], block)


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


# Draws of SimConfig(64, 4, 2026), recorded from the engine that draws each
# block of replications from one generator.
RECORDED = {
    "uniform": {
        1.0: [0.4054643512919218, 0.5920997552673195, 0.4187996274146641, 0.22081801877630908],
        2.0: [0.4545982493734873, 0.6914655006577333, 0.4803863541501473, 0.2482849911538045],
        3.0: [0.6779948602897761, 0.4709155525893117, 0.3815933030866809, 0.2505143613827709],
        math.inf: [0.932643117129867, 1.3517092823121108, 1.039804239358821, 0.5467116216409355],
    },
    "two": {
        1.0: [0.28989660660284267, 0.209912101631274, 0.2920851158420152, 0.2917819505643555],
        2.0: [0.33287848614787263, 0.24904341411484585, 0.33448608140150027, 0.348804435121897],
        3.0: [0.37478656620846434, 0.2686465383022512, 0.4389282470084973, 0.43212445031376373],
        math.inf: [0.6953982856408537, 0.664310142759937, 0.7802788667457238, 0.9261943698919013],
    },
}


@pytest.mark.parametrize("name,spec", [("uniform", models.UniformCdf()), ("two", TWO_SEGMENT)])
def test_sampled_and_sup_columns_equal_recorded_draws(name, spec):
    iv = models.extract_intervals(spec)
    ps = (1.0, 2.0, 3.0, math.inf)
    draws = limits.simulate_draws(iv, ps, limits.SimConfig(64, 4, 2026))
    for p, want in RECORDED[name].items():
        assert draws[:, ps.index(p)].tolist() == want


# sha256 of simulate_draws(iv, (1, 2, 3, inf), SimConfig(1024, 600, 2026))
# .tobytes(), recorded from the engine that inverted each face law with one
# np.interp call on the block's unsorted uniforms.  600 rows are two full
# blocks and a partial one, so a face value scattered back to the wrong face
# anywhere in a block changes the digest.
BLOCK_DIGESTS = {
    "uniform": "465f1ff2f33ef2f1fff3b1a304742d9e4e41cd8293f3876c38c61385d0112bbf",
    "two": "721f0f4f795f5b967ba710445c0d3bbaed7786bc6ebdf8b642ec707c221b7bd7",
}


@pytest.mark.parametrize("name,spec", [("uniform", models.UniformCdf()), ("two", TWO_SEGMENT)])
def test_block_scale_draws_equal_recorded_digest(name, spec):
    iv = models.extract_intervals(spec)
    draws = limits.simulate_draws(iv, (1.0, 2.0, 3.0, math.inf), limits.SimConfig(1024, 600, 2026))
    assert hashlib.sha256(draws.tobytes()).hexdigest() == BLOCK_DIGESTS[name]


def _stick_lengths_by_loop(rng, streams: int):
    # Reference for _face_lengths: the same draws in the same order, one
    # stick at a time in Python.
    sticks = [[] for _ in range(streams)]
    left = [1.0] * streams
    done = [False] * streams
    while not all(done):
        rounds = {s: rng.random(limits._STICKS) for s in range(streams) if not done[s]}
        for s, u in rounds.items():
            for x in u.tolist():
                if not done[s]:
                    sticks[s].append(x * left[s])
                    left[s] *= 1.0 - x
                    done[s] = left[s] < limits._STICK_TAIL
    return sticks, left


def test_stick_breaking_rounds_match_a_loop_reference(monkeypatch):
    # One generator breaks every stream's sticks, _STICKS at a time, in
    # stream order, and later rounds draw only for unfinished streams: with
    # 4 a round every stream takes several rounds and they finish in
    # different ones.
    for sticks in (limits._STICKS, 4):
        monkeypatch.setattr(limits, "_STICKS", sticks)
        lengths, first = limits._face_lengths(limits.generator(43), 80)
        want, left = _stick_lengths_by_loop(limits.generator(43), 80)
        counts = np.diff(first)
        assert first[0] == 0 and counts.tolist() == [len(w) for w in want]
        assert lengths.tolist() == [x for w in want for x in w]
        assert counts.min() > 4 and counts.max() > counts.min()
        assert max(left) < limits._STICK_TAIL


def test_kennedy_table_not_built_at_import():
    code = (
        "import lcmtest, lcmtest.cli; from lcmtest import limits; "
        "assert all(t.cache_info().currsize == 0 for t in limits._FACE_LAWS.values())"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})


def test_engine_draws_do_not_depend_on_the_pass(monkeypatch):
    # The sampled excursions of a block are drawn in sub-passes of at most
    # _POINTS_PER_PASS points, a replication's normals in one call and its
    # walk cumsummed on its own, so no draw depends on the sub-pass width,
    # including when stick-breaking takes several rounds for every stream.
    cfg = limits.SimConfig(grid_size=64, replications=45, master_seed=17)
    for spec in (models.UniformCdf(), TWO_SEGMENT):
        iv = models.extract_intervals(spec)
        for ps in ((1.0, 2.0, math.inf), (1.0, 2.5, math.inf), (2.5, 3.0)):
            for sticks in (limits._STICKS, 4):
                monkeypatch.setattr(limits, "_STICKS", sticks)
                monkeypatch.setattr(limits, "_POINTS_PER_PASS", 2**16)  # one sub-pass
                want = limits.simulate_draws(iv, ps, cfg)
                for points in (1, 200, 1000):
                    monkeypatch.setattr(limits, "_POINTS_PER_PASS", points)
                    assert np.array_equal(limits.simulate_draws(iv, ps, cfg), want)


def test_simulate_draws_reports_progress():
    iv = models.extract_intervals(TWO_SEGMENT)
    n = 2 * limits._BLOCK + 45
    calls = []
    limits.simulate_draws(iv, (2.0,), limits.SimConfig(64, n, 17), lambda done, n: calls.append((done, n)))
    assert calls == [(limits._BLOCK, n), (2 * limits._BLOCK, n), (n, n)]


# -- couplings ------------------------------------------------------------------------


def test_rescaling_identity_uniform_gap_is_exactly_zero():
    check = coupling.verify_rescaling_identity(models.UniformCdf(), 3.0, 5, 50, 128)
    assert np.all(check.gap == 0.0)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_rescaling_identity_two_segment(p):
    check = coupling.verify_rescaling_identity(TWO_SEGMENT, p, 6, 100, 128)
    assert check.gap.max() < 1e-9


def test_rescaling_identity_short_support():
    # Support ending before 1: the composed bridge vanishes beyond it, and
    # the identity still holds pathwise.
    check = coupling.verify_rescaling_identity(SHORT_SUPPORT, 2.0, 8, 100, 128)
    assert check.gap.max() < 1e-9


def test_dominance_unit_interval_is_equality():
    iv = models.extract_intervals(models.UniformCdf())
    check = coupling.verify_dominance_coupling(iv, 2.0, 9, 20, 128)
    assert np.array_equal(check.lhs, check.rhs)
    assert np.all(check.hull_excess == 0.0)
    assert not check.violation.any()


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_dominance_two_segment(p):
    iv = models.extract_intervals(TWO_SEGMENT)
    check = coupling.verify_dominance_coupling(iv, p, 10, 300, 128)
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
    master, spans = coupling._block_grid(ku, iv.h, grid_size)
    w = coupling.sample_wiener(master, [substream(stream, 0)])[0]
    b = w - master * w[-1]
    lhs = rhs = 0.0
    for k, (i0, i1) in enumerate(spans):
        u = coupling._unit_preimage(master[i0 : i1 + 1], ku[k], iv.h[k])
        x = kx[k] + iv.d[k] * u
        x[-1] = kx[k + 1]
        lhs += coupling.pow_integral_from_gaps(x, coupling.lcm_gap_on_grid(x, b[i0 : i1 + 1]), p)
        w_k = (w[i0 : i1 + 1] - w[i0]) * iv.h[k] ** -0.5
        gap = coupling.lcm_gap_on_grid(u, w_k)
        rhs += iv.d[k] * iv.h[k] ** (p / 2.0) * coupling.pow_integral_from_gaps(u, gap, p)
    return float(lhs) ** (1.0 / p), float(rhs) ** (1.0 / p)


def _dominance_one_path(iv, p, stream, grid_size):
    # The dominance coupling on a single path: 1-d gaps, scalar roots.
    lengths = coupling.coupling_lengths(iv, p)
    knots = np.concatenate(([0.0], np.cumsum(lengths)))
    master, spans = coupling._block_grid(knots, lengths, grid_size)
    w = coupling.sample_wiener(master, [substream(stream, 0)])[0]
    full_gap = coupling.lcm_gap_on_grid(master, w)
    rhs = coupling.pow_integral_from_gaps(master, full_gap, p) ** (1.0 / p)
    lhs, hull_excess = 0.0, 0.0
    for (i0, i1), a, l in zip(spans, knots, lengths):
        u = coupling._unit_preimage(master[i0 : i1 + 1], a, l)
        root = math.sqrt(l)
        sub_gap = coupling.lcm_gap_on_grid(u, (w[i0 : i1 + 1] - w[i0]) / root)
        lhs += l ** ((p + 2.0) / 2.0) * coupling.pow_integral_from_gaps(u, sub_gap, p)
        hull_excess = max(hull_excess, float((sub_gap * root - full_gap[i0 : i1 + 1]).max()))
    return float(lhs) ** (1.0 / p), rhs, hull_excess


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize(
    "spec", [models.UniformCdf(), TWO_SEGMENT, FOUR_INTERVALS], ids=["uniform", "two", "four"]
)
def test_batched_verifiers_equal_one_path_reference(monkeypatch, spec, p):
    # Narrow passes, so 40 paths span two or more of them on every grid;
    # each call counts the passes it takes.
    monkeypatch.setattr(coupling, "_POINTS_PER_PASS", 2**11)
    passes = []
    wiener_passes = coupling._wiener_passes

    def counted(master, seed, paths):
        for rows, w in wiener_passes(master, seed, paths):
            passes.append(rows)
            yield rows, w

    monkeypatch.setattr(coupling, "_wiener_passes", counted)
    iv = models.extract_intervals(spec)
    streams = [substream(606, i) for i in range(40)]
    for grid in (64, 256):
        passes.clear()
        got = coupling.verify_rescaling_identity(spec, p, 606, 40, grid)
        assert len(passes) >= 2
        want = [_identity_one_path(spec, p, s, grid) for s in streams]
        assert (got.lhs.tolist(), got.rhs.tolist()) == tuple(map(list, zip(*want)))
        passes.clear()
        got = coupling.verify_dominance_coupling(iv, p, 606, 40, grid)
        assert len(passes) >= 2
        want = [_dominance_one_path(iv, p, s, grid) for s in streams]
        got = (got.lhs.tolist(), got.rhs.tolist(), got.hull_excess.tolist())
        assert got == tuple(map(list, zip(*want)))


@pytest.mark.parametrize("budget", [1024, 16384])
def test_sampled_draws_finite_at_the_largest_p(budget):
    # The sampled excursions' p-th powers neither overflow nor warn (pytest
    # makes every RuntimeWarning an error) at p = 64.
    draws = limits.simulate_draws(limits._UNIT, (pwl.MAX_P,), limits.SimConfig(budget, 256, 7))
    assert np.all(np.isfinite(draws)) and np.all(draws > 0.0)


def test_dominance_rejects_inf():
    iv = models.extract_intervals(TWO_SEGMENT)
    with pytest.raises(ValueError):
        coupling.verify_dominance_coupling(iv, math.inf, 1, 1, 64)


# -- quantiles ------------------------------------------------------------------------


def test_estimate_quantiles_rank_convention():
    q = limits.estimate_quantiles(np.arange(1.0, 11.0), [0.1])
    assert q[0.1].quantile == 9.0


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


def test_table_matches_single_draws():
    # A one-replication table holds the one draw that limit_draw_general
    # makes from substream(seed, 0), at an exact-law and a sampled index.
    for seed in range(10):
        cfg = limits.SimConfig(grid_size=64, replications=1, master_seed=seed)
        table = limits.build_critical_table(cfg, alphas=(0.5,), ps=(2.0, 2.5))
        for p in (2.0, 2.5):
            want = limits.limit_draw_general(limits._UNIT, p, substream(seed, 0), 64)
            assert table.lookup(p, 0.5).quantile == want


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
        "lcmtest_version", "numpy_version", "scipy_version", "timing",
    }
    assert prov["lcmtest_version"] == lcmtest.__version__ and prov["engine"] == limits.ENGINE
    assert prov["numpy_version"] == np.__version__ and "workers" not in prov
    timing = prov["timing"]
    assert list(timing) == ["seconds", "reps_per_s", "draws_seconds", "quantiles_seconds"]
    assert timing["draws_seconds"] > 0.0 and timing["quantiles_seconds"] > 0.0
    assert timing["seconds"] == pytest.approx(timing["draws_seconds"] + timing["quantiles_seconds"])
    assert timing["reps_per_s"] == pytest.approx(400 / timing["seconds"])


def test_package_version_matches_pyproject():
    # Tables record lcmtest.__version__; the packaging metadata must agree.
    with open(Path(SRC).parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == lcmtest.__version__


def test_flat_substream_key_matches_nested_substreams():
    # Keys compose: the coupling verifiers draw path i from
    # substream(substream(seed, i), 0), which is substream(seed, i, 0).
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
    # The command line hands its --p tokens to pwl.norm_index as strings.
    for token in ("inf", " Infinity ", "+inf", "INF", "iNfInItY\n"):
        assert pwl.norm_index(token) == math.inf
    assert pwl.norm_index("2") == 2.0
    assert pwl.norm_index("64") == pwl.MAX_P
    for token in ("0.5", "64.5", "nan", "-inf", "two"):
        with pytest.raises(ValueError):
            pwl.norm_index(token)
