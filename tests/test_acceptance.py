"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full-scale
critical-value simulation (criterion 1) is built once and shared; expect a
few minutes of total runtime.  Every test here is marked ``slow``, so
``pytest -m "not slow"`` runs the fast suite without them.
"""

import json
import math
import time

import numpy as np
import pytest

import lcmtest as lt
from lcmtest import cli, coupling
from lcmtest.streams import substream
from oracle_utils import (
    eval_pl_exact,
    exact_hull_values,
    quad_gap_norm,
    sup_gap_quantiles,
)

pytestmark = pytest.mark.slow

TWO_SEGMENT = lt.PiecewiseAffineCdf.from_knots([(0, 0), (0.5, 0.75), (1, 1)])

# Criterion 1 references.  Finite p: the published values.  They are what a
# simulation on a grid of about 1000 points gives (grid 1024, 4*10^4
# replications: 0.805/0.645/0.570 at p=1, 0.919/0.743/0.659 at p=2), and the
# finer default grid stays within TABLE_TOL of them.  p = inf: the exact
# quantiles of sup(LCM(B) - B), computed at run time by the grid-free
# Balabdaoui-Pitman oracle (1.7197/1.4628/1.3357).  The published sup-norm
# values 1.68/1.43/1.30 are ~1000-point-grid numbers; 1.68 is the 98.7% point
# of the limit law, not the 99% point.
PUBLISHED_QUANTILES = {
    (1.0, 0.01): 0.80, (1.0, 0.05): 0.65, (1.0, 0.10): 0.57,
    (2.0, 0.01): 0.91, (2.0, 0.05): 0.74, (2.0, 0.10): 0.66,
}
TABLE_ALPHAS = (0.01, 0.05, 0.10)
TABLE_TOL = 0.03

# Grid and replication floors from the criterion.  The engine draws p = 1,
# 2 and inf from their exact face laws, so the point budget TABLE_GRID
# touches no criterion-1 column, and each p = inf cell is a Monte Carlo
# estimate of the exact quantile: it may not exceed the oracle's value by
# more than 2 se.
TABLE_GRID = 16384
TABLE_REPS = 200_000


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}  {detail}")
    assert ok, f"criterion {num} failed: {desc}  {detail}"


@pytest.fixture(scope="session")
def full_table():
    config = lt.SimConfig(
        grid_size=TABLE_GRID, replications=TABLE_REPS, master_seed=lt.DEFAULT_SEED
    )
    print(f"\nbuilding full-scale table: grid={TABLE_GRID}, reps={TABLE_REPS}")
    start = time.perf_counter()
    table = lt.build_critical_table(config, alphas=TABLE_ALPHAS, ps=(1.0, 2.0, math.inf))
    elapsed = time.perf_counter() - start
    print(f"built in {elapsed:.1f} s ({1e6 * elapsed / TABLE_REPS:.1f} us/replication)")
    return table


def test_criterion_1_table_reproduction(full_table):
    references = {key: (q, "published, ~1k grid") for key, q in PUBLISHED_QUANTILES.items()}
    for alpha, q in sup_gap_quantiles(TABLE_ALPHAS).items():
        references[(math.inf, alpha)] = (q, "exact limit")
    worst = 0.0
    bound_ok = True
    rows = []
    for (p, alpha), (ref, source) in references.items():
        est = full_table.lookup(p, alpha)
        err = est.quantile - ref
        worst = max(worst, abs(err))
        if math.isinf(p):
            bound_ok = bound_ok and err <= 2.0 * est.se
        rows.append(
            f"p={lt.p_key(p)},a={alpha:g}: {est.quantile:.4f} vs {ref:.4f} ({source}) "
            f"err={err:+.4f}"
        )
    _report(
        1,
        f"nine simulated quantiles within +/-{TABLE_TOL} of their references; "
        "p=inf quantiles at most 2 se above the exact limit quantiles",
        worst <= TABLE_TOL and bound_ok,
        f"max |error|={worst:.4f}, p=inf bound held={bound_ok};  " + "; ".join(rows),
    )


def test_criterion_2_rescaling_identity_pathwise():
    worst = 0.0
    for p in (1.0, 2.0, 3.0):
        gaps = lt.verify_rescaling_identity(TWO_SEGMENT, p, 101, 1000, grid_size=256).gap
        worst = max(worst, float(gaps.max()))
    _report(
        2,
        "interval-rescaling identity holds pathwise for p in {1,2,3} over 1000 paths",
        worst < 1e-9,
        f"max |lhs-rhs|={worst:.3e}",
    )


def test_criterion_3_dominance_coupling_pathwise():
    iv = lt.extract_intervals(TWO_SEGMENT)
    violations = 0
    worst_norm = -math.inf
    worst_hull = -math.inf
    for p in (1.0, 2.0):
        check = lt.verify_dominance_coupling(iv, p, 202, 10_000, grid_size=256)
        worst_norm = max(worst_norm, float((check.lhs - check.rhs).max()))
        worst_hull = max(worst_hull, float(check.hull_excess.max()))
        violations += int(np.count_nonzero(check.violation))
    _report(
        3,
        "dominance coupling: no norm violations and sub-hull <= full hull at "
        "every grid point, p in {1,2}, 10^4 paths",
        violations == 0 and worst_hull <= 1e-9,
        f"violations={violations}, max lhs-rhs={worst_norm:.3e}, max hull excess={worst_hull:.3e}",
    )


def test_criterion_4_stochastic_dominance_quantiles():
    reps = 20_000
    grid = 1024
    alphas = (0.01, 0.05, 0.10, 0.50)
    iv_two = lt.extract_intervals(TWO_SEGMENT)
    iv_unif = lt.extract_intervals(lt.UniformCdf())
    ok = True
    details = []
    two = lt.simulate_draws(iv_two, (1.0, 2.0), lt.SimConfig(grid, reps, 303))
    unif = lt.simulate_draws(iv_unif, (1.0, 2.0), lt.SimConfig(grid, reps, 404))
    for j, p in enumerate((1.0, 2.0)):
        q_two = lt.estimate_quantiles(two[:, j], alphas)
        q_unif = lt.estimate_quantiles(unif[:, j], alphas)
        for a in alphas:
            slack = 2.0 * math.hypot(q_two[a].se, q_unif[a].se)
            excess = q_two[a].quantile - q_unif[a].quantile
            details.append(f"p={p:g},a={a:g}: excess={excess:+.4f} (allowed {slack:.4f})")
            if excess > slack:
                ok = False
    _report(
        4,
        "two-segment limit quantiles never exceed the uniform ones beyond "
        "2 combined MC standard errors",
        ok,
        "; ".join(details),
    )


def test_criterion_5_degenerate_limit_and_shrinking_statistic(rng):
    draw = lt.limit_draw_general(
        lt.extract_intervals(lt.PowerCdf(0.5)), 2.0, substream(505, 0), grid_size=256
    )
    spec = lt.PowerCdf(0.5)
    reps = 500
    small = np.array(
        [
            lt.lp_stat(lt.inverse_cdf_sample(spec, 100, substream(606, i)), 2.0).value
            for i in range(reps)
        ]
    )
    large = np.array(
        [
            lt.lp_stat(lt.inverse_cdf_sample(spec, 10_000, substream(707, i)), 2.0).value
            for i in range(reps)
        ]
    )
    med_small, med_large = float(np.median(small)), float(np.median(large))
    _report(
        5,
        "strictly concave CDF: limit draw is exactly 0 and the statistic's "
        "median shrinks from n=100 to n=10^4",
        draw == 0.0 and med_large < med_small,
        f"draw={draw!r}, median(n=100)={med_small:.4f}, median(n=10^4)={med_large:.4f}",
    )


def test_criterion_6_geometry_oracles(rng):
    cases = 1000
    hull_ok = True
    for case in range(cases):
        n = int(rng.integers(1, 51))
        px, py = lt.ecdf_corners(rng.random(n))
        idx = lt.hull_vertices(px, py)
        oracle = exact_hull_values(px, py)
        for x, want in zip(px, oracle):
            if eval_pl_exact(px[idx], py[idx], x) != want:
                hull_ok = False
                break
        if not hull_ok:
            break

    worst_rel = 0.0
    for case in range(cases):
        n = int(rng.integers(2, 51))
        samples = rng.random(n)
        px, py = lt.ecdf_corners(samples)
        idx = lt.hull_vertices(px, py)
        for p in (1.0, 2.0, 2.5, 3.0):
            want = quad_gap_norm(px[idx], py[idx], px, py, p)
            got = lt.lp_stat(samples, p).value / math.sqrt(n)
            if want > 0:
                worst_rel = max(worst_rel, abs(got - want) / want)
    _report(
        6,
        "hull equals the exact pointwise-chord oracle on 1000 random step "
        "functions; closed-form norms match adaptive quadrature to 1e-8 relative",
        hull_ok and worst_rel <= 1e-8,
        f"hull exact={hull_ok}, worst relative norm error={worst_rel:.2e}",
    )


def test_criterion_7_size_at_least_favorable_law(full_table, rng):
    crit = full_table.lookup(2.0, 0.05).quantile
    reps = 2000
    n = 10_000
    rej_unif = 0
    rej_power = 0
    for _ in range(reps):
        u = rng.random(n)
        rej_unif += lt.lp_stat(u, 2.0).value > crit
        rej_power += lt.lp_stat(u**2, 2.0).value > crit  # power(1/2) via inverse CDF
    rate_u = rej_unif / reps
    rate_p = rej_power / reps
    _report(
        7,
        "rejection rate at level 0.05: uniform data in [0.035, 0.065], "
        "strictly concave data at most 0.02 (n=10^4, 2000 repetitions)",
        0.035 <= rate_u <= 0.065 and rate_p <= 0.02,
        f"uniform rate={rate_u:.4f}, power(1/2) rate={rate_p:.4f}, critical={crit:.4f}",
    )


def test_size_at_small_n_stays_within_alpha():
    # Uniform data at n = 5, 20 and 100 against the default table's
    # alpha = 0.05 cells, 4000 repetitions each: the rejection rate may not
    # exceed alpha by more than 3 se.  The rates measured here (0.021-0.040,
    # listed in the README) sit below alpha: the test is conservative at
    # small n.
    table = lt.build_critical_table(lt.SimConfig(), alphas=(0.05,), ps=(1.0, 2.0, math.inf))
    crit = {p: table.lookup(p, 0.05).quantile for p in (1.0, 2.0, math.inf)}
    reps = 4000
    bound = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / reps)
    rng = np.random.default_rng(505)
    rates = {}
    for n in (5, 20, 100):
        rejected = dict.fromkeys(crit, 0)
        for _ in range(reps):
            u = rng.random(n)
            for p, q in crit.items():
                rejected[p] += lt.lp_stat(u, p).value > q
        rates.update({(n, p): r / reps for p, r in rejected.items()})
    assert max(rates.values()) <= bound, (rates, bound)


def test_criterion_8_affine_and_bridge_identities(rng):
    grid = lt.uniform_grid(256)
    exact = True
    for lo in range(0, 10_000, 1000):
        w = lt.sample_wiener(grid, [substream(808, i) for i in range(lo, lo + 1000)])
        gap_w, gap_b = (lt.lcm_gap_on_grid(grid, paths) for paths in (w, w - grid * w[:, -1:]))
        norms = [
            [coupling.pow_integral_from_gaps(grid, g, p) for p in (1.0, 2.0)] + [g.max(axis=1)]
            for g in (gap_w, gap_b)
        ]
        exact = np.array_equal(gap_w, gap_b) and all(map(np.array_equal, *norms))
        if not exact:
            break

    theta = lt.sample_wiener(grid, [substream(909, i) for i in range(1000)])
    a = rng.normal(size=(1000, 2))  # (a0, a1) of path i in row i
    shifted = theta + a[:, :1] + a[:, 1:] * grid
    base_gap = lt.lcm_gap_on_grid(grid, theta)
    shift_gap = lt.lcm_gap_on_grid(grid, shifted)
    worst = float(np.max(np.abs(shift_gap - base_gap)))
    _report(
        8,
        "gap norms of a Wiener path and its bridge agree exactly on 10^4 paths; "
        "adding an affine function leaves the gap unchanged at every grid point",
        exact and worst <= 1e-10,
        f"bridge identity exact={exact}, max affine-shift deviation={worst:.3e}",
    )


def test_criterion_9_counterexample_command(capsys):
    code = cli.main(["counterexample"])
    doc = json.loads(capsys.readouterr().out)
    ok = code == 0
    details = []
    for case in doc["cases"]:
        samples = case["sample"]
        px, py = lt.ecdf_corners(samples)
        hull_y = [float(v) for v in exact_hull_values(px, py)]
        oracle = math.sqrt(len(samples)) * quad_gap_norm(px, hull_y, px, py, 2.0)
        err = abs(case["value"] - oracle)
        details.append(f"sample={samples}: value={case['value']:.10f}, |err vs oracle|={err:.2e}")
        if err > 1e-10:
            ok = False
    reported = [case["reported_rounded"] for case in doc["cases"]]
    documented = reported == [0.37, 0.29] and "0.408248" in doc["note"]
    _report(
        9,
        "counterexample command matches the independent quadrature oracle to "
        "1e-10 and documents the 0.37/0.29 discrepancy",
        ok and documented,
        "; ".join(details),
    )
