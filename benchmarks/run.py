"""lcmtest benchmark: one workload, timed end to end or per layer, and checked.

Usage (from the repository root):

    python3 benchmarks/run.py --workload {critvals,test,coupling} --seed N \
        --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout.  Inputs are generated
from ``--seed``; the rounds run in a fresh interpreter (``session.py``) whose
peak RSS is the program's; this process then checks every output against
``checks.py`` and prints one JSON line: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer ones
(``--trace 1``).  Details go to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import session
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = {
    "setup_s": "s",
    "critvals_serial_reps_per_s": "reps/s",
    "critvals_parallel_reps_per_s": "reps/s",
    "test_small_ms": "ms",
    "test_large_distinct_s": "s",
    "test_large_tied_s": "s",
    "simulate_limit_draws_per_s": "draws/s",
    "verify_identity_paths_per_s": "paths/s",
    "verify_dominance_paths_per_s": "paths/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"_us": "us", "_ms": "ms", "_s": "s", "_pct": "%"}
SETUP_PROBES = 3
#: Timings are reported at the speed where ``session.SpeedProbe`` reads
#: 1.5 ms, about this machine's speed when its neighbours are quiet.
REFERENCE_PROBE_S = 1.5e-3
COUPLING_TOL = 1e-9  # pathwise identities hold to float accumulation only
MEAN_RATIO_DRAWS = 200  # a mean of fewer small draws is too skewed for a 4-se test
STAT_RTOL = 1e-9  # reference statistic vs the program's; observed agreement ~1e-16
DEADLINE_S = 170  # every run must end within 180 s


def setup_seconds() -> float:
    """Median over fresh interpreters of the time until ``import lcmtest,
    lcmtest.cli`` returns, each scaled to the reference speed."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import lcmtest, lcmtest.cli"
    probe = session.SpeedProbe()
    times = []
    before = probe()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        wall = time.perf_counter() - t0
        after = probe()
        times.append(wall * REFERENCE_PROBE_S / (0.5 * (before + after)))
        before = after
    return statistics.median(times)


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def upper_quantile(draws: np.ndarray, alpha: float) -> tuple[float, float]:
    """The ceil((1 - alpha) N)-th smallest draw, and half the spread of the
    order statistics one binomial sd of ranks either side, as its se.

    The same rule as ``limits.estimate_quantiles``, written out here so that
    the uniform reference does not run through the code it checks.
    """
    s = np.sort(draws)
    n = s.size
    rank = min(max(math.ceil((1.0 - alpha) * n - 1e-9), 1), n)
    spread = math.sqrt(n * alpha * (1.0 - alpha))
    lo, hi = max(1, math.floor(rank - spread)), min(n, math.ceil(rank + spread))
    return float(s[rank - 1]), 0.5 * float(s[hi - 1] - s[lo - 1])


class Checker:
    """Checks on first-round outputs; each depends on the ops it reads."""

    def __init__(self, plan: workloads.Plan, first: list):
        self.plan = plan
        self.reports = []
        for out in first:
            try:
                self.reports.append(json.loads(out["stdout"]))
            except ValueError:
                self.reports.append(None)
        self.results: list[tuple[str, bool, list[int], str]] = []

    def add(self, name: str, deps: list[int], fn) -> None:
        if any(self.reports[i] is None for i in deps):
            self.results.append((name, False, deps, "no report"))
            return
        try:
            ok, detail = fn(*[self.reports[i] for i in deps])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.results.append((name, bool(ok), deps, detail))

    def ops_of(self, kind: str) -> list[int]:
        return [i for i, op in enumerate(self.plan.ops) if op["kind"] == kind]

    # -- critvals -------------------------------------------------------------

    def critvals(self) -> None:
        tables = self.ops_of("critvals")
        serial = tables[0]
        # Every call uses one seed and one size, serial or parallel alike.
        self.add("critvals/serial_equals_parallel", tables,
                 lambda *ts: (all(t["entries"] == ts[0]["entries"] for t in ts),
                              f"{len(ts)} tables of {len(ts[0]['entries'])} entries"))
        self.add("critvals/ordered_in_p", [serial], self._ordered_in_p)
        self.add("critvals/nonincreasing_in_alpha", [serial], self._nonincreasing_in_alpha)
        self.add("critvals/sup_at_most_exact", [serial], lambda t: self._sup_in_range(t, upper=True))
        self.add("critvals/sup_within_grid_bias", [serial], lambda t: self._sup_in_range(t, upper=False))

    @staticmethod
    def _cells(table) -> dict:
        return {(e["p"], round(e["alpha"], 9)): (e["q"], e["se"]) for e in table["entries"]}

    def _ordered_in_p(self, table):
        # ||g||_1 <= ||g||_2 <= ||g||_inf on [0, 1] path by path, so the
        # quantiles of the same draws keep that order.
        c = self._cells(table)
        bad = [a for a in workloads.ALPHAS
               if not c[("1", float(a))][0] <= c[("2", float(a))][0] * (1 + 1e-12)
               or not c[("2", float(a))][0] <= c[("inf", float(a))][0] * (1 + 1e-12)]
        return not bad, f"alphas out of order: {bad}"

    def _nonincreasing_in_alpha(self, table):
        c = self._cells(table)
        bad = [p for p in workloads.PS
               if any(c[(p, float(a))][0] < c[(p, float(b))][0]
                      for a, b in zip(workloads.ALPHAS, workloads.ALPHAS[1:]))]
        return not bad, f"p increasing in alpha: {bad}"

    def _sup_in_range(self, table, upper: bool):
        # The p = inf cells against the exact law of their order statistic:
        # above it only by chance (TAIL), below it by the grid bias.
        c = self._cells(table)
        n, grid = int(table["provenance"]["replications"]), int(table["provenance"]["grid_size"])
        ok, detail = True, []
        for a in workloads.ALPHAS:
            q = c[("inf", float(a))][0]
            lo, hi = checks.sup_order_statistic_range(n, float(a), grid)
            ok &= q <= hi if upper else q >= lo
            detail.append(f"alpha={a}: q={q:.4f} in [{lo:.4f}, {hi:.4f}]")
        return ok, "; ".join(detail)

    # -- test -------------------------------------------------------------------

    def test(self) -> None:
        ops = self.plan.ops
        by_file: dict[str, dict[str, int]] = {}
        for i in self.ops_of("test"):
            op = ops[i]
            by_file.setdefault(op["file"], {})[op["p"]] = i
            sample = self.plan.samples[op["file"]]
            self.add(f"test/{Path(op['file']).stem}/p{op['p']}/statistic", [i],
                     lambda r, x=sample, p=op["p"]: self._statistic(r, x, p))
            if op["dist"] == "convex" and op["n"] >= 10**6:
                self.add(f"test/{Path(op['file']).stem}/p{op['p']}/rejects", [i],
                         lambda r: (r["reject"]["0.05"] is True, f"value={r['value']:.4g}"))
        for path, idx in by_file.items():
            if len(idx) == len(workloads.PS):
                self.add(f"test/{Path(path).stem}/ordered_in_p", [idx[p] for p in workloads.PS],
                         lambda a, b, c: (a["value"] <= b["value"] * (1 + 1e-12)
                                          and b["value"] <= c["value"] * (1 + 1e-12),
                                          f"{a['value']:.6g} {b['value']:.6g} {c['value']:.6g}"))
            if path.endswith("-permuted.txt"):
                raw = by_file.get(path.replace("-permuted.txt", "-raw.txt"), {})
                for p, i in idx.items():
                    if p in raw:
                        self.add(f"test/{Path(path).stem}/p{p}/permutation_invariant", [raw[p], i],
                                 lambda a, b: (abs(a["value"] - b["value"]) <= 1e-12 * a["value"],
                                               f"{a['value']!r} vs {b['value']!r}"))

    @staticmethod
    def _statistic(report, sample, p):
        ref = checks.lp_statistic(sample, math.inf if p == "inf" else float(p))
        ok = report["n"] == sample.size and abs(report["value"] - ref) <= STAT_RTOL * ref + 1e-12
        return ok, f"program={report['value']!r} reference={ref!r}"

    # -- coupling ---------------------------------------------------------------

    def coupling(self, lcmtest) -> None:
        passed = {
            "identity": lambda r: (r["pass"] is True and r["max_gap"] < COUPLING_TOL,
                                   f"max_gap={r['max_gap']:.3e}"),
            "dominance": lambda r: (r["pass"] is True and r["violations"] == 0,
                                    f"violations={r['violations']} max_norm_excess={r['max_norm_excess']:.3e}"),
        }
        for i in self.ops_of("verify"):
            mode = self.plan.ops[i]["mode"]
            self.add(f"coupling/verify_{mode}", [i], passed[mode])

        sim = self.ops_of("simulate-limit")[0]
        op = self.plan.ops[sim]
        report = self.reports[sim]
        grid = int(report["grid_size"]) if report else 4096
        knots = np.array(workloads.COUPLING_KNOTS)
        d, h = np.diff(knots[:, 0]), np.diff(knots[:, 1])
        limits, models, substream = lcmtest.limits, lcmtest.models, lcmtest.streams.substream
        # The draws simulate-limit sorted, rebuilt through the public API and
        # continued on the same seeds to MEAN_RATIO_DRAWS, and twice as many
        # uniform-law draws on an independent seed, at the same grid.
        iv = models.extract_intervals(models.PiecewiseAffineCdf.from_knots(workloads.COUPLING_KNOTS))
        uniform = models.extract_intervals(models.UniformCdf())
        draws = max(op["units"], MEAN_RATIO_DRAWS)
        pw = np.array([limits.limit_draw_general(iv, 1.0, substream(op["seed"], i), grid)
                       for i in range(draws)])
        ref_seed = workloads.child_seed(self.plan.seed, "uniform-reference")
        un = np.array([limits.limit_draw_general(uniform, 1.0, substream(ref_seed, i), grid)
                       for i in range(2 * draws)])

        def dominated(r):
            # The paper's theorem: the uniform limit dominates every concave one.
            detail, ok = [], True
            for key, cell in r["quantiles"].items():
                q_u, se_u = upper_quantile(un, float(key))
                ok &= cell["q"] <= q_u + checks.SE_MULTIPLE * math.hypot(cell["se"], se_u)
                detail.append(f"alpha={key}: {cell['q']:.4f} vs uniform {q_u:.4f}")
            return ok, "; ".join(detail)

        def mean_ratio(r):
            # E[draw] = sum_k d_k sqrt(h_k) * E[uniform draw] at p = 1, exactly
            # at any grid, since every interval's path uses the same grid.
            target = float(np.sum(d * np.sqrt(h)))
            ratio = pw.mean() / un.mean()
            se = ratio * math.hypot(pw.std(ddof=1) / pw.mean() / math.sqrt(pw.size),
                                    un.std(ddof=1) / un.mean() / math.sqrt(un.size))
            return abs(ratio - target) <= checks.SE_MULTIPLE * se, f"ratio={ratio:.4f} se={se:.4f} target={target:.4f}"

        self.add("coupling/dominated_by_uniform", [sim], dominated)
        self.add("coupling/mean_ratio", [sim], mean_ratio)


def run_session(plan_path: Path, result_path: Path, budget: float) -> bool:
    """Run session.py in its own process group, so that on a timeout its
    critvals pool workers are killed along with it."""
    proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("session.py")),
                             str(plan_path), str(result_path)],
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        rc = proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"error: workload session ran past {budget:.0f} s", file=sys.stderr)
        return False
    if rc != 0:
        print(f"error: workload session exited with {rc}", file=sys.stderr)
        return False
    return True


def tally(rounds: list, results: list) -> tuple[int, int, list[str]]:
    """Operations and checks, counted once per round.

    A check runs on the first round's outputs; in a later round it counts as
    failed too if any output it read changed or its command failed.
    """
    attempted = failed = 0
    failures = []
    base = rounds[0]["ops"]
    for r, rnd in enumerate(rounds):
        bad_ops = {i for i, rec in enumerate(rnd["ops"]) if rec["rc"] != 0 or rec["digest"] != base[i]["digest"]}
        attempted += len(rnd["ops"]) + len(results)
        failed += len(bad_ops)
        failures += [f"round {r}: op {i} failed or changed its output" for i in sorted(bad_ops)]
        for name, ok, deps, detail in results:
            if not ok or bad_ops.intersection(deps):
                failed += 1
                if r == 0 or ok:
                    failures.append(f"round {r}: {name}: {detail}")
    return attempted, failed, failures


def scaled_walls(rnd: dict) -> list[float]:
    """Each call's wall time scaled to the reference speed by the speed
    probes taken just before and just after it."""
    speed = rnd["speed"]
    return [rec["wall"] * REFERENCE_PROBE_S / (0.5 * (speed[i] + speed[i + 1]))
            for i, rec in enumerate(rnd["ops"])]


def end_to_end(plan: workloads.Plan, rounds: list, setup: float, rss_kb: int) -> dict:
    """Median over the run's calls of each metric, at the reference speed."""
    samples: dict[str, list[float]] = {}
    for rnd in rounds:
        for op, seconds in zip(plan.ops, scaled_walls(rnd)):
            if "units" in op:
                value = op["units"] / seconds
            else:
                value = seconds * (1e3 if op["metric"].endswith("_ms") else 1.0)
            samples.setdefault(op["metric"], []).append(value)
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["setup_s"] = setup
    values["peak_rss_mb"] = rss_kb / 1024.0
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["critvals", "test", "coupling"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    if not (SRC / "lcmtest" / "__init__.py").is_file():
        print(f"error: no lcmtest package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lcmtest
    from lcmtest import cli

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=tag + "-", dir=OUT))
    try:
        setup = setup_seconds() if args.trace == 0 else math.nan
        workers = len(os.sched_getaffinity(0))
        plan = workloads.build(args.workload, args.seed, workers, work)
        rc = _quiet(cli.main, ["critvals", "--grid", str(workloads.TABLE_GRID), "--reps",
                               str(workloads.TABLE_REPS), "--seed",
                               str(workloads.child_seed(args.seed, "table")), "--out", plan.table])
        if rc != 0:
            print("error: could not build the cached critical-value table", file=sys.stderr)
            return 1
        trace_path = OUT / f"spans-{tag}.json"
        plan_path, result_path = work / "plan.json", work / "session.json"
        plan_path.write_text(json.dumps({
            "src": str(SRC), "seconds": args.seconds, "trace": bool(args.trace),
            "trace_path": str(trace_path), "ops": plan.ops, "warmup": plan.warmup(),
        }))
        budget = DEADLINE_S - (time.perf_counter() - started)
        if not run_session(plan_path, result_path, budget):
            return 1
        session = json.loads(result_path.read_text())
        rounds = session["rounds"]

        checker = Checker(plan, session["first"])
        checker.critvals()
        checker.test()
        checker.coupling(lcmtest)
        attempted, failed, failures = tally(rounds, checker.results)

        if args.trace:
            walls = {"untraced": [], "traced": []}
            for rnd in rounds:
                walls["traced" if rnd["traced"] else "untraced"].append(sum(scaled_walls(rnd)))
            values = spans.layer_metrics(json.loads(trace_path.read_text()), plan.ops, walls)
            metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        else:
            metrics = end_to_end(plan, rounds, setup, session["peak_rss_kb"])

        result = {"correct": all(ok for _, ok, _, _ in checker.results),
                  "attempted": attempted, "failed": failed, "metrics": metrics}
        (OUT / f"result-{tag}.json").write_text(json.dumps({
            **result, "rounds": len(rounds), "workers": workers, "failures": failures,
            "elapsed_s": time.perf_counter() - started,
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, _, d in checker.results],
            "round_walls": [[rec["wall"] for rec in rnd["ops"]] for rnd in rounds],
            "ops": [op["argv"] for op in plan.ops],
            "speed_probe_s": [rnd["speed"] for rnd in rounds],
            "op_metrics": [op["metric"] for op in plan.ops],
            "op_units": [op.get("units") for op in plan.ops],
        }, indent=1))
        for line in failures[:20]:
            print(line, file=sys.stderr)
        for op, out in zip(plan.ops, session["first"]):
            if out["stderr"]:
                print(f"lcmtest {op['argv'][0]} failed: {out['stderr'][-500:]}", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
