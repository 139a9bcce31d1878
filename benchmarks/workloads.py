"""The three workloads: their generated inputs and the commands each round runs.

Every workload runs every user-facing path, because every run reports every
end-to-end metric.  Its own path runs at full weight; the others run as
probes, a few small calls each, so that a change to any path shows in every
workload and the home workload gives the most precise reading.

All inputs derive from the workload seed; the program sees only the files.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

ALPHAS = ("0.01", "0.05", "0.10")
PS = ("1", "2", "inf")
TABLE_GRID = 1024  # the cached table for `test`; its values only set reject flags
TABLE_REPS = 2000
CRITVALS_REPS = 150  # per call at the default grid 16384: about 0.3 s serial

#: Concave CDF for the coupling path: four affine intervals with slopes
#: 3, 1.5, 5/6 and 3/8.
COUPLING_KNOTS = [[0.0, 0.0], [0.1, 0.3], [0.3, 0.6], [0.6, 0.85], [1.0, 1.0]]

#: Sample laws for `test`, each drawn by inverting its CDF at uniform U.
#: power: F(u) = sqrt(u), a strictly concave null; two_segment: concave,
#: knots (0, 0), (0.4, 0.7), (1, 1); convex: F(u) = u^2, the alternative.
DISTS = ("power", "two_segment", "convex")


def child_seed(seed: int, tag: str) -> int:
    """A 31-bit seed for one use, fixed by the workload seed and a tag."""
    ss = np.random.SeedSequence([seed & 0xFFFFFFFF, zlib.crc32(tag.encode())])
    return int(ss.generate_state(1)[0] >> 1)


def draw(dist: str, n: int, seed: int) -> np.ndarray:
    u = np.random.default_rng(child_seed(seed, f"data/{dist}/{n}")).random(n)
    if dist == "power":
        return u * u
    if dist == "two_segment":
        return np.where(u <= 0.7, u * (0.4 / 0.7), 0.4 + (u - 0.7) * (0.6 / 0.3))
    if dist == "convex":
        return np.sqrt(u)
    raise ValueError(dist)


def write_sample(path: Path, values: np.ndarray) -> None:
    # repr round-trips every double, so the file holds exactly these values.
    path.write_text("\n".join(map(repr, values.tolist())) + "\n")


class Plan:
    """Operations of one round, the files they read, and the warm-up calls."""

    def __init__(self, workload: str, seed: int, workers: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.workers = workers
        self.work = work
        self.ops: list[dict] = []
        self.samples: dict[str, np.ndarray] = {}  # file -> values, for the checks
        self.table = str(work / "table.json")
        self.spec = str(work / "cdf.json")

    # -- inputs --------------------------------------------------------------

    def sample_file(self, dist: str, n: int, variant: str) -> str:
        """Write (once) the ``variant`` of a sample: raw, tied or permuted."""
        path = self.work / f"{dist}-{n}-{variant}.txt"
        key = str(path)
        if key not in self.samples:
            x = draw(dist, n, self.seed)
            if variant == "tied":
                x = np.round(x, 3)
            elif variant == "permuted":
                x = np.random.default_rng(child_seed(self.seed, f"perm/{dist}/{n}")).permutation(x)
            write_sample(path, x)
            self.samples[key] = x
        return key

    # -- operations ----------------------------------------------------------

    def critvals(self, reps: int) -> None:
        seed = str(child_seed(self.seed, "critvals"))
        for workers in (1, self.workers):
            out = str(self.work / f"table-w{workers}.json")
            self.ops.append({
                "kind": "critvals", "workers": workers, "units": reps, "out": out,
                "metric": "critvals_serial_reps_per_s" if workers == 1 else "critvals_parallel_reps_per_s",
                "argv": ["critvals", "--reps", str(reps), "--seed", seed, "--workers", str(workers),
                         "--out", out],
            })

    def test(self, dist: str, n: int, variant: str, p: str) -> None:
        path = self.sample_file(dist, n, variant)
        tied = variant == "tied"
        metric = "test_small_ms" if n < 10**6 else ("test_large_tied_s" if tied else "test_large_distinct_s")
        self.ops.append({
            "kind": "test", "n": n, "tied": tied, "dist": dist, "variant": variant, "p": p,
            "file": path, "metric": metric,
            "argv": ["test", path, "--p", p, "--alpha", *ALPHAS, "--table", self.table],
        })

    def coupling(self, draws: int, paths: int) -> None:
        self.ops.append({
            "kind": "simulate-limit", "units": draws, "metric": "simulate_limit_draws_per_s",
            "seed": child_seed(self.seed, "simulate-limit"),
            "argv": ["simulate-limit", "--cdf", self.spec, "--p", "1", "--reps", str(draws),
                     "--seed", str(child_seed(self.seed, "simulate-limit")),
                     "--alphas", *ALPHAS, "0.50"],
        })
        for mode in ("identity", "dominance"):
            self.ops.append({
                "kind": "verify", "mode": mode, "units": paths, "metric": f"verify_{mode}_paths_per_s",
                "argv": ["verify", "--cdf", self.spec, "--p", "2", "--paths", str(paths),
                         "--seed", str(child_seed(self.seed, f"verify/{mode}")), "--mode", mode],
            })

    def test_probe(self) -> None:
        for p in PS:
            self.test("two_segment", 10**4, "raw", p)
        for p in PS[:2]:
            self.test("two_segment", 10**6, "raw", p)
            self.test("two_segment", 10**6, "tied", p)

    def test_full(self) -> None:
        for dist in DISTS:
            for variant in ("raw", "tied", "permuted"):
                for p in PS:
                    self.test(dist, 10**4, variant, p)
        # At n = 10^6 each p gets one law, so every law and every p is timed
        # on distinct and on tied data without 18 two-second calls a round.
        for dist, p in zip(DISTS, PS):
            self.test(dist, 10**6, "raw", p)
            self.test(dist, 10**6, "tied", p)

    def interleave(self, *parts: list[dict]) -> None:
        """Merge the paths' operations evenly through the round.

        The machine's speed drifts over seconds, so each metric's calls are
        spread over the whole run instead of bunched in one stretch.
        """
        keyed = [((j + 0.5) / len(ops), k, op) for k, ops in enumerate(parts) for j, op in enumerate(ops)]
        self.ops = [op for _, _, op in sorted(keyed, key=lambda t: (t[0], t[1]))]

    def warmup(self) -> list[list[str]]:
        """Small untimed calls that load every code path before timing."""
        small = self.sample_file("two_segment", 10**4, "raw")
        return [
            ["critvals", "--reps", "8", "--seed", "1", "--workers", "1", "--out", str(self.work / "warm.json")],
            ["test", small, "--p", "2", "--alpha", *ALPHAS, "--table", self.table],
            ["simulate-limit", "--cdf", self.spec, "--p", "1", "--reps", "4", "--seed", "1"],
            ["verify", "--cdf", self.spec, "--p", "2", "--paths", "4", "--seed", "1", "--mode", "identity"],
            ["verify", "--cdf", self.spec, "--p", "2", "--paths", "4", "--seed", "1", "--mode", "dominance"],
        ]


def _part(plan: Plan, fill) -> list[dict]:
    start = len(plan.ops)
    fill()
    part = plan.ops[start:]
    del plan.ops[start:]
    return part


def build(workload: str, seed: int, workers: int, work: Path) -> Plan:
    """One round: the home path at full weight, the other paths as probes."""
    plan = Plan(workload, seed, workers, work)
    Path(plan.spec).write_text(json.dumps({"type": "piecewise", "knots": COUPLING_KNOTS}))
    home = {
        "critvals": lambda: [plan.critvals(CRITVALS_REPS) for _ in range(6)],
        "test": plan.test_full,
        "coupling": lambda: [plan.coupling(40, 50) for _ in range(10)],
    }
    # Probes are many small calls: each run's median needs samples spread
    # through the run more than it needs big ones.
    probe = {
        "critvals": lambda: [plan.critvals(CRITVALS_REPS) for _ in range(4)],
        "test": plan.test_probe,
        "coupling": lambda: [plan.coupling(15, 20) for _ in range(6)],
    }
    if workload not in home:
        raise ValueError(f"unknown workload {workload!r}")
    parts = [_part(plan, home[w] if w == workload else probe[w]) for w in home]
    plan.interleave(*parts)
    return plan
