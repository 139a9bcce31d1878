"""Command-line surface.

Commands: run the concavity test on a data file, build and cache critical
values, simulate the limit law of a given concave CDF, run the pathwise
coupling verifications, and print the exact two-point worked example.

Reports are JSON on stdout; human-readable logs go to stderr.  Exit codes:
0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import limits, models, pwl, stats
from .streams import substream


class InputError(Exception):
    """Bad user input (malformed file, out-of-range data, missing table)."""


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _check_value(v: float, where: str) -> float:
    if not math.isfinite(v):
        raise InputError(f"{where}: non-finite value {v!r}")
    if v < 0.0 or v > 1.0:
        raise InputError(f"{where}: value {v!r} outside [0, 1]")
    return v


def _comments_are_whole_lines(text: str) -> bool:
    # True when every '#' sits in a line that starts with '#' after leading
    # whitespace and holds no line break of str.splitlines other than its
    # '\n': numpy then drops exactly the lines the line loop skips.
    pos = text.find("#")
    while pos != -1:
        start = text.rfind("\n", 0, pos) + 1
        end = text.find("\n", pos)
        end = len(text) if end == -1 else end
        if text[start:pos].strip() or len(text[start:end].splitlines()) > 1:
            return False
        pos = text.find("#", end)
    return True


def _parse_plain(text: str) -> np.ndarray | None:
    # One numpy pass over a file of bare numbers, one per line, dropping
    # '#' comments.  None unless the result is a nonempty single column of
    # finite values in [0, 1]; every other file goes to the line loop, which
    # owns the error messages.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            arr = np.loadtxt(io.StringIO(text), ndmin=2, comments="#")
        except ValueError:
            return None
    # NaN fails both comparisons, so the range check also rejects non-finite values.
    if arr.shape[1] != 1 or arr.size == 0 or not np.all((arr >= 0.0) & (arr <= 1.0)):
        return None
    return arr[:, 0]


def _read_text(path: str, what: str) -> str:
    # A UTF-8 input file's text, without the byte-order mark some editors
    # and spreadsheets write first; a file that is missing, unreadable or
    # not UTF-8 is an input error.
    if not Path(path).is_file():
        raise InputError(f"{what} file not found: {path}")
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read {what} file: {exc}") from None


def read_samples(path: str, column: str | None = None) -> np.ndarray:
    """Read observations from a text file (one number per line, '#' comments)
    or from a CSV column given by name or 0-based index.

    A text file whose '#' all start whole-line comments is parsed by numpy
    in one pass, comments dropped; the Python row loop, shared with CSV
    files, takes over whenever that pass fails or finds a value the loop
    would reject, so both routes accept the same files with the same values
    and messages.
    """
    text = _read_text(path, "data")
    values: list[float] = []
    if column is None:
        if text.strip() and _comments_are_whole_lines(text):
            arr = _parse_plain(text)
            if arr is not None:
                return arr
        # One column whose rows are the lines, read by the CSV loop below.
        rows, idx, start = [[line] for line in text.splitlines()], 0, 0
    else:
        rows = list(csv.reader(text.splitlines()))
        try:
            idx = int(column)
            name = None
        except ValueError:
            idx = None
            name = column
        if idx is not None and idx < 0:
            raise InputError(f"--column index must be non-negative, got {idx}")
        start = 0
        if name is not None:
            if not rows:
                raise InputError(f"{path}: empty CSV file")
            header = [h.strip() for h in rows[0]]
            if name not in header:
                raise InputError(f"{path}: no column named {name!r} (have {header})")
            idx = header.index(name)
            start = 1
    for ln, row in enumerate(rows[start:], start + 1):
        if not row or (row[0].strip().startswith("#")):
            continue
        if idx >= len(row):
            raise InputError(f"{path}:{ln}: row has no column {idx}")
        tok = row[idx].strip()
        if not tok:
            continue
        try:
            v = float(tok)
        except ValueError:
            if ln == 1 and column is not None:
                continue  # unnamed header row in index mode
            raise InputError(f"{path}:{ln}: not a number: {tok!r}") from None
        values.append(_check_value(v, f"{path}:{ln}"))
    if not values:
        raise InputError(f"{path}: no data values found")
    return np.asarray(values)


def load_spec(path: str) -> models.ConcaveCdf:
    try:
        data = json.loads(_read_text(path, "spec"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    try:
        return models.spec_from_dict(data)
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path}: invalid CDF spec: {exc}") from None


def _table_hash(table: limits.CriticalValueTable) -> str:
    # Hash of the entries only, so reruns differing just in timestamp agree.
    blob = json.dumps(table.to_dict()["entries"], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _save_table(table: limits.CriticalValueTable, path: str) -> None:
    try:
        table.save(path)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None
    _log(f"wrote {path}")


def _progress_logger(label: str):
    seen: set[int] = set()

    def cb(done: int, total: int) -> None:
        decile = (10 * done) // total
        if decile >= 1 and decile not in seen:
            seen.add(decile)
            _log(f"{label}: {done}/{total} replications")

    return cb


def _limit_table(args, ps, alphas, iv=None) -> limits.CriticalValueTable:
    # The one route from a command to the limit engine: upper quantiles of
    # the law with affine intervals iv (the uniform law when None) at the
    # command's point budget, replications and seed.
    config = limits.SimConfig(args.grid, args.reps, args.seed)
    _log(
        f"simulating the limit law: p={[limits.p_key(p) for p in ps]}, alpha={alphas}, "
        f"grid={args.grid}, reps={args.reps}, seed={args.seed}"
    )
    progress = _progress_logger("limit draws")
    return limits.build_critical_table(config, alphas, ps, progress, iv)


def _critical_values_for_test(args, alphas):
    """Resolve critical values: a cached table, a fresh simulation, or the
    simulated limit of a user-supplied concave CDF."""
    source = {"mode": "uniform-table"}
    if args.cdf is not None:
        spec = load_spec(args.cdf)
        source = {"mode": "cdf-limit", "cdf": models.spec_to_dict(spec)}
        table = _limit_table(args, (args.p,), alphas, models.extract_intervals(spec))
    elif args.table is not None and Path(args.table).is_file():
        try:
            table = limits.CriticalValueTable.load(args.table)
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(
                f"{args.table}: not a critical-value table ({type(exc).__name__}: {exc})"
            ) from None
        engine = table.provenance.get("engine")
        if engine != limits.ENGINE:
            raise InputError(
                f"{args.table}: stale table from engine {engine!r}, not {limits.ENGINE!r}; "
                "rebuild it with lcmtest critvals"
            )
        _log(f"loaded critical values from {args.table}")
    elif args.simulate:
        table = _limit_table(args, (args.p,), alphas)
        if args.table is not None:
            _save_table(table, args.table)
    else:
        raise InputError("no critical values: pass --table FILE (existing) or --simulate")
    try:
        quants = {float(a): table.lookup(args.p, a) for a in alphas}
    except KeyError as exc:
        raise InputError(str(exc)) from None
    # Wall-clock keys stay in the table file, so a report is the same from
    # run to run.
    provenance = {k: v for k, v in table.provenance.items() if k not in ("built_at", "timing")}
    provenance.update(source)
    provenance["table_hash"] = _table_hash(table)
    return quants, provenance


def cmd_test(args) -> int:
    samples = read_samples(args.data, args.column)
    alphas = [float(a) for a in args.alpha]
    try:
        result = stats.lp_stat(samples, args.p)
    except pwl.GeometryError:
        raise
    except ValueError as exc:  # a sample the ECDF cannot be built from
        raise InputError(f"{args.data}: {exc}") from None
    quants, provenance = _critical_values_for_test(args, alphas)
    report = {
        "kind": result.kind,
        "p": limits.p_key(args.p),
        "n": result.n,
        "value": result.value,
        "alphas": alphas,
        "critical_values": {f"{a:g}": quants[a].quantile for a in alphas},
        "standard_errors": {f"{a:g}": quants[a].se for a in alphas},
        "reject": {f"{a:g}": bool(result.value > quants[a].quantile) for a in alphas},
        "table": provenance,
    }
    _emit(report)
    return 0


def cmd_critvals(args) -> int:
    alphas = [float(a) for a in args.alpha]
    table = _limit_table(args, args.p, alphas)
    _save_table(table, args.out)
    _emit(table.to_dict())
    return 0


def cmd_simulate_limit(args) -> int:
    spec = load_spec(args.cdf)
    iv = models.extract_intervals(spec)
    if iv.is_empty:
        _log("strictly concave CDF: the limit is degenerate at zero")
    table = _limit_table(args, (args.p,), args.alphas, iv=iv)
    quants = {f"{a:g}": table.lookup(args.p, a) for a in args.alphas}
    _emit(
        {
            "cdf": models.spec_to_dict(spec),
            "p": limits.p_key(args.p),
            "engine": limits.ENGINE,
            "grid_size": args.grid,
            "replications": args.reps,
            "master_seed": args.seed,
            "intervals": iv.as_tuples(),
            "quantiles": {key: {"q": est.quantile, "se": est.se} for key, est in quants.items()},
        }
    )
    return 0


def cmd_verify(args) -> int:
    spec = load_spec(args.cdf)
    if math.isinf(args.p):
        raise InputError("coupling verification covers finite p only")
    iv = models.extract_intervals(spec)
    if iv.is_empty:
        raise InputError(
            "identity verification needs a piecewise-affine or uniform CDF; "
            "a strictly concave CDF has a degenerate limit"
            if args.mode == "identity"
            else "nothing to verify: a strictly concave CDF has no affine intervals "
            "and its dominance is immediate"
        )

    report = {
        "mode": args.mode,
        "cdf": models.spec_to_dict(spec),
        "p": limits.p_key(args.p),
        "paths": args.paths,
        "grid_size": args.grid,
        "master_seed": args.seed,
    }
    streams = [substream(args.seed, i) for i in range(args.paths)]
    if args.mode == "identity":
        gaps = limits.verify_rescaling_identity(spec, args.p, streams, args.grid).gap
        report["max_gap"] = float(gaps.max())
        passed = report["max_gap"] < limits.COUPLING_TOL
        spread = {"gap_quantiles": gaps}
    else:
        check = limits.verify_dominance_coupling(iv, args.p, streams, args.grid)
        excess = check.lhs - check.rhs
        report["violations"] = int(np.count_nonzero(check.violation))
        report["max_norm_excess"] = float(excess.max())
        report["max_hull_excess"] = float(check.hull_excess.max())
        passed = report["violations"] == 0
        spread = {"norm_excess_quantiles": excess, "hull_excess_quantiles": check.hull_excess}
    report["tolerance"] = limits.COUPLING_TOL
    report["pass"] = bool(passed)
    levels = (0.5, 0.9, 0.99)
    for key, values in spread.items():
        # The spread over paths: at each level one path's value, the
        # ceil(level * paths)-th smallest.
        qs = np.quantile(values, levels, method="inverted_cdf")
        report[key] = {f"{level:g}": float(q) for level, q in zip(levels, qs)}
    _emit(report)
    return 0 if passed else 1


_COUNTEREXAMPLE_NOTE = (
    "Rounded values of 0.37 and 0.29 circulate for these two samples. Exact "
    "integration (cross-checked by adaptive quadrature) gives sqrt(1/6) ~ "
    "0.408248 for BOTH samples: each difference profile integrates to 1/12, "
    "so the two-observation example does not separate the statistics at p=2 "
    "under this definition. The convention behind the rounded values could "
    "not be reverse-engineered; the exact values are authoritative here."
)


def cmd_counterexample(args) -> int:
    del args
    cases = []
    for sample, reported in (([0.25, 1.0], 0.37), ([0.5, 1.0], 0.29)):
        res = stats.lp_stat(sample, 2.0)
        integral = stats.exact_gap_pow_integral(sample, 2)
        squared = Fraction(len(sample)) * integral
        cases.append(
            {
                "sample": sample,
                "value": res.value,
                "value_squared_exact": f"{squared.numerator}/{squared.denominator}",
                "gap_integral_exact": f"{integral.numerator}/{integral.denominator}",
                "reported_rounded": reported,
            }
        )
    _emit({"kind": "lp", "p": "2", "cases": cases, "note": _COUNTEREXAMPLE_NOTE})
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lcmtest",
        description=(
            "Test whether a distribution function on [0, 1] is concave, using "
            "the scaled L^p distance between the empirical CDF and its least "
            "concave majorant."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)
    seed_help = f"master seed (default {limits.DEFAULT_SEED}; fixed so default runs reproduce)"
    budget_help = (
        f"point budget of the limit simulation for p outside {{1, 2, inf}}, whose "
        f"face laws are exact: a majorant face of length l is sampled on "
        f"max(4, round(grid * l)) points (default {limits.DEFAULT_GRID})"
    )
    workers_help = "ignored, kept for old command lines: the simulation runs in this process"

    t = sub.add_parser("test", help="run the concavity test on a data file")
    t.add_argument("data", help="text file with one value per line, or CSV with --column")
    t.add_argument("--p", default="2", help="norm index in [1, inf] or 'inf' (default 2)")
    t.add_argument("--alpha", nargs="+", type=float, default=[0.05], help="test levels")
    t.add_argument("--column", default=None, help="CSV column name or 0-based index")
    t.add_argument("--table", default=None, help="critical-value cache (JSON); created with --simulate")
    t.add_argument("--simulate", action="store_true", help="simulate critical values when no table exists")
    t.add_argument("--cdf", default=None, help="concave CDF spec file: test against its own simulated limit")
    t.add_argument("--grid", type=int, default=limits.DEFAULT_GRID, help=budget_help)
    t.add_argument("--reps", type=int, default=limits.DEFAULT_REPLICATIONS, help="simulation replications")
    t.add_argument("--seed", type=int, default=limits.DEFAULT_SEED, help=seed_help)
    t.add_argument("--workers", type=int, default=1, help=workers_help)
    t.set_defaults(func=cmd_test)

    c = sub.add_parser("critvals", help="simulate and cache critical values")
    c.add_argument("--p", nargs="+", default=["1", "2", "inf"], help="norm indices")
    c.add_argument("--alpha", nargs="+", type=float, default=[0.01, 0.05, 0.10], help="levels")
    c.add_argument("--grid", type=int, default=limits.DEFAULT_GRID, help=budget_help)
    c.add_argument("--reps", type=int, default=limits.DEFAULT_REPLICATIONS)
    c.add_argument("--seed", type=int, default=limits.DEFAULT_SEED, help=seed_help)
    c.add_argument("--workers", type=int, default=1, help=workers_help)
    c.add_argument("--out", required=True, help="output JSON path")
    c.set_defaults(func=cmd_critvals)

    s = sub.add_parser("simulate-limit", help="simulate the limit law of a concave CDF")
    s.add_argument("--cdf", required=True, help="concave CDF spec file (JSON)")
    s.add_argument("--p", default="2")
    s.add_argument("--reps", type=int, default=20000)
    s.add_argument("--seed", type=int, default=limits.DEFAULT_SEED, help=seed_help)
    s.add_argument("--alphas", nargs="+", type=float, default=[0.01, 0.05, 0.10, 0.50])
    s.add_argument("--grid", type=int, default=limits.DEFAULT_GRID, help=budget_help)
    s.set_defaults(func=cmd_simulate_limit)

    v = sub.add_parser("verify", help="run the pathwise coupling verifications")
    v.add_argument("--cdf", required=True, help="concave CDF spec file (JSON)")
    v.add_argument("--p", default="2")
    v.add_argument("--paths", type=int, default=1000)
    v.add_argument("--seed", type=int, default=limits.DEFAULT_SEED, help=seed_help)
    v.add_argument(
        "--mode",
        choices=["identity", "dominance"],
        required=True,
        help="identity: rescaled representation equals the derivative route; "
        "dominance: rescaled aggregate never exceeds the full-path norm",
    )
    v.add_argument("--grid", type=int, default=256, help="subintervals of the Wiener path's base grid")
    v.set_defaults(func=cmd_verify)

    x = sub.add_parser(
        "counterexample",
        help="exact two-observation example where the finite-p statistic fails "
        "to grow under the probability-integral transform",
    )
    x.set_defaults(func=cmd_counterexample)
    return ap


def _check_scale(args) -> None:
    # Norm indices, counts and levels shared by the commands that take them,
    # checked before any file is read or any simulation runs.  A norm index
    # or level given twice is kept once, at its first place.
    for flag in ("reps", "paths", "workers"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise InputError(f"--{flag} must be at least 1, got {value}")
    p = getattr(args, "p", None)
    try:
        if isinstance(p, list):
            args.p = list(dict.fromkeys(limits.parse_p(tok) for tok in p))
        elif p is not None:
            args.p = limits.parse_p(p)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise InputError(f"--seed must be non-negative, got {seed}")
    grid = getattr(args, "grid", None)
    if grid is not None and grid < 2:
        raise InputError(f"--grid must be at least 2, got {grid}")
    for flag in ("alpha", "alphas"):
        levels = getattr(args, flag, None)
        for level in levels or ():
            if not 0.0 < level < 1.0:
                raise InputError(f"--{flag} levels must lie in (0, 1), got {level:g}")
        if levels is not None:
            setattr(args, flag, list(dict.fromkeys(levels)))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_scale(args)
        return args.func(args)
    except InputError as exc:
        _log(f"error: {exc}")
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
