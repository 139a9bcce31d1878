"""Command-line surface.

Commands: run the concavity test on a data file, build and cache critical
values, simulate the limit law of a given concave CDF, run the pathwise
coupling verifications, and print the exact two-point worked example.

Reports are JSON on stdout; human-readable logs go to stderr.  Exit codes:
0 success, 1 verification failure, 2 input error or a scale too large for
memory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import coupling, limits, models, pwl, stats


class InputError(Exception):
    """Bad user input (malformed file, out-of-range data, missing table)."""


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _check_value(v: float, where: str) -> float:
    if not math.isfinite(v):
        raise InputError(f"{where}: non-finite value {v!r}")
    if v < 0.0 or v > 1.0:
        raise InputError(f"{where}: value {v!r} outside [0, 1]")
    return v


#: Bytes a file of plain decimals may hold, and those among them that send a
#: line to float(): a sign or an exponent, which the mantissa parse reads as 0.
_DECIMAL_BYTES = b"0123456789.\n"
_FLOAT_BYTES = b"eE+-"
_ZEROED_MARKS = bytes.maketrans(_FLOAT_BYTES, b"0000")
#: The line breaks of str.splitlines other than CR and LF, in ASCII and past it.
_BREAK_BYTES, _BREAK_CHARS = b"\x0b\x0c\x1c\x1d\x1e", "\x85\u2028\u2029"
#: 10**f for f <= 22, each an exact double.
_POW10 = 10.0 ** np.arange(23)
#: Relative slack on the two-product correction: a line whose rounding it can
#: change is near a midpoint between doubles and goes to float().
_MIDPOINT_TOL = 2.0**-40
#: Bytes per chunk, cut at a line end: 10^6 repr lines parse in 0.165 s at
#: 256 KiB and in 0.183 s at 1 MiB (medians of 11, 2 cores).
_CHUNK = 1 << 18


def _lf(data: bytes) -> bytes:
    # CRLF and lone CR to LF, as str.splitlines breaks lines.
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def _plain_utf8(data: bytes, odd: bytes, extra: bytes = b"") -> bool:
    # Whether data, whose bytes outside _DECIMAL_BYTES are odd, is UTF-8 that
    # str.splitlines breaks at LF alone, without a byte of extra.
    try:
        return len(odd.translate(None, _BREAK_BYTES + extra)) == len(odd) and (
            odd.isascii() or not any(c in data.decode() for c in _BREAK_CHARS)
        )
    except UnicodeDecodeError:
        return False


def _drop_skipped_lines(chunk: bytes, blank: bool) -> bytes | None:
    # The LF-ended lines of chunk without those whose first byte past spaces
    # and tabs is '#' or, if blank, LF; None unless the dropped lines are
    # _plain_utf8, since the row loop decodes them and splits them at any
    # line break.
    b = np.frombuffer(chunk, np.uint8)
    ends = np.flatnonzero(b == 10)
    starts = np.append(0, ends[:-1] + 1)
    ink = np.flatnonzero((b != 32) & (b != 9))
    head = b[ink[np.searchsorted(ink, starts)]]
    keep = np.repeat((head != 35) & ((head != 10) | (not blank)), ends - starts + 1)
    gone = b[~keep].tobytes()
    return b[keep].tobytes() if _plain_utf8(gone, gone) else None


def _column_cells(chunk: bytes, odd: bytes, col: int) -> bytes | None:
    # Cell col of each LF-ended line of a CSV chunk, one a line, without the
    # whole-line comments; odd is the chunk's bytes outside _DECIMAL_BYTES.
    # csv.reader cuts a line at its commas unless it holds a quote or NUL,
    # which it reads apart.  None for those, for bytes not _plain_utf8, for
    # any other '#' and for a line, not empty, without the column.
    if not _plain_utf8(chunk, odd, b'"\0'):
        return None
    if b"#" in odd:
        chunk = _drop_skipped_lines(chunk, blank=False)
        if chunk is None or b"#" in chunk:
            return None
    # Line k ends at cut[ends[k]]; its cells start past cut[before[k]], ...
    b = np.frombuffer(chunk, np.uint8)
    cut = np.append(-1, np.flatnonzero((b == 10) | (b == 44)))
    ends = np.flatnonzero(b[cut[1:]] == 10) + 1
    before = np.append(0, ends)[:-1]
    if np.any((ends - before <= col) & (cut[ends] > cut[before] + 1)):
        return None
    lo, hi = cut[np.minimum(before + col, ends - 1)] + 1, cut[np.minimum(before + col + 1, ends)]
    # Each cell with the byte past it, which becomes its LF.
    bounds = np.column_stack([lo, hi + 1]).ravel()
    cells = b[np.repeat(np.arange(bounds.size + 1) % 2 == 1, np.diff(bounds, prepend=0, append=b.size))]
    cells[np.cumsum(hi + 1 - lo) - 1] = 10
    return cells.tobytes()


def _mantissas(chunk: bytes, b: np.ndarray, nl: np.ndarray, odd: bytes) -> tuple[np.ndarray, np.ndarray]:
    # The values of a chunk's lines, which end at nl, and the lines left to
    # float(), as _parse_decimal_lines reads them.  ValueError for a line
    # with two dots or no number.
    dots = np.flatnonzero(b == 46)
    if dots.size == nl.size and np.all(dots < nl) and np.all(dots[1:] > nl[:-1]):
        f = nl - dots - 1
    else:
        line = np.searchsorted(nl, dots)
        if np.any(line[1:] == line[:-1]):
            raise ValueError("two dots on a line")
        f = np.zeros_like(nl)
        f[line] = nl[line] - dots - 1
    m = np.fromstring(chunk.translate(_ZEROED_MARKS, b"."), np.uint64, sep="\n")
    if m.size != nl.size or chunk == b".\n":  # numpy reads b"\n" as one 0
        raise ValueError("a line without one number")
    redo = (f > 22) | (m >= 1 << 62)  # numpy saturates an overflow at 2**64 - 1
    m[redo] = 0
    p = _POW10[np.minimum(f, 22)]
    x, big = m / p, m >= 1 << 53
    if big.any():
        # Dekker's two-product on Veltkamp halves: prod + err == x * p,
        # so the remainder hi - x * p == (hi - prod) - err exactly.
        hi, prod = m.astype(np.float64), x * p
        xt, pt = x * 134217729.0, p * 134217729.0
        xh, ph = xt - (xt - x), pt - (pt - p)
        err = ((xh * ph - prod) + xh * (p - ph) + (x - xh) * ph) + (x - xh) * (p - ph)
        c = ((hi - prod) - err + (m - hi.astype(np.uint64)).view(np.int64)) / p
        redo |= big & (x + c * (1.0 + _MIDPOINT_TOL) != x + c * (1.0 - _MIDPOINT_TOL))
        x = np.where(big, x + c, x)
    if odd:
        marks = (b > 57) | (b - np.uint8(43) < 3)
        if odd.translate(None, _FLOAT_BYTES):
            marks |= (b == 32) | (b == 9)
        redo[np.searchsorted(nl, np.flatnonzero(marks))] = True
    return x, np.flatnonzero(redo)


def _parse_decimal_lines(data: bytes, col: int | None = None) -> np.ndarray | None:
    # The values of one number a line (of CSV column col, if given), each the
    # double float() gives, or None.  In chunks cut at line ends: CR line
    # ends become LF from the first chunk that holds a CR, and blank lines
    # and whole-line comments are dropped.  A line is an integer mantissa m
    # over 10**f (f = 0 without a dot): for m < 2**53, m / 10**f is one
    # correctly rounded division (Clinger's fast path); below 2**62 the
    # quotient gets a correction from its exact remainder (Dekker's
    # two-product).  Lines with a sign, an exponent or padding, longer lines
    # and near-midpoint ones go to float().  Past an eighth of such lines, a
    # chunk and those after it go whole to numpy's float parse, the dtoa
    # float() runs, unless padded: numpy's separator matches any whitespace.
    # None for a bad line or a value outside [0, 1]; a decline in chunk k
    # costs k chunks.
    start, parts, floats = 0, [], False
    while start < len(data):
        end = len(data) if len(data) - start <= _CHUNK else data.rfind(b"\n", start, start + _CHUNK) + 1 or len(data)
        chunk = data[start:end] if data[end - 1] == 10 else data[start:end] + b"\n"
        odd = chunk.translate(None, _DECIMAL_BYTES)
        if b"\r" in odd:
            data, start = _lf(data[start:]), 0
            continue
        start = end
        if col is not None:
            chunk = _column_cells(chunk, odd, col)
            if chunk is None:
                return None
            odd = chunk.translate(None, _DECIMAL_BYTES)
        b = np.frombuffer(chunk, np.uint8)
        nl = np.flatnonzero(b == 10)
        if odd.translate(None, _FLOAT_BYTES) or np.any(np.diff(nl, prepend=-1) == 1):
            chunk = _drop_skipped_lines(chunk, blank=True)
            if chunk is None:
                return None
            odd, b = chunk.translate(None, _DECIMAL_BYTES), np.frombuffer(chunk, np.uint8)
            nl = np.flatnonzero(b == 10)
            if odd.translate(None, _FLOAT_BYTES + b" \t"):
                return None
        unpadded = not odd.translate(None, _FLOAT_BYTES)
        try:
            if not (floats and unpadded):
                x, redo = _mantissas(chunk, b, nl, odd)
                floats = unpadded and redo.size > nl.size // 8
                if not floats:
                    x[redo] = [float(chunk[i:j]) for i, j in zip(np.append(-1, nl)[redo] + 1, nl[redo])]
            if floats:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DeprecationWarning)  # numpy 1.x warns where it stops
                    x = np.fromstring(chunk, np.float64, sep="\n")
        except (ValueError, DeprecationWarning):
            return None
        if x.size != nl.size or not np.all((x >= 0.0) & (x <= 1.0)):
            return None
        parts.append(x)
    out = np.concatenate(parts) if parts else np.empty(0)
    return out if out.size else None


def _header(first: list[str], idx: int | None, name: str | None) -> tuple[int | None, int]:
    # The column's index in a CSV file whose first row is first (None for a
    # name not there), and 1 if that row is a header: a named column's, or an
    # index's whose cell there is not a number.
    if name is not None:
        header = [h.strip() for h in first]
        return (header.index(name), 1) if name in header else (None, 1)
    try:
        float(first[idx])
    except ValueError:
        return idx, 1
    except IndexError:
        pass
    return idx, 0


def _parse_csv_column(data: bytes, idx: int | None, name: str | None) -> np.ndarray | None:
    # A CSV column's values, or None.  The header comes from the first line
    # alone, and goes with the comments if it is one.
    data = _lf(data)
    line = data.partition(b"\n")[0]
    col, skip = _header(next(csv.reader([line.decode()])), idx, name) if _plain_utf8(line, line, b'"\0') else (None, 0)
    if col is None:
        return None
    skip = skip and not line.lstrip(b" \t").startswith(b"#")
    return _parse_decimal_lines(data[len(line) + 1 :] if skip else data, col)


def _read_bytes(path: str, what: str) -> bytes:
    # A file that is missing or unreadable is an input error.
    if not Path(path).is_file():
        raise InputError(f"{what} file not found: {path}")
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"{path}: cannot read {what} file: {exc}") from None


def _decode(data: bytes, path: str, what: str) -> str:
    # A UTF-8 file's text as Path.read_text gives it, with universal newlines
    # and without the byte-order mark some editors and spreadsheets write
    # first; bytes that are not UTF-8 are an input error.
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: cannot read {what} file: {exc}") from None


def read_samples(path: str, column: str | None = None) -> np.ndarray:
    """Read observations from a text file (one number per line, '#' comments)
    or from a CSV column given by name or 0-based index.

    The file is read once, as bytes.  Its lines, or a CSV column's cells, are
    parsed in chunks as integer mantissas and converted exactly
    (:func:`_parse_decimal_lines`).  Any file that route declines, the Python
    row loop reads from the decoded text, so both accept the same files with
    the same values and messages.
    """
    data = _read_bytes(path, "data")
    body, idx, name = data.removeprefix(b"\xef\xbb\xbf"), 0, None
    if column is None:
        arr = _parse_decimal_lines(body)
    else:
        try:
            idx = int(column)
        except ValueError:
            idx, name = None, column
        if idx is not None and idx < 0:
            raise InputError(f"--column index must be non-negative, got {idx}")
        arr = _parse_csv_column(body, idx=idx, name=name)
    if arr is not None:
        return arr
    text = _decode(data, path, "data")
    if column is None:
        rows, start = [[line] for line in text.splitlines()], 0
    else:
        rows = list(csv.reader(text.splitlines()))
        if name is not None and not rows:
            raise InputError(f"{path}: empty CSV file")
        idx, start = _header(rows[0] if rows else [], idx, name)
        if idx is None:
            raise InputError(f"{path}: no column named {name!r} (have {[h.strip() for h in rows[0]]})")
    values = []
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
            raise InputError(f"{path}:{ln}: not a number: {tok!r}") from None
        values.append(_check_value(v, f"{path}:{ln}"))
    if not values:
        raise InputError(f"{path}: no data values found")
    return np.asarray(values)


def load_spec(path: str) -> models.ConcaveCdf:
    try:
        data = json.loads(_decode(_read_bytes(path, "spec"), path, "spec"))
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


def _check_writable(path: str) -> None:
    # Refuses an output path that is a directory, or whose directory is
    # missing, before the simulation runs, not after; other write faults
    # surface in _save_table.
    parent = Path(path).parent
    if not parent.is_dir():
        raise InputError(f"cannot write {path}: no directory {parent}")
    if Path(path).is_dir():
        raise InputError(f"cannot write {path}: it is a directory")


def _save_table(table: limits.CriticalValueTable, path: str) -> str:
    try:
        text = table.save(path)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None
    _log(f"wrote {path}")
    return text


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
        iv = models.extract_intervals(spec)
        if iv.is_empty:
            # Every critical value would be 0, so every sample would be rejected.
            raise InputError(
                f"{args.cdf}: strictly concave CDF: the limit is degenerate at zero; "
                "test against the uniform table (--table or --simulate)"
            )
        source = {"mode": "cdf-limit", "cdf": models.spec_to_dict(spec)}
        table = _limit_table(args, (args.p,), alphas, iv)
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
        if args.table is not None:
            _check_writable(args.table)
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
    _check_writable(args.out)
    table = _limit_table(args, args.p, alphas)
    sys.stdout.write(_save_table(table, args.out))
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
            **limits.software_versions(),
            "intervals": iv.as_tuples(),
            "quantiles": {key: {"q": est.quantile, "se": est.se} for key, est in quants.items()},
        }
    )
    return 0


def cmd_verify(args) -> int:
    spec = load_spec(args.cdf)
    try:
        if args.mode == "identity":
            check = coupling.verify_rescaling_identity(spec, args.p, args.seed, args.paths, args.grid)
        else:
            iv = models.extract_intervals(spec)
            check = coupling.verify_dominance_coupling(iv, args.p, args.seed, args.paths, args.grid)
    except pwl.GeometryError:
        raise
    except ValueError as exc:  # p = inf, no affine interval, an interval too narrow for its grid
        raise InputError(str(exc)) from None
    report = {
        "mode": args.mode,
        "cdf": models.spec_to_dict(spec),
        "p": limits.p_key(args.p),
        "paths": args.paths,
        "grid_size": args.grid,
        "master_seed": args.seed,
        **limits.software_versions(),
    }
    if args.mode == "identity":
        report["max_gap"] = float(check.gap.max())
        passed = report["max_gap"] < coupling.COUPLING_TOL
        spread = {"gap_quantiles": check.gap}
    else:
        excess = check.lhs - check.rhs
        report["violations"] = int(np.count_nonzero(check.violation))
        report["max_norm_excess"] = float(excess.max())
        report["max_hull_excess"] = float(check.hull_excess.max())
        passed = report["violations"] == 0
        spread = {"norm_excess_quantiles": excess, "hull_excess_quantiles": check.hull_excess}
    report["tolerance"] = coupling.COUPLING_TOL
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process; every default is immutable, so calls share no state.
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
    p_range = f"in [1, {pwl.MAX_P:g}] or 'inf'"

    t = sub.add_parser("test", help="run the concavity test on a data file")
    t.add_argument("data", help="text file with one value per line, or CSV with --column")
    t.add_argument("--p", default="2", help=f"norm index {p_range} (default 2)")
    t.add_argument("--alpha", nargs="+", type=float, default=(0.05,), help="test levels")
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
    c.add_argument("--p", nargs="+", default=("1", "2", "inf"), help=f"norm indices, each {p_range}")
    c.add_argument("--alpha", nargs="+", type=float, default=(0.01, 0.05, 0.10), help="levels")
    c.add_argument("--grid", type=int, default=limits.DEFAULT_GRID, help=budget_help)
    c.add_argument("--reps", type=int, default=limits.DEFAULT_REPLICATIONS)
    c.add_argument("--seed", type=int, default=limits.DEFAULT_SEED, help=seed_help)
    c.add_argument("--workers", type=int, default=1, help=workers_help)
    c.add_argument("--out", required=True, help="output JSON path")
    c.set_defaults(func=cmd_critvals)

    s = sub.add_parser("simulate-limit", help="simulate the limit law of a concave CDF")
    s.add_argument("--cdf", required=True, help="concave CDF spec file (JSON)")
    s.add_argument("--p", default="2", help=f"norm index {p_range} (default 2)")
    s.add_argument("--reps", type=int, default=20000)
    s.add_argument("--seed", type=int, default=limits.DEFAULT_SEED, help=seed_help)
    s.add_argument("--alphas", nargs="+", type=float, default=(0.01, 0.05, 0.10, 0.50))
    s.add_argument("--grid", type=int, default=limits.DEFAULT_GRID, help=budget_help)
    s.set_defaults(func=cmd_simulate_limit)

    v = sub.add_parser("verify", help="run the pathwise coupling verifications")
    v.add_argument("--cdf", required=True, help="concave CDF spec file (JSON)")
    v.add_argument("--p", default="2", help=f"norm index in [1, {pwl.MAX_P:g}] (default 2)")
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
        if isinstance(p, (list, tuple)):
            args.p = list(dict.fromkeys(pwl.norm_index(tok) for tok in p))
        elif p is not None:
            args.p = pwl.norm_index(p)
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
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        _log(f"error: not enough memory at this scale{detail}; lower --grid, --reps or --paths")
        return 2


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # stdout's reader went away: exit 128 + SIGPIPE, as a shell reports it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit cannot fail
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    console_main()
