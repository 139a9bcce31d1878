import decimal
import hashlib
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import lcmtest
from lcmtest import cli, coupling, limits, models
from oracle_utils import sup_gap_cdf


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out.strip() else None
    return code, doc, out.err


@pytest.fixture()
def data_file(tmp_path, rng):
    path = tmp_path / "unif.txt"
    lines = ["# synthetic uniform draws"] + [f"{v:.12f}" for v in rng.random(400)]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def two_segment_file(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"type": "piecewise", "knots": [[0, 0], [0.5, 0.75], [1, 1]]}))
    return path


@pytest.fixture()
def power_file(tmp_path):
    path = tmp_path / "pow.json"
    path.write_text(json.dumps({"type": "power", "gamma": 0.5}))
    return path


# -- counterexample -------------------------------------------------------------------


def test_counterexample_reports_exact_values(capsys):
    code, doc, _ = run_cli(capsys, "counterexample")
    assert code == 0
    vals = [case["value"] for case in doc["cases"]]
    assert vals[0] == pytest.approx(math.sqrt(1 / 6), rel=1e-12)
    assert vals[1] == pytest.approx(math.sqrt(1 / 6), rel=1e-12)
    assert [case["value_squared_exact"] for case in doc["cases"]] == ["1/6", "1/6"]
    assert [case["reported_rounded"] for case in doc["cases"]] == [0.37, 0.29]
    assert "0.37" in doc["note"] or doc["cases"][0]["reported_rounded"] == 0.37


def test_console_main_closed_stdout_exits_141():
    # The read end is closed before the child has imported anything, so its
    # first write to stdout fails.  It prints nothing and exits as a shell
    # reports a reader that went away, 128 + SIGPIPE, not 1 with a traceback.
    src = str(Path(lcmtest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "lcmtest.cli", "counterexample"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141 and err == b""


# -- test command ---------------------------------------------------------------------


def test_cmd_test_simulate_and_cache(capsys, data_file, tmp_path):
    cache = tmp_path / "cache.json"
    code, doc, err = run_cli(
        capsys,
        "test",
        str(data_file),
        "--p", "2",
        "--alpha", "0.05", "0.1",
        "--simulate",
        "--table", str(cache),
        "--reps", "1500",
        "--grid", "512",
    )
    assert code == 0
    assert doc["kind"] == "lp" and doc["p"] == "2" and doc["n"] == 400
    assert set(doc["critical_values"]) == {"0.05", "0.1"}
    assert doc["critical_values"]["0.05"] == pytest.approx(0.74, abs=0.06)
    assert doc["reject"]["0.05"] in (True, False)
    assert "table_hash" in doc["table"]
    assert cache.is_file()

    # second run reuses the cache (no --simulate needed)
    code2, doc2, _ = run_cli(
        capsys, "test", str(data_file), "--p", "2", "--alpha", "0.05", "0.1",
        "--table", str(cache),
    )
    assert code2 == 0
    assert doc2["critical_values"] == doc["critical_values"]


@pytest.mark.parametrize("engine", [None, "grid-pava/0"], ids=["missing", "other"])
def test_cmd_test_rejects_stale_table(capsys, data_file, tmp_path, engine):
    cache = tmp_path / "cache.json"
    code = cli.main(["critvals", "--p", "2", "--alpha", "0.05", "--reps", "50", "--grid", "64",
                     "--out", str(cache)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(cache.read_text())
    assert doc["provenance"]["engine"] == limits.ENGINE
    if engine is None:
        del doc["provenance"]["engine"]
    else:
        doc["provenance"]["engine"] = engine
    cache.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "test", str(data_file), "--p", "2", "--table", str(cache))
    assert code == 2 and out is None
    assert err.startswith(f"error: {cache}: stale table from engine {engine!r}")


def _p2_table(q=(0.9, 0.75, 0.67), se=(0.01, 0.01, 0.01)) -> str:
    # A current table at p = 2, alpha = 0.01, 0.05, 0.10; json writes NaN and Infinity.
    rows = [{"p": "2", "alpha": a, "q": x, "se": e} for a, x, e in zip((0.01, 0.05, 0.1), q, se)]
    return json.dumps({"entries": rows, "provenance": {"engine": limits.ENGINE}})


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        json.dumps({"provenance": {"engine": limits.ENGINE}}),
        json.dumps({"entries": [{"p": "2", "alpha": 0.05, "se": 0.0}]}),
        json.dumps([{"p": "2", "alpha": 0.05, "q": 0.7}]),
        json.dumps({"entries": [{"p": "2", "alpha": a, "q": q} for a, q in ((0.01, 0.5), (0.05, 0.9))]}),
        _p2_table(q=(0.9, math.nan, 0.67)),
        _p2_table(q=(math.inf,) * 3),
        _p2_table(se=(0.01, math.nan, 0.01)),
    ],
    ids=[
        "not-json", "no-entries", "no-q", "list", "rising-in-alpha", "nan-q", "infinite-q", "nan-se"
    ],
)
def test_cmd_test_rejects_malformed_table(capsys, data_file, tmp_path, text):
    table = tmp_path / "table.json"
    table.write_text(text)
    code, out, err = run_cli(capsys, "test", str(data_file), "--p", "2", "--table", str(table))
    assert code == 2 and out is None
    assert err.startswith(f"error: {table}: not a critical-value table (")


def test_cmd_test_without_table_errors(capsys, data_file):
    code, doc, err = run_cli(capsys, "test", str(data_file), "--p", "2")
    assert code == 2
    assert "critical values" in err


def test_cmd_test_rejects_out_of_range_value(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.5\n1.5\n")
    code, _, err = run_cli(capsys, "test", str(path), "--simulate", "--reps", "10", "--grid", "16")
    assert code == 2
    assert "bad.txt:2" in err


def test_cmd_test_rejects_garbage_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.5\nhello\n")
    code, _, err = run_cli(capsys, "test", str(path), "--simulate", "--reps", "10", "--grid", "16")
    assert code == 2
    assert "bad.txt:2" in err


# Each file's outcome under the line-by-line reader: the array it returns, or
# the error after "<path>".  The one-pass numpy reader must keep all of them.
PARSE_CASES = {
    "two-on-a-line": ("0.1 0.2\n", ":1: not a number: '0.1 0.2'"),
    "comment-only": ("# nothing here\n", ": no data values found"),
    "empty": ("", ": no data values found"),
    "blank-lines": ("\n  \n\t\n", ": no data values found"),
    "inline-comment": ("0.5 # note\n", ":1: not a number: '0.5 # note'"),
    "nan": ("0.5\nnan\n", ":2: non-finite value nan"),
    "overflow": ("1e400\n", ":1: non-finite value inf"),
    "underflow": ("0.5\n1e-400\n", [0.5, 0.0]),
    "underscore": ("1_0e-1\n", [1.0]),
    "plus-dot": ("+.5\n", [0.5]),
    "trailing-dot": ("5.\n", ":1: value 5.0 outside [0, 1]"),
    "tab-pair": ("0.5\n0.1\t0.2\n", ":2: not a number: '0.1\\t0.2'"),
    "header-comment": ("# header\n0.25\n0.5\n", [0.25, 0.5]),
    "indented-comments": ("  # a\n0.1\n\t# b # c\n\n0.2\n#\n", [0.1, 0.2]),
    "crlf-comments": ("# h\r\n0.5\r\n# t\r\n", [0.5]),
    "comment-then-range": ("# h\n0.5\n1.5\n", ":3: value 1.5 outside [0, 1]"),
    "comment-then-garbage": ("# h\n\nabc\n", ":3: not a number: 'abc'"),
    "comment-then-inline": ("# h\n0.5 # note\n", ":2: not a number: '0.5 # note'"),
    "comment-then-nan": ("# x\nnan\n", ":2: non-finite value nan"),
    "comment-then-pair": ("# x\n0.5\n0.1 0.2\n", ":3: not a number: '0.1 0.2'"),
    "byte-order-mark": ("\ufeff0.25\n0.5\n", [0.25, 0.5]),
    "byte-order-mark-comment": ("\ufeff# h\n0.5\n", [0.5]),
    # Line endings and file ends, which numpy's file reader decodes itself.
    "crlf": ("0.25\r\n0.5\r\n", [0.25, 0.5]),
    "crlf-range": ("0.25\r\n1.5\r\n", ":2: value 1.5 outside [0, 1]"),
    "lone-cr": ("0.25\r0.5\r", [0.25, 0.5]),
    "lone-cr-garbage": ("0.25\rabc\r", ":2: not a number: 'abc'"),
    "no-final-newline": ("0.25\n0.5", [0.25, 0.5]),
    "byte-order-mark-crlf": ("\ufeff0.25\r\n0.5\r\n", [0.25, 0.5]),
    "trailing-blank-lines": ("0.25\n0.5\n\n\n", [0.25, 0.5]),
    # As many dots as lines, but not one on each, and a dot with no digit.
    "two-dots": ("0.1.2\n5\n", ":1: not a number: '0.1.2'"),
    "two-dots-late": ("0\n0.0.0\n", ":2: not a number: '0.0.0'"),
    "lone-dot": ("0.5\n.\n", ":2: not a number: '.'"),
}


@pytest.mark.parametrize("case", PARSE_CASES, ids=list(PARSE_CASES))
def test_read_samples_contract(capsys, tmp_path, case):
    text, want = PARSE_CASES[case]
    path = tmp_path / "data.txt"
    path.write_text(text, encoding="utf-8")
    if isinstance(want, list):
        assert np.array_equal(cli.read_samples(str(path)), want)
        return
    code = cli.main(["test", str(path), "--simulate", "--reps", "10", "--grid", "16"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == f"error: {path}{want}\n"


def test_read_samples_drops_whole_line_comments_in_one_pass(tmp_path, monkeypatch):
    # The front end drops the comment lines, an indented one too, in one call
    # on the file's only chunk, and the decimal route reads the rest.
    calls = []
    drop = cli._drop_skipped_lines
    monkeypatch.setattr(cli, "_drop_skipped_lines", lambda data, **kw: calls.append(data) or drop(data, **kw))
    _forbid_row_loop(monkeypatch)
    path = tmp_path / "data.txt"
    path.write_text("# header\n0.25\n  # note\n0.75\n")
    assert np.array_equal(cli.read_samples(str(path)), [0.25, 0.75])
    assert calls == [path.read_bytes()]


def _forbid_row_loop(monkeypatch):
    # The row loop checks each value it reads with _check_value; the decimal
    # route never calls it.
    def refuse(*args):
        raise AssertionError("read by the row loop")

    monkeypatch.setattr(cli, "_check_value", refuse)


# Files the decimal route reads without the row loop, a CSV column as the
# cells cut out of its lines: (text, --column, values).
FAST_ROUTE_CASES = {
    "plain": ("0.25\n0.5\n", None, [0.25, 0.5]),
    "header-comment": ("# header\n0.25\n0.5\n", None, [0.25, 0.5]),
    "crlf": ("# header\r\n0.25\r\n0.5\r\n", None, [0.25, 0.5]),
    "byte-order-mark": ("\ufeff0.25\n0.5\n", None, [0.25, 0.5]),
    "csv-named": ("id,pval\n1,0.25\n2,0.5\n", "pval", [0.25, 0.5]),
    "csv-index": ("a,0.25\nb,0.5\n", "1", [0.25, 0.5]),
    "csv-index-unnamed-header": ("id,pval\n1,0.25\n2,0.5\n", "1", [0.25, 0.5]),
    "csv-crlf-comment": ("\ufeffpval\r\n# from a spreadsheet\r\n0.25\r\n0.5\r\n", "pval", [0.25, 0.5]),
    "csv-indented-comment": ("id,pval\n1,0.25\n  # note\n2,0.5\n", "pval", [0.25, 0.5]),
}


@pytest.mark.parametrize("case", FAST_ROUTE_CASES, ids=list(FAST_ROUTE_CASES))
def test_read_samples_takes_numpy_file_route(tmp_path, monkeypatch, case):
    text, column, want = FAST_ROUTE_CASES[case]
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    _forbid_row_loop(monkeypatch)
    assert np.array_equal(cli.read_samples(str(path), column), want)


@pytest.mark.parametrize(
    "name,text,column",
    [
        ("data.csv", 'id,pval\n1,"0.25"\n', "pval"),
        ("data.csv", "0.25,x # note\n", "0"),
        ("data.txt", "1_0e-1\n", None),
        ("data.txt", "0.25\n# a\u2028 0.5\n", None),
    ],
    ids=["quoted-cell", "inline-comment", "underscore", "line-break-in-comment"],
)
def test_read_samples_falls_back_to_row_loop(tmp_path, monkeypatch, name, text, column):
    # csv.reader reads a quoted cell whole and the loop reads an inline
    # comment as part of its cell; the decimal route reads no byte but
    # digits, '.', signs, exponents and padding outside comments, and drops
    # no comment that str.splitlines would break in two.
    path = tmp_path / name
    path.write_text(text)
    _forbid_row_loop(monkeypatch)
    with pytest.raises(AssertionError, match="row loop"):
        cli.read_samples(str(path), column)


# Small files of numbers, blank lines, whole-line and inline '#' comments,
# in one or two comma-separated columns, with '\n' or CRLF line ends and
# with or without a byte-order mark.
_CELLS = ["0.25", "0.5", "1", "0", "-0", "1e-3", " 0.75 ", "", "1.5", "nan", "abc", "pval", "0.5 # c", '"0.5"']
# Long decimals (past 2**53, past 2**62 and past 22 places) and exponents.
_CELLS += ["0.30000000000000004", "0.9999999999999999999", "0.12345678901234567890123", "2.5e-05", "5E-1", "+.5"]
_LINES = st.one_of(
    st.lists(st.sampled_from(_CELLS + ["0.125"] * 6), min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", "  ", "# note", "  # indented", "#,pval"]),
)


@given(
    lines=st.lists(_LINES, max_size=8),
    eol=st.sampled_from(["\n", "\r\n"]),
    bom=st.booleans(),
    final_eol=st.booleans(),
    column=st.sampled_from([None, "0", "1", "pval"]),
)
@settings(max_examples=400, deadline=None)
def test_read_samples_matches_row_loop(tmp_path_factory, lines, eol, bom, final_eol, column):
    text = ("\ufeff" if bom else "") + eol.join(lines) + (eol if final_eol else "")
    path = tmp_path_factory.getbasetemp() / "property.csv"
    path.write_bytes(text.encode("utf-8"))

    def outcome():
        try:
            return cli.read_samples(str(path), column)
        except cli.InputError as exc:
            return f"error: {exc}"

    fast = outcome()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parse_decimal_lines", lambda data: None)
        mp.setattr(cli, "_parse_csv_column", lambda path, **kw: None)
        loop = outcome()
    if isinstance(loop, str):
        assert fast == loop
    else:
        assert isinstance(fast, np.ndarray) and np.array_equal(fast, loop)
        assert fast.tobytes() == loop.tobytes()


def test_read_samples_round_trips_doubles(tmp_path, rng):
    # repr strings and 25-digit decimals, which need correct rounding.
    lines = [repr(v) for v in rng.random(1000).tolist()] + [f"{v:.25f}" for v in rng.random(1000)]
    path = tmp_path / "data.txt"
    path.write_text("\n".join(lines) + "\n")
    assert np.array_equal(cli.read_samples(str(path)), [float(tok) for tok in lines])


# -- the decimal route: integer mantissas, exact conversion ---------------------------


def _forbid_other_routes(monkeypatch):
    # A file the decimal route takes never reaches the row loop, its one
    # fallback, nor is it decoded as text for it.
    _forbid_row_loop(monkeypatch)
    monkeypatch.setattr(cli, "_decode", lambda *args: pytest.fail("decoded for the row loop"))


def _midpoint_lines(rng, digits):
    # The midpoint between a double and the next one up, cut to `digits`
    # significant digits: within 10**-digits of the value where rounding flips.
    lines = []
    with decimal.localcontext(prec=80):
        for a in (rng.random(2000) * 10.0 ** -rng.integers(0, 4, 2000)).tolist():
            head, frac = f"{(Decimal(a) + Decimal(math.nextafter(a, 2.0))) / 2:f}".split(".")
            lead = len(frac) - len(frac.lstrip("0"))
            lines.append(f"{head}.{frac[: lead + digits]}")
    return lines


def _exactness_lines(case):
    rng = np.random.default_rng(2501)
    if case == "repr":
        # One value in 40 below 1e-4, which repr writes with an exponent.
        values = rng.random(4000)
        values[::40] *= 1e-6
        return [repr(v) for v in values.tolist()] + ["0.0", "1.0"]
    if case.startswith("%"):
        return [case % v for v in rng.random(2000)]
    if case.startswith("midpoint"):
        return _midpoint_lines(rng, int(case.split("-")[1]))
    # Leading zeros, a leading or trailing dot, signs; or bare integers.
    odd = ["00.5", "000.000125", ".75", "+.5", "-0.0", "0.", "1.0000", "0.000000000000000000001"]
    return (odd if case == "odd-lines" else ["0", "1", "-0"]) + [repr(v) for v in rng.random(200).tolist()]


# The decimal route takes every case: up to 18 digits as mantissas; past
# that, most mantissas reach 2**62, and numpy's float parse reads the chunk.
EXACTNESS_CASES = [
    "repr",
    *(f"%.{d}f" for d in range(16, 23)),
    *(f"midpoint-{d}" for d in range(15, 20)),
    "odd-lines",
    "bare-integers",
]


@pytest.mark.parametrize("case", EXACTNESS_CASES, ids=EXACTNESS_CASES)
def test_read_samples_is_exact(tmp_path, monkeypatch, case):
    lines = _exactness_lines(case)
    want = np.array([float(tok) for tok in lines]).tobytes()
    data = ("\n".join(lines) + "\n").encode()
    arr = cli._parse_decimal_lines(data)
    assert arr is not None
    assert arr.tobytes() == want
    _forbid_other_routes(monkeypatch)
    path = tmp_path / "data.txt"
    path.write_bytes(data)
    assert cli.read_samples(str(path)).tobytes() == want


def test_near_midpoint_lines_go_to_float(tmp_path, monkeypatch):
    # Widening the slack from 2**-40 to 2**10 makes every line whose mantissa
    # needs the two-product correction count as near a midpoint.
    values = np.random.default_rng(2502).random(100).tolist()
    big = [repr(v) for v in values if int(repr(v).replace(".", "")) >= 2**53][:8]
    lines = big + ["0.125"] * 120
    path = tmp_path / "data.txt"
    path.write_text("\n".join(lines) + "\n")
    seen = []
    monkeypatch.setattr(cli, "_MIDPOINT_TOL", 2.0**10)
    monkeypatch.setattr(cli, "float", lambda tok: seen.append(tok) or float(tok), raising=False)
    _forbid_other_routes(monkeypatch)
    assert cli.read_samples(str(path)).tobytes() == np.array([float(tok) for tok in lines]).tobytes()
    assert len(big) == 8 and seen == [tok.encode() for tok in big]


def test_numpy_saturates_an_overflowing_mantissa():
    # The decimal route relies on it: a mantissa past 2**64 - 1 reads as
    # 2**64 - 1, which its m < 2**62 test sends to float().
    got = np.fromstring(b"18446744073709551615\n18446744073709551616\n99999999999999999999999\n", np.uint64, sep="\n")
    assert got.tolist() == [2**64 - 1] * 3


# Files the decimal route reads whole: (name, text).
DECIMAL_ROUTE_CASES = {
    "repr-exponent-bom": ("data.txt", "\ufeff0.25\n2.5e-05\n" + "0.125\n" * 16 + "0.7350738721058192\n"),
    "no-final-newline": ("data.txt", "0.25\n0.5"),
    "trailing-blank-lines": ("data.txt", "0.25\n0.5\n\n\n"),
    # Bytes are read as they are, so a name numpy would decompress is safe.
    "compressed-suffix": ("data.txt.gz", "0.25\n0.5\n"),
    "compressed-suffix-comment": ("data.txt.gz", "# header\n0.25\n0.5\n"),
    "crlf": ("data.txt", "0.25\r\n0.5\r\n"),
    # A CR first seen past the first chunk.
    "crlf-late": ("data.txt", "0.25\n" * 60000 + "0.5\r\n0.75\r0.125\n"),
    "space": ("data.txt", " 0.25\n0.5\n"),
    "tab": ("data.txt", "0.25\t\n"),
    "comment": ("data.txt", "# h\n0.25\n"),
    "comment-past-ascii": ("data.txt", "# café\n0.25\n"),
    "blank-line": ("data.txt", "0.25\n\n0.5\n"),
    "bare-integers": ("data.txt", "0\n1\n0.5\n"),
    "exponent-no-dot": ("data.txt", "0.5\n1e-05\n"),
    # A chunk of nothing but line ends, which numpy would read as a 0.
    "blank-chunk": ("data.txt", "0.5\n" + "\n" * (1 << 19)),
}


@pytest.mark.parametrize("case", DECIMAL_ROUTE_CASES, ids=list(DECIMAL_ROUTE_CASES))
def test_read_samples_takes_decimal_route(tmp_path, monkeypatch, case):
    name, text = DECIMAL_ROUTE_CASES[case]
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    _forbid_other_routes(monkeypatch)
    lines = map(str.strip, text.lstrip("\ufeff").splitlines())
    want = np.array([float(line) for line in lines if line and not line.startswith("#")])
    assert cli.read_samples(str(path)).tobytes() == want.tobytes()


_FLOAT_CHUNK = [f"{v:.20f}" for v in np.random.default_rng(2503).random(100)]


@pytest.mark.parametrize(
    "lines,want",
    [
        # A chunk of %.20f lines goes whole to numpy's float parse, whose
        # separator would read '0.1 0.2' as two values.
        (_FLOAT_CHUNK[:40] + ["0.1 0.2"] + _FLOAT_CHUNK[41:], ":41: not a number: '0.1 0.2'"),
        # numpy reads a mantissa chunk without a digit as one 0.
        (["."], ":1: not a number: '.'"),
    ],
    ids=["two-numbers-in-float-chunk", "lone-dot-file"],
)
def test_decimal_route_leaves_bad_lines_to_the_loop(capsys, tmp_path, lines, want):
    path = tmp_path / "data.txt"
    path.write_text("\n".join(lines) + "\n")
    code = cli.main(["test", str(path), "--simulate", "--reps", "10", "--grid", "16"])
    out = capsys.readouterr()
    assert code == 2 and out.err == f"error: {path}{want}\n"


@pytest.mark.parametrize(
    "name,text,column",
    [
        ("data.txt", "0.25\n0.5\n", None),
        ("data.txt", "# header\r\n0.25\r\n0.5\r\n", None),
        ("data.csv", "id,pval\n1,0.25\n2,0.5\n", "pval"),
    ],
    ids=["plain", "header-crlf", "csv-column"],
)
def test_read_samples_reads_the_file_once(tmp_path, monkeypatch, name, text, column):
    # Path.read_bytes is the file's one read; np.loadtxt fails if any route
    # hands it a path to read again.
    reads = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or read_bytes(self))
    loadtxt = np.loadtxt

    def from_bytes_only(fname, *args, **kwargs):
        assert not isinstance(fname, (str, Path)), "np.loadtxt given a path"
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", from_bytes_only)
    path = tmp_path / name
    path.write_bytes(text.encode())
    assert np.array_equal(cli.read_samples(str(path), column), [0.25, 0.5])
    assert reads == [path]


# Each CSV file's outcome for a --column: the array read_samples returns, or
# the error line after "error: ", with {path} standing for the file.
CSV_CASES = {
    "named": ("id,pval\n1,0.25\n2,1.0\n", "pval", [0.25, 1.0]),
    "index": ("a,0.25\nb,1.0\n", "1", [0.25, 1.0]),
    "unnamed-header": ("pval,id\n0.25,1\n0.5,2\n", "0", [0.25, 0.5]),
    # A blank line, a blank cell, a '#' row and a quoted blank are skipped;
    # a quoted number is read.
    "skipped-cells": ('x\n0.25\n\n,1\n# note,1\n" "\n"0.5"\n', "x", [0.25, 0.5]),
    "missing-name": ("id,pval\n1,0.25\n", "nope", "{path}: no column named 'nope' (have ['id', 'pval'])"),
    "short-row": ("a,0.25\nb\n", "1", "{path}:2: row has no column 1"),
    "not-a-number": ("x\n0.25\nabc\n", "x", "{path}:3: not a number: 'abc'"),
    "out-of-range": ("0.25\n1.5\n", "0", "{path}:2: value 1.5 outside [0, 1]"),
    "negative-index": ("0.25,0.5\n0.75\n", "-1", "--column index must be non-negative, got -1"),
    "byte-order-mark": ("\ufeffpval,id\n0.25,1\n0.5,2\n", "pval", [0.25, 0.5]),
    # Line endings, file ends and cells as numpy's file reader sees them.
    "crlf": ("id,pval\r\n1,0.25\r\n2,0.5\r\n", "pval", [0.25, 0.5]),
    "lone-cr": ("id,pval\r1,0.25\r2,0.5\r", "pval", [0.25, 0.5]),
    "no-final-newline": ("id,pval\n1,0.25\n2,0.5", "pval", [0.25, 0.5]),
    "byte-order-mark-crlf": ("\ufeffpval,id\r\n0.25,1\r\n0.5,2\r\n", "pval", [0.25, 0.5]),
    "trailing-blank-lines": ("pval\n0.25\n0.5\n\n\n", "pval", [0.25, 0.5]),
    "padded-cells": (" id , pval \n1, 0.25 \n2,\t0.5\n", "pval", [0.25, 0.5]),
    "padded-blank-cell": ("pval\n0.25\n  \n0.5\n", "pval", [0.25, 0.5]),
    "quoted-cell": ('id,pval\n1,"0.25"\n2,0.5\n', "pval", [0.25, 0.5]),
    "quoted-comma": ('id,pval\n"1,5",0.25\n2,0.5\n', "pval", [0.25, 0.5]),
    "index-unnamed-header": ("id,pval\n1,0.25\n2,0.5\n", "1", [0.25, 0.5]),
    "index-short-header": ("id\n1,0.25\n", "1", "{path}:1: row has no column 1"),
    "index-header-then-garbage": ("id,pval\n1,abc\n", "1", "{path}:2: not a number: 'abc'"),
}


@pytest.mark.parametrize("case", CSV_CASES, ids=list(CSV_CASES))
def test_read_samples_csv_contract(capsys, tmp_path, case):
    text, column, want = CSV_CASES[case]
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    if isinstance(want, list):
        assert np.array_equal(cli.read_samples(str(path), column), want)
        return
    code = cli.main(["test", str(path), "--column", column, "--simulate", "--reps", "10", "--grid", "16"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == f"error: {want.format(path=path)}\n"


def test_cmd_test_csv_column(capsys, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,pval\n1,0.25\n2,1.0\n")
    code, doc, _ = run_cli(
        capsys, "test", str(path), "--column", "pval",
        "--simulate", "--reps", "200", "--grid", "64",
    )
    assert code == 0
    assert doc["n"] == 2
    assert doc["value"] == pytest.approx(math.sqrt(1 / 6), rel=1e-9)


def test_cmd_test_csv_column_by_index(capsys, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("0.25,a\n1.0,b\n")
    code, doc, _ = run_cli(
        capsys, "test", str(path), "--column", "0",
        "--simulate", "--reps", "200", "--grid", "64",
    )
    assert code == 0
    assert doc["n"] == 2


def test_cmd_test_csv_missing_column(capsys, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,pval\n1,0.25\n")
    code, _, err = run_cli(capsys, "test", str(path), "--column", "nope",
                           "--simulate", "--reps", "10", "--grid", "16")
    assert code == 2
    assert "nope" in err


@pytest.mark.parametrize("p", ["2", "inf"])
def test_cmd_test_against_cdf_limit(capsys, data_file, two_segment_file, p):
    code, doc, _ = run_cli(
        capsys,
        "test", str(data_file),
        "--p", p, "--alpha", "0.05",
        "--cdf", str(two_segment_file),
        "--reps", "400", "--grid", "256",
    )
    assert code == 0
    assert doc["p"] == p and doc["critical_values"]["0.05"] > 0.0
    assert doc["table"]["mode"] == "cdf-limit"
    assert doc["table"]["engine"] == limits.ENGINE


def test_cmd_test_cdf_rejects_strictly_concave(capsys, data_file, power_file):
    # Its limit is degenerate at 0: every critical value would be 0 and every
    # sample rejected.  One error line, and no simulation starts.
    code, doc, err = run_cli(
        capsys, "test", str(data_file), "--cdf", str(power_file), "--reps", "50", "--grid", "16",
    )
    assert code == 2 and doc is None
    (line,) = err.splitlines()
    assert line.startswith("error:") and "degenerate" in line and "uniform table" in line


@pytest.mark.parametrize("source", [["--simulate"], ["--cdf", "{spec}"]], ids=["simulate", "cdf"])
def test_cmd_test_report_is_the_same_from_run_to_run(capsys, data_file, two_segment_file, source):
    # Wall-clock keys (built_at, timing) stay in table files, out of the report.
    argv = ["test", str(data_file), "--reps", "50", "--grid", "16"]
    argv += [tok.format(spec=two_segment_file) for tok in source]
    outs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert not {"built_at", "timing"} & set(json.loads(outs[0])["table"])


# -- critvals ---------------------------------------------------------------------------


def test_cmd_critvals_writes_and_reproduces(capsys, tmp_path):
    # A norm index or level given twice is simulated and recorded once, and
    # critvals --workers is accepted and changes nothing; test --workers is
    # refused with argparse's usage error.
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    args = ["critvals", "--p", "1", "inf", "1.0", "--alpha", "0.05", "0.05", "--grid", "128",
            "--reps", "500", "--seed", "7", "--out"]
    code1, doc1, _ = run_cli(capsys, *args, str(out1))
    code2, doc2, _ = run_cli(capsys, *args, str(out2), "--workers", "2")
    assert code1 == code2 == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["test", str(tmp_path / "data.txt"), "--table", str(out1), "--workers", "2"])
    assert exc.value.code == 2 and "unrecognized arguments: --workers 2" in capsys.readouterr().err
    e1 = json.loads(out1.read_text())["entries"]
    e2 = json.loads(out2.read_text())["entries"]
    assert e1 == e2
    assert doc1["entries"] == e1
    assert [(e["p"], e["alpha"]) for e in e1] == [("1", 0.05), ("inf", 0.05)]
    assert doc1["provenance"]["ps"] == ["1", "inf"] and doc1["provenance"]["alphas"] == [0.05]


def test_cmd_critvals_unwritable_path(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "critvals", "--reps", "10", "--grid", "16",
        "--out", str(tmp_path / "nope" / "t.json"),
    )
    assert code == 2
    assert "cannot write" in err


def test_cmd_critvals_out_file_is_its_stdout(capsys, tmp_path):
    out = tmp_path / "t.json"
    assert cli.main(["critvals", "--reps", "20", "--grid", "16", "--out", str(out)]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode()


def test_cmd_test_table_file_equals_critvals_table(capsys, data_file, tmp_path):
    scale = ["--p", "2", "--alpha", "0.05", "0.1", "--grid", "64", "--reps", "300", "--seed", "3"]
    cache = tmp_path / "cache.json"
    code, _, _ = run_cli(capsys, "test", str(data_file), *scale, "--simulate", "--table", str(cache))
    assert code == 0
    code, table, _ = run_cli(capsys, "critvals", *scale, "--out", str(tmp_path / "t.json"))
    assert code == 0
    assert json.loads(cache.read_text())["entries"] == table["entries"]


# -- one parser per process ---------------------------------------------------------------


def test_parser_is_built_once_and_carries_no_state(capsys, data_file, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    scale = ["--reps", "20", "--grid", "16"]
    code, doc, _ = run_cli(capsys, "critvals", "--p", "2.5", "--alpha", "0.2", *scale,
                           "--out", str(tmp_path / "a.json"))
    assert code == 0 and doc["provenance"]["ps"] == ["2.5"]
    code, doc, _ = run_cli(capsys, "critvals", *scale, "--out", str(tmp_path / "b.json"))
    assert code == 0
    assert doc["provenance"]["ps"] == ["1", "2", "inf"]
    assert doc["provenance"]["alphas"] == [0.01, 0.05, 0.10]
    code, doc, _ = run_cli(capsys, "test", str(data_file), "--alpha", "0.2", "0.2", "--simulate", *scale)
    assert code == 0 and doc["alphas"] == [0.2]
    code, doc, _ = run_cli(capsys, "test", str(data_file), "--simulate", *scale)
    assert code == 0 and doc["alphas"] == [0.05]


# -- simulate-limit -----------------------------------------------------------------------


def test_cmd_simulate_limit_uniform(capsys, tmp_path):
    spec = tmp_path / "u.json"
    spec.write_text(json.dumps({"type": "uniform"}))
    code, doc, _ = run_cli(
        capsys, "simulate-limit", "--cdf", str(spec), "--p", "2",
        "--reps", "3000", "--grid", "512", "--alphas", "0.05",
    )
    assert code == 0
    assert doc["quantiles"]["0.05"]["q"] == pytest.approx(0.74, abs=0.05)
    assert doc["engine"] == limits.ENGINE


def test_cmd_simulate_limit_power_degenerate(capsys, power_file):
    code, doc, _ = run_cli(
        capsys, "simulate-limit", "--cdf", str(power_file), "--p", "2", "--reps", "50",
    )
    assert code == 0
    assert all(entry["q"] == 0.0 for entry in doc["quantiles"].values())
    assert doc["grid_size"] == limits.DEFAULT_GRID == 1024


def test_cmd_simulate_limit_uniform_inf_equals_critvals(capsys, tmp_path):
    # A column does not depend on the other norm indices drawn with it.
    spec = tmp_path / "u.json"
    spec.write_text(json.dumps({"type": "uniform"}))
    scale = ["--grid", "128", "--reps", "600", "--seed", "17"]
    code, sim, _ = run_cli(
        capsys, "simulate-limit", "--cdf", str(spec), "--p", "inf", "--alphas", "0.01", "0.05", "0.1",
        *scale,
    )
    assert code == 0
    code, table, _ = run_cli(capsys, "critvals", *scale, "--out", str(tmp_path / "t.json"))
    assert code == 0
    cells = {f"{row['alpha']:g}": {"q": row["q"], "se": row["se"]}
             for row in table["entries"] if row["p"] == "inf"}
    assert sim["quantiles"] == cells


def test_cmd_simulate_limit_inf_matches_exact_law(capsys, two_segment_file):
    # Interval k contributes sqrt(h_k) times an independent uniform-law sup,
    # so P(X_inf <= x) = prod_k G(x / sqrt(h_k)) with G the exact sup law.
    code, doc, _ = run_cli(
        capsys, "simulate-limit", "--cdf", str(two_segment_file), "--p", "inf", "--reps", "20000",
    )
    assert code == 0
    h = [row[3] for row in doc["intervals"]]
    for key, cell in doc["quantiles"].items():
        level = 1.0 - float(key)
        exact = brentq(
            lambda x: math.prod(sup_gap_cdf(x / math.sqrt(hk)) for hk in h) - level, 0.3, 4.0, xtol=1e-10
        )
        assert abs(cell["q"] - exact) <= 3.0 * cell["se"], (key, cell, exact)


def test_cmd_simulate_limit_invalid_spec(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "piecewise", "knots": [[0, 0], [0.5, 0.25], [1, 1]]}))
    code, _, err = run_cli(capsys, "simulate-limit", "--cdf", str(bad), "--p", "2")
    assert code == 2
    assert "not concave" in err or "invalid" in err


# -- verify -------------------------------------------------------------------------------


def test_cmd_verify_identity(capsys, two_segment_file):
    code, doc, _ = run_cli(
        capsys, "verify", "--cdf", str(two_segment_file), "--mode", "identity",
        "--paths", "25", "--grid", "128", "--p", "2",
    )
    assert code == 0
    assert doc["pass"] is True
    assert doc["max_gap"] < 1e-9


def test_cmd_verify_dominance(capsys, two_segment_file):
    code, doc, _ = run_cli(
        capsys, "verify", "--cdf", str(two_segment_file), "--mode", "dominance",
        "--paths", "50", "--grid", "128", "--p", "2",
    )
    assert code == 0
    assert doc["violations"] == 0
    assert doc["max_hull_excess"] <= 1e-9


@pytest.mark.parametrize(
    "mode, keys",
    [
        ("identity", ["max_gap"]),
        ("dominance", ["violations", "max_norm_excess", "max_hull_excess"]),
    ],
)
def test_cmd_verify_report_keys(capsys, two_segment_file, mode, keys):
    code, doc, _ = run_cli(
        capsys, "verify", "--cdf", str(two_segment_file), "--mode", mode, "--paths", "3",
        "--grid", "32",
    )
    assert code == 0
    head = ["mode", "cdf", "p", "paths", "grid_size", "master_seed"]
    head += ["lcmtest_version", "numpy_version", "scipy_version"]
    spread = [key for key in doc if key.endswith("_quantiles")]
    assert list(doc) == head + keys + ["tolerance", "pass"] + spread
    assert spread == (
        ["gap_quantiles"] if mode == "identity" else ["norm_excess_quantiles", "hull_excess_quantiles"]
    )
    assert all(list(doc[key]) == ["0.5", "0.9", "0.99"] for key in spread)
    versions = [doc["lcmtest_version"], doc["numpy_version"], doc["scipy_version"]]
    assert versions == [lcmtest.__version__, np.__version__, scipy.__version__]


def test_cmd_verify_quantiles_are_path_values(capsys, two_segment_file):
    # Each reported level is one path's value: the ceil(level * paths)-th smallest.
    code, doc, _ = run_cli(
        capsys, "verify", "--cdf", str(two_segment_file), "--mode", "dominance", "--paths", "10",
        "--grid", "32", "--seed", "5",
    )
    assert code == 0
    iv = models.extract_intervals(models.spec_from_dict(doc["cdf"]))
    check = coupling.verify_dominance_coupling(iv, 2.0, 5, 10, 32)
    spread = {"norm_excess_quantiles": check.lhs - check.rhs, "hull_excess_quantiles": check.hull_excess}
    for key, values in spread.items():
        ranked = sorted(values.tolist())
        assert doc[key] == {"0.5": ranked[4], "0.9": ranked[8], "0.99": ranked[9]}
    assert doc["max_norm_excess"] == doc["norm_excess_quantiles"]["0.99"]


def test_cmd_verify_reads_spec_with_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "two.json"
    spec = {"type": "piecewise", "knots": [[0, 0], [0.5, 0.75], [1, 1]]}
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(spec).encode())
    code, doc, _ = run_cli(
        capsys, "verify", "--cdf", str(path), "--mode", "identity", "--paths", "3", "--grid", "32"
    )
    assert code == 0 and doc["pass"] is True
    assert doc["cdf"]["knots"] == [[0.0, 0.0], [0.5, 0.75], [1.0, 1.0]]


def test_cmd_verify_dominance_rejects_strictly_concave(capsys, power_file):
    code, _, err = run_cli(
        capsys, "verify", "--cdf", str(power_file), "--mode", "dominance", "--paths", "5",
    )
    assert code == 2
    assert "nothing to verify" in err


def test_cmd_verify_identity_rejects_strictly_concave(capsys, power_file):
    code, _, err = run_cli(
        capsys, "verify", "--cdf", str(power_file), "--mode", "identity", "--paths", "5",
    )
    assert code == 2


def test_cmd_verify_exit_code_on_violation(capsys, two_segment_file, monkeypatch):
    monkeypatch.setattr(
        coupling,
        "verify_dominance_coupling",
        lambda iv, p, seed, paths, grid: coupling.DominanceCheck(
            lhs=np.ones(paths), rhs=np.full(paths, 0.5), hull_excess=np.zeros(paths)
        ),
    )
    code, doc, _ = run_cli(
        capsys, "verify", "--cdf", str(two_segment_file), "--mode", "dominance", "--paths", "3",
    )
    assert code == 1
    assert doc["violations"] == 3 and doc["pass"] is False


#: The four-interval CDF of the benchmark's coupling workload.
FOUR_INTERVALS = [[0.0, 0.0], [0.1, 0.3], [0.3, 0.6], [0.6, 0.85], [1.0, 1.0]]

# sha256 of `lcmtest verify --cdf <FOUR_INTERVALS> --mode MODE --p P --paths
# 200 --grid 256 --seed 1` stdout, with the three package-version lines left
# out so that the digest pins the numbers and the layout, not the installed
# versions.  Recorded before the grids and the verifiers moved to
# lcmtest.coupling.
VERIFY_DIGESTS = {
    ("identity", "1"): "131e6bb40060a07bcfb7fc28acceeee57798af30b01c5ce28ef26a482486082f",
    ("identity", "2"): "1878c9eca6d3881d8e7621ff8c179448bd0fda735ada1825e524d6a68adc4397",
    ("identity", "2.5"): "48b14e4568de1da146f8fc139d27c5ac3e2eb22f8308f25e2791ff74a28b1fa4",
    ("dominance", "1"): "9dc025489437477141f4869af66f21761e64f8011ec498dacaab8550f8103b6f",
    ("dominance", "2"): "b4852443c893344ce4df5983a7bd078d48a67137a8155c0b4998ea7dd8ac6e53",
    ("dominance", "2.5"): "c20f37aca431fa0a8450435a9de0a9ad891a8d69e6f1c532cd4eb1de7b43001f",
}


@pytest.mark.parametrize("mode, p", list(VERIFY_DIGESTS))
def test_cmd_verify_stdout_digest(capsys, tmp_path, mode, p):
    spec = tmp_path / "four.json"
    spec.write_text(json.dumps({"type": "piecewise", "knots": FOUR_INTERVALS}))
    code = cli.main(
        ["verify", "--cdf", str(spec), "--mode", mode, "--p", p]
        + ["--paths", "200", "--grid", "256", "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    kept = "".join(line for line in out.splitlines(keepends=True) if '_version": ' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == VERIFY_DIGESTS[(mode, p)]


# sha256 of `lcmtest simulate-limit --cdf <FOUR_INTERVALS> --p P --reps 3000
# --seed 9` stdout, version lines left out as above.
SIMULATE_LIMIT_DIGESTS = {
    "1": "dfc12911566dbe1721e5159cb4479330562b478ed0ee3133f3c7fa7dcc8a39cf",
    "2": "07b5b40864b6a5caefa2356eb88f9201f3306c976f76b2b940254c671120fa20",
    "2.5": "081e196ea52f7a44603f827d26fb1223cd7001b798aae5177255f6775ef6797d",
    "inf": "e05cb61ba02fe0989a5d9eb66f0c7064a0ec916c7d938c483d28ed0b181aac34",
}


@pytest.mark.parametrize("p", list(SIMULATE_LIMIT_DIGESTS))
def test_cmd_simulate_limit_stdout_digest(capsys, tmp_path, p):
    spec = tmp_path / "four.json"
    spec.write_text(json.dumps({"type": "piecewise", "knots": FOUR_INTERVALS}))
    code = cli.main(["simulate-limit", "--cdf", str(spec), "--p", p, "--reps", "3000", "--seed", "9"])
    out = capsys.readouterr().out
    assert code == 0
    kept = "".join(line for line in out.splitlines(keepends=True) if '_version": ' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == SIMULATE_LIMIT_DIGESTS[p]


def test_cmd_critvals_entries_digest(capsys, tmp_path):
    # The table's entries only: its provenance holds the build time.
    code, doc, _ = run_cli(
        capsys, "critvals", "--p", "1", "2.5", "inf", "--reps", "3000", "--seed", "5",
        "--out", str(tmp_path / "t.json"),
    )
    assert code == 0
    digest = hashlib.sha256(json.dumps(doc["entries"]).encode()).hexdigest()
    assert digest == "be3067d8e472a229554c4e90cedfd4352659a9bfa34bed245cf4dcad002d4e90"


def test_cmd_verify_identity_narrow_interval(capsys, tmp_path):
    # An affine interval of width 1e-14 is below one ulp of the grid points
    # around 0.5, so its scaled block grid collapses.
    spec = tmp_path / "narrow.json"
    knots = [[0, 0], [0.5, 0.6], [0.5 + 1e-14, 0.6 + 1.1e-14], [1, 1]]
    spec.write_text(json.dumps({"type": "piecewise", "knots": knots}))
    for mode in ("identity", "dominance"):
        code, doc, err = run_cli(
            capsys, "verify", "--cdf", str(spec), "--mode", mode, "--p", "2", "--grid", "64", "--paths", "5"
        )
        assert code in (0, 2)
        if code == 0:
            assert doc["pass"] is True
        else:
            assert doc is None and "error:" in err and "interval" in err


# -- input faults --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "{zeros}", "--simulate", "--reps", "10", "--grid", "16"],
        ["critvals", "--reps", "0", "--out", "{out}"],
        ["critvals", "--grid", "1", "--reps", "5", "--out", "{out}"],
        ["simulate-limit", "--cdf", "{spec}", "--reps", "0"],
        ["verify", "--cdf", "{spec}", "--mode", "dominance", "--paths", "0"],
        ["critvals", "--alpha", "1.5", "--reps", "3", "--grid", "4", "--out", "{out}"],
        ["simulate-limit", "--cdf", "{spec}", "--alphas", "0", "--reps", "3", "--grid", "4"],
        ["test", "{data}", "--cdf", "{spec}", "--alpha", "2", "--reps", "3", "--grid", "4"],
        ["critvals", "--workers", "0", "--reps", "3", "--grid", "4", "--out", "{out}"],
        ["critvals", "--seed", "-1", "--reps", "3", "--grid", "4", "--out", "{out}"],
        ["simulate-limit", "--cdf", "{spec}", "--seed", "-1", "--reps", "3", "--grid", "4"],
        ["verify", "--cdf", "{spec}", "--mode", "identity", "--seed", "-1", "--paths", "2"],
        ["test", "{data}", "--simulate", "--seed", "-1", "--reps", "3", "--grid", "4"],
        ["simulate-limit", "--cdf", "{nan_spec}", "--reps", "3", "--grid", "4"],
        ["test", "{data}", "--cdf", "{nan_spec}", "--reps", "3", "--grid", "4"],
        ["verify", "--cdf", "{nan_spec}", "--mode", "identity", "--paths", "2", "--grid", "8"],
        ["test", "{latin1}", "--simulate", "--reps", "3", "--grid", "4"],
        ["simulate-limit", "--cdf", "{latin1_spec}", "--reps", "3", "--grid", "4"],
        ["test", "{data}", "--simulate", "--reps", "3", "--grid", "4", "--table", "{no_dir}"],
        ["test", "{data}", "--simulate", "--p", "200", "--reps", "3", "--grid", "4"],
        ["critvals", "--p", "2", "1e300", "--reps", "3", "--grid", "4", "--out", "{out}"],
        ["simulate-limit", "--cdf", "{spec}", "--p", "nan", "--reps", "3", "--grid", "4"],
        ["verify", "--cdf", "{spec}", "--mode", "dominance", "--p=-inf", "--paths", "2"],
        ["critvals", "--reps", "3", "--grid", "4", "--out", "{no_dir}"],
        ["critvals", "--reps", "3", "--grid", "4", "--out", "{out_dir}"],
        ["test", "{data}", "--simulate", "--reps", "3", "--grid", "4", "--workers", "2"],
    ],
    ids=[
        "all-zero-data", "zero-reps", "grid-1", "zero-draws", "zero-paths",
        "critvals-alpha", "simulate-limit-alpha", "test-cdf-alpha", "zero-workers",
        "critvals-seed", "simulate-limit-seed", "verify-seed", "test-simulate-seed",
        "simulate-limit-nan-knot", "test-cdf-nan-knot", "verify-nan-knot",
        "data-not-utf8", "spec-not-utf8", "test-simulate-unwritable-table",
        "test-p-200", "critvals-p-1e300", "simulate-limit-p-nan", "verify-p-neg-inf",
        "critvals-unwritable-out", "critvals-out-is-dir", "test-workers",
    ],
)
def test_cmd_input_faults_exit_2(capsys, tmp_path, two_segment_file, argv):
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("0\n0\n0\n")
    data = tmp_path / "data.txt"
    data.write_text("0.1\n0.5\n0.9\n")
    nan_spec = tmp_path / "nan.json"
    nan_spec.write_text(json.dumps({"type": "piecewise", "knots": [[0, 0], [math.nan, 0.5], [1, 1]]}))
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"# caf\xe9\n0.5\n")
    latin1_spec = tmp_path / "latin1.json"
    latin1_spec.write_bytes(b'{"type": "uniform", "note": "caf\xe9"}')
    paths = {
        "zeros": zeros, "data": data, "out": tmp_path / "table.json", "spec": two_segment_file,
        "nan_spec": nan_spec, "latin1": latin1, "latin1_spec": latin1_spec,
        "no_dir": tmp_path / "nope" / "t.json", "out_dir": tmp_path,
    }
    try:
        code = cli.main([tok.format(**paths) for tok in argv])
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    out = capsys.readouterr()
    assert code == 2
    assert "error:" in out.err
    assert out.out == ""
    # Refused before any simulation runs, so no simulation or progress line.
    assert "simulating" not in out.err and "limit draws" not in out.err


# Sizes of 10^15 or more: numpy refuses each array (petabytes) before it
# allocates anything.
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--cdf", "{spec}", "--mode", "identity", "--paths", "2", "--grid", "1000000000000000"],
        ["verify", "--cdf", "{spec}", "--mode", "dominance", "--paths", "1000000000000000", "--grid", "16"],
        ["critvals", "--p", "2.5", "--reps", "1", "--grid", "1000000000000000", "--out", "{out}"],
        ["critvals", "--reps", "1000000000000000", "--out", "{out}"],
        ["simulate-limit", "--cdf", "{spec}", "--p", "3", "--reps", "1", "--grid", "1000000000000000"],
    ],
    ids=["verify-grid", "verify-paths", "critvals-grid", "critvals-reps", "simulate-limit-grid"],
)
def test_scale_past_memory_exits_2(capsys, tmp_path, two_segment_file, argv):
    out = tmp_path / "t.json"
    code, doc, err = run_cli(capsys, *[tok.format(spec=two_segment_file, out=out) for tok in argv])
    assert code == 2 and doc is None and not out.exists()
    assert err.splitlines()[-1].startswith("error: not enough memory")
    assert "--grid, --reps or --paths" in err
