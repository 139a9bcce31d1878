import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from lcmtest import cli, limits, models
from lcmtest.streams import substream
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
    calls = []
    parse = cli._parse_plain
    monkeypatch.setattr(cli, "_parse_plain", lambda text: calls.append(text) or parse(text))
    path = tmp_path / "data.txt"
    path.write_text("# header\n0.25\n  # note\n0.75\n")
    assert np.array_equal(cli.read_samples(str(path)), [0.25, 0.75])
    assert len(calls) == 1


def test_read_samples_round_trips_doubles(tmp_path, rng):
    # repr strings and 25-digit decimals, which need correct rounding.
    lines = [repr(v) for v in rng.random(1000).tolist()] + [f"{v:.25f}" for v in rng.random(1000)]
    path = tmp_path / "data.txt"
    path.write_text("\n".join(lines) + "\n")
    assert np.array_equal(cli.read_samples(str(path)), [float(tok) for tok in lines])


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
    # --workers is accepted and changes nothing.
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    args = ["critvals", "--p", "1", "inf", "1.0", "--alpha", "0.05", "0.05", "--grid", "128",
            "--reps", "500", "--seed", "7", "--out"]
    code1, doc1, _ = run_cli(capsys, *args, str(out1))
    code2, doc2, _ = run_cli(capsys, *args, str(out2), "--workers", "2")
    assert code1 == code2 == 0
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
    spread = [key for key in doc if key.endswith("_quantiles")]
    assert list(doc) == head + keys + ["tolerance", "pass"] + spread
    assert spread == (
        ["gap_quantiles"] if mode == "identity" else ["norm_excess_quantiles", "hull_excess_quantiles"]
    )
    assert all(list(doc[key]) == ["0.5", "0.9", "0.99"] for key in spread)


def test_cmd_verify_quantiles_are_path_values(capsys, two_segment_file):
    # Each reported level is one path's value: the ceil(level * paths)-th smallest.
    code, doc, _ = run_cli(
        capsys, "verify", "--cdf", str(two_segment_file), "--mode", "dominance", "--paths", "10",
        "--grid", "32", "--seed", "5",
    )
    assert code == 0
    iv = models.extract_intervals(models.spec_from_dict(doc["cdf"]))
    streams = [substream(5, i) for i in range(10)]
    check = limits.verify_dominance_coupling(iv, 2.0, streams, 32)
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
    from lcmtest import limits

    monkeypatch.setattr(
        limits,
        "verify_dominance_coupling",
        lambda iv, p, streams, grid: limits.DominanceCheck(
            lhs=np.ones(len(streams)), rhs=np.full(len(streams), 0.5), hull_excess=np.zeros(len(streams))
        ),
    )
    code, doc, _ = run_cli(
        capsys, "verify", "--cdf", str(two_segment_file), "--mode", "dominance", "--paths", "3",
    )
    assert code == 1
    assert doc["violations"] == 3 and doc["pass"] is False


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
    ],
    ids=[
        "all-zero-data", "zero-reps", "grid-1", "zero-draws", "zero-paths",
        "critvals-alpha", "simulate-limit-alpha", "test-cdf-alpha", "zero-workers",
        "critvals-seed", "simulate-limit-seed", "verify-seed", "test-simulate-seed",
        "simulate-limit-nan-knot", "test-cdf-nan-knot", "verify-nan-knot",
        "data-not-utf8", "spec-not-utf8", "test-simulate-unwritable-table",
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
        "no_dir": tmp_path / "nope" / "t.json",
    }
    code = cli.main([tok.format(**paths) for tok in argv])
    out = capsys.readouterr()
    assert code == 2
    assert "error:" in out.err
    assert out.out == ""
