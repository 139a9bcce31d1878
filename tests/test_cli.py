import json
import math
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from lcmtest import cli, limits


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


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        json.dumps({"provenance": {"engine": limits.ENGINE}}),
        json.dumps({"entries": [{"p": "2", "alpha": 0.05, "se": 0.0}]}),
        json.dumps([{"p": "2", "alpha": 0.05, "q": 0.7}]),
        json.dumps({"entries": [{"p": "2", "alpha": a, "q": q} for a, q in ((0.01, 0.5), (0.05, 0.9))]}),
    ],
    ids=["not-json", "no-entries", "no-q", "list", "rising-in-alpha"],
)
def test_cmd_test_rejects_malformed_table(capsys, data_file, tmp_path, text):
    table = tmp_path / "table.json"
    table.write_text(text)
    code, out, err = run_cli(capsys, "test", str(data_file), "--p", "2", "--table", str(table))
    assert code == 2 and out is None
    assert err.startswith(f"error: {table}: ")


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
}


@pytest.mark.parametrize("case", PARSE_CASES, ids=list(PARSE_CASES))
def test_read_samples_contract(capsys, tmp_path, case):
    text, want = PARSE_CASES[case]
    path = tmp_path / "data.txt"
    path.write_text(text)
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
}


@pytest.mark.parametrize("case", CSV_CASES, ids=list(CSV_CASES))
def test_read_samples_csv_contract(capsys, tmp_path, case):
    text, column, want = CSV_CASES[case]
    path = tmp_path / "data.csv"
    path.write_text(text)
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


def test_cmd_test_against_cdf_limit(capsys, data_file, two_segment_file):
    code, doc, _ = run_cli(
        capsys,
        "test", str(data_file),
        "--p", "2", "--alpha", "0.05",
        "--cdf", str(two_segment_file),
        "--reps", "400", "--grid", "256",
    )
    assert code == 0
    assert doc["table"]["mode"] == "cdf-limit"
    assert doc["table"]["engine"] == limits.ENGINE


# -- critvals ---------------------------------------------------------------------------


def test_cmd_critvals_writes_and_reproduces(capsys, tmp_path):
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    args = ["critvals", "--p", "1", "inf", "--alpha", "0.05", "--grid", "128",
            "--reps", "500", "--seed", "7", "--out"]
    code1, doc1, _ = run_cli(capsys, *args, str(out1))
    code2, doc2, _ = run_cli(capsys, *args, str(out2))
    assert code1 == code2 == 0
    e1 = json.loads(out1.read_text())["entries"]
    e2 = json.loads(out2.read_text())["entries"]
    assert e1 == e2
    assert doc1["entries"] == e1


@pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pool"])
def test_cmd_critvals_records_workers_used(capsys, monkeypatch, tmp_path, pooled):
    # 150 replications are too little work for a second worker, unless the
    # threshold is lowered.
    if pooled:
        monkeypatch.setattr(limits.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(limits, "_WORK_PER_WORKER", 1)
    out = tmp_path / "t.json"
    code, doc, _ = run_cli(capsys, "critvals", "--reps", "150", "--workers", "2", "--out", str(out))
    assert code == 0
    assert doc["provenance"]["workers"] == (2 if pooled else 1)


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
    assert list(doc) == head + keys + ["tolerance", "pass"]


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
        lambda *a, **k: limits.DominanceCheck(lhs=1.0, rhs=0.5, hull_excess=0.0),
    )
    code, doc, _ = run_cli(
        capsys, "verify", "--cdf", str(two_segment_file), "--mode", "dominance", "--paths", "3",
    )
    assert code == 1
    assert doc["violations"] == 3 and doc["pass"] is False


class _CrashedPool:
    """Stands in for ProcessPoolExecutor: every task fails as if its worker died."""

    def __init__(self, workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_exception(BrokenProcessPool("a child process terminated abruptly"))
        return future


@pytest.mark.parametrize(
    "argv",
    [
        ["critvals", "--reps", "20", "--grid", "16", "--workers", "2", "--out", "{out}"],
        ["test", "{data}", "--simulate", "--reps", "20", "--grid", "16", "--workers", "2"],
    ],
    ids=["critvals", "test-simulate"],
)
def test_crashed_worker_exits_1(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setattr(limits, "ProcessPoolExecutor", _CrashedPool)
    monkeypatch.setattr(limits.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(limits, "_WORK_PER_WORKER", 1)  # a pool even for this small job
    data = tmp_path / "data.txt"
    data.write_text("0.1\n0.5\n0.9\n")
    paths = {"data": data, "out": tmp_path / "table.json"}
    code = cli.main([tok.format(**paths) for tok in argv])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.splitlines()[-1].startswith("error: a simulation worker process died")
    assert not (tmp_path / "table.json").exists()


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
