"""Runs one workload's rounds in a fresh interpreter and reports what it saw.

Usage: python3 session.py PLAN.json RESULT.json

Each operation is one ``lcmtest`` command run through ``cli.main`` in this
process, timed with its stdout captured; a ``SpeedProbe`` reading is taken
before each operation and after the last.  Rounds repeat until the plan's
seconds are used up.  With tracing on, the first round runs untraced and the
rest traced, and the spans are written to the plan's trace path.  Nothing
here checks outputs; the parent process does that, so that its own memory
use stays out of this process's peak RSS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import spans


def _run(main_fn, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main_fn(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


class SpeedProbe:
    """Seconds this machine takes, right now, for a fixed pure-Python loop.

    The host's speed wanders by up to 2x over seconds as its neighbours load
    it.  The loop shares no code with lcmtest and is timed between
    operations, so each call's time can be scaled to one reference speed.
    """

    def __call__(self) -> float:
        # The fastest of three short loops: a lone hiccup does not count,
        # a slow stretch slows all three.
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            s = 0
            for i in range(20_000):
                s += i * i
            best = min(best, time.perf_counter() - t0)
        return best


def _digest(op, stdout: str) -> str:
    # A table's report carries its build time; compare the entries only.
    if op["kind"] == "critvals":
        try:
            stdout = json.dumps(json.loads(stdout)["entries"], sort_keys=True)
        except (ValueError, KeyError):
            pass
    return hashlib.sha256(stdout.encode()).hexdigest()


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    import lcmtest
    from lcmtest import cli

    for argv in plan["warmup"]:
        _run(cli.main, argv)

    ops = plan["ops"]
    probe = SpeedProbe()
    tracer = None
    rounds, first = [], [None] * len(ops)
    start = time.perf_counter()
    while True:
        index = len(rounds)
        if plan["trace"] and index == 1:
            tracer = spans.Tracer()
            tracer.install(lcmtest)
        record = []
        speed = []
        for i, op in enumerate(ops):
            main_fn = cli.main
            if tracer is not None:
                # The root span of each operation names the op and the round.
                main_fn = tracer.wrap("cli.main", cli.main, lambda a, k, o, tag=[i, index]: tag)
            speed.append(probe())
            wall, rc, stdout, stderr = _run(main_fn, op["argv"])
            if first[i] is None:
                first[i] = {"stdout": stdout, "stderr": stderr[-2000:] if rc != 0 else ""}
            record.append({"wall": wall, "rc": rc, "digest": _digest(op, stdout)})
        speed.append(probe())
        rounds.append({"traced": tracer is not None, "ops": record, "speed": speed})
        if time.perf_counter() - start >= plan["seconds"] and (not plan["trace"] or len(rounds) >= 2):
            break

    if tracer is not None:
        Path(plan["trace_path"]).write_text(json.dumps(tracer.spans))
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    Path(result_path).write_text(json.dumps({"rounds": rounds, "first": first, "peak_rss_kb": rss_kb}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
