"""Spans around the calls into each lcmtest module, and what they add up to.

A traced run swaps each public function named in ``TRACED`` for a wrapper
that records ``(name, start_ns, end_ns, parent, info)``, keeps the records in
a list and leaves writing them out to the caller.  Self time is a span's
duration minus the durations of its direct children.  Parallel critvals
workers are forked from the traced process and trace too, but their spans
stay in their own memory; only the parent's spans are kept.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter_ns

LAYERS = ("streams", "models", "pwl", "stats", "limits", "cli")


# What a span records about its call: the norm index, or the size of the
# result (None when the call raised).
def _p(i):
    return lambda args, kwargs, out: float(kwargs.get("p", args[i] if len(args) > i else math.nan))


def _out_len(attr=None):
    return lambda args, kwargs, out: None if out is None else len(getattr(out, attr) if attr else out)


#: (module, function, what the span records about the call).
TRACED = (
    ("streams", "substream", None),
    ("models", "extract_intervals", _out_len()),
    ("pwl", "build_ecdf", _out_len("xs")),
    ("pwl", "lcm_of_step", _out_len("xs")),
    ("pwl", "diff_segments", None),
    ("pwl", "lp_norm", _p(1)),
    ("pwl", "lcm_gap_on_grid", None),
    ("pwl", "pow_integral_from_gaps", _p(2)),
    ("pwl", "gap_pow_integral", None),
    ("pwl", "gap_sup", None),
    ("stats", "lp_stat", None),
    ("limits", "sample_wiener", None),
    ("limits", "merge_grids", None),
    ("limits", "estimate_quantiles", None),
    ("limits", "limit_draw_general", None),
    ("limits", "verify_rescaling_identity", None),
    ("limits", "verify_dominance_coupling", None),
    ("limits", "build_critical_table", None),
    ("cli", "read_samples", None),
)


class Tracer:
    """Spans of one process, in call order; a parent precedes its children."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                extra = info(args, kwargs, out) if info is not None else None
                spans[idx] = (name, t0, t1, parent, extra)

        traced.__wrapped__ = fn
        return traced

    def install(self, lcmtest) -> None:
        """Wrap every function in TRACED wherever an lcmtest module binds it.

        ``from .streams import substream`` copies the reference, so each
        module namespace is searched for the original object.  A function
        that no longer exists is skipped; its metrics then read 0.
        """
        mods = {name: getattr(lcmtest, name) for name in LAYERS}
        for mod, fname, info in TRACED:
            orig = getattr(mods[mod], fname, None)
            if orig is None:
                continue
            wrapper = self.wrap(f"{mod}.{fname}", orig, info)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
        table_cls = getattr(mods["limits"], "CriticalValueTable", None)
        if table_cls is not None and hasattr(table_cls, "load"):
            table_cls.load = staticmethod(self.wrap("limits.CriticalValueTable.load", table_cls.load))


def layer_metrics(spans: list, ops: list, round_walls: dict) -> dict:
    """Per-layer metrics from the spans of the traced rounds.

    ``spans`` holds one root span ``cli.main`` per operation, whose info is
    ``[op index, round]``; ``ops`` is the plan's operation list and
    ``round_walls`` maps ``"untraced"`` and ``"traced"`` to round wall times.
    Every timing is self time per call.
    """
    self_ns = [s[2] - s[1] for s in spans]
    root = list(range(len(spans)))
    by_name: dict[str, list[int]] = {}
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            self_ns[parent] -= t1 - t0
            root[i] = root[parent]

    def pick(name, kind=None, large_untied=False, p=None):
        out = []
        for i in by_name.get(name, ()):
            op = ops[spans[root[i]][4][0]]
            if kind is not None and op["kind"] not in kind:
                continue
            if large_untied and not (op["kind"] == "test" and op["n"] >= 10**6 and not op["tied"]):
                continue
            if p is not None and spans[i][4] != p:
                continue
            out.append(i)
        return out

    def mean_self(idx, unit_ns):
        return statistics.fmean(self_ns[i] for i in idx) / unit_ns if idx else 0.0

    def mean_info(idx):
        vals = [spans[i][4] for i in idx if spans[i][4] is not None]
        return statistics.fmean(vals) if vals else 0.0

    # Pool overhead: parallel wall minus serial wall / workers, per call pair.
    walls: dict[int, list[float]] = {}
    for i in by_name.get("cli.main", ()):
        op = ops[spans[i][4][0]]
        if op["kind"] == "critvals":
            walls.setdefault(op["workers"], []).append((spans[i][2] - spans[i][1]) / 1e9)
    pool_overhead = 0.0
    if len(walls) == 2:
        w = max(walls)
        pool_overhead = statistics.fmean(walls[w]) - statistics.fmean(walls[1]) / w

    verify_calls = pick("limits.verify_rescaling_identity") + pick("limits.verify_dominance_coupling")
    # Today's table kernel takes the sup inline, so the sup-norm calls that
    # exist are lp_norm at p = inf on the n = 10^4 test inputs.
    sup_calls = pick("pwl.gap_sup") + [
        i for i in pick("pwl.lp_norm", kind=("test",), p=math.inf) if ops[spans[root[i]][4][0]]["n"] < 10**6
    ]
    us, ms = 1e3, 1e6
    out = {
        "streams.substream_us": mean_self(pick("streams.substream"), us),
        "limits.sample_wiener_us": mean_self(pick("limits.sample_wiener"), us),
        "limits.pool_overhead_s": pool_overhead,
        "limits.estimate_quantiles_ms": mean_self(pick("limits.estimate_quantiles"), ms),
        "limits.limit_draw_general_us": mean_self(pick("limits.limit_draw_general"), us),
        "limits.verify_identity_us": mean_self(pick("limits.verify_rescaling_identity"), us),
        "limits.verify_dominance_us": mean_self(pick("limits.verify_dominance_coupling"), us),
        "limits.merge_grids_us": mean_self(pick("limits.merge_grids"), us),
        "pwl.lcm_gap_on_grid_us": mean_self(pick("pwl.lcm_gap_on_grid", kind=("critvals",)), us),
        "pwl.lcm_gap_on_grid_small_us": mean_self(
            pick("pwl.lcm_gap_on_grid", kind=("simulate-limit", "verify")), us
        ),
        "pwl.lcm_gap_calls": (
            len(pick("pwl.lcm_gap_on_grid", kind=("verify",))) / len(verify_calls) if verify_calls else 0.0
        ),
        "pwl.pow_integral_p1_us": mean_self(pick("pwl.pow_integral_from_gaps", kind=("critvals",), p=1.0), us),
        "pwl.pow_integral_p2_us": mean_self(pick("pwl.pow_integral_from_gaps", kind=("critvals",), p=2.0), us),
        "pwl.sup_us": mean_self(sup_calls, us),
        "pwl.build_ecdf_ms": mean_self(pick("pwl.build_ecdf", large_untied=True), ms),
        "pwl.lcm_of_step_ms": mean_self(pick("pwl.lcm_of_step", large_untied=True), ms),
        "pwl.diff_segments_ms": mean_self(pick("pwl.diff_segments", large_untied=True), ms),
        "pwl.lp_norm_ms": mean_self(pick("pwl.lp_norm", large_untied=True), ms),
        "pwl.ecdf_jumps": mean_info(pick("pwl.build_ecdf", large_untied=True)),
        "pwl.hull_vertices": mean_info(pick("pwl.lcm_of_step", large_untied=True)),
        "stats.lp_stat_ms": mean_self(pick("stats.lp_stat", large_untied=True), ms),
        "cli.read_samples_ms": mean_self(pick("cli.read_samples", large_untied=True), ms),
        "cli.table_load_ms": mean_self(pick("limits.CriticalValueTable.load"), ms),
        "models.extract_intervals_us": mean_self(pick("models.extract_intervals"), us),
        "models.intervals": mean_info(pick("models.extract_intervals")),
    }
    traced_rounds = max(1, len(round_walls["traced"]))
    for layer in LAYERS:
        total = sum(self_ns[i] for name, idx in by_name.items() if name.startswith(layer + ".") for i in idx)
        out[f"{layer}.self_s"] = total / 1e9 / traced_rounds
    untraced = statistics.median(round_walls["untraced"])
    traced = statistics.median(round_walls["traced"])
    out["bench.trace_overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return out
