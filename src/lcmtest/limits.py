"""Monte Carlo engine for the limiting laws of the concavity statistics.

Under a concave CDF the scaled majorant distance converges to the L^p norm
of a majorant gap built from Brownian motion.  This module samples Wiener
and bridge paths on coupling-aligned grids, evaluates the gap norm exactly
for the piecewise-linear interpolant, verifies the pathwise rescaling
identity and the pathwise dominance inequality, and estimates the quantiles
used as critical values.

Determinism contract: every replication derives its randomness from
``(master seed, replication index)`` through spawn keys, so results are
bit-identical for any worker count; aggregation sorts the draws, so order
never matters.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__, models, pwl
from .streams import Stream, generator, substream

DEFAULT_SEED = 171717
DEFAULT_GRID = 16384
DEFAULT_REPLICATIONS = 200_000

#: Pathwise coupling identities hold up to float accumulation only; a gap
#: beyond this is a bug, not discretization error.
COUPLING_TOL = 1e-9

_GRID_MERGE_TOL = 1e-12

#: The uniform law's affine intervals: the single unit interval, d = h = 1.
_UNIT = models.extract_intervals(models.UniformCdf())


@dataclass(frozen=True, eq=False)
class SampledPath:
    """A stochastic-process path on a finite sorted grid spanning [0, 1].

    Construction freezes both arrays; paths are safe to share across tasks.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.ascontiguousarray(self.grid, dtype=np.float64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if grid.ndim != 1 or grid.size < 2 or values.shape != grid.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length >= 2")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if grid[0] != 0.0 or grid[-1] != 1.0:
            raise ValueError("grid must span [0, 1] with 0 and 1 as grid points")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")
        grid.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SimConfig:
    """Scale knobs for the simulator.

    ``grid_size`` is the number of subintervals of the uniform base grid.
    """

    grid_size: int = DEFAULT_GRID
    replications: int = DEFAULT_REPLICATIONS
    master_seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")


def uniform_grid(size: int) -> np.ndarray:
    """Uniform grid with ``size`` subintervals: j / size for j = 0 .. size."""
    if size < 1:
        raise ValueError("grid size must be positive")
    return np.arange(size + 1, dtype=np.float64) / size


def merge_grids(required, extra, tol: float = _GRID_MERGE_TOL) -> np.ndarray:
    """Union of grids, dropping ``extra`` points that nearly collide with
    required ones (required points always survive verbatim)."""
    required = np.unique(np.asarray(required, dtype=np.float64))
    extra = np.asarray(extra, dtype=np.float64)
    if extra.size == 0:
        return required
    idx = np.searchsorted(required, extra)
    left = required[np.clip(idx - 1, 0, required.size - 1)]
    right = required[np.clip(idx, 0, required.size - 1)]
    near = (np.abs(extra - left) <= tol) | (np.abs(extra - right) <= tol)
    return np.unique(np.concatenate([required, extra[~near]]))


def sample_wiener(grid, stream: Stream) -> SampledPath:
    """Wiener path on the grid: W(0) = 0, independent Gaussian increments
    with variance equal to the time step.  Deterministic given the stream."""
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    rng = generator(stream)
    z = rng.standard_normal(grid.size - 1)
    values = np.empty(grid.size)
    values[0] = 0.0
    np.cumsum(z * np.sqrt(np.diff(grid)), out=values[1:])
    return SampledPath(grid, values)


def to_bridge(w: SampledPath) -> SampledPath:
    """Brownian bridge from a Wiener path: B(u) = W(u) - u W(1)."""
    return SampledPath(w.grid, w.values - w.grid * w.values[-1])


def concavity_gap(path: SampledPath) -> np.ndarray:
    """Majorant gap ``LCM(path) - path`` at every grid point.

    Invariant under adding any affine function to the path.
    """
    return pwl.lcm_gap_on_grid(path.grid, path.values)


def gap_norm(path: SampledPath, p: float) -> float:
    """L^p norm (p = inf for the sup) of the majorant gap over [0, 1].

    Exact for the piecewise-linear interpolant of the grid values.
    """
    g = pwl.lcm_gap_on_grid(path.grid, path.values)
    if np.isinf(p):
        return float(g.max())
    if p < 1.0:
        raise ValueError("norm index p must be at least 1")
    return pwl.pow_integral_from_gaps(path.grid, g, p) ** (1.0 / p)


# -- Limit draws ----------------------------------------------------------------


def _norm_indices(ps) -> tuple:
    ps = tuple(float(p) for p in ps)
    if not all(p >= 1.0 for p in ps):
        raise ValueError("norm indices must be >= 1")
    return ps


def _law_draws(d, h, ps, streams, grid: np.ndarray) -> np.ndarray:
    # The one simulation engine: row i, column j is the draw for streams[i]
    # at norm index ps[j] of the law with affine widths d and rises h,
    # (sum_k d_k h_k^{p/2} ||gap(W_k)||_p^p)^{1/p}, or max_k h_k^{1/2}
    # sup gap(W_k) at p = inf, with W_k drawn from substream(streams[i], k).
    # The uniform law is d = h = [1], for which the arithmetic is exact.
    # Both loops stay in here so that the last path arrays live until the
    # next draw allocates its own: freed on every return, these just-over
    # 128 KiB arrays made glibc trim the heap and fault it back in per draw.
    sqdt = np.sqrt(np.diff(grid))
    out = np.zeros((len(streams), len(ps)))
    for row, stream in enumerate(streams):
        for k in range(len(d)):
            rng = generator(substream(stream, k))
            values = np.empty(grid.size)
            values[0] = 0.0
            np.cumsum(rng.standard_normal(grid.size - 1) * sqdt, out=values[1:])
            g = pwl.lcm_gap_on_grid(grid, values)
            for j, p in enumerate(ps):
                if math.isinf(p):
                    out[row, j] = max(out[row, j], h[k] ** 0.5 * g.max())
                else:
                    out[row, j] += d[k] * h[k] ** (p / 2.0) * pwl.pow_integral_from_gaps(grid, g, p)
        for j, p in enumerate(ps):
            if not math.isinf(p):
                # A scalar power per entry: numpy's array ** 0.5 is sqrt,
                # which need not round like pow.
                out[row, j] = out[row, j] ** (1.0 / p)
    return out


def limit_draw_uniform(p: float, stream: Stream, grid_size: int = DEFAULT_GRID) -> float:
    """One draw of the uniform-CDF limit: the gap norm of a Wiener path.

    Supports every p in [1, inf].
    """
    draws = _law_draws(_UNIT.d, _UNIT.h, _norm_indices((p,)), [stream], uniform_grid(grid_size))
    return float(draws[0, 0])


def limit_draw_general(
    iv: models.IntervalStructure, p: float, stream: Stream, grid_size: int = DEFAULT_GRID
) -> float:
    """One draw of the limit law for a concave CDF with the given affine
    intervals: ``(sum_k d_k h_k^{p/2} ||gap(W_k)||_p^p)^{1/p}`` over
    independent Wiener paths, one per interval.

    An empty collection (strictly concave CDF) gives exactly 0.  Finite p
    only; the sup-norm limit is simulated under the uniform law.
    """
    if np.isinf(p):
        raise ValueError("the interval representation covers finite p only")
    draws = _law_draws(iv.d, iv.h, _norm_indices((p,)), [stream], uniform_grid(grid_size))
    return float(draws[0, 0])


def _block_grid(knots, widths, grid_size: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    # The base grid scaled into each block [knots[k], knots[k] + widths[k]],
    # merged with the base grid itself, and each block's index span.  Block
    # ends are pinned to the exact knots, so junctions coincide bit-for-bit.
    base = uniform_grid(grid_size)
    parts = []
    for k, width in enumerate(widths):
        pts = knots[k] + width * base
        pts[0] = knots[k]
        pts[-1] = knots[k + 1]
        parts.append(pts)
    master = merge_grids(np.concatenate(parts), base)
    ends = np.searchsorted(master, knots).tolist()
    return master, list(zip(ends[:-1], ends[1:]))


def _unit_preimage(u: np.ndarray, start: float, width: float) -> np.ndarray:
    # Block grid points mapped affinely onto [0, 1], ends pinned.
    out = (u - start) / width
    out[0] = 0.0
    out[-1] = 1.0
    return out


@dataclass(frozen=True)
class CouplingIdentity:
    """Both routes to the same pathwise limit draw, and their gap."""

    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)


def verify_rescaling_identity(
    spec: models.ConcaveCdf, p: float, stream: Stream, grid_size: int = DEFAULT_GRID
) -> CouplingIdentity:
    """Check, pathwise, that the interval-rescaled Wiener representation
    reproduces the derivative-route draw.

    ``lhs`` applies interval-local majorants to the composed bridge;
    ``rhs`` rescales the same underlying Wiener path into one standard
    Wiener path per interval and aggregates their gap norms.  The two are
    equal for every path up to float accumulation (``COUPLING_TOL``), not
    merely in distribution.
    """
    if np.isinf(p):
        raise ValueError("the rescaling identity covers finite p only")
    iv = models.extract_intervals(spec)
    if iv.is_empty:
        raise ValueError("a strictly concave CDF has a degenerate limit: no intervals to rescale")
    kx = np.append(iv.a, iv.b[-1])
    ku = models.evaluate(spec, kx)  # np.interp returns the knot ordinates exactly
    master, spans = _block_grid(ku, iv.h, grid_size)
    w = sample_wiener(master, substream(stream, 0))
    b = to_bridge(w)
    lhs_pow = 0.0
    rhs_pow = 0.0
    for k, (i0, i1) in enumerate(spans):
        u_pre = _unit_preimage(master[i0 : i1 + 1], ku[k], iv.h[k])
        x_blk = kx[k] + iv.d[k] * u_pre
        x_blk[-1] = kx[k + 1]
        lhs_pow += pwl.gap_pow_integral(x_blk, b.values[i0 : i1 + 1], p)

        w_k = (w.values[i0 : i1 + 1] - w.values[i0]) * iv.h[k] ** -0.5
        rhs_pow += iv.d[k] * iv.h[k] ** (p / 2.0) * pwl.gap_pow_integral(u_pre, w_k, p)
    return CouplingIdentity(lhs_pow ** (1.0 / p), rhs_pow ** (1.0 / p))


@dataclass(frozen=True)
class DominanceCheck:
    """One pathwise check of the dominance coupling.

    ``lhs`` is the rescaled-interval aggregate, ``rhs`` the full-path gap
    norm; ``hull_excess`` is the worst violation of the interval-hull
    inequality (sub-interval majorant must not exceed the full majorant) at
    any grid point.
    """

    lhs: float
    rhs: float
    hull_excess: float

    @property
    def violation(self) -> bool:
        return self.lhs > self.rhs + COUPLING_TOL or self.hull_excess > COUPLING_TOL


def verify_dominance_coupling(
    iv: models.IntervalStructure, p: float, stream: Stream, grid_size: int = DEFAULT_GRID
) -> DominanceCheck:
    """Check, pathwise, the coupling that makes the uniform law dominant.

    Sub-intervals of the coupling lengths are packed into [0, 1]; one
    standard Wiener path per sub-interval is carved out of a single Wiener
    path by rescaling.  For every path the aggregated gap norm is at most
    the full-path gap norm, because each sub-interval majorant sits below
    the full majorant.
    """
    if np.isinf(p):
        raise ValueError("the dominance coupling covers finite p only")
    lengths = models.coupling_lengths(iv, p)
    packed = models.pack_intervals(lengths)
    knots = [a for a, _ in packed] + [packed[-1][1]]
    master, spans = _block_grid(knots, lengths, grid_size)
    w = sample_wiener(master, substream(stream, 0))

    full_gap = pwl.lcm_gap_on_grid(master, w.values)
    rhs = pwl.pow_integral_from_gaps(master, full_gap, p) ** (1.0 / p)

    lhs_pow = 0.0
    hull_excess = 0.0
    for (i0, i1), a, l in zip(spans, knots, lengths):
        u_pre = _unit_preimage(master[i0 : i1 + 1], a, l)
        root = math.sqrt(l)
        w_k = (w.values[i0 : i1 + 1] - w.values[i0]) / root
        sub_gap = pwl.lcm_gap_on_grid(u_pre, w_k)
        lhs_pow += l ** ((p + 2.0) / 2.0) * pwl.pow_integral_from_gaps(u_pre, sub_gap, p)
        excess = sub_gap * root - full_gap[i0 : i1 + 1]
        hull_excess = max(hull_excess, float(excess.max()))
    return DominanceCheck(lhs_pow ** (1.0 / p), rhs, hull_excess)


# -- Quantiles and critical-value tables ----------------------------------------


@dataclass(frozen=True)
class QuantileEstimate:
    """Order-statistic quantile with a density-free standard error.

    The standard error is half the spread between the order statistics one
    binomial standard deviation of ranks below and above the quantile rank.
    """

    quantile: float
    se: float
    rank: int = 0


def estimate_quantiles(draws, alphas) -> dict[float, QuantileEstimate]:
    """Upper (1 - alpha) empirical quantiles of the draws.

    Uses the lower empirical quantile: the ceil((1 - alpha) N)-th smallest
    draw.  (A 1e-9 slack keeps the rank stable against float dust in
    (1 - alpha) * N.)
    """
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim != 1 or draws.size == 0:
        raise ValueError("draws must be a nonempty 1-d array")
    s = np.sort(draws)
    n = s.size
    out: dict[float, QuantileEstimate] = {}
    for alpha in alphas:
        a = float(alpha)
        if not 0.0 < a < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
        rank = int(math.ceil((1.0 - a) * n - 1e-9))
        rank = min(max(rank, 1), n)
        spread = math.sqrt(n * a * (1.0 - a))
        lo = max(1, int(math.floor(rank - spread)))
        hi = min(n, int(math.ceil(rank + spread)))
        out[a] = QuantileEstimate(float(s[rank - 1]), 0.5 * float(s[hi - 1] - s[lo - 1]), rank)
    return out


def p_key(p: float) -> str:
    """Canonical string for a norm index ('inf', '2', '2.5', ...)."""
    p = float(p)
    if math.isinf(p):
        return "inf"
    if p == int(p):
        return str(int(p))
    return repr(p)


def parse_p(token) -> float:
    """Parse a norm index; accepts 'inf' (any case) and numbers >= 1."""
    if isinstance(token, str) and token.strip().lower() in ("inf", "infinity"):
        return math.inf
    p = float(token)
    if math.isinf(p) and p > 0:
        return math.inf
    if not p >= 1.0:
        raise ValueError(f"norm index must be >= 1 or 'inf', got {token!r}")
    return p


@dataclass(frozen=True)
class CriticalValueTable:
    """Simulated upper quantiles of the uniform-CDF limit, with provenance.

    ``entries`` maps ``(p key, alpha)`` to a :class:`QuantileEstimate`;
    ``provenance`` records everything needed to reproduce the simulation.
    """

    entries: dict
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        by_p: dict[str, list[tuple[float, float]]] = {}
        for (pk, alpha), est in self.entries.items():
            if est.quantile < 0.0:
                raise ValueError("quantiles must be nonnegative")
            by_p.setdefault(pk, []).append((float(alpha), est.quantile))
        for pk, rows in by_p.items():
            rows.sort()
            qs = [q for _, q in rows]
            if any(b > a for a, b in zip(qs, qs[1:])):
                raise ValueError(f"quantiles for p={pk} must be nonincreasing in alpha")

    def lookup(self, p: float, alpha: float) -> QuantileEstimate:
        pk = p_key(p)
        for (kp, ka), est in self.entries.items():
            if kp == pk and abs(ka - alpha) <= 1e-9:
                return est
        have = sorted({f"(p={kp}, alpha={ka:g})" for kp, ka in self.entries})
        raise KeyError(f"no entry for (p={pk}, alpha={alpha:g}); table has {', '.join(have)}")

    def to_dict(self) -> dict:
        entries = [
            {"p": pk, "alpha": float(alpha), "q": est.quantile, "se": est.se}
            for (pk, alpha), est in sorted(self.entries.items())
        ]
        return {"entries": entries, "provenance": dict(self.provenance)}

    @classmethod
    def from_dict(cls, data: dict) -> "CriticalValueTable":
        entries = {}
        for row in data["entries"]:
            entries[(str(row["p"]), float(row["alpha"]))] = QuantileEstimate(
                float(row["q"]), float(row.get("se", 0.0))
            )
        return cls(entries, dict(data.get("provenance", {})))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "CriticalValueTable":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _draw_block(
    master_seed: int, grid_size: int, d, h, ps: tuple, start: int, stop: int
) -> np.ndarray:
    # Draws for replications [start, stop); replication i uses substream
    # (master_seed, i), matching the single-draw functions.
    streams = [substream(master_seed, i) for i in range(start, stop)]
    return _law_draws(d, h, ps, streams, uniform_grid(grid_size))


def simulate_draws(
    iv: models.IntervalStructure, ps, config: SimConfig, workers: int = 1, progress=None
) -> np.ndarray:
    """Draws of the limit law with affine intervals ``iv``: one row per
    replication, one column per norm index in ``ps`` (p = inf included).

    Row i is drawn from ``substream(config.master_seed, i)``, as in
    ``limit_draw_general``, so the result is bit-identical for any
    ``workers`` (capped at ``os.cpu_count()``).  All norm indices share the
    same paths.  ``progress`` is an optional callback ``(done, total)``.
    """
    ps = _norm_indices(ps)
    n = config.replications
    draws = np.zeros((n, len(ps)))
    if iv.is_empty:
        return draws
    workers = min(workers, os.cpu_count() or 1)
    step = max(1, min(n, 2000 if workers <= 1 else math.ceil(n / (workers * 8))))
    blocks = [(start, min(start + step, n)) for start in range(0, n, step)]
    task = (config.master_seed, config.grid_size, iv.d, iv.h, ps)
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        if pool is None:
            finished = ((block, _draw_block(*task, *block)) for block in blocks)
        else:
            futures = {pool.submit(_draw_block, *task, *block): block for block in blocks}
            finished = ((futures[f], f.result()) for f in as_completed(futures))
        done = 0
        for (start, stop), rows in finished:
            draws[start:stop] = rows
            done += stop - start
            if progress is not None:
                progress(done, n)
    return draws


def build_critical_table(
    config: SimConfig,
    alphas=(0.01, 0.05, 0.10),
    ps=(1.0, 2.0, math.inf),
    workers: int = 1,
    progress=None,
) -> CriticalValueTable:
    """Simulate the uniform-CDF limit and tabulate its upper quantiles.

    All norm indices share the same paths (the gap is computed once per
    path), so a table costs one simulation regardless of how many norms it
    covers.  Deterministic for a given master seed, whatever ``workers`` is;
    ``progress`` is an optional callback ``(done, total)``.  The provenance
    records the software versions, the worker count and the wall time of
    the simulation.
    """
    start = time.perf_counter()
    draws = simulate_draws(_UNIT, ps, config, workers, progress)
    seconds = time.perf_counter() - start
    entries = {}
    for j, p in enumerate(ps):
        for alpha, est in estimate_quantiles(draws[:, j], alphas).items():
            entries[(p_key(p), alpha)] = est
    provenance = {
        "grid_size": config.grid_size,
        "replications": config.replications,
        "master_seed": config.master_seed,
        "ps": [p_key(p) for p in ps],
        "alphas": [float(a) for a in alphas],
        "built_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "lcmtest_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "workers": workers,
        "timing": {"seconds": seconds, "reps_per_s": config.replications / seconds},
    }
    return CriticalValueTable(entries, provenance)
