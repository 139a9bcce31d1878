"""Monte Carlo engine for the limiting laws of the concavity statistics.

Under a concave CDF the scaled majorant distance converges to the L^p norm
of a majorant gap built from Brownian motion.  This module draws that limit
with no grid hull (the limit engine), estimates the quantiles used as
critical values, and, on sampled Wiener paths, verifies the pathwise
rescaling identity and the pathwise dominance inequality.

The limit engine (``ENGINE``) uses two facts about the least concave
majorant of a Wiener path W on [0, 1] (Groeneboom 1983; Balabdaoui & Pitman
2011, Bernoulli 17(1)): its faces have uniform stick-breaking lengths l_i,
and on each face the gap is an independent Brownian excursion.  A draw
breaks sticks until less than 1e-12 is left (~28 faces) and samples face
i's excursion as the norm of a 3-d Brownian bridge on max(4, round(budget *
l_i)) points, with the point budget ``SimConfig.grid_size``; the finite-p
norms integrate those points exactly and share them, so ||gap||_1 <=
||gap||_2 path by path.  The p = inf column is max_i sqrt(l_i) K_i with K_i
from Kennedy's law of the excursion maximum: exact in law, but not the max
of the sampled excursions, so it is not tied path by path to the finite-p
columns.  Replications are drawn in passes of about 2^16 face points, the
one unit of work in this process and in a worker pool alike: each stream
makes its own random draws, then one run of array operations serves every
face of the pass, and no value depends on which streams share a pass.
Sampled paths on grids remain where one shared path is the point: the two
coupling verifiers.  Each checks every path of a sequence of streams in one
call: the CDF's intervals and the grids are built once, and the paths run
in passes of at most ``_POINTS_PER_PASS`` grid points, each pass one
matrix with a path per row.

Determinism contract: every replication derives its randomness from
``(master seed, replication index)`` through spawn keys, so results are
bit-identical for any worker count; aggregation sorts the draws, so order
never matters.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import functools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__, models, pwl
from .streams import Stream, generator, substream

DEFAULT_SEED = 171717
#: Identifies the limit engine in table provenance and reports; a table made
#: by another engine is stale.
ENGINE = "stick-breaking-excursion/1"
DEFAULT_GRID = 1024
DEFAULT_REPLICATIONS = 200_000

#: Pathwise coupling identities hold up to float accumulation only; a gap
#: beyond this is a bug, not discretization error.
COUPLING_TOL = 1e-9

_GRID_MERGE_TOL = 1e-12

#: The uniform law's affine intervals: the single unit interval, d = h = 1.
_UNIT = models.extract_intervals(models.UniformCdf())


@dataclass(frozen=True)
class SimConfig:
    """Scale knobs for the simulator.

    ``grid_size`` is the limit engine's point budget: a face of length l is
    sampled on max(4, round(grid_size * l)) points, about grid_size + 90 in
    all per draw.
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


def sample_wiener(grid, streams) -> np.ndarray:
    """Wiener paths at the grid points, one row per stream of ``streams``:
    W(0) = 0, independent Gaussian increments with variance equal to the
    time step.  Row i is deterministic given ``streams[i]`` and does not
    depend on the other streams.  The grid must be strictly increasing from
    0 to 1."""
    grid = pwl.as_sorted_array(grid, "grid")
    if grid.size < 2 or grid[0] != 0.0 or grid[-1] != 1.0:
        raise ValueError("grid must span [0, 1] with 0 and 1 as grid points")
    values = np.zeros((len(streams), grid.size))
    for stream, row in zip(streams, values):
        generator(stream).standard_normal(out=row[1:])
    values[:, 1:] *= np.sqrt(np.diff(grid))
    np.cumsum(values[:, 1:], axis=1, out=values[:, 1:])
    return values


# -- Limit draws ----------------------------------------------------------------


def _norm_indices(ps) -> tuple:
    ps = tuple(float(p) for p in ps)
    if not all(p >= 1.0 for p in ps):
        raise ValueError("norm indices must be >= 1")
    return ps


# The limit engine: with face lengths l_i and standard excursions e_i,
# ||gap||_p^p = sum_i l_i^{1+p/2} int e_i^p and sup gap = max_i sqrt(l_i) max e_i.

#: Sticks are broken off until the length left is below this; ~28 faces.
_STICK_TAIL = 1e-12
#: Uniforms drawn per round of stick-breaking; one round nearly always suffices.
#: A stream's later draws start after its last round, so this sets every draw.
_STICKS = 64
#: Fewest points an excursion is sampled on.
_MIN_FACE_POINTS = 4
#: Face points the engine draws in one pass, about 64 streams at the default
#: budget.  Past the per-stream random draws, each pass is a fixed number of
#: numpy calls over all its faces, so wider passes cost less per stream,
#: until their arrays outgrow the cache (4 streams at budget 16384 already
#: take ~8 % longer than 2; 2 MB of normals a pass).  The coupling verifiers
#: bound their passes by the same number of grid points.
_POINTS_PER_PASS = 2**16


def _pass_rows(points_per_row: int) -> int:
    # Rows of a pass: as many as fit in _POINTS_PER_PASS points, at least one.
    return max(1, _POINTS_PER_PASS // points_per_row)


def _kennedy_cdf(y) -> np.ndarray:
    """P(max of a standard Brownian excursion <= y), Kennedy's law, for y > 0.

    The theta series ``1 + 2 sum_k (1 - 4k^2y^2) exp(-2k^2y^2)`` for
    y >= 0.6, and its Jacobi dual ``sqrt(2 pi) pi^2 / y^3 sum_k k^2
    exp(-pi^2 k^2 / (2 y^2))`` below, where the theta series cancels badly.
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    k = np.arange(1.0, 21.0)[:, None]
    out = np.empty_like(y)
    big = y >= 0.6
    t = (k * y[big]) ** 2
    out[big] = 1.0 + 2.0 * np.sum((1.0 - 4.0 * t) * np.exp(-2.0 * t), axis=0)
    small = y[~big]
    series = np.sum(k**2 * np.exp(-(math.pi**2) * k**2 / (2.0 * small**2)), axis=0)
    out[~big] = math.sqrt(2.0 * math.pi) * math.pi**2 / small**3 * series
    return out


@functools.cache
def _kennedy_table() -> tuple[np.ndarray, np.ndarray]:
    # Built on first use, not at import.  Below 0.2 and above 5 the law has
    # mass under 1e-19.  Read-only, since every caller shares the arrays.
    ys = np.linspace(0.2, 5.0, 20001)
    cdf = _kennedy_cdf(ys)
    cdf.flags.writeable = ys.flags.writeable = False
    return cdf, ys


def excursion_max_quantile(u) -> np.ndarray:
    """Kennedy's quantile function at ``u`` in [0, 1): maps uniform draws
    to draws of the max of a standard Brownian excursion, by inverting the
    tabulated CDF."""
    cdf, ys = _kennedy_table()
    return np.interp(u, cdf, ys)


def _face_lengths(rngs) -> tuple[np.ndarray, np.ndarray]:
    # Every stream's stick lengths, stream after stream, and how many each
    # has: uniform stick-breaking of [0, 1] until the stick left is below
    # _STICK_TAIL.  Each round draws _STICKS uniforms for the streams still
    # above it; finished rows get zero columns, which leave their cumprod
    # unchanged.
    u = np.zeros((len(rngs), 0))
    unfinished = range(len(rngs))
    while len(unfinished):
        more = np.zeros((len(rngs), _STICKS))
        for s in unfinished:
            rngs[s].random(out=more[s])
        u = np.hstack([u, more])
        rest = np.cumprod(1.0 - u, axis=1)
        unfinished = np.flatnonzero(rest[:, -1] >= _STICK_TAIL)
    counts = np.argmax(rest < _STICK_TAIL, axis=1) + 1
    u[:, 1:] *= rest[:, :-1]
    return u[np.arange(u.shape[1]) < counts[:, None]], counts


def _excursion_pow_integrals(rngs, lengths, counts, first, budget: int, ps) -> np.ndarray:
    # Row j, column s: sum_i l_i^{1+p/2} int e_i^p at ps[j] over stream s's
    # faces, one excursion per face.  Face i is |3-d Brownian bridge| on
    # m_i = max(4, round(budget l_i)) steps.  Stream s draws its normals as
    # one (3, sum of its m_i) array, which fills columns of z; increments
    # centred per face make each face's cumsum a bridge, whose last point is
    # 0.  The walk has unit steps, so int e_i^p = m_i^{-(1+p/2)} times the
    # sum of the ramp integrals of |bridge|.
    m = np.maximum(_MIN_FACE_POINTS, np.rint(budget * lengths)).astype(np.intp)
    starts = np.zeros(m.size, dtype=np.intp)
    np.cumsum(m[:-1], out=starts[1:])
    total = int(starts[-1] + m[-1])
    spans = list(zip(starts[first].tolist(), np.add.reduceat(m, first).tolist()))
    z = np.empty((3, total))
    for rng, (c, w) in zip(rngs, spans):
        z[:, c : c + w] = rng.standard_normal((3, w))
    mean = np.add.reduceat(z, starts, axis=1)
    mean /= m
    z -= np.repeat(mean, m, axis=1)
    for c, w in spans:
        walk = z[:, c : c + w]
        np.cumsum(walk, axis=1, out=walk)
    r = np.zeros(total + 1)  # every face starts and ends at 0
    np.sqrt(np.einsum("ij,ij->j", z, z), out=r[1:])
    r[starts] = 0.0
    r[total] = 0.0
    steps = lengths / m
    faces = list(zip(first.tolist(), counts.tolist()))
    out = np.empty((len(ps), len(rngs)))
    for j, p in enumerate(ps):
        per_face = np.add.reduceat(pwl.ramp_pow_integrals(r[:-1], r[1:], 1.0, p), starts)
        w = steps ** (1.0 + p / 2.0)
        out[j] = [np.dot(w[a : a + n], per_face[a : a + n]) for a, n in faces]
    return out


def _roots(powers: np.ndarray, p: float) -> np.ndarray:
    # p-th roots one entry at a time, as Python floats: numpy's array ** need
    # not round like scalar pow.
    return np.array([x ** (1.0 / p) for x in powers.tolist()])


def _law_draws(d, h, ps, root: Stream, keys, budget: int) -> np.ndarray:
    # The one simulation engine, one pass: row i, column j is the draw at
    # norm index ps[j] of the law with affine widths d and rises h,
    # (sum_k d_k h_k^{p/2} X_p(k)^p)^{1/p}, or max_k h_k^{1/2} X_inf(k) at
    # p = inf, with interval k's uniform-limit draw X(k) taken from
    # substream(root, *keys[i], k).  The uniform law is d = h = [1], for
    # which the arithmetic is exact.  Each stream breaks its sticks, then
    # draws one Kennedy uniform per face, then the excursions' normals, so a
    # column does not depend on which other norm indices are asked for, and
    # no value depends on which other keys share the pass.
    finite = [(j, p) for j, p in enumerate(ps) if not math.isinf(p)]
    sup = [j for j, p in enumerate(ps) if math.isinf(p)]
    nk = len(d)
    out = np.zeros((len(keys), len(ps)))
    if nk == 0:  # no affine interval: every draw is 0
        return out
    rngs = [generator(substream(root, *key, k)) for key in keys for k in range(nk)]
    lengths, counts = _face_lengths(rngs)
    first = np.zeros(counts.size, dtype=np.intp)
    np.cumsum(counts[:-1], out=first[1:])
    u = np.empty(lengths.size)
    for rng, a, n in zip(rngs, first.tolist(), counts.tolist()):
        rng.random(out=u[a : a + n])
    if sup:
        top = np.maximum.reduceat(np.sqrt(lengths) * excursion_max_quantile(u), first)
        top = top.reshape(-1, nk)
        for k in range(nk):
            out[:, sup] = np.maximum(out[:, sup], h[k] ** 0.5 * top[:, k : k + 1])
    if finite:
        powers = _excursion_pow_integrals(
            rngs, lengths, counts, first, budget, [p for _, p in finite]
        )
        for (j, p), x in zip(finite, powers.reshape(len(finite), -1, nk)):
            for k in range(nk):
                out[:, j] += d[k] * h[k] ** (p / 2.0) * x[:, k]
            out[:, j] = _roots(out[:, j], p)
    return out


def limit_draw_general(
    iv: models.IntervalStructure, p: float, stream: Stream, grid_size: int = DEFAULT_GRID
) -> float:
    """One draw of the limit law for a concave CDF with the given affine
    intervals: ``(sum_k d_k h_k^{p/2} ||gap(W_k)||_p^p)^{1/p}``, or
    ``max_k h_k^{1/2} sup gap(W_k)`` at p = inf, over independent Wiener
    paths, one per interval, each gap norm drawn by the limit engine with
    ``grid_size`` as its point budget.

    An empty collection (strictly concave CDF) gives exactly 0.
    """
    draws = _law_draws(iv.d, iv.h, _norm_indices((p,)), stream, [()], grid_size)
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


def _wiener_passes(master: np.ndarray, streams):
    # (rows, W) for the verifiers, in passes of at most _POINTS_PER_PASS
    # grid points: W holds the Wiener paths on ``master`` drawn from
    # substream(streams[i], 0) for i in ``rows``.
    step = _pass_rows(master.size)
    for lo in range(0, len(streams), step):
        part = streams[lo : lo + step]
        yield slice(lo, lo + len(part)), sample_wiener(master, [substream(s, 0) for s in part])


@dataclass(frozen=True)
class CouplingIdentity:
    """Both routes to the same pathwise limit draw, one entry per path, and
    their gaps."""

    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def gap(self) -> np.ndarray:
        return np.abs(self.lhs - self.rhs)


def verify_rescaling_identity(
    spec: models.ConcaveCdf, p: float, streams, grid_size: int = DEFAULT_GRID
) -> CouplingIdentity:
    """Check, pathwise, that the interval-rescaled Wiener representation
    reproduces the derivative-route draw, on one Wiener path per stream of
    ``streams`` (path i drawn from ``substream(streams[i], 0)``).

    ``lhs`` applies interval-local majorants to the composed bridge;
    ``rhs`` rescales the same underlying Wiener path into one standard
    Wiener path per interval and aggregates their gap norms.  The two are
    equal for every path up to float accumulation (``COUPLING_TOL``), not
    merely in distribution.  The grids are built once per call, and each
    path's entries do not depend on the other streams.
    """
    if np.isinf(p):
        raise ValueError("the rescaling identity covers finite p only")
    iv = models.extract_intervals(spec)
    if iv.is_empty:
        raise ValueError("a strictly concave CDF has a degenerate limit: no intervals to rescale")
    kx = np.append(iv.a, iv.b[-1])
    ku = models.evaluate(spec, kx)  # np.interp returns the knot ordinates exactly
    master, spans = _block_grid(ku, iv.h, grid_size)
    blocks = []
    for k, (i0, i1) in enumerate(spans):
        u_pre = _unit_preimage(master[i0 : i1 + 1], ku[k], iv.h[k])
        x_blk = kx[k] + iv.d[k] * u_pre
        x_blk[-1] = kx[k + 1]
        blocks.append((i0, i1 + 1, u_pre, x_blk, iv.h[k] ** -0.5, iv.d[k] * iv.h[k] ** (p / 2.0)))
    lhs_pow = np.zeros(len(streams))
    rhs_pow = np.zeros(len(streams))
    for rows, w in _wiener_passes(master, streams):
        b = w - master * w[:, -1:]  # the Brownian bridge B(u) = W(u) - u W(1)
        for i0, i1, u_pre, x_blk, scale, weight in blocks:
            lhs_pow[rows] += pwl.gap_pow_integral(x_blk, b[:, i0:i1], p)
            w_k = (w[:, i0:i1] - w[:, i0 : i0 + 1]) * scale
            rhs_pow[rows] += weight * pwl.gap_pow_integral(u_pre, w_k, p)
    return CouplingIdentity(_roots(lhs_pow, p), _roots(rhs_pow, p))


@dataclass(frozen=True)
class DominanceCheck:
    """Pathwise checks of the dominance coupling, one entry per path.

    ``lhs`` is the rescaled-interval aggregate, ``rhs`` the full-path gap
    norm; ``hull_excess`` is the worst violation of the interval-hull
    inequality (sub-interval majorant must not exceed the full majorant) at
    any grid point.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    hull_excess: np.ndarray

    @property
    def violation(self) -> np.ndarray:
        return (self.lhs > self.rhs + COUPLING_TOL) | (self.hull_excess > COUPLING_TOL)


def verify_dominance_coupling(
    iv: models.IntervalStructure, p: float, streams, grid_size: int = DEFAULT_GRID
) -> DominanceCheck:
    """Check, pathwise, the coupling that makes the uniform law dominant,
    on one Wiener path per stream of ``streams`` (path i drawn from
    ``substream(streams[i], 0)``).

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
    blocks = [
        (i0, i1 + 1, _unit_preimage(master[i0 : i1 + 1], a, l), math.sqrt(l), l ** ((p + 2.0) / 2.0))
        for (i0, i1), a, l in zip(spans, knots, lengths)
    ]
    lhs_pow = np.zeros(len(streams))
    rhs_pow = np.zeros(len(streams))
    hull_excess = np.zeros(len(streams))
    for rows, w in _wiener_passes(master, streams):
        full_gap = pwl.lcm_gap_on_grid(master, w)
        rhs_pow[rows] = pwl.pow_integral_from_gaps(master, full_gap, p)
        for i0, i1, u_pre, root, weight in blocks:
            w_k = (w[:, i0:i1] - w[:, i0 : i0 + 1]) / root
            sub_gap = pwl.lcm_gap_on_grid(u_pre, w_k)
            lhs_pow[rows] += weight * pwl.pow_integral_from_gaps(u_pre, sub_gap, p)
            excess = (sub_gap * root - full_gap[:, i0:i1]).max(axis=1)
            # Python's max(kept, new): the new value only where it is larger.
            hull_excess[rows] = np.where(excess > hull_excess[rows], excess, hull_excess[rows])
    return DominanceCheck(_roots(lhs_pow, p), _roots(rhs_pow, p), hull_excess)


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
    """Simulated upper quantiles of a limit law, with provenance.

    ``entries`` maps ``(p key, alpha)`` to a :class:`QuantileEstimate`;
    ``provenance`` records everything needed to reproduce the simulation.
    """

    entries: dict
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        by_p: dict[str, list[tuple[float, float]]] = {}
        for (pk, alpha), est in self.entries.items():
            # Written so NaN fails too: every comparison with NaN is False.
            if not (0.0 <= est.quantile < math.inf and 0.0 <= est.se < math.inf):
                raise ValueError("quantiles and standard errors must be finite and nonnegative")
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


#: A stream of the limit engine costs about as much as this many face points
#: on top of its point budget (stick-breaking, seeding, per-stream calls).
_STREAM_COST_POINTS = 1024
#: Work, in face points, that pays for one worker process: about 0.12 s of
#: one core on a 2-core Xeon, where starting a pool of two takes 40-60 ms.
#: At the default budget that is ~500 replications of the uniform law.
_WORK_PER_WORKER = 2**20


def _workers_used(iv: models.IntervalStructure, config: SimConfig, workers: int) -> int:
    # ``workers`` capped at the CPU count and at one per _WORK_PER_WORKER of work.
    work = config.replications * len(iv.d) * (config.grid_size + _STREAM_COST_POINTS)
    return min(workers, os.cpu_count() or 1, max(1, work // _WORK_PER_WORKER))


def simulate_draws(
    iv: models.IntervalStructure, ps, config: SimConfig, workers: int = 1, progress=None
) -> np.ndarray:
    """Draws of the limit law with affine intervals ``iv``: one row per
    replication, one column per norm index in ``ps`` (p = inf included).

    Row i is drawn from ``substream(config.master_seed, i)``, as in
    ``limit_draw_general``, so the result is bit-identical for any
    ``workers``.  ``workers`` is capped at ``os.cpu_count()`` and at one
    worker per ``_WORK_PER_WORKER`` of work, so a small simulation runs in
    this process instead of waiting for a pool to start.  The replications
    are cut once into passes of about ``_POINTS_PER_PASS`` face points, one
    engine call each, here or in a worker; rows are written, and the
    optional callback ``progress(done, total)`` is called, in pass order.
    The finite norm indices share the same excursions; p = inf shares their
    faces.
    """
    ps = _norm_indices(ps)
    n = config.replications
    draws = np.zeros((n, len(ps)))
    if iv.is_empty:
        return draws
    workers = _workers_used(iv, config, workers)
    rows = _pass_rows(config.grid_size * len(iv.d))
    keys = np.arange(n)[:, None]  # interval k of replication i: substream(master_seed, i, k)
    starts = range(0, n, rows)
    passes = [keys[lo : lo + rows] for lo in starts]
    draw = functools.partial(
        _law_draws, iv.d, iv.h, ps, config.master_seed, budget=config.grid_size
    )
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        if pool is None:
            parts = map(draw, passes)
        else:
            parts = pool.map(draw, passes, chunksize=math.ceil(len(passes) / (8 * workers)))
        for lo, part in zip(starts, parts):
            draws[lo : lo + len(part)] = part
            if progress is not None:
                progress(lo + len(part), n)
    return draws


def build_critical_table(
    config: SimConfig,
    alphas=(0.01, 0.05, 0.10),
    ps=(1.0, 2.0, math.inf),
    workers: int = 1,
    progress=None,
    iv: models.IntervalStructure | None = None,
) -> CriticalValueTable:
    """Simulate the limit law with affine intervals ``iv`` (the uniform law
    when None) and tabulate its upper quantiles.

    All norm indices share the same draws of the faces (and the finite ones
    the same excursions), so a table costs one simulation regardless of how
    many norms it covers.  Deterministic for a given master seed, whatever
    ``workers`` is; ``progress`` is an optional callback ``(done, total)``.
    The provenance records the engine id, the software versions, the number
    of workers the simulation used and its wall time.
    """
    iv = _UNIT if iv is None else iv
    start = time.perf_counter()
    draws = simulate_draws(iv, ps, config, workers, progress)
    seconds = time.perf_counter() - start
    entries = {}
    for j, p in enumerate(ps):
        for alpha, est in estimate_quantiles(draws[:, j], alphas).items():
            entries[(p_key(p), alpha)] = est
    provenance = {
        "engine": ENGINE,
        "grid_size": config.grid_size,
        "grid_size_is": "point budget: a face of length l is sampled on max(4, round(grid_size * l)) points",
        "replications": config.replications,
        "master_seed": config.master_seed,
        "ps": [p_key(p) for p in ps],
        "alphas": [float(a) for a in alphas],
        "built_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "lcmtest_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "workers": _workers_used(iv, config, workers),
        "timing": {"seconds": seconds, "reps_per_s": config.replications / seconds},
    }
    return CriticalValueTable(entries, provenance)
