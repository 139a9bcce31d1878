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
breaks sticks until less than 1e-12 is left (~28 faces) and draws one
uniform u_i per face.  For p = 1, 2 and inf, u_i is the face's only other
randomness: it is mapped through the tabulated inverse CDF of the
excursion's area A (the Airy law; Janson 2007, Probab. Surveys 4), of its
energy Y = int e^2 (Laplace transform (sqrt(2s)/sinh sqrt(2s))^{3/2}) and
of its maximum K (Kennedy's law), so X_1 = sum_i l_i^{3/2} A_i, X_2^2 =
sum_i l_i^2 Y_i and X_inf = max_i sqrt(l_i) K_i, each exact in law.  The
three columns are coupled comonotonically through the shared u_i, and A <=
sqrt(Y) <= K in the stochastic order, so X_1 <= X_2 <= X_inf draw by draw;
the joint law is not that of one Brownian path.  Any other finite p samples
face i's excursion as the norm of a 3-d Brownian bridge on max(4,
round(budget * l_i)) points, with the point budget
``SimConfig.grid_size``, and integrates those points exactly; those
columns share the faces but not the excursions' values with the exact
ones.  Replications are drawn in blocks of ``_BLOCK``, the one unit of
randomness: one generator draws every stick, face uniform and normal of a
block, and one run of array operations serves every face of the block (or
of a sub-pass of at most ``_POINTS_PER_PASS`` sampled points).
Sampled paths on grids remain where one shared path is the point: the two
coupling verifiers.  Each checks every path of a sequence of streams in one
call: the CDF's intervals and the grids are built once, and the paths run
in passes of at most ``_POINTS_PER_PASS`` grid points, each pass one
matrix with a path per row.

Determinism contract: block b of a simulation is drawn from
``substream(master seed, b)`` through spawn keys, in this process, so a
simulation's draws are the same from run to run, and do not depend on how
a block's sampled excursions are cut into sub-passes; aggregation sorts
the draws, so order never matters.
"""

from __future__ import annotations

import datetime as _dt
import functools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy import special

from . import __version__, models, pwl
from .streams import Stream, generator, substream

DEFAULT_SEED = 171717
#: Identifies the limit engine in table provenance and reports; a table made
#: by another engine is stale.
ENGINE = "stick-breaking-excursion/3"
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

    ``grid_size`` is the limit engine's point budget, used only for norm
    indices other than 1, 2 and inf, whose face functionals are drawn from
    their exact laws: at any other p a face of length l is sampled on
    max(4, round(grid_size * l)) points, about grid_size + 90 in all per
    draw.  ``master_seed`` seeds the blocks of ``_BLOCK`` replications, so
    it and ``replications`` fix every draw: the replications of a shorter
    simulation are the first rows of a longer one only where they fill
    whole blocks.
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
#: Sampled face points in one sub-pass of the engine at p outside {1, 2,
#: inf}: 64 replications of the uniform law at the default budget, 4 at
#: 16384.  Each sub-pass is a fixed number of numpy calls over all its
#: faces, so wider ones cost less per replication, until their arrays
#: outgrow the cache (2 MB of normals a sub-pass).  The coupling verifiers
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


def _airy_area_density(x) -> np.ndarray:
    """Density of the area A under a standard Brownian excursion (the Airy
    law), for x > 0: ``2 sqrt(6) / x^2 sum_j v_j^{2/3} e^{-v_j} U(-5/6, 4/3;
    v_j)`` with ``v_j = 2 |a_j|^3 / (27 x^2)`` and a_j the zeros of Ai
    (Takacs 1991; Janson 2007, Probab. Surveys 4).  Terms with v_j >= 60
    are below 1e-24 and left out; 200 zeros cover x up to ~20."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    v = 2.0 * np.abs(special.ai_zeros(200)[0])[:, None] ** 3 / (27.0 * x**2)
    keep = v < 60.0
    terms = np.zeros_like(v)
    vk = v[keep]
    terms[keep] = vk ** (2.0 / 3.0) * np.exp(-vk) * special.hyperu(-5.0 / 6.0, 4.0 / 3.0, vk)
    return 2.0 * math.sqrt(6.0) / x**2 * terms.sum(axis=0)


#: Nodes of the fixed-Talbot inversion in ``_energy_cdf``: with 24 the energy
#: table's mean is 1/2 to ~2e-12.
_TALBOT_NODES = 24


def _energy_cdf(y) -> np.ndarray:
    """P(Y <= y) for the energy ``Y = int_0^1 e^2`` of a standard Brownian
    excursion (in law, the integral of |3-d Brownian bridge|^2), for y > 0.

    Fixed-Talbot inversion (Abate & Valko 2004) of ``phi(s) / s``, with the
    Laplace transform ``phi(s) = (x / sinh x)^{3/2}``, x = sqrt(2s), taken
    through ``log phi = 1.5 (log 2x - x - log1p(-e^{-2x}))``: Re x > 0 on
    the contour, so no branch cut is crossed.
    """
    nodes = _TALBOT_NODES
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))[:, None]
    theta = np.arange(1, nodes) * (math.pi / nodes)
    cot = 1.0 / np.tan(theta)
    r = 2.0 * nodes / (5.0 * y)
    s = r * theta * (cot + 1j)
    sigma = theta + (theta * cot - 1.0) * cot

    def log_phi(s):
        x = np.sqrt(2.0 * s)
        return 1.5 * (np.log(2.0 * x) - x - np.log1p(-np.exp(-2.0 * x)))

    body = np.exp(y * s + log_phi(s) - np.log(s)) * (1.0 + 1j * sigma)
    r = r[:, 0]
    at_r = 0.5 * np.exp(2.0 * nodes / 5.0 + log_phi(r + 0j).real) / r
    return r / nodes * (at_r + body.real.sum(axis=1))


def _read_only(cdf, xs) -> tuple[np.ndarray, np.ndarray]:
    cdf.flags.writeable = xs.flags.writeable = False
    return cdf, xs


# The face laws' tables are built on first use, not at import, and are
# read-only, since every caller shares the arrays.  Each grid holds all but
# ~1e-11 of its law's mass.


@functools.cache
def _kennedy_table() -> tuple[np.ndarray, np.ndarray]:
    # Below 0.2 and above 5 the law has mass under 1e-19.
    ys = np.linspace(0.2, 5.0, 20001)
    return _read_only(_kennedy_cdf(ys), ys)


@functools.cache
def _area_table() -> tuple[np.ndarray, np.ndarray]:
    # The density integrated by the trapezoid rule; it vanishes to all
    # orders at both ends, so the moments are good to ~1e-12.
    xs = np.linspace(0.02, 2.2, 4001)
    f = _airy_area_density(xs)
    cdf = np.zeros(xs.size)
    np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(xs), out=cdf[1:])
    return _read_only(cdf, xs)


@functools.cache
def _energy_table() -> tuple[np.ndarray, np.ndarray]:
    # The inversion is good to ~1e-12 absolute; clipping and a running max
    # keep that noise from making the CDF decrease.
    ys = np.linspace(0.005, 6.0, 6001)
    cdf = np.maximum.accumulate(np.clip(_energy_cdf(ys), 0.0, 1.0))
    return _read_only(cdf, ys)


#: The norm indices whose face functional is drawn from its exact law, and
#: that law's table: the area int e (p = 1), the energy int e^2 (p = 2) and
#: the maximum of a standard excursion e (p = inf).
_FACE_LAWS = {1.0: _area_table, 2.0: _energy_table, math.inf: _kennedy_table}


def _face_quantile(p: float, u) -> np.ndarray:
    # The face functional of norm index p in _FACE_LAWS at uniform draws u,
    # by inverting its tabulated CDF.
    cdf, xs = _FACE_LAWS[p]()
    return np.interp(u, cdf, xs)


def _face_lengths(rng, streams: int) -> tuple[np.ndarray, np.ndarray]:
    # The stick lengths of ``streams`` streams, stream after stream, and how
    # many each has: uniform stick-breaking of [0, 1] until the stick left is
    # below _STICK_TAIL.  Each round draws _STICKS uniforms a stream, in
    # stream order, for the streams still above it; finished rows get zero
    # columns, which leave their cumprod unchanged.
    u = np.zeros((streams, 0))
    unfinished = np.arange(streams)
    while unfinished.size:
        more = np.zeros((streams, _STICKS))
        more[unfinished] = rng.random((unfinished.size, _STICKS))
        u = np.hstack([u, more])
        rest = np.cumprod(1.0 - u, axis=1)
        unfinished = np.flatnonzero(rest[:, -1] >= _STICK_TAIL)
    counts = np.argmax(rest < _STICK_TAIL, axis=1) + 1
    u[:, 1:] *= rest[:, :-1]
    return u[np.arange(u.shape[1]) < counts[:, None]], counts


def _excursion_pow_integrals(rng, lengths, counts, nk: int, budget: int, ps) -> np.ndarray:
    # Row j, column s: sum_i l_i^{1+p/2} int e_i^p at ps[j] over stream s's
    # faces, one excursion per face, with the streams nk to a replication.
    # Face i is |3-d Brownian bridge| on m_i = max(4, round(budget l_i))
    # steps.  Each replication draws its normals as one (3, sum of its m_i)
    # array, in replication order, and cumsums its own walk, so no value
    # depends on how the replications are cut into sub-passes of at most
    # _POINTS_PER_PASS points.  Increments centred per face make each face's
    # cumsum a bridge, whose last point is 0.  The walk has unit steps, so
    # int e_i^p = m_i^{-(1+p/2)} times the sum of the ramp integrals of
    # |bridge|.
    m = np.maximum(_MIN_FACE_POINTS, np.rint(budget * lengths)).astype(np.intp)
    first = np.zeros(counts.size + 1, dtype=np.intp)  # stream s has faces first[s]:first[s + 1]
    np.cumsum(counts, out=first[1:])
    rep_first = first[::nk]  # the same for replications
    rep_ends = np.cumsum(m)[rep_first[1:] - 1]  # points up to each replication's end
    out = np.empty((len(ps), counts.size))
    lo = 0
    while lo < rep_ends.size:
        begin = rep_ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(rep_ends, begin + _POINTS_PER_PASS, side="right")))
        faces = slice(rep_first[lo], rep_first[hi])
        mf = m[faces]
        starts = np.zeros(mf.size, dtype=np.intp)
        np.cumsum(mf[:-1], out=starts[1:])
        ends = rep_ends[lo:hi] - begin
        widths = np.diff(ends, prepend=0)
        spans = list(zip((ends - widths).tolist(), widths.tolist()))
        total = int(ends[-1])
        z = np.empty((3, total))
        for c, w in spans:
            z[:, c : c + w] = rng.standard_normal((3, w))
        mean = np.add.reduceat(z, starts, axis=1)
        mean /= mf
        z -= np.repeat(mean, mf, axis=1)
        for c, w in spans:
            walk = z[:, c : c + w]
            np.cumsum(walk, axis=1, out=walk)
        r = np.zeros(total + 1)  # every face starts and ends at 0
        np.sqrt(np.einsum("ij,ij->j", z, z), out=r[1:])
        r[starts] = 0.0
        r[total] = 0.0
        steps = lengths[faces] / mf
        streams = slice(lo * nk, hi * nk)
        stream_first = first[streams] - first[lo * nk]
        for j, p in enumerate(ps):
            per_face = np.add.reduceat(pwl.ramp_pow_integrals(r[:-1], r[1:], 1.0, p), starts)
            out[j, streams] = np.add.reduceat(steps ** (1.0 + p / 2.0) * per_face, stream_first)
        lo = hi
    return out


def _roots(powers: np.ndarray, p: float) -> np.ndarray:
    # p-th roots one entry at a time, as Python floats: numpy's array ** need
    # not round like scalar pow.
    return np.array([x ** (1.0 / p) for x in powers.tolist()])


def _law_draws(d, h, ps, stream: Stream, rows: int, budget: int) -> np.ndarray:
    # The one simulation engine, one block of ``rows`` replications: row i,
    # column j is the draw at norm index ps[j] of the law with affine widths
    # d and rises h, (sum_k d_k h_k^{p/2} X_p(k)^p)^{1/p}, or max_k h_k^{1/2}
    # X_inf(k) at p = inf, where interval k's uniform-limit draw X(k) is
    # stream i * len(d) + k.  The uniform law is d = h = [1], for which the
    # arithmetic is exact.  One generator, from ``stream``, draws in this
    # order: every stream's sticks, one uniform per face, which every norm
    # index in _FACE_LAWS maps through its face law, then (for any other p)
    # the excursions' normals, so a column does not depend on which other
    # norm indices are asked for.
    nk = len(d)
    out = np.zeros((rows, len(ps)))
    if nk == 0:  # no affine interval: every draw is 0
        return out
    rng = generator(stream)
    lengths, counts = _face_lengths(rng, rows * nk)
    first = np.zeros(counts.size, dtype=np.intp)
    np.cumsum(counts[:-1], out=first[1:])
    u = rng.random(lengths.size)
    general = [p for p in ps if p not in _FACE_LAWS]
    if general:
        powers = _excursion_pow_integrals(rng, lengths, counts, nk, budget, general)
        sampled = dict(zip(general, powers))
    for j, p in enumerate(ps):
        if math.isinf(p):
            top = np.maximum.reduceat(np.sqrt(lengths) * _face_quantile(p, u), first)
            for k, x in enumerate(top.reshape(-1, nk).T):
                out[:, j] = np.maximum(out[:, j], h[k] ** 0.5 * x)
            continue
        if p in _FACE_LAWS:
            x = np.add.reduceat(lengths ** (1.0 + p / 2.0) * _face_quantile(p, u), first)
        else:
            x = sampled[p]
        for k, x_k in enumerate(x.reshape(-1, nk).T):
            out[:, j] += d[k] * h[k] ** (p / 2.0) * x_k
        out[:, j] = _roots(out[:, j], p)
    return out


def limit_draw_general(
    iv: models.IntervalStructure, p: float, stream: Stream, grid_size: int = DEFAULT_GRID
) -> float:
    """One draw of the limit law for a concave CDF with the given affine
    intervals: ``(sum_k d_k h_k^{p/2} ||gap(W_k)||_p^p)^{1/p}``, or
    ``max_k h_k^{1/2} sup gap(W_k)`` at p = inf, over independent Wiener
    paths, one per interval, each gap norm drawn by the limit engine (from
    the exact face laws at p = 1, 2 and inf, with ``grid_size`` as its
    point budget at any other p).  The draw is the engine's block of one
    replication, drawn from ``stream``, so it is the one draw of
    ``simulate_draws`` with one replication and master seed s when
    ``stream`` is ``substream(s, 0)``.

    An empty collection (strictly concave CDF) gives exactly 0.
    """
    return float(_law_draws(iv.d, iv.h, _norm_indices((p,)), stream, 1, grid_size)[0, 0])


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


#: Replications in one block, the limit engine's unit of randomness: block b
#: is drawn by one generator from ``substream(master_seed, b)``.
_BLOCK = 256


def simulate_draws(iv: models.IntervalStructure, ps, config: SimConfig, progress=None) -> np.ndarray:
    """Draws of the limit law with affine intervals ``iv``: one row per
    replication, one column per norm index in ``ps`` (p = inf included).

    The replications are drawn in blocks of ``_BLOCK``, one after another
    in this process: row i is row ``i % _BLOCK`` of the block drawn by one
    generator from ``substream(config.master_seed, i // _BLOCK)``.  The
    optional callback ``progress(done, total)`` is called after each block.
    Every column shares the faces; p = 1, 2 and inf share one uniform per
    face, and the other finite norm indices the same sampled excursions.
    """
    ps = _norm_indices(ps)
    n = config.replications
    draws = np.zeros((n, len(ps)))
    for lo in range(0, n, _BLOCK):
        stream = substream(config.master_seed, lo // _BLOCK)
        rows = min(_BLOCK, n - lo)
        draws[lo : lo + rows] = _law_draws(iv.d, iv.h, ps, stream, rows, config.grid_size)
        if progress is not None:
            progress(lo + rows, n)
    return draws


def build_critical_table(
    config: SimConfig,
    alphas=(0.01, 0.05, 0.10),
    ps=(1.0, 2.0, math.inf),
    progress=None,
    iv: models.IntervalStructure | None = None,
) -> CriticalValueTable:
    """Simulate the limit law with affine intervals ``iv`` (the uniform law
    when None) and tabulate its upper quantiles.

    All norm indices share the same draws of the faces (p = 1, 2 and inf
    one uniform per face, the other finite ones the same sampled
    excursions), so a table costs one simulation regardless of how many
    norms it covers.  Deterministic for a given master seed; ``progress`` is
    an optional callback ``(done, total)``.  The provenance records the
    engine id, the software versions and the simulation's wall time.
    """
    iv = _UNIT if iv is None else iv
    start = time.perf_counter()
    draws = simulate_draws(iv, ps, config, progress)
    seconds = time.perf_counter() - start
    entries = {}
    for j, p in enumerate(ps):
        for alpha, est in estimate_quantiles(draws[:, j], alphas).items():
            entries[(p_key(p), alpha)] = est
    provenance = {
        "engine": ENGINE,
        "grid_size": config.grid_size,
        "grid_size_is": (
            "point budget, used only for p outside {1, 2, inf}, whose face laws are exact: "
            "a face of length l is sampled on max(4, round(grid_size * l)) points; "
            "p = 1, 2 and inf are coupled comonotonically through one uniform per face"
        ),
        "replications": config.replications,
        "master_seed": config.master_seed,
        "ps": [p_key(p) for p in ps],
        "alphas": [float(a) for a in alphas],
        "built_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "lcmtest_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "timing": {"seconds": seconds, "reps_per_s": config.replications / seconds},
    }
    return CriticalValueTable(entries, provenance)
