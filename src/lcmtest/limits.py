"""Monte Carlo engine for the limiting laws of the concavity statistics.

Under a concave CDF the scaled majorant distance converges to the L^p norm
of a majorant gap built from Brownian motion.  This module draws that limit
with no grid hull (the limit engine) and estimates the quantiles used as
critical values.

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
sum_i l_i^2 Y_i and X_inf = max_i sqrt(l_i) K_i, each exact in law.  Each
block sorts its face uniforms once; every table is inverted on the sorted
uniforms, where np.interp's search runs as a merge, and the values are
scattered back to their faces.  The three columns are coupled
comonotonically through the shared u_i, and A <= sqrt(Y) <= K in the
stochastic order, so X_1 <= X_2 <= X_inf draw by draw; the joint law is
not that of one Brownian path.  Any other finite p samples
face i's excursion as the norm of a 3-d Brownian bridge on max(4,
round(budget * l_i)) points, with the point budget
``SimConfig.grid_size``, and integrates those points exactly; those
columns share the faces but not the excursions' values with the exact
ones.  Replications are drawn in blocks of ``_BLOCK``, the one unit of
randomness: one generator draws every stick, face uniform and normal of a
block, and one run of array operations serves every face of the block (or
of a sub-pass of at most ``_POINTS_PER_PASS`` sampled points).
Sampled paths on grids, where one shared path is the point, live in
:mod:`lcmtest.coupling` with the two coupling verifiers.

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

from . import __version__, models, pwl
from .streams import Stream, generator, substream

DEFAULT_SEED = 171717
#: Identifies the limit engine in table provenance and reports; a table made
#: by another engine is stale.
ENGINE = "stick-breaking-excursion/3"
DEFAULT_GRID = 1024
DEFAULT_REPLICATIONS = 200_000

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


# -- Limit draws ----------------------------------------------------------------


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
#: outgrow the cache (2 MB of normals a sub-pass).
_POINTS_PER_PASS = 2**16


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
    # Imported here: only the first build of the area table needs it, and it
    # adds ~50 ms to every start.
    from scipy import special

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
    # orders at both ends, so the moments are good to ~1e-12, but the CDF
    # between the ends is off by up to ~4e-7, the rule's error there.
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


def _face_quantiles(ps, u) -> dict[float, np.ndarray]:
    # The face functional of each norm index of ps, all in _FACE_LAWS, at the
    # uniform draws u, by inverting its tabulated CDF.  u is ordered once for all of
    # them, by a stable radix sort of its leading 16 bits: np.interp starts each search
    # at the previous value's index, so on nearly sorted input it runs almost as a merge.
    # Each value is still the one np.interp(u, cdf, xs) gives, since it depends only on
    # the table cell holding it, and equal uniforms get equal values in any order.
    order = np.argsort((u * 65536).astype(np.uint16), kind="stable")
    sorted_u = u[order]
    out = {}
    for p in ps:
        cdf, xs = _FACE_LAWS[p]()
        out[p] = np.empty_like(sorted_u)
        out[p][order] = np.interp(sorted_u, cdf, xs)
    return out


def _face_lengths(rng, streams: int) -> tuple[np.ndarray, np.ndarray]:
    # The stick lengths of ``streams`` streams, stream after stream, and the
    # offsets ``first``: stream s has faces first[s]:first[s + 1].  Uniform
    # stick-breaking of [0, 1] until the stick left is below _STICK_TAIL.
    # Each round draws _STICKS uniforms a stream, in stream order, for the
    # streams still above it (the first for all); finished rows get zero
    # columns, which leave their cumprod unchanged.
    u = rng.random((streams, _STICKS))
    rest = np.cumprod(1.0 - u, axis=1)
    while (unfinished := np.flatnonzero(rest[:, -1] >= _STICK_TAIL)).size:
        more = np.zeros((streams, _STICKS))
        more[unfinished] = rng.random((unfinished.size, _STICKS))
        u = np.hstack([u, more])
        rest = np.cumprod(1.0 - u, axis=1)
    counts = np.argmax(rest < _STICK_TAIL, axis=1) + 1
    u = u[:, : counts.max()]  # the columns past the longest stream are unused
    u[:, 1:] *= rest[:, : u.shape[1] - 1]
    first = np.zeros(streams + 1, dtype=np.intp)
    np.cumsum(counts, out=first[1:])
    return u[np.arange(u.shape[1]) < counts[:, None]], first


def _excursion_pow_integrals(rng, lengths, rep_first, budget: int, ps) -> np.ndarray:
    # Row j, column i: face i's term l_i^{1+p/2} int e_i^p at ps[j], one
    # excursion per face; replication r has faces rep_first[r]:rep_first[r + 1].
    # Face i is |3-d Brownian bridge| on m_i = max(4, round(budget l_i))
    # steps.  Each replication draws its normals as one (3, sum of its m_i)
    # array, in replication order, and cumsums its own walk, so no value
    # depends on how the replications are cut into sub-passes of at most
    # _POINTS_PER_PASS points.  Increments centred per face make each face's
    # cumsum a bridge, whose last point is 0.  The walk has unit steps, so
    # int e_i^p = m_i^{-(1+p/2)} times the sum of the ramp integrals of
    # |bridge|.
    m = np.maximum(_MIN_FACE_POINTS, np.rint(budget * lengths)).astype(np.intp)
    counts = np.add.reduceat(m, rep_first[:-1])  # points of each replication
    out = np.empty((len(ps), m.size))
    lo = 0
    while lo < counts.size:
        fits = int(np.searchsorted(np.cumsum(counts[lo:]), _POINTS_PER_PASS, side="right"))
        hi = lo + max(1, fits)
        faces = slice(rep_first[lo], rep_first[hi])
        mf = m[faces]
        starts = np.zeros(mf.size, dtype=np.intp)
        np.cumsum(mf[:-1], out=starts[1:])
        widths = counts[lo:hi].tolist()
        z = np.concatenate([rng.standard_normal((3, w)) for w in widths], axis=1)
        mean = np.add.reduceat(z, starts, axis=1)
        mean /= mf
        z -= np.repeat(mean, mf, axis=1)
        for walk in np.split(z, np.cumsum(widths[:-1]), axis=1):
            np.cumsum(walk, axis=1, out=walk)
        r = np.zeros(z.shape[1] + 1)  # every face starts and ends at 0
        np.sqrt(np.einsum("ij,ij->j", z, z), out=r[1:])
        r[starts] = 0.0
        r[-1] = 0.0
        steps = lengths[faces] / mf
        for j, p in enumerate(ps):
            per_face = np.add.reduceat(pwl.ramp_pow_integrals(r[:-1], r[1:], 1.0, p), starts)
            out[j, faces] = steps ** (1.0 + p / 2.0) * per_face
        lo = hi
    return out


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
    # norm indices are asked for.  Either way each face gives one term,
    # l_i^{1+p/2} Z_p,i or sqrt(l_i) K_i, and a stream's X_p^p or X_inf is
    # the sum or the max of its faces' terms.
    nk = len(d)
    out = np.zeros((rows, len(ps)))
    if nk == 0:  # no affine interval: every draw is 0
        return out
    rng = generator(stream)
    lengths, first = _face_lengths(rng, rows * nk)
    u = rng.random(lengths.size)
    terms = _face_quantiles([p for p in ps if p in _FACE_LAWS], u)
    for p, values in terms.items():
        values *= np.sqrt(lengths) if math.isinf(p) else lengths ** (1.0 + p / 2.0)
    general = [p for p in ps if p not in _FACE_LAWS]
    if general:
        terms.update(zip(general, _excursion_pow_integrals(rng, lengths, first[::nk], budget, general)))
    for j, p in enumerate(ps):
        op = np.maximum if math.isinf(p) else np.add
        x = op.reduceat(terms[p], first[:-1]).reshape(-1, nk)
        for k in range(nk):
            w = h[k] ** 0.5 if math.isinf(p) else d[k] * h[k] ** (p / 2.0)
            op(out[:, j], w * x[:, k], out=out[:, j])
        if not math.isinf(p):
            out[:, j] = pwl._roots(out[:, j], p)
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
    return float(_law_draws(iv.d, iv.h, (pwl.norm_index(p),), stream, 1, grid_size)[0, 0])


# -- Quantiles and critical-value tables ----------------------------------------


@dataclass(frozen=True)
class QuantileEstimate:
    """Order-statistic quantile with a density-free standard error.

    The standard error is half the spread between the order statistics one
    binomial standard deviation of ranks below and above the quantile rank.
    """

    quantile: float
    se: float


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
        out[a] = QuantileEstimate(float(s[rank - 1]), 0.5 * float(s[hi - 1] - s[lo - 1]))
    return out


def p_key(p: float) -> str:
    """Canonical string for a norm index ('inf', '2', '2.5', ...)."""
    p = float(p)
    if math.isinf(p):
        return "inf"
    if p == int(p):
        return str(int(p))
    return repr(p)


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

    def save(self, path) -> str:
        """Write the table to ``path`` as indented JSON; returns the text."""
        text = json.dumps(self.to_dict(), indent=2) + "\n"
        Path(path).write_text(text)
        return text

    @classmethod
    def load(cls, path) -> "CriticalValueTable":
        return cls.from_dict(json.loads(Path(path).read_text()))


def software_versions() -> dict:
    """The package, numpy and scipy versions, for a report's provenance."""
    return {
        "lcmtest_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
    }


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
    ps = tuple(pwl.norm_index(p) for p in ps)
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
    engine id, the software versions and the wall time: ``timing`` holds the
    whole build's ``seconds`` and ``reps_per_s``, and its two phases,
    ``draws_seconds`` (the simulation) and ``quantiles_seconds``.
    """
    iv = _UNIT if iv is None else iv
    start = time.perf_counter()
    draws = simulate_draws(iv, ps, config, progress)
    drawn = time.perf_counter()
    entries = {}
    for j, p in enumerate(ps):
        for alpha, est in estimate_quantiles(draws[:, j], alphas).items():
            entries[(p_key(p), alpha)] = est
    done = time.perf_counter()
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
        **software_versions(),
        "timing": {
            "seconds": done - start,
            "reps_per_s": config.replications / (done - start),
            "draws_seconds": drawn - start,
            "quantiles_seconds": done - drawn,
        },
    }
    return CriticalValueTable(entries, provenance)
