"""Concave distribution functions on the unit interval.

Three families cover every shape the limit machinery distinguishes: the
uniform law (one maximal affine interval), the power family ``u**gamma``
(strictly concave, no affine interval), and piecewise-affine CDFs (any
finite collection of affine intervals).  :class:`IntervalStructure` records
the maximal open intervals on which a concave CDF is affine and their rises
``h``; with the widths ``d``, these drive the limiting laws in
:mod:`lcmtest.limits` and the couplings in :mod:`lcmtest.coupling`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .streams import Stream, generator

_TOL = 1e-12


@dataclass(frozen=True)
class UniformCdf:
    """Uniform distribution on [0, 1]: F(u) = u."""


@dataclass(frozen=True)
class PowerCdf:
    """Power distribution F(u) = u**gamma with gamma in (0, 1].

    Strictly concave for gamma < 1; gamma = 1 is the uniform law.
    """

    gamma: float

    def __post_init__(self):
        g = float(self.gamma)
        if not (0.0 < g <= 1.0) or not math.isfinite(g):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class PiecewiseAffineCdf:
    """Concave piecewise-affine CDF given by knots from (0, 0) to (x_bar, 1).

    Knot abscissas and ordinates increase strictly, segment slopes never
    increase, and adjacent equal-slope segments are merged on construction,
    so each stored segment is a maximal affine stretch.
    """

    xs: tuple
    ys: tuple

    def __post_init__(self):
        xs = [float(v) for v in self.xs]
        ys = [float(v) for v in self.ys]
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need at least two knots")
        if not all(map(math.isfinite, xs + ys)):
            raise ValueError("knots must be finite")
        if xs[0] != 0.0 or ys[0] != 0.0:
            raise ValueError("knots must start at (0, 0)")
        if ys[-1] != 1.0:
            raise ValueError("knots must end at height 1")
        if xs[-1] > 1.0:
            raise ValueError("support must be contained in [0, 1]")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("knot abscissas must strictly increase")
        if any(b <= a for a, b in zip(ys, ys[1:])):
            raise ValueError("knot ordinates must strictly increase")
        slopes = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
        scale = max(1.0, max(abs(s) for s in slopes))
        merged_x, merged_y = [xs[0]], [ys[0]]
        for i, s in enumerate(slopes):
            if i > 0:
                if s > slopes[i - 1] + _TOL * scale:
                    raise ValueError("slopes increase: the CDF is not concave")
                if abs(s - slopes[i - 1]) <= _TOL * scale:
                    # Same affine stretch: replace the interior knot.
                    merged_x.pop()
                    merged_y.pop()
            merged_x.append(xs[i + 1])
            merged_y.append(ys[i + 1])
        object.__setattr__(self, "xs", tuple(merged_x))
        object.__setattr__(self, "ys", tuple(merged_y))

    @classmethod
    def from_knots(cls, knots) -> "PiecewiseAffineCdf":
        pts = [(float(x), float(y)) for x, y in knots]
        return cls(tuple(x for x, _ in pts), tuple(y for _, y in pts))


ConcaveCdf = Union[UniformCdf, PowerCdf, PiecewiseAffineCdf]


def evaluate(spec: ConcaveCdf, x) -> np.ndarray:
    """F(x) for scalar or array ``x >= 0``; equals 1 beyond the support."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0.0):
        raise ValueError("evaluation points must be nonnegative")
    capped = np.minimum(x, 1.0)
    if isinstance(spec, UniformCdf):
        out = capped
    elif isinstance(spec, PowerCdf):
        out = np.power(capped, spec.gamma)
    elif isinstance(spec, PiecewiseAffineCdf):
        out = np.interp(capped, spec.xs, spec.ys)
    else:
        raise TypeError(f"not a concave CDF spec: {spec!r}")
    return out if out.ndim else out[()]


def quantile(spec: ConcaveCdf, u) -> np.ndarray:
    """Quantile function F^{-1}(u) for u in [0, 1]."""
    u = np.asarray(u, dtype=np.float64)
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError("quantile levels must lie in [0, 1]")
    if isinstance(spec, UniformCdf):
        out = u.copy()
    elif isinstance(spec, PowerCdf):
        out = np.power(u, 1.0 / spec.gamma)
    elif isinstance(spec, PiecewiseAffineCdf):
        out = np.interp(u, spec.ys, spec.xs)
    else:
        raise TypeError(f"not a concave CDF spec: {spec!r}")
    return out if out.ndim else out[()]


@dataclass(frozen=True, eq=False)
class IntervalStructure:
    """Maximal open affine intervals of a concave CDF.

    ``(a[k], b[k])`` are the intervals and ``h[k] = F(b[k]) - F(a[k])``
    their rises; the widths ``d[k] = b[k] - a[k]`` follow from the ends.
    The collection may be empty (strictly concave F).
    """

    a: np.ndarray
    b: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.a, dtype=np.float64)
        b = np.ascontiguousarray(self.b, dtype=np.float64)
        h = np.ascontiguousarray(self.h, dtype=np.float64)
        if not (a.shape == b.shape == h.shape) or a.ndim != 1:
            raise ValueError("interval arrays must share one shape")
        if a.size:
            if np.any(b <= a) or np.any(h <= 0.0):
                raise ValueError("intervals need positive width and rise")
            if np.any(a[1:] < b[:-1] - _TOL):
                raise ValueError("intervals must be sorted and disjoint")
            if a[0] < -_TOL or b[-1] > 1.0 + _TOL:
                raise ValueError("intervals must lie inside [0, 1]")
            if h.sum() > 1.0 + _TOL:
                raise ValueError("total rise cannot exceed 1")
        for name, arr in (("a", a), ("b", b), ("h", h)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.a.size)

    @property
    def d(self) -> np.ndarray:
        return self.b - self.a

    @property
    def is_empty(self) -> bool:
        return self.a.size == 0

    def as_tuples(self) -> list[tuple[float, float, float, float]]:
        return [tuple(map(float, row)) for row in zip(self.a, self.b, self.d, self.h)]


_EMPTY = np.zeros(0)


def extract_intervals(spec: ConcaveCdf) -> IntervalStructure:
    """Affine-interval structure of a concave CDF.

    The uniform law yields the single unit interval, a strictly concave
    power law yields an empty collection, and a piecewise-affine CDF yields
    one interval per stored segment.
    """
    if isinstance(spec, UniformCdf) or (isinstance(spec, PowerCdf) and spec.gamma == 1.0):
        one = np.ones(1)
        return IntervalStructure(np.zeros(1), one, one)
    if isinstance(spec, PowerCdf):
        return IntervalStructure(_EMPTY, _EMPTY, _EMPTY)
    if isinstance(spec, PiecewiseAffineCdf):
        xs = np.asarray(spec.xs)
        return IntervalStructure(xs[:-1], xs[1:], np.diff(spec.ys))
    raise TypeError(f"not a concave CDF spec: {spec!r}")


def inverse_cdf_sample(spec: ConcaveCdf, count: int, stream: Stream) -> np.ndarray:
    """I.i.d. draws from the spec via the inverse-CDF transform.

    Deterministic given the stream token.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    u = generator(stream).random(count)
    return np.asarray(quantile(spec, u))


def spec_to_dict(spec: ConcaveCdf) -> dict:
    """Tagged JSON-ready record for a concave CDF spec."""
    if isinstance(spec, UniformCdf):
        return {"type": "uniform"}
    if isinstance(spec, PowerCdf):
        return {"type": "power", "gamma": spec.gamma}
    if isinstance(spec, PiecewiseAffineCdf):
        return {"type": "piecewise", "knots": [[x, y] for x, y in zip(spec.xs, spec.ys)]}
    raise TypeError(f"not a concave CDF spec: {spec!r}")


def spec_from_dict(data: dict) -> ConcaveCdf:
    """Inverse of :func:`spec_to_dict`; validates the spec it builds."""
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("spec record must be an object with a 'type' field")
    kind = data["type"]
    if kind == "uniform":
        return UniformCdf()
    if kind == "power":
        if "gamma" not in data:
            raise ValueError("power spec needs a 'gamma' field")
        return PowerCdf(data["gamma"])
    if kind == "piecewise":
        if "knots" not in data:
            raise ValueError("piecewise spec needs a 'knots' field")
        return PiecewiseAffineCdf.from_knots(data["knots"])
    raise ValueError(f"unknown spec type {kind!r}")
