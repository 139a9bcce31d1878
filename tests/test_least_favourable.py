"""Least favourability of the uniform law at p = inf, checked exactly.

A concave CDF with affine rises h_k (sum at most 1) has the limit law
max_k sqrt(h_k) X_inf(k) over independent copies, so its CDF is
prod_k F(x / sqrt(h_k)), with F the uniform law's CDF of X_inf.  The paper's
theorem says that this is at least F(x) for every x.  Both sides come from
the grid-free Volterra solve ``oracle_utils.sup_gap_cdf``; the check allows
the solve's own error, its change from ``STEPS`` to ``2 * STEPS`` steps.
"""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_utils import sup_gap_cdf

STEPS = 1000
X = np.linspace(0.3, 3.0, 28)
#: Kennedy's CDF is 1.0 in double precision from 5 on, and so then is every
#: value of the solve: a factor with x / sqrt(h_k) >= CAP is exactly 1.
CAP = 5.0


def _solve(y) -> tuple[np.ndarray, np.ndarray]:
    # F at y, each distinct value below CAP solved once, and its change
    # from STEPS to 2 * STEPS steps.
    y = np.asarray(y, dtype=float)
    f = np.ones_like(y)
    change = np.zeros_like(y)
    low = y < CAP
    values, where = np.unique(y[low], return_inverse=True)
    coarse = sup_gap_cdf(values, STEPS)
    f[low] = coarse[where]
    change[low] = np.abs(sup_gap_cdf(values, 2 * STEPS) - coarse)[where]
    return f, change


@functools.cache
def _uniform_law() -> tuple[np.ndarray, np.ndarray]:
    return _solve(X)


@st.composite
def rises(draw) -> list[float]:
    # 1 to 50 intervals: positive weights scaled to a total in (0, 1], so
    # near-uniform splits (one weight far above the rest) come up too.
    k = draw(st.integers(1, 50))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k))
    total = draw(st.floats(0.01, 1.0))
    return [total * w / sum(weights) for w in weights]


@given(rises())
@settings(max_examples=30, deadline=None)
@example([0.5, 0.5])
@example([0.9, 0.1])
@example([0.999, 0.001])
@example([0.495, 0.495])
@example([0.1] * 10)
@example([0.02] * 50)
def test_uniform_law_is_least_favourable_at_inf(h):
    # The product's error is at most the sum of its factors' errors, since
    # every factor lies in [0, 1].
    f, f_change = _uniform_law()
    factors, changes = _solve(X[:, None] / np.sqrt(np.asarray(h))[None, :])
    eps = f_change + changes.sum(axis=1)
    gap = factors.prod(axis=1) - f
    assert np.all(gap >= -eps), (h, X[np.argmin(gap + eps)], gap.min(), eps.max())
