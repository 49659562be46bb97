"""Pointwise reference implementations the vectorised package code is tested against.

Each function evaluates one point by the definition, with no shared sort
orders or lattice accumulation, so a test can compare it with the grid and
lattice kernels in ``condcopula.conditional``.
"""

import numpy as np

from condcopula.conditional import PseudoSample, Sample, WeightVector


def cond_cdf(y: float, j: int, w: WeightVector, s: Sample) -> float:
    """Weighted conditional marginal CDF at y for margin j."""
    weights = w.require_valid("in cond_cdf")
    return float(np.sum(weights * (s.margin(j) <= y)))


def cond_quantile(u: float, j: int, w: WeightVector, s: Sample) -> float:
    """Generalized inverse inf{y : F(y) >= u} of the weighted marginal CDF."""
    weights = w.require_valid("in cond_quantile")
    if not (0.0 < u <= 1.0):
        raise ValueError("quantile level must be in (0, 1]")
    values = s.margin(j)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    # rounding slack so u == attained mass exactly still selects that atom
    idx = int(np.searchsorted(cum, u - 1e-12, side="left"))
    idx = min(idx, values.size - 1)
    return float(values[order][idx])


def rank_1based(values: np.ndarray) -> np.ndarray:
    """Stable 1-based ranks; ties broken by original order."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[order] = np.arange(1, values.size + 1)
    return ranks


def _level_to_rank(u: float, n: int) -> int:
    """Rank threshold so eps_i <= Finv(u) iff rank_i <= threshold."""
    if u <= 0.0:
        return 0
    return min(int(np.ceil(u * n - 1e-12)), n)


def empirical_copula(p: PseudoSample, u: float, v: float) -> float:
    """Rank-based empirical copula of the pseudo-sample at (u, v).

    Composes the joint ECDF of the pseudo-pairs with the generalized inverses
    of their marginal ECDFs; for tie-free pseudo-samples this reduces to
    counting pairs whose marginal ranks are both below the level thresholds.
    """
    n = p.n
    r1 = rank_1based(p.eps1)
    r2 = rank_1based(p.eps2)
    t1 = _level_to_rank(u, n)
    t2 = _level_to_rank(v, n)
    return float(np.mean((r1 <= t1) & (r2 <= t2)))


def weighted_copula(p: PseudoSample, w: np.ndarray, u: float, v: float) -> float:
    """Weighted joint ECDF of the pseudo-pairs at the weighted quantiles.

    The pairs enter through their stable ranks, so ties are broken by sample
    order, as in the rank-based estimator.
    """
    r1 = rank_1based(p.eps1)
    r2 = rank_1based(p.eps2)
    ranks = Sample(y1=r1, y2=r2, x=np.zeros(p.n))
    weights = WeightVector(w=w, degenerate=False)
    q1 = cond_quantile(u, 1, weights, ranks)
    q2 = cond_quantile(v, 2, weights, ranks)
    return float(np.sum(w * ((r1 <= q1) & (r2 <= q2))))
