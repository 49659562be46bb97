"""Pointwise reference implementations the vectorised package code is tested against.

Each function evaluates one point by the definition, with no shared sort
orders or lattice accumulation, so a test can compare it with the grid and
lattice kernels in ``condcopula.conditional``. ``dense_pseudo_observations``
and ``dense_weighted_copula_surfaces`` are the n x n, one-point-at-a-time
forms of the blocked window-local stages. The surfaces must match theirs bit
for bit: both take each weight's total as a sequential sum (``nw_weights``).
The pseudo-observations must match the stable ranks of theirs, whose rows
``dense_weight_matrix`` normalises by pairwise sums.
``read_grid_function_csv`` reads back what
``condcopula.grid.write_grid_function_csv`` writes. ``constant`` and
``true_surface`` build known surfaces for the tests. ``quad_frank_tau``,
``gumbel_du`` and ``textbook_frank_v_given_u`` are the quadrature, derivative
and textbook forms that the closed-form maps of ``condcopula.simulate``
replace. ``scalar_v_given_u`` evaluates the conditional inverse of one
observation in Python floats, and ``loop_sample_conditional`` draws a
uniform-covariate sample one observation and one generator at a time; the
array sampler must match both. ``obs_rng`` is numpy's ``Philox`` generator of
one observation's substream, which the bulk substream words must match.
``decimal_clayton_v_given_u``, ``decimal_clayton_cdf``,
``decimal_fgm_v_given_u`` and ``decimal_frank_tau`` evaluate the maps by
their definitions in 40-digit ``decimal`` arithmetic, as accuracy references.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy import integrate, special

from condcopula.conditional import (
    KernelSpec,
    PseudoSample,
    Sample,
    _sort_index,
    kernel_values,
    nw_weights,
)
from condcopula.grid import Grid2D
from condcopula.grid import GridFunction, make_grid
from condcopula.simulate import (
    ConditionalModel,
    SyntheticKLModel,
    TruthRecord,
    tau_to_theta,
)


def obs_rng(seed: int, index: int) -> np.random.Generator:
    """numpy's ``Philox`` generator of observation ``index``'s substream under ``seed``."""
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + index))


def constant(grid: Grid2D, c: float) -> GridFunction:
    return GridFunction(grid=grid, values=np.full((grid.G, grid.G), float(c)))


def true_surface(m: SyntheticKLModel, x: float) -> GridFunction:
    """mean + sum_k alpha_k(x) phi_k of a synthetic KL model."""
    vals = m.mean.values.copy()
    for k, a in enumerate(m.alpha_at(x), start=1):
        if a != 0.0:
            vals = vals + a * m.phi(k).values
    return GridFunction(grid=m.grid, values=vals)


def cond_cdf(y: float, j: int, w: np.ndarray, s: Sample) -> float:
    """Weighted conditional marginal CDF at y for margin j."""
    return float(np.sum(w * (s.margin(j) <= y)))


def cond_quantile(u: float, j: int, w: np.ndarray, s: Sample) -> float:
    """Generalized inverse inf{y : F(y) >= u} of the weighted marginal CDF."""
    if not (0.0 < u <= 1.0):
        raise ValueError("quantile level must be in (0, 1]")
    values = s.margin(j)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(w[order])
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
    q1 = cond_quantile(u, 1, w, ranks)
    q2 = cond_quantile(v, 2, w, ranks)
    return float(np.sum(w * ((r1 <= q1) & (r2 <= q2))))


def read_grid_function_csv(path) -> GridFunction:
    """Inverse of ``condcopula.grid.write_grid_function_csv``."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "u,v,value":
        raise ValueError("grid function CSV must start with header 'u,v,value'")
    rows = [ln for ln in lines[1:] if ln.strip()]
    m = len(rows)
    G = round(m**0.5)
    if G * G != m:
        raise ValueError(f"grid function CSV has {m} rows, not a perfect square")
    grid = make_grid(G)
    values = np.empty((G, G))
    for idx, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {idx + 2}: expected 3 fields, got {len(parts)}")
        values[idx // G, idx % G] = float(parts[2])
    return GridFunction(grid=grid, values=values)


def dense_weight_matrix(xs: np.ndarray, k: KernelSpec) -> np.ndarray:
    """Row i holds the NW weights w_l(X_i), each row divided by its pairwise sum.

    Every row holds its own weight K(0) > 0, so none degenerates.
    """
    kv = kernel_values(k.family, (xs[:, None] - xs[None, :]) / k.bandwidth)
    return kv / kv.sum(axis=1)[:, None]


def dense_pseudo_observations(s: Sample, k1: KernelSpec, k2: KernelSpec):
    """Pseudo-observations from the full n x n weight matrix of each margin."""
    if s.n < 2:
        raise ValueError("pseudo-observations need at least 2 records")
    W1 = dense_weight_matrix(s.x, k1)
    W2 = dense_weight_matrix(s.x, k2)
    ind1 = s.y1[None, :] <= s.y1[:, None]
    ind2 = s.y2[None, :] <= s.y2[:, None]
    eps1 = np.einsum("il,il->i", W1, ind1.astype(float))
    eps2 = np.einsum("il,il->i", W2, ind2.astype(float))
    return PseudoSample(eps1=np.clip(eps1, 0.0, 1.0), eps2=np.clip(eps2, 0.0, 1.0))


def dense_weighted_copula_surfaces(
    xs_eval: np.ndarray,
    s: Sample,
    k: KernelSpec,
    grid: Grid2D,
    pseudo: PseudoSample,
) -> np.ndarray:
    """Trajectory surfaces with NW weights over all n observations per point.

    Each point sorts both margins by the weights of all n observations, takes
    the first sorted position whose cumulative weight reaches each level
    (less 1e-12 of rounding slack), and accumulates its lattice in sample
    order.
    """
    xs_eval = np.asarray(xs_eval, dtype=float)
    n, levels = s.n, grid.nodes
    sort_index = (_sort_index(pseudo.eps1), _sort_index(pseudo.eps2))
    out = np.empty((xs_eval.size, grid.G, grid.G))
    for i, x in enumerate(xs_eval):
        w = nw_weights(x, s.x, k)
        idx = []
        for order, position in sort_index:
            cum = np.cumsum(w[order])
            last = np.minimum(np.searchsorted(cum, levels - 1e-12, side="left"), n - 1)
            idx.append(np.searchsorted(last, position, side="left"))
        out[i] = np.clip(add_at_lattice_cdf(*idx, levels.size, w), 0.0, 1.0)
    return out


def add_at_lattice_cdf(a_idx, b_idx, L: int, mass=1.0) -> np.ndarray:
    """Joint CDF on an L x L lattice, accumulated with ``np.add.at``."""
    cells = np.zeros((L + 1, L + 1))
    np.add.at(cells, (a_idx, b_idx), mass)
    return cells[:L, :L].cumsum(axis=0).cumsum(axis=1)


def debye1(theta: float) -> float:
    """D_1(theta) = (1/theta) int_0^theta t/(e^t - 1) dt by adaptive quadrature."""
    # t/(e^t - 1) written as t e^{-t} / (1 - e^{-t}) to survive large t
    val, _ = integrate.quad(
        lambda t: -t * math.exp(-t) / math.expm1(-t) if t != 0.0 else 1.0,
        0.0,
        theta,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val / theta


def quad_frank_tau(theta: float) -> float:
    """Kendall tau of the Frank copula, 1 - 4 (1 - D_1(theta)) / theta."""
    return 1.0 - 4.0 / theta * (1.0 - debye1(theta))


def gumbel_du(t: float, u: float, v) -> np.ndarray:
    """Partial derivative of the Gumbel CDF in its first argument."""
    v = np.asarray(v, dtype=float)
    lu = -math.log(u)
    lv = -np.log(np.clip(v, 1e-300, 1.0))
    s = lu**t + lv**t
    return np.exp(-(s ** (1.0 / t))) * (lu ** (t - 1.0) / u) * s ** (1.0 / t - 1.0)


def textbook_frank_v_given_u(t: float, u: float, p: float) -> float:
    """Frank conditional inverse -log1p(-p (1 - e^{-t}) / (p + e^{-tu}(1 - p))) / t."""
    etu = math.exp(-t * u)
    return -math.log1p(-p * math.expm1(-t) / (p * (etu - 1.0) - etu)) / t


def scalar_v_given_u(family: str, t: float, u: float, p: float) -> float:
    """Conditional inverse of dC/du at level p for one observation, in Python floats."""
    t, u, p = float(t), float(u), float(p)
    if family == "independence" or (family == "gumbel" and t == 1.0):
        return p
    if family == "clayton":
        log_s = math.log(math.expm1(-t / (1.0 + t) * math.log(p))) - t * math.log(u)
        return math.exp(-float(np.logaddexp(log_s, 0.0)) / t)
    if family == "frank":
        a = -t * u + math.log1p(-p)
        lp = math.log(p)
        return float(-(np.logaddexp(a, lp - t) - np.logaddexp(lp, a)) / t)
    if family == "fgm":
        b = t * (1.0 - 2.0 * u)
        return 2.0 * p / ((1.0 + b) + math.sqrt((1.0 + b) * (1.0 + b) - 4.0 * b * p))
    lu = -math.log(u)
    c = lu + (t - 1.0) * math.log(lu) - math.log(p)
    w = (t - 1.0) * float(special.wrightomega(c / (t - 1.0) - math.log(t - 1.0)))
    lv = w * max(-math.expm1(t * math.log(lu / w)), 0.0) ** (1.0 / t)
    return math.exp(-lv)


def loop_sample_conditional(m: ConditionalModel, n: int, seed: int):
    """(x, truth) of a uniform-covariate sample, one substream generator per observation."""
    xs, e1, e2, th = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    for i in range(n):
        rng = obs_rng(seed, i)
        x = float(rng.random())
        theta = tau_to_theta(m.family, m.tau_at(x))
        u = min(max(float(rng.random()), 1e-12), 1.0 - 1e-12)
        p = min(max(float(rng.random()), 1e-12), 1.0 - 1e-12)
        v = scalar_v_given_u(m.family, theta, u, p)
        xs[i], e1[i], th[i] = x, u, theta
        e2[i] = min(max(v, 1e-12), 1.0 - 1e-12)
    return xs, TruthRecord(eps1=e1, eps2=e2, theta=th)


def decimal_clayton_v_given_u(t: float, u: float, p: float) -> float:
    """Clayton inverse ((p^(-t/(1+t)) - 1) u^(-t) + 1)^(-1/t) at 40 digits."""
    with localcontext(prec=40):
        t, u, p = Decimal(t), Decimal(u), Decimal(p)
        s = ((-t / (1 + t) * p.ln()).exp() - 1) * (-t * u.ln()).exp()
        return float(((1 + s).ln() / -t).exp())


def decimal_clayton_cdf(t: float, u: float, v: float) -> float:
    """Clayton CDF (u^(-t) + v^(-t) - 1)^(-1/t) at 40 digits."""
    with localcontext(prec=40):
        t, u, v = Decimal(t), Decimal(u), Decimal(v)
        total = (-t * u.ln()).exp() + (-t * v.ln()).exp() - 1
        return float((total.ln() / -t).exp())


def decimal_fgm_v_given_u(t: float, u: float, p: float) -> float:
    """Root in [0, 1] of b v^2 - (1 + b) v + p = 0, b = t (1 - 2u), at 40 digits.

    The root is taken rationalised, 2p / ((1 + b) + sqrt((1 + b)^2 - 4bp)),
    since the textbook form would cancel most of the 40 digits at tiny b p.
    """
    with localcontext(prec=40):
        t, u, p = Decimal(t), Decimal(u), Decimal(p)
        b = t * (1 - 2 * u)
        return float(2 * p / ((1 + b) + ((1 + b) ** 2 - 4 * b * p).sqrt()))


def bernoulli(n: int) -> list:
    """B_0..B_n as exact fractions (Akiyama-Tanigawa), with B_1 = +1/2."""
    a, out = [], []
    for m in range(n + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


_BERNOULLI = bernoulli(80)


def decimal_frank_tau(theta: float) -> float:
    """Frank tau sum_k 4 B_2k theta^(2k-1)/((2k+1) (2k)!) at 40 digits.

    The series converges for |theta| < 2 pi; forty terms leave out less
    than 1e-40 for |theta| <= 2.
    """
    with localcontext(prec=40):
        t, total = Decimal(theta), Decimal(0)
        for k in range(1, 41):
            c = 4 * _BERNOULLI[2 * k] / ((2 * k + 1) * math.factorial(2 * k))
            total += Decimal(c.numerator) / Decimal(c.denominator) * t ** (2 * k - 1)
        return float(total)
