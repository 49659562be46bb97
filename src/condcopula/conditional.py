"""Kernel-weighted conditional distribution machinery.

Nadaraya-Watson weights, conditional probability transforms of the raw
sample (pseudo-observations), and one copula-lattice kernel: unweighted it is
the empirical partial copula, kernel-weighted it is the transformed plug-in
conditional copula estimator that serves both as baseline and as trajectory
source for the FPCA stage.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightsError
from .grid import Grid2D, GridFunction

__all__ = [
    "Sample",
    "KernelSpec",
    "PseudoSample",
    "nw_weights",
    "pseudo_observations",
    "empirical_copula_grid",
    "weighted_copula_surfaces",
    "rule_of_thumb_bandwidth",
    "read_sample_csv",
    "write_sample_csv",
]

# half-width of each kernel's support in bandwidth units
_KERNEL_REACH = {"epanechnikov": 1.0, "gaussian": np.inf, "uniform": 1.0}
_KERNEL_FAMILIES = tuple(_KERNEL_REACH)
# rows of the leave-one-out CV weights, and of the dense pseudo-observation
# rows, held at once
_ROW_BLOCK = 256
# evaluation points per window-local block: the pseudo-observation rows, and
# each vectorised lattice pass of ``weighted_copula_surfaces``
_EVAL_BLOCK = 32


@dataclass(frozen=True)
class Sample:
    """Observed triples (y1, y2, x), one record per index."""

    y1: np.ndarray
    y2: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y1 = np.asarray(self.y1, dtype=float)
        y2 = np.asarray(self.y2, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if not (y1.shape == y2.shape == x.shape) or y1.ndim != 1:
            raise ValueError("y1, y2, x must be 1-d arrays of equal length")
        for name, arr in (("y1", y1), ("y2", y2), ("x", x)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite value in {name}")
        for arr in (y1, y2, x):
            arr.setflags(write=False)
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "y2", y2)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y1.size

    def margin(self, j: int) -> np.ndarray:
        if j == 1:
            return self.y1
        if j == 2:
            return self.y2
        raise ValueError(f"margin index must be 1 or 2, got {j}")

    def warn_on_ties(self) -> None:
        """Flag ties within a margin: the estimate can then depend on row order.

        Tied responses give tied or nearly tied pseudo-observations, whose
        stable ranks follow sample order; with integer margins at n=1000,
        permuting the rows moved the estimate by up to 4.8e-3 (ROADMAP
        item 9).
        """
        for j in (1, 2):
            vals = self.margin(j)
            if np.unique(vals).size < vals.size:
                warnings.warn(
                    f"ties in margin {j}; the estimate can depend on the order "
                    "of the rows",
                    stacklevel=2,
                )


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth (in covariate units)."""

    family: str = "epanechnikov"
    bandwidth: float = 1.0

    def __post_init__(self):
        fam = self.family.lower()
        if fam not in _KERNEL_FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; "
                f"choose one of {_KERNEL_FAMILIES}"
            )
        object.__setattr__(self, "family", fam)
        if not (self.bandwidth > 0):
            raise ValueError("bandwidth must be positive")


def kernel_values(family: str, z: np.ndarray) -> np.ndarray:
    """Evaluate the (unnormalized-scale-free) kernel at standardized z."""
    z = np.asarray(z, dtype=float)
    if family == "epanechnikov":
        return np.where(np.abs(z) <= 1.0, 0.75 * (1.0 - z * z), 0.0)
    if family == "gaussian":
        return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    if family == "uniform":
        return np.where(np.abs(z) <= 1.0, 0.5, 0.0)
    raise ValueError(f"unknown kernel family {family!r}")


def _degenerate_at(x: float) -> DegenerateWeightsError:
    return DegenerateWeightsError(
        f"degenerate weights (all kernel values are zero) at x={x:g}; "
        "enlarge the bandwidth"
    )


def nw_weights(x: float, xs: np.ndarray, k: KernelSpec) -> np.ndarray:
    """Nadaraya-Watson weights w_i = K((x - X_i)/h) / sum_j K((x - X_j)/h).

    Raises ``DegenerateWeightsError`` when every kernel value at x is zero.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size < 1:
        raise ValueError("need at least one covariate value")
    kv = kernel_values(k.family, (x - xs) / k.bandwidth)
    total = kv.sum()
    if total <= 0.0:
        raise _degenerate_at(x)
    return kv / total


def _kernel_blocks(x_eval, xs, k: KernelSpec, size: int, leave_one_out=False):
    """Kernel values at ``x_eval`` over the sample ``xs``, block by block.

    Yields ``(points, union, kv)`` for each block of up to ``size`` evaluation
    points in stable x order. ``union`` holds, in sample order, every member
    of the points' kernel windows: the observations with a nonzero kernel
    value there. The support is padded by more than the rounding of
    (x - X_i) / h, and the Gaussian window is the whole sample. ``kv`` holds
    the kernel values over ``union``; ``leave_one_out`` (with ``x_eval`` the
    sample itself) zeroes each point's own value.
    """
    x_order = np.argsort(xs, kind="stable")
    x_sorted = xs[x_order]
    scale = max(np.abs(x_sorted).max(), np.abs(x_eval).max(initial=0.0)) + k.bandwidth
    reach = k.bandwidth * _KERNEL_REACH[k.family] * (1.0 + 1e-9) + 8 * np.spacing(scale)
    lo = np.searchsorted(x_sorted, x_eval - reach, side="left")
    hi = np.searchsorted(x_sorted, x_eval + reach, side="right")
    eval_order = np.argsort(x_eval, kind="stable")
    for start in range(0, x_eval.size, size):
        points = eval_order[start : start + size]
        union = np.sort(x_order[lo[points[0]] : hi[points[-1]]])
        kv = kernel_values(k.family, (x_eval[points, None] - xs[None, union]) / k.bandwidth)
        if leave_one_out:
            kv[np.arange(points.size), np.searchsorted(union, points)] = 0.0
        yield points, union, kv


def _weight_blocks(x_eval, xs, k: KernelSpec, size: int, leave_one_out=False):
    """NW weight rows at ``x_eval`` over the sample ``xs``, block by block.

    Yields ``(points, union, W)`` for each block of ``_kernel_blocks``, ``W``
    the normalised weights over ``union``. Each row total is summed over a
    zero-filled row of length n, as the dense row is, so every weight is the
    dense row's float. A block that holds a point whose weights all vanish is
    skipped; after the last block the first such point in input order is
    named in a ``DegenerateWeightsError``.
    """
    n = xs.size
    degenerate = []
    for points, union, kv in _kernel_blocks(x_eval, xs, k, size, leave_one_out):
        full = kv
        if union.size < n:
            full = np.zeros((points.size, n))
            full[:, union] = kv
        totals = full.sum(axis=1)
        if np.any(totals <= 0.0):
            degenerate.append(points[totals <= 0.0].min())
            continue
        yield points, union, kv / totals[:, None]
    if degenerate:
        raise _degenerate_at(x_eval[min(degenerate)])


@dataclass(frozen=True)
class PseudoSample:
    """Conditional probability transforms (eps1_i, eps2_i) of the sample."""

    eps1: np.ndarray
    eps2: np.ndarray

    def __post_init__(self):
        e1 = np.asarray(self.eps1, dtype=float)
        e2 = np.asarray(self.eps2, dtype=float)
        if e1.shape != e2.shape or e1.ndim != 1:
            raise ValueError("eps1, eps2 must be 1-d arrays of equal length")
        if np.any(e1 < 0) or np.any(e1 > 1) or np.any(e2 < 0) or np.any(e2 > 1):
            raise ValueError("pseudo-observations must lie in [0, 1]")
        e1.setflags(write=False)
        e2.setflags(write=False)
        object.__setattr__(self, "eps1", e1)
        object.__setattr__(self, "eps2", e2)

    @property
    def n(self) -> int:
        return self.eps1.size


def pseudo_observations(s: Sample, k1: KernelSpec, k2: KernelSpec) -> PseudoSample:
    """Estimated conditional probability transforms of each observation.

    Entry i of margin j is the weighted ECDF of Y_j, with NW weights centered
    at X_i and bandwidth g_j, evaluated at Y_ji. Observation i is included
    in its own ECDF, so its row holds the weight K(0) > 0 and never
    degenerates.

    Later stages read these values only through their stable ranks
    (``_sort_index``), and those ranks are exactly the ranks of the dense
    rows: kernel over all n columns, row total, division, then the row sum
    against the indicator. Each block of ``_EVAL_BLOCK`` (32) rows in x order
    sums kernel values over the union of its windows only, both the
    indicator sum and the total, and divides once; nothing of length n is
    held per row, and one block serves both margins when g1 == g2. Both
    forms sum at most n nonnegative terms, so each value lies within
    b = 4 n 2^-53 of the dense one (Higham 2002, section 4.2; for n below
    4 * 10^7). Every row with a value within 2b of a sorted neighbour
    (``_near_ties``) then takes its dense values from ``_dense_pseudo_rows``.
    """
    if s.n < 2:
        raise ValueError("pseudo-observations need at least 2 records")
    eps = {1: np.empty(s.n), 2: np.empty(s.n)}
    groups = [(k1, (1, 2))] if k2 == k1 else [(k1, (1,)), (k2, (2,))]
    for k, margins in groups:
        for rows, union, kv in _kernel_blocks(s.x, s.x, k, _EVAL_BLOCK):
            totals = kv.sum(axis=1)
            for j in margins:
                y = s.margin(j)
                below = y[union] <= y[rows, None]
                eps[j][rows] = np.einsum("il,il->i", kv, below.astype(float)) / totals
        for j in margins:
            np.clip(eps[j], 0.0, 1.0, out=eps[j])
        rows = np.flatnonzero(np.logical_or.reduce([_near_ties(eps[j]) for j in margins]))
        if rows.size:
            for j, values in zip(margins, _dense_pseudo_rows(s, k, margins, rows)):
                eps[j][rows] = values
    return PseudoSample(eps1=eps[1], eps2=eps[2])


def _near_ties(eps: np.ndarray) -> np.ndarray:
    """Mask of the values within 8 n 2^-53 of a neighbour in sorted order.

    Let ``eps`` lie within b = 4 n 2^-53 of values d. In sorted order, a gap
    wider than 2b between neighbours is a gap of the same sign in d, so the
    groups such gaps separate are ordered alike in ``eps``, in d, and in any
    mix of the two. Giving every masked value its d therefore gives the
    stable ranks of d: a group of two or more is then all d, and a lone
    value has no neighbour to trade places with.
    """
    order = np.argsort(eps, kind="stable")
    close = np.diff(eps[order]) <= 8 * eps.size * 2.0**-53
    near = np.zeros(eps.size, dtype=bool)
    near[order[:-1][close]] = True
    near[order[1:][close]] = True
    return near


def _dense_pseudo_rows(s: Sample, k: KernelSpec, margins, rows: np.ndarray) -> np.ndarray:
    """The ``margins``' pseudo-observations at ``rows`` as the dense rows give them.

    Returns shape (len(margins), len(rows)). Each row's weights are the dense
    row's floats (``_weight_blocks``), set into a zero-filled row of length n
    and summed against the float indicator over all n columns, ``_ROW_BLOCK``
    rows at a time, then clipped to [0, 1].
    """
    out = np.empty((len(margins), rows.size))
    for points, union, W in _weight_blocks(s.x[rows], s.x, k, _ROW_BLOCK):
        full = np.zeros((points.size, s.n))
        full[:, union] = W
        for values, j in zip(out, margins):
            y = s.margin(j)
            ind = y[None, :] <= y[rows[points], None]
            values[points] = np.einsum("il,il->i", full, ind.astype(float))
    return np.clip(out, 0.0, 1.0)


def _sort_index(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order of ``values`` and each value's position in it."""
    order = np.argsort(values, kind="stable")
    position = np.empty(order.size, dtype=np.int64)
    position[order] = np.arange(order.size)
    return order, position


def _lattice_cdf(a_idx, b_idx, L: int) -> np.ndarray:
    """Integer joint CDF on an L x L lattice from each pair's first lattice index.

    Pair i starts counting at lattice node (a_idx[i], b_idx[i]); index L means
    it never counts.
    """
    cells = np.bincount(a_idx * (L + 1) + b_idx, minlength=(L + 1) ** 2)
    return cells.reshape(L + 1, L + 1)[:L, :L].cumsum(axis=0).cumsum(axis=1)


def _lattice_copula(
    eps1: np.ndarray,
    eps2: np.ndarray,
    levels: np.ndarray,
    sort_index: tuple | None = None,
) -> np.ndarray:
    """Rank-based empirical copula of the pseudo-pairs on the ``levels`` lattice.

    The joint ECDF of the pairs composed with the generalized inverses of its
    own margins, counted in integers and divided by n at the end.
    ``sort_index`` holds ``_sort_index`` of each margin when the caller has
    it already.
    """
    n = eps1.size
    if sort_index is None:
        sort_index = (_sort_index(eps1), _sort_index(eps2))
    # last sorted position at or below each level; -1 counts nothing
    last = np.minimum(np.ceil(levels * n - 1e-12), n).astype(np.int64) - 1
    idx = [np.searchsorted(last, position, side="left") for _, position in sort_index]
    return _lattice_cdf(*idx, levels.size) / n


def empirical_copula_grid(p: PseudoSample, grid: Grid2D) -> GridFunction:
    """Rank-based empirical copula of the pseudo-sample at all grid nodes.

    Composes the joint ECDF of the pseudo-pairs with the generalized inverses
    of their marginal ECDFs (ties broken by sample order).
    """
    return GridFunction(grid=grid, values=_lattice_copula(p.eps1, p.eps2, grid.nodes))


def weighted_copula_surfaces(
    xs_eval: np.ndarray,
    s: Sample,
    k: KernelSpec,
    grid: Grid2D,
    pseudo: PseudoSample,
) -> np.ndarray:
    """Transformed plug-in conditional copula estimates, one per evaluation point.

    Surface i is the NW-weighted ECDF of the pseudo-pairs, with weights at
    ``xs_eval[i]`` and bandwidth from ``k``, composed with the generalized
    inverses of its own weighted margins. Returns an array of shape
    (len(xs_eval), G, G).

    The weights come from ``_weight_blocks`` in blocks of ``_EVAL_BLOCK``
    (32) points, over the union U of their windows. Per block: U sorted once
    per margin; two numpy calls per point and margin for the cumulative
    weights and the weighted-quantile positions; integer counts for each
    member's lattice index; and one ``bincount`` for all B lattices. A member
    outside a point's window has weight 0.0: it adds an exact zero to every
    sum and is never the first position to reach a level, since every grid
    level is above 0. So every surface is bit-identical to evaluating all n
    observations.
    """
    xs_eval = np.asarray(xs_eval, dtype=float)
    G = grid.G
    positions = (_sort_index(pseudo.eps1)[1], _sort_index(pseudo.eps2)[1])
    thresholds = grid.nodes - 1e-12
    out = np.empty((xs_eval.size, G, G))
    for block, union, W in _weight_blocks(xs_eval, s.x, k, _EVAL_BLOCK):
        B, m = W.shape
        row = np.arange(B)[:, None]
        idx = []
        for position in positions:
            order = np.argsort(position[union])
            rank = np.empty(m, dtype=np.int64)
            rank[order] = np.arange(m)
            sorted_w = np.take(W, order, axis=1)
            # sorted position of each row's weighted quantile at each level
            last = np.empty((B, G), dtype=np.int64)
            for b in range(B):
                last[b] = np.searchsorted(np.cumsum(sorted_w[b]), thresholds, side="left")
            np.minimum(last, m - 1, out=last)
            # a member's lattice index counts the levels whose position lies
            # below its sorted rank
            below = np.bincount((last + 1 + row * (m + 1)).ravel(), minlength=B * (m + 1))
            idx.append(np.take(below.reshape(B, m + 1).cumsum(axis=1), rank, axis=1))
        cell = idx[0] * (G + 1) + idx[1] + row * (G + 1) ** 2
        cells = np.bincount(cell.ravel(), weights=W.ravel(), minlength=B * (G + 1) ** 2)
        lattice = cells.reshape(B, G + 1, G + 1)[:, :G, :G].cumsum(axis=1).cumsum(axis=2)
        out[block] = np.clip(lattice, 0.0, 1.0)
    return out


def rule_of_thumb_bandwidth(xs: np.ndarray) -> float:
    """h = sd(X) * n^(-1/5); the default for all 'auto' bandwidths."""
    xs = np.asarray(xs, dtype=float)
    if xs.size < 2:
        raise ValueError("bandwidth rule needs at least 2 covariate values")
    sd = float(np.std(xs, ddof=1))
    if sd == 0.0:
        sd = 1.0
    return sd * xs.size ** (-0.2)


def write_sample_csv(s: Sample, path) -> None:
    with open(path, "w") as fh:
        fh.write("y1,y2,x\n")
        for i in range(s.n):
            fh.write(f"{s.y1[i]:.17g},{s.y2[i]:.17g},{s.x[i]:.17g}\n")


def read_sample_csv(path) -> Sample:
    """Parse a ``y1,y2,x`` CSV; errors carry the offending line number."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "y1,y2,x":
        raise ValueError("sample CSV must start with header 'y1,y2,x'")
    y1, y2, x = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric entry") from None
        if not all(np.isfinite(vals)):
            raise ValueError(f"line {lineno}: non-finite entry")
        y1.append(vals[0])
        y2.append(vals[1])
        x.append(vals[2])
    return Sample(y1=np.array(y1), y2=np.array(y2), x=np.array(x))
