"""Kernel-weighted conditional distribution machinery.

Nadaraya-Watson weights (``window_weights``, the one routine of the surfaces
and the score regression), conditional probability transforms of the raw
sample (pseudo-observations) and their ranks, the lattice ECDF ``joint_ecdf``,
and one copula-lattice kernel, ``_copula_lattices``: with unit masses it is
``rank_copula``, the partial copula the harness also checks; with kernel
weights it is the transformed plug-in conditional copula estimator that
serves both as baseline and as trajectory source for the FPCA stage.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateWeightsError
from .grid import Grid2D, GridFunction

__all__ = [
    "Sample",
    "KernelSpec",
    "PseudoSample",
    "window_weights",
    "pseudo_observations",
    "rank_copula",
    "joint_ecdf",
    "empirical_copula_grid",
    "weighted_copula_surfaces",
    "rule_of_thumb_bandwidth",
    "read_sample_csv",
    "write_sample_csv",
    "KERNEL_FAMILIES",
]

# half-width of each kernel's support in bandwidth units
_KERNEL_REACH = {"epanechnikov": 1.0, "gaussian": np.inf, "uniform": 1.0}
KERNEL_FAMILIES = tuple(_KERNEL_REACH)
# evaluation points per window-local block, in every kernel-weighted stage
_BLOCK = 32
# window width (members) from which lattice indices are cut per level, not
# searched per member (``_level_cuts``); on blocks captured from fits at
# G = 21 and 51, one thread, the two routes tied at m = 200-224 and the cuts
# won every block from 225 on
_CUT_FROM = 224


@dataclass(frozen=True, eq=False)
class Sample:
    """Observed triples (y1, y2, x), one record per index, in read-only copies."""

    y1: np.ndarray
    y2: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y1 = np.array(self.y1, dtype=float)
        y2 = np.array(self.y2, dtype=float)
        x = np.array(self.x, dtype=float)
        if not (y1.shape == y2.shape == x.shape) or y1.ndim != 1:
            raise ValueError("y1, y2, x must be 1-d arrays of equal length")
        for name, arr in (("y1", y1), ("y2", y2), ("x", x)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite value in {name}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.y1.size

    @cached_property
    def x_order(self) -> tuple:
        """The read-only stable argsort of x (ties keep sample order) and x in that order."""
        order = np.argsort(self.x, kind="stable")
        xs = self.x[order]
        order.setflags(write=False)
        xs.setflags(write=False)
        return order, xs

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
        item 1).
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
        if fam not in KERNEL_FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; "
                f"choose one of {KERNEL_FAMILIES}"
            )
        object.__setattr__(self, "family", fam)
        if not 0 < self.bandwidth < np.inf:  # also a NaN
            raise ValueError(f"bandwidth must be finite and positive, got {self.bandwidth!r}")


def kernel_values(family: str, z: np.ndarray) -> np.ndarray:
    """Evaluate the (unnormalized-scale-free) kernel at standardized z."""
    z = np.asarray(z, dtype=float)
    # one array, updated in place in the operation order of the closed forms
    # 0.75 * (1 - z * z) on |z| <= 1 and exp(-0.5 * z * z) / sqrt(2 pi):
    # z * z >= 1 exactly where |z| >= 1, and 1 - z * z is then <= 0; fmax,
    # unlike maximum, also sends a NaN to the 0.0 outside the support
    if family == "epanechnikov":
        t = z * z
        np.subtract(1.0, t, out=t)
        np.fmax(t, 0.0, out=t)
        t *= 0.75
        return t
    if family == "gaussian":
        t = -0.5 * z
        t *= z
        np.exp(t, out=t)
        t /= np.sqrt(2.0 * np.pi)
        return t
    if family == "uniform":
        return np.where(np.abs(z) <= 1.0, 0.5, 0.0)
    raise ValueError(f"unknown kernel family {family!r}")


def _row_totals(kv: np.ndarray) -> np.ndarray:
    """Sequential, left-to-right sums of kernel values along the last axis.

    Every NW weight outside the pseudo-observation ranks divides by this
    total (``window_weights``); an empty window totals 0. Adding an exact
    zero leaves a sequential sum unchanged, so the total over a kernel window
    in sample order is the float of the total over all n columns, whichever
    block of evaluation points the window was gathered for. A pairwise sum
    groups its terms by position, so its float would depend on the zeros and
    neighbours around the window (Higham 2002, section 4.2).
    """
    if kv.shape[-1] == 0:
        return np.zeros(kv.shape[:-1])
    return np.cumsum(kv, axis=-1)[..., -1]


def _kernel_blocks(x_eval, s: Sample, k: KernelSpec):
    """Kernel values at ``x_eval`` over the sample ``s``, block by block.

    Yields ``(points, union, kv)`` for each block of up to ``_BLOCK`` (32)
    evaluation points in stable x order. ``union`` holds, in sample order,
    every member of the points' kernel windows, found in ``s.x_order``: the
    observations with a nonzero kernel value there. The support is padded by
    more than the rounding of (x - X_i) / h, and the Gaussian window is the
    whole sample. ``kv`` holds the kernel values over ``union``. Points that
    are the sample's own covariate (``x_eval is s.x``) take its cached order.
    """
    x_order, x_sorted = s.x_order
    # the largest |X_i| is at an end of the sorted sample
    scale = max(-x_sorted[0], x_sorted[-1], np.abs(x_eval).max(initial=0.0)) + k.bandwidth
    reach = k.bandwidth * _KERNEL_REACH[k.family] * (1.0 + 1e-9) + 8 * np.spacing(scale)
    lo = np.searchsorted(x_sorted, x_eval - reach, side="left")
    hi = np.searchsorted(x_sorted, x_eval + reach, side="right")
    eval_order = x_order if x_eval is s.x else np.argsort(x_eval, kind="stable")
    for start in range(0, x_eval.size, _BLOCK):
        points = eval_order[start : start + _BLOCK]
        union = np.sort(x_order[lo[points[0]] : hi[points[-1]]])
        z = x_eval[points, None] - s.x[None, union]
        z /= k.bandwidth
        yield points, union, kernel_values(k.family, z)


def window_weights(x_eval, s: Sample, k: KernelSpec):
    """Nadaraya-Watson weights at ``x_eval`` over the sample ``s``, block by block.

    Yields ``(points, union, w)`` for each block of ``_kernel_blocks``, where
    row b of ``w`` is K((x - X_i)/h) / sum_j K((x - X_j)/h) at ``points[b]``
    over the ``union`` members, each total a ``_row_totals`` sum: the floats
    of the weights over all n observations. A block with a point whose kernel
    values all vanish is skipped, and after the last block the first such
    point in input order is named in a ``DegenerateWeightsError``.
    """
    x_eval = np.asarray(x_eval, dtype=float)
    degenerate = []
    for points, union, kv in _kernel_blocks(x_eval, s, k):
        totals = _row_totals(kv)
        if np.any(totals <= 0.0):
            degenerate.append(points[totals <= 0.0].min())
            continue
        kv /= totals[:, None]
        yield points, union, kv
    if degenerate:
        raise DegenerateWeightsError(
            f"degenerate weights (all kernel values are zero) at "
            f"x={x_eval[min(degenerate)]:g}; enlarge the bandwidth"
        )


@dataclass(frozen=True, eq=False)
class PseudoSample:
    """Conditional probability transforms (eps1_i, eps2_i), in read-only copies."""

    eps1: np.ndarray
    eps2: np.ndarray

    def __post_init__(self):
        e1 = np.array(self.eps1, dtype=float)
        e2 = np.array(self.eps2, dtype=float)
        if e1.shape != e2.shape or e1.ndim != 1:
            raise ValueError("eps1, eps2 must be 1-d arrays of equal length")
        # a NaN fails both comparisons, so it is rejected too
        if not (np.all((e1 >= 0) & (e1 <= 1)) and np.all((e2 >= 0) & (e2 <= 1))):
            raise ValueError("pseudo-observations must lie in [0, 1]")
        e1.setflags(write=False)
        e2.setflags(write=False)
        object.__setattr__(self, "eps1", e1)
        object.__setattr__(self, "eps2", e2)

    @property
    def n(self) -> int:
        return self.eps1.size

    @cached_property
    def ranks(self) -> np.ndarray:
        """The read-only (2, n) stable ranks of eps1 and eps2; ties keep sample order."""
        ranks = np.empty((2, self.n), dtype=np.int64)
        for rank, eps in zip(ranks, (self.eps1, self.eps2)):
            rank[np.argsort(eps, kind="stable")] = np.arange(self.n)
        ranks.setflags(write=False)
        return ranks


def pseudo_observations(s: Sample, k1: KernelSpec, k2: KernelSpec) -> PseudoSample:
    """Estimated conditional probability transforms of each observation.

    Entry i of margin j is the weighted ECDF of Y_j, with NW weights centered
    at X_i and bandwidth g_j, evaluated at Y_ji. Observation i is included
    in its own ECDF, so its row holds the weight K(0) > 0 and never
    degenerates.

    Later stages read these values only through their stable ranks
    (``PseudoSample.ranks``), and those ranks are exactly the ranks of the dense
    rows: kernel over all n columns, pairwise row total, division, then the
    row sum against the indicator. These rows keep numpy's pairwise sums,
    not the sequential totals of the other weights, because the benchmark's
    reference outputs (``perfbench/reference.json``) pin the ranks they
    decide. Each block of ``_BLOCK`` (32) rows in x order sums kernel values
    over the union of its windows only, both the indicator sum and the
    total, and divides once; nothing of length n is held per row, and one
    block serves both margins when g1 == g2. Both forms sum at most n
    nonnegative terms, so each value lies within b = 4 n 2^-53 of the dense
    one (Higham 2002, section 4.2; for n below 4 * 10^7). Every value of a
    margin within 2b of a sorted neighbour in that margin (``_near_ties``)
    then takes its dense value from ``_dense_pseudo_rows``. The dense row of
    observation i depends only on (X_i, Y_ji), so each distinct pair is
    summed once and its value shared: tied data cost one dense row per
    distinct pair, not one per row.
    """
    if s.n < 2:
        raise ValueError("pseudo-observations need at least 2 records")
    eps = {1: np.empty(s.n), 2: np.empty(s.n)}
    groups = [(k1, (1, 2))] if k2 == k1 else [(k1, (1,)), (k2, (2,))]
    for k, margins in groups:
        for rows, union, kv in _kernel_blocks(s.x, s, k):
            totals = kv.sum(axis=1)
            for j in margins:
                y = s.margin(j)
                below = y[union] <= y[rows, None]
                eps[j][rows] = np.einsum("il,il->i", kv, below.astype(float)) / totals
        for j in margins:
            np.clip(eps[j], 0.0, 1.0, out=eps[j])
            rows = np.flatnonzero(_near_ties(eps[j]))
            pairs = np.column_stack([s.x[rows], s.margin(j)[rows]])
            _, first, inverse = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
            eps[j][rows] = _dense_pseudo_rows(s, k, j, rows[first])[inverse]
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


def _dense_pseudo_rows(s: Sample, k: KernelSpec, j: int, rows: np.ndarray) -> np.ndarray:
    """Margin ``j``'s pseudo-observations at ``rows`` as the dense rows give them.

    Each row's kernel values are set into a zero-filled row of length n,
    divided by the row's pairwise sum and summed against the float indicator
    over all n columns, one block of rows at a time, then clipped to [0, 1].
    These are the only length-n rows of the package; they stay pairwise
    because ``perfbench/reference.json`` pins the ranks they decide. A row
    at a sample point holds its own weight K(0) > 0, so none degenerates.
    """
    y = s.margin(j)
    out = np.empty(rows.size)
    for points, union, kv in _kernel_blocks(s.x[rows], s, k):
        full = np.zeros((points.size, s.n))
        full[:, union] = kv
        ind = y[None, :] <= y[rows[points], None]
        out[points] = np.einsum("il,il->i", full / full.sum(axis=1)[:, None], ind.astype(float))
    return np.clip(out, 0.0, 1.0)


def _lattice_cdf(a_idx, b_idx, L: int, mass) -> np.ndarray:
    """Joint CDFs on an L x L lattice, one per row of masses.

    Row b of the (B, m) arrays ``a_idx``, ``b_idx`` and ``mass`` gives each
    pair's first lattice index on each margin and the pair's mass; index L
    means it never counts. The cells are binned with the batch inside, as
    (L + 1, B, L + 1), so the prefix over the first lattice axis is L - 1
    adds of contiguous (B, L + 1) slices, each the step of a sequential
    ``np.cumsum``; one ``np.cumsum`` along the last axis follows. Returns
    shape (B, L, L), a view of the cells.
    """
    B = mass.shape[0]
    stride = B * (L + 1)
    cell = a_idx * stride  # then in place, without further (B, m) temporaries
    cell += b_idx
    cell += np.arange(0, stride, L + 1)[:, None]
    cells = np.bincount(cell.ravel(), weights=mass.ravel(), minlength=(L + 1) * stride)
    cells = cells.reshape(L + 1, B, L + 1)
    for a in range(1, L):
        cells[a] += cells[a - 1]
    cdf = cells[:L, :, :L]
    np.cumsum(cdf, axis=2, out=cdf)
    return cdf.transpose(1, 0, 2)


def _level_cuts(below: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Each sorted member's first lattice index, by searching the levels in each row.

    ``below`` is (B, m), nondecreasing along each row, and a member's index
    is the number of ``thresholds`` at or below its mass, as
    ``np.searchsorted(thresholds, below, side="right")`` gives it member by
    member. Cut l of a row is the number of members whose mass is below
    level l. As the masses never decrease along the row, a member reaches
    level l iff its position is at or past cut l, so its index is the
    number of cuts at or before its position: one ``np.repeat`` of 0..L by
    the gaps between cuts. That is B L searches of log m steps and B m
    writes, against B m searches of log L steps member by member.
    """
    B, m = below.shape
    L = thresholds.size
    cuts = np.empty((B, L + 2), dtype=np.int64)
    cuts[:, 0] = 0
    cuts[:, -1] = m
    for row, cut in zip(below, cuts):
        cut[1:-1] = row.searchsorted(thresholds)  # side="left"; the method skips a wrapper
    levels = np.broadcast_to(np.arange(L + 1), (B, L + 1))
    return np.repeat(levels.ravel(), np.diff(cuts, axis=1).ravel()).reshape(B, m)


def _copula_lattices(positions, mass: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Mass-weighted rank copulas of m pairs on the ``thresholds`` lattice.

    ``positions`` holds each margin's sort positions of the m pairs (any
    integers in the order of their stable ranks), ``mass`` is (B, m) and
    nonnegative, and ``thresholds`` holds L increasing levels. Lattice b, of
    shape (L, L), is the joint CDF of the pairs under ``mass[b]`` composed
    with the generalized inverses of its own margins: on each margin, a pair
    counts at level l iff the mass ranked strictly before it is below
    ``thresholds[l]``. As that mass never decreases in rank order, a
    positive level counts the pairs up to the first whose cumulative mass
    reaches it, or every pair if none does. Windows of ``_CUT_FROM`` pairs
    or more find these lattice indices by ``_level_cuts``, narrower ones by
    searching each pair's mass in the thresholds; the integers are the same,
    so the route depends on m alone. Returns shape (B, L, L).
    """
    B, m = mass.shape
    # mass ranked strictly before each sorted position; column 0 stays 0
    below = np.zeros((B, m))
    idx = []
    for position in positions:
        order = np.argsort(position)
        rank = np.empty(m, dtype=np.int64)
        rank[order] = np.arange(m)
        np.cumsum(np.take(mass, order[:-1], axis=1), axis=1, out=below[:, 1:])
        if m < _CUT_FROM:
            counted = np.searchsorted(thresholds, below, side="right")
        else:
            counted = _level_cuts(below, thresholds)
        idx.append(np.take(counted, rank, axis=1))
    return _lattice_cdf(*idx, thresholds.size, mass)


def rank_copula(p: PseudoSample, levels: np.ndarray) -> np.ndarray:
    """Rank-based empirical copula of the pseudo-sample on the levels x levels lattice.

    Composes the joint ECDF of the pseudo-pairs with the generalized inverses
    of their marginal ECDFs (ties broken by sample order, ``p.ranks``):
    ``_copula_lattices`` with unit masses and the thresholds
    ``levels * n - 1e-12``, whose counts are exact integers, divided by n.
    """
    n = p.n
    return _copula_lattices(p.ranks, np.ones((1, n)), levels * n - 1e-12)[0] / n


def joint_ecdf(e1: np.ndarray, e2: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Share of pairs with e1_i <= levels[a] and e2_i <= levels[b], at each (a, b)."""
    a_idx = np.searchsorted(levels, e1, side="left")
    b_idx = np.searchsorted(levels, e2, side="left")
    n = e1.size
    return _lattice_cdf(a_idx[None], b_idx[None], levels.size, np.ones((1, n)))[0] / n


def empirical_copula_grid(p: PseudoSample, grid: Grid2D) -> GridFunction:
    """The partial copula: ``rank_copula`` of the pseudo-sample at the grid nodes."""
    return GridFunction(grid=grid, values=rank_copula(p, grid.nodes))


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

    The points go in blocks of ``_BLOCK`` (32) from ``window_weights``,
    each with the union U of their windows, and one ``_copula_lattices`` call
    per block turns the weights and the members' ``pseudo.ranks`` into the
    block's lattices with the thresholds ``levels - 1e-12``, stored in the
    stack as they come; the finished stack is clipped to [0, 1] in place
    once. A member outside a point's window has weight 0.0: it adds an
    exact zero to every sum and is never the last member counted at a
    level, since every grid level is above 0. So every surface is
    bit-identical to evaluating all n observations with the same weights.
    A point whose weights all vanish raises the
    ``DegenerateWeightsError`` of ``window_weights``.
    """
    thresholds = grid.nodes - 1e-12
    out = np.empty((len(xs_eval), grid.G, grid.G))
    for block, union, w in window_weights(xs_eval, s, k):
        # stored at once, so the block's cells die before the next block's
        out[block] = _copula_lattices(pseudo.ranks[:, union], w, thresholds)
    return np.clip(out, 0.0, 1.0, out=out)


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
