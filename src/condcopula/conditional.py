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
# rows of the weight matrix held at once by ``pseudo_observations``
_ROW_BLOCK = 256


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
        """Ties within a margin are broken by sample order; flag them."""
        for j in (1, 2):
            vals = self.margin(j)
            if np.unique(vals).size < vals.size:
                warnings.warn(
                    f"ties in margin {j}; broken by original sample order",
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


def _normalise(x: float, kv: np.ndarray) -> np.ndarray:
    """Kernel values at x divided by their total; raises when all are zero."""
    total = kv.sum()
    if total <= 0.0:
        raise DegenerateWeightsError(
            f"degenerate weights (all kernel values are zero) at x={x:g}; "
            "enlarge the bandwidth"
        )
    return kv / total


def nw_weights(x: float, xs: np.ndarray, k: KernelSpec) -> np.ndarray:
    """Nadaraya-Watson weights w_i = K((x - X_i)/h) / sum_j K((x - X_j)/h).

    Raises ``DegenerateWeightsError`` when every kernel value at x is zero.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size < 1:
        raise ValueError("need at least one covariate value")
    return _normalise(x, kernel_values(k.family, (x - xs) / k.bandwidth))


def _weight_matrix(
    xs: np.ndarray, k: KernelSpec, leave_one_out: bool, rows: slice = slice(None)
) -> np.ndarray:
    """Rows ``rows`` of the NW weight matrix, whose row i holds w_l(X_i).

    ``leave_one_out`` zeroes each row's own weight (cross-validation); only
    then can a row be all zero, and the first such row is named by its
    global index.
    """
    rows = np.arange(xs.size)[rows]
    z = (xs[rows, None] - xs[None, :]) / k.bandwidth
    kv = kernel_values(k.family, z)
    if leave_one_out:
        kv[np.arange(rows.size), rows] = 0.0
    totals = kv.sum(axis=1)
    bad = rows[totals <= 0.0]
    if bad.size:
        raise DegenerateWeightsError(
            f"degenerate weights at observation index {int(bad[0])} "
            f"(x={xs[bad[0]]:g}); enlarge the bandwidth"
        )
    return kv / totals[:, None]


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
    degenerates. The weight matrix is built in blocks of ``_ROW_BLOCK``
    (256) rows, so each block holds a few 256 x n arrays and no n x n array
    is held; one block serves both margins when g1 == g2.
    """
    if s.n < 2:
        raise ValueError("pseudo-observations need at least 2 records")
    eps = {1: np.empty(s.n), 2: np.empty(s.n)}
    groups = [(k1, (1, 2))] if k2 == k1 else [(k1, (1,)), (k2, (2,))]
    for k, margins in groups:
        for start in range(0, s.n, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            W = _weight_matrix(s.x, k, leave_one_out=False, rows=rows)
            for j in margins:
                y = s.margin(j)
                ind = y[None, :] <= y[rows, None]
                eps[j][rows] = np.einsum("il,il->i", W, ind.astype(float))
    return PseudoSample(eps1=np.clip(eps[1], 0.0, 1.0), eps2=np.clip(eps[2], 0.0, 1.0))


def _sort_index(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order of ``values`` and each value's position in it."""
    order = np.argsort(values, kind="stable")
    position = np.empty(order.size, dtype=np.int64)
    position[order] = np.arange(order.size)
    return order, position


def _lattice_cdf(a_idx, b_idx, L: int, mass=None) -> np.ndarray:
    """Joint CDF on an L x L lattice from each pair's first lattice index.

    Pair i starts counting at lattice node (a_idx[i], b_idx[i]); index L means
    it never counts. ``mass`` is the per-pair weight; without it each pair
    counts 1 and the result is an integer count. Cells accumulate in pair
    order.
    """
    cells = np.bincount(a_idx * (L + 1) + b_idx, weights=mass, minlength=(L + 1) ** 2)
    return cells.reshape(L + 1, L + 1)[:L, :L].cumsum(axis=0).cumsum(axis=1)


def _lattice_copula(
    eps1: np.ndarray,
    eps2: np.ndarray,
    levels: np.ndarray,
    w: np.ndarray | None = None,
    sort_index: tuple | None = None,
) -> np.ndarray:
    """Copula of the pseudo-pairs on the ``levels`` x ``levels`` lattice.

    The joint ECDF of the pairs, weighted by ``w`` when given, composed with
    the generalized inverses of its own margins. Without weights this is the
    rank-based empirical copula, counted in integers and divided by n at the
    end. ``sort_index`` holds ``_sort_index`` of each margin, so callers that
    evaluate many weight vectors sort once.
    """
    n = eps1.size
    if sort_index is None:
        sort_index = (_sort_index(eps1), _sort_index(eps2))
    idx = []
    for order, position in sort_index:
        if w is None:
            # last sorted position at or below each level; -1 counts nothing
            last = np.minimum(np.ceil(levels * n - 1e-12), n).astype(np.int64) - 1
        else:
            # sorted position of the weighted quantile for each level
            cum = np.cumsum(w[order])
            last = np.minimum(np.searchsorted(cum, levels - 1e-12, side="left"), n - 1)
        idx.append(np.searchsorted(last, position, side="left"))
    if w is None:
        return _lattice_cdf(*idx, levels.size) / n
    return _lattice_cdf(*idx, levels.size, w)


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
    (len(xs_eval), G, G). Only the observations in the kernel window around
    each point enter its lattice: after one O(n log n) sort of the covariate,
    a window of w observations costs O(w log w) to sort its members and
    margins plus one O(n) zero-filled weight row, which sums exactly as the
    dense row does. The Gaussian kernel's window is the whole sample. A
    stable sort of the window, taken in sample order, orders it as the
    global stable sort does, so every surface is bit-identical to evaluating
    all n observations.
    """
    xs_eval = np.asarray(xs_eval, dtype=float)
    n = s.n
    sort_index = (_sort_index(pseudo.eps1), _sort_index(pseudo.eps2))
    x_order = np.argsort(s.x, kind="stable")
    x_sorted = s.x[x_order]
    # pad the support by more than the rounding of (x - X_i) / h, so each
    # window holds every observation with a nonzero kernel value
    scale = max(np.abs(x_sorted).max(), np.abs(xs_eval).max(initial=0.0)) + k.bandwidth
    reach = k.bandwidth * _KERNEL_REACH[k.family] * (1.0 + 1e-9) + 8 * np.spacing(scale)
    lo = np.searchsorted(x_sorted, xs_eval - reach, side="left")
    hi = np.searchsorted(x_sorted, xs_eval + reach, side="right")
    out = np.empty((xs_eval.size, grid.G, grid.G))
    for i, x in enumerate(xs_eval):
        if hi[i] - lo[i] == n:
            w = nw_weights(x, s.x, k)
            surface = _lattice_copula(pseudo.eps1, pseudo.eps2, grid.nodes, w, sort_index)
        else:
            members = np.sort(x_order[lo[i] : hi[i]])
            # the zero-filled row sums exactly as the dense one does
            row = np.zeros(n)
            row[members] = kernel_values(k.family, (x - s.x[members]) / k.bandwidth)
            w = _normalise(x, row)[members]
            surface = _lattice_copula(
                pseudo.eps1[members], pseudo.eps2[members], grid.nodes, w
            )
        out[i] = np.clip(surface, 0.0, 1.0)
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
