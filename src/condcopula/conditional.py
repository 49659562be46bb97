"""Kernel-weighted conditional distribution machinery.

Nadaraya-Watson weights, conditional probability transforms of the raw
sample (pseudo-observations), and one copula-lattice kernel: unweighted it is
the empirical partial copula, kernel-weighted it is the transformed plug-in
conditional copula estimator that serves both as baseline and as trajectory
source for the FPCA stage.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightsError
from .grid import Grid2D, GridFunction

__all__ = [
    "Sample",
    "KernelSpec",
    "WeightVector",
    "PseudoSample",
    "nw_weights",
    "pseudo_observations",
    "empirical_copula_grid",
    "weighted_copula_trajectory",
    "weighted_copula_surfaces",
    "rule_of_thumb_bandwidth",
    "read_sample_csv",
    "write_sample_csv",
]

_KERNEL_FAMILIES = ("epanechnikov", "gaussian", "uniform")


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


@dataclass(frozen=True)
class WeightVector:
    """Normalized nonnegative weights; ``degenerate`` if all kernel mass is 0."""

    w: np.ndarray
    degenerate: bool

    def require_valid(self, context: str = "") -> np.ndarray:
        if self.degenerate:
            msg = "degenerate weights (all kernel values are zero)"
            if context:
                msg += f" {context}"
            raise DegenerateWeightsError(msg + "; enlarge the bandwidth")
        return self.w


def nw_weights(x: float, xs: np.ndarray, k: KernelSpec) -> WeightVector:
    """Nadaraya-Watson weights w_i = K((x - X_i)/h) / sum_j K((x - X_j)/h)."""
    xs = np.asarray(xs, dtype=float)
    if xs.size < 1:
        raise ValueError("need at least one covariate value")
    kv = kernel_values(k.family, (x - xs) / k.bandwidth)
    total = kv.sum()
    if total <= 0.0:
        return WeightVector(w=np.zeros_like(kv), degenerate=True)
    return WeightVector(w=kv / total, degenerate=False)


def _weight_matrix(xs: np.ndarray, k: KernelSpec, leave_one_out: bool) -> np.ndarray:
    """Row i holds the NW weights w_l(X_i); raises naming the first bad row."""
    z = (xs[:, None] - xs[None, :]) / k.bandwidth
    kv = kernel_values(k.family, z)
    if leave_one_out:
        np.fill_diagonal(kv, 0.0)
    totals = kv.sum(axis=1)
    bad = np.nonzero(totals <= 0.0)[0]
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
    provenance: str = "estimated-margins"

    def __post_init__(self):
        e1 = np.asarray(self.eps1, dtype=float)
        e2 = np.asarray(self.eps2, dtype=float)
        if e1.shape != e2.shape or e1.ndim != 1:
            raise ValueError("eps1, eps2 must be 1-d arrays of equal length")
        if np.any(e1 < 0) or np.any(e1 > 1) or np.any(e2 < 0) or np.any(e2 > 1):
            raise ValueError("pseudo-observations must lie in [0, 1]")
        if self.provenance not in ("estimated-margins", "known-margins"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        e1.setflags(write=False)
        e2.setflags(write=False)
        object.__setattr__(self, "eps1", e1)
        object.__setattr__(self, "eps2", e2)

    @property
    def n(self) -> int:
        return self.eps1.size


def pseudo_observations(
    s: Sample,
    k1: KernelSpec,
    k2: KernelSpec,
    leave_one_out: bool = False,
) -> PseudoSample:
    """Estimated conditional probability transforms of each observation.

    Entry i of margin j is the weighted ECDF of Y_j, with NW weights centered
    at X_i and bandwidth g_j, evaluated at Y_ji. By default observation i is
    included in its own ECDF; ``leave_one_out`` drops it (bias studies).
    """
    if s.n < 2:
        raise ValueError("pseudo-observations need at least 2 records")
    W1 = _weight_matrix(s.x, k1, leave_one_out)
    W2 = _weight_matrix(s.x, k2, leave_one_out)
    ind1 = s.y1[None, :] <= s.y1[:, None]
    ind2 = s.y2[None, :] <= s.y2[:, None]
    eps1 = np.einsum("il,il->i", W1, ind1.astype(float))
    eps2 = np.einsum("il,il->i", W2, ind2.astype(float))
    return PseudoSample(
        eps1=np.clip(eps1, 0.0, 1.0),
        eps2=np.clip(eps2, 0.0, 1.0),
        provenance="estimated-margins",
    )


def _sort_index(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order of ``values`` and each value's position in it."""
    order = np.argsort(values, kind="stable")
    position = np.empty(values.size, dtype=np.int64)
    position[order] = np.arange(values.size)
    return order, position


def _lattice_cdf(a_idx, b_idx, L: int, mass=1.0) -> np.ndarray:
    """Joint CDF on an L x L lattice from each pair's first lattice index.

    Pair i starts counting at lattice node (a_idx[i], b_idx[i]); index L means
    it never counts. ``mass`` is the pair's weight (scalar or per pair).
    """
    cells = np.zeros((L + 1, L + 1))
    np.add.at(cells, (a_idx, b_idx), mass)
    return cells[:L, :L].cumsum(axis=0).cumsum(axis=1)


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


def weighted_copula_trajectory(
    x: float,
    s: Sample,
    k: KernelSpec,
    k1: KernelSpec,
    k2: KernelSpec,
    grid: Grid2D,
    pseudo: PseudoSample | None = None,
) -> GridFunction:
    """Transformed plug-in conditional copula estimate at covariate value x.

    Margins are removed via the pseudo-observations (bandwidths from
    ``k1``/``k2``); the conditional joint law is the NW-weighted ECDF of the
    pseudo-pairs with bandwidth from ``k``, composed with the generalized
    inverses of its own weighted margins. A precomputed ``pseudo`` sample may
    be shared across calls at different x.
    """
    if pseudo is None:
        pseudo = pseudo_observations(s, k1, k2)
    return GridFunction(grid=grid, values=weighted_copula_surfaces([x], s, k, grid, pseudo)[0])


def weighted_copula_surfaces(
    xs_eval: np.ndarray,
    s: Sample,
    k: KernelSpec,
    grid: Grid2D,
    pseudo: PseudoSample,
) -> np.ndarray:
    """Stack of transformed-estimator surfaces, one per evaluation point.

    Returns an array of shape (len(xs_eval), G, G). The pseudo-observation
    sort orders are shared across evaluation points, so the per-point cost is
    O(n + G^2) after one O(n log n) sort.
    """
    xs_eval = np.asarray(xs_eval, dtype=float)
    sort_index = (_sort_index(pseudo.eps1), _sort_index(pseudo.eps2))
    out = np.empty((xs_eval.size, grid.G, grid.G))
    for i, x in enumerate(xs_eval):
        w = nw_weights(x, s.x, k).require_valid(f"at x={x:g}")
        surface = _lattice_copula(pseudo.eps1, pseudo.eps2, grid.nodes, w, sort_index)
        out[i] = np.clip(surface, 0.0, 1.0)
    return out


def rule_of_thumb_bandwidth(xs: np.ndarray, c: float = 1.0) -> float:
    """h = c * sd(X) * n^(-1/5); the default for all 'auto' bandwidths."""
    xs = np.asarray(xs, dtype=float)
    if xs.size < 2:
        raise ValueError("bandwidth rule needs at least 2 covariate values")
    sd = float(np.std(xs, ddof=1))
    if sd == 0.0:
        sd = 1.0
    return c * sd * xs.size ** (-0.2)


def write_sample_csv(s: Sample, path_or_buf) -> None:
    buf = io.StringIO()
    buf.write("y1,y2,x\n")
    for i in range(s.n):
        buf.write(f"{s.y1[i]:.17g},{s.y2[i]:.17g},{s.x[i]:.17g}\n")
    text = buf.getvalue()
    if hasattr(path_or_buf, "write"):
        path_or_buf.write(text)
    else:
        with open(path_or_buf, "w") as fh:
            fh.write(text)


def read_sample_csv(path_or_buf) -> Sample:
    """Parse a ``y1,y2,x`` CSV; errors carry the offending line number."""
    if hasattr(path_or_buf, "read"):
        lines = path_or_buf.read().splitlines()
    else:
        with open(path_or_buf) as fh:
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
