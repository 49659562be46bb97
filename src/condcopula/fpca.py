"""Covariance estimation, eigendecomposition, scores and diagnostics.

The covariance function of the trajectory ensemble is discretized as a
symmetric G^2 x G^2 matrix over node pairs; the covariance operator becomes
the symmetric eigenproblem (cell_weight * matrix) phi = lambda phi, with
eigenvector values rescaled so the quadrature norm of each eigenfunction is
one. Also houses the first-order eigenfunction perturbation projection and
the exact unit-sphere identity used by the verification harness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError
from .grid import Grid2D, GridFunction, write_grid_function_csv

__all__ = [
    "TrajectoryEnsemble",
    "CovarianceField",
    "EigenSystem",
    "ScoreMatrix",
    "covariance_field",
    "eigendecompose",
    "scores",
    "select_K",
    "tkn_projection",
    "unit_sphere_identity",
]

_GAP_TOL = 1e-10


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Covariate values paired with one grid surface per observation."""

    xs: np.ndarray
    surfaces: np.ndarray  # shape (n, G, G)
    grid: Grid2D
    mode: str = "estimated"  # or "oracle"

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        surf = np.asarray(self.surfaces, dtype=float)
        G = self.grid.G
        if surf.ndim != 3 or surf.shape[1:] != (G, G):
            raise ValueError(f"surfaces must have shape (n, {G}, {G})")
        if xs.ndim != 1 or xs.size != surf.shape[0]:
            raise ValueError("xs length must match number of surfaces")
        if self.mode not in ("estimated", "oracle"):
            raise ValueError(f"unknown ensemble mode {self.mode!r}")
        xs.setflags(write=False)
        surf.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "surfaces", surf)

    @property
    def n(self) -> int:
        return self.surfaces.shape[0]

    def flat(self) -> np.ndarray:
        """(n, G^2) view, row-major node flattening."""
        n = self.n
        return self.surfaces.reshape(n, -1)

    def mean_surface(self) -> GridFunction:
        return GridFunction(grid=self.grid, values=self.surfaces.mean(axis=0))


@dataclass(frozen=True)
class CovarianceField:
    """Symmetric node-pair matrix of the estimated covariance function."""

    grid: Grid2D
    values: np.ndarray  # shape (G^2, G^2)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        m = self.grid.G ** 2
        if vals.shape != (m, m):
            raise ValueError(f"covariance field must be {m} x {m}")
        asym = np.max(np.abs(vals - vals.T))
        if asym > 1e-10:
            raise ValueError(f"covariance field asymmetric by {asym:.3g}")
        if np.min(np.diagonal(vals)) < -1e-12:
            raise ValueError("negative variance on the diagonal")
        vals = 0.5 * (vals + vals.T)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class EigenSystem:
    """Ordered eigenvalues and quadrature-orthonormal eigenfunctions."""

    grid: Grid2D
    eigenvalues: np.ndarray  # nonincreasing, length m
    eigenfunctions: np.ndarray  # shape (m, G, G)
    sign_flips: np.ndarray  # +-1 per component, as applied

    @property
    def m(self) -> int:
        return self.eigenvalues.size

    def phi(self, k: int) -> GridFunction:
        """k-th eigenfunction (1-based)."""
        return GridFunction(grid=self.grid, values=self.eigenfunctions[k - 1])

    def phi_flat(self) -> np.ndarray:
        return self.eigenfunctions.reshape(self.m, -1)

    def export(self, json_path, csv_prefix=None) -> None:
        """JSON spectrum plus optional per-component grid CSV files."""
        payload = {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "grid_size": self.grid.G,
            "sign_flips": [int(v) for v in self.sign_flips],
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        if csv_prefix is not None:
            for k in range(1, self.m + 1):
                write_grid_function_csv(self.phi(k), f"{csv_prefix}_phi{k}.csv")


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-trajectory projections onto the leading eigenfunctions, (n, K)."""

    xi: np.ndarray

    @property
    def n(self) -> int:
        return self.xi.shape[0]

    @property
    def K(self) -> int:
        return self.xi.shape[1]


def covariance_field(e: TrajectoryEnsemble, mean: GridFunction) -> CovarianceField:
    """Empirical covariance of the ensemble around ``mean``.

    (1/n) sum_i (C_i(u) - mean(u)) (C_i(v) - mean(v)) over node pairs. Always
    symmetric positive semidefinite (sum of outer products), whatever center
    is passed.
    """
    if e.grid != mean.grid:
        raise ValueError("ensemble and mean live on different grids")
    if e.n < 2:
        raise ValueError("covariance needs at least 2 trajectories")
    centered = e.flat() - mean.flat()[None, :]
    vals = centered.T @ centered / e.n
    return CovarianceField(grid=e.grid, values=vals)


def eigendecompose(c: CovarianceField, truncate_below: float = 1e-12) -> EigenSystem:
    """Solve the discretized covariance eigenproblem.

    The operator acts by quadrature, so the symmetric matrix that is actually
    decomposed is cell_weight * field; eigenvector entries are rescaled by
    1/sqrt(cell_weight) to restore quadrature orthonormality. Eigenvalues
    below ``truncate_below`` are clipped to zero.
    """
    delta = c.grid.cell_weight
    evals, evecs = np.linalg.eigh(delta * c.values)
    order = np.argsort(evals, kind="stable")[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    evals[evals < truncate_below] = 0.0
    m = c.grid.G ** 2
    phis = (evecs / np.sqrt(delta)).T.reshape(m, c.grid.G, c.grid.G)
    flips = np.ones(m)
    for k in range(m):
        integral = delta * phis[k].sum()
        if integral < -1e-12:
            flips[k] = -1.0
        elif abs(integral) <= 1e-12:
            flat = phis[k].ravel()
            nz = np.nonzero(np.abs(flat) > 1e-8)[0]
            if nz.size and flat[nz[0]] < 0.0:
                flips[k] = -1.0
        phis[k] *= flips[k]
    return EigenSystem(
        grid=c.grid, eigenvalues=evals, eigenfunctions=phis, sign_flips=flips
    )


def scores(
    e: TrajectoryEnsemble, mean: GridFunction, es: EigenSystem, K: int
) -> ScoreMatrix:
    """Quadrature projections of the centered trajectories, (n, K)."""
    if not (1 <= K <= es.m):
        raise ValueError(f"K={K} out of range 1..{es.m}")
    if e.grid != mean.grid or e.grid != es.grid:
        raise ValueError("grid mismatch between ensemble, mean, eigensystem")
    centered = e.flat() - mean.flat()[None, :]
    xi = e.grid.cell_weight * centered @ es.phi_flat()[:K].T
    return ScoreMatrix(xi=xi)


def select_K(es: EigenSystem, method: str = "cvp", threshold: float = 0.9) -> int:
    """Pick the number of retained components.

    cvp: smallest K whose cumulative variance fraction reaches ``threshold``;
    fixed: ``threshold`` is the K itself. An all-zero spectrum returns 0
    (degenerate; callers fall back to the mean surface alone).
    """
    lam = es.eigenvalues
    if method == "fixed":
        K = int(threshold)
        if not (0 <= K <= es.m):
            raise ValueError(f"fixed K={K} out of range 0..{es.m}")
        return K
    positive = lam[lam > 0.0]
    if positive.size == 0:
        return 0
    if method == "cvp":
        if not (0.0 < threshold <= 1.0):
            raise ValueError("CVP threshold must be in (0, 1]")
        frac = np.cumsum(positive) / positive.sum()
        return int(np.searchsorted(frac, threshold - 1e-12) + 1)
    raise ValueError(f"unknown selection method {method!r}")


def _hs_inner(z: np.ndarray, phi_a: np.ndarray, phi_b: np.ndarray, delta: float) -> float:
    """Hilbert-Schmidt pairing of a node-pair kernel with phi_a (x) phi_b."""
    return float(delta * delta * phi_a @ z @ phi_b)


def tkn_projection(zn: np.ndarray, true_es: EigenSystem, k: int) -> GridFunction:
    """First-order perturbation of the k-th eigenfunction under kernel ``zn``.

    ``zn`` is a node-pair matrix (G^2 x G^2), typically sqrt(n) times the
    difference between estimated and true covariance fields. Requires the
    provided eigenvalues to be pairwise distinct; the result is orthogonal to
    the k-th eigenfunction by construction.
    """
    if not (1 <= k <= true_es.m):
        raise ValueError(f"k={k} out of range 1..{true_es.m}")
    lam = true_es.eigenvalues
    gaps = np.abs(np.subtract.outer(lam, lam)) + np.eye(lam.size)
    if np.min(gaps) < _GAP_TOL:
        i, j = divmod(int(np.argmin(gaps)), lam.size)
        raise DegenerateSpectrumError(
            f"eigenvalue gap |lambda_{i + 1} - lambda_{j + 1}| below {_GAP_TOL:g}"
        )
    delta = true_es.grid.cell_weight
    phis = true_es.phi_flat()
    zn = np.asarray(zn, dtype=float)
    out = np.zeros(phis.shape[1])
    for j in range(true_es.m):
        if j == k - 1:
            continue
        coeff = _hs_inner(zn, phis[k - 1], phis[j], delta) / (lam[k - 1] - lam[j])
        out += coeff * phis[j]
    return GridFunction(
        grid=true_es.grid, values=out.reshape(true_es.grid.G, true_es.grid.G)
    )


def unit_sphere_identity(phi_hat: GridFunction, phi: GridFunction):
    """Both sides of the exact identity <f - g, g> = -||f - g||^2 / 2.

    Holds algebraically whenever f and g are unit-norm; non-unit inputs are
    rejected.
    """
    delta = phi.grid.cell_weight
    if phi_hat.grid != phi.grid:
        raise ValueError("grid mismatch")
    for name, fn in (("phi_hat", phi_hat), ("phi", phi)):
        norm = np.sqrt(delta * np.sum(fn.values**2))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"{name} is not unit-norm (||.||_2 = {norm:.12g})")
    diff = phi_hat.values - phi.values
    lhs = float(delta * np.sum(diff * phi.values))
    rhs = float(-0.5 * delta * np.sum(diff * diff))
    return lhs, rhs
