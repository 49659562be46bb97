"""Covariance estimation, eigendecomposition, scores and diagnostics.

The trajectory ensemble is a plain (n, G, G) array, one surface per
observation; it lives on the grid of the centre surface passed with it. Its
covariance function is discretized as a symmetric G^2 x G^2 matrix over node
pairs; the covariance operator becomes the symmetric eigenproblem
(cell_weight * matrix) phi = lambda phi, with eigenvector values rescaled so
the quadrature norm of each eigenfunction is one. Every eigensystem carries
the total variance, the trace of the decomposed matrix, so that the share of
variance its components explain is known also when it holds only the leading
ones. The fit path solves for those alone (``ensemble_eigensystem``), and when
the ensemble has fewer trajectories than grid nodes it takes them from the
smaller n x n Gram matrix of the centered trajectories (the method of
snapshots, Sirovich 1987). Where that matrix is large and the solve needs few
converged pairs (``_matrix_free``), it is not formed: Lanczos applies it
through the centered trajectories, and the total variance is their squared
Frobenius norm times cell_weight / n. Every function here that calls BLAS
runs it on one thread (``_blas.limited_threads``), so its result has the
same bits at any BLAS thread count and no caller manages threads. Also
houses the exact unit-sphere identity used by the verification harness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._blas import leading_eigh, limited_threads
from .grid import Grid2D, GridFunction, write_grid_function_csv

__all__ = [
    "EigenSystem",
    "centered_trajectories",
    "covariance_field",
    "eigendecompose",
    "ensemble_eigensystem",
    "scores",
    "select_K",
    "unit_sphere_identity",
]

_TRUNCATE_BELOW = 1e-12  # eigenvalues below this are clipped to zero
# leading eigenvalues that every estimate reports, lambda_1..lambda_5
REPORTED = 5
# an eigen matrix is solved unformed from order 768 on when at most 5 pairs
# must converge (``_matrix_free``)
_MATRIX_FREE = 768
_MATRIX_FREE_PAIRS = 5


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Ordered eigenvalues and quadrature-orthonormal eigenfunctions.

    The system may hold only the leading components of a spectrum; ``total``
    is the sum of the whole spectrum, the trace of the decomposed matrix.
    In a fit under an automatic K, the eigenfunctions past the K-th have
    converged only as far as their eigenvalues need (``ensemble_eigensystem``);
    nothing in the package reads them.
    """

    grid: Grid2D
    eigenvalues: np.ndarray  # nonincreasing, length m
    eigenfunctions: np.ndarray  # shape (m, G, G)
    sign_flips: np.ndarray  # +-1 per component, as applied
    total: float

    @property
    def m(self) -> int:
        return self.eigenvalues.size

    def phi(self, k: int) -> GridFunction:
        """k-th eigenfunction (1-based)."""
        return GridFunction(grid=self.grid, values=self.eigenfunctions[k - 1])

    def phi_flat(self) -> np.ndarray:
        return self.eigenfunctions.reshape(self.m, -1)

    def head(self, m: int) -> "EigenSystem":
        """The leading ``m`` components (all of them when ``m >= self.m``)."""
        return EigenSystem(
            grid=self.grid,
            eigenvalues=self.eigenvalues[:m],
            eigenfunctions=self.eigenfunctions[:m],
            sign_flips=self.sign_flips[:m],
            total=self.total,
        )

    def export(self, json_path, csv_prefix) -> None:
        """JSON spectrum plus one grid CSV file per component."""
        payload = {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "grid_size": self.grid.G,
            "sign_flips": [int(v) for v in self.sign_flips],
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        for k in range(1, self.m + 1):
            write_grid_function_csv(self.phi(k), f"{csv_prefix}_phi{k}.csv")


def centered_trajectories(surfaces: np.ndarray, mean: GridFunction) -> np.ndarray:
    """(n, G^2) trajectories minus ``mean``; ``surfaces`` is (n, G, G)."""
    G = mean.grid.G
    if surfaces.ndim != 3 or surfaces.shape[1:] != (G, G):
        raise ValueError(f"surfaces must have shape (n, {G}, {G})")
    if surfaces.shape[0] < 2:
        raise ValueError("covariance needs at least 2 trajectories")
    return surfaces.reshape(surfaces.shape[0], -1) - mean.flat()[None, :]


@limited_threads(1)
def covariance_field(surfaces: np.ndarray, mean: GridFunction) -> np.ndarray:
    """Empirical covariance of the surfaces around ``mean``, (G^2, G^2).

    (1/n) sum_i (C_i(u) - mean(u)) (C_i(v) - mean(v)) over node pairs. Always
    symmetric positive semidefinite (sum of outer products), whatever center
    is passed; numpy forms ``C^T C`` with a symmetric kernel, so the matrix
    equals its transpose exactly.
    """
    centered = centered_trajectories(surfaces, mean)
    return centered.T @ centered / centered.shape[0]


def _eigensystem(
    grid: Grid2D, evals: np.ndarray, phis: np.ndarray, total: float, truncate_below: float
) -> EigenSystem:
    """Order, clip and sign-normalise an unordered eigenpair set.

    ``phis`` holds one quadrature-normalised eigenfunction per column,
    (G^2, m); ``total`` is the trace of the decomposed matrix. Eigenvalues
    come out nonincreasing, those below ``truncate_below`` clipped to zero.
    Each eigenfunction's sign makes its integral positive; when the integral
    vanishes, its first entry of magnitude above 1e-8 is positive.
    """
    order = np.argsort(evals, kind="stable")[::-1]
    evals = evals[order]
    evals[evals < truncate_below] = 0.0
    m = evals.size
    phis = phis[:, order].T.reshape(m, grid.G, grid.G)
    delta = grid.cell_weight
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
        grid=grid, eigenvalues=evals, eigenfunctions=phis, sign_flips=flips,
        total=total,
    )


@limited_threads(1)
def eigendecompose(
    grid: Grid2D, field: np.ndarray, truncate_below: float = _TRUNCATE_BELOW
) -> EigenSystem:
    """Solve the discretized eigenproblem of a (G^2, G^2) covariance field.

    ``field`` must be symmetric to 1e-10 with no negative diagonal entry;
    it is symmetrised exactly before ``eigh``, which reads one triangle
    only. The operator acts by quadrature, so the symmetric matrix that is
    actually decomposed is cell_weight * field; eigenvector entries are
    rescaled by 1/sqrt(cell_weight) to restore quadrature orthonormality.
    Eigenvalues below ``truncate_below`` are clipped to zero.
    """
    field = np.asarray(field, dtype=float)
    m = grid.G ** 2
    if field.shape != (m, m):
        raise ValueError(f"covariance field must be {m} x {m}")
    asym = np.max(np.abs(field - field.T))
    if asym > 1e-10:
        raise ValueError(f"covariance field asymmetric by {asym:.3g}")
    if np.min(np.diagonal(field)) < -1e-12:
        raise ValueError("negative variance on the diagonal")
    delta = grid.cell_weight
    matrix = delta * (0.5 * (field + field.T))
    evals, evecs = np.linalg.eigh(matrix)
    return _eigensystem(
        grid, evals, evecs / np.sqrt(delta), float(np.trace(matrix)), truncate_below
    )


@dataclass(frozen=True, eq=False)
class _EigenMatrix:
    """The matrix whose leading eigenpairs give the ensemble's, unformed.

    For (n, d) centered trajectories C with n < d it is the n x n Gram
    matrix (cell_weight / n) C C^T, else the d x d matrix cell_weight
    C^T C / n. ``m @ v`` streams C twice and writes no (N, N) array;
    ``form()`` builds the matrix, with the bits the fit has always
    decomposed on each route.
    """

    centered: np.ndarray
    delta: float

    @property
    def gram(self) -> bool:
        return self.centered.shape[0] < self.centered.shape[1]

    @property
    def shape(self) -> tuple:
        N = min(self.centered.shape)
        return (N, N)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        c = self.centered
        w = c @ (v @ c) if self.gram else (c @ v) @ c
        w *= self.delta / c.shape[0]
        return w

    def form(self) -> np.ndarray:
        c = self.centered
        if self.gram:
            return self.delta / c.shape[0] * (c @ c.T)
        return self.delta * (c.T @ c / c.shape[0])


def _matrix_free(N: int, pairs: int) -> bool:
    """Whether the order-N ``_EigenMatrix`` stays unformed for a solve that
    stops once ``pairs`` of its leading eigenpairs have converged.

    Each product then streams the stack twice, so the unformed route pays
    per Lanczos step where the formed one pays once, and its cost follows
    the pairs that must converge. On the fit's Gram matrices over 2601
    columns, one thread (``scripts/eigen_route_sweep.py``), 5 pairs tied
    with forming the matrix at N = 800 (29.8 against 30.2 ms), won from
    N = 1200 on (42 against 58 ms) and lost at N = 600 (22.6 against
    18.3 ms); 1 pair won from N = 600 on. 16 pairs lost up to N = 1200 (72
    against 40 ms at N = 800) and won at N = 2000, and 32 pairs lost at
    every order up to 2000.
    """
    return N >= _MATRIX_FREE and pairs <= _MATRIX_FREE_PAIRS


@limited_threads(1)
def ensemble_eigensystem(
    centered: np.ndarray, grid: Grid2D, count: int, threshold: float | None = None
) -> EigenSystem:
    """The leading ``count`` components of the ensemble covariance operator.

    ``centered`` is ``centered_trajectories(surfaces, center)`` for surfaces
    on ``grid``. Up to rounding, the result is
    ``eigendecompose(grid, covariance_field(surfaces, center)).head(count)``,
    with ``total`` the trace of the covariance operator,
    (cell_weight / n) ||C||_F^2 for the centered trajectories C. With n >= G^2
    trajectories the G^2 x G^2 matrix cell_weight * C^T C / n is decomposed,
    exactly as ``eigendecompose`` forms it. With fewer, the covariance has
    rank at most n, so the n x n Gram matrix (cell_weight / n) C C^T is
    decomposed instead: its eigenvalues are the nonzero ones of the
    covariance operator, and C^T u, rescaled to unit quadrature norm, is the
    eigenfunction of eigenvector u. A direction with C^T u = 0 gets
    eigenvalue 0 and a zero eigenfunction. Only the leading eigenpairs are
    kept (``_blas.leading_eigh``: Lanczos where the matrix order is large
    against the count, numpy's full ``eigh`` elsewhere). Without a
    threshold the system holds min(count, n, G^2) components; past
    min(n, G^2) every eigenvalue is zero.

    Where the order N = min(n, G^2) is large and at most 5 pairs must
    converge (``_matrix_free``: N >= 768, and a count of at most 5 or a
    CVP ``threshold``, whose solve may stop at ``REPORTED`` = 5), the matrix
    is not formed. Lanczos applies it as v -> (cell_weight / n) C (C^T v),
    or (cell_weight / n) C^T (C v) on the covariance route, and ``total`` is
    (cell_weight / n) ||C||_F^2 itself. Only a Lanczos breakdown or an
    exhausted step budget forms the matrix, for the dense ``eigh``.
    Elsewhere the matrix is formed and ``total`` is its trace. ``centered``
    is only read.

    With a CVP ``threshold``, the system holds only the components that
    ``select_K`` and the diagnostics read: those through the threshold's
    crossing plus one, and at least ``REPORTED``, at most ``count``, counted
    on the eigenvalues clipped as here and the exact trace. Lanczos counts
    them on its current Ritz values and stops as soon as they have
    converged as far as they are read: the eigenfunctions of the first K,
    K counted the same way, to the Ritz bound, and the later components for
    their eigenvalues alone, which converge in fewer steps than their
    eigenfunctions (``_blas._converged``). Ritz values interlace from below,
    so their crossing is never before the true one, and ``select_K`` of the
    result reads the same values and gives the same K. The dense route
    counts them on its whole spectrum.
    """
    n = centered.shape[0]
    delta = grid.cell_weight
    matrix = _EigenMatrix(centered, delta)
    snapshots = matrix.gram
    count = min(count, matrix.shape[0])
    if _matrix_free(matrix.shape[0], count if threshold is None else min(count, REPORTED)):
        total = delta / n * float(np.vdot(centered, centered))
    else:
        matrix = matrix.form()
        total = float(np.trace(matrix))
    enough = None
    if threshold is not None:
        def enough(theta):
            clipped = np.where(theta < _TRUNCATE_BELOW, 0.0, theta)
            K = _cvp_count(clipped, total, threshold)
            return max(K + 1, REPORTED), K
    evals, vecs = leading_eigh(matrix, count, enough)
    if not snapshots:
        return _eigensystem(grid, evals, vecs / np.sqrt(delta), total, _TRUNCATE_BELOW)
    # (count, n) @ (n, G^2) reads the trajectories row by row, unlike C^T u
    phis = (vecs.T @ centered).T
    norms = np.sqrt(delta * np.einsum("ij,ij->j", phis, phis))
    live = norms > 0.0
    phis[:, live] /= norms[live]
    evals[~live] = 0.0
    return _eigensystem(grid, evals, phis, total, _TRUNCATE_BELOW)


@limited_threads(1)
def scores(centered: np.ndarray, es: EigenSystem, K: int) -> np.ndarray:
    """Quadrature projections of ``centered_trajectories(surfaces, mean)``, (n, K)."""
    if not (1 <= K <= es.m):
        raise ValueError(f"K={K} out of range 1..{es.m}")
    if centered.ndim != 2 or centered.shape[1] != es.grid.G ** 2:
        raise ValueError(f"centered trajectories must have shape (n, {es.grid.G ** 2})")
    # scaling the (n, K) product, not the trajectories, makes no second (n, G^2) array
    return (centered @ es.phi_flat()[:K].T) * es.grid.cell_weight


def select_K(es: EigenSystem, threshold: float = 0.9) -> int:
    """Smallest K whose share of the total variance ``es.total`` reaches ``threshold``.

    When the positive components of ``es`` do not reach it (the system holds
    only leading components, or rounding and the clipping of eigenvalues
    below 1e-12 leave their sum short of the trace) their count is returned,
    so a threshold of 1.0 keeps every positive component. An all-zero
    spectrum returns 0 (degenerate; callers fall back to the mean surface
    alone).
    """
    if np.any(es.eigenvalues > 0.0) and not (0.0 < threshold <= 1.0):
        raise ValueError("CVP threshold must be in (0, 1]")
    return _cvp_count(es.eigenvalues, es.total, threshold)


def _cvp_count(lam: np.ndarray, total: float, threshold: float) -> int:
    """``select_K`` of nonincreasing eigenvalues ``lam`` with total variance ``total``."""
    positive = lam[lam > 0.0]
    if positive.size == 0:
        return 0
    frac = np.cumsum(positive) / total
    return int(min(np.searchsorted(frac, threshold - 1e-12) + 1, positive.size))


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
