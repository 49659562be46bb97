"""Final conditional copula estimator.

Assembles the whole pipeline: pseudo-observations, empirical partial copula,
per-observation trajectory surfaces, covariance eigendecomposition, component
selection, kernel score regression, and the truncated reconstruction
partial + sum_k alpha_k(x) phi_k, optionally clamped into the
Frechet-Hoeffding envelope.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .conditional import (
    KernelSpec,
    PseudoSample,
    Sample,
    empirical_copula_grid,
    weighted_copula_surfaces,
    nw_weights,
    pseudo_observations,
    rule_of_thumb_bandwidth,
)
from .fpca import (
    EigenSystem,
    ScoreMatrix,
    TrajectoryEnsemble,
    covariance_field,
    eigendecompose,
    scores,
    select_K,
)
from .grid import Grid2D, GridFunction, make_grid, write_grid_function_csv
from .regression import ScoreRegressor, eval_alpha

__all__ = [
    "PipelineConfig",
    "FpcaFit",
    "ConditionalCopulaEstimate",
    "fit_pipeline",
    "estimate_conditional_copula",
    "frechet_project",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the pipeline needs besides the sample itself.

    Bandwidths set to None resolve to the rule of thumb
    sd(X) * n^(-1/5); ``centering`` picks the surface subtracted before the
    covariance step ('partial' = rank-based partial copula, 'ensemble' =
    average of the trajectories, which makes the score columns exactly
    mean-zero).
    """

    grid_size: int = 21
    kernel_family: str = "epanechnikov"
    h: float | None = None
    g1: float | None = None
    g2: float | None = None
    h_alpha: float | None = None
    K: int | None = None  # None -> smallest K whose CVP reaches cvp_threshold
    cvp_threshold: float = 0.9
    centering: str = "partial"
    project: bool = True
    leave_one_out: bool = False

    def __post_init__(self):
        if self.grid_size < 1:
            raise ValueError("grid_size must be >= 1")
        if self.centering not in ("partial", "ensemble"):
            raise ValueError("centering must be 'partial' or 'ensemble'")
        if self.K is None and not (0.0 < self.cvp_threshold <= 1.0):
            raise ValueError("automatic K needs a CVP threshold in (0, 1]")


@dataclass(frozen=True)
class FpcaFit:
    """Sample-level fit, shared by estimates at different x."""

    sample: Sample
    config: PipelineConfig
    grid: Grid2D
    pseudo: PseudoSample
    partial: GridFunction
    ensemble: TrajectoryEnsemble
    center: GridFunction
    eigen: EigenSystem
    K: int
    score_matrix: ScoreMatrix | None
    regressor: ScoreRegressor | None
    bandwidths: dict

    def cvp_attained(self) -> float:
        lam = self.eigen.eigenvalues
        total = lam.sum()
        if total <= 0 or self.K == 0:
            return 0.0
        return float(lam[: self.K].sum() / total)


@dataclass(frozen=True)
class ConditionalCopulaEstimate:
    """Estimated conditional copula surface at one covariate value."""

    x: float
    surface: GridFunction
    K: int
    projected: bool
    alpha: np.ndarray
    diagnostics: dict

    def export(self, json_path, csv_path) -> None:
        meta = {
            "x": self.x,
            "K": self.K,
            "projected": self.projected,
            "alpha": [float(a) for a in self.alpha],
            "grid_csv": str(csv_path),
            **self.diagnostics,
        }
        with open(json_path, "w") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
        write_grid_function_csv(self.surface, csv_path)


def _resolve_bandwidths(s: Sample, cfg: PipelineConfig) -> dict:
    rot = rule_of_thumb_bandwidth(s.x)
    return {
        "h": cfg.h if cfg.h is not None else rot,
        "g1": cfg.g1 if cfg.g1 is not None else rot,
        "g2": cfg.g2 if cfg.g2 is not None else rot,
        "h_alpha": cfg.h_alpha if cfg.h_alpha is not None else rot,
    }


def fit_pipeline(s: Sample, cfg: PipelineConfig) -> FpcaFit:
    """Run the sample-level stages once (everything that does not depend on
    the evaluation point)."""
    s.warn_on_ties()
    grid = make_grid(cfg.grid_size)
    bw = _resolve_bandwidths(s, cfg)
    fam = cfg.kernel_family
    pseudo = pseudo_observations(
        s,
        KernelSpec(family=fam, bandwidth=bw["g1"]),
        KernelSpec(family=fam, bandwidth=bw["g2"]),
        leave_one_out=cfg.leave_one_out,
    )
    partial = empirical_copula_grid(pseudo, grid)
    traj_kernel = KernelSpec(family=fam, bandwidth=bw["h"])
    surfaces = weighted_copula_surfaces(s.x, s, traj_kernel, grid, pseudo)
    ensemble = TrajectoryEnsemble(xs=s.x, surfaces=surfaces, grid=grid)
    center = ensemble.mean_surface() if cfg.centering == "ensemble" else partial
    field = covariance_field(ensemble, center)
    eigen = eigendecompose(field)
    if cfg.K is not None:
        K = select_K(eigen, "fixed", cfg.K)
    else:
        K = select_K(eigen, "cvp", cfg.cvp_threshold)
    K = min(K, int(np.count_nonzero(eigen.eigenvalues > 0.0)))
    score_matrix = None
    regressor = None
    if K > 0:
        score_matrix = scores(ensemble, center, eigen, K)
        regressor = ScoreRegressor(
            xs=s.x,
            scores=score_matrix,
            kernel=KernelSpec(family=fam, bandwidth=bw["h_alpha"]),
        )
    return FpcaFit(
        sample=s,
        config=cfg,
        grid=grid,
        pseudo=pseudo,
        partial=partial,
        ensemble=ensemble,
        center=center,
        eigen=eigen,
        K=K,
        score_matrix=score_matrix,
        regressor=regressor,
        bandwidths=bw,
    )


def evaluate_fit(fit: FpcaFit, x: float) -> ConditionalCopulaEstimate:
    """Truncated reconstruction at x from a precomputed fit."""
    cfg = fit.config
    if fit.K == 0:
        alpha = np.empty(0)
        values = fit.partial.values.copy()
    else:
        # weights must exist at x even when alpha ends up ~0
        nw_weights(x, fit.sample.x, fit.regressor.kernel).require_valid(
            f"at x={x:g}"
        )
        alpha = eval_alpha(fit.regressor, x)
        values = fit.partial.values + np.einsum(
            "k,kab->ab", alpha, fit.eigen.eigenfunctions[: fit.K]
        )
    surface = GridFunction(grid=fit.grid, values=values)
    if cfg.project:
        surface = frechet_project(surface)
    lam = fit.eigen.eigenvalues
    diagnostics = {
        "bandwidths": dict(fit.bandwidths),
        "eigenvalues": [float(v) for v in lam[: max(fit.K, 5)]],
        "cvp_attained": fit.cvp_attained(),
        "degenerate_spectrum": fit.K == 0,
        "kernel_family": cfg.kernel_family,
        "centering": cfg.centering,
        "grid_size": cfg.grid_size,
    }
    return ConditionalCopulaEstimate(
        x=float(x),
        surface=surface,
        K=fit.K,
        projected=cfg.project,
        alpha=alpha,
        diagnostics=diagnostics,
    )


def estimate_conditional_copula(
    x: float, s: Sample, cfg: PipelineConfig | None = None
) -> ConditionalCopulaEstimate:
    """Full pipeline at one evaluation point."""
    cfg = cfg or PipelineConfig()
    return evaluate_fit(fit_pipeline(s, cfg), x)


def frechet_project(f: GridFunction) -> GridFunction:
    """Clamp node values into [max(u+v-1, 0), min(u, v)] (idempotent)."""
    U, V = np.meshgrid(f.grid.nodes, f.grid.nodes, indexing="ij")
    lower = np.maximum(U + V - 1.0, 0.0)
    upper = np.minimum(U, V)
    return GridFunction(grid=f.grid, values=np.clip(f.values, lower, upper))
