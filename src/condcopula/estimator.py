"""Final conditional copula estimator.

Assembles the whole pipeline: pseudo-observations, empirical partial copula,
per-observation trajectory surfaces, covariance eigendecomposition around the
partial copula, component selection, kernel score regression, and the
truncated reconstruction partial + sum_k alpha_k(x) phi_k, optionally clamped
into the Frechet-Hoeffding envelope.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .conditional import (
    KernelSpec,
    PseudoSample,
    Sample,
    empirical_copula_grid,
    weighted_copula_surfaces,
    pseudo_observations,
    rule_of_thumb_bandwidth,
)
from .fpca import (
    EigenSystem,
    # perfbench/run.py wraps these two where this module looks them up
    covariance_field,  # noqa: F401
    eigendecompose,  # noqa: F401
    ensemble_eigensystem,
    scores,
    select_K,
)
from .grid import (
    GridFunction,
    from_callable,
    make_grid,
    write_grid_function_csv,
)
from .regression import eval_alpha

__all__ = [
    "PipelineConfig",
    "FpcaFit",
    "ConditionalCopulaEstimate",
    "fit_pipeline",
    "estimate_conditional_copula",
    "frechet_project",
]

# leading components solved for under an automatic K; the CVP picks K = 1
# to 8 on typical fits, and a threshold these miss gets the whole spectrum
_LEADING = 16


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the pipeline needs besides the sample itself.

    Bandwidths set to None resolve to the rule of thumb
    sd(X) * n^(-1/5). Each pseudo-observation includes its own observation
    in its weighted ECDF.
    """

    grid_size: int = 21
    kernel_family: str = "epanechnikov"
    h: float | None = None
    g1: float | None = None
    g2: float | None = None
    h_alpha: float | None = None
    K: int | None = None  # None -> smallest K whose CVP reaches cvp_threshold
    cvp_threshold: float = 0.9
    project: bool = True

    def __post_init__(self):
        if self.grid_size < 1:
            raise ValueError("grid_size must be >= 1")
        if self.K is None and not (0.0 < self.cvp_threshold <= 1.0):
            raise ValueError("automatic K needs a CVP threshold in (0, 1]")
        K = self.K
        if K is not None and not (isinstance(K, numbers.Integral) and K >= 0):
            raise ValueError(f"K must be a non-negative integer or None, got {K!r}")
        for name in ("h", "g1", "g2", "h_alpha"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise ValueError(f"bandwidth {name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class FpcaFit:
    """Sample-level fit, shared by estimates at different x. The spectrum,
    the scores and the reconstruction are all centred at the partial copula
    ``center``; the (n, G, G) trajectory surfaces are not kept. ``eigen``
    holds the leading components the fit reads and the total variance."""

    sample: Sample
    config: PipelineConfig
    pseudo: PseudoSample
    center: GridFunction
    eigen: EigenSystem
    K: int
    scores: np.ndarray  # (n, K)
    bandwidths: dict

    def cvp_attained(self) -> float:
        total = self.eigen.total
        if total <= 0 or self.K == 0:
            return 0.0
        return float(self.eigen.eigenvalues[: self.K].sum() / total)

    def eigengap(self) -> float | None:
        """lambda_K / lambda_{K+1}; None when K=0 or lambda_{K+1} is zero or absent."""
        lam = self.eigen.eigenvalues
        if self.K == 0 or self.K >= lam.size or lam[self.K] == 0.0:
            return None
        return float(lam[self.K - 1] / lam[self.K])


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
    )
    center = empirical_copula_grid(pseudo, grid)
    traj_kernel = KernelSpec(family=fam, bandwidth=bw["h"])
    surfaces = weighted_copula_surfaces(s.x, s, traj_kernel, grid, pseudo)
    # a view of the stack, centred in place: the stack is the fit's largest
    # array, and nothing reads it uncentred
    centered = surfaces.reshape(s.n, -1)
    centered -= center.flat()
    m = min(s.n, grid.G**2)  # the spectrum's length; the rest of it is zero
    if cfg.K is not None:
        # lambda_1..lambda_5 and lambda_{K+1} feed the diagnostics; a K
        # beyond the positive eigenvalues is clamped to their count
        eigen = ensemble_eigensystem(centered, grid, max(cfg.K + 1, 5))
        K = min(cfg.K, int(np.count_nonzero(eigen.eigenvalues > 0.0)))
    else:
        eigen = ensemble_eigensystem(centered, grid, _LEADING)
        K = select_K(eigen, cfg.cvp_threshold)
        if K == eigen.m < m:
            # the threshold, or lambda_{K+1}, lies past the leading components
            eigen = ensemble_eigensystem(centered, grid, m)
            K = select_K(eigen, cfg.cvp_threshold)
    xi = scores(centered, eigen, K) if K > 0 else np.empty((s.n, 0))
    return FpcaFit(
        sample=s,
        config=cfg,
        pseudo=pseudo,
        center=center,
        eigen=eigen,
        K=K,
        scores=xi,
        bandwidths=bw,
    )


def evaluate_fit(fit: FpcaFit, x: float) -> ConditionalCopulaEstimate:
    """Truncated reconstruction center + sum_k alpha_k(x) phi_k at x."""
    if not np.isfinite(x):
        raise ValueError(f"evaluation point x must be finite, got {x}")
    cfg = fit.config
    if fit.K == 0:
        alpha = np.empty(0)
        values = fit.center.values.copy()
    else:
        h_alpha = KernelSpec(cfg.kernel_family, fit.bandwidths["h_alpha"])
        alpha = eval_alpha(x, fit.sample.x, fit.scores, h_alpha)
        values = fit.center.values + np.einsum(
            "k,kab->ab", alpha, fit.eigen.eigenfunctions[: fit.K]
        )
    surface = GridFunction(grid=fit.center.grid, values=values)
    if cfg.project:
        surface = frechet_project(surface)
    lam = fit.eigen.eigenvalues
    diagnostics = {
        "bandwidths": dict(fit.bandwidths),
        "eigenvalues": [float(v) for v in lam[: max(fit.K, 5)]],
        "cvp_attained": fit.cvp_attained(),
        "eigengap": fit.eigengap(),
        "degenerate_spectrum": fit.K == 0,
        "kernel_family": cfg.kernel_family,
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
    lower = from_callable(f.grid, lambda u, v: np.maximum(u + v - 1.0, 0.0)).values
    upper = from_callable(f.grid, np.minimum).values
    return GridFunction(grid=f.grid, values=np.clip(f.values, lower, upper))
