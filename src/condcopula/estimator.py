"""Final conditional copula estimator.

Assembles the whole pipeline: pseudo-observations, empirical partial copula,
per-observation trajectory surfaces, covariance eigendecomposition around the
partial copula, component selection, kernel score regression, and the
truncated reconstruction partial + sum_k alpha_k(x) phi_k, optionally clamped
into the Frechet-Hoeffding envelope.

``fit_pipeline`` computes the pseudo-observations and hands them to
``fit_from_pseudo``, the entry point for refits on one set of them. Every
stage after them runs in one staged fit, ``_fit_at_points``, which takes the
trajectory surfaces at weighted points: point j stands for m_j rows of the
sample, its centred surface is scaled by sqrt(m_j d / n) before the eigen
solve of the d rows, and its scores are unscaled and given to each of its
rows. ``fit_from_pseudo`` takes a surface at every X_i (the sample's own
covariate array, all counts 1, the identity map), with the bits of the
unweighted fit.

The score regression ``eval_alpha`` weighs by ``conditional.window_weights``
with its own bandwidth, the rule of thumb or ``--h-alpha``; there is no
cross-validated selector (ROADMAP item 4 plans a leave-window-out one).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._blas import limited_threads
from .conditional import (
    KernelSpec,
    PseudoSample,
    Sample,
    empirical_copula_grid,
    weighted_copula_surfaces,
    pseudo_observations,
    rule_of_thumb_bandwidth,
    window_weights,
)
from .errors import DegenerateWeightsError, require_integer
from .fpca import (
    REPORTED,
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
    make_grid,
    write_grid_function_csv,
)

__all__ = [
    "PipelineConfig",
    "FpcaFit",
    "ConditionalCopulaEstimate",
    "fit_pipeline",
    "fit_from_pseudo",
    "eval_alpha",
    "estimate_conditional_copula",
    "frechet_project",
]

# the bandwidths of a config, in the order the diagnostics list them
_BANDWIDTHS = ("h", "g1", "g2", "h_alpha")
# the pairs an automatic K's Lanczos attempt holds; the CVP picks K = 1 to 8
# on typical fits, and a crossing past them is counted on a dense solve
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
        require_integer("grid_size", self.grid_size, 1)
        if self.K is None and not (0.0 < self.cvp_threshold <= 1.0):
            raise ValueError("automatic K needs a CVP threshold in (0, 1]")
        if self.K is not None:
            require_integer("K", self.K, 0)
        for name in _BANDWIDTHS:
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise ValueError(f"bandwidth {name} must be finite and positive, got {value!r}")


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    return {name: rot if getattr(cfg, name) is None else getattr(cfg, name) for name in _BANDWIDTHS}


def fit_pipeline(s: Sample, cfg: PipelineConfig) -> FpcaFit:
    """Run the sample-level stages once (everything that does not depend on
    the evaluation point): the pseudo-observations, then ``fit_from_pseudo``."""
    s.check_margins()
    bw = _resolve_bandwidths(s, cfg)
    k1, k2 = (KernelSpec(cfg.kernel_family, bw[g]) for g in ("g1", "g2"))
    return fit_from_pseudo(s, pseudo_observations(s, k1, k2), cfg)


def fit_from_pseudo(s: Sample, pseudo: PseudoSample, cfg: PipelineConfig) -> FpcaFit:
    """The stages after the pseudo-observations, with a trajectory at every X_i;
    on a fit's own ``pseudo`` it gives the bits of ``fit_pipeline(s, cfg)``.
    The fit reports the g1 and g2 of ``cfg``, not those ``pseudo`` came from."""
    if pseudo.n != s.n:
        raise ValueError(f"pseudo-sample has {pseudo.n} records, the sample {s.n}")
    return _fit_at_points(s, pseudo, cfg, s.x, np.ones(s.n), np.arange(s.n))


def _fit_at_points(s, pseudo, cfg, points, counts, row_of) -> FpcaFit:
    """Point j stands for ``counts[j]`` rows, row i for point ``row_of[i]``.

    Centred row j is scaled by sqrt(m_j d / n), so the eigen solve of the d
    rows decomposes (delta / n) sum_j m_j c_j c_j^T; the scores are unscaled.
    """
    grid = make_grid(cfg.grid_size)
    bw = _resolve_bandwidths(s, cfg)
    center = empirical_copula_grid(pseudo, grid)
    traj_kernel = KernelSpec(family=cfg.kernel_family, bandwidth=bw["h"])
    surfaces = weighted_copula_surfaces(points, s, traj_kernel, grid, pseudo)
    # a view of the stack, centred and scaled in place: the stack is the
    # fit's largest array, and nothing reads it uncentred
    centered = surfaces.reshape(len(points), -1)
    centered -= center.flat()
    factor = np.sqrt(counts * len(points) / s.n)[:, None]
    centered *= factor
    if cfg.K is not None:
        # lambda_1..lambda_5 and lambda_{K+1} feed the diagnostics; a K
        # beyond the positive eigenvalues is clamped to their count
        eigen = ensemble_eigensystem(centered, grid, max(cfg.K + 1, REPORTED))
        K = min(cfg.K, int(np.count_nonzero(eigen.eigenvalues > 0.0)))
    else:
        # the solve holds the components K and the diagnostics read
        eigen = ensemble_eigensystem(centered, grid, _LEADING, cfg.cvp_threshold)
        K = select_K(eigen, cfg.cvp_threshold)
    xi = scores(centered, eigen, K) / factor if K > 0 else np.empty((len(points), 0))
    return FpcaFit(
        sample=s,
        config=cfg,
        pseudo=pseudo,
        center=center,
        eigen=eigen,
        K=K,
        scores=xi[row_of],
        bandwidths=bw,
    )


@limited_threads(1)
def eval_alpha(x: float, s: Sample, scores: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """NW regression estimate of each score's conditional mean at x, a length-K array.

    ``scores`` is (n, K), one row per observation of ``s``, else ``ValueError``.
    The window weights at x go into a zero row of length n: the product then
    has the bits of the dense weights, which a window-only product lacks. One
    BLAS thread gives the same bits at any thread count.
    """
    [(_, union, w)] = window_weights([x], s, kernel)
    row = np.zeros(s.n)
    row[union] = w[0]
    return row @ scores


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
        try:  # the only stage that can leave x without kernel mass
            alpha = eval_alpha(x, fit.sample, fit.scores, h_alpha)
        except DegenerateWeightsError as exc:
            raise DegenerateWeightsError(f"{exc} h_alpha (--h-alpha)") from None
        values = fit.center.values + np.einsum(
            "k,kab->ab", alpha, fit.eigen.eigenfunctions[: fit.K]
        )
    surface = GridFunction(grid=fit.center.grid, values=values)
    if cfg.project:
        surface = frechet_project(surface)
    lam = fit.eigen.eigenvalues
    diagnostics = {
        "bandwidths": dict(fit.bandwidths),
        "eigenvalues": [float(v) for v in lam[: max(fit.K, REPORTED)]],
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
    lower, upper = f.grid.frechet_bounds
    return GridFunction(grid=f.grid, values=np.clip(f.values, lower, upper))
