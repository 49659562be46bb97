"""Conditional copula estimation via functional principal components."""

__version__ = "0.1.0"

from .conditional import (
    KernelSpec,
    PseudoSample,
    Sample,
    WeightVector,
    weighted_copula_trajectory,
    nw_weights,
    pseudo_observations,
)
from .errors import DegenerateSpectrumError, DegenerateWeightsError
from .estimator import (
    ConditionalCopulaEstimate,
    PipelineConfig,
    estimate_conditional_copula,
    frechet_project,
)
from .fpca import (
    CovarianceField,
    EigenSystem,
    ScoreMatrix,
    TrajectoryEnsemble,
    covariance_field,
    eigendecompose,
    scores,
    select_K,
)
from .grid import Grid2D, GridFunction, inner_product, make_grid, sup_distance
from .simulate import (
    ConditionalModel,
    CopulaModel,
    SyntheticKLModel,
    TauLink,
    copula_cdf,
    sample_conditional,
    synthetic_kl_sample,
    tau_to_theta,
    true_conditional_copula,
)
