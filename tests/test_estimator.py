import json

import numpy as np
import pytest

from condcopula.conditional import KernelSpec
from condcopula.errors import DegenerateWeightsError
from condcopula.estimator import (
    PipelineConfig,
    estimate_conditional_copula,
    evaluate_fit,
    fit_pipeline,
    frechet_project,
)
from condcopula.fpca import covariance_field, eigendecompose, scores
from condcopula.grid import (
    GridFunction,
    from_callable,
    make_grid,
    read_grid_function_csv,
    sup_distance,
)
from condcopula.regression import ScoreRegressor, eval_alpha
from condcopula.simulate import (
    ConditionalModel,
    SyntheticKLModel,
    TauLink,
    sample_conditional,
    synthetic_kl_sample,
    true_conditional_copula,
)


def clayton_sample(n=300, seed=0):
    model = ConditionalModel(
        family="clayton", link=TauLink(form="sine", a=0.4, b=0.25)
    )
    s, _ = sample_conditional(model, n, seed)
    return model, s


def test_fixed_k_zero_reduces_to_partial_copula():
    _, s = clayton_sample()
    cfg = PipelineConfig(K=0, project=False)
    fit = fit_pipeline(s, cfg)
    est = evaluate_fit(fit, 0.5)
    assert est.K == 0
    assert np.array_equal(est.surface.values, fit.partial.values)
    assert est.alpha.size == 0


def test_reconstruction_is_partial_plus_score_expansion():
    _, s = clayton_sample(n=120, seed=2)
    cfg = PipelineConfig(project=False)
    fit = fit_pipeline(s, cfg)
    if fit.K > 0:
        alpha = eval_alpha(fit.regressor, 0.5)
        manual = fit.partial.values + np.einsum(
            "k,kab->ab", alpha, fit.eigen.eigenfunctions[: fit.K]
        )
        est = evaluate_fit(fit, 0.5)
        assert np.allclose(est.surface.values, manual, atol=1e-12)


def test_estimate_deterministic():
    _, s = clayton_sample(n=200, seed=5)
    cfg = PipelineConfig()
    a = estimate_conditional_copula(0.5, s, cfg)
    b = estimate_conditional_copula(0.5, s, cfg)
    assert a.surface.values.tobytes() == b.surface.values.tobytes()
    assert a.K == b.K


def test_estimate_accuracy_moderate_sample():
    model, s = clayton_sample(n=500, seed=1)
    est = estimate_conditional_copula(0.5, s, PipelineConfig())
    truth = true_conditional_copula(model, 0.5, make_grid(21))
    assert sup_distance(est.surface, truth) <= 0.1


def test_oracle_rank_one_model_median_error():
    # single-component synthetic model with oracle trajectories and oracle
    # mean: FPCA + score regression should recover C_x = mean + alpha(x) phi
    grid = make_grid(15)
    U, V = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    model = SyntheticKLModel(
        grid=grid,
        mean=GridFunction(grid=grid, values=U * V),
        eigenvalues=(0.03,),
        frequencies=((1, 1),),
        alphas=(TauLink(form="sine", a=0.0, b=0.2),),
        noise_sd=(0.1,),
    )
    errs = []
    for rep in range(50):
        ens, _ = synthetic_kl_sample(model, 1000, seed=900 + rep)
        es = eigendecompose(covariance_field(ens, model.mean))
        xi = scores(ens, model.mean, es, K=1)
        reg = ScoreRegressor(
            xs=ens.xs, scores=xi, kernel=KernelSpec(bandwidth=0.1)
        )
        alpha = eval_alpha(reg, 0.5)
        est = GridFunction(
            grid=grid,
            values=model.mean.values + alpha[0] * es.eigenfunctions[0],
        )
        errs.append(sup_distance(est, model.true_surface(0.5)))
    assert np.median(errs) <= 0.05


def test_cvp_attained_reaches_threshold():
    _, s = clayton_sample(n=250, seed=3)
    fit = fit_pipeline(s, PipelineConfig(cvp_threshold=0.9))
    assert fit.cvp_attained() >= 0.9 - 1e-12


def test_degenerate_weights_at_far_x():
    _, s = clayton_sample(n=100, seed=4)
    cfg = PipelineConfig(h_alpha=0.05)
    fit = fit_pipeline(s, cfg)
    with pytest.raises(DegenerateWeightsError):
        evaluate_fit(fit, 50.0)


def test_diagnostics_payload():
    _, s = clayton_sample(n=150, seed=6)
    est = estimate_conditional_copula(0.4, s, PipelineConfig())
    d = est.diagnostics
    assert set(d["bandwidths"]) == {"h", "g1", "g2", "h_alpha"}
    assert d["kernel_family"] == "epanechnikov"
    assert d["grid_size"] == 21
    assert not d["degenerate_spectrum"]


def test_export_round_trip(tmp_path):
    _, s = clayton_sample(n=150, seed=7)
    est = estimate_conditional_copula(0.4, s, PipelineConfig())
    jpath = tmp_path / "est.json"
    cpath = tmp_path / "est.grid.csv"
    est.export(jpath, cpath)
    meta = json.loads(jpath.read_text())
    assert meta["x"] == 0.4
    assert meta["K"] == est.K
    back = read_grid_function_csv(cpath)
    assert np.array_equal(back.values, est.surface.values)


def test_config_validation():
    with pytest.raises(ValueError, match="grid_size"):
        PipelineConfig(grid_size=0)
    with pytest.raises(ValueError, match="centering"):
        PipelineConfig(centering="median")
    with pytest.raises(ValueError, match="CVP"):
        PipelineConfig(cvp_threshold=1.5)


def test_ensemble_centering_supported():
    _, s = clayton_sample(n=150, seed=8)
    est = estimate_conditional_copula(
        0.5, s, PipelineConfig(centering="ensemble")
    )
    assert est.surface.values.min() >= 0.0


# ------------------------------------------------------- Frechet projection


def test_projection_clamps_upper_bound():
    g = make_grid(4)  # nodes include 0.75 at index 2? nodes: .125,.375,.625,.875
    vals = np.minimum.outer(g.nodes, g.nodes)  # true upper bound
    vals = vals.copy()
    vals[2, 2] = 0.8  # above min(0.625, 0.625)
    proj = frechet_project(GridFunction(grid=g, values=vals))
    assert proj.values[2, 2] == pytest.approx(0.625)


def test_projection_clamps_lower_bound():
    g = make_grid(2)
    vals = np.array([[-0.1, 0.0], [0.0, 0.6]])
    proj = frechet_project(GridFunction(grid=g, values=vals))
    assert proj.values[0, 0] == 0.0
    # node (0.75, 0.75): lower bound is 0.5
    assert proj.values[1, 1] == 0.6


def test_projection_fixes_independence_surface():
    f = from_callable(make_grid(9), lambda u, v: u * v)
    assert np.array_equal(frechet_project(f).values, f.values)


def test_projection_idempotent_and_improving():
    rng = np.random.default_rng(15)
    g = make_grid(11)
    f = GridFunction(grid=g, values=np.clip(
        from_callable(g, lambda u, v: u * v).values
        + 0.3 * rng.normal(size=(11, 11)), -1, 2))
    once = frechet_project(f)
    twice = frechet_project(once)
    assert np.array_equal(once.values, twice.values)
    truth = from_callable(g, lambda u, v: u * v)
    assert sup_distance(once, truth) <= sup_distance(f, truth) + 1e-15
