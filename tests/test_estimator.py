import json
import tracemalloc
import warnings

import numpy as np
import pytest

from condcopula import estimator
from condcopula.conditional import KernelSpec, PseudoSample, Sample
from condcopula.errors import DegenerateWeightsError
from condcopula.estimator import (
    PipelineConfig,
    _fit_at_points,
    estimate_conditional_copula,
    eval_alpha,
    evaluate_fit,
    fit_from_pseudo,
    fit_pipeline,
    frechet_project,
)
from condcopula.fpca import centered_trajectories, covariance_field, eigendecompose, scores
from condcopula.grid import (
    GridFunction,
    from_callable,
    make_grid,
    sup_distance,
)
from condcopula.simulate import (
    ConditionalModel,
    SyntheticKLModel,
    TauLink,
    sample_conditional,
    synthetic_kl_sample,
    true_conditional_copula,
)
from oracles import read_grid_function_csv, traced_peak_mib, true_surface


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
    assert np.array_equal(est.surface.values, fit.center.values)
    assert est.alpha.size == 0


def test_fixed_k_above_sample_size_clamps_to_positive_count():
    # n=50 < K=100 <= G^2=121: the spectrum holds 50 components, so the fit
    # solves for all 50 rather than K + 1 = 101, and K clamps to the
    # positive ones as it did when all 121 were kept
    _, s = clayton_sample(n=50, seed=12)
    fit = fit_pipeline(s, PipelineConfig(grid_size=11, K=100))
    assert fit.eigen.m == 50
    assert fit.K == np.count_nonzero(fit.eigen.eigenvalues > 0.0)
    assert fit.K > 0


def test_constant_ensemble_falls_back_to_partial_copula():
    # a kernel this wide weights every observation exactly 1.0, so every
    # trajectory equals the partial copula to within 1.1e-16, every
    # eigenvalue around it clips to zero and K = 0
    _, s = clayton_sample(n=60, seed=13)
    cfg = PipelineConfig(grid_size=11, kernel_family="gaussian", h=1e12,
                         project=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_pipeline(s, cfg)
        est = evaluate_fit(fit, 0.5)
    assert np.all(fit.eigen.eigenvalues == 0.0)
    assert est.K == 0
    assert est.diagnostics["degenerate_spectrum"]
    assert est.diagnostics["eigengap"] is None
    assert np.array_equal(est.surface.values, fit.center.values)


def test_reconstruction_is_partial_plus_score_expansion():
    _, s = clayton_sample(n=120, seed=2)
    cfg = PipelineConfig(project=False)
    fit = fit_pipeline(s, cfg)
    if fit.K > 0:
        h_alpha = KernelSpec(cfg.kernel_family, fit.bandwidths["h_alpha"])
        alpha = eval_alpha(0.5, s, fit.scores, h_alpha)
        manual = fit.center.values + np.einsum(
            "k,kab->ab", alpha, fit.eigen.eigenfunctions[: fit.K]
        )
        est = evaluate_fit(fit, 0.5)
        assert np.allclose(est.surface.values, manual, atol=1e-12)


def test_finished_fit_does_not_hold_the_trajectory_stack():
    # the (n, G, G) stack is 14.1 MB here; what the fit keeps (eigenpairs,
    # scores, pseudo-observations, partial copula) comes to about 1.6 MiB
    _, s = clayton_sample(n=4000, seed=0)
    tracemalloc.start()
    try:
        fit = fit_pipeline(s, PipelineConfig(grid_size=21))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.K > 0
    assert held < 8 * 2**20


@pytest.mark.parametrize(
    "n, G, family",
    [(800, 51, "gaussian"), (3000, 21, "epanechnikov"), (200, 101, "epanechnikov"),
     (200, 151, "gaussian")],
)
def test_fit_peak_is_one_stack_plus_the_eigen_matrix(n, G, family):
    # the fit centres the (n, G, G) trajectory stack in place; with a centred
    # copy beside it the first two peaks were 31.9 and 20.3 MiB against bounds
    # of about 23.8 and 14.6 MiB. The surfaces cumulate each block's lattices
    # in place and clip each block's lattices in place, so their temporaries,
    # which set the last two peaks, come to about 34 G^2 floats; with a copy
    # per step they came to 130 G^2 floats and those peaks were 25.8 and
    # 57.7 MiB against bounds of 19.8 and 43.8 MiB
    _, s = clayton_sample(n=n, seed=0)
    cfg = PipelineConfig(grid_size=G, kernel_family=family)
    fit, peak = traced_peak_mib(lambda: fit_pipeline(s, cfg))
    stack_mib = n * G**2 * 8 / 2**20
    eigen_mib = min(n, G**2) ** 2 * 8 / 2**20
    assert fit.K > 0
    assert peak < stack_mib + eigen_mib + max(3.0, 50 * G**2 * 8 / 2**20)


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
        xs, surfaces, _ = synthetic_kl_sample(model, 1000, seed=900 + rep)
        es = eigendecompose(grid, covariance_field(surfaces, model.mean))
        xi = scores(centered_trajectories(surfaces, model.mean), es, K=1)
        alpha = eval_alpha(0.5, Sample(y1=xs, y2=xs, x=xs), xi, KernelSpec(bandwidth=0.1))
        est = GridFunction(
            grid=grid,
            values=model.mean.values + alpha[0] * es.eigenfunctions[0],
        )
        errs.append(sup_distance(est, true_surface(model, 0.5)))
    assert np.median(errs) <= 0.05


def test_cvp_attained_reaches_threshold():
    _, s = clayton_sample(n=250, seed=3)
    fit = fit_pipeline(s, PipelineConfig(cvp_threshold=0.9))
    assert fit.cvp_attained() >= 0.9 - 1e-12


def test_degenerate_weights_at_far_x():
    _, s = clayton_sample(n=100, seed=4)
    cfg = PipelineConfig(h_alpha=0.05)
    fit = fit_pipeline(s, cfg)
    with pytest.raises(DegenerateWeightsError,
                       match=r"at x=50; enlarge the bandwidth h_alpha \(--h-alpha\)$"):
        evaluate_fit(fit, 50.0)


def test_diagnostics_payload():
    _, s = clayton_sample(n=150, seed=6)
    est = estimate_conditional_copula(0.4, s, PipelineConfig())
    d = est.diagnostics
    assert set(d["bandwidths"]) == {"h", "g1", "g2", "h_alpha"}
    assert d["kernel_family"] == "epanechnikov"
    assert d["grid_size"] == 21
    assert not d["degenerate_spectrum"]


def test_eigengap_diagnostic():
    _, s = clayton_sample(n=150, seed=6)
    fit = fit_pipeline(s, PipelineConfig())
    lam = fit.eigen.eigenvalues
    assert 0 < fit.K < fit.eigen.m and lam[fit.K] > 0.0
    gap = evaluate_fit(fit, 0.4).diagnostics["eigengap"]
    assert gap == lam[fit.K - 1] / lam[fit.K]
    assert gap >= 1.0
    no_components = fit_pipeline(s, PipelineConfig(K=0))
    assert evaluate_fit(no_components, 0.4).diagnostics["eigengap"] is None
    # every positive component kept: lambda_{K+1} is zero or absent. The
    # fit above holds only its leading components, so K asks for all 150
    all_components = fit_pipeline(s, PipelineConfig(K=s.n))
    assert all_components.eigen.m == s.n
    lam_all = all_components.eigen.eigenvalues
    assert np.all(np.abs(lam_all[: fit.eigen.m] - lam) <= 1e-12 * lam[0])
    assert all_components.K == np.count_nonzero(lam_all > 0.0) > fit.eigen.m
    assert evaluate_fit(all_components, 0.4).diagnostics["eigengap"] is None


def test_export_round_trip(tmp_path):
    _, s = clayton_sample(n=150, seed=7)
    est = estimate_conditional_copula(0.4, s, PipelineConfig())
    jpath = tmp_path / "est.json"
    cpath = tmp_path / "est.grid.csv"
    est.export(jpath, cpath)
    meta = json.loads(jpath.read_text())
    assert meta["x"] == 0.4
    assert "grid_csv" not in meta  # no output path: renaming keeps the bytes
    assert meta["K"] == est.K
    back = read_grid_function_csv(cpath)
    assert np.array_equal(back.values, est.surface.values)


def test_config_validation():
    with pytest.raises(ValueError, match="grid_size"):
        PipelineConfig(grid_size=0)
    with pytest.raises(ValueError, match="CVP"):
        PipelineConfig(cvp_threshold=1.5)


@pytest.mark.parametrize(
    "bad",
    [{"K": -1}, {"K": 1.5}, {"K": True}, {"grid_size": 7.5}, {"grid_size": True},
     {"h": -0.1}, {"g1": 0.0}, {"g2": -2.0},
     {"h_alpha": 0.0}, {"h": float("nan")}, {"h": np.inf}, {"g1": np.inf},
     {"g2": np.inf}, {"h_alpha": np.inf}],
)
def test_bad_config_rejected_before_any_stage_runs(bad, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("pseudo_observations ran before the config check")

    monkeypatch.setattr(estimator, "pseudo_observations", fail)
    _, s = clayton_sample(n=50)
    name = next(iter(bad))
    with pytest.raises(ValueError, match=f"{name} must be"):
        fit_pipeline(s, PipelineConfig(**bad))


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


def test_fit_reads_the_pseudo_observations_only_through_their_ranks(monkeypatch):
    # halving is exact and keeps every order, so nothing a fit or an
    # evaluation returns may change
    _, s = clayton_sample(n=600, seed=4)
    cfg = PipelineConfig()
    base = fit_pipeline(s, cfg)
    real = estimator.pseudo_observations

    def halved(*args):
        p = real(*args)
        return PseudoSample(eps1=0.5 * p.eps1, eps2=0.5 * p.eps2)

    monkeypatch.setattr(estimator, "pseudo_observations", halved)
    fit = fit_pipeline(s, cfg)
    assert np.array_equal(fit.pseudo.eps1, 0.5 * base.pseudo.eps1)
    assert np.array_equal(fit.center.values, base.center.values)
    assert np.array_equal(fit.eigen.eigenvalues, base.eigen.eigenvalues)
    assert np.array_equal(fit.eigen.eigenfunctions, base.eigen.eigenfunctions)
    assert fit.eigen.total == base.eigen.total
    assert np.array_equal(fit.scores, base.scores)
    for x in np.linspace(0.05, 0.95, 19):
        assert np.array_equal(evaluate_fit(fit, x).surface.values,
                              evaluate_fit(base, x).surface.values)


# (n, G): n < G^2 takes the Gram route, n >= G^2 the covariance route
ROUTE_SHAPES = ((150, 15), (400, 15), (300, 21), (500, 9))


@pytest.mark.parametrize("n, G", ROUTE_SHAPES)
@pytest.mark.parametrize("family", ["epanechnikov", "gaussian", "uniform"])
@pytest.mark.parametrize("K", [None, 3])
def test_fit_from_pseudo_gives_the_bits_of_fit_pipeline(n, G, family, K):
    _, s = clayton_sample(n=n, seed=n + G)
    cfg = PipelineConfig(grid_size=G, kernel_family=family, K=K)
    fit = fit_pipeline(s, cfg)
    refit = fit_from_pseudo(s, fit.pseudo, cfg)
    assert refit.K == fit.K
    assert np.array_equal(refit.center.values, fit.center.values)
    assert np.array_equal(refit.eigen.eigenvalues, fit.eigen.eigenvalues)
    assert np.array_equal(refit.eigen.eigenfunctions, fit.eigen.eigenfunctions)
    assert refit.eigen.total == fit.eigen.total
    assert np.array_equal(refit.scores, fit.scores)
    assert refit.scores.shape == (n, fit.K)


def test_fit_from_pseudo_refuses_a_pseudo_sample_of_another_length():
    _, s = clayton_sample(n=60, seed=1)
    fit = fit_pipeline(s, PipelineConfig(grid_size=9))
    _, other = clayton_sample(n=61, seed=1)
    with pytest.raises(ValueError, match="pseudo-sample has 60 records, the sample 61"):
        fit_from_pseudo(other, fit.pseudo, PipelineConfig(grid_size=9))


@pytest.mark.parametrize("n, G", ROUTE_SHAPES)
@pytest.mark.parametrize("decimals", [1, 2])
@pytest.mark.parametrize("family", ["epanechnikov", "gaussian", "uniform"])
@pytest.mark.parametrize("K", [None, 3])
def test_weighted_points_give_the_repeated_row_fit_on_a_tied_covariate(n, G, decimals,
                                                                      family, K):
    # tied X_i have the same weights and so the same surface: one surface per
    # distinct x, counted as often as it occurs, is the repeated-row ensemble
    _, s = clayton_sample(n=n, seed=5)
    tied = Sample(y1=s.y1, y2=s.y2, x=np.round(s.x, decimals))
    cfg = PipelineConfig(grid_size=G, kernel_family=family, K=K, project=False)
    fit = fit_pipeline(tied, cfg)
    points, row_of, counts = np.unique(tied.x, return_inverse=True, return_counts=True)
    assert points.size < n
    staged = _fit_at_points(tied, fit.pseudo, cfg, points, counts, row_of)
    assert staged.K == fit.K
    assert staged.scores.shape == fit.scores.shape
    for x in (0.1, 0.5, 0.9):
        gap = evaluate_fit(staged, x).surface.values - evaluate_fit(fit, x).surface.values
        assert np.max(np.abs(gap)) <= 1e-12


@pytest.mark.parametrize("constant", [(1,), (2,), (1, 2)])
def test_a_constant_margin_is_refused_by_name(constant):
    _, s = clayton_sample(n=80, seed=3)
    y = {j: np.full(s.n, 0.25) if j in constant else s.margin(j) for j in (1, 2)}
    with pytest.raises(ValueError, match=f"margin y{constant[0]} needs at least two"):
        fit_pipeline(Sample(y1=y[1], y2=y[2], x=s.x), PipelineConfig(grid_size=9))


def test_a_constant_covariate_gives_the_partial_copula():
    # every window of a constant x is the whole sample with equal weights, so
    # every trajectory is the partial copula and K = 0; the rule of thumb
    # then takes h = n^(-1/5), as its sd would be the rounding of the mean
    _, s = clayton_sample(n=120, seed=6)
    for value in (0.0, 0.1, -3e300):
        flat = Sample(y1=s.y1, y2=s.y2, x=np.full(s.n, value))
        fit = fit_pipeline(flat, PipelineConfig(grid_size=9, project=False))
        assert fit.bandwidths == dict.fromkeys(("h", "g1", "g2", "h_alpha"), 120 ** (-0.2))
        assert fit.K == 0
        assert np.array_equal(evaluate_fit(fit, value).surface.values, fit.center.values)
