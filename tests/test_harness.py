import json

import numpy as np
import pytest

from condcopula import harness
from condcopula.harness import (
    ExperimentConfig,
    benchmark_vs_baseline,
    bridge_covariance_experiment,
    build_conditional_model,
    build_kl_model,
    consistency_experiment,
    eigen_perturbation_experiment,
    ks_uniform_statistic,
    rep_seed,
    uniformity_and_gap_experiment,
)


def small_consistency_cfg(**kw):
    base = dict(
        experiment="consistency",
        model={"family": "clayton", "link": "sine:0.4,0.25"},
        n_ladder=(100, 200),
        replications=3,
        seed=11,
        eval_points=(0.5,),
        grid_size=15,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="ladder"):
        ExperimentConfig(experiment="x", n_ladder=(200, 100))
    with pytest.raises(ValueError, match="replications"):
        ExperimentConfig(experiment="x", replications=0)


def test_config_digest_depends_on_seed():
    a = small_consistency_cfg()
    assert small_consistency_cfg().digest() == a.digest()
    c = small_consistency_cfg(seed=12)
    assert c.digest() != a.digest()


def test_rep_seed_distinct():
    seeds = {rep_seed(0, s, r) for s in range(4) for r in range(200)}
    assert len(seeds) == 800


def test_ks_statistic_known_values():
    # single observation at 0.3: D = max(1 - 0.3, 0.3 - 0) = 0.7
    assert ks_uniform_statistic(np.array([0.3])) == pytest.approx(0.7)
    grid = (np.arange(1, 101) - 0.5) / 100
    assert ks_uniform_statistic(grid) == pytest.approx(0.005)


def test_consistency_report_reproducible():
    cfg = small_consistency_cfg()
    r1 = consistency_experiment(cfg)
    r2 = consistency_experiment(cfg)
    assert r1.to_json() == r2.to_json()
    assert r1.metrics == r2.metrics


def test_failed_replications_fail_the_verdict():
    # a tiny score-regression bandwidth leaves the evaluation point without
    # kernel mass in most replications; the survivors alone would pass
    cfg = small_consistency_cfg(estimator={"h_alpha": 0.004}, replications=10,
                                grid_size=11)
    report = consistency_experiment(cfg)
    assert len(report.failures) == 8
    assert all("degenerate weights" in f["error"] for f in report.failures)
    assert report.checks["no failed replications"] is False
    assert report.passed is False
    assert "failed replications: 8" in report.to_text()


def test_non_numerical_error_in_a_replication_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken sampler")

    monkeypatch.setattr(harness, "sample_conditional", broken)
    with pytest.raises(ValueError, match="broken sampler"):
        consistency_experiment(small_consistency_cfg())


def test_consistency_independence_k0_matches_partial_error():
    # with K forced to 0 the estimator is exactly the partial copula, so the
    # reported errors equal the partial-copula errors
    cfg = ExperimentConfig(
        experiment="consistency",
        model={"family": "independence", "link": "constant:0.0"},
        n_ladder=(100, 200),
        replications=3,
        seed=3,
        estimator={"K": 0},
        eval_points=(0.5,),
        grid_size=11,
    )
    report = consistency_experiment(cfg)
    from condcopula.conditional import (
        KernelSpec,
        empirical_copula_grid,
        pseudo_observations,
        rule_of_thumb_bandwidth,
    )
    from condcopula.grid import from_callable, make_grid, sup_distance
    from condcopula.simulate import sample_conditional

    model = build_conditional_model(cfg.model)
    grid = make_grid(11)
    truth = from_callable(grid, lambda u, v: u * v)
    n = 100
    sample, _ = sample_conditional(model, n, rep_seed(3, 0, 0))
    g = KernelSpec(bandwidth=rule_of_thumb_bandwidth(sample.x))
    partial = empirical_copula_grid(pseudo_observations(sample, g, g), grid)
    assert report.raw["sup_error"][100][0] == pytest.approx(
        sup_distance(partial, truth), abs=1e-12
    )


def test_bridge_requires_constant_link():
    cfg = ExperimentConfig(
        experiment="bridge",
        model={"family": "clayton", "link": "sine:0.4,0.25"},
        replications=2,
    )
    with pytest.raises(ValueError, match="constant"):
        bridge_covariance_experiment(cfg)


def test_bridge_small_run_schema():
    cfg = ExperimentConfig(
        experiment="bridge",
        model={"family": "independence", "link": "constant:0.0"},
        n_ladder=(200,),
        replications=50,
        seed=2,
        eval_points=(((0.5, 0.5), (0.5, 0.5)),),
        tolerances={"covariance": 0.15},
    )
    report = bridge_covariance_experiment(cfg)
    label = "cov((0.5,0.5),(0.5,0.5))"
    assert label in report.metrics
    assert report.metrics[label]["target"] == pytest.approx(0.1875)


def test_bridge_degenerate_corner_target_zero():
    cfg = ExperimentConfig(
        experiment="bridge",
        model={"family": "independence", "link": "constant:0.0"},
        n_ladder=(100,),
        replications=20,
        seed=2,
        eval_points=(((1.0, 1.0), (1.0, 1.0)),),
        tolerances={"covariance": 1e-12},
    )
    report = bridge_covariance_experiment(cfg)
    m = report.metrics["cov((1.0,1.0),(1.0,1.0))"]
    assert m["target"] == 0.0
    assert m["empirical"] == 0.0
    assert report.passed


def test_bridge_tolerance_count_validated():
    cfg = ExperimentConfig(
        experiment="bridge",
        model={"family": "independence", "link": "constant:0.0"},
        n_ladder=(100,),
        replications=5,
        eval_points=(((0.5, 0.5), (0.5, 0.5)),),
        tolerances={"covariance": [0.1, 0.1]},
    )
    with pytest.raises(ValueError, match="per point pair"):
        bridge_covariance_experiment(cfg)


def test_perturbation_residual_vanishes_without_sampling_noise():
    # feeding the exact covariance kernel (no sampling noise) must recover
    # the prescribed eigenfunctions and give an identically zero residual
    from condcopula.fpca import (
        CovarianceField,
        EigenSystem,
        eigendecompose,
        tkn_projection,
    )
    from condcopula.grid import make_grid

    model = build_kl_model({}, grid_size=9)
    grid = make_grid(9)
    field = CovarianceField(grid=grid, values=model.true_gamma_field())
    es = eigendecompose(field)
    keep = int(np.count_nonzero(es.eigenvalues > 1e-9))
    es = EigenSystem(
        grid=grid,
        eigenvalues=es.eigenvalues[:keep],
        eigenfunctions=es.eigenfunctions[:keep],
        sign_flips=es.sign_flips[:keep],
    )
    for k in range(1, model.K + 1):
        got = es.eigenfunctions[k - 1]
        want = model.phi(k).values
        diff = min(np.max(np.abs(got - want)), np.max(np.abs(got + want)))
        assert diff <= 1e-8
    t = tkn_projection(np.zeros((81, 81)), es, 1)
    assert np.max(np.abs(t.values)) == 0.0


def test_eigen_perturbation_small_ladder():
    cfg = ExperimentConfig(
        experiment="perturbation",
        n_ladder=(100, 400),
        replications=10,
        seed=4,
        grid_size=9,
        tolerances={"residual_factor": 1.5},
    )
    report = eigen_perturbation_experiment(cfg)
    meds = report.metrics["median_residual"]
    assert meds["400"] < meds["100"]
    assert report.metrics["max_identity_gap"] <= 1e-10


def test_uniformity_gap_small_run():
    cfg = ExperimentConfig(
        experiment="uniformity",
        model={"family": "clayton", "link": "constant:0.5"},
        n_ladder=(50, 200),
        replications=10,
        seed=6,
    )
    report = uniformity_and_gap_experiment(cfg)
    for n in (50, 200):
        assert max(report.raw["gap"][n]) <= 2.0 / n + 1e-12
    assert "median_exact_ecdf_gap" in report.metrics


def test_uniformity_gap_single_observation_trivial():
    cfg = ExperimentConfig(
        experiment="uniformity",
        model={"family": "independence", "link": "constant:0.0"},
        n_ladder=(1,),
        replications=5,
        seed=8,
    )
    report = uniformity_and_gap_experiment(cfg)
    assert max(report.raw["gap"][1]) <= 2.0


def test_benchmark_schema_and_determinism():
    cfg = ExperimentConfig(
        experiment="benchmark",
        model={"family": "clayton", "link": "sine:0.4,0.25"},
        n_ladder=(100, 200),
        replications=3,
        seed=9,
        eval_points=(0.5,),
        grid_size=11,
    )
    r1 = benchmark_vs_baseline(cfg)
    r2 = benchmark_vs_baseline(cfg)
    table = r1.metrics["error_table"]
    for n in ("100", "200"):
        assert {"kl_sup", "kl_l2", "baseline_sup", "baseline_l2"} <= set(table[n])
    assert r1.to_json() == r2.to_json()


def test_report_text_and_raw_csv(tmp_path):
    cfg = small_consistency_cfg()
    report = consistency_experiment(cfg)
    text = report.to_text()
    assert "[PASS]" in text or "[FAIL]" in text
    assert report.config_hash in text
    out = tmp_path / "raw.csv"
    report.write_raw_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "metric,n,rep,value"
    assert len(lines) == 1 + 2 * 3  # two ladder steps, three replications


def test_report_json_round_trip(tmp_path):
    report = consistency_experiment(small_consistency_cfg())
    path = tmp_path / "report.json"
    report.to_json(path)
    payload = json.loads(path.read_text())
    assert payload["experiment"] == "consistency"
    assert payload["config_hash"] == report.config_hash
    assert "runtime_s" not in payload


def test_build_kl_model_defaults():
    model = build_kl_model({}, grid_size=9)
    assert model.eigenvalues == (0.4, 0.2, 0.05)
    assert model.frequencies == ((1, 1), (2, 1), (1, 2))
    custom = build_kl_model(
        {"eigenvalues": (0.3, 0.1), "frequencies": ((1, 0), (0, 1)),
         "alphas": [["sine", 0.0, 0.2], None]},
        grid_size=9,
    )
    assert custom.K == 2
    assert custom.alpha_at(0.25)[0] == pytest.approx(0.2)
