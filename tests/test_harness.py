import json
import re

import numpy as np
import pytest

from condcopula import harness
from condcopula.fpca import eigendecompose
from condcopula.grid import make_grid
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
from oracles import kernel_perturbation_replication, traced_peak_mib, true_gamma_field

CLAYTON_SINE = {"family": "clayton", "link": "sine:0.4,0.25"}


def small_consistency_cfg(**kw):
    base = dict(
        experiment="consistency",
        model=CLAYTON_SINE,
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


def test_empty_ladder_rejected():
    with pytest.raises(ValueError, match="at least one sample size"):
        ExperimentConfig(experiment="x", n_ladder=())


def test_sample_size_below_one_rejected():
    with pytest.raises(ValueError, match="sample sizes must be >= 1, got 0"):
        ExperimentConfig(experiment="x", n_ladder=(0, 5))


@pytest.mark.parametrize("bad, message", [
    # a truncated ladder ran n = 200 and 400, and a fractional seed ran as
    # seed 1 while the report recorded 1.7
    ({"n_ladder": (200.9, 400.2)}, "n-ladder sample size must be an integer, got 200.9"),
    ({"n_ladder": (True, 5)}, "n-ladder sample size must be an integer, got True"),
    ({"seed": 1.7}, "seed must be an integer, got 1.7"),
    ({"seed": False}, "seed must be an integer, got False"),
    # a fractional replication count failed mid-run in range()
    ({"replications": 1.5}, "replications must be an integer, got 1.5"),
    ({"replications": 0}, "replications must be >= 1, got 0"),
    ({"grid_size": 7.5}, "grid_size must be an integer, got 7.5"),
    ({"grid_size": True}, "grid_size must be an integer, got True"),
])
def test_integer_settings_must_be_integers(bad, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        small_consistency_cfg(**bad)


def test_integer_settings_keep_their_bytes():
    # numpy integers are integers; they are recorded as the ints they are
    cfg = small_consistency_cfg(n_ladder=np.array([100, 200]), seed=np.int64(11),
                                replications=np.int32(3), grid_size=np.int64(15))
    plain = small_consistency_cfg()
    assert cfg.to_dict() == plain.to_dict() and cfg.digest() == plain.digest()
    assert all(type(v) is int for v in (*cfg.n_ladder, cfg.seed, cfg.replications,
                                        cfg.grid_size))


# each setting below used to be ignored, or to fail with an error that does
# not name it; every experiment now refuses what it does not read
SMALL = dict(n_ladder=(50,), replications=1, grid_size=9)
UNREAD_SETTINGS = {
    "misspelt-tolerance": (
        consistency_experiment, dict(model=CLAYTON_SINE, tolerances={"final_medain": 1e-6}),
        "tolerances key 'final_medain'",
    ),
    "misspelt-model-key": (
        consistency_experiment, dict(model={"famly": "frank"}), "model key 'famly'",
    ),
    "second-eval-point": (
        consistency_experiment, dict(model=CLAYTON_SINE, eval_points=(0.3, 0.7)),
        "reads at most 1 eval_points",
    ),
    "kl-spec": (
        eigen_perturbation_experiment, dict(model={"eigenvalues": (0.3, 0.1)}),
        "model key 'eigenvalues'",
    ),
    "estimator-grid-size": (
        consistency_experiment, dict(model=CLAYTON_SINE, estimator={"grid_size": 9}),
        "estimator key 'grid_size'",
    ),
    "misspelt-estimator-key": (
        benchmark_vs_baseline, dict(model=CLAYTON_SINE, estimator={"bandwith": 0.1}),
        "estimator key 'bandwith'",
    ),
    "bridge-ladder": (
        bridge_covariance_experiment,
        dict(model={"family": "independence", "link": "constant:0.0"}, n_ladder=(50, 100)),
        "one sample size, got n_ladder",
    ),
    "uniformity-tolerance": (
        uniformity_and_gap_experiment, dict(tolerances={"ks_critical": 1.36}),
        "tolerances key 'ks_critical'",
    ),
}


@pytest.mark.parametrize("name", sorted(UNREAD_SETTINGS))
def test_unread_setting_is_refused(name):
    fn, kwargs, message = UNREAD_SETTINGS[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(ExperimentConfig(experiment=name, **{**SMALL, **kwargs}))


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
    # only the score regression degenerates, and its failure names h_alpha
    assert all(f["error"].startswith("degenerate weights") for f in report.failures)
    assert all(f["error"].endswith("enlarge the bandwidth h_alpha (--h-alpha)")
               for f in report.failures)
    assert report.checks["no failed replications"] is False
    assert report.passed is False
    assert "failed replications: 8" in report.to_text()


def test_failed_baseline_names_its_bandwidth():
    # a tiny h leaves the baseline's evaluation point without kernel mass,
    # while every trajectory window keeps its own point
    cfg = small_consistency_cfg(experiment="benchmark", estimator={"h": 0.002},
                                replications=4, grid_size=9)
    report = benchmark_vs_baseline(cfg)
    assert report.failures
    assert all(re.fullmatch(r"degenerate weights \(all kernel values are zero\) at x=0\.5; "
                            r"enlarge the bandwidth h", f["error"]) for f in report.failures)


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


@pytest.mark.parametrize("points", [(0.5,), ((0.5, 0.5),), (((0.5, 0.5), (0.5, 1.5)),)])
def test_bridge_eval_points_must_be_point_pairs(points):
    cfg = ExperimentConfig(
        experiment="bridge",
        model={"family": "independence", "link": "constant:0.0"},
        n_ladder=(100,),
        replications=2,
        eval_points=points,
    )
    with pytest.raises(ValueError, match=r"eval_points entry must be a pair of \(u, v\) points"):
        bridge_covariance_experiment(cfg)


def test_perturbation_residual_vanishes_without_sampling_noise():
    # the exact covariance kernel (no sampling noise) recovers the prescribed
    # eigenfunctions; the zero kernel's zero first-order term is
    # test_fpca.py::test_tkn_zero_kernel
    model = build_kl_model(grid_size=9)
    es = eigendecompose(make_grid(9), true_gamma_field(model))
    es = es.head(int(np.count_nonzero(es.eigenvalues > 1e-9)))
    assert es.m == model.K
    for k in range(1, model.K + 1):
        got = es.eigenfunctions[k - 1]
        want = model.phi(k).values
        diff = min(np.max(np.abs(got - want)), np.max(np.abs(got + want)))
        assert diff <= 1e-8


@pytest.mark.parametrize("grid_size, ladder", [(9, (40, 120)), (15, (100, 400))])
def test_perturbation_residuals_match_the_kernel_route(grid_size, ladder):
    # one step below G^2 (the Gram route) and one above (the covariance
    # route): the score form of the first-order term gives the residuals of
    # the G^2 x G^2 kernel route up to rounding, and the same mean-CLT norms
    cfg = ExperimentConfig(experiment="perturbation", n_ladder=ladder, replications=3,
                           seed=4, grid_size=grid_size)
    report = eigen_perturbation_experiment(cfg)
    model = build_kl_model(grid_size)
    for step, n in enumerate(ladder):
        for rep in range(cfg.replications):
            resid, clt = kernel_perturbation_replication(model, n, rep_seed(cfg.seed, step, rep))
            assert abs(report.raw["residual"][n][rep] - resid) <= 1e-12
            assert report.raw["clt_norm"][n][rep] == clt


def test_perturbation_experiment_builds_no_covariance_field():
    # n < G^2 takes the Gram route: the 1681 x 1681 covariance field alone
    # would be 21.6 MiB
    cfg = ExperimentConfig(experiment="perturbation", n_ladder=(500,), replications=2,
                           grid_size=41)
    report, peak = traced_peak_mib(lambda: eigen_perturbation_experiment(cfg))
    assert report.failures == []
    assert peak <= 25.0


def test_eigen_perturbation_small_ladder():
    cfg = ExperimentConfig(
        experiment="perturbation",
        n_ladder=(100, 400),
        replications=10,
        seed=4,
        grid_size=9,
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


def strict_json(text):
    """``json.loads`` that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not valid JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_step_whose_every_replication_fails_reports_null(tmp_path):
    # h_alpha = 1e-5 leaves every evaluation point without score weights
    report = consistency_experiment(small_consistency_cfg(estimator={"h_alpha": 1e-5}))
    assert len(report.failures) == 2 * 3
    medians = report.metrics["median_sup_error"]
    assert all(np.isnan(medians[str(n)]) for n in (100, 200))
    path = tmp_path / "report.json"
    report.to_json(path)
    payload = strict_json(path.read_text())
    assert payload["metrics"]["median_sup_error"] == {"100": None, "200": None}
    assert payload["passed"] is False
    assert payload["checks"]["no failed replications"] is False


def test_build_kl_model_defaults():
    model = build_kl_model(grid_size=9)
    assert model.eigenvalues == (0.4, 0.2, 0.05)
    assert model.frequencies == ((1, 1), (2, 1), (1, 2))
