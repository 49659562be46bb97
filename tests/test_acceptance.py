"""End-to-end acceptance gate.

One test per release criterion; each prints a single [PASS]/[FAIL] line
(bypassing output capture so the verdicts always reach the console) and then
asserts. Budgets are wall-clock upper bounds on this scale of machine.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

from condcopula.cli import run
from condcopula.estimator import PipelineConfig, fit_pipeline
from condcopula.fpca import CovarianceField, covariance_field, eigendecompose, scores
from condcopula.grid import GridFunction, l2_norm, make_grid
from condcopula.harness import (
    ExperimentConfig,
    bridge_covariance_experiment,
    consistency_experiment,
    benchmark_vs_baseline,
    eigen_perturbation_experiment,
    ks_uniform_statistic,
    uniformity_and_gap_experiment,
)
from condcopula.simulate import (
    ConditionalModel,
    TauLink,
    cosine_tensor,
    sample_conditional,
)
from condcopula.fpca import unit_sphere_identity

CALIBRATION = Path(__file__).resolve().parents[1] / "calibration" / "pilot_calibration.json"


def verdict(ok: bool, label: str, budget_s: float, elapsed: float) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label} ({elapsed:.1f}s / budget {budget_s:.0f}s)"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line
    assert elapsed < budget_s, f"budget exceeded: {line}"


def test_criterion_1_exact_identities():
    t0 = time.perf_counter()
    grid = make_grid(21)
    delta = grid.cell_weight

    # exact unit-sphere identity over 100 seeded random unit pairs
    rng = np.random.default_rng(1)
    identity_ok = True
    for _ in range(100):
        a = rng.normal(size=(21, 21))
        b = rng.normal(size=(21, 21))
        a /= np.sqrt(delta * np.sum(a * a))
        b /= np.sqrt(delta * np.sum(b * b))
        lhs, rhs = unit_sphere_identity(
            GridFunction(grid=grid, values=a), GridFunction(grid=grid, values=b)
        )
        identity_ok &= abs(lhs - rhs) <= 1e-10

    # orthonormality, trace identity and full-rank reconstruction on an
    # estimated trajectory ensemble from a real sample
    model = ConditionalModel(family="clayton", link=TauLink(form="sine", a=0.4, b=0.25))
    s, _ = sample_conditional(model, 150, seed=2)
    fit = fit_pipeline(s, PipelineConfig(grid_size=21, centering="ensemble"))
    field = covariance_field(fit.ensemble, fit.center)
    # keep every positive eigenvalue: the full-rank reconstruction identity
    # needs the components that default truncation would discard
    es = eigendecompose(field, truncate_below=0.0)
    gram = delta * es.phi_flat() @ es.phi_flat().T
    ortho_ok = np.max(np.abs(gram - np.eye(es.m))) <= 1e-8
    trace = delta * np.sum(np.diagonal(field.values))
    trace_ok = abs(es.eigenvalues.sum() - trace) <= 1e-8 * max(trace, 1e-30)
    rank = int(np.count_nonzero(es.eigenvalues > 0))
    xi = scores(fit.ensemble, fit.center, es, K=rank).xi
    recon = fit.center.flat()[None] + xi @ es.phi_flat()[:rank]
    recon_ok = all(
        l2_norm(GridFunction(grid=grid, values=(fit.ensemble.flat()[i] - recon[i]).reshape(21, 21)))
        <= 1e-8
        for i in range(fit.ensemble.n)
    )

    ok = identity_ok and ortho_ok and trace_ok and recon_ok
    verdict(ok, "criterion 1: exact identities (unit sphere, orthonormality, "
                "trace, full-rank reconstruction)", 10.0, time.perf_counter() - t0)


def test_criterion_2_rank_one_round_trip():
    t0 = time.perf_counter()
    grid = make_grid(21)
    phi = cosine_tensor(grid, 1, 1)
    field = CovarianceField(
        grid=grid, values=0.3 * np.outer(phi.flat(), phi.flat())
    )
    es = eigendecompose(field)
    lam_ok = abs(es.eigenvalues[0] - 0.3) <= 1e-8
    got = es.eigenfunctions[0]
    sign = 1.0 if np.sum(got * phi.values) >= 0 else -1.0
    err = l2_norm(GridFunction(grid=grid, values=sign * got - phi.values))
    verdict(lam_ok and err <= 1e-6,
            "criterion 2: rank-1 covariance round trip", 5.0,
            time.perf_counter() - t0)


def test_criterion_3_known_margins_uniformity():
    t0 = time.perf_counter()
    model = ConditionalModel(family="clayton", link=TauLink(form="constant", a=0.5))
    crit = 0.0515
    passes = 0
    for seed in range(100):
        _, truth = sample_conditional(model, 1000, seed=3000 + seed)
        if max(ks_uniform_statistic(truth.eps1),
               ks_uniform_statistic(truth.eps2)) < crit:
            passes += 1
    verdict(passes >= 95,
            f"criterion 3: known-margins uniformity ({passes}/100 seeds below KS 0.0515)",
            30.0, time.perf_counter() - t0)


def test_criterion_4_rank_transform_gap():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="uniformity_and_gap",
        model={"family": "clayton", "link": "constant:0.5"},
        n_ladder=(50, 200, 1000),
        replications=50,
        seed=4,
    )
    report = uniformity_and_gap_experiment(cfg)
    gap_ok = all(
        max(report.raw["gap"][n]) <= 2.0 / n + 1e-12 for n in cfg.n_ladder
    )
    verdict(gap_ok, "criterion 4: rank-vs-known-margins gap <= 2/n at "
                    "n in {50, 200, 1000}, 50 seeds each", 60.0,
            time.perf_counter() - t0)


def test_criterion_5_bridge_covariance():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="bridge_covariance",
        model={"family": "independence", "link": "constant:0.0"},
        n_ladder=(500,),
        replications=2000,
        seed=5,
        eval_points=(((0.5, 0.5), (0.5, 0.5)), ((0.25, 0.25), (0.75, 0.75))),
        tolerances={"covariance": [0.02, 0.01]},
    )
    report = bridge_covariance_experiment(cfg)
    var = report.metrics["cov((0.5,0.5),(0.5,0.5))"]["empirical"]
    cov = report.metrics["cov((0.25,0.25),(0.75,0.75))"]["empirical"]
    verdict(report.passed,
            f"criterion 5: bridge covariance (var {var:.4f} vs 0.1875, "
            f"cross {cov:.4f} vs 0.0273)", 120.0, time.perf_counter() - t0)


def test_criterion_6_perturbation_residual():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="eigen_perturbation",
        model={},  # eigenvalues (0.4, 0.2, 0.05)
        n_ladder=(100, 400, 1600),
        replications=200,
        seed=6,
        grid_size=15,
    )
    report = eigen_perturbation_experiment(cfg)
    meds = report.metrics["median_residual"]
    verdict(report.passed,
            "criterion 6: first-order residual medians "
            f"{meds['100']:.3f} -> {meds['400']:.3f} -> {meds['1600']:.3f} "
            "(factor >= 2) and mean-CLT stability", 600.0,
            time.perf_counter() - t0)


def test_criterion_7_consistency_ladder():
    t0 = time.perf_counter()
    threshold = json.loads(CALIBRATION.read_text())["final_median_threshold"]
    cfg = ExperimentConfig(
        experiment="consistency",
        model={"family": "clayton", "link": "sine:0.4,0.25"},
        n_ladder=(250, 500, 1000, 2000),
        replications=50,
        seed=7,
        eval_points=(0.5,),
        grid_size=21,
        tolerances={"final_median": threshold},
    )
    report = consistency_experiment(cfg)
    meds = report.metrics["median_sup_error"]
    verdict(report.passed,
            "criterion 7: consistency medians "
            + " -> ".join(f"{meds[str(n)]:.4f}" for n in cfg.n_ladder)
            + f" (strictly decreasing, final <= {threshold})", 600.0,
            time.perf_counter() - t0)


def test_criterion_8_benchmark_tables():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="benchmark_vs_baseline",
        model={"family": "clayton", "link": "sine:0.4,0.25"},
        n_ladder=(250, 500, 1000, 2000),
        replications=50,
        seed=8,
        eval_points=(0.5,),
        grid_size=21,
    )
    report = benchmark_vs_baseline(cfg)
    table = report.metrics["error_table"]
    schema_ok = all(
        {"kl_sup", "kl_l2", "baseline_sup", "baseline_l2"} <= set(table[str(n)])
        for n in cfg.n_ladder
    )
    verdict(report.passed and schema_ok,
            "criterion 8: benchmark tables, both estimators' median errors "
            "decreasing over the ladder", 600.0, time.perf_counter() - t0)


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    ok = True

    # simulate: identical bytes for identical seeds
    for name in ("a.csv", "b.csv"):
        assert run(["simulate", "--family", "clayton", "--link", "sine:0.4,0.25",
                    "--n", "150", "--seed", "9", "--out", str(tmp_path / name)]) == 0
    ok &= (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    # estimate: identical grid output for identical inputs
    for name in ("e1.json", "e2.json"):
        assert run(["estimate", "--in", str(tmp_path / "a.csv"), "--x", "0.5",
                    "--out", str(tmp_path / name)]) == 0
    ok &= (
        (tmp_path / "e1.grid.csv").read_bytes()
        == (tmp_path / "e2.grid.csv").read_bytes()
    )

    # harness reports: identical bytes across runs
    for name in ("d1.json", "d2.json"):
        run(["diagnose", "--ns", "50,100", "--reps", "5", "--seed", "9",
             "--out", str(tmp_path / name)])
    ok &= (tmp_path / "d1.json").read_bytes() == (tmp_path / "d2.json").read_bytes()

    verdict(ok, "criterion 9: seeded simulate, estimate and diagnose outputs "
                "byte-identical across runs", 120.0, time.perf_counter() - t0)
