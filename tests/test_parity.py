"""Pinned digests of seeded outputs.

Each digest is the sha256 of outputs that no refactor may change: every
experiment's metrics, raw values, seeds, failures and config, and the grid
CSV of ``condcopula estimate``. A deliberate change of an output must
update its digest here and say why.

These fits are small (min(n, G^2) < 512), so they run their BLAS on one
thread on any machine, and the digests are of those one-thread outputs.
"""

import hashlib
import json

import pytest

from condcopula.cli import run
from condcopula.harness import (
    ExperimentConfig,
    benchmark_vs_baseline,
    bridge_covariance_experiment,
    consistency_experiment,
    eigen_perturbation_experiment,
    uniformity_and_gap_experiment,
)
from condcopula.simulate import ConditionalModel, TauLink, sample_conditional

CLAYTON_SINE = {"family": "clayton", "link": "sine:0.4,0.25"}

EXPERIMENTS = {
    "consistency": (
        consistency_experiment,
        dict(experiment="consistency", model=CLAYTON_SINE, n_ladder=(100, 200),
             replications=3, seed=11, eval_points=(0.5,), grid_size=15),
        "80560a77c174632002d0ea64fffcc959ab0fa8b77ac78720fa779d6cd22d9bc2",
    ),
    "consistency-failures": (
        consistency_experiment,
        dict(experiment="consistency", model=CLAYTON_SINE, n_ladder=(100, 200),
             replications=10, seed=11, eval_points=(0.5,), grid_size=11,
             estimator={"h_alpha": 0.004}),
        "3568c0d5bb8b8a610d7e9a270d59e3b5d2886ba8251b7fa6da60071880ec2a8d",
    ),
    "bridge": (
        bridge_covariance_experiment,
        dict(experiment="bridge",
             model={"family": "independence", "link": "constant:0.0"},
             n_ladder=(200,), replications=30, seed=2,
             eval_points=(((0.5, 0.5), (0.5, 0.5)), ((0.25, 0.25), (0.75, 0.75)))),
        "e766a52c725c1874825374c5c004f24879d28b8bf7fec14594377871583d7608",
    ),
    "perturbation": (
        eigen_perturbation_experiment,
        dict(experiment="perturbation", n_ladder=(100, 200), replications=4,
             seed=4, grid_size=9),
        "ae02592193e55b3b5cdcab5b4e0f021b64d87cc6c12c591b23fa38dd16a80ed3",
    ),
    "uniformity": (
        uniformity_and_gap_experiment,
        dict(experiment="uniformity",
             model={"family": "clayton", "link": "constant:0.5"},
             n_ladder=(1, 50, 200), replications=5, seed=6),
        "7e4f7b7f73176191c05498ab5de79527025f46ed84f89b9583c96a14f51918af",
    ),
    "benchmark": (
        benchmark_vs_baseline,
        dict(experiment="benchmark", model=CLAYTON_SINE, n_ladder=(100, 200),
             replications=3, seed=9, eval_points=(0.5,), grid_size=11),
        "1f19ea8528d8c11510267a5d78a5a5e0f8e94e0432226b9ab85c556a555bcdf9",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_outputs_pinned(name):
    fn, kwargs, digest = EXPERIMENTS[name]
    report = fn(ExperimentConfig(**kwargs))
    parts = {
        key: getattr(report, key)
        for key in ("metrics", "raw", "seeds", "failures", "config_hash", "config")
    }
    assert sha256(json.dumps(parts, sort_keys=True).encode()) == digest


@pytest.mark.parametrize("flags, digest", [
    ([], "8137e26d7a5b852f12e4e3ddded0c1bf25aaf9348954e3d132071d1f554785e7"),
    (["--no-project"], "cdfb1d8e7e74e195f6850910769b74fea77754a98c583eba84b7a7da0d9f84ca"),
], ids=["projected", "no-project"])
def test_estimate_grid_csv_pinned(tmp_path, flags, digest):
    data = tmp_path / "s.csv"
    assert run(["simulate", "--family", "clayton", "--link", "sine:0.4,0.25",
                "--n", "300", "--seed", "9", "--out", str(data)]) == 0
    out = tmp_path / "e.json"
    assert run(["estimate", "--in", str(data), "--x", "0.4", *flags,
                "--out", str(out)]) == 0
    assert sha256(out.with_suffix(".grid.csv").read_bytes()) == digest


# the fits read y only through ranks, so a last-bit change of the sample can
# pass every digest above; these pin the sampler's own outputs
SAMPLERS = {
    "clayton-sine": (
        ("clayton", "sine:0.4,0.25", "uniform"),
        "442d82460799b4ac3b56b4e719ebc835e6879d3d442bd0b86e42f32763db6cf4",
    ),
    "fgm": (
        ("fgm", "sine:0.1,0.1", "uniform"),
        "88d6fdb07b439b87c201fdb00b64725a74bf37552710d5dcf7f5eb8adc1e7eba",
    ),
    "independence": (
        ("independence", "constant:0.0", "uniform"),
        "ac40020f464404e56e522f546ed29d28088080e22aad17e7e6d3be3545fd8ae9",
    ),
    # theta = 998: u^(-theta) overflows for most u
    "clayton-overflow": (
        ("clayton", "constant:0.998", "uniform"),
        "6003bca3b4162f3c7fd3bcfdcecabeae0d7df4feee80b9548104eb596bd64cc5",
    ),
    "clayton-normal-covariate": (
        ("clayton", "sine:0.4,0.25", "normal"),
        "dcfdd3cdffdc4cd642d5ffe88c6fdc11d5af57a463add58c230d81784c6a4693",
    ),
}


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_sampler_outputs_pinned(name):
    (family, link, covariate), digest = SAMPLERS[name]
    model = ConditionalModel(family=family, link=TauLink.parse(link), covariate=covariate)
    sample, truth = sample_conditional(model, 400, seed=11)
    h = hashlib.sha256()
    for a in (sample.x, sample.y1, sample.y2, truth.eps1, truth.eps2, truth.theta):
        h.update(a.tobytes())
    assert h.hexdigest() == digest
