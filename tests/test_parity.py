"""Pinned digests of seeded outputs.

Each digest is the sha256 of outputs that no refactor may change: every
experiment's metrics, raw values, seeds, failures and config, and the grid
CSV of ``condcopula estimate``. A deliberate change of an output must
update its digest here, after a float-by-float comparison with the old
outputs, and say in CHANGES.md which digest moved, by how much and why;
CHANGES.md holds that history.

The fits run their eigen and score stage on one BLAS thread at every size,
so the digests are of those one-thread outputs on any machine.
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
        "0cd2c528c4be0a6058a5765321a9df8f33de7c85b4a9b5ae3fec1a3cad53292b",
    ),
    "consistency-failures": (
        consistency_experiment,
        dict(experiment="consistency", model=CLAYTON_SINE, n_ladder=(100, 200),
             replications=10, seed=11, eval_points=(0.5,), grid_size=11,
             estimator={"h_alpha": 0.004}),
        "4a65d9d2b4a45dd10b98edcf417f041d55139a8c6834ec554d46daeea6b423a6",
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
        "e5f79e4b43c959bde8c6a018b081394275fc8518c3cc992f075a036524655cef",
    ),
    "uniformity": (
        uniformity_and_gap_experiment,
        dict(experiment="uniformity",
             model={"family": "clayton", "link": "constant:0.5"},
             n_ladder=(1, 50, 200), replications=5, seed=6),
        "da69f6bfa1dc9ab1dabd78ce2f5edcb044b858905b43113b93594b4588a21643",
    ),
    "benchmark": (
        benchmark_vs_baseline,
        dict(experiment="benchmark", model=CLAYTON_SINE, n_ladder=(100, 200),
             replications=3, seed=9, eval_points=(0.5,), grid_size=11),
        "4c4777964c9d5a0bd605f92f40084c266a4f5e52fb35219eb4deab86bad76321",
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
    ([], "ce7e5e29f980283bbc6e3fb5dc721609fdbeec40a7c5fea9a9cfd85cc76e0d13"),
    (["--no-project"], "415e5e6b4e937d1549070efb423444542f6bb5e02648fbffbf72fa09931ea434"),
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
        "2bf0cb1e38e2bdfba567e249e2ecf28854901156d7ba843b500f94de62b225a9",
    ),
    "fgm": (
        ("fgm", "sine:0.1,0.1", "uniform"),
        "14a6ccc179f79a829c4dcaf71283cd4ce5fe99c2b264b94b40a476bb04c902f0",
    ),
    "independence": (
        ("independence", "constant:0.0", "uniform"),
        "ac40020f464404e56e522f546ed29d28088080e22aad17e7e6d3be3545fd8ae9",
    ),
    # theta = 998: u^(-theta) overflows for most u
    "clayton-overflow": (
        ("clayton", "constant:0.998", "uniform"),
        "027d3255aa2eea91d96ebb14805b1b3651dab817a2eb7be98ab946effe491b0e",
    ),
    "clayton-normal-covariate": (
        ("clayton", "sine:0.4,0.25", "normal"),
        "86c5536a6da00cdea906f2ada3712dcb988573363e0b320913682da70c774da9",
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
