"""Pinned digests of seeded outputs.

Each digest is the sha256 of outputs that no refactor may change: every
experiment's metrics, raw values, seeds, failures and config, and the grid
CSV of ``condcopula estimate``. A deliberate change of an output must
update its digest here and say why.
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

CLAYTON_SINE = {"family": "clayton", "link": "sine:0.4,0.25"}

EXPERIMENTS = {
    "consistency": (
        consistency_experiment,
        dict(experiment="consistency", model=CLAYTON_SINE, n_ladder=(100, 200),
             replications=3, seed=11, eval_points=(0.5,), grid_size=15),
        "a4b452962dd97129f0c6fc7610afacd337f13650328983487a7cb51006310856",
    ),
    "consistency-failures": (
        consistency_experiment,
        dict(experiment="consistency", model=CLAYTON_SINE, n_ladder=(100, 200),
             replications=10, seed=11, eval_points=(0.5,), grid_size=11,
             estimator={"h_alpha": 0.004}),
        "acdd4cbe2bd06c3169f19acb287e992551010d82595001b485634bcb9824cc03",
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
        "d0c6e29894a47229a0a06fab7ec6372df527b938f15a9d2200d6702a384c4fe6",
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
    ([], "40f4b1a5d119111a99a6bd464895b67f21eb199041c1ef5e67c66ba6c23481e6"),
    (["--no-project"], "959868be812858e5156761518863c1198906d4559514fe0f9d72f33c50aef922"),
])
def test_estimate_grid_csv_pinned(tmp_path, flags, digest):
    data = tmp_path / "s.csv"
    assert run(["simulate", "--family", "clayton", "--link", "sine:0.4,0.25",
                "--n", "300", "--seed", "9", "--out", str(data)]) == 0
    out = tmp_path / "e.json"
    assert run(["estimate", "--in", str(data), "--x", "0.4", *flags,
                "--out", str(out)]) == 0
    assert sha256(out.with_suffix(".grid.csv").read_bytes()) == digest
