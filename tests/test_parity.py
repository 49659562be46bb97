"""Pinned digests of seeded outputs.

Each digest is the sha256 of outputs that no refactor may change: every
experiment's metrics, raw values, seeds, failures and config, and the grid
CSV of ``condcopula estimate``. A deliberate change of an output must
update its digest here and say why.

The fits run their eigen and score stage on one BLAS thread at every size,
so the digests are of those one-thread outputs on any machine. The
``consistency``, ``consistency-failures``, ``benchmark`` and both ``estimate``
digests are of the leading-eigenpair solve, which moved their floats from
the full ``eigh`` by at most 2.2e-16, with the same K and failures. The
``perturbation`` and ``clayton-normal-covariate`` digests are of normals
drawn as ``ndtri`` of one substream word each, where numpy's ziggurat
drew them before. The ``consistency``, ``consistency-failures``,
``benchmark`` and ``uniformity`` digests are of the log-space Clayton CDF
and inverse, which replaced a power form with relative errors up to 4e-13
in the CDF and 6e-5 in the inverse; their floats moved by at most 1.1e-16, with
the same K, failures and verdicts. The ``clayton-*`` and ``fgm`` sampler
digests are of the same Clayton inverse and of the rationalised FGM root,
which replaced a root that cancelled near b = 0: eps2 moved by at most
3.1e-15 relative for Clayton and 1.5e-10 for FGM, toward a 40-digit
reference. The ``consistency``, ``consistency-failures``, ``benchmark`` and
both ``estimate`` digests are of NW weights whose totals are sequential
sums (``conditional._row_totals``), where pairwise sums gave them before:
their floats moved by at most 3.3e-16, with the same K and failures. The
``perturbation`` digest is of the experiment on the fit's own eigen route
(``ensemble_eigensystem``) with its first-order term from score cross
moments on the model's exact eigenfunctions, where it decomposed the full
covariance field and paired the field's error with ``eigh`` eigenfunctions
of the true field before: its residuals moved by at most 5.1e-15 and its
largest unit-sphere identity gap went from 5.0e-16 to 2.9e-16, with the
same mean-CLT norms, checks and failures. The ``consistency``,
``consistency-failures``, ``benchmark`` and both ``estimate`` digests are of
the Gram route's eigenfunctions formed as (u^T C)^T, where C^T u formed
them before, and the ``consistency`` (its n = 200 step) and both
``estimate`` digests also of the Lanczos route of ``_blas.leading_eigh``,
where ``dsyevr`` solved those shapes before: their floats moved by at most
3.9e-16 (the estimate grids by 1.1e-16, the estimate's reported eigengap by
6.7e-16), with the same K, failures and checks. The ``consistency``,
``consistency-failures``, ``benchmark`` and ``perturbation`` digests are of
the dense route of ``leading_eigh`` as the last pairs of numpy's full
``eigh``, where a partial LAPACK solve gave them before: the first three
moved by at most 1.1e-16 and the perturbation residuals by 4.1e-15 (its
largest unit-sphere identity gap went from 2.9e-16 to 5.0e-16), with the
same K, failures and checks. The ``consistency-failures`` digest is of
failure messages that name the score-regression bandwidth, ending "enlarge
the bandwidth h_alpha (--h-alpha)" where "enlarge the bandwidth" ended them
before: its metrics, raw values, seeds, config and failed (n, rep) pairs
are unchanged. The ``consistency`` digest (its n = 200 step) and both
``estimate`` digests are of a Lanczos run that, under an automatic K, stops
once the components the fit reads have converged (those through the CVP
crossing plus one, and at least five), where it ran until all 16 requested
pairs had: 4 of the consistency report's 20 values moved, by at most
5.0e-16; the estimate grids moved by at most 1.4e-16, their eigenvalues by
at most 5.0e-16 of lambda_1 and the reported eigengap by 7.1e-15, with the
same K (9), failures and checks. The ``consistency`` digest (its n = 200
step) is of a Lanczos run whose pairs past K converge only as far as their
eigenvalues need, with checks timed by the decay of the Ritz bounds, where
every pair's eigenvector converged and checks ran every 4 steps before: 4 of
its 20 values moved, by at most 3.9e-16, with the same K, failures and
checks, and the reported eigenvalues of its fits by at most 1.0e-14
relative.
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
        "330aec4922cd79876e6e0be219a6284282d8eb813b7a0300bfcffef2f9648713",
    ),
    "consistency-failures": (
        consistency_experiment,
        dict(experiment="consistency", model=CLAYTON_SINE, n_ladder=(100, 200),
             replications=10, seed=11, eval_points=(0.5,), grid_size=11,
             estimator={"h_alpha": 0.004}),
        "3b3c7b1b1c83c90b2bc52d4769413d5f1a1884683577fb46b9a7d80f257e1f15",
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
        "6e710948dc8142a22d4de993aa48fd51454209d54ef431e8a06add423dce5336",
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
