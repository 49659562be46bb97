"""Seeded Monte Carlo experiments.

Each experiment turns one of the asymptotic statements behind the estimator
into a desk-scale pass/fail check: uniform consistency along an n-ladder,
the Brownian-bridge covariance of the empirical partial copula, first-order
eigenfunction perturbation residuals, pseudo-margin uniformity plus the
rank-vs-known-margins gap, and a benchmark table against the plug-in
baseline. Replications own isolated RNG substreams and run serially, in
index order, in one shared ladder runner that also owns the failure list and
the report.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import __version__
from .conditional import KernelSpec, PseudoSample, joint_ecdf, rank_copula, weighted_copula_surfaces
from .errors import DegenerateWeightsError, require_integer
from .estimator import (
    PipelineConfig,
    estimate_conditional_copula,
    evaluate_fit,
    fit_pipeline,
)
from .fpca import (
    EigenSystem,
    centered_trajectories,
    ensemble_eigensystem,
    scores,
    unit_sphere_identity,
)
from .grid import GridFunction, from_callable, l2_norm, make_grid, sup_distance
from .simulate import (
    ConditionalModel,
    SyntheticKLModel,
    TauLink,
    copula_cdf,
    sample_conditional,
    synthetic_kl_sample,
    true_conditional_copula,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "consistency_experiment",
    "bridge_covariance_experiment",
    "eigen_perturbation_experiment",
    "uniformity_and_gap_experiment",
    "benchmark_vs_baseline",
]


def rep_seed(base: int, step: int, rep: int) -> int:
    """Deterministic substream label for (ladder step, replication)."""
    return (int(base) * 1_000_003 + step * 10_007 + rep) & 0x7FFFFFFF


@dataclass(frozen=True)
class ExperimentConfig:
    """Serializable experiment description.

    The sample sizes (each at least 1), replications, seed and grid size are
    integers, never bools. An experiment refuses, naming it, each setting it
    does not read: see ``_READS``; the bridge experiment also reads exactly
    one sample size.
    """

    experiment: str
    model: dict = field(default_factory=dict)
    n_ladder: tuple = (250, 500, 1000, 2000)
    replications: int = 50
    seed: int = 0
    estimator: dict = field(default_factory=dict)
    eval_points: tuple = ()
    tolerances: dict = field(default_factory=dict)
    grid_size: int = 21

    def __post_init__(self):
        for name, low in (("replications", 1), ("seed", None), ("grid_size", 1)):
            object.__setattr__(self, name, require_integer(name, getattr(self, name), low))
        ladder = tuple(require_integer("n-ladder sample size", n) for n in self.n_ladder)
        if not ladder:
            raise ValueError("n-ladder must hold at least one sample size")
        if min(ladder) < 1:
            raise ValueError(f"n-ladder sample sizes must be >= 1, got {min(ladder)}")
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError("n-ladder must be strictly increasing")
        object.__setattr__(self, "n_ladder", ladder)
        object.__setattr__(self, "eval_points", tuple(self.eval_points))

    def to_dict(self) -> dict:
        return asdict(self)

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class ExperimentReport:
    """Aggregated metrics, verdicts, and full provenance of one experiment."""

    experiment: str
    config: dict
    config_hash: str
    seeds: list
    metrics: dict
    passed: bool
    checks: dict
    runtime_s: float
    version: str = __version__
    failures: list = field(default_factory=list)
    raw: dict = field(default_factory=dict)

    def to_json(self, path=None) -> str:
        # runtime is deliberately left out: a seeded report must be
        # byte-identical across runs
        payload = {
            "experiment": self.experiment,
            "version": self.version,
            "config_hash": self.config_hash,
            "config": self.config,
            "seeds": self.seeds,
            "metrics": self.metrics,
            "checks": self.checks,
            "passed": self.passed,
            "failures": self.failures,
        }
        text = json.dumps(payload, indent=2, default=float) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def to_text(self) -> str:
        lines = [
            f"experiment : {self.experiment}",
            f"version    : {self.version}",
            f"config     : {self.config_hash}",
            f"runtime    : {self.runtime_s:.2f} s",
        ]
        for name, value in self.metrics.items():
            if isinstance(value, dict):
                lines.append(f"{name}:")
                for k, v in value.items():
                    lines.append(f"    {k:<16} {v}")
            else:
                lines.append(f"{name:<24} {value}")
        for name, ok in self.checks.items():
            lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}")
        lines.append(f"overall    : {'PASS' if self.passed else 'FAIL'}")
        if self.failures:
            lines.append(f"failed replications: {len(self.failures)}")
        return "\n".join(lines) + "\n"

    def write_raw_csv(self, path) -> None:
        """Per-replication metrics, one row per (metric, n, rep)."""
        with open(path, "w") as fh:
            fh.write("metric,n,rep,value\n")
            for metric, per_n in self.raw.items():
                for n, vals in per_n.items():
                    for rep, v in enumerate(vals):
                        fh.write(f"{metric},{n},{rep},{v:.17g}\n")


def build_conditional_model(spec: dict) -> ConditionalModel:
    """Construct a parametric model from its family, link and covariate."""
    link = spec.get("link", "constant:0.5")
    if isinstance(link, str):
        link = TauLink.parse(link)
    return ConditionalModel(
        family=spec.get("family", "clayton"),
        link=link,
        covariate=spec.get("covariate", "uniform"),
    )


def build_kl_model(grid_size: int) -> SyntheticKLModel:
    """The synthetic model of the perturbation experiment on a G x G grid.

    Mean surface u v; eigenvalues (0.4, 0.2, 0.05) with cosine-tensor
    eigenfunctions of frequencies (1, 1), (2, 1) and (1, 2); scores with
    mean zero and variance equal to their eigenvalue.
    """
    grid = make_grid(grid_size)
    return SyntheticKLModel(grid=grid, mean=from_callable(grid, lambda u, v: u * v),
                            eigenvalues=(0.4, 0.2, 0.05), frequencies=((1, 1), (2, 1), (1, 2)))


_MODEL_KEYS = ("family", "link", "covariate")
_ESTIMATOR_KEYS = tuple(f.name for f in fields(PipelineConfig) if f.name != "grid_size")
# the model, tolerances and estimator keys each experiment reads, and how many
# eval_points (None: any number of point pairs); every other key is refused
_READS = {
    "consistency": (_MODEL_KEYS, ("final_median",), _ESTIMATOR_KEYS, 1),
    "benchmark": (_MODEL_KEYS, (), _ESTIMATOR_KEYS, 1),
    "bridge": (_MODEL_KEYS, ("covariance",), (), None),
    "perturbation": ((), (), (), 0),
    "uniformity": (_MODEL_KEYS, (), (), 0),
}
# fixed verdicts: the perturbation experiment follows eigenfunction 1, wants
# residual medians to fall by a factor 2 over the ladder, identity gaps below
# 1e-10 and mean-CLT medians within 20% of each other; the uniformity one wants
# 95% of KS distances below the asymptotic 1% critical value 1.63 / sqrt(n)
_COMPONENT = 1
_RESIDUAL_FACTOR = 2.0
_IDENTITY_TOL = 1e-10
_CLT_BAND = 0.2
_KS_CRITICAL = 1.63
_KS_PASS_FRACTION = 0.95


def _refuse_unread(cfg: ExperimentConfig, experiment: str) -> None:
    """Raise a ValueError naming the first setting ``experiment`` does not read."""
    *keys, points = _READS[experiment]
    for name, read in zip(("model", "tolerances", "estimator"), keys):
        for key in getattr(cfg, name):
            if key not in read:
                raise ValueError(f"the {experiment} experiment reads no {name} key "
                                 f"{key!r}; it reads {', '.join(read) or 'none'}")
    if points is not None and len(cfg.eval_points) > points:
        raise ValueError(f"the {experiment} experiment reads at most {points} eval_points")


def _median(vals) -> float:
    """Median of the finite values; failed replications hold NaN."""
    vals = np.asarray(vals, dtype=float)
    return float(np.median(vals[np.isfinite(vals)]))


def _decreasing(vals) -> bool:
    return all(b < a for a, b in zip(vals, vals[1:]))


def _run_ladder(cfg: ExperimentConfig, names, one_rep, judge) -> ExperimentReport:
    """Run every replication of every ladder step and build the report.

    ``one_rep(n, seed)`` returns one value per entry of ``names``. Steps and
    replications run serially, in index order, each on its own ``rep_seed``
    substream. A replication that fails numerically is listed in the report's
    failures and holds NaN values; any other exception propagates.
    ``judge(raw)`` turns ``raw[name][n]``, the values in replication order,
    into the report's metrics and checks, and pops from ``raw`` whatever it
    reduces without reporting. Every verdict also requires that no
    replication failed.
    """
    t0 = time.perf_counter()
    raw = {name: {} for name in names}
    failures = []
    for step, n in enumerate(cfg.n_ladder):
        rows = []
        for rep in range(cfg.replications):
            try:
                rows.append(one_rep(n, rep_seed(cfg.seed, step, rep)))
            except DegenerateWeightsError as exc:
                failures.append({"n": n, "rep": rep, "error": str(exc)})
                rows.append((np.nan,) * len(names))
        for name, column in zip(names, zip(*rows)):
            raw[name][n] = list(column)
    metrics, checks = judge(raw)
    checks["no failed replications"] = not failures
    return ExperimentReport(
        experiment=cfg.experiment,
        config=cfg.to_dict(),
        config_hash=cfg.digest(),
        seeds=[rep_seed(cfg.seed, step, 0) for step in range(len(cfg.n_ladder))],
        metrics=metrics,
        passed=all(checks.values()),
        checks=checks,
        runtime_s=time.perf_counter() - t0,
        failures=failures,
        raw=raw,
    )


def _estimation_target(cfg: ExperimentConfig):
    """Model, evaluation point, true surface and estimator config of a run."""
    model = build_conditional_model(cfg.model)
    x_eval = cfg.eval_points[0] if cfg.eval_points else 0.5
    if not np.isfinite(x_eval):
        raise ValueError(f"evaluation point x must be finite, got {x_eval}")
    true_surf = true_conditional_copula(model, x_eval, make_grid(cfg.grid_size))
    # verification targets the raw linear estimator; projection only if asked
    est_cfg = PipelineConfig(grid_size=cfg.grid_size, **{"project": False, **cfg.estimator})
    return model, x_eval, true_surf, est_cfg


def consistency_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Median sup-grid error of the estimator along the n-ladder.

    Passes when the medians are strictly decreasing and the final median is
    below the calibrated bound.
    """
    _refuse_unread(cfg, "consistency")
    model, x_eval, true_surf, est_cfg = _estimation_target(cfg)

    def one_rep(n, seed):
        sample, _ = sample_conditional(model, n, seed)
        est = estimate_conditional_copula(x_eval, sample, est_cfg)
        return (sup_distance(est.surface, true_surf),)

    def judge(raw):
        medians = {str(n): _median(raw["sup_error"][n]) for n in cfg.n_ladder}
        meds = list(medians.values())
        bound = cfg.tolerances.get("final_median", 0.08)
        checks = {
            "medians strictly decreasing": _decreasing(meds),
            f"final median <= {bound}": meds[-1] <= bound,
        }
        return {"median_sup_error": medians}, checks

    return _run_ladder(cfg, ("sup_error",), one_rep, judge)


def bridge_covariance_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Empirical covariance of the known-margins partial-copula process.

    Requires a constant tau link, so the partial copula has a closed form.
    For each configured pair of evaluation points, compares the Monte Carlo
    covariance of sqrt(n) (ECDF - truth) against
    C(u ^ u', v ^ v') - C(u, v) C(u', v'). The process is that of the exact
    transforms' ECDF on the lattice of the points' distinct coordinates.
    """
    _refuse_unread(cfg, "bridge")
    model = build_conditional_model(cfg.model)
    if model.link.form != "constant":
        raise ValueError("bridge covariance check needs a constant tau link")
    if len(cfg.n_ladder) != 1:
        raise ValueError(f"the bridge experiment reads one sample size, got n_ladder "
                         f"{cfg.n_ladder}")
    cop = model.copula_at(0.0)
    (n,) = cfg.n_ladder
    pairs = cfg.eval_points or (((0.5, 0.5), (0.5, 0.5)),)
    for pair in pairs:
        try:
            points = np.asarray(pair, dtype=float)
        except (TypeError, ValueError):  # ragged or not numbers
            points = None
        if points is None or points.shape != (2, 2) or not np.all((0 <= points) & (points <= 1)):
            raise ValueError("each bridge eval_points entry must be a pair of (u, v) points "
                             f"in [0, 1]^2, got {pair!r}")
    tols = cfg.tolerances.get("covariance", 0.02)
    tols = list(tols) if isinstance(tols, (list, tuple)) else [tols] * len(pairs)
    if len(tols) != len(pairs):
        raise ValueError("one covariance tolerance per point pair required")

    levels = np.unique(pairs)
    truths = np.array([[float(copula_cdf(cop, u, v)) for v in levels] for u in levels])

    def one_rep(n, seed):
        _, truth = sample_conditional(model, n, seed)
        ecdf = joint_ecdf(truth.eps1, truth.eps2, levels)
        return (np.sqrt(n) * (ecdf - truths),)

    def judge(raw):
        # the process values only feed the covariances
        vals = np.array(raw.pop("process")[n])
        checks = {}
        metrics = {}
        for pair, tol in zip(pairs, tols):
            (u, v), (u2, v2) = (tuple(pair[0]), tuple(pair[1]))
            target = float(
                copula_cdf(cop, min(u, u2), min(v, v2))
                - copula_cdf(cop, u, v) * copula_cdf(cop, u2, v2)
            )
            a = vals[:, np.searchsorted(levels, u), np.searchsorted(levels, v)]
            b = vals[:, np.searchsorted(levels, u2), np.searchsorted(levels, v2)]
            emp = float(np.mean(a * b) - np.mean(a) * np.mean(b))
            label = f"cov(({u},{v}),({u2},{v2}))"
            metrics[label] = {"empirical": emp, "target": target}
            checks[f"{label} within {tol}"] = abs(emp - target) <= tol
        return metrics, checks

    return _run_ladder(cfg, ("process",), one_rep, judge)


def eigen_perturbation_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """First-order perturbation residuals on the synthetic model.

    Per replication: take the leading eigenfunction on the fit's own route,
    ``ensemble_eigensystem`` of the trajectories centred at the model's mean
    (the n x n Gram matrix when n < G^2, the G^2 x G^2 covariance
    otherwise), sign-align it to the truth phi_k, and measure
    || sqrt(n)(phi_hat - phi_k) - T ||_2 for the first-order term
    T = sum_{j != k} <sqrt(n)(Gamma_hat - Gamma) phi_k, phi_j> / (lambda_k - lambda_j) phi_j
    (Hall & Hosseini-Nasab 2006). As <Gamma phi_k, phi_j> = 0 for j != k,
    each pairing is sqrt(n) times the cross moment (1/n) sum_i xi_ik xi_ij of
    the scores on the model's exact eigenfunctions. Also asserts the exact
    unit-sphere identity and the distributional stability of
    || sqrt(n)(mean_hat - mean) ||_2 across the ladder.
    """
    _refuse_unread(cfg, "perturbation")
    model = build_kl_model(cfg.grid_size)
    grid = model.grid
    lam = np.array(model.eigenvalues)
    phis = np.stack([model.phi(j).values for j in range(1, model.K + 1)])
    truth = EigenSystem(grid, lam, phis, np.ones(model.K), float(lam.sum()))
    k = _COMPONENT - 1
    phi_true = model.phi(_COMPONENT)
    # component k itself contributes nothing to T
    gaps = lam[k] - lam
    gaps[k] = np.inf

    def one_rep(n, seed):
        _, surfaces, _ = synthetic_kl_sample(model, n, seed)
        centered = centered_trajectories(surfaces, model.mean)
        phi_hat = ensemble_eigensystem(centered, grid, _COMPONENT).phi(_COMPONENT)
        # sign-align the estimate to the truth
        sign = 1.0 if np.sum(phi_hat.values * phi_true.values) >= 0 else -1.0
        phi_hat = GridFunction(grid=grid, values=sign * phi_hat.values)
        lhs, rhs = unit_sphere_identity(phi_hat, phi_true)
        xi = scores(centered, truth, model.K)
        pairings = np.sqrt(n) * np.mean(xi[:, [k]] * xi, axis=0)
        t_kn = np.tensordot(pairings / gaps, phis, axes=1)
        resid = GridFunction(
            grid=grid, values=np.sqrt(n) * (phi_hat.values - phi_true.values) - t_kn
        )
        mean_dev = GridFunction(
            grid=grid,
            values=np.sqrt(n) * (surfaces.mean(axis=0) - model.mean.values),
        )
        return l2_norm(resid), l2_norm(mean_dev), abs(lhs - rhs)

    def judge(raw):
        med_resid = [_median(raw["residual"][n]) for n in cfg.n_ladder]
        med_clt = [_median(raw["clt_norm"][n]) for n in cfg.n_ladder]
        # the identity gaps are reported through their maximum
        max_ident = max(max(v) for v in raw.pop("identity").values())
        clt_stable = all(
            abs(b - a) <= _CLT_BAND * a for a, b in zip(med_clt, med_clt[1:])
        )
        checks = {
            "residual medians decreasing": _decreasing(med_resid),
            f"end-to-end residual factor >= {_RESIDUAL_FACTOR}": med_resid[0]
            >= _RESIDUAL_FACTOR * med_resid[-1],
            f"unit-sphere identity <= {_IDENTITY_TOL:g}": max_ident <= _IDENTITY_TOL,
            f"mean-CLT norm stable within {_CLT_BAND:.0%}": clt_stable,
        }
        metrics = {
            "median_residual": {str(n): m for n, m in zip(cfg.n_ladder, med_resid)},
            "median_clt_norm": {str(n): m for n, m in zip(cfg.n_ladder, med_clt)},
            "max_identity_gap": max_ident,
        }
        return metrics, checks

    return _run_ladder(cfg, ("residual", "clt_norm", "identity"), one_rep, judge)


def ks_uniform_statistic(vals: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance from Uniform(0, 1)."""
    vals = np.sort(np.asarray(vals, dtype=float))
    n = vals.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - vals), np.max(vals - (i - 1) / n)))


def uniformity_and_gap_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Pseudo-margin uniformity (known margins) and the rank-transform gap.

    KS distances of the exact conditional transforms from Uniform(0,1), and
    the sup over a 101 x 101 lattice of the distance between the fit's
    partial copula routine, ``rank_copula``, of the exact transforms and the
    ECDF of their normalized ranks (``joint_ecdf``), tested
    against the conservative 2/n bound (each margin threshold moves by at
    most one atom). The distance to the exact-margins ECDF is reported as an
    additional metric without an assertion; it fluctuates at the n^(-1/2)
    scale of the margins.
    """
    _refuse_unread(cfg, "uniformity")
    model = build_conditional_model(cfg.model)
    levels = np.linspace(0.0, 1.0, 101)

    def one_rep(n, seed):
        _, truth = sample_conditional(model, n, seed)
        e1, e2 = truth.eps1, truth.eps2
        ks = max(ks_uniform_statistic(e1), ks_uniform_statistic(e2))
        pseudo = PseudoSample(eps1=e1, eps2=e2)
        rank_surface = rank_copula(pseudo, levels)
        # normalized ranks of the same sample; the rank-based estimator can
        # move each margin threshold by at most one atom relative to their
        # ECDF, hence the 2/n bound
        r1, r2 = (pseudo.ranks + 1) / n
        rank_ecdf = joint_ecdf(r1, r2, levels)
        gap = float(np.max(np.abs(rank_surface - rank_ecdf)))
        # distance to the exact-margins ECDF, reported but not asserted
        # (it carries the O(n^-1/2) margin fluctuation)
        ecdf_surface = joint_ecdf(e1, e2, levels)
        ecdf_gap = float(np.max(np.abs(rank_surface - ecdf_surface)))
        return ks, gap, ecdf_gap

    def judge(raw):
        checks = {}
        metrics = {
            "ks_pass_fraction": {},
            "max_gap_times_n": {},
            "median_exact_ecdf_gap": {},
        }
        for n in cfg.n_ladder:
            crit = _KS_CRITICAL / np.sqrt(n)
            frac = float(np.mean(np.asarray(raw["ks"][n]) < crit))
            metrics["ks_pass_fraction"][str(n)] = frac
            if n == cfg.n_ladder[-1]:
                # the asymptotic critical value is only trusted at the largest
                # n; smaller ladder steps are reported without a verdict
                checks[f"KS below {crit:.4f} in >= {_KS_PASS_FRACTION:.0%} at n={n}"] = (
                    frac >= _KS_PASS_FRACTION
                )
            worst = max(raw["gap"][n])
            metrics["max_gap_times_n"][str(n)] = worst * n
            metrics["median_exact_ecdf_gap"][str(n)] = _median(raw["exact_ecdf_gap"][n])
            checks[f"gap <= 2/n at n={n}"] = worst <= 2.0 / n + 1e-12
        return metrics, checks

    return _run_ladder(cfg, ("ks", "gap", "exact_ecdf_gap"), one_rep, judge)


def grid_errors(values: np.ndarray, truth: GridFunction) -> tuple:
    """Sup and L2 distances of a surface from the truth."""
    diff = GridFunction(grid=truth.grid, values=values - truth.values)
    return float(np.max(np.abs(diff.values))), l2_norm(diff)


def benchmark_vs_baseline(cfg: ExperimentConfig) -> ExperimentReport:
    """Error tables for the FPCA estimator and the plug-in baseline.

    Reports per-n median sup and L2 (MISE-style) grid errors for both
    estimators at the evaluation point; passes when both error columns
    decrease monotonically in median along the ladder. No superiority claim.
    The baseline reuses the fit's pseudo-observations and bandwidth h.
    """
    _refuse_unread(cfg, "benchmark")
    model, x_eval, true_surf, est_cfg = _estimation_target(cfg)

    def one_rep(n, seed):
        sample, _ = sample_conditional(model, n, seed)
        fit = fit_pipeline(sample, est_cfg)
        est = evaluate_fit(fit, x_eval)
        k = KernelSpec(family=est_cfg.kernel_family, bandwidth=fit.bandwidths["h"])
        try:  # its failure names its bandwidth
            base = weighted_copula_surfaces([x_eval], sample, k, fit.center.grid, fit.pseudo)[0]
        except DegenerateWeightsError as exc:
            raise DegenerateWeightsError(f"{exc} h") from None
        return (*grid_errors(est.surface.values, true_surf), *grid_errors(base, true_surf))

    def judge(raw):
        table = {
            str(n): {
                "kl_sup": _median(raw["kl_sup"][n]),
                "kl_l2": _median(raw["kl_l2"][n]),
                "baseline_sup": _median(raw["base_sup"][n]),
                "baseline_l2": _median(raw["base_l2"][n]),
            }
            for n in cfg.n_ladder
        }
        checks = {
            "KL estimator median errors decreasing": _decreasing(
                [row["kl_sup"] for row in table.values()]
            ),
            "baseline median errors decreasing": _decreasing(
                [row["baseline_sup"] for row in table.values()]
            ),
        }
        return {"error_table": table}, checks

    return _run_ladder(cfg, ("kl_sup", "kl_l2", "base_sup", "base_l2"), one_rep, judge)
