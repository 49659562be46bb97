"""condcopula benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the ops of one workload in this single process, from the repository
root, and prints as the last line of standard output one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, from one timed pass over
the workload's input pool, which is sized to take about ``run_seconds``;
the set-up is also timed twice in fresh interpreters. With ``--trace 1``
they are the per-layer ones, from ops traced for ``--seconds``. The
per-layer numbers come from wrapping each layer's
public functions where the calling module looks them up
(``condcopula.estimator.*``, ``condcopula.harness.*``), so ``src/`` runs
unchanged. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

if not (SRC / "condcopula" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no condcopula sources under {SRC}")
sys.path.insert(0, str(SRC))
# the harness's default single worker, whatever the caller's environment
# says; the BLAS keeps its library default thread count
os.environ["CONDCOPULA_WORKERS"] = "1"

# the import of numpy, scipy and condcopula is part of set-up
_T_IMPORT = time.perf_counter()

import numpy as np  # noqa: E402

import condcopula  # noqa: E402
from condcopula import estimator, harness, simulate  # noqa: E402
from condcopula.conditional import kernel_values  # noqa: E402
from condcopula.errors import DegenerateSpectrumError, DegenerateWeightsError  # noqa: E402
from condcopula.grid import make_grid, sup_distance  # noqa: E402

IMPORT_S = time.perf_counter() - _T_IMPORT

if not Path(condcopula.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"perfbench: condcopula imported from outside {SRC}")

DEFAULT_SEED = 1  # the seed the committed reference outputs belong to
SETUP_REPEATS = 3
MIN_TRACED_OPS = 3
REFERENCE_ATOL = 1e-9
# loose truth-based sanity bound on any sup-grid error; observed values at
# these sizes stay below 0.08
SUP_ERR_LIMIT = 0.2
BAND_TOL = 1e-12
OP_ERRORS = (DegenerateWeightsError, DegenerateSpectrumError)
X_EVAL = tuple(float(x) for x in np.linspace(0.05, 0.95, 19))
MIB = 2.0**20

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "sup_err.p50": "prob",
    "ok_frac": "frac",
}

# (module, attribute, layer name): the functions wrapped in a traced run,
# at the module through which their caller looks them up
LAYERS = (
    (simulate, "sample_conditional", "simulate.sample_conditional"),
    (harness, "sample_conditional", "simulate.sample_conditional"),
    (harness, "build_conditional_model", "simulate.build_model"),
    (estimator, "pseudo_observations", "conditional.pseudo_observations"),
    (estimator, "empirical_copula_grid", "conditional.empirical_copula_grid"),
    (estimator, "weighted_copula_surfaces", "conditional.weighted_copula_surfaces"),
    (estimator, "covariance_field", "fpca.covariance_field"),
    (estimator, "eigendecompose", "fpca.eigendecompose"),
    (estimator, "scores", "fpca.scores"),
    (estimator, "eval_alpha", "regression.eval_alpha"),
    (estimator, "frechet_project", "estimator.frechet_project"),
    (estimator, "evaluate_fit", "estimator.evaluate_fit"),
    (estimator, "fit_pipeline", "estimator.fit_pipeline"),
    (harness, "consistency_experiment", "harness.consistency_experiment"),
)
# glue layers whose self time is everything their children do not cover
GLUE = ("estimator.fit_pipeline", "harness.consistency_experiment")
ALLOC_PROBED = ("conditional.pseudo_observations", "conditional.weighted_copula_surfaces")
# calls whose arguments or results feed the per-layer counts
KEPT = (
    "simulate.sample_conditional",
    "conditional.weighted_copula_surfaces",
    "fpca.eigendecompose",
    "estimator.fit_pipeline",
    "estimator.evaluate_fit",
    "harness.consistency_experiment",
)


def _layer_metric(name: str) -> str:
    return f"{name}.self_s" if name in GLUE else f"{name}.s"


PER_LAYER = {
    **{_layer_metric(name): "s" for name in dict.fromkeys(n for _, _, n in LAYERS)},
    "simulate.obs_per_s": "1/s",
    "conditional.pseudo_observations.peak_alloc_mb": "MiB",
    "conditional.weighted_copula_surfaces.peak_alloc_mb": "MiB",
    "conditional.window_obs.mean": "count",
    "conditional.window_share": "frac",
    "conditional.dense_nxn_mb.computed": "MiB",
    "fpca.eigendecompose.dim": "count",
    "fpca.K": "count",
    "harness.failures": "count",
    "estimator.min_rect_mass": "prob",
    "layers.coverage_frac": "frac",
    "trace_overhead_frac": "frac",
}


def _fresh_setup_seconds(workload, seed: int) -> float:
    """Wall seconds of the imports plus ``workload.setup`` in a fresh interpreter."""
    here = str(Path(__file__).resolve().parent)
    code = (
        "import sys, time; t = time.perf_counter(); "
        f"sys.path.insert(0, {here!r}); import run; "
        f"eval({repr(workload)!r}, vars(run)).setup({seed}); "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True, timeout=120
    )
    return float(out.stdout)


def _pool_seeds(seed: int, pool: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(pool)]


def _close(values, ref) -> bool:
    a = np.asarray(values, dtype=float)
    b = np.asarray(ref, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= REFERENCE_ATOL))


@dataclass(frozen=True)
class FitWorkload:
    """One op fits a pooled sample and evaluates the fit at every x."""

    name: str
    family: str
    link: str
    n: int
    grid_size: int
    kernel: str
    pool: int
    xs: tuple = X_EVAL

    def setup(self, seed: int) -> dict:
        model = simulate.ConditionalModel(
            family=self.family, link=simulate.TauLink.parse(self.link)
        )
        grid = make_grid(self.grid_size)
        return {
            "samples": [
                simulate.sample_conditional(model, self.n, s)[0]
                for s in _pool_seeds(seed, self.pool)
            ],
            "truth": [simulate.true_conditional_copula(model, x, grid) for x in self.xs],
            "config": estimator.PipelineConfig(
                grid_size=self.grid_size, kernel_family=self.kernel, project=True
            ),
        }

    def op(self, state: dict, i: int) -> list:
        fit = estimator.fit_pipeline(state["samples"][i % self.pool], state["config"])
        return [estimator.evaluate_fit(fit, x) for x in self.xs]

    def fingerprint(self, estimates: list) -> list:
        """K, a 5x5 sub-lattice of node values and the mean value, per surface."""
        probe = np.linspace(0, self.grid_size - 1, 5).round().astype(int)
        out = []
        for est in estimates:
            v = est.surface.values
            out += [est.K, *v[np.ix_(probe, probe)].ravel(), v.mean()]
        return [float(f"{x:.12g}") for x in out]

    def check(self, state: dict, estimates, ref) -> tuple:
        """(attempted, failed, sup errors) of one op; ``ref`` may be None."""
        if estimates is None:
            return 1, 1, []
        G = self.grid_size
        ok = len(estimates) == len(self.xs)
        errs = []
        for est, truth in zip(estimates, state["truth"]):
            v = est.surface.values
            ok &= v.shape == (G, G) and bool(np.all(np.isfinite(v)))
            ok &= bool(v.min() >= 0.0 and v.max() <= 1.0)
            if est.projected:
                U, V = np.meshgrid(truth.grid.nodes, truth.grid.nodes, indexing="ij")
                ok &= bool(np.all(v >= np.maximum(U + V - 1.0, 0.0) - BAND_TOL))
                ok &= bool(np.all(v <= np.minimum(U, V) + BAND_TOL))
            err = sup_distance(est.surface, truth)
            ok &= err <= SUP_ERR_LIMIT
            errs.append(err)
        if ref is not None:
            ok &= _close(self.fingerprint(estimates), ref)
        return 1, int(not ok), errs


@dataclass(frozen=True)
class LadderWorkload:
    """One op is one replication of each consistency run on the n-ladder."""

    name: str
    runs: tuple  # ((family, link), ...)
    n_ladder: tuple
    pool: int

    def setup(self, seed: int) -> dict:
        configs = [
            [
                harness.ExperimentConfig(
                    experiment="consistency",
                    model={"family": family, "link": link},
                    n_ladder=self.n_ladder,
                    replications=1,
                    seed=s,
                )
                for family, link in self.runs
            ]
            for s in _pool_seeds(seed, self.pool)
        ]
        return {"configs": configs}

    def op(self, state: dict, i: int) -> list:
        return [harness.consistency_experiment(c) for c in state["configs"][i % self.pool]]

    def fingerprint(self, reports: list) -> list:
        return [
            [r.metrics["median_sup_error"][str(n)] for n in self.n_ladder] for r in reports
        ]

    def check(self, state: dict, reports, ref) -> tuple:
        """Counts replications; each harness failure is one failed replication."""
        reps = len(self.n_ladder)
        if reports is None:
            return reps * len(self.runs), reps * len(self.runs), []
        attempted = failed = 0
        errs = []
        for k, (report, medians) in enumerate(zip(reports, self.fingerprint(reports))):
            finite = [m for m in medians if math.isfinite(m)]
            bad = len(report.failures) + sum(not 0.0 < m <= SUP_ERR_LIMIT for m in finite)
            if ref is not None and not _close(medians, ref[k]):
                bad = reps
            attempted += reps
            failed += min(bad, reps)
            errs += finite
        return attempted, failed, errs


WORKLOADS = {
    w.name: w
    for w in (
        FitWorkload("fit-large-n", "clayton", "sine:0.4,0.25", 3000, 21, "epanechnikov", 8),
        FitWorkload("fit-fine-grid", "clayton", "sine:0.4,0.25", 800, 51, "gaussian", 7),
        LadderWorkload(
            "mc-ladder", (("frank", "linear:0.2,0.3"), ("gumbel", "sine:0.4,0.25")), (200, 400), 20
        ),
    )
}


class Tracer:
    """Self time per layer, from wrappers installed around each layer call."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.kept = defaultdict(list)
        self.peak_alloc = {}
        self.probe_alloc = False
        self._child = []

    def reset(self) -> None:
        self.self_s.clear()
        self.kept.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            probe = self.probe_alloc and name in ALLOC_PROBED
            if probe:
                tracemalloc.start()
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self.self_s[name] += dur - self._child.pop()
                if self._child:
                    self._child[-1] += dur
                if probe:
                    self.peak_alloc[name] = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
            if name in KEPT:
                self.kept[name].append((args, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in LAYERS]
        try:
            for mod, attr, name in LAYERS:
                setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)


def _window_obs(xs_eval, xs, kernel) -> np.ndarray:
    """Observations with nonzero trajectory weight at each evaluation point."""
    out = []
    for lo in range(0, len(xs_eval), 256):
        z = (np.asarray(xs_eval[lo : lo + 256])[:, None] - xs[None, :]) / kernel.bandwidth
        out.append(np.count_nonzero(kernel_values(kernel.family, z) > 0.0, axis=1))
    return np.concatenate(out)


def _min_rect_mass(values: np.ndarray, nodes: np.ndarray) -> float:
    """Smallest cell mass, with the known border C(0,.)=0 and C(u,1)=u."""
    G = len(nodes)
    full = np.zeros((G + 2, G + 2))
    full[1:-1, 1:-1] = values
    full[1:-1, -1] = nodes
    full[-1, 1:-1] = nodes
    full[-1, -1] = 1.0
    return float(np.diff(np.diff(full, axis=0), axis=1).min())


def _op_counts(tracer: Tracer) -> dict:
    kept = tracer.kept
    counts = {}
    windows = [
        (_window_obs(a[0], a[1].x, a[2]), a[1].n)
        for a, _ in kept["conditional.weighted_copula_surfaces"]
    ]
    if windows:
        counts["conditional.window_obs.mean"] = float(np.mean([w.mean() for w, _ in windows]))
        counts["conditional.window_share"] = float(np.mean([w.mean() / n for w, n in windows]))
        n_max = max(n for _, n in windows)
        counts["conditional.dense_nxn_mb.computed"] = n_max * n_max * 8 / MIB
    dims = [a[0].grid.G ** 2 for a, _ in kept["fpca.eigendecompose"]]
    if dims:
        counts["fpca.eigendecompose.dim"] = max(dims)
    fits = kept["estimator.fit_pipeline"]
    if fits:
        counts["fpca.K"] = float(np.median([fit.K for _, fit in fits]))
    masses = [
        _min_rect_mass(est.surface.values, est.surface.grid.nodes)
        for _, est in kept["estimator.evaluate_fit"]
    ]
    if masses:
        counts["estimator.min_rect_mass"] = min(masses)
    counts["harness.failures"] = sum(
        len(report.failures) for _, report in kept["harness.consistency_experiment"]
    )
    return counts


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Tally:
    """Attempted and failed counts, plus sup errors and fingerprints per pool entry."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors = {}
        self.fingerprints = {}

    def sup_errors(self) -> list:
        return [e for errs in self.errors.values() for e in errs]

    def op(self, state: dict, i: int) -> float:
        """Run and check op i; returns the wall seconds of the op alone."""
        w = self.workload
        t0 = time.perf_counter()
        try:
            out = w.op(state, i)
        except OP_ERRORS:
            out = None
        elapsed = time.perf_counter() - t0
        ref = None if self.reference is None else self.reference[i % w.pool]
        attempted, failed, errs = w.check(state, out, ref)
        self.attempted += attempted
        self.failed += failed
        self.errors[i % w.pool] = errs
        if out is not None:
            self.fingerprints[i % w.pool] = w.fingerprint(out)
        return elapsed


def run(workload, seed: int, seconds: float, trace: bool, reference=None) -> tuple:
    """Run one workload; returns (result dict, fingerprints of one pool pass).

    ``seconds`` is the length of the traced phase; an untraced run times
    one pass over the pool.

    ``reference`` is a list of per-pool-entry fingerprints, or None to skip
    the reference match.
    """
    tally = Tally(workload, reference)
    if trace:
        return _run_traced(workload, seed, seconds, tally), tally.fingerprints
    # every set-up is a cold one: this process's own, then fresh interpreters
    t0 = time.perf_counter()
    state = workload.setup(seed)
    setups = [IMPORT_S + time.perf_counter() - t0]
    setups += [_fresh_setup_seconds(workload, seed) for _ in range(SETUP_REPEATS - 1)]
    tally.op(state, 0)  # warm-up: first-call costs and page faults stay out of the timings
    # exactly one pass over the pool, which is sized to take about run_seconds,
    # so that the ops behind op_s.p50 and sup_err.p50 are fixed for a seed
    t_start = time.perf_counter()
    times = [tally.op(state, i) for i in range(workload.pool)]
    timed_s = time.perf_counter() - t_start
    print(f"{workload.name}: {len(times)} timed ops after 1 warm-up op")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s.p50": statistics.median(times),
        "ops_per_s": len(times) / timed_s,
        "peak_rss_mb": rss_mb,
        "sup_err.p50": _median(tally.sup_errors()),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }
    return _result(tally, metrics, END_TO_END), tally.fingerprints


def _run_traced(workload, seed: int, seconds: float, tally: Tally) -> dict:
    """Alternate untraced and traced ops; per-layer medians over traced ops."""
    tracer = Tracer()
    with tracer.installed():
        state = workload.setup(seed)
        tracer.probe_alloc = True
        tally.op(state, 0)
        tracer.probe_alloc = False
    obs = sum(args[1] for args, _ in tracer.kept["simulate.sample_conditional"])
    sampler_s = tracer.self_s.get("simulate.sample_conditional", 0.0)
    plain, traced = [], []
    per_layer = defaultdict(list)
    counts = defaultdict(list)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_TRACED_OPS or time.perf_counter() < deadline:
        plain.append(tally.op(state, i))
        tracer.reset()
        with tracer.installed():
            traced.append(tally.op(state, i))
        for name in dict.fromkeys(n for _, _, n in LAYERS):
            per_layer[name].append(tracer.self_s.get(name, 0.0))
        obs += sum(args[1] for args, _ in tracer.kept["simulate.sample_conditional"])
        sampler_s += tracer.self_s.get("simulate.sample_conditional", 0.0)
        for key, value in _op_counts(tracer).items():
            counts[key].append(value)
        i += 1
    print(f"{workload.name}: {i} untraced and {i} traced ops after 1 warm-up op")
    op_traced = statistics.median(traced)
    metrics = {_layer_metric(name): _median(v) for name, v in per_layer.items()}
    metrics["simulate.obs_per_s"] = obs / sampler_s if sampler_s > 0 else 0.0
    for name in ALLOC_PROBED:
        metrics[f"{name}.peak_alloc_mb"] = tracer.peak_alloc.get(name, 0.0)
    for key in PER_LAYER:
        if key in counts:
            values = counts[key]
            metrics[key] = min(values) if key == "estimator.min_rect_mass" else _median(values)
    metrics["layers.coverage_frac"] = sum(_median(v) for v in per_layer.values()) / op_traced
    metrics["trace_overhead_frac"] = op_traced / statistics.median(plain) - 1.0
    for key in PER_LAYER:
        metrics.setdefault(key, 0.0)
    return _result(tally, metrics, PER_LAYER)


def _result(tally: Tally, metrics: dict, units: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }


def load_reference(name: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    data = json.loads(REFERENCE.read_text())
    if data["seed"] != DEFAULT_SEED or name not in data["workloads"]:
        raise SystemExit(f"perfbench: no reference for {name} at seed {DEFAULT_SEED}")
    return data["workloads"][name]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument(
        "--write-reference",
        action="store_true",
        help=f"record this run's outputs as the seed-{DEFAULT_SEED} reference",
    )
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.write_reference:
        if args.seed != DEFAULT_SEED or args.trace:
            p.error(f"--write-reference needs --seed {DEFAULT_SEED} --trace 0")
        reference = None
    else:
        reference = load_reference(workload.name, args.seed)
    result, fingerprints = run(workload, args.seed, args.seconds, bool(args.trace), reference)
    if args.write_reference:
        data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {"workloads": {}}
        data["seed"] = DEFAULT_SEED
        data["workloads"][workload.name] = [fingerprints[i] for i in range(workload.pool)]
        REFERENCE.write_text(json.dumps(data, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
