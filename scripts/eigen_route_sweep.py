#!/usr/bin/env python3
"""Time the eigen stage of a fit on its two routes, alternating call by call.

Every row times one call on two runs of the solve: with the matrix of order
N = min(n, G^2) formed and with Lanczos applying it unformed, whatever
``fpca._matrix_free`` says (``ROUTES``), or, below N = 192, by Lanczos and
by numpy's ``eigh`` (``SOLVERS``). One timer serves every row (``timed``):
each round runs every route once, so that a slow stretch of the machine
falls on both, and each route keeps its best of ``--repeats`` rounds. One
more untimed call per route records the matrix-vector products of each
Lanczos run it made (an empty list where the dense route solved it), K and
the components the result holds (``EigenSystem.m``).

For each (n, G) of ``SWEEP``, Clayton ``sine:0.4,0.25`` (seed 1, Gaussian
kernel, rule-of-thumb bandwidths) is fitted once up to its centred (n, G^2)
trajectories, and that stack serves every call at the shape: the fit's own
``fpca.ensemble_eigensystem`` for 16 components under the CVP threshold 0.9
(the sweep rows), the fixed counts of ``COUNTS`` without a threshold, and
the 16-component call under the higher thresholds of ``THRESHOLDS``, whose
larger K leaves more pairs to converge before Lanczos stops; where the
crossing lies past the 16 pairs (CVP 0.999 at every n here), Lanczos gives
way to the dense solve. Whole fits (``FITS``) follow on each route, with
the peak that ``tracemalloc`` traces in one more untimed fit. Last, the
budget rows time counts 1, 5 and 16 and the automatic-K call on the Gram
matrices of Clayton fits at G = 21 and seed 3 (``BUDGET``), around the step
budget from which ``_blas.leading_eigh`` takes Lanczos. The crossovers
between the routes set ``fpca._MATRIX_FREE`` and ``_MATRIX_FREE_PAIRS``;
the rows of ``BENCH_alternating_route_sweep.json`` are this script's.

Usage: PYTHONPATH=src python3 scripts/eigen_route_sweep.py [--repeats 3] [--out PATH]
"""

import argparse
import json
import math
import platform
import time
import tracemalloc

import numpy as np

from condcopula import _blas, fpca
from condcopula.conditional import (
    KernelSpec,
    empirical_copula_grid,
    pseudo_observations,
    rule_of_thumb_bandwidth,
    weighted_copula_surfaces,
)
from condcopula.estimator import PipelineConfig, fit_pipeline
from condcopula.fpca import REPORTED, ensemble_eigensystem, select_K
from condcopula.grid import make_grid
from condcopula.simulate import ConditionalModel, TauLink, sample_conditional

MODEL = ConditionalModel(family="clayton", link=TauLink(form="sine", a=0.4, b=0.25))
KERNEL = "gaussian"
COUNT = 16  # the components an automatic-K fit asks for
CVP = 0.9
# (n, G): the Gram route (n < G^2) across the crossover, then the covariance
# route, with N = 729-1089 around the unformed boundary of 768
SWEEP = ((200, 51), (400, 51), (600, 51), (800, 51), (1200, 51), (2000, 51),
         (3000, 21), (4000, 27), (2000, 29), (4000, 29), (2000, 31), (4000, 31),
         (8000, 31), (4000, 33), (4000, 51))
# the fixed-count calls, without a threshold, of the perturbation experiment
# (1 component) and of fixed-K fits (max(K + 1, 5) components: 5, 16 and 32
# for K <= 4, K = 15 and K = 31), at the shapes of COUNT_SHAPES
COUNTS = (1, 5, 16, 32)
COUNT_SHAPES = ((400, 51), (600, 51), (800, 51), (1200, 51), (2000, 51), (3000, 21))
# the CVP stop of the fit's call at K of up to 16 and past it, at THRESHOLD_SHAPES
THRESHOLDS = (0.99, 0.999)
THRESHOLD_SHAPES = ((800, 51), (1200, 51), (2000, 51))
# (n, G, kernel): the fit-fine-grid shape, the Gram route at n = 2000 and the
# covariance route at n = 4000
FITS = ((800, 51, "gaussian"), (2000, 51, "epanechnikov"), (2000, 51, "gaussian"),
        (4000, 51, "epanechnikov"))
# n at G = 21, so N = n on the Gram route, across the step budgets of counts
# 1 (51), 5 (63) and 16 (96) and up to twice the budget of 16 pairs; each
# (count, threshold) call: fixed counts, then the automatic-K call
BUDGET = (51, 64, 80, 96, 100, 125, 160, 191)
BUDGET_CALLS = ((1, None), (5, None), (16, None), (COUNT, CVP))


def patched(module, **values):
    """A run: ``run(fn)`` calls ``fn()`` with ``module``'s names set to ``values``."""
    def run(fn):
        saved = {name: getattr(module, name) for name in values}
        for name, value in values.items():
            setattr(module, name, value)
        try:
            return fn()
        finally:
            for name, value in saved.items():
                setattr(module, name, value)
    return run


# the eigen matrix formed and unformed, whatever fpca._matrix_free says
ROUTES = {"formed": patched(fpca, _MATRIX_FREE=math.inf, _MATRIX_FREE_PAIRS=0),
          "matrix_free": patched(fpca, _MATRIX_FREE=0, _MATRIX_FREE_PAIRS=math.inf)}
# Lanczos where its step budget fits, and numpy's eigh, for which no budget fits
SOLVERS = {"lanczos": patched(_blas),
           "eigh": patched(_blas, _budget=lambda count: math.inf)}


def timed(runs: dict, call, repeats: int) -> dict:
    """Each route's best wall seconds of ``run(call)`` over ``repeats`` rounds,
    each round one call per route in the order of ``runs``."""
    best = dict.fromkeys(runs, math.inf)
    for _ in range(repeats):
        for route, run in runs.items():
            t0 = time.perf_counter()
            run(call)
            best[route] = min(best[route], time.perf_counter() - t0)
    return best


def lanczos_products(fn) -> tuple:
    """(the matrix-vector products of each Lanczos run that ``fn()`` makes, its result)."""
    runs = []
    real = _blas._lanczos

    def counted(a, count, enough):
        products = 0

        class Counted:  # the matrix as Lanczos reads it, through its products
            shape = a.shape

            def __matmul__(self, v):
                nonlocal products
                products += 1
                return a @ v

        found = real(Counted(), count, enough)
        runs.append(products)
        return found

    _blas._lanczos = counted
    try:
        return runs, fn()
    finally:
        _blas._lanczos = real


def centered_stack(n: int, G: int, seed: int = 1, kernel: str = KERNEL) -> np.ndarray:
    """The (n, G^2) trajectories a fit decomposes, centred at the partial copula."""
    s, _ = sample_conditional(MODEL, n, seed)
    h = rule_of_thumb_bandwidth(s.x)
    k = KernelSpec(family=kernel, bandwidth=h)
    grid = make_grid(G)
    pseudo = pseudo_observations(s, k, k)
    center = empirical_copula_grid(pseudo, grid)
    centered = weighted_copula_surfaces(s.x, s, k, grid, pseudo).reshape(n, -1)
    centered -= center.flat()
    return centered


def route_row(centered: np.ndarray, count: int, cvp, runs: dict, repeats: int) -> dict:
    """``ensemble_eigensystem(centered, grid, count, cvp)`` on each run of ``runs``."""
    n, G = centered.shape[0], math.isqrt(centered.shape[1])
    grid = make_grid(G)
    N = min(n, G * G)
    row = {"n": n, "G": G, "N": N, "count": count, "cvp": cvp,
           "default_matrix_free": fpca._matrix_free(N, count if cvp is None
                                                    else min(count, REPORTED))}

    def call():
        return ensemble_eigensystem(centered, grid, count, cvp)

    best = timed(runs, call, repeats)
    solved = []
    for route, run in runs.items():
        products, es = run(lambda: lanczos_products(call))
        row[route] = {"ms": round(1e3 * best[route], 3), "products": products,
                      "K_and_pairs": [count if cvp is None else select_K(es, cvp), es.m]}
        solved.append(es)
    if len(solved) == 2:
        a, b = solved
        m = min(a.m, b.m)
        row["max_lambda_gap_over_lambda1"] = float(
            np.max(np.abs(a.eigenvalues[:m] - b.eigenvalues[:m])) / a.eigenvalues[0])
        row["total_rel_gap"] = abs(a.total - b.total) / a.total
    return row


def budget_row(centered: np.ndarray, count: int, cvp, repeats: int) -> dict:
    """One call on the Gram route by Lanczos, where its step budget fits,
    and by ``eigh``."""
    n = centered.shape[0]
    budget = _blas._budget(count)
    runs = SOLVERS if n >= budget else {"eigh": SOLVERS["eigh"]}
    # the route under the former boundary, twice the budget, and under the budget
    return {"budget": budget, "route_at_twice_budget": "lanczos" if n >= 2 * budget else "eigh",
            "route": "lanczos" if n >= budget else "eigh", "lanczos": None,
            **route_row(centered, count, cvp, runs, repeats)}


def fit_row(n: int, G: int, kernel: str, repeats: int) -> dict:
    s, _ = sample_conditional(MODEL, n, 1)
    cfg = PipelineConfig(grid_size=G, kernel_family=kernel)
    row = {"n": n, "G": G, "kernel": kernel}

    def call():
        return fit_pipeline(s, cfg)

    best = timed(ROUTES, call, repeats)
    for route, run in ROUTES.items():
        products, fit = run(lambda: lanczos_products(call))
        tracemalloc.start()
        run(call)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        row[route] = {"ms": round(1e3 * best[route], 3), "products": products,
                      "K_and_pairs": [fit.K, fit.eigen.m],
                      "traced_peak_mib": round(peak / 2**20, 1)}
    return row


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", help="write the JSON here as well as to standard output")
    args = ap.parse_args()
    rows = {"sweep": [], "counts": [], "thresholds": [], "fits": [], "budget": []}
    with _blas.limited_threads(1):
        for n, G in SWEEP:
            centered = centered_stack(n, G)
            calls = [("sweep", COUNT, CVP)]
            calls += [("counts", count, None) for count in COUNTS if (n, G) in COUNT_SHAPES]
            calls += [("thresholds", COUNT, cvp) for cvp in THRESHOLDS
                      if (n, G) in THRESHOLD_SHAPES]
            for kind, count, cvp in calls:
                rows[kind].append(route_row(centered, count, cvp, ROUTES, args.repeats))
        rows["fits"] = [fit_row(n, G, kernel, args.repeats) for n, G, kernel in FITS]
        for n in BUDGET:
            centered = centered_stack(n, 21, seed=3, kernel="epanechnikov")
            rows["budget"] += [budget_row(centered, count, cvp, args.repeats)
                               for count, cvp in BUDGET_CALLS]
    result = {
        "what": "scripts/eigen_route_sweep.py: ensemble_eigensystem(centered, grid, count, "
                "cvp) and whole fits on one BLAS thread, each row's two routes alternating "
                f"call by call, best of {args.repeats} rounds",
        "machine": {"python": platform.python_version(), "numpy": np.__version__},
        "matrix_free_where": {"N_at_least": fpca._MATRIX_FREE,
                              "pairs_at_most": fpca._MATRIX_FREE_PAIRS},
        **rows,
    }
    text = json.dumps(result, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")


if __name__ == "__main__":
    main()
