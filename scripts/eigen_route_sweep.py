#!/usr/bin/env python3
"""Time the eigen stage of a fit with its matrix formed and unformed.

For each (n, G) shape, fits Clayton ``sine:0.4,0.25`` (seed 1, Gaussian
kernel, rule-of-thumb bandwidths) up to its centred (n, G^2) trajectories,
then times the fit's own eigen call, ``fpca.ensemble_eigensystem`` for 16
components under the CVP threshold 0.9, on one BLAS thread, best of
``--repeats``. The call runs twice per shape: with the matrix of order
N = min(n, G^2) formed and with Lanczos applying it unformed, whatever
``fpca._matrix_free`` says. The same two routes then time the fixed-count
calls of ``COUNTS``, without a threshold, and the 16-component call under
the higher thresholds of ``THRESHOLDS``, whose larger K leaves more pairs
to converge before Lanczos stops; where the crossing lies past the 16
pairs (CVP 0.999 at every n here), Lanczos gives way to the dense solve.
Whole fits (``FITS``) follow, timed and traced by ``tracemalloc`` on each
route. Beside each time of a call under a threshold, and of a fit, stand K
and the components the result holds (``EigenSystem.m``); beside every time,
one more untimed call records the matrix-vector products of each Lanczos
run it made (an empty list where the dense route solved it). Last, below
N = 192, the same calls (counts 1, 5 and 16, and the automatic-K call) run
by Lanczos and by numpy's ``eigh`` on the Gram matrices of Clayton fits at
G = 21 and seed 3 (``BUDGET``), around the step budget from which
``_blas.leading_eigh`` takes Lanczos. The output is one JSON object with the
rows of ``BENCH_matrix_free_eigen.json``, ``BENCH_lanczos_stop.json`` and
``BENCH_lanczos_budget_route.json``; the crossovers between the routes set
``fpca._MATRIX_FREE`` and ``_MATRIX_FREE_PAIRS``, and the budget rows show
what ``_blas._budget`` gives each call.

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
# (n, G): Gram route (n < G^2) across the crossover, then the covariance route
SWEEP = ((200, 51), (600, 51), (800, 51), (1200, 51), (2000, 51),
         (3000, 21), (4000, 31), (4000, 51))
# (n, G, kernel): the fit-fine-grid shape, the Gram route at n = 2000 and the
# covariance route at n = 4000
FITS = ((800, 51, "gaussian"), (2000, 51, "epanechnikov"), (2000, 51, "gaussian"),
        (4000, 51, "epanechnikov"))
# (count, n, G): the fixed-count calls, without a threshold, of the
# perturbation experiment (1 component) and of fixed-K fits (max(K + 1, 5)
# components: 5, 16 and 32 for K <= 4, K = 15 and K = 31), on both sides of
# the order at which the routes cross for 16 components under the CVP stop
COUNTS = tuple((count, n, G) for count in (1, 5, 16, 32)
               for n, G in ((400, 51), (600, 51), (800, 51), (1200, 51), (2000, 51), (3000, 21)))
# (n, threshold) at G = 51: the CVP stop of the fit's call at K of 1 to 16
THRESHOLDS = tuple((n, cvp) for n in (800, 1200, 2000) for cvp in (0.9, 0.99, 0.999))
# (_MATRIX_FREE, _MATRIX_FREE_PAIRS) that send every solve down each route
ROUTES = {"formed": (math.inf, 0), "matrix_free": (0, math.inf)}
# n at G = 21, so N = n on the Gram route, across the step budgets of counts
# 1 (51), 5 (63) and 16 (96) and up to twice the budget of 16 pairs; each
# (count, threshold) call: fixed counts, then the automatic-K call
BUDGET = (51, 64, 80, 96, 100, 125, 160, 191)
BUDGET_CALLS = ((1, None), (5, None), (16, None), (COUNT, CVP))


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


def best_of(repeats: int, fn) -> tuple:
    """(best wall seconds, last result) of ``repeats`` calls of ``fn``."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def lanczos_products(fn) -> list:
    """The matrix-vector products of each Lanczos run that ``fn()`` makes."""
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
        fn()
    finally:
        _blas._lanczos = real
    return runs


def on_route(route: str, fn):
    saved = fpca._MATRIX_FREE, fpca._MATRIX_FREE_PAIRS
    fpca._MATRIX_FREE, fpca._MATRIX_FREE_PAIRS = ROUTES[route]
    try:
        return fn()
    finally:
        fpca._MATRIX_FREE, fpca._MATRIX_FREE_PAIRS = saved


def sweep_row(n: int, G: int, repeats: int) -> dict:
    grid = make_grid(G)
    centered = centered_stack(n, G)
    row = {"n": n, "G": G, "N": min(n, G * G),
           "route": "gram" if n < G * G else "covariance",
           "default_matrix_free": fpca._matrix_free(min(n, G * G), min(COUNT, REPORTED))}
    eigen = {}

    def call():
        return ensemble_eigensystem(centered, grid, COUNT, CVP)

    for route in ROUTES:
        seconds, es = on_route(route, lambda: best_of(repeats, call))
        row[f"{route}_ms"] = round(1e3 * seconds, 2)
        row[f"{route}_products"] = on_route(route, lambda: lanczos_products(call))
        row[f"{route}_K_and_pairs"] = [select_K(es, CVP), es.m]
        eigen[route] = es
    formed, free = eigen["formed"], eigen["matrix_free"]
    m = min(formed.m, free.m)
    row["max_lambda_gap_over_lambda1"] = float(
        np.max(np.abs(formed.eigenvalues[:m] - free.eigenvalues[:m])) / formed.eigenvalues[0])
    row["total_rel_gap"] = abs(formed.total - free.total) / formed.total
    return row


def count_row(count: int, n: int, G: int, repeats: int) -> dict:
    grid = make_grid(G)
    centered = centered_stack(n, G)
    N = min(n, G * G)
    row = {"count": count, "n": n, "G": G, "N": N,
           "default_matrix_free": fpca._matrix_free(N, count)}

    def call():
        return ensemble_eigensystem(centered, grid, count)

    for route in ROUTES:
        seconds, _ = on_route(route, lambda: best_of(repeats, call))
        row[f"{route}_ms"] = round(1e3 * seconds, 2)
        row[f"{route}_products"] = on_route(route, lambda: lanczos_products(call))
    return row


def threshold_row(n: int, cvp: float, repeats: int) -> dict:
    G = 51
    grid = make_grid(G)
    centered = centered_stack(n, G)
    row = {"n": n, "G": G, "cvp": cvp}

    def call():
        return ensemble_eigensystem(centered, grid, COUNT, cvp)

    for route in ROUTES:
        seconds, es = on_route(route, lambda: best_of(repeats, call))
        row[f"{route}_ms"] = round(1e3 * seconds, 2)
        row[f"{route}_products"] = on_route(route, lambda: lanczos_products(call))
        row[f"{route}_K_and_pairs"] = [select_K(es, cvp), es.m]
    return row


def dense_only(fn):
    """``fn()`` with every solve left to numpy's ``eigh``: no budget fits."""
    budget = _blas._budget
    _blas._budget = lambda count: math.inf
    try:
        return fn()
    finally:
        _blas._budget = budget


def budget_row(n: int, count: int, cvp, repeats: int, G: int = 21) -> dict:
    """One call at N = n by Lanczos, where its step budget fits, and by ``eigh``."""
    grid = make_grid(G)
    centered = centered_stack(n, G, seed=3, kernel="epanechnikov")
    budget = _blas._budget(count)
    # the route under the former boundary, twice the budget, and under the budget
    row = {"n": n, "G": G, "N": n, "count": count, "cvp": cvp, "budget": budget,
           "route_at_twice_budget": "lanczos" if n >= 2 * budget else "eigh",
           "route": "lanczos" if n >= budget else "eigh"}

    def call():
        if cvp is None:
            return ensemble_eigensystem(centered, grid, count)
        return ensemble_eigensystem(centered, grid, count, cvp)

    runs = {"lanczos": lambda fn: fn(), "eigh": dense_only}
    if n < budget:
        del runs["lanczos"]
        row["lanczos_ms"] = row["lanczos_products"] = None
    # the routes alternate, one call each per round, so that a slow stretch
    # of the machine falls on both
    best = dict.fromkeys(runs, math.inf)
    for _ in range(repeats):
        for route, run in runs.items():
            t0 = time.perf_counter()
            run(call)
            best[route] = min(best[route], time.perf_counter() - t0)
    solved = {}
    for route, run in runs.items():
        row[f"{route}_ms"] = round(1e3 * best[route], 3)
        row[f"{route}_products"] = run(lambda: lanczos_products(call))
        solved[route] = run(call)
    K = {route: select_K(es, cvp) if cvp is not None else count for route, es in solved.items()}
    row["K_and_pairs"] = {route: [K[route], es.m] for route, es in solved.items()}
    if len(solved) == 2:
        lanczos, dense = solved["lanczos"], solved["eigh"]
        m = min(lanczos.m, dense.m)
        row["max_lambda_gap_over_lambda1"] = float(
            np.max(np.abs(lanczos.eigenvalues[:m] - dense.eigenvalues[:m])) / dense.eigenvalues[0])
    return row


def fit_row(n: int, G: int, kernel: str, repeats: int) -> dict:
    s, _ = sample_conditional(MODEL, n, 1)
    cfg = PipelineConfig(grid_size=G, kernel_family=kernel)
    row = {"n": n, "G": G, "kernel": kernel}
    for route in ROUTES:
        seconds, fit = on_route(route, lambda: best_of(repeats, lambda: fit_pipeline(s, cfg)))
        tracemalloc.start()
        on_route(route, lambda: fit_pipeline(s, cfg))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        row[route] = {"fit_s": round(seconds, 4), "traced_peak_mib": round(peak / 2**20, 1),
                      "K_and_pairs": [fit.K, fit.eigen.m],
                      "products": on_route(route, lambda: lanczos_products(
                          lambda: fit_pipeline(s, cfg)))}
    return row


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", help="write the JSON here as well as to standard output")
    args = ap.parse_args()
    with _blas.limited_threads(1):
        sweep = [sweep_row(n, G, args.repeats) for n, G in SWEEP]
        counts = [count_row(count, n, G, args.repeats) for count, n, G in COUNTS]
        thresholds = [threshold_row(n, cvp, args.repeats) for n, cvp in THRESHOLDS]
        fits = [fit_row(n, G, kernel, args.repeats) for n, G, kernel in FITS]
        budget = [budget_row(n, count, cvp, args.repeats)
                  for n in BUDGET for count, cvp in BUDGET_CALLS]
    result = {
        "what": "scripts/eigen_route_sweep.py: ensemble_eigensystem(centered, grid, "
                f"{COUNT}, {CVP}) on one BLAS thread, best of {args.repeats}, with the "
                "matrix formed and unformed; then whole fits on each route",
        "machine": {"python": platform.python_version(), "numpy": np.__version__},
        "matrix_free_where": {"N_at_least": fpca._MATRIX_FREE,
                              "pairs_at_most": fpca._MATRIX_FREE_PAIRS},
        "sweep": sweep,
        "counts": counts,
        "thresholds": thresholds,
        "fits": fits,
        "budget": budget,
    }
    text = json.dumps(result, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")


if __name__ == "__main__":
    main()
