import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from condcopula import _blas, estimator, fpca
from condcopula.conditional import KernelSpec, rule_of_thumb_bandwidth, weighted_copula_surfaces
from condcopula.errors import DegenerateSpectrumError
from condcopula.estimator import PipelineConfig, evaluate_fit, fit_pipeline
from condcopula.fpca import (
    EigenSystem,
    centered_trajectories,
    covariance_field,
    eigendecompose,
    ensemble_eigensystem,
    scores,
    select_K,
    unit_sphere_identity,
)
from condcopula.grid import (
    GridFunction,
    inner_product,
    l2_norm,
    make_grid,
)
from condcopula.harness import ExperimentConfig, consistency_experiment
from condcopula.simulate import (
    ConditionalModel,
    SyntheticKLModel,
    TauLink,
    cosine_tensor,
    sample_conditional,
    synthetic_kl_sample,
)
from oracles import constant, tkn_projection

GRID = make_grid(9)


def dummy_eigensystem(eigenvalues):
    lam = np.asarray(eigenvalues, dtype=float)
    m = lam.size
    g = make_grid(1)
    return EigenSystem(
        grid=g,
        eigenvalues=lam,
        eigenfunctions=np.ones((m, 1, 1)),
        sign_flips=np.ones(m),
        total=lam.sum(),
    )


def mean_surface(surfaces):
    return GridFunction(grid=make_grid(surfaces.shape[1]), values=surfaces.mean(axis=0))


def trajectory_surfaces(fit):
    """The (n, G, G) stack ``fit_pipeline`` decomposed; a fit does not keep it."""
    k = KernelSpec(fit.config.kernel_family, fit.bandwidths["h"])
    grid = make_grid(fit.config.grid_size)
    return weighted_copula_surfaces(fit.sample.x, fit.sample, k, grid, fit.pseudo)


def kl_model(grid=None, lam=(0.4, 0.2, 0.05)):
    grid = grid or GRID
    U, V = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    return SyntheticKLModel(
        grid=grid,
        mean=GridFunction(grid=grid, values=U * V),
        eigenvalues=lam,
        frequencies=((1, 1), (2, 1), (1, 2))[: len(lam)],
    )


# ----------------------------------------------------------- covariance field


def test_identical_trajectories_give_zero_field():
    mean = constant(GRID, 0.3)
    surf = np.repeat(mean.values[None], 4, axis=0)
    field = covariance_field(surf, mean)
    assert np.max(np.abs(field)) == 0.0


def test_two_trajectory_rank_one_field():
    # trajectories mean +- phi around their own average: the covariance is
    # exactly phi (x) phi and the top eigenvalue is (1/2)(1 + 1) = 1
    phi = cosine_tensor(GRID, 1, 0)
    mean = constant(GRID, 0.5)
    surf = np.stack([mean.values + phi.values, mean.values - phi.values])
    field = covariance_field(surf, mean)
    assert np.allclose(field, np.outer(phi.flat(), phi.flat()), atol=1e-12)
    es = eigendecompose(GRID, field)
    assert es.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
    assert es.eigenvalues[1] == 0.0
    diff = min(
        np.max(np.abs(es.eigenfunctions[0] - phi.values)),
        np.max(np.abs(es.eigenfunctions[0] + phi.values)),
    )
    assert diff <= 1e-8


def test_covariance_asymmetry_rejected():
    vals = np.zeros((4, 4))
    vals[0, 1] = 1.0
    with pytest.raises(ValueError, match="asymmetric"):
        eigendecompose(make_grid(2), vals)


def test_covariance_shape_and_negative_variance_rejected():
    with pytest.raises(ValueError, match="4 x 4"):
        eigendecompose(make_grid(2), np.zeros((9, 9)))
    with pytest.raises(ValueError, match="negative variance"):
        eigendecompose(make_grid(2), -np.eye(4))


@pytest.mark.parametrize("n", [40, 120])  # below and above G^2 = 81
def test_covariance_field_is_exactly_symmetric(n):
    # eigendecompose symmetrises its input; on the fields the pipeline forms
    # that must leave every entry as it is
    model = ConditionalModel(family="clayton", link=TauLink(form="sine", a=0.4, b=0.25))
    s, _ = sample_conditional(model, n, seed=32)
    fit = fit_pipeline(s, PipelineConfig(grid_size=9))
    field = covariance_field(trajectory_surfaces(fit), fit.center)
    assert np.array_equal(field, field.T)


def test_synthetic_eigenvalue_recovery():
    model = kl_model()
    _, surf, _ = synthetic_kl_sample(model, 400, seed=21)
    es = eigendecompose(GRID, covariance_field(surf, mean_surface(surf)))
    for k, lam in enumerate(model.eigenvalues):
        assert abs(es.eigenvalues[k] - lam) <= 0.05


def test_eigenvalue_error_shrinks_with_n():
    # median |top eigenvalue error| over 100 replications should drop by a
    # factor of at least 2.5 when n goes 200 -> 3200 (root-n predicts 4)
    model = kl_model()
    errs = {}
    for n in (200, 3200):
        vals = []
        for rep in range(100):
            _, surf, _ = synthetic_kl_sample(model, n, seed=1000 * n + rep)
            es = eigendecompose(GRID, covariance_field(surf, mean_surface(surf)))
            vals.append(abs(es.eigenvalues[0] - model.eigenvalues[0]))
        errs[n] = np.median(vals)
    assert errs[200] >= 2.5 * errs[3200]


# ------------------------------------------------------------ eigenproblem


def test_zero_field_all_zero_eigenvalues():
    es = eigendecompose(make_grid(3), np.zeros((9, 9)))
    assert np.all(es.eigenvalues == 0.0)


def test_rank_one_constant_field():
    one = constant(GRID, 1.0)
    es = eigendecompose(GRID, 0.3 * np.outer(one.flat(), one.flat()))
    assert es.eigenvalues[0] == pytest.approx(0.3, abs=1e-12)
    assert np.allclose(es.eigenfunctions[0], 1.0, atol=1e-10)


def test_two_component_round_trip():
    f1 = cosine_tensor(GRID, 1, 0)
    f2 = cosine_tensor(GRID, 0, 1)
    field = 0.4 * np.outer(f1.flat(), f1.flat()) + 0.2 * np.outer(f2.flat(), f2.flat())
    es = eigendecompose(GRID, field)
    assert es.eigenvalues[0] == pytest.approx(0.4, abs=1e-8)
    assert es.eigenvalues[1] == pytest.approx(0.2, abs=1e-8)
    for k, f in ((1, f1), (2, f2)):
        got = es.phi(k).values
        diff = min(
            np.max(np.abs(got - f.values)), np.max(np.abs(got + f.values))
        )
        assert diff <= 1e-8


def test_orthonormality_and_trace_identity():
    model = kl_model()
    _, surf, _ = synthetic_kl_sample(model, 60, seed=5)
    field = covariance_field(surf, mean_surface(surf))
    es = eigendecompose(GRID, field)
    gram = GRID.cell_weight * es.phi_flat() @ es.phi_flat().T
    assert np.max(np.abs(gram - np.eye(es.m))) <= 1e-8
    trace = GRID.cell_weight * np.sum(np.diagonal(field))
    assert es.eigenvalues.sum() == pytest.approx(trace, rel=1e-8)


def test_spectral_rebuild_matches_field():
    model = kl_model()
    _, surf, _ = synthetic_kl_sample(model, 40, seed=6)
    field = covariance_field(surf, mean_surface(surf))
    es = eigendecompose(GRID, field)
    pos = es.eigenvalues > 0
    phis = es.phi_flat()[pos]
    rebuilt = (es.eigenvalues[pos, None] * phis).T @ phis
    assert np.max(np.abs(rebuilt - field)) <= 1e-8


def test_sign_convention_nonnegative_integral():
    model = kl_model()
    _, surf, _ = synthetic_kl_sample(model, 50, seed=7)
    es = eigendecompose(GRID, covariance_field(surf, mean_surface(surf)))
    for k in range(es.m):
        integral = GRID.cell_weight * es.eigenfunctions[k].sum()
        if abs(integral) > 1e-12:
            assert integral > 0


def test_head_keeps_the_leading_components():
    _, surf, _ = synthetic_kl_sample(kl_model(), 12, seed=12)
    es = eigendecompose(GRID, covariance_field(surf, mean_surface(surf)))
    head = es.head(3)
    assert head.m == 3
    assert head.grid == es.grid
    assert np.array_equal(head.eigenvalues, es.eigenvalues[:3])
    assert np.array_equal(head.eigenfunctions, es.eigenfunctions[:3])
    assert np.array_equal(head.sign_flips, es.sign_flips[:3])
    assert es.head(es.m + 5).m == es.m
    assert es.head(0).m == 0


# ----------------------------------------------------- ensemble eigensystem


def assert_leading_system(got, want, count):
    """``got`` holds ``want.head(count)`` up to rounding, past the spectrum's zeros.

    Both solvers place an eigenfunction only to within about
    eps * lambda_1 / gap (Davis-Kahan), so the bound scales with the inverse
    relative gap: 1e-10 at a gap of 1e-4 * lambda_1, and components closer
    than 1e-6 * lambda_1 to a neighbour are not compared. The distance is
    the quadrature L2 norm, in which both are unit vectors; the sign
    convention is compared along with the values.
    """
    lam = want.eigenvalues
    m = got.m
    assert np.all(np.abs(got.eigenvalues - lam[:m]) <= 1e-12 * lam[0])
    assert np.all(lam[m:count] == 0.0)
    gaps = np.abs(np.subtract.outer(lam, lam)) + np.diag(np.full(lam.size, np.inf))
    rel_gap = gaps.min(axis=1)[:m] / lam[0]
    separated = (rel_gap > 1e-6) & (lam[:m] > 0.0)
    diff = got.phi_flat() - want.phi_flat()[:m]
    dist = np.sqrt(got.grid.cell_weight * np.sum(diff * diff, axis=1))
    assert np.all(dist[separated] <= 1e-14 / rel_gap[separated])
    return separated


def clayton_ensemble(n, center, grid_size=9):
    model = ConditionalModel(family="clayton", link=TauLink(form="sine", a=0.4, b=0.25))
    s, _ = sample_conditional(model, n, seed=31)
    fit = fit_pipeline(s, PipelineConfig(grid_size=grid_size))
    surfaces = trajectory_surfaces(fit)
    mean = fit.center if center == "partial" else mean_surface(surfaces)
    return surfaces, mean


def lanczos_spy(monkeypatch):
    """Record, per call of ``_blas._lanczos``, (N, count, whether it converged)."""
    calls = []
    real = _blas._lanczos

    def spy(a, count, *rest):
        found = real(a, count, *rest)
        calls.append((a.shape[0], count, found is not None))
        return found

    monkeypatch.setattr(_blas, "_lanczos", spy)
    return calls


def dense_only(monkeypatch):
    """Leave every solve to numpy's ``eigh``: no Lanczos step budget fits."""
    monkeypatch.setattr(_blas, "_budget", lambda count: math.inf)


# n below, at and above G^2 = 81, where count 1 takes Lanczos from N = 51 and
# count 5 from N = 63, their step budgets, and every larger count is dense;
# then, at G = 15, count 16 one below and at its budget of 96, and below and
# above G^2 = 225, where counts 1, 5 and 16 all take the Lanczos route. The
# pipeline centres at the partial copula; the ensemble mean, around which
# the score columns are exactly mean-zero, exercises the other case
GRID_OF_N = {40: 9, 50: 9, 51: 9, 62: 9, 63: 9, 81: 9, 120: 9,
             95: 15, 96: 15, 200: 15, 300: 15}


@pytest.mark.parametrize("center", ["partial", "ensemble"])
@pytest.mark.parametrize("n", sorted(GRID_OF_N))
def test_ensemble_eigensystem_matches_covariance_route(n, center, monkeypatch):
    grid = make_grid(GRID_OF_N[n])
    surfaces, mean = clayton_ensemble(n, center, grid.G)
    field = covariance_field(surfaces, mean)
    want = eigendecompose(grid, field)
    centered = centered_trajectories(surfaces, mean)
    m = min(n, grid.G**2)
    trace = grid.cell_weight * np.trace(field)
    counts = (1, 5, 16) if grid.G == 15 else (1, 5, m - 1, m, m + 3)
    calls = lanczos_spy(monkeypatch)
    for count in counts:
        got = ensemble_eigensystem(centered, grid, count)
        assert got.m == min(count, m)
        assert got.total == pytest.approx(trace, rel=1e-12)
        separated = assert_leading_system(got, want, count)
        assert separated.sum() >= got.m // 2
    assert calls == [(m, count, True) for count in counts if m >= _blas._budget(count)]


def test_clustered_leading_pair_is_resolved(monkeypatch):
    # lambda_2 = lambda_1 (1 - 1e-10): each of the pair's eigenvectors is
    # fixed only to about eps / 1e-10, but the eigenvalues and the pair's
    # span are fixed to rounding, as lambda_3 is 0.75 lambda_1 away
    N = 400
    basis, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((N, N)))
    lam = 1.0 / np.arange(1, N + 1) ** 2
    lam[1] = lam[0] * (1.0 - 1e-10)
    a = (basis * lam) @ basis.T
    a = 0.5 * (a + a.T)
    pair = basis[:, :2] @ basis[:, :2].T
    calls = lanczos_spy(monkeypatch)
    for count in (1, 2, 5, 16):
        w, v = _blas.leading_eigh(a.copy(), count)
        assert calls[-1] == (N, count, True)
        assert np.all(np.abs(w[::-1] - lam[:count]) <= 1e-12 * lam[0])
        assert np.max(np.abs(v.T @ v - np.eye(count))) <= 1e-13
        top = v[:, -min(count, 2):]
        # the pair's leading vectors lie in its span, and span it when both are asked for
        assert np.linalg.norm(top - pair @ top) <= 1e-14
        if count >= 2:
            assert np.linalg.norm(top @ top.T - pair, 2) <= 1e-14
        for k in range(2, count):
            assert abs(abs(basis[:, k] @ v[:, -1 - k]) - 1.0) <= 1e-13


def test_rank_deficient_stack_breaks_down_to_the_dense_bits(monkeypatch):
    # 300 trajectories, each one of 6 surfaces: the 300 x 300 Gram matrix has
    # rank at most 6, so the Krylov space is invariant after about 7 steps,
    # far short of the 16 eigenpairs asked for, and beta collapses
    grid = make_grid(21)
    surfaces, _ = clayton_ensemble(300, "partial", grid.G)
    stack = surfaces[np.arange(300) % 6]
    centered = centered_trajectories(stack, mean_surface(surfaces))
    calls = lanczos_spy(monkeypatch)
    got = ensemble_eigensystem(centered, grid, 16)
    assert calls == [(300, 16, False)]
    dense_only(monkeypatch)
    want = ensemble_eigensystem(centered, grid, 16)
    assert len(calls) == 1
    assert np.count_nonzero(want.eigenvalues) <= 6
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.eigenfunctions, want.eigenfunctions)


def test_dense_route_is_the_last_pairs_of_numpy_eigh(monkeypatch):
    # N = 95 is one below the Lanczos step budget for 16 pairs; at N = 400 a
    # matrix of rank 6 breaks the run down; a transposed view is accepted
    rng = np.random.default_rng(3)
    b = rng.standard_normal((95, 95)) / np.arange(1, 96)
    low = rng.standard_normal((400, 6))
    cases = {"by shape": b @ b.T, "after a breakdown": low @ low.T}
    cases["transposed view"] = cases["by shape"].T
    calls = lanczos_spy(monkeypatch)
    for name, a in cases.items():
        w, v = _blas.leading_eigh(a, 16)
        want_w, want_v = np.linalg.eigh(a)
        assert np.array_equal(w, want_w[-16:]), name
        assert np.array_equal(v, want_v[:, -16:]), name
    assert calls == [(400, 16, False)]


# (n, G) -> whether the 5-pair solve leaves its eigen matrix unformed: the
# Gram route at N = 767 and 768, the covariance route at N = 729 and 784
MATRIX_FREE_SHAPES = {(767, 29): False, (768, 29): True, (800, 27): False, (800, 28): True}


@pytest.mark.parametrize("n, G", sorted(MATRIX_FREE_SHAPES))
def test_the_eigen_matrix_is_formed_only_below_the_matrix_free_order(n, G, monkeypatch):
    grid = make_grid(G)
    surfaces, mean = clayton_ensemble(n, "partial", G)
    centered = centered_trajectories(surfaces, mean)
    before = centered.copy()
    forms = []
    form = fpca._EigenMatrix.form
    monkeypatch.setattr(fpca._EigenMatrix, "form", lambda m: forms.append(m.shape) or form(m))
    got = ensemble_eigensystem(centered, grid, 5)
    N = min(n, G * G)
    assert forms == ([] if MATRIX_FREE_SHAPES[n, G] else [(N, N)])
    assert np.array_equal(centered, before)
    monkeypatch.setattr(fpca, "_MATRIX_FREE", np.inf)  # formed at every order
    want = ensemble_eigensystem(centered, grid, 5)
    assert got.total == pytest.approx(want.total, rel=1e-13)
    assert assert_leading_system(got, want, 5).sum() == 5


# (count, CVP threshold) -> whether the solve at N = 768 leaves its matrix
# unformed: a fixed count of at most 5, or the fit's automatic-K call, which
# may stop at 5 pairs; 16 fixed pairs lost unformed up to N = 1200
PAIR_ROUTES = {(1, None): True, (5, None): True, (6, None): False, (16, None): False,
               (16, 0.9): True}


@pytest.mark.parametrize("count, threshold", sorted(PAIR_ROUTES, key=str))
def test_the_eigen_matrix_is_formed_where_more_than_5_pairs_must_converge(
        count, threshold, monkeypatch):
    grid = make_grid(29)
    surfaces, mean = clayton_ensemble(768, "partial", 29)
    centered = centered_trajectories(surfaces, mean)
    forms = []
    form = fpca._EigenMatrix.form
    monkeypatch.setattr(fpca._EigenMatrix, "form", lambda m: forms.append(m.shape) or form(m))
    ensemble_eigensystem(centered, grid, count, threshold)
    assert forms == ([] if PAIR_ROUTES[count, threshold] else [(768, 768)])


@pytest.mark.parametrize("n, G", [(n, G) for (n, G), free in MATRIX_FREE_SHAPES.items() if free])
def test_an_unformed_solve_allocates_less_than_its_matrix(n, G):
    grid = make_grid(G)
    surfaces, mean = clayton_ensemble(n, "partial", G)
    centered = centered_trajectories(surfaces, mean)
    N = min(n, G * G)
    tracemalloc.start()
    try:
        ensemble_eigensystem(centered, grid, 16, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < N * N * 8


# case -> (K, n, G, sample seed, kernel, multiple of the rule-of-thumb h) of
# a fit whose CVP at 0.9 picks that K. Every eigen matrix has order
# min(n, G^2) of at least 200, past the step budget of 96, so the
# automatic-K solve of 16 pairs takes the Lanczos route. The cases named by
# K have orders 200 to 300. The fine-grid
# case is the benchmark's fine-grid shape, solved unformed, whose spectrum
# falls steeply: lambda_5 / lambda_1 < 0.01, so lambda_2..lambda_5, read for
# their values alone, are held to 1e-13 of themselves, not of lambda_1
STOPPED_FITS = {
    "1": (1, 200, 15, 2, "epanechnikov", 4.0),
    "2": (2, 200, 15, 1, "epanechnikov", 4.0),
    "3": (3, 200, 15, 2, "epanechnikov", 2.0),
    "4": (4, 200, 15, 1, "epanechnikov", 2.0),
    "5": (5, 200, 15, 1, "gaussian", 1.0),
    "6": (6, 200, 15, 1, "epanechnikov", 1.5),
    "7": (7, 240, 15, 2, "epanechnikov", 1.0),
    "8": (8, 300, 15, 1, "epanechnikov", 1.0),
    "9": (9, 200, 15, 2, "epanechnikov", 1.0),
    "fine-grid": (1, 800, 51, 2, "gaussian", 1.0),
}


@pytest.mark.parametrize("case", sorted(STOPPED_FITS))
def test_stopped_lanczos_reads_what_a_dense_solve_gives(case, monkeypatch):
    # under an automatic K the solve stops at the components the fit reads:
    # those through the CVP crossing plus one, and at least lambda_1..lambda_5;
    # only phi_1..phi_K are read, and the others only for their eigenvalues
    K, n, G, seed, family, mult = STOPPED_FITS[case]
    model = ConditionalModel(family="clayton", link=TauLink(form="sine", a=0.4, b=0.25))
    s, _ = sample_conditional(model, n, seed)
    cfg = PipelineConfig(grid_size=G, kernel_family=family,
                         h=mult * rule_of_thumb_bandwidth(s.x))
    calls = lanczos_spy(monkeypatch)
    fit = fit_pipeline(s, cfg)
    assert calls == [(min(n, G**2), 16, True)]
    dense_only(monkeypatch)
    dense = fit_pipeline(s, cfg)
    assert len(calls) == 1 and dense.eigen.m == fit.eigen.m
    assert fit.K == dense.K == K
    assert fit.eigen.m == max(K + 1, 5)
    read = list(range(5)) + [K]
    lam, want = fit.eigen.eigenvalues[read], dense.eigen.eigenvalues[read]
    assert np.all(np.abs(lam - want) <= 1e-13 * want)
    assert case != "fine-grid" or want[4] < 0.01 * want[0]
    assert fit.eigen.total == dense.eigen.total
    est, dense_est = evaluate_fit(fit, 0.5), evaluate_fit(dense, 0.5)
    gap, dense_gap = est.diagnostics["eigengap"], dense_est.diagnostics["eigengap"]
    assert gap == pytest.approx(dense_gap, rel=1e-12)
    assert np.max(np.abs(est.surface.values - dense_est.surface.values)) <= 1e-13


# the first three samples of the benchmark's fine-grid pool at seed 1
FINE_GRID_SEEDS = [int(s) for s in np.random.SeedSequence(1).generate_state(3)]


@pytest.mark.parametrize("seed", FINE_GRID_SEEDS)
def test_a_fine_grid_fit_stops_once_what_it_reads_has_converged(seed, monkeypatch):
    # n = 800, G = 51, Gaussian kernel: K is 1 or 2, so lambda_{K+1}..lambda_5
    # need their eigenvalues alone, which converge in fewer steps than their
    # eigenvectors, and the solve takes at most 16 products
    model = ConditionalModel(family="clayton", link=TauLink(form="sine", a=0.4, b=0.25))
    s, _ = sample_conditional(model, 800, seed)
    products = []
    matmul = fpca._EigenMatrix.__matmul__
    monkeypatch.setattr(fpca._EigenMatrix, "__matmul__",
                        lambda m, v: products.append(v.size) or matmul(m, v))
    fit = fit_pipeline(s, PipelineConfig(grid_size=51, kernel_family="gaussian"))
    assert fit.K in (1, 2) and fit.eigen.m == 5
    assert 0 < len(products) <= 16


# the first sample of each benchmark workload's seed-1 pool
POOL_SEED = FINE_GRID_SEEDS[0]


def pool_fit(n, G, family):
    model = ConditionalModel(family="clayton", link=TauLink(form="sine", a=0.4, b=0.25))
    s, _ = sample_conditional(model, n, POOL_SEED)
    fit_pipeline(s, PipelineConfig(grid_size=G, kernel_family=family, project=True))


def pool_ladder(family, link):
    consistency_experiment(ExperimentConfig(
        experiment="consistency", model={"family": family, "link": link},
        n_ladder=(200, 400), replications=1, seed=POOL_SEED))


LADDER_RUNS = [(200, 16, True, True), (400, 16, True, True)]
# workload -> (its op on that sample, each Lanczos run as (N, count, whether
# formed, whether converged), each matrix formed as (N, whether Gram))
WORKLOAD_ROUTES = {
    "fit-large-n": (lambda: pool_fit(3000, 21, "epanechnikov"),
                    [(441, 16, True, True)], [(441, False)]),
    "fit-fine-grid": (lambda: pool_fit(800, 51, "gaussian"), [(800, 16, False, True)], []),
    "mc-ladder frank": (lambda: pool_ladder("frank", "linear:0.2,0.3"),
                        LADDER_RUNS, [(200, True), (400, True)]),
    "mc-ladder gumbel": (lambda: pool_ladder("gumbel", "sine:0.4,0.25"),
                         LADDER_RUNS, [(200, True), (400, True)]),
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_ROUTES))
def test_each_benchmark_workload_takes_its_measured_eigen_route(workload, monkeypatch):
    # n = 3000, G = 21: formed covariance; n = 800, G = 51: unformed Gram;
    # n = 200 and 400, G = 21: formed Gram; all by Lanczos under an
    # automatic K, and none falls back to a dense eigh
    op, want_runs, want_forms = WORKLOAD_ROUTES[workload]
    runs, forms = [], []
    lanczos = _blas._lanczos

    def spy(a, count, enough):
        found = lanczos(a, count, enough)
        runs.append((a.shape[0], count, isinstance(a, np.ndarray), found is not None))
        return found

    monkeypatch.setattr(_blas, "_lanczos", spy)
    form = fpca._EigenMatrix.form
    monkeypatch.setattr(fpca._EigenMatrix, "form",
                        lambda m: forms.append((m.shape[0], m.gram)) or form(m))
    op()
    assert runs == want_runs
    assert forms == want_forms


def test_cvp_past_the_leading_components_reads_the_whole_spectrum():
    # a threshold of 1.0 keeps every positive component, far more than the
    # leading ones the fit solves for first
    model = ConditionalModel(family="clayton", link=TauLink(form="sine", a=0.4, b=0.25))
    s, _ = sample_conditional(model, 40, seed=31)
    fit = fit_pipeline(s, PipelineConfig(grid_size=9, cvp_threshold=1.0))
    surfaces = trajectory_surfaces(fit)
    full = ensemble_eigensystem(centered_trajectories(surfaces, fit.center), GRID, 40)
    assert fit.eigen.m == full.m == 40
    assert fit.K == select_K(full, 1.0) == np.count_nonzero(full.eigenvalues > 0.0)
    assert fit.K > 16


# n -> (K at CVP 0.999, the Lanczos runs of the fit): at N = 95, one below
# the step budget, the 16-pair attempt is dense by shape; from N = 96 on
# Lanczos converges its 16 pairs, finds the crossing past them and gives way
# to the dense solve
PAST_THE_ATTEMPT = {95: (63, []), 96: (62, [(96, 16, False)]),
                    150: (76, [(150, 16, False)]), 300: (89, [(300, 16, False)])}


@pytest.mark.parametrize("n", sorted(PAST_THE_ATTEMPT))
def test_a_crossing_past_the_lanczos_attempt_is_solved_once(n, monkeypatch):
    K, runs = PAST_THE_ATTEMPT[n]
    model = ConditionalModel(family="clayton", link=TauLink(form="sine", a=0.4, b=0.25))
    s, _ = sample_conditional(model, n, 2)
    cfg = PipelineConfig(grid_size=21, cvp_threshold=0.999)
    solves, eighs = [], []
    eigensystem, eigh = estimator.ensemble_eigensystem, np.linalg.eigh
    monkeypatch.setattr(estimator, "ensemble_eigensystem",
                        lambda *args: solves.append(args[2:]) or eigensystem(*args))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    calls = lanczos_spy(monkeypatch)
    fit = fit_pipeline(s, cfg)
    monkeypatch.undo()
    assert solves == [(16, 0.999)] and calls == runs
    assert eighs.count((n, n)) == 1
    assert fit.K == K and fit.eigen.m == K + 1
    # the oracle: every component of the spectrum
    centered = centered_trajectories(trajectory_surfaces(fit), fit.center)
    full = ensemble_eigensystem(centered, fit.center.grid, n)
    full_K = select_K(full, 0.999)
    assert full_K == K and full.m == n
    assert np.array_equal(fit.eigen.eigenvalues, full.eigenvalues[: K + 1])
    assert fit.eigengap() == full.eigenvalues[K - 1] / full.eigenvalues[K]
    oracle = dataclasses.replace(fit, eigen=full, scores=scores(centered, full, K))
    assert abs(fit.cvp_attained() - oracle.cvp_attained()) <= 1e-14
    for x in (0.1, 0.5, 0.9):
        got, want = evaluate_fit(fit, x), evaluate_fit(oracle, x)
        assert np.max(np.abs(got.surface.values - want.surface.values)) <= 1e-15


@pytest.mark.parametrize("n", [4, 100])
def test_ensemble_eigensystem_of_constant_ensemble_is_zero(n):
    mean = constant(GRID, 0.3)
    surf = np.repeat(mean.values[None], n, axis=0)
    es = ensemble_eigensystem(centered_trajectories(surf, mean), GRID, n)
    assert es.m == min(n, GRID.G**2)
    assert np.all(es.eigenvalues == 0.0)
    assert np.all(np.isfinite(es.eigenfunctions))
    assert es.total == 0.0
    assert select_K(es, 0.9) == 0


# ------------------------------------------------------------------- scores


def test_score_of_mean_trajectory_is_zero():
    model = kl_model()
    _, surf, _ = synthetic_kl_sample(model, 30, seed=8)
    mean = mean_surface(surf)
    es = eigendecompose(GRID, covariance_field(surf, mean))
    both = np.concatenate([surf, mean.values[None]], axis=0)
    xi = scores(centered_trajectories(both, mean), es, K=3)
    assert np.max(np.abs(xi[-1])) <= 1e-10


def test_score_of_shifted_trajectory():
    model = kl_model()
    _, surf, _ = synthetic_kl_sample(model, 30, seed=9)
    mean = mean_surface(surf)
    es = eigendecompose(GRID, covariance_field(surf, mean))
    shifted = mean.values + 2.0 * es.eigenfunctions[0]
    xi = scores(centered_trajectories(np.stack([shifted, mean.values]), mean), es, K=4)
    assert xi[0, 0] == pytest.approx(2.0, abs=1e-10)
    assert np.max(np.abs(xi[0, 1:])) <= 1e-10


def test_score_columns_mean_zero_under_ensemble_centering():
    model = kl_model()
    _, surf, _ = synthetic_kl_sample(model, 80, seed=10)
    mean = mean_surface(surf)
    es = eigendecompose(GRID, covariance_field(surf, mean))
    xi = scores(centered_trajectories(surf, mean), es, K=3)
    assert np.max(np.abs(xi.mean(axis=0))) <= 1e-10


def test_full_rank_reconstruction():
    model = kl_model()
    _, surf, _ = synthetic_kl_sample(model, 25, seed=11)
    mean = mean_surface(surf)
    es = eigendecompose(GRID, covariance_field(surf, mean))
    rank = int(np.count_nonzero(es.eigenvalues > 0))
    xi = scores(centered_trajectories(surf, mean), es, K=rank)
    recon = mean.flat()[None] + xi @ es.phi_flat()[:rank]
    for i in range(len(surf)):
        err = l2_norm(
            GridFunction(grid=GRID, values=surf[i] - recon[i].reshape(9, 9))
        )
        assert err <= 1e-8


# ----------------------------------------------------------------- select_K


def test_select_k_cvp():
    assert select_K(dummy_eigensystem([0.9, 0.1]), 0.9) == 1
    assert select_K(dummy_eigensystem([0.5, 0.5]), 0.9) == 2
    assert select_K(dummy_eigensystem([1.0]), 1.0) == 1
    # the share is of es.total, which a leading system does not exhaust;
    # when its positive components fall short, all of them are kept
    leading = dataclasses.replace(dummy_eigensystem([0.5, 0.3]), total=1.0)
    assert select_K(leading, 0.5) == 1
    assert select_K(leading, 0.8) == 2
    assert select_K(leading, 0.9) == 2


def test_select_k_fixed_and_degenerate():
    es = dummy_eigensystem([0.0, 0.0])
    assert select_K(es, 0.9) == 0


# --------------------------------- perturbation projection (the oracle in tests/oracles.py)


def two_pair_system():
    f1 = cosine_tensor(GRID, 1, 0)
    f2 = cosine_tensor(GRID, 0, 1)
    return (
        EigenSystem(
            grid=GRID,
            eigenvalues=np.array([0.5, 0.2]),
            eigenfunctions=np.stack([f1.values, f2.values]),
            sign_flips=np.ones(2),
            total=0.7,
        ),
        f1,
        f2,
    )


def test_tkn_zero_kernel():
    es, _, _ = two_pair_system()
    t = tkn_projection(np.zeros((81, 81)), es, 1)
    assert np.max(np.abs(t.values)) == 0.0


def test_tkn_hand_case():
    es, f1, f2 = two_pair_system()
    c = 0.7
    zn = c * (
        np.outer(f1.flat(), f2.flat()) + np.outer(f2.flat(), f1.flat())
    )
    t = tkn_projection(zn, es, 1)
    expected = c / (0.5 - 0.2) * f2.values
    assert np.max(np.abs(t.values - expected)) <= 1e-10


def test_tkn_orthogonal_to_own_eigenfunction():
    es, f1, _ = two_pair_system()
    rng = np.random.default_rng(13)
    a = rng.normal(size=(81, 81))
    zn = a + a.T
    t = tkn_projection(zn, es, 1)
    assert abs(inner_product(t, f1)) <= 1e-10


def test_tkn_rejects_repeated_eigenvalues():
    es, f1, f2 = two_pair_system()
    bad = EigenSystem(
        grid=GRID,
        eigenvalues=np.array([0.5, 0.5]),
        eigenfunctions=es.eigenfunctions,
        sign_flips=np.ones(2),
        total=1.0,
    )
    with pytest.raises(DegenerateSpectrumError, match="gap"):
        tkn_projection(np.zeros((81, 81)), bad, 1)


# ------------------------------------------------------ unit-sphere identity


def test_identity_equal_and_antipodal():
    phi = cosine_tensor(GRID, 1, 1)
    assert unit_sphere_identity(phi, phi) == (0.0, 0.0)
    neg = GridFunction(grid=GRID, values=-phi.values)
    lhs, rhs = unit_sphere_identity(neg, phi)
    assert lhs == pytest.approx(-2.0, abs=1e-12)
    assert rhs == pytest.approx(-2.0, abs=1e-12)


def test_identity_random_unit_pairs():
    g = make_grid(21)
    rng = np.random.default_rng(99)
    delta = g.cell_weight
    for _ in range(100):
        a = rng.normal(size=(21, 21))
        b = rng.normal(size=(21, 21))
        a /= np.sqrt(delta * np.sum(a * a))
        b /= np.sqrt(delta * np.sum(b * b))
        lhs, rhs = unit_sphere_identity(
            GridFunction(grid=g, values=a), GridFunction(grid=g, values=b)
        )
        assert abs(lhs - rhs) <= 1e-10


def test_identity_rejects_non_unit_input():
    phi = cosine_tensor(GRID, 1, 1)
    double = GridFunction(grid=GRID, values=2.0 * phi.values)
    with pytest.raises(ValueError, match="unit-norm"):
        unit_sphere_identity(double, phi)
