"""The one-thread BLAS rule of the eigen, score and score-regression stages,
and the route of the leading eigenpairs.

``fpca.covariance_field``, ``eigendecompose``, ``ensemble_eigensystem``,
``scores`` and ``estimator.eval_alpha`` each run under
``_blas.limited_threads(1)``, and no other code manages BLAS threads
(``tests/test_package.py``), so the fit and every harness experiment give
the same bits at any BLAS thread count. ``_blas.leading_eigh`` picks Lanczos
or numpy's full ``eigh`` from the matrix order and the count alone, returns
the ``eigh`` bits whenever Lanczos does not converge, and on no route writes
to the matrix it is given. Given the matrix unformed, it takes the same
route with the same bits, forms it only for ``eigh``, and never writes to
the stack behind it.
"""

import json

import numpy as np
import pytest

from condcopula import _blas
from condcopula.estimator import PipelineConfig, evaluate_fit, fit_pipeline
from condcopula.fpca import _EigenMatrix, covariance_field, eigendecompose
from condcopula.harness import ExperimentConfig, build_kl_model, eigen_perturbation_experiment
from condcopula.simulate import ConditionalModel, TauLink, sample_conditional, synthetic_kl_sample
from test_fpca import lanczos_spy

CONTROLS = _blas._controls()
needs_openblas = pytest.mark.skipif(not CONTROLS, reason="no OpenBLAS in this process")


def thread_counts():
    return [get() for get, _ in CONTROLS]


@needs_openblas
def test_limited_threads_lowers_then_restores():
    before = thread_counts()
    with _blas.limited_threads(1):
        assert thread_counts() == [1] * len(CONTROLS)
    assert thread_counts() == before


@needs_openblas
def test_limited_threads_restores_when_the_block_raises():
    before = thread_counts()
    with pytest.raises(RuntimeError):
        with _blas.limited_threads(1):
            raise RuntimeError("inside")
    assert thread_counts() == before


def test_small_fit_is_the_same_at_any_thread_count():
    # min(n, G^2) = 121 and 600: the eigen and score stage runs on one thread
    # at every size, whatever the caller allows, and gives the same bits
    model = ConditionalModel(family="clayton", link=TauLink(form="sine", a=0.4, b=0.25))
    for n, grid_size in ((300, 11), (600, 25)):
        s, _ = sample_conditional(model, n, 4)
        cfg = PipelineConfig(grid_size=grid_size)
        before = thread_counts()
        free = fit_pipeline(s, cfg)
        assert thread_counts() == before
        with _blas.limited_threads(1):
            single = fit_pipeline(s, cfg)
        assert free.K == single.K > 0
        assert np.array_equal(free.eigen.eigenvalues, single.eigen.eigenvalues)
        assert np.array_equal(free.eigen.eigenfunctions, single.eigen.eigenfunctions)
        assert np.array_equal(free.scores, single.scores)
        assert np.array_equal(
            evaluate_fit(free, 0.4).surface.values, evaluate_fit(single, 0.4).surface.values
        )
        assert thread_counts() == before


def at_threads(threads, fn):
    """``fn()`` with every OpenBLAS library set to ``threads`` threads, then restored."""
    before = thread_counts()
    for _, put in CONTROLS:
        put(threads)
    try:
        return fn()
    finally:
        for (_, put), count in zip(CONTROLS, before):
            put(count)


def report_bytes(report) -> str:
    return report.to_json() + json.dumps(report.raw, sort_keys=True)


@needs_openblas
def test_outputs_are_the_same_at_one_and_two_threads():
    from test_parity import EXPERIMENTS

    model = build_kl_model(21)
    _, surfaces, _ = synthetic_kl_sample(model, 600, 3)
    # G^2 = 441: the first step takes the Gram route, the second the covariance route
    perturbation = ExperimentConfig(experiment="perturbation", n_ladder=(200, 500),
                                    replications=3, seed=5, grid_size=21)
    # the benchmark's fine-grid fit, whose 800 x 800 Gram matrix is never formed
    clayton = ConditionalModel(family="clayton", link=TauLink(form="sine", a=0.4, b=0.25))
    fine, _ = sample_conditional(clayton, 800, 1)
    fine_cfg = PipelineConfig(grid_size=51, kernel_family="gaussian")

    def outputs():
        field = covariance_field(surfaces, model.mean)
        es = eigendecompose(model.grid, field)
        reports = [fn(ExperimentConfig(**kw)) for fn, kw, _ in EXPERIMENTS.values()]
        reports.append(eigen_perturbation_experiment(perturbation))
        fit = fit_pipeline(fine, fine_cfg)
        return (
            field.tobytes(),
            es.eigenvalues.tobytes(),
            es.eigenfunctions.tobytes(),
            [report_bytes(r) for r in reports],
            fit.K,
            fit.eigen.eigenvalues.tobytes(),
            fit.eigen.eigenfunctions.tobytes(),
            fit.scores.tobytes(),
            evaluate_fit(fit, 0.4).surface.values.tobytes(),
        )

    assert at_threads(2, outputs) == at_threads(1, outputs)


# (N, count) pairs around the crossover, at the benchmark's solves (count 16
# at N = 200, 400, 441 and 800), on both sides of the order and the count at
# which a fixed-count solve leaves its matrix unformed (N >= 768, count <= 5)
# and at full spectra, with the route each takes
ROUTES = {
    (81, 5): False, (101, 1): False, (102, 1): True, (191, 16): False, (192, 16): True,
    (200, 16): True, (400, 16): True, (441, 16): True, (767, 5): True, (768, 5): True,
    (768, 6): True, (800, 1): True, (800, 16): True, (300, 84): False, (400, 400): False,
}


class Unformed:
    """A matrix seen only as ``leading_eigh`` sees an unformed one; counts its formations."""

    def __init__(self, a):
        self._a = a
        self.shape = a.shape
        self.formed = 0

    def __matmul__(self, v):
        return self._a @ v

    def form(self):
        self.formed += 1
        return self._a.copy()


def spectra(N):
    """Two positive definite matrices of order N with decaying spectra, and zero."""
    out = []
    for seed in (1, 2):
        b = np.random.default_rng(seed).standard_normal((N, N)) / np.arange(1, N + 1)
        out.append(b @ b.T)
    return out + [np.zeros((N, N))]


def dense_eigh(a, count, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(_blas, "_CROSSOVER", np.inf)
        return _blas.leading_eigh(a.copy(), count)


@pytest.mark.parametrize("N, count", sorted(ROUTES))
def test_the_route_depends_only_on_the_shape_and_convergence(N, count, monkeypatch):
    calls = lanczos_spy(monkeypatch)
    for a in spectra(N):
        before = len(calls)
        w, v = _blas.leading_eigh(a.copy(), count)
        assert len(calls) - before == ROUTES[N, count]
        if not (ROUTES[N, count] and calls[-1][2]):
            dw, dv = dense_eigh(a, count, monkeypatch)
            assert np.array_equal(w, dw) and np.array_equal(v, dv)
    # the zero matrix collapses at the first step
    assert not ROUTES[N, count] or calls[-1] == (N, count, False)


@pytest.mark.parametrize("N, count", sorted(ROUTES))
def test_an_unformed_matrix_takes_the_same_route_with_the_same_bits(N, count, monkeypatch):
    calls = lanczos_spy(monkeypatch)
    for a in spectra(N):
        w, v = _blas.leading_eigh(a.copy(), count)
        unformed = Unformed(a)
        uw, uv = _blas.leading_eigh(unformed, count)
        assert np.array_equal(w, uw) and np.array_equal(v, uv)
        if ROUTES[N, count]:
            assert calls[-1] == calls[-2]
        else:
            assert calls == []
        # formed for the dense route alone
        converged = ROUTES[N, count] and calls[-1][2]
        assert unformed.formed == (0 if converged else 1)


def rank_six(N):
    b = np.random.default_rng(4).standard_normal((N, 6))
    return b @ b.T


def stack(n, d, rank=None):
    """(n, d) centred trajectories, as the fit holds them, behind its unformed
    eigen matrix: the Gram matrix for n < d, else the covariance. Column j
    is scaled by 1/j, so the spectrum decays; ``rank`` columns, if given,
    span every row."""
    rng = np.random.default_rng(n + d)
    if rank is None:
        c = rng.standard_normal((n, d)) / np.arange(1, d + 1)
    else:
        c = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    return _EigenMatrix(c - c.mean(axis=0), 1.0 / d)


# (matrix, count, Ritz tolerance, the Lanczos run expected: None or (N, count, converged))
UNTOUCHED = {
    "dense 81x81, 5 pairs": (lambda: spectra(81)[0], 5, _blas._RITZ_TOL, None),
    "dense 191x191, 16 pairs": (lambda: spectra(191)[0], 16, _blas._RITZ_TOL, None),
    "dense 400x400, all pairs": (lambda: spectra(400)[0], 400, _blas._RITZ_TOL, None),
    "lanczos 400x400, 16 pairs": (lambda: spectra(400)[0], 16, _blas._RITZ_TOL, (400, 16, True)),
    "breakdown": (lambda: rank_six(400), 16, _blas._RITZ_TOL, (400, 16, False)),
    "unconverged": (lambda: spectra(400)[0], 16, -1.0, (400, 16, False)),
    "matrix-free gram 800x800, 16 pairs":
        (lambda: stack(800, 841), 16, _blas._RITZ_TOL, (800, 16, True)),
    "matrix-free covariance 784x784, 16 pairs":
        (lambda: stack(900, 784), 16, _blas._RITZ_TOL, (784, 16, True)),
    "matrix-free breakdown": (lambda: stack(800, 841, rank=6), 16, _blas._RITZ_TOL, (800, 16, False)),
    "matrix-free unconverged": (lambda: stack(800, 841), 16, -1.0, (800, 16, False)),
}


@pytest.mark.parametrize("case", sorted(UNTOUCHED))
def test_the_matrix_is_left_as_it_was_on_every_route(case, monkeypatch):
    make, count, tol, run = UNTOUCHED[case]
    monkeypatch.setattr(_blas, "_RITZ_TOL", tol)
    calls = lanczos_spy(monkeypatch)
    a = make()
    held = a if isinstance(a, np.ndarray) else a.centered
    before = held.copy()
    _blas.leading_eigh(a, count)
    assert calls == ([] if run is None else [run])
    assert np.array_equal(held, before)


@pytest.mark.parametrize("case", ["matrix-free breakdown", "matrix-free unconverged"])
def test_an_unformed_matrix_falls_back_to_the_dense_bits_of_its_formed_matrix(case, monkeypatch):
    make, count, tol, run = UNTOUCHED[case]
    monkeypatch.setattr(_blas, "_RITZ_TOL", tol)
    calls = lanczos_spy(monkeypatch)
    a = make()
    w, v = _blas.leading_eigh(a, count)
    assert calls == [run]
    want_w, want_v = np.linalg.eigh(a.form())
    assert np.array_equal(w, want_w[-count:]) and np.array_equal(v, want_v[:, -count:])


@pytest.mark.parametrize("case", ["lanczos 400x400, 16 pairs", "matrix-free gram 800x800, 16 pairs",
                                  "dense 191x191, 16 pairs", "breakdown",
                                  "matrix-free breakdown"])
def test_a_fixed_count_is_enough_counting_count_pairs(case):
    # the default stop of a fixed count is an explicit (count, count), with
    # the same bits on the formed, unformed and dense routes
    make, count, _, _ = UNTOUCHED[case]
    a = make()
    w, v = _blas.leading_eigh(a, count)
    ew, ev = _blas.leading_eigh(a, count, lambda theta: (count, count))
    assert w.size == count
    assert np.array_equal(w, ew) and np.array_equal(v, ev)


def test_an_unconverged_run_returns_the_dense_bits(monkeypatch):
    a = spectra(400)[0]
    monkeypatch.setattr(_blas, "_RITZ_TOL", -1.0)  # no Ritz bound is negative
    w, v = _blas.leading_eigh(a.copy(), 16)
    dw, dv = dense_eigh(a, 16, monkeypatch)
    assert np.array_equal(w, dw) and np.array_equal(v, dv)
