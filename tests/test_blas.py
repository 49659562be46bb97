"""The BLAS thread limit that the fit pipeline puts on its eigen and score stage."""

import numpy as np
import pytest

from condcopula import _blas
from condcopula.estimator import PipelineConfig, evaluate_fit, fit_pipeline
from condcopula.simulate import ConditionalModel, TauLink, sample_conditional

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
