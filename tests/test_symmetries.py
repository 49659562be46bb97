"""Symmetries of the estimand that the estimator keeps.

A copula does not change under strictly increasing transforms of its
margins (Nelsen 2006, Thm 2.4.3), and swapping Y1 and Y2 transposes it. The
fit reads each margin only through comparisons, so an increasing map that
keeps every margin's order and creates no ties leaves its estimate, K and
eigenvalues bit for bit as they were; the swap gives the transposed estimate
up to rounding, with the same K. The conditional copula given X = x does not
depend on how x is labelled, and every kernel is symmetric, so reflecting
the covariate, x -> 1 - x, gives the same estimate at 1 - x up to rounding,
with the same K, as long as both fits rank their pseudo-observations alike.
A compact kernel can give several observations the transform 1 up to
rounding, and the stable tie rule then ranks them by how the window sums
round, which the reflection changes (ROADMAP item 1's tie rule).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from condcopula.conditional import KERNEL_FAMILIES, Sample
from condcopula.estimator import PipelineConfig, evaluate_fit, fit_pipeline
from condcopula.simulate import ConditionalModel, TauLink, sample_conditional

MODELS = (
    ConditionalModel(family="clayton", link=TauLink(form="sine", a=0.4, b=0.25)),
    ConditionalModel(family="frank", link=TauLink(form="linear", a=0.2, b=0.3)),
)

cases = st.fixed_dictionaries({
    "model": st.sampled_from(MODELS),
    "n": st.integers(min_value=60, max_value=400),
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
    "kernel": st.sampled_from(KERNEL_FAMILIES),
    "grid_size": st.sampled_from((9, 15)),
    "x": st.floats(min_value=0.05, max_value=0.95),
    "project": st.booleans(),
})


def increasing_map(slope: float, kinks: list):
    """y -> slope * y + sum_j b_j max(y - c_j, 0) for kinks (c_j, b_j), b_j >= 0.

    Each term is nondecreasing in floating point too, so the map never
    reverses an order; it can only merge distinct values into ties.
    """
    def apply(y):
        out = slope * y
        for c, b in kinks:
            out = out + b * np.maximum(y - c, 0.0)
        return out

    return apply


maps = st.builds(
    increasing_map,
    st.floats(min_value=1e-3, max_value=1e3),
    st.lists(st.tuples(st.floats(min_value=-4.0, max_value=4.0),
                       st.floats(min_value=0.0, max_value=1e3)), max_size=4),
)


def fit_at(sample, case):
    cfg = PipelineConfig(grid_size=case["grid_size"], kernel_family=case["kernel"],
                         project=case["project"])
    fit = fit_pipeline(sample, cfg)
    return fit, evaluate_fit(fit, case["x"])


@settings(max_examples=60, deadline=None)
@given(cases, maps, maps)
def test_increasing_margin_maps_leave_the_estimate_bit_identical(case, map1, map2):
    sample, _ = sample_conditional(case["model"], case["n"], case["seed"])
    y1, y2 = map1(sample.y1), map2(sample.y2)
    # no new ties: each margin keeps as many distinct values as it had
    assume(np.unique(y1).size == np.unique(sample.y1).size)
    assume(np.unique(y2).size == np.unique(sample.y2).size)
    fit, est = fit_at(sample, case)
    mapped_fit, mapped = fit_at(Sample(y1=y1, y2=y2, x=sample.x), case)
    assert mapped.K == est.K
    assert np.array_equal(mapped_fit.eigen.eigenvalues, fit.eigen.eigenvalues)
    assert np.array_equal(mapped.surface.values, est.surface.values)


@settings(max_examples=60, deadline=None)
@given(cases)
def test_swapping_the_margins_transposes_the_estimate(case):
    sample, _ = sample_conditional(case["model"], case["n"], case["seed"])
    _, est = fit_at(sample, case)
    _, swapped = fit_at(Sample(y1=sample.y2, y2=sample.y1, x=sample.x), case)
    assert swapped.K == est.K
    assert np.max(np.abs(swapped.surface.values - est.surface.values.T)) <= 1e-14


def reflected_fits(case):
    sample, _ = sample_conditional(case["model"], case["n"], case["seed"])
    fit, est = fit_at(sample, case)
    reflected = Sample(y1=sample.y1, y2=sample.y2, x=1.0 - sample.x)
    mirrored_fit, mirrored = fit_at(reflected, {**case, "x": 1.0 - case["x"]})
    return fit, est, mirrored_fit, mirrored


@settings(max_examples=60, deadline=None)
@given(cases)
def test_reflecting_the_covariate_keeps_the_estimate(case):
    fit, est, mirrored_fit, mirrored = reflected_fits(case)
    assume(np.array_equal(mirrored_fit.pseudo.ranks, fit.pseudo.ranks))
    assert mirrored.K == est.K
    assert np.max(np.abs(mirrored.surface.values - est.surface.values)) <= 1e-12


@pytest.mark.xfail(
    strict=True, reason="rounding of window sums decides tied ranks (ROADMAP item 1)"
)
def test_reflection_keeps_tied_pseudo_observation_ranks():
    # n = 60, Epanechnikov: three observations have eps1 = 1.0 and five have
    # eps2 = 1.0; the reflected sample's window sums round one of each to
    # just below 1, so the partial copula moves by 1/60 and K goes from 5 to 6
    case = {"model": MODELS[0], "n": 60, "seed": 2, "kernel": "epanechnikov",
            "grid_size": 9, "x": 0.5, "project": False}
    fit, est, mirrored_fit, mirrored = reflected_fits(case)
    assert np.array_equal(mirrored_fit.pseudo.ranks, fit.pseudo.ranks)
    assert mirrored.K == est.K
