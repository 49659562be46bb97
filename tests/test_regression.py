import numpy as np
import pytest

from condcopula.conditional import KernelSpec, Sample
from condcopula.errors import DegenerateWeightsError
from condcopula.estimator import eval_alpha
from oracles import nw_weights


def covariates(xs) -> Sample:
    """A sample of the covariate values ``xs``, with zero responses."""
    xs = np.asarray(xs, dtype=float)
    return Sample(y1=np.zeros(xs.size), y2=np.zeros(xs.size), x=xs)


def regressor(xs, cols, kernel):
    """``eval_alpha`` at x over the score columns ``cols`` observed at ``xs``."""
    xi = np.column_stack([np.asarray(c, dtype=float) for c in cols])
    s = covariates(xs)
    return lambda x: eval_alpha(x, s, xi, kernel)


def test_constant_column_is_reproduced():
    r = regressor(
        [0.1, 0.4, 0.9], [[2.5, 2.5, 2.5]], KernelSpec(bandwidth=0.5)
    )
    for x in (0.1, 0.3, 0.8):
        assert r(x)[0] == pytest.approx(2.5, abs=1e-12)


def test_zero_scores_give_zero():
    r = regressor([0.0, 0.5, 1.0], [[0, 0, 0], [0, 0, 0]], KernelSpec(bandwidth=1.0))
    assert np.allclose(r(0.3), 0.0)


def test_hand_nw_evaluation():
    # uniform kernel with bandwidth 1.5 at x=1 covers all of {0, 1, 2}
    # with equal weight, so the estimate is the plain average
    r = regressor(
        [0.0, 1.0, 2.0],
        [[0.0, 1.0, 4.0]],
        KernelSpec(family="uniform", bandwidth=1.5),
    )
    assert r(1.0)[0] == pytest.approx(5.0 / 3.0, abs=1e-12)


def test_prediction_is_convex_combination():
    rng = np.random.default_rng(17)
    xs = rng.random(30)
    col = rng.normal(size=30)
    r = regressor(xs, [col], KernelSpec(bandwidth=0.2))
    for x in np.linspace(0.05, 0.95, 7):
        a = r(x)[0]
        assert col.min() - 1e-12 <= a <= col.max() + 1e-12


def test_degenerate_point_raises():
    r = regressor([0.0, 0.1, 0.2], [[1.0, 2.0, 3.0]], KernelSpec(bandwidth=0.05))
    with pytest.raises(DegenerateWeightsError):
        r(5.0)


def test_xs_length_must_match_scores():
    with pytest.raises(ValueError):
        eval_alpha(0.15, covariates([0.1, 0.2]), np.zeros((3, 1)), KernelSpec(bandwidth=0.5))


@pytest.mark.parametrize("family", ["epanechnikov", "gaussian", "uniform"])
def test_score_means_bit_identical_to_dense_weights(family):
    # a tied covariate in shuffled sample order, points at and between the
    # observations in unsorted order, each of them twice: every score mean
    # is the dense NW row times the scores, bit for bit
    rng = np.random.default_rng(23)
    s = covariates(rng.permutation(np.round(rng.random(300), 2)))
    xi = rng.normal(size=(300, 4))
    k = KernelSpec(family, 0.07)
    points = rng.permutation(np.concatenate([s.x[:20], np.linspace(0.0, 1.0, 21)]))
    for x in np.concatenate([points, rng.permutation(points)]):
        assert np.array_equal(eval_alpha(x, s, xi, k), nw_weights(x, s.x, k) @ xi)
    # outside the data both raise the same named error
    far = 50.0 if family == "gaussian" else 1.5
    with pytest.raises(DegenerateWeightsError) as dense:
        nw_weights(far, s.x, k)
    with pytest.raises(DegenerateWeightsError) as got:
        eval_alpha(far, s, xi, k)
    assert str(got.value) == str(dense.value)
    assert f"at x={far:g};" in str(got.value)
