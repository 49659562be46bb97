import numpy as np
import pytest

from condcopula.conditional import KernelSpec
from condcopula.errors import DegenerateWeightsError
from condcopula.regression import eval_alpha


def regressor(xs, cols, kernel):
    """``eval_alpha`` at x over the score columns ``cols`` observed at ``xs``."""
    xi = np.column_stack([np.asarray(c, dtype=float) for c in cols])
    return lambda x: eval_alpha(x, xs, xi, kernel)


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
        eval_alpha(0.15, np.array([0.1, 0.2]), np.zeros((3, 1)), KernelSpec(bandwidth=0.5))
