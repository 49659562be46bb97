import numpy as np
import pytest

from condcopula.conditional import KernelSpec, kernel_values
from condcopula.errors import DegenerateWeightsError
from condcopula.regression import cv_bandwidth, eval_alpha


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


def loo_cv_error(xs, xi, family, h):
    """Brute-force leave-one-out CV error, one held-out point at a time."""
    n = xs.size
    total = 0.0
    for i in range(n):
        keep = np.arange(n) != i
        kv = kernel_values(family, (xs[i] - xs[keep]) / h)
        if kv.sum() <= 0:
            return np.inf
        pred = (kv / kv.sum()) @ xi[keep]
        total += float(np.sum((xi[i] - pred) ** 2))
    return total


def test_cv_matches_brute_force_oracle():
    rng = np.random.default_rng(23)
    xs = rng.random(40)
    xi = np.column_stack(
        [np.sin(2 * np.pi * xs) + 0.3 * rng.normal(size=40),
         2.0 * xs + 0.3 * rng.normal(size=40)]
    )
    candidates = [0.05, 0.1, 0.2, 0.4, 0.8]
    oracle = {h: loo_cv_error(xs, xi, "epanechnikov", h) for h in candidates}
    best = min(candidates, key=lambda h: (oracle[h], h))
    got = cv_bandwidth(xs, xi, "epanechnikov", candidates)
    assert got == best


def test_cv_linear_scores_seeded_fixture():
    # exactly linear scores on a fixed design: the oracle CV curve decides
    # between heavy undersmoothing and global averaging
    rng = np.random.default_rng(31)
    xs = np.sort(rng.random(25))
    xi = (3.0 * xs - 1.0)[:, None]
    span = float(xs.max() - xs.min())
    candidates = [0.05, 5.0 * span]
    oracle = {h: loo_cv_error(xs, xi, "epanechnikov", h) for h in candidates}
    best = min(candidates, key=lambda h: (oracle[h], h))
    got = cv_bandwidth(xs, xi, "epanechnikov", candidates)
    assert got == best


def test_cv_skips_candidate_that_isolates_an_observation():
    # h=0.15 leaves the observation at x=1 with no leave-one-out neighbour
    xs = np.array([0.0, 0.1, 0.2, 1.0])
    xi = np.array([[0.0], [1.0], [0.5], [2.0]])
    assert loo_cv_error(xs, xi, "epanechnikov", 0.15) == np.inf
    assert cv_bandwidth(xs, xi, "epanechnikov", [0.15, 2.0]) == 2.0
    # with no usable candidate the smallest is returned
    assert cv_bandwidth(xs, xi, "epanechnikov", [0.15, 0.12]) == 0.12


def test_cv_constant_scores_tie_breaks_small():
    xs = np.array([0.0, 0.3, 0.6, 1.0])
    xi = np.full((4, 1), 1.7)
    got = cv_bandwidth(xs, xi, "epanechnikov", [0.5, 1.0, 2.0])
    assert got == 0.5


def test_cv_single_candidate_returned():
    xs = np.array([0.0, 0.5, 1.0])
    xi = np.array([[0.0], [1.0], [0.0]])
    assert cv_bandwidth(xs, xi, "epanechnikov", [0.7]) == 0.7


def test_cv_requires_three_distinct_xs():
    xi = np.zeros((3, 1))
    with pytest.raises(ValueError, match="3 distinct"):
        cv_bandwidth(np.array([0.1, 0.1, 0.9]), xi,
                     "epanechnikov", [0.5])


def test_cv_empty_candidates_rejected():
    xi = np.zeros((3, 1))
    with pytest.raises(ValueError, match="candidate"):
        cv_bandwidth(np.array([0.1, 0.5, 0.9]), xi,
                     "epanechnikov", [])


def test_xs_length_must_match_scores():
    with pytest.raises(ValueError):
        eval_alpha(0.15, np.array([0.1, 0.2]), np.zeros((3, 1)), KernelSpec(bandwidth=0.5))
