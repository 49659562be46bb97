import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condcopula.conditional import (
    KernelSpec,
    PseudoSample,
    Sample,
    _lattice_copula,
    empirical_copula_grid,
    weighted_copula_surfaces,
    weighted_copula_trajectory,
    nw_weights,
    pseudo_observations,
    read_sample_csv,
    rule_of_thumb_bandwidth,
    write_sample_csv,
)
from condcopula.errors import DegenerateWeightsError
from condcopula.grid import make_grid, sup_distance
from condcopula.harness import _joint_ecdf
from oracles import cond_cdf, cond_quantile, empirical_copula, weighted_copula
from condcopula.simulate import (
    ConditionalModel,
    TauLink,
    sample_conditional,
    true_conditional_copula,
)

WIDE = KernelSpec(family="epanechnikov", bandwidth=100.0)


def toy_sample():
    return Sample(
        y1=np.array([1.0, 3.0]),
        y2=np.array([2.0, 1.0]),
        x=np.array([0.7, 0.7]),
    )


# ---------------------------------------------------------------- weights


def test_equal_covariates_give_uniform_weights():
    xs = np.full(5, 0.3)
    w = nw_weights(0.3, xs, KernelSpec(bandwidth=0.5))
    assert not w.degenerate
    assert np.allclose(w.w, 0.2)


def test_single_point_in_window_takes_all_mass():
    xs = np.array([0.5, 5.0, -7.0])
    w = nw_weights(0.5, xs, KernelSpec(bandwidth=0.2))
    assert np.allclose(w.w, [1.0, 0.0, 0.0])


def test_out_of_window_everywhere_is_degenerate():
    xs = np.array([5.0, 6.0])
    w = nw_weights(0.0, xs, KernelSpec(bandwidth=0.5))
    assert w.degenerate
    with pytest.raises(DegenerateWeightsError, match="bandwidth"):
        w.require_valid()


def test_weights_sum_to_one():
    rng = np.random.default_rng(0)
    xs = rng.random(40)
    for fam in ("epanechnikov", "gaussian", "uniform"):
        w = nw_weights(0.4, xs, KernelSpec(family=fam, bandwidth=0.2))
        assert w.w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w.w >= 0)


def test_unknown_kernel_family_rejected():
    with pytest.raises(ValueError, match="family"):
        KernelSpec(family="triangular", bandwidth=0.1)


def test_nonpositive_bandwidth_rejected():
    with pytest.raises(ValueError, match="bandwidth"):
        KernelSpec(bandwidth=0.0)


# --------------------------------------------------- conditional CDF/quantile


def test_cond_cdf_extremes():
    s = toy_sample()
    w = nw_weights(0.7, s.x, WIDE)
    assert cond_cdf(3.0, 1, w, s) == 1.0
    assert cond_cdf(0.5, 1, w, s) == 0.0


def test_cond_cdf_half_mass():
    s = Sample(
        y1=np.array([1.0, 2.0, 3.0, 4.0]),
        y2=np.zeros(4) + np.arange(4),
        x=np.full(4, 0.0),
    )
    w = nw_weights(0.0, s.x, WIDE)
    assert cond_cdf(2.0, 1, w, s) == pytest.approx(0.5)


def test_cond_quantile_step_cdf():
    # uniform weights on {1.0, 3.0}: F(1)=0.5, so the 0.5-quantile is 1.0
    # and anything above 0.5 jumps to 3.0
    s = toy_sample()
    w = nw_weights(0.7, s.x, WIDE)
    assert cond_quantile(0.5, 1, w, s) == 1.0
    assert cond_quantile(0.6, 1, w, s) == 3.0
    assert cond_quantile(1.0, 1, w, s) == 3.0


def test_cond_quantile_level_validated():
    s = toy_sample()
    w = nw_weights(0.7, s.x, WIDE)
    with pytest.raises(ValueError):
        cond_quantile(0.0, 1, w, s)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=2,
        max_size=12,
        unique=True,
    ),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_cond_quantile_galois(ys, u):
    # generalized inverse: F(Q(u)) >= u, and Q(u) is an attained value
    s = Sample(y1=np.array(ys), y2=np.array(ys), x=np.zeros(len(ys)))
    w = nw_weights(0.0, s.x, WIDE)
    q = cond_quantile(u, 1, w, s)
    assert q in set(ys)
    assert cond_cdf(q, 1, w, s) >= u - 1e-9


# ------------------------------------------------------- pseudo-observations


def test_pseudo_hand_case():
    s = toy_sample()
    p = pseudo_observations(s, WIDE, WIDE)
    assert np.allclose(p.eps1, [0.5, 1.0])
    assert p.provenance == "estimated-margins"


def test_pseudo_self_inclusion_lower_bound():
    rng = np.random.default_rng(3)
    s = Sample(y1=rng.normal(size=30), y2=rng.normal(size=30), x=rng.random(30))
    k = KernelSpec(bandwidth=0.3)
    p = pseudo_observations(s, k, k)
    # each entry includes its own observation, so it is at least w_ii > 0
    for i in range(s.n):
        w = nw_weights(s.x[i], s.x, k).w
        assert p.eps1[i] >= w[i] - 1e-12
        assert p.eps2[i] >= w[i] - 1e-12


def test_pseudo_leave_one_out_differs():
    rng = np.random.default_rng(4)
    s = Sample(y1=rng.normal(size=20), y2=rng.normal(size=20), x=rng.random(20))
    k = KernelSpec(bandwidth=0.4)
    assert not np.allclose(
        pseudo_observations(s, k, k).eps1,
        pseudo_observations(s, k, k, leave_one_out=True).eps1,
    )


@pytest.mark.parametrize("family", ["epanechnikov", "gaussian"])
def test_pseudo_matches_pointwise_cond_cdf(family):
    rng = np.random.default_rng(5)
    # rounded responses put ties in both margins
    s = Sample(y1=np.round(rng.normal(size=40), 1), y2=np.round(rng.normal(size=40), 1),
               x=rng.random(40))
    k1 = KernelSpec(family=family, bandwidth=0.3)
    k2 = KernelSpec(family=family, bandwidth=0.5)
    p = pseudo_observations(s, k1, k2)
    for i in range(s.n):
        assert p.eps1[i] == pytest.approx(
            cond_cdf(s.y1[i], 1, nw_weights(s.x[i], s.x, k1), s), abs=1e-12)
        assert p.eps2[i] == pytest.approx(
            cond_cdf(s.y2[i], 2, nw_weights(s.x[i], s.x, k2), s), abs=1e-12)


def test_pseudo_degenerate_row_named():
    s = Sample(
        y1=np.array([0.0, 1.0, 2.0]),
        y2=np.array([0.0, 1.0, 2.0]),
        x=np.array([0.0, 0.01, 9.0]),
    )
    k = KernelSpec(bandwidth=0.05)
    # the isolated observation only survives through its own weight, so the
    # leave-one-out variant must flag it by index
    with pytest.raises(DegenerateWeightsError, match="index 2"):
        pseudo_observations(s, k, k, leave_one_out=True)


def test_pseudo_needs_two_records():
    s = Sample(y1=np.array([1.0]), y2=np.array([2.0]), x=np.array([0.5]))
    with pytest.raises(ValueError, match="at least 2"):
        pseudo_observations(s, WIDE, WIDE)


def test_pseudo_margins_nearly_uniform_on_simulated_model():
    # with estimated margins at n=2000 each pseudo-margin should pass a
    # KS uniformity check comfortably
    from condcopula.harness import ks_uniform_statistic

    model = ConditionalModel(family="clayton", link=TauLink(form="constant", a=0.5))
    s, _ = sample_conditional(model, 2000, seed=11)
    g = KernelSpec(bandwidth=rule_of_thumb_bandwidth(s.x))
    p = pseudo_observations(s, g, g)
    assert ks_uniform_statistic(p.eps1) < 0.05
    assert ks_uniform_statistic(p.eps2) < 0.05


# --------------------------------------------------------- empirical copula


def test_empirical_copula_corners():
    p = PseudoSample(eps1=np.array([0.2, 0.6, 0.9]), eps2=np.array([0.1, 0.8, 0.4]))
    assert empirical_copula(p, 1.0, 1.0) == 1.0
    for u in (0.0, 0.3, 1.0):
        assert empirical_copula(p, u, 0.0) == 0.0
        assert empirical_copula(p, 0.0, u) == 0.0


def test_empirical_copula_comonotone_pair():
    p = PseudoSample(eps1=np.array([0.1, 0.9]), eps2=np.array([0.2, 0.8]))
    assert empirical_copula(p, 0.5, 0.5) == 0.5


def test_empirical_copula_grid_matches_pointwise():
    rng = np.random.default_rng(9)
    p = PseudoSample(eps1=rng.random(37), eps2=rng.random(37))
    grid = make_grid(8)
    surf = empirical_copula_grid(p, grid)
    for a, u in enumerate(grid.nodes):
        for b, v in enumerate(grid.nodes):
            assert surf.values[a, b] == pytest.approx(
                empirical_copula(p, u, v), abs=1e-12
            )


def test_empirical_copula_grid_two_increasing():
    rng = np.random.default_rng(10)
    p = PseudoSample(eps1=rng.random(60), eps2=rng.random(60))
    v = empirical_copula_grid(p, make_grid(11)).values
    mass = v[1:, 1:] - v[:-1, 1:] - v[1:, :-1] + v[:-1, :-1]
    assert mass.min() >= -1e-12


def test_partial_copula_known_margins_counts():
    e1 = np.array([0.3])
    e2 = np.array([0.7])
    assert _joint_ecdf(e1, e2, 0.5, 0.5) == 0.0
    assert _joint_ecdf(e1, e2, 0.5, 0.8) == 1.0


def tied_pseudo_sample(n, seed):
    rng = np.random.default_rng(seed)
    # one decimal forces ties in both margins
    return PseudoSample(eps1=np.round(rng.random(n), 1), eps2=np.round(rng.random(n), 1))


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (23, 2), (60, 3)])
def test_lattice_kernel_matches_pointwise_rank_copula(n, seed):
    # the lattice that starts at level 0 is the one the rank-gap check uses
    p = tied_pseudo_sample(n, seed)
    for levels in (np.linspace(0.0, 1.0, 11), make_grid(7).nodes):
        lattice = _lattice_copula(p.eps1, p.eps2, levels)
        want = [[empirical_copula(p, u, v) for v in levels] for u in levels]
        assert np.array_equal(lattice, want)


@pytest.mark.parametrize("n, seed", [(2, 1), (23, 2), (60, 3)])
def test_lattice_kernel_matches_pointwise_weighted_copula(n, seed):
    p = tied_pseudo_sample(n, seed)
    xs = np.random.default_rng(seed).random(n)
    nodes = make_grid(7).nodes
    uniform = np.full(n, 1.0 / n)
    nw = nw_weights(0.5, xs, KernelSpec(bandwidth=0.4)).w
    for w in (uniform, nw):
        lattice = _lattice_copula(p.eps1, p.eps2, nodes, w)
        for a, u in enumerate(nodes):
            for b, v in enumerate(nodes):
                assert lattice[a, b] == pytest.approx(weighted_copula(p, w, u, v), abs=1e-12)
    # uniform weights give the rank-based copula up to rounding
    assert np.allclose(_lattice_copula(p.eps1, p.eps2, nodes, uniform),
                       _lattice_copula(p.eps1, p.eps2, nodes), rtol=0, atol=1e-12)


def test_trajectory_is_one_surface_of_the_stack():
    rng = np.random.default_rng(13)
    s = Sample(y1=rng.normal(size=50), y2=rng.normal(size=50), x=rng.random(50))
    k = KernelSpec(bandwidth=0.3)
    grid = make_grid(9)
    pseudo = pseudo_observations(s, k, k)
    stack = weighted_copula_surfaces(s.x[:5], s, k, grid, pseudo)
    for i in range(5):
        f = weighted_copula_trajectory(s.x[i], s, k, k, k, grid)
        assert np.array_equal(f.values, stack[i])


# -------------------------------------------------------------- trajectories


def test_trajectory_values_in_unit_interval_and_monotone():
    rng = np.random.default_rng(12)
    s = Sample(y1=rng.normal(size=80), y2=rng.normal(size=80), x=rng.random(80))
    k = KernelSpec(bandwidth=0.3)
    f = weighted_copula_trajectory(0.5, s, k, k, k, make_grid(9))
    v = f.values
    assert v.min() >= 0.0 and v.max() <= 1.0
    assert np.all(np.diff(v, axis=0) >= -1e-12)
    assert np.all(np.diff(v, axis=1) >= -1e-12)


def test_trajectory_single_effective_weight_is_indicator():
    s = Sample(
        y1=np.array([0.5, 4.0, 5.0]),
        y2=np.array([1.0, 6.0, 7.0]),
        x=np.array([0.0, 50.0, 60.0]),
    )
    k = KernelSpec(bandwidth=1.0)
    f = weighted_copula_trajectory(0.0, s, k, WIDE, WIDE, make_grid(6))
    assert set(np.round(f.values.ravel(), 12)) <= {0.0, 1.0}


def test_trajectory_recovers_constant_clayton():
    model = ConditionalModel(family="clayton", link=TauLink(form="constant", a=0.5))
    s, _ = sample_conditional(model, 2000, seed=1)
    grid = make_grid(21)
    h = rule_of_thumb_bandwidth(s.x)
    k = KernelSpec(bandwidth=h)
    est = weighted_copula_trajectory(0.5, s, k, k, k, grid)
    truth = true_conditional_copula(model, 0.5, grid)
    assert sup_distance(est, truth) <= 0.08


# --------------------------------------------------------------------- misc


def test_rule_of_thumb_shrinks_with_n():
    rng = np.random.default_rng(2)
    xs_small = rng.random(50)
    xs_big = np.concatenate([xs_small] * 40)
    assert rule_of_thumb_bandwidth(xs_big) < rule_of_thumb_bandwidth(xs_small)


def test_ties_warn():
    s = Sample(y1=np.array([1.0, 1.0, 2.0]), y2=np.array([1.0, 2.0, 3.0]),
               x=np.array([0.1, 0.2, 0.3]))
    with pytest.warns(UserWarning, match="ties in margin 1"):
        s.warn_on_ties()


def test_sample_rejects_non_finite():
    with pytest.raises(ValueError, match="y2"):
        Sample(y1=np.array([1.0, 2.0]), y2=np.array([np.inf, 0.0]),
               x=np.array([0.1, 0.2]))


def test_sample_csv_round_trip():
    s = toy_sample()
    buf = io.StringIO()
    write_sample_csv(s, buf)
    back = read_sample_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.y1, s.y1)
    assert np.array_equal(back.y2, s.y2)
    assert np.array_equal(back.x, s.x)


def test_sample_csv_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 3"):
        read_sample_csv(io.StringIO("y1,y2,x\n1,2,3\n1,oops,3\n"))
    with pytest.raises(ValueError, match="line 2"):
        read_sample_csv(io.StringIO("y1,y2,x\n1,2\n"))
