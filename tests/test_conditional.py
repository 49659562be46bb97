from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condcopula import conditional
from condcopula.conditional import (
    KernelSpec,
    PseudoSample,
    Sample,
    _copula_lattices,
    _lattice_cdf,
    _row_totals,
    empirical_copula_grid,
    joint_ecdf,
    kernel_values,
    weighted_copula_surfaces,
    pseudo_observations,
    rank_copula,
    read_sample_csv,
    rule_of_thumb_bandwidth,
    window_weights,
    write_sample_csv,
)
from condcopula.errors import DegenerateWeightsError
from condcopula.grid import GridFunction, make_grid, sup_distance
from oracles import (
    add_at_lattice_cdf,
    cond_cdf,
    cond_quantile,
    dense_pseudo_observations,
    dense_weighted_copula_surfaces,
    empirical_copula,
    nw_weights,
    rank_1based,
    traced_peak_mib,
    weighted_copula,
)
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


def covariates(xs) -> Sample:
    """A sample of the covariate values ``xs``, with zero responses."""
    xs = np.asarray(xs, dtype=float)
    return Sample(y1=np.zeros(xs.size), y2=np.zeros(xs.size), x=xs)


def window_rows(x_eval, s: Sample, k: KernelSpec) -> np.ndarray:
    """``window_weights`` at ``x_eval`` set into zero rows of length n, in input order."""
    rows = np.zeros((len(x_eval), s.n))
    for points, union, w in window_weights(x_eval, s, k):
        rows[np.ix_(points, union)] = w
    return rows


def test_equal_covariates_give_uniform_weights():
    w = window_rows([0.3], covariates(np.full(5, 0.3)), KernelSpec(bandwidth=0.5))
    assert np.allclose(w, 0.2)


def test_single_point_in_window_takes_all_mass():
    w = window_rows([0.5], covariates([0.5, 5.0, -7.0]), KernelSpec(bandwidth=0.2))
    assert np.allclose(w, [[1.0, 0.0, 0.0]])


def test_out_of_window_everywhere_is_degenerate():
    s = covariates([5.0, 6.0])
    with pytest.raises(DegenerateWeightsError, match="at x=0;.*bandwidth"):
        list(window_weights([0.0], s, KernelSpec(bandwidth=0.5)))


def test_weights_sum_to_one():
    # in blocks of x order, at unsorted and repeated points, with every
    # family; each row is the dense one bit for bit
    rng = np.random.default_rng(0)
    s = covariates(rng.random(40))
    x_eval = rng.permutation(np.concatenate([np.linspace(0.0, 1.0, 30), s.x[:10]] * 2))
    for fam in ("epanechnikov", "gaussian", "uniform"):
        k = KernelSpec(family=fam, bandwidth=0.2)
        w = window_rows(x_eval, s, k)
        assert np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(w >= 0)
        assert np.array_equal(w, [nw_weights(x, s.x, k) for x in x_eval])


def test_unknown_kernel_family_rejected():
    with pytest.raises(ValueError, match="family"):
        KernelSpec(family="triangular", bandwidth=0.1)


def test_nonpositive_bandwidth_rejected():
    for bandwidth in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="bandwidth must be finite and positive"):
            KernelSpec(bandwidth=bandwidth)


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


def test_pseudo_self_inclusion_lower_bound():
    rng = np.random.default_rng(3)
    s = Sample(y1=rng.normal(size=30), y2=rng.normal(size=30), x=rng.random(30))
    k = KernelSpec(bandwidth=0.3)
    p = pseudo_observations(s, k, k)
    # each entry includes its own observation, so it is at least w_ii > 0
    for i in range(s.n):
        w = nw_weights(s.x[i], s.x, k)
        assert p.eps1[i] >= w[i] - 1e-12
        assert p.eps2[i] >= w[i] - 1e-12


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


def test_isolated_row_degenerates_only_without_its_own_weight():
    s = Sample(
        y1=np.array([0.0, 1.0, 2.0]),
        y2=np.array([0.0, 1.0, 2.0]),
        x=np.array([0.0, 0.01, 9.0]),
    )
    k = KernelSpec(bandwidth=0.05)
    # the isolated observation only survives through its own weight: the
    # pseudo-observations keep it, the weights over the other observations
    # vanish
    assert pseudo_observations(s, k, k).eps1[2] == 1.0
    others = Sample(y1=s.y1[:2], y2=s.y2[:2], x=s.x[:2])
    with pytest.raises(DegenerateWeightsError, match="at x=9;"):
        list(window_weights([s.x[2]], others, k))


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


@pytest.mark.parametrize("margin", ["eps1", "eps2"])
def test_pseudo_observations_outside_the_unit_interval_rejected(margin):
    for bad in (np.nan, -1e-300, 1.0 + 2**-52):
        values = {"eps1": np.array([0.2, 0.6]), "eps2": np.array([0.1, 0.8])}
        values[margin][1] = bad
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            PseudoSample(**values)


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
    # rows are u levels, columns v levels
    lattice = joint_ecdf(e1, e2, np.array([0.5, 0.8]))
    assert lattice.tolist() == [[0.0, 1.0], [0.0, 1.0]]


def tied_pseudo_sample(n, seed):
    rng = np.random.default_rng(seed)
    # one decimal forces ties in both margins
    return PseudoSample(eps1=np.round(rng.random(n), 1), eps2=np.round(rng.random(n), 1))


def test_ranks_are_stable_read_only_and_computed_once():
    p = tied_pseudo_sample(60, seed=4)
    ranks = p.ranks
    assert ranks.dtype == np.int64 and ranks.shape == (2, 60)
    assert np.unique(p.eps1).size < 60 and np.unique(p.eps2).size < 60
    # ties keep sample order
    assert np.array_equal(ranks, [rank_1based(p.eps1) - 1, rank_1based(p.eps2) - 1])
    assert p.ranks is ranks
    with pytest.raises(ValueError, match="read-only"):
        ranks[0, 0] = 1


def test_covariate_order_is_stable_read_only_and_computed_once(monkeypatch):
    # one decimal ties the covariate; the kernel stages read the order the
    # sample computed once, and sort no sample of their own
    rng = np.random.default_rng(4)
    s = Sample(y1=rng.normal(size=60), y2=rng.normal(size=60), x=np.round(rng.random(60), 1))
    assert np.unique(s.x).size < 60
    order, xs = s.x_order
    assert np.array_equal(order, np.argsort(s.x, kind="stable"))
    assert np.array_equal(xs, np.sort(s.x))
    # ties keep sample order
    assert all(np.all(np.diff(order[xs == v]) > 0) for v in np.unique(xs))
    assert s.x_order[0] is order and s.x_order[1] is xs
    for arr in (order, xs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    # a fresh sample sorts its covariate once, however many weight passes read it
    fresh = Sample(y1=s.y1, y2=s.y2, x=s.x)
    sorted_samples = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, **kw: sorted_samples.append(a is fresh.x)
                        or argsort(a, **kw))
    for x_eval in (fresh.x.copy(), np.linspace(0.0, 1.0, 50), fresh.x[::-1].copy()):
        assert np.array_equal(window_rows(x_eval, fresh, KernelSpec(bandwidth=0.2)),
                              window_rows(x_eval, s, KernelSpec(bandwidth=0.2)))
    assert sorted_samples.count(True) == 1
    assert np.array_equal(fresh.x_order[0], order)


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (23, 2), (60, 3)])
def test_lattice_kernel_matches_pointwise_rank_copula(n, seed):
    # the lattice that starts at level 0 is the one the rank-gap check uses
    p = tied_pseudo_sample(n, seed)
    for levels in (np.linspace(0.0, 1.0, 11), make_grid(7).nodes):
        lattice = rank_copula(p, levels)
        want = [[empirical_copula(p, u, v) for v in levels] for u in levels]
        assert np.array_equal(lattice, want)


@pytest.mark.parametrize("n, seed", [(2, 1), (23, 2), (60, 3)])
def test_lattice_kernel_matches_pointwise_weighted_copula(n, seed):
    p = tied_pseudo_sample(n, seed)
    s = Sample(y1=p.eps1, y2=p.eps2, x=np.random.default_rng(seed).random(n))
    grid = make_grid(7)
    # a wide uniform kernel weighs every pair 1/n
    uniform, nw = KernelSpec("uniform", 100.0), KernelSpec(bandwidth=0.4)
    for k in (uniform, nw):
        lattice = weighted_copula_surfaces([0.5], s, k, grid, p)[0]
        w = nw_weights(0.5, s.x, k)
        for a, u in enumerate(grid.nodes):
            for b, v in enumerate(grid.nodes):
                assert lattice[a, b] == pytest.approx(weighted_copula(p, w, u, v), abs=1e-12)
    # uniform weights give the rank-based copula up to rounding
    assert np.allclose(weighted_copula_surfaces([0.5], s, uniform, grid, p)[0],
                       empirical_copula_grid(p, grid).values, rtol=0, atol=1e-12)


def per_level_lattices(positions, mass, thresholds):
    """``_copula_lattices`` by walking each margin's rank order once per level.

    A level takes pairs in rank order until the mass taken reaches it.
    Dyadic masses make every sum exact, whatever its order.
    """
    B, L = mass.shape[0], thresholds.size
    out = np.zeros((B, L, L))
    for b in range(B):
        counted = []
        for position in positions:
            levels = []
            for t in thresholds:
                taken, total = set(), 0.0
                for i in np.argsort(position):
                    if total >= t:
                        break
                    taken.add(i)
                    total += mass[b, i]
                levels.append(taken)
            counted.append(levels)
        for l1, first in enumerate(counted[0]):
            for l2, second in enumerate(counted[1]):
                out[b, l1, l2] = sum(mass[b, i] for i in first & second)
    return out


@pytest.mark.parametrize(
    "positions, mass",
    [
        (
            (np.array([30, 10, 50, 0, 20, 40]), np.array([2, 5, 1, 4, 0, 3])),
            np.array([[0.25, 0.0, 0.125, 0.375, 0.0, 0.25],
                      [0.0, 0.5, 0.25, 0.0, 0.125, 0.125]]),
        ),
        ((np.array([7]), np.array([3])), np.array([[0.5], [0.0]])),
    ],
)
def test_lattice_kernel_at_levels_equal_to_prefix_masses(positions, mass):
    # a level equal to the mass up to and including a pair counts that pair
    # and no later one; zero masses make runs of equal prefixes
    thresholds = np.array([-1e-12, 0.0, 0.125, 0.375, 0.5, 0.625, 0.875, 1.0, 1.25])
    if mass.shape[1] > 1:
        for b in range(mass.shape[0]):
            for position in positions:
                assert np.isin(np.cumsum(mass[b, np.argsort(position)]), thresholds).sum() >= 3
    want = per_level_lattices(positions, mass, thresholds)
    assert np.array_equal(_copula_lattices(positions, mass, thresholds), want)


# -------------------------------------------------------------- kernels


def closed_form_kernel(family, z):
    """The kernels as closed forms over fresh temporaries."""
    if family == "epanechnikov":
        return np.where(np.abs(z) <= 1.0, 0.75 * (1.0 - z * z), 0.0)
    if family == "gaussian":
        return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    return np.where(np.abs(z) <= 1.0, 0.5, 0.0)


@pytest.mark.parametrize("family", ["epanechnikov", "gaussian", "uniform"])
def test_kernel_values_keep_the_closed_form_bits(family):
    # z * z rounds to exactly 1 only at |z| = 1; its neighbours square to the
    # doubles next to 1, on either side of the support's edge
    above = np.nextafter(1.0, 2.0)
    edge = [1.0, above, np.nextafter(1.0, 0.0), np.nextafter(above, 2.0)]
    special = [0.0, -0.0, 1e-300, 0.5, 8.5, 40.0, np.inf]
    z = np.array(edge + special)
    z = np.concatenate([z, -z, np.random.default_rng(13).uniform(-3.0, 3.0, 2000)])
    block = z[:2016].reshape(32, 63)  # a block of 32 points, as the windows pass it
    for values in (z, block):
        got = kernel_values(family, values)
        want = closed_form_kernel(family, values)
        assert got.shape == values.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# -------------------------------------------------------------- trajectories


def test_trajectory_values_in_unit_interval_and_monotone():
    rng = np.random.default_rng(12)
    s = Sample(y1=rng.normal(size=80), y2=rng.normal(size=80), x=rng.random(80))
    k = KernelSpec(bandwidth=0.3)
    pseudo = pseudo_observations(s, k, k)
    v = weighted_copula_surfaces([0.5], s, k, make_grid(9), pseudo)[0]
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
    pseudo = pseudo_observations(s, WIDE, WIDE)
    v = weighted_copula_surfaces([0.0], s, k, make_grid(6), pseudo)[0]
    assert set(np.round(v.ravel(), 12)) <= {0.0, 1.0}


def test_trajectory_recovers_constant_clayton():
    model = ConditionalModel(family="clayton", link=TauLink(form="constant", a=0.5))
    s, _ = sample_conditional(model, 2000, seed=1)
    grid = make_grid(21)
    h = rule_of_thumb_bandwidth(s.x)
    k = KernelSpec(bandwidth=h)
    pseudo = pseudo_observations(s, k, k)
    est = GridFunction(
        grid=grid, values=weighted_copula_surfaces([0.5], s, k, grid, pseudo)[0]
    )
    truth = true_conditional_copula(model, 0.5, grid)
    assert sup_distance(est, truth) <= 0.08


# ------------------------------------------------ parity with the n x n path

FAMILIES = ("epanechnikov", "uniform", "gaussian")


def tied_sample(n, seed, shift=0.0, span=1.0):
    """Sample with ties in both margins and duplicate covariate values."""
    rng = np.random.default_rng(seed)
    return Sample(
        y1=np.round(rng.normal(size=n), 1),
        y2=np.round(rng.normal(size=n), 1),
        x=shift + span * np.round(rng.random(n), 2),
    )


def in_support(xs_eval, s, k):
    """The evaluation points with a nonzero kernel value at some X_i."""
    return np.array([x for x in xs_eval
                     if np.any(kernel_values(k.family, (x - s.x) / k.bandwidth) > 0.0)])


@contextmanager
def dense_row_calls():
    """Records each call of the dense-row fallback as (margin, rows, values)."""
    calls = []
    real = conditional._dense_pseudo_rows

    def spy(s, k, j, rows):
        values = real(s, k, j, rows)
        calls.append((j, rows, values))
        return values

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conditional, "_dense_pseudo_rows", spy)
        yield calls


@pytest.fixture
def recomputed():
    with dense_row_calls() as calls:
        yield calls


def assert_dense_ranks(got, want, recomputed):
    """``got`` holds the dense pseudo-observations' stable ranks exactly.

    Its values lie within 4 n 2^-53 of the dense ones, and every row that
    ``recomputed`` names holds the dense float.
    """
    bound = 4 * want.n * 2.0**-53
    margins = {1: (got.eps1, want.eps1), 2: (got.eps2, want.eps2)}
    for g, w in margins.values():
        assert np.array_equal(rank_1based(g), rank_1based(w))
        assert np.max(np.abs(g - w)) <= bound
    for j, rows, values in recomputed:
        g, w = margins[j]
        assert np.array_equal(values, w[rows])
        assert np.array_equal(g[rows], w[rows])


def assert_same_outcome(got_fn, want_fn, recomputed=None):
    """Both calls return the same outcome or raise the same message.

    Arrays must be bit-identical; pseudo-observations must have the dense
    ranks (``assert_dense_ranks``, with the fallback calls of ``got_fn``).
    """
    try:
        want = want_fn()
    except DegenerateWeightsError as exc:
        with pytest.raises(DegenerateWeightsError) as got:
            got_fn()
        assert str(got.value) == str(exc)
        return
    if recomputed is not None:
        recomputed.clear()
    got = got_fn()
    if isinstance(want, PseudoSample):
        assert_dense_ranks(got, want, recomputed)
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("shared_bandwidth", [False, True])
@pytest.mark.parametrize("n", [2, 255, 256, 257, 600])
def test_pseudo_and_surfaces_bit_identical_to_dense(family, shared_bandwidth, n, recomputed):
    # a shared bandwidth takes the one-block-for-both-margins path; the
    # surfaces use the margin-2 bandwidth, so they run at two window widths
    s = tied_sample(n, seed=n)
    h = rule_of_thumb_bandwidth(s.x)
    g2 = h if shared_bandwidth else 0.6 * h
    k1, k2 = KernelSpec(family, h), KernelSpec(family, g2)
    pseudo = pseudo_observations(s, k1, k2)
    assert_dense_ranks(pseudo, dense_pseudo_observations(s, k1, k2), recomputed)
    grid = make_grid(7)
    xs_eval = np.concatenate([s.x, s.x[:9] - 0.5 * g2, s.x[:9] + 0.9 * g2])
    assert np.array_equal(
        weighted_copula_surfaces(xs_eval, s, k2, grid, pseudo),
        dense_weighted_copula_surfaces(xs_eval, s, k2, grid, pseudo),
    )


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("size", [0, 31, 32, 33, 65])
def test_surfaces_at_block_edges_bit_identical(family, size):
    # one point short of, at, and one past a block of 32, then three blocks
    s = tied_sample(500, seed=size)
    k = KernelSpec(family, 0.08)
    pseudo = pseudo_observations(s, k, k)
    xs_eval = np.linspace(0.0, 1.0, size)
    got = weighted_copula_surfaces(xs_eval, s, k, make_grid(9), pseudo)
    assert got.shape == (size, 9, 9)
    assert_same_outcome(
        lambda: got, lambda: dense_weighted_copula_surfaces(xs_eval, s, k, make_grid(9), pseudo)
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_surfaces_at_unsorted_and_repeated_points_bit_identical(family):
    # 70 points in shuffled order, every one of them twice, so each block
    # gathers points from all over the input
    s = tied_sample(400, seed=21)
    k = KernelSpec(family, 0.06)
    pseudo = pseudo_observations(s, k, k)
    rng = np.random.default_rng(21)
    points = rng.permutation(np.concatenate([s.x[:40], np.linspace(0.0, 1.0, 30)]))
    xs_eval = np.concatenate([points, rng.permutation(points)])
    assert_same_outcome(
        lambda: weighted_copula_surfaces(xs_eval, s, k, make_grid(7), pseudo),
        lambda: dense_weighted_copula_surfaces(xs_eval, s, k, make_grid(7), pseudo),
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_surfaces_when_one_block_spans_the_sample_bit_identical(family):
    # 32 of 40 points spread over [0, 1]: the first block's union of
    # windows is every observation, the second block's only a part
    s = tied_sample(300, seed=4)
    k = KernelSpec(family, 0.05)
    pseudo = pseudo_observations(s, k, k)
    xs_eval = np.linspace(0.0, 1.0, 40)
    # the Gaussian kernel also runs on the 51-node grid of the fine-grid
    # benchmark workload, so each level search takes 51 thresholds
    for G in (11, 51) if family == "gaussian" else (11,):
        assert_same_outcome(
            lambda: weighted_copula_surfaces(xs_eval, s, k, make_grid(G), pseudo),
            lambda: dense_weighted_copula_surfaces(xs_eval, s, k, make_grid(G), pseudo),
        )


@pytest.mark.parametrize("family", FAMILIES)
def test_surfaces_name_the_first_degenerate_point_in_input_order(family):
    # the right-hand point comes first in the input and lies in the last
    # block of x order; the left-hand one lies in the first block
    s = tied_sample(300, seed=6)
    k = KernelSpec(family, 0.05)
    pseudo = pseudo_observations(s, k, k)
    far = 50.0 if family == "gaussian" else 1.5
    xs_eval = np.concatenate([[0.5, 1.0 + far], np.linspace(0.0, 1.0, 40), [-far]])
    assert_same_outcome(
        lambda: weighted_copula_surfaces(xs_eval, s, k, make_grid(5), pseudo),
        lambda: dense_weighted_copula_surfaces(xs_eval, s, k, make_grid(5), pseudo),
    )
    with pytest.raises(DegenerateWeightsError, match=f"at x={1.0 + far:g};"):
        weighted_copula_surfaces(xs_eval, s, k, make_grid(5), pseudo)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("leave_one_out", [False])
def test_weight_blocks_name_the_first_degenerate_point_in_input_order(
    family, leave_one_out, recomputed
):
    # every window keeps the point's own weight (no leave-one-out windows
    # remain). The isolated point first in the input lies in the last of 19
    # blocks of x order, the one last in the input in the first block: at the
    # sample only their own weight is left, and they do not degenerate; a
    # step further out, the first in the input is named
    rng = np.random.default_rng(12)
    far = 50.0 if family == "gaussian" else 5.0
    xs = np.concatenate([[far], rng.random(598), [-far]])
    s = Sample(y1=rng.normal(size=600), y2=rng.normal(size=600), x=xs)
    k = KernelSpec(family, 0.05)
    assert_same_outcome(lambda: pseudo_observations(s, k, k),
                        lambda: dense_pseudo_observations(s, k, k), recomputed)
    pseudo = pseudo_observations(s, k, k)
    assert not leave_one_out
    assert_same_outcome(
        lambda: weighted_copula_surfaces(xs, s, k, make_grid(5), pseudo),
        lambda: dense_weighted_copula_surfaces(xs, s, k, make_grid(5), pseudo),
    )
    xs_out = np.concatenate([[2 * far], xs[1:-1], [-2 * far]])
    assert_same_outcome(
        lambda: weighted_copula_surfaces(xs_out, s, k, make_grid(5), pseudo),
        lambda: dense_weighted_copula_surfaces(xs_out, s, k, make_grid(5), pseudo),
    )
    with pytest.raises(DegenerateWeightsError, match=f"at x={2 * far:g};"):
        weighted_copula_surfaces(xs_out, s, k, make_grid(5), pseudo)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [300, 700])
def test_pseudo_and_surfaces_on_tied_covariate_bit_identical(family, n, recomputed):
    # 11 distinct covariate values, so x order has long runs of ties that
    # straddle the blocks of 32 rows or points
    rng = np.random.default_rng(n)
    s = Sample(y1=rng.normal(size=n), y2=np.round(rng.normal(size=n), 1),
               x=np.round(rng.random(n), 1) * 2.0)
    k1, k2 = KernelSpec(family, 0.25), KernelSpec(family, 0.15)
    assert_same_outcome(lambda: pseudo_observations(s, k1, k2),
                        lambda: dense_pseudo_observations(s, k1, k2), recomputed)
    pseudo = pseudo_observations(s, k1, k2)
    assert_same_outcome(
        lambda: weighted_copula_surfaces(s.x, s, k2, make_grid(7), pseudo),
        lambda: dense_weighted_copula_surfaces(s.x, s, k2, make_grid(7), pseudo),
    )


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [257, 600])
def test_pseudo_at_row_block_edges_bit_identical(family, n, recomputed):
    # distinct covariates: the last row of each x-ordered block has its own
    # window edge, which the block's union must reach
    rng = np.random.default_rng(n + 1)
    s = Sample(y1=rng.normal(size=n), y2=rng.normal(size=n), x=rng.random(n))
    k1, k2 = KernelSpec(family, 0.02), KernelSpec(family, 0.05)
    assert_same_outcome(lambda: pseudo_observations(s, k1, k2),
                        lambda: dense_pseudo_observations(s, k1, k2), recomputed)


@pytest.mark.parametrize("seed", range(10))
def test_pseudo_ranks_match_dense_rows_on_frank(seed, recomputed):
    # window maxima have a true value of exactly 1, which the dense row sum
    # rounds to 1 or to 1 - ulp; the window sums alone misorder them
    model = ConditionalModel(family="frank", link=TauLink(form="linear", a=0.2, b=0.3))
    s, _ = sample_conditional(model, 200, seed)
    k = KernelSpec(bandwidth=rule_of_thumb_bandwidth(s.x))
    want = dense_pseudo_observations(s, k, k)
    recomputed.clear()
    assert_dense_ranks(pseudo_observations(s, k, k), want, recomputed)
    assert sum(rows.size for _, rows, _ in recomputed) > 0


def test_tied_pairs_sum_one_dense_row_each(recomputed):
    # x on steps of 0.01 and integer margins: window sums tie exactly, so
    # most values are near-ties, but rows with the same (x, y_j) share one
    # dense row
    model = ConditionalModel(family="clayton", link=TauLink(form="sine", a=0.4, b=0.25))
    raw, _ = sample_conditional(model, 600, seed=1)
    s = Sample(y1=np.round(raw.y1), y2=np.round(raw.y2), x=np.round(raw.x, 2))
    k = KernelSpec(bandwidth=rule_of_thumb_bandwidth(s.x))
    want = dense_pseudo_observations(s, k, k)
    recomputed.clear()
    assert_dense_ranks(pseudo_observations(s, k, k), want, recomputed)
    for j in (1, 2):
        rows = np.concatenate([r for margin, r, _ in recomputed if margin == j])
        distinct = np.unique(np.column_stack([s.x[rows], s.margin(j)[rows]]), axis=0)
        assert rows.size == distinct.shape[0] > 100


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=80),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(FAMILIES),
    st.floats(min_value=0.02, max_value=0.6),
    st.sampled_from([0, 1, 2]),
)
def test_pseudo_ranks_match_dense_rows_with_duplicated_rows(n, seed, family, h, digits):
    # whole rows repeated, and margins and covariate rounded, so values tie
    # exactly in both forms and near-ties cross block boundaries
    rng = np.random.default_rng(seed)
    base = np.column_stack([np.round(rng.normal(size=n), digits),
                            np.round(rng.normal(size=n), digits),
                            np.round(rng.random(n), 1 + digits)])
    rows = np.concatenate([base, base[rng.integers(0, n, size=n // 2)]])
    rows = rows[rng.permutation(rows.shape[0])]
    s = Sample(y1=rows[:, 0], y2=rows[:, 1], x=rows[:, 2])
    k1, k2 = KernelSpec(family, h), KernelSpec(family, 0.7 * h)
    want = dense_pseudo_observations(s, k1, k2)
    with dense_row_calls() as calls:
        got = pseudo_observations(s, k1, k2)
    assert_dense_ranks(got, want, calls)


@pytest.mark.parametrize("family", FAMILIES)
def test_surfaces_at_window_edges_bit_identical(family):
    # covariates and bandwidth are dyadic, so x_i +- h is exact and the
    # kernel is evaluated at |z| = 1, where the uniform kernel is nonzero
    rng = np.random.default_rng(5)
    n = 300
    s = Sample(y1=rng.normal(size=n), y2=rng.normal(size=n),
               x=rng.integers(0, 64, size=n) / 64.0)
    k = KernelSpec(family, 0.25)
    pseudo = pseudo_observations(s, k, k)
    xs_eval = in_support(np.concatenate([s.x[:40] - 0.25, s.x[:40] + 0.25]), s, k)
    assert xs_eval.size > 70
    assert np.array_equal(
        weighted_copula_surfaces(xs_eval, s, k, make_grid(9), pseudo),
        dense_weighted_copula_surfaces(xs_eval, s, k, make_grid(9), pseudo),
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_window_pad_covers_rounding_of_kernel_argument(family):
    # X_i just below fl(x_i - h) across zero: x_i - X_i rounds down to h, so
    # the kernel is evaluated at |z| = 1 for a point outside [x - h, x + h]
    rng = np.random.default_rng(13)
    h = 0.3
    near = rng.random(150) * h
    below = np.nextafter(near - h, -np.inf)
    assert np.sum(np.abs((near - below) / h) <= 1.0) > 30
    x = np.concatenate([near, below])
    s = Sample(y1=rng.normal(size=x.size), y2=rng.normal(size=x.size), x=x)
    k = KernelSpec(family, h)
    pseudo = pseudo_observations(s, k, k)
    assert np.array_equal(
        weighted_copula_surfaces(near, s, k, make_grid(7), pseudo),
        dense_weighted_copula_surfaces(near, s, k, make_grid(7), pseudo),
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_surfaces_on_shifted_covariate_bit_identical(family):
    # at 1e6 one ulp of x is 1.2e-10, far above 1e-9 of the bandwidth, so
    # the window pad must cover the rounding of x - X_i
    s = tied_sample(400, seed=8, shift=1e6, span=0.01)
    h = 1e-3
    k = KernelSpec(family, h)
    pseudo = pseudo_observations(s, KernelSpec(family, 0.05), KernelSpec(family, 0.05))
    xs = s.x[:60]
    xs_eval = in_support(np.concatenate([
        xs - h, xs + h, np.nextafter(xs - h, -np.inf), np.nextafter(xs + h, np.inf),
        xs - h * (1 + 1e-7), xs + h * (1 + 1e-7),
    ]), s, k)
    assert xs_eval.size > 300
    grid = make_grid(5)
    assert np.array_equal(
        weighted_copula_surfaces(xs_eval, s, k, grid, pseudo),
        dense_weighted_copula_surfaces(xs_eval, s, k, grid, pseudo),
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_surfaces_outside_data_raise_dense_message(family):
    s = tied_sample(300, seed=3)
    k = KernelSpec(family, 0.05)
    pseudo = pseudo_observations(s, k, k)
    # far enough that even the Gaussian kernel underflows to zero
    x_out = 50.0 if family == "gaussian" else 1.2
    assert_same_outcome(
        lambda: weighted_copula_surfaces([0.5, x_out], s, k, make_grid(5), pseudo),
        lambda: dense_weighted_copula_surfaces([0.5, x_out], s, k, make_grid(5), pseudo),
    )
    with pytest.raises(DegenerateWeightsError, match=r"all kernel values are zero\) at x="):
        weighted_copula_surfaces([x_out], s, k, make_grid(5), pseudo)


@pytest.mark.parametrize("family", FAMILIES)
def test_surfaces_at_sample_points_bit_identical(family):
    # blocks of 32 points: one point past eight blocks, then part last
    # blocks, with tied covariates; then a bandwidth that isolates groups of
    # equal covariates, so most windows hold only the point's own ties
    grid = make_grid(5)
    for n in (257, 300, 600):
        s = tied_sample(n, seed=9)
        isolated = Sample(y1=s.y1[::7], y2=s.y2[::7], x=s.x[::7] * 10)
        for sample, k in ((s, KernelSpec(family, 0.1)), (isolated, KernelSpec(family, 1e-4))):
            pseudo = pseudo_observations(sample, k, k)
            assert np.array_equal(
                weighted_copula_surfaces(sample.x, sample, k, grid, pseudo),
                dense_weighted_copula_surfaces(sample.x, sample, k, grid, pseudo),
            )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=100, max_value=240),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(FAMILIES),
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.05, max_value=0.8),
)
def test_surfaces_of_equal_covariates_bit_identical_across_blocks(n, seed, family, levels, h):
    # a few distinct covariates, so runs of equal x straddle the blocks of
    # 32, and every evaluation point repeats in other blocks: each surface is
    # the dense one, and equal covariates give equal surfaces wherever their
    # blocks fall
    rng = np.random.default_rng(seed)
    s = Sample(y1=np.round(rng.normal(size=n), 1), y2=rng.normal(size=n),
               x=rng.integers(0, levels, size=n) / levels)
    pseudo = PseudoSample(eps1=np.round(rng.random(n), 1), eps2=rng.random(n))
    k = KernelSpec(family, h)
    xs_eval = np.concatenate([s.x, rng.permutation(s.x)[: n // 2]])
    grid = make_grid(5)
    got = weighted_copula_surfaces(xs_eval, s, k, grid, pseudo)
    assert np.array_equal(got, dense_weighted_copula_surfaces(xs_eval, s, k, grid, pseudo))
    for value in np.unique(xs_eval):
        same = got[xs_eval == value]
        assert np.array_equal(same, np.broadcast_to(same[0], same.shape))


def test_lattice_cdf_matches_add_at():
    # one row of unit masses, as the partial copula and the harness ECDF
    # pass, and one of weights, as a block of surfaces passes; also the one
    # row alone, and the fine lattice of the benchmark
    rng = np.random.default_rng(10)
    for rows, L in ((2, 9), (1, 9), (2, 51), (1, 51)):
        a, b = rng.integers(0, L + 1, size=(2, rows, 500))
        mass = np.stack([np.ones(500), rng.random(500)])[:rows]
        lattices = _lattice_cdf(a, b, L, mass)
        assert lattices.shape == (rows, L, L)
        for row in range(rows):
            assert np.array_equal(lattices[row], add_at_lattice_cdf(a[row], b[row], L, mass[row]))


@pytest.mark.parametrize("m", [1, 2, 800, 4000])
@pytest.mark.parametrize("B", [1, 2, 32])
def test_row_totals_are_sequential_sums(B, m):
    # the bits of a left-to-right sum along each row, exact zeros included,
    # over magnitudes where a pairwise grouping would round differently
    rng = np.random.default_rng(B * 10007 + m)
    kv = rng.random((B, m)) * 10.0 ** rng.integers(-12, 3, size=(B, m))
    kv[rng.random((B, m)) < 0.4] = 0.0
    totals = _row_totals(kv)
    assert totals.shape == (B,)
    assert np.array_equal(totals, np.cumsum(kv, axis=-1)[..., -1])
    assert np.array_equal(_row_totals(np.zeros((B, 0))), np.zeros(B))


def searched_indices(below, thresholds):
    """The per-member route of ``_copula_lattices``: each member's mass searched in the levels."""
    return np.searchsorted(thresholds, below, side="right")


@st.composite
def cut_cases(draw):
    """Cumulative masses of B rows and L increasing levels, some equal to a cumulative mass.

    Masses are multiples of 1/4, many of them zero, so rows hold runs of
    equal cumulative masses and exact sums; the levels are multiples of 1/4
    too, from below the first mass to past the total.
    """
    L = draw(st.sampled_from([1, 2, 21, 51]))
    m = draw(st.one_of(st.integers(1, 40),
                       st.integers(conditional._CUT_FROM - 2, conditional._CUT_FROM + 40)))
    B = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mass = rng.integers(0, 4, size=(B, m)) * rng.integers(0, 2, size=(B, m)) / 4
    below = np.zeros((B, m))
    np.cumsum(mass[:, :-1], axis=1, out=below[:, 1:])
    levels = draw(st.lists(st.integers(-1, max(3 * m + 1, L)), min_size=L, max_size=L, unique=True))
    return below, np.sort(levels) / 4


@settings(max_examples=80, deadline=None)
@given(cut_cases())
def test_level_cuts_give_the_searched_indices(case):
    below, thresholds = case
    want = searched_indices(below, thresholds)
    assert np.array_equal(conditional._level_cuts(below, thresholds), want)


def test_level_cuts_at_levels_equal_to_prefix_masses():
    # a level equal to a cumulative mass is reached by that member, not the
    # one before it; zero masses make runs of equal prefixes
    below = np.array([[0.0, 0.0, 0.25, 0.25, 0.25, 0.5, 1.0],
                      [0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]])
    thresholds = np.array([-1e-12, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25])
    want = searched_indices(below, thresholds)
    assert want.tolist() == [[2, 2, 3, 3, 3, 4, 6], [2, 4, 4, 4, 4, 4, 4]]
    assert np.array_equal(conditional._level_cuts(below, thresholds), want)


# (window width m, lattice size G) around the crossover, at the benchmark's
# windows (mc-ladder about 50-93, fit-large-n about 366, fit-fine-grid 800)
# and at n = 2 x 10^4 Epanechnikov (about 1650), with the route each takes
LATTICE_ROUTES = {
    (1, 21): False, (50, 21): False, (93, 21): False, (366, 21): False,
    (conditional._CUT_FROM - 1, 51): False, (conditional._CUT_FROM, 1): True,
    (conditional._CUT_FROM, 51): True, (800, 51): True, (1650, 21): True,
}


@pytest.mark.parametrize("m, G", sorted(LATTICE_ROUTES))
def test_the_lattice_route_depends_only_on_the_window_width(m, G, monkeypatch):
    calls = []
    real = conditional._level_cuts

    def spy(below, thresholds):
        calls.append(below.shape)
        return real(below, thresholds)

    monkeypatch.setattr(conditional, "_level_cuts", spy)
    rng = np.random.default_rng(m)
    thresholds = make_grid(G).nodes - 1e-12
    positions = (rng.permutation(m), rng.permutation(m))
    for rows in (1, 32):
        mass = rng.random((rows, m))
        mass /= mass.sum(axis=1, keepdims=True)
        calls.clear()
        got = _copula_lattices(positions, mass, thresholds)
        assert calls == ([(rows, m)] * 2 if LATTICE_ROUTES[m, G] else [])
        monkeypatch.setattr(conditional, "_CUT_FROM", m + 1)  # the per-member route
        assert np.array_equal(got, _copula_lattices(positions, mass, thresholds))
        monkeypatch.undo()
        monkeypatch.setattr(conditional, "_level_cuts", spy)


@pytest.mark.parametrize("family", ["epanechnikov", "gaussian"])
def test_conditional_stages_hold_no_n_by_n_array(family):
    # one dense 4000 x 4000 float array alone is 122 MiB
    rng = np.random.default_rng(11)
    n = 4000
    s = Sample(y1=rng.normal(size=n), y2=rng.normal(size=n), x=rng.random(n))
    k = KernelSpec(family, rule_of_thumb_bandwidth(s.x))
    pseudo, peak = traced_peak_mib(lambda: pseudo_observations(s, k, k))
    # the window-local rows hold no length-n row; the Gaussian window is the
    # whole sample, so its blocks are 32 x n
    assert peak < (8.0 if family == "epanechnikov" else 64.0)
    if family == "epanechnikov":
        surfaces, peak = traced_peak_mib(
            lambda: weighted_copula_surfaces(s.x, s, k, make_grid(21), pseudo))
        assert peak < surfaces.nbytes / 2**20 + 4.0
        # eight blocks of 32 points in the middle of x order at n=8000: the
        # window rows hold about 770 columns; a zero-filled 32 x n row alone
        # would add 2 MiB (measured beyond the output: 2.35 MiB, and 4.10 MiB
        # with such rows)
        n = 8000
        s = Sample(y1=rng.normal(size=n), y2=rng.normal(size=n), x=rng.random(n))
        k = KernelSpec(family, rule_of_thumb_bandwidth(s.x))
        pseudo = PseudoSample(eps1=rng.random(n), eps2=rng.random(n))
        xs_eval = np.sort(s.x)[n // 2 - 128 : n // 2 + 128]
        surfaces, peak = traced_peak_mib(
            lambda: weighted_copula_surfaces(xs_eval, s, k, make_grid(21), pseudo))
        assert peak < surfaces.nbytes / 2**20 + 3.2


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


def test_records_freeze_their_own_copies():
    y1, y2, x = np.zeros(3), np.ones(3), np.linspace(0.0, 1.0, 3)
    e1, e2 = np.full(3, 0.25), np.full(3, 0.5)
    s, p = Sample(y1, y2, x), PseudoSample(e1, e2)
    for arr in (y1, y2, x, e1, e2):
        arr[0] = 0.75  # the caller's arrays stay writeable
    assert (s.y1[0], s.y2[0], s.x[0], p.eps1[0], p.eps2[0]) == (0.0, 1.0, 0.0, 0.25, 0.5)
    for arr in (s.y1, s.y2, s.x, p.eps1, p.eps2):
        assert not arr.flags.writeable


def test_sample_csv_round_trip(tmp_path):
    s = toy_sample()
    path = tmp_path / "s.csv"
    write_sample_csv(s, path)
    back = read_sample_csv(path)
    assert np.array_equal(back.y1, s.y1)
    assert np.array_equal(back.y2, s.y2)
    assert np.array_equal(back.x, s.x)


def test_sample_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y1,y2,x\n1,2,3\n1,oops,3\n")
    with pytest.raises(ValueError, match="line 3"):
        read_sample_csv(path)
    path.write_text("y1,y2,x\n1,2\n")
    with pytest.raises(ValueError, match="line 2"):
        read_sample_csv(path)
