import math
from dataclasses import fields

import numpy as np
import pytest
from scipy import optimize, special, stats

from condcopula import simulate
from condcopula.grid import inner_product, make_grid
from condcopula.harness import ks_uniform_statistic
from condcopula.simulate import (
    ConditionalModel,
    CopulaModel,
    SyntheticKLModel,
    TauLink,
    conditional_v_given_u,
    copula_cdf,
    cosine_tensor,
    frank_tau,
    sample_conditional,
    synthetic_kl_sample,
    tau_to_theta,
    true_conditional_copula,
)
from oracles import (
    decimal_clayton_cdf,
    decimal_clayton_v_given_u,
    decimal_fgm_v_given_u,
    decimal_frank_tau,
    gumbel_du,
    loop_sample_conditional,
    obs_rng,
    polynomial_frank_series,
    quad_frank_tau,
    scalar_v_given_u,
    textbook_frank_v_given_u,
    true_gamma_field,
)

# both at tau 0.9: the maps must hold at high dependence too
HIGH_DEPENDENCE = [CopulaModel("frank", 38.28), CopulaModel("gumbel", 10.0)]

FIXED_MODELS = [
    CopulaModel("independence"),
    CopulaModel("clayton", 2.0),
    CopulaModel("frank", 5.0),
    CopulaModel("fgm", 0.8),
    CopulaModel("gumbel", 2.0),
    *HIGH_DEPENDENCE,
]


def model_id(m: CopulaModel) -> str:
    return f"{m.family}-{m.theta:g}" if m in HIGH_DEPENDENCE else m.family


def numerical_tau(m: CopulaModel, nodes: int = 80) -> float:
    """Independent Kendall-tau oracle: 1 - 4 int dC/du dC/dv du dv.

    Both partial derivatives come from central finite differences of the
    closed-form CDF on a Gauss-Legendre grid, so the oracle shares no code
    with the tau-to-parameter maps under test.
    """
    z, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (z + 1.0)
    w = 0.5 * w
    h = 1e-6
    U, V = np.meshgrid(u, u, indexing="ij")
    du = (copula_cdf(m, U + h, V) - copula_cdf(m, U - h, V)) / (2 * h)
    dv = (copula_cdf(m, U, V + h) - copula_cdf(m, U, V - h)) / (2 * h)
    integral = float(w @ (du * dv) @ w)
    return 1.0 - 4.0 * integral


# ------------------------------------------------------------- copula CDFs


@pytest.mark.parametrize("m", FIXED_MODELS, ids=model_id)
def test_margins_are_uniform(m):
    us = np.linspace(0.0, 1.0, 11)
    assert np.allclose(copula_cdf(m, us, np.ones_like(us)), us, atol=1e-12)
    assert np.allclose(copula_cdf(m, np.ones_like(us), us), us, atol=1e-12)


def test_clayton_closed_form_value():
    assert copula_cdf(CopulaModel("clayton", 2.0), 0.5, 0.5) == pytest.approx(
        7.0 ** -0.5, abs=1e-12
    )


def test_fgm_closed_form_value():
    assert copula_cdf(CopulaModel("fgm", 1.0), 0.5, 0.5) == pytest.approx(
        0.3125, abs=1e-15
    )


@pytest.mark.parametrize("m", FIXED_MODELS, ids=model_id)
def test_frechet_envelope(m):
    us = np.linspace(0.0, 1.0, 21)
    U, V = np.meshgrid(us, us, indexing="ij")
    c = copula_cdf(m, U, V)
    assert np.all(c >= np.maximum(U + V - 1.0, 0.0) - 1e-12)
    assert np.all(c <= np.minimum(U, V) + 1e-12)


@pytest.mark.parametrize(
    "family,tau",
    [
        ("frank", 0.9),
        ("frank", 0.95),
        ("frank", 0.99),
        ("gumbel", 0.999),
        ("clayton", 0.99),
        ("clayton", 0.998),
    ],
)
def test_high_dependence_cdf_is_a_copula(family, tau):
    # the textbook Frank form cancels to 1, and the Gumbel and Clayton
    # powers overflow here
    m = CopulaModel(family, tau_to_theta(family, tau))
    us = np.linspace(0.0, 1.0, 41)
    U, V = np.meshgrid(us, us, indexing="ij")
    with np.errstate(over="raise", invalid="raise"):
        c = copula_cdf(m, U, V)
    assert np.all(c >= np.maximum(U + V - 1.0, 0.0) - 1e-15)
    assert np.all(c <= np.minimum(U, V) + 1e-15)
    margins = ((c[:, -1], us), (c[-1, :], us), (c[:, 0], 0.0), (c[0, :], 0.0))
    for margin, expected in margins:
        assert np.max(np.abs(margin - expected)) <= 1e-15
    mass = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
    assert mass.min() >= -1e-15
    if family == "gumbel":
        # on the diagonal C(a, a) = a^(2^(1/theta)), about 0.0239 at a = 0.024
        expected = 0.024 ** (2.0 ** (1.0 / m.theta))
        assert copula_cdf(m, 0.024, 0.024) == pytest.approx(expected, rel=1e-14)


def test_arguments_outside_unit_interval_rejected():
    with pytest.raises(ValueError):
        copula_cdf(CopulaModel("independence"), 1.2, 0.5)


def test_family_parameter_ranges():
    with pytest.raises(ValueError):
        CopulaModel("clayton", -1.0)
    with pytest.raises(ValueError):
        CopulaModel("frank", 0.0)
    with pytest.raises(ValueError):
        CopulaModel("fgm", 1.5)
    with pytest.raises(ValueError):
        CopulaModel("gumbel", 0.5)
    with pytest.raises(ValueError, match="family"):
        CopulaModel("gaussian", 0.5)


# --------------------------------------------------------- tau <-> parameter


def test_clayton_tau_half_is_theta_two():
    theta = tau_to_theta("clayton", 0.5)
    assert theta == pytest.approx(2.0, abs=1e-12)
    assert numerical_tau(CopulaModel("clayton", theta)) == pytest.approx(
        0.5, abs=1e-4
    )


def test_fgm_tau_mapping():
    theta = tau_to_theta("fgm", 2.0 / 9.0)
    assert theta == pytest.approx(1.0, abs=1e-12)
    assert numerical_tau(CopulaModel("fgm", theta)) == pytest.approx(
        2.0 / 9.0, abs=1e-4
    )


def test_gumbel_tau_mapping():
    theta = tau_to_theta("gumbel", 0.5)
    assert theta == pytest.approx(2.0, abs=1e-12)
    assert numerical_tau(CopulaModel("gumbel", theta)) == pytest.approx(
        0.5, abs=1e-3
    )


def test_clayton_continuity_at_independence():
    assert tau_to_theta("clayton", 1e-6) == pytest.approx(2e-6, rel=1e-4)


def test_frank_round_trip_and_symmetry():
    theta = tau_to_theta("frank", 0.5)
    assert frank_tau(theta) == pytest.approx(0.5, abs=1e-9)
    assert tau_to_theta("frank", -0.5) == pytest.approx(-theta, abs=1e-9)
    assert numerical_tau(CopulaModel("frank", theta)) == pytest.approx(
        0.5, abs=1e-4
    )


def test_frank_tau_matches_quadrature_and_is_odd():
    thetas = np.logspace(np.log10(0.05), np.log10(745.0), 200)
    for theta in thetas:
        assert abs(frank_tau(theta) - quad_frank_tau(theta)) <= 2e-14
        assert frank_tau(-theta) == -frank_tau(theta)


def test_frank_tau_matches_its_decimal_series_across_the_series_cuts():
    # dense about the old cut 0.2, about 1 and about the cut at 1.5, where
    # the closed form cancels most
    thetas = np.concatenate([np.linspace(c - 0.1, c + 0.1, 201) for c in (0.2, 1.0, 1.5)])
    tau = frank_tau(thetas)
    for theta, got in zip(thetas, tau):
        want = decimal_frank_tau(theta)
        assert abs(got - want) <= 2e-14 * want, theta


def test_frank_series_has_the_bits_of_the_numpy_polynomial_sum():
    # np.polyval runs the same Horner steps from the leading coefficient
    t = np.concatenate([np.linspace(0.0, 1.5, 300001), [5e-324, 1e-300, 745.0]])
    tau, slope = simulate._frank_tau_and_slope(t)
    want_tau, want_slope = polynomial_frank_series(t)
    small = t < 1.5
    assert np.array_equal(tau[small], want_tau[small])
    assert np.array_equal(slope[small], want_slope[small])


def test_frank_tau_round_trip_down_to_tiny_tau():
    # theta ~ 9 tau near independence; a fixed theta floor would break it
    for tau in (1e-12, -1e-12, 1e-9, -1e-9, 1e-3, 0.5, 0.99):
        theta = tau_to_theta("frank", tau)
        assert frank_tau(theta) == pytest.approx(tau, rel=1e-12)
    assert tau_to_theta("frank", 1e-9) == pytest.approx(9e-9, rel=1e-6)


def test_frank_theta_matches_a_brentq_reference():
    edge = simulate._FRANK_TAU_MAX * (1.0 - 1e-12)
    taus = np.array([1e-300, 1e-12, 1e-3, 0.5, 0.99, edge])
    taus = np.concatenate([taus, -taus])
    thetas = tau_to_theta("frank", taus)
    for tau, theta in zip(taus, thetas):
        # bisecting [0, 745] down to tau = 1e-300 takes about 150 steps
        ref = optimize.brentq(
            lambda t: frank_tau(t) - abs(tau), 0.0, 745.0,
            xtol=5e-324, rtol=1e-14, maxiter=2000,
        )
        assert abs(theta - math.copysign(ref, tau)) <= 1e-12 * ref
    # a tiny tau sits on the series theta = 9 tau
    assert tau_to_theta("frank", 1e-300) == pytest.approx(9e-300, rel=1e-15)


def test_tau_ranges_enforced():
    for family, bad in [
        ("clayton", -0.1),
        ("clayton", 1.0),
        ("fgm", 0.3),
        ("gumbel", 1.0),
        ("frank", 0.0),
        ("independence", 0.2),
    ]:
        with pytest.raises(ValueError):
            tau_to_theta(family, bad)


# ------------------------------------------------------------------ sampler


def test_empty_sample():
    model = ConditionalModel(
        family="independence", link=TauLink(form="constant", a=0.0)
    )
    s, truth = sample_conditional(model, 0, seed=0)
    assert s.n == 0
    assert truth.eps1.size == 0


def test_same_seed_identical_bytes():
    model = ConditionalModel(family="clayton", link=TauLink(form="sine", a=0.4, b=0.25))
    s1, t1 = sample_conditional(model, 50, seed=42)
    s2, t2 = sample_conditional(model, 50, seed=42)
    assert s1.y1.tobytes() == s2.y1.tobytes()
    assert s1.y2.tobytes() == s2.y2.tobytes()
    assert s1.x.tobytes() == s2.x.tobytes()
    assert t1.eps1.tobytes() == t2.eps1.tobytes()
    s3, _ = sample_conditional(model, 50, seed=43)
    assert s3.x.tobytes() != s1.x.tobytes()


def test_prefix_stability_of_substreams():
    # per-observation substreams: a longer run starts with the shorter one,
    # under either covariate law and for KL models of one and two blocks
    for covariate in ("uniform", "normal"):
        model = ConditionalModel(
            family="fgm", link=TauLink(form="constant", a=0.2), covariate=covariate
        )
        s_small, _ = sample_conditional(model, 20, seed=5)
        s_big, _ = sample_conditional(model, 40, seed=5)
        assert np.array_equal(s_big.x[:20], s_small.x)
        assert np.array_equal(s_big.y1[:20], s_small.y1)
    for m in (kl_model(), kl_model(**FIVE_COMPONENTS)):
        small, big = synthetic_kl_sample(m, 20, seed=5), synthetic_kl_sample(m, 40, seed=5)
        for a, b in zip(small, big):
            assert np.array_equal(b[:20], a)


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 2**62 + 7])
def test_bulk_words_match_substreams(seed, start):
    index = np.arange(start, start + 300, dtype=np.uint64)
    for blocks in (1, 2):
        words = simulate._substream_words(seed, index, blocks)
        expected = np.stack(
            [obs_rng(seed, int(i)).bit_generator.random_raw(4 * blocks) for i in index],
            axis=1,
        )
        assert words.dtype == np.uint64
        assert np.array_equal(words, expected)


def test_normals_from_the_extreme_words_are_finite_and_opposite():
    x = simulate._standard_normal(np.array([0, 2**64 - 1], dtype=np.uint64))
    assert np.all(np.isfinite(x))
    assert x[0] < 0 and x[0] == -x[1]


def assert_same_bits(got, want):
    """Equal as int64 words, so -0.0 and +0.0 differ and NaNs must match."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def neighbours(values, ulps: int = 3) -> np.ndarray:
    """Each value and the floats up to ``ulps`` steps either side of it."""
    out = []
    for v in np.atleast_1d(np.asarray(values, dtype=float)):
        lo = hi = v
        out.append(v)
        for _ in range(ulps):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
    return np.array(out)


def ndtri_inputs() -> dict:
    """Inputs to the ndtri port, one entry per branch or sampler form."""
    rng = np.random.default_rng(20120917)
    words = rng.integers(0, 2**64, 100000, dtype=np.uint64, endpoint=False)
    corners = [2.0**-53, 1.0 - 2.0**-53, 1e-12, 1.0 - 1e-12, 0.5]
    tail = np.exp(-rng.uniform(2.0, 32.0, 50000))
    far = np.exp(-rng.uniform(32.0, 744.0, 50000))
    cuts = neighbours(
        [*corners, math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0),
         0.13533528323661269189, 1.0 - 0.13533528323661269189],
    )
    return {
        "centre": rng.uniform(math.exp(-2.0), 1.0 - math.exp(-2.0), 50000),
        "tail below 8": np.concatenate([tail, 1.0 - tail]),
        "tail beyond 8": np.concatenate([far, [5e-324, 1e-300, 2.0**-1074 * 3]]),
        "53-bit uniform, clipped": np.clip(
            (words >> np.uint64(11)).astype(float) * 2.0**-53, 1e-12, 1.0 - 1e-12
        ),
        "open 52-bit uniform": ((words >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52,
        "cuts and corners": cuts[(0.0 < cuts) & (cuts < 1.0)],
    }


@pytest.mark.parametrize("branch", sorted(ndtri_inputs()))
def test_ndtri_port_has_scipys_bits(branch):
    y = ndtri_inputs()[branch]
    assert_same_bits(simulate._ndtri(y), special.ndtri(y))
    # and in the shape of the K score rows of the synthetic sampler
    rows = np.resize(y, (4, 250))
    assert_same_bits(simulate._ndtri(rows), special.ndtri(rows))


def test_spence_port_has_scipys_bits_on_franks_arguments():
    # Frank's tau reads spence at 1 - e^-t for t = 1 (below the series cut)
    # and t in [1.5, 745]; from t of about 37.4 on the argument is 1.0
    rng = np.random.default_rng(1)
    t = np.concatenate([
        [1.0, 1.5, 37.0, 38.0, 745.0],
        np.linspace(1.5, 745.0, 20001),
        np.exp(rng.uniform(math.log(1.5), math.log(745.0), 50000)),
        neighbours([1.5, 36.7, 37.4]),
    ])
    x = -np.expm1(-t)
    assert np.any(x == 1.0) and np.any(x < 1.0)
    assert_same_bits(simulate._spence(x), special.spence(x))
    assert_same_bits(simulate._spence(np.array(x[0])), special.spence(x[0]))


WRIGHTOMEGA_REGIONS = {
    "below -50": (-745.0, -50.0),
    "[-50, -2)": (-50.0, -2.0),
    "[-2, 1)": (-2.0, 1.0),
    "[1, 1e20]": (1.0, 1e20),
    "above 1e20": (1e20, 1e300),
}


@pytest.mark.parametrize("region", sorted(WRIGHTOMEGA_REGIONS))
def test_wrightomega_port_has_scipys_bits(region, monkeypatch):
    lo, hi = WRIGHTOMEGA_REGIONS[region]
    rng = np.random.default_rng(917)
    if lo > 0 and hi / lo > 1e6:
        x = np.exp(rng.uniform(math.log(lo), math.log(hi), 40000))
    else:
        x = rng.uniform(lo, hi, 40000)
    x = np.concatenate([x, neighbours([lo, hi])])
    x = x[(lo <= x) & (x <= hi)]
    steps = []
    fsc_step = simulate._fsc_step

    def counted(xs, w):
        steps.append(xs.size)
        return fsc_step(xs, w)

    monkeypatch.setattr(simulate, "_fsc_step", counted)
    assert_same_bits(simulate._wrightomega(x), special.wrightomega(x))
    if region in ("below -50", "above 1e20"):
        # both ends skip the iteration for all but their edge values
        assert steps[0] <= 7
    else:
        # the second step is taken for some values and not for others
        assert 0 < steps[1] < steps[0]


def test_wrightomega_port_on_the_gumbel_inverse_arguments():
    # the Gumbel inverse reads omega at c/(t - 1) - log(t - 1), which grows
    # as t falls to 1
    rng = np.random.default_rng(5)
    t = 1.0 + np.concatenate(
        [np.exp(-rng.uniform(0.0, 36.0, 20000)), rng.uniform(0.0, 49.0, 20000)]
    )
    t = t[t > 1.0]
    lu = -np.log(rng.uniform(1e-12, 1.0 - 1e-12, t.size))
    p = rng.uniform(1e-12, 1.0 - 1e-12, t.size)
    c = lu + (t - 1.0) * np.log(lu) - np.log(p)
    x = c / (t - 1.0) - np.log(t - 1.0)
    assert x.min() < -2.0 and x.max() > 1e15
    assert_same_bits(simulate._wrightomega(x), special.wrightomega(x))


def test_normal_covariate_is_standard_normal():
    model = ConditionalModel(
        family="independence", link=TauLink(form="constant", a=0.0), covariate="normal"
    )
    n = 20000
    sample, _ = sample_conditional(model, n, seed=8)
    # the 1% critical value of the one-sample KS distance
    assert ks_uniform_statistic(special.ndtr(sample.x)) <= 1.63 / math.sqrt(n)


def test_samplers_name_a_seed_outside_64_bits():
    for seed in (-1, 2**64):
        for covariate in ("uniform", "normal"):
            model = ConditionalModel(
                family="clayton", link=TauLink.parse("sine:0.4,0.25"), covariate=covariate
            )
            with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
                sample_conditional(model, 3, seed)
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            synthetic_kl_sample(kl_model(), 3, seed)


def test_uniform_covariate_sample_matches_one_generator_per_observation():
    # theta runs from 98 to about 2000, so u^(-theta) overflows for some
    # observations and not for others; the log-space inverse takes both
    model = ConditionalModel(family="clayton", link=TauLink("linear", 0.98, 0.019))
    sample, truth = sample_conditional(model, 400, seed=3)
    xs, expected = loop_sample_conditional(model, 400, seed=3)
    overflow = -truth.theta * np.log(truth.eps1) > math.log(np.finfo(float).max)
    assert 0 < overflow.sum() < overflow.size
    assert sample.x.tobytes() == xs.tobytes()
    for field in ("eps1", "eps2", "theta"):
        assert getattr(truth, field).tobytes() == getattr(expected, field).tobytes()


# (family, theta, u, p) rows whose neighbouring entries sit on either side
# of theta's sign or of a branch edge: Gumbel's theta = 1, and the overflow
# of the replaced Clayton power form and the replaced FGM small-b cut
BRANCH_CASES = {
    "gumbel": ([1.0, 1.0 + 1e-9, 1.0, 2.0, 1.0 + 1e-9, 50.0],
               [0.3, 0.3, 0.7, 0.7, 0.01, 0.5], [0.4, 0.4, 0.9, 0.9, 0.2, 1e-6]),
    "fgm": ([0.8, 0.8, 0.8, 0.8, -1.0, 0.0],
            [0.5, 0.5 + 1e-11, 0.5 + 1e-9, 0.1, 0.9, 0.3], [0.3, 0.3, 0.3, 0.7, 0.2, 0.6]),
    # u^(-200) overflows below u ~ 0.029
    "clayton": ([200.0, 200.0, 200.0, 200.0, 1998.0, 0.5],
                [0.02, 0.1, 1e-6, 0.9, 0.7, 0.02], [0.5, 0.5, 0.99, 1e-9, 0.5, 0.5]),
    "frank": ([-5.0, 5.0, -1e-3, 1e-3, -739.1, 739.1],
              [0.3, 0.3, 0.6, 0.6, 0.05, 0.95], [0.2, 0.2, 0.9, 0.9, 1e-12, 0.5]),
    "independence": ([0.0, 0.0], [0.2, 0.8], [0.1, 0.95]),
}


@pytest.mark.parametrize("family", sorted(BRANCH_CASES))
def test_inverse_branches_match_the_scalar_form_element_wise(family):
    theta, u, p = (np.array(a) for a in BRANCH_CASES[family])
    v = conditional_v_given_u(family, theta, u, p)
    expected = [scalar_v_given_u(family, *args) for args in zip(theta, u, p)]
    for got, want in zip(v, expected):
        if family in ("frank", "gumbel"):
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15)
        else:
            # Clayton, FGM and independence keep the bits of the scalar form
            assert got == want


CLAYTON_THETAS = (1e-3, 0.05, 0.5, 2.0, 10.0, 100.0, 1000.0)
# u and v down to 1e-10, and p within 1e-12 of 1
CLAYTON_LEVELS = (1e-10, 1e-6, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-9, 1.0 - 1e-12)


@pytest.mark.parametrize("theta", CLAYTON_THETAS)
def test_clayton_inverse_matches_a_decimal_reference(theta):
    u, p = (a.ravel() for a in np.meshgrid(CLAYTON_LEVELS, CLAYTON_LEVELS[2:]))
    v = conditional_v_given_u("clayton", theta, u, p)
    for args, got in zip(zip(u, p), v):
        want = decimal_clayton_v_given_u(theta, *args)
        assert abs(got - want) <= 1e-14 * want, args


@pytest.mark.parametrize("theta", CLAYTON_THETAS)
def test_clayton_cdf_matches_a_decimal_reference(theta):
    u, v = (a.ravel() for a in np.meshgrid(CLAYTON_LEVELS, CLAYTON_LEVELS))
    c = copula_cdf(CopulaModel("clayton", theta), u, v)
    for args, got in zip(zip(u, v), c):
        want = decimal_clayton_cdf(theta, *args)
        assert abs(got - want) <= 1e-14 * want, args


@pytest.mark.parametrize("theta", [-1.0, 1e-6, 1.0])
def test_fgm_inverse_matches_a_decimal_reference_near_u_half(theta):
    # b = theta (1 - 2u) runs through 0, where the textbook root cancels
    u, p = (a.ravel() for a in np.meshgrid(
        0.5 + np.linspace(-1e-9, 1e-9, 41), [1e-12, 0.01, 0.3, 0.5, 0.99, 1.0 - 1e-12]
    ))
    v = conditional_v_given_u("fgm", theta, u, p)
    for args, got in zip(zip(u, p), v):
        want = decimal_fgm_v_given_u(theta, *args)
        assert abs(got - want) <= 1e-15 * want, args


def test_inverse_rejects_levels_and_parameters_outside_the_family():
    with pytest.raises(ValueError, match="strictly inside"):
        conditional_v_given_u("clayton", 2.0, np.array([0.5, 1.0]), 0.5)
    with pytest.raises(ValueError, match="Clayton requires"):
        conditional_v_given_u("clayton", np.array([2.0, -1.0]), 0.5, 0.5)
    assert conditional_v_given_u("fgm", 0.5, 0.25, 0.5) == scalar_v_given_u(
        "fgm", 0.5, 0.25, 0.5
    )


@pytest.mark.parametrize("p", [1 - 1e-12, 1 - 2.0**-53])
def test_clayton_theta_floor_keeps_the_inverse_finite(p):
    # below the floor -theta/(1+theta) log p underflows, and the log-space
    # inverse took the log of 0; at it the inverse is p to rounding
    floor = simulate._CLAYTON_THETA_MIN
    assert conditional_v_given_u("clayton", floor, 0.3, p) == pytest.approx(p, rel=4e-16)
    for theta in (2e-320, 0.5 * floor):
        with pytest.raises(ValueError, match="Clayton requires theta >= 1e-290"):
            conditional_v_given_u("clayton", theta, 0.3, p)
    assert tau_to_theta("clayton", floor / 2.0) == floor
    with pytest.raises(ValueError, match=r"Clayton tau must lie in \[5e-291, 1\), got 1e-320"):
        ConditionalModel(family="clayton", link=TauLink(form="constant", a=1e-320))


def test_independence_sample_tau_near_zero():
    model = ConditionalModel(
        family="independence", link=TauLink(form="constant", a=0.0)
    )
    _, truth = sample_conditional(model, 5000, seed=7)
    tau = stats.kendalltau(truth.eps1, truth.eps2).statistic
    assert abs(tau) <= 0.03


@pytest.mark.parametrize("m", FIXED_MODELS, ids=model_id)
def test_sampler_matches_cdf_on_lattice(m):
    # DKW-style check of the conditional-inversion sampler against the
    # closed-form CDF on a 21 x 21 lattice
    n = 30000
    rng = np.random.default_rng(100)
    u = np.clip(rng.random(n), 1e-12, 1 - 1e-12)
    p = np.clip(rng.random(n), 1e-12, 1 - 1e-12)
    v = conditional_v_given_u(m.family, m.theta, u, p)
    lattice = np.linspace(0.05, 0.95, 21)
    worst = 0.0
    for a in lattice:
        inside = u <= a
        for b in lattice:
            emp = np.mean(inside & (v <= b))
            worst = max(worst, abs(emp - copula_cdf(m, a, b)))
    assert worst <= 0.015


def test_gumbel_inverse_round_trips_through_the_derivative():
    us = np.linspace(0.01, 0.99, 25)
    ps = [1e-9, 1e-4, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-4]
    for theta in (1.0001, 1.5, 2.0, 5.0, 10.0, 50.0):
        m = CopulaModel("gumbel", theta)
        for u in us:
            for p in ps:
                v = conditional_v_given_u(m.family, m.theta, float(u), p)
                assert abs(float(gumbel_du(theta, float(u), v)) - p) <= 1e-10


def test_frank_inverse_matches_textbook_form_and_holds_at_high_theta():
    us = np.linspace(0.01, 0.99, 25)
    ps = [1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-12]
    for theta in (-5.0, -1.0, -1e-3, 1e-3, 1.0, 5.0):
        m = CopulaModel("frank", theta)
        for u in us:
            for p in ps:
                expected = textbook_frank_v_given_u(theta, float(u), p)
                assert abs(conditional_v_given_u(m.family, m.theta, float(u), p) - expected) <= 1e-13
    # the textbook form raises a math domain error from theta ~ 38
    for theta in (38.28, 78.32, 398.3, 739.1):
        for sign in (1.0, -1.0):
            m = CopulaModel("frank", sign * theta)
            for u in us:
                v = conditional_v_given_u(m.family, m.theta, float(u), ps)
                assert 0.0 <= v[0] and v[-1] <= 1.0
                assert np.all(np.diff(v) >= 0.0)


@pytest.mark.parametrize("tau", [0.9, 0.95])
def test_frank_samples_at_high_tau(tau):
    model = ConditionalModel(family="frank", link=TauLink("constant", tau))
    _, truth = sample_conditional(model, 500, seed=0)
    assert np.all((truth.eps2 > 0.0) & (truth.eps2 < 1.0))
    assert stats.kendalltau(truth.eps1, truth.eps2).statistic == pytest.approx(
        tau, abs=0.03
    )


@pytest.mark.parametrize("tau", [0.99, 0.998])
def test_clayton_samples_at_high_tau(tau):
    # u^(-theta) overflows for u below about 0.02 at theta = 198
    model = ConditionalModel(family="clayton", link=TauLink("constant", tau))
    _, truth = sample_conditional(model, 500, seed=0)
    assert np.all((truth.eps2 > 0.0) & (truth.eps2 < 1.0))
    assert stats.kendalltau(truth.eps1, truth.eps2).statistic == pytest.approx(
        tau, abs=0.01
    )


def test_clayton_cdf_holds_where_the_power_overflows():
    m = CopulaModel("clayton", tau_to_theta("clayton", 0.998))
    # C(u, u) = u (2 - u^theta)^(-1/theta), and u^theta underflows at u = 0.3
    assert copula_cdf(m, 0.3, 0.3) == pytest.approx(0.3 * 2.0 ** (-1.0 / m.theta), rel=1e-14)
    assert copula_cdf(m, 0.3, 1.0) == pytest.approx(0.3, rel=1e-15)


def test_margins_push_through_quantiles():
    # the conditional margins are fixed: Y1 | X=x ~ N(x, 1), Y2 | X=x ~ N(-x, 1)
    assert [f.name for f in fields(ConditionalModel)] == ["family", "link", "covariate"]
    model = ConditionalModel(family="clayton", link=TauLink(form="constant", a=0.5))
    s, truth = sample_conditional(model, 200, seed=3)
    assert np.allclose(s.y1, s.x + stats.norm.ppf(truth.eps1), atol=1e-12)
    assert np.allclose(s.y2, -s.x + stats.norm.ppf(truth.eps2), atol=1e-12)


def test_link_out_of_range_rejected():
    with pytest.raises(ValueError):
        ConditionalModel(family="clayton", link=TauLink(form="sine", a=0.1, b=0.5))
    with pytest.raises(ValueError, match=r"Frank tau .* excluding 0, got 0.0"):
        ConditionalModel(family="frank", link=TauLink(form="sine", a=0.0, b=0.5))


def test_frank_tau_beyond_the_solver_bracket_rejected_at_construction():
    # frank_tau(745) ~ 0.994643 is the largest tau the theta solver reaches
    with pytest.raises(ValueError, match=r"Frank tau .* excluding 0, got 0.999"):
        ConditionalModel(family="frank", link=TauLink("constant", 0.999))
    with pytest.raises(ValueError, match=r"Frank tau .* excluding 0"):
        tau_to_theta("frank", -0.999)


def test_frank_tau_just_inside_the_bracket_solves():
    for tau in (0.9946, -0.9946):
        model = ConditionalModel(family="frank", link=TauLink("constant", tau))
        theta = model.copula_at(0.5).theta
        assert frank_tau(abs(theta)) == pytest.approx(abs(tau), abs=1e-9)
        assert np.sign(theta) == np.sign(tau)


def test_frank_model_checks_its_range_without_root_solves(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the Frank theta solver ran while the model was built")

    monkeypatch.setattr(simulate, "_frank_theta", no_solve)
    model = ConditionalModel(family="frank", link=TauLink(form="sine", a=0.4, b=0.25))
    assert model.link(0.25) == pytest.approx(0.65)


def test_link_parsing():
    lk = TauLink.parse("sine:0.4,0.25")
    assert (lk.form, lk.a, lk.b) == ("sine", 0.4, 0.25)
    assert TauLink.parse("constant:0.3")(0.9) == 0.3
    assert TauLink.parse("linear:0.1,0.2")(0.5) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        TauLink.parse("spline:1,2")
    with pytest.raises(ValueError):
        TauLink.parse("constant:1,2")


# ------------------------------------------------------ true copula surfaces


def test_true_surface_independence_is_uv():
    model = ConditionalModel(
        family="independence", link=TauLink(form="constant", a=0.0)
    )
    grid = make_grid(7)
    surf = true_conditional_copula(model, 0.3, grid)
    U, V = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    assert np.allclose(surf.values, U * V, atol=1e-15)


def test_true_surface_clayton_third():
    model = ConditionalModel(
        family="clayton", link=TauLink(form="constant", a=1.0 / 3.0)
    )
    grid = make_grid(21)  # node index 10 sits exactly at 0.5
    surf = true_conditional_copula(model, 0.1, grid)
    assert surf.values[10, 10] == pytest.approx(1.0 / 3.0, abs=1e-10)


# -------------------------------------------------------- synthetic KL model


def test_cosine_tensor_orthonormal():
    grid = make_grid(9)
    fams = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)]
    for i, (p, q) in enumerate(fams):
        for r, s in fams[i:]:
            ip = inner_product(cosine_tensor(grid, p, q), cosine_tensor(grid, r, s))
            expected = 1.0 if (p, q) == (r, s) else 0.0
            assert ip == pytest.approx(expected, abs=1e-10)


def kl_model(**kw):
    grid = make_grid(9)
    U, V = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    from condcopula.grid import GridFunction

    defaults = dict(
        grid=grid,
        mean=GridFunction(grid=grid, values=U * V),
        eigenvalues=(0.4, 0.2, 0.05),
        frequencies=((1, 1), (2, 1), (1, 2)),
    )
    defaults.update(kw)
    return SyntheticKLModel(**defaults)


# six words a draw: the noise of the fifth component comes from the second block
FIVE_COMPONENTS = dict(
    eigenvalues=(0.4, 0.2, 0.05, 0.02, 0.01),
    frequencies=((1, 1), (2, 1), (1, 2), (2, 2), (3, 1)),
)


def test_zero_noise_trajectories_equal_mean():
    m = kl_model(eigenvalues=(0.4,), frequencies=((1, 1),), noise_sd=(0.0,))
    _, surfaces, xi = synthetic_kl_sample(m, 5, seed=0)
    assert np.max(np.abs(surfaces - m.mean.values[None])) == 0.0
    assert np.max(np.abs(xi)) == 0.0


def test_score_variances_match_eigenvalues():
    for m in (kl_model(), kl_model(**FIVE_COMPONENTS)):
        _, _, xi = synthetic_kl_sample(m, 10000, seed=2)
        var = xi.var(axis=0, ddof=1)
        for k, lam in enumerate(m.eigenvalues):
            assert abs(var[k] - lam) <= 0.05 * lam


def test_exact_reconstruction_from_truth_scores():
    m = kl_model()
    _, surfaces, xi = synthetic_kl_sample(m, 12, seed=3)
    phis = np.stack([m.phi(k).values for k in (1, 2, 3)])
    recon = m.mean.values[None] + np.einsum("ik,kab->iab", xi, phis)
    assert np.max(np.abs(recon - surfaces)) <= 1e-12


def test_alpha_links_shift_scores():
    m = kl_model(
        alphas=(TauLink(form="sine", a=0.0, b=0.5), None, None),
        noise_sd=(0.0, 0.0, 0.0),
    )
    xs, _, xi = synthetic_kl_sample(m, 50, seed=4)
    expected = 0.5 * np.sin(2 * np.pi * xs)
    assert np.allclose(xi[:, 0], expected, atol=1e-12)
    assert np.max(np.abs(xi[:, 1:])) == 0.0


def test_kl_model_validation():
    with pytest.raises(ValueError, match="decreasing"):
        kl_model(eigenvalues=(0.2, 0.4, 0.5))
    with pytest.raises(ValueError, match="distinct"):
        kl_model(frequencies=((1, 1), (1, 1), (2, 2)))
    with pytest.raises(ValueError, match="positive"):
        kl_model(eigenvalues=(0.4, 0.2, -0.1))


def test_true_gamma_field_spectral_form():
    m = kl_model()
    field = true_gamma_field(m)
    assert np.allclose(field, field.T)
    f1 = m.phi(1).flat()
    # quadrature action of the kernel on phi_1 returns lambda_1 phi_1
    acted = m.grid.cell_weight * field @ f1
    assert np.allclose(acted, 0.4 * f1, atol=1e-10)
