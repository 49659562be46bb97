import numpy as np
import pytest

from condcopula.errors import DegenerateSpectrumError
from condcopula.fpca import (
    CovarianceField,
    EigenSystem,
    ScoreMatrix,
    TrajectoryEnsemble,
    covariance_field,
    eigendecompose,
    scores,
    select_K,
    tkn_projection,
    unit_sphere_identity,
)
from condcopula.grid import (
    GridFunction,
    constant,
    inner_product,
    l2_norm,
    make_grid,
)
from condcopula.simulate import (
    SyntheticKLModel,
    cosine_tensor,
    synthetic_kl_sample,
)

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
    )


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
    ens = TrajectoryEnsemble(xs=np.zeros(4), surfaces=surf, grid=GRID)
    field = covariance_field(ens, mean)
    assert np.max(np.abs(field.values)) == 0.0


def test_two_trajectory_rank_one_field():
    # trajectories mean +- phi around their own average: the covariance is
    # exactly phi (x) phi and the top eigenvalue is (1/2)(1 + 1) = 1
    phi = cosine_tensor(GRID, 1, 0)
    mean = constant(GRID, 0.5)
    surf = np.stack([mean.values + phi.values, mean.values - phi.values])
    ens = TrajectoryEnsemble(xs=np.array([0.2, 0.8]), surfaces=surf, grid=GRID)
    field = covariance_field(ens, mean)
    assert np.allclose(field.values, np.outer(phi.flat(), phi.flat()), atol=1e-12)
    es = eigendecompose(field)
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
        CovarianceField(grid=make_grid(2), values=vals)


def test_synthetic_eigenvalue_recovery():
    model = kl_model()
    ens, _ = synthetic_kl_sample(model, 400, seed=21)
    es = eigendecompose(covariance_field(ens, ens.mean_surface()))
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
            ens, _ = synthetic_kl_sample(model, n, seed=1000 * n + rep)
            es = eigendecompose(covariance_field(ens, ens.mean_surface()))
            vals.append(abs(es.eigenvalues[0] - model.eigenvalues[0]))
        errs[n] = np.median(vals)
    assert errs[200] >= 2.5 * errs[3200]


# ------------------------------------------------------------ eigenproblem


def test_zero_field_all_zero_eigenvalues():
    es = eigendecompose(CovarianceField(grid=make_grid(3), values=np.zeros((9, 9))))
    assert np.all(es.eigenvalues == 0.0)


def test_rank_one_constant_field():
    one = constant(GRID, 1.0)
    field = CovarianceField(
        grid=GRID, values=0.3 * np.outer(one.flat(), one.flat())
    )
    es = eigendecompose(field)
    assert es.eigenvalues[0] == pytest.approx(0.3, abs=1e-12)
    assert np.allclose(es.eigenfunctions[0], 1.0, atol=1e-10)


def test_two_component_round_trip():
    f1 = cosine_tensor(GRID, 1, 0)
    f2 = cosine_tensor(GRID, 0, 1)
    field = CovarianceField(
        grid=GRID,
        values=0.4 * np.outer(f1.flat(), f1.flat())
        + 0.2 * np.outer(f2.flat(), f2.flat()),
    )
    es = eigendecompose(field)
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
    ens, _ = synthetic_kl_sample(model, 60, seed=5)
    field = covariance_field(ens, ens.mean_surface())
    es = eigendecompose(field)
    gram = GRID.cell_weight * es.phi_flat() @ es.phi_flat().T
    assert np.max(np.abs(gram - np.eye(es.m))) <= 1e-8
    trace = GRID.cell_weight * np.sum(np.diagonal(field.values))
    assert es.eigenvalues.sum() == pytest.approx(trace, rel=1e-8)


def test_spectral_rebuild_matches_field():
    model = kl_model()
    ens, _ = synthetic_kl_sample(model, 40, seed=6)
    field = covariance_field(ens, ens.mean_surface())
    es = eigendecompose(field)
    pos = es.eigenvalues > 0
    phis = es.phi_flat()[pos]
    rebuilt = (es.eigenvalues[pos, None] * phis).T @ phis
    assert np.max(np.abs(rebuilt - field.values)) <= 1e-8


def test_sign_convention_nonnegative_integral():
    model = kl_model()
    ens, _ = synthetic_kl_sample(model, 50, seed=7)
    es = eigendecompose(covariance_field(ens, ens.mean_surface()))
    for k in range(es.m):
        integral = GRID.cell_weight * es.eigenfunctions[k].sum()
        if abs(integral) > 1e-12:
            assert integral > 0


# ------------------------------------------------------------------- scores


def test_score_of_mean_trajectory_is_zero():
    model = kl_model()
    ens, _ = synthetic_kl_sample(model, 30, seed=8)
    mean = ens.mean_surface()
    es = eigendecompose(covariance_field(ens, mean))
    surf = np.concatenate([ens.surfaces, mean.values[None]], axis=0)
    ens2 = TrajectoryEnsemble(
        xs=np.append(ens.xs, 0.5), surfaces=surf, grid=GRID
    )
    xi = scores(ens2, mean, es, K=3).xi
    assert np.max(np.abs(xi[-1])) <= 1e-10


def test_score_of_shifted_trajectory():
    model = kl_model()
    ens, _ = synthetic_kl_sample(model, 30, seed=9)
    mean = ens.mean_surface()
    es = eigendecompose(covariance_field(ens, mean))
    shifted = mean.values + 2.0 * es.eigenfunctions[0]
    ens2 = TrajectoryEnsemble(
        xs=np.array([0.1, 0.2]),
        surfaces=np.stack([shifted, mean.values]),
        grid=GRID,
    )
    xi = scores(ens2, mean, es, K=4).xi
    assert xi[0, 0] == pytest.approx(2.0, abs=1e-10)
    assert np.max(np.abs(xi[0, 1:])) <= 1e-10


def test_score_columns_mean_zero_under_ensemble_centering():
    model = kl_model()
    ens, _ = synthetic_kl_sample(model, 80, seed=10)
    mean = ens.mean_surface()
    es = eigendecompose(covariance_field(ens, mean))
    xi = scores(ens, mean, es, K=3).xi
    assert np.max(np.abs(xi.mean(axis=0))) <= 1e-10


def test_full_rank_reconstruction():
    model = kl_model()
    ens, _ = synthetic_kl_sample(model, 25, seed=11)
    mean = ens.mean_surface()
    es = eigendecompose(covariance_field(ens, mean))
    rank = int(np.count_nonzero(es.eigenvalues > 0))
    xi = scores(ens, mean, es, K=rank).xi
    recon = mean.flat()[None] + xi @ es.phi_flat()[:rank]
    for i in range(ens.n):
        err = l2_norm(
            GridFunction(
                grid=GRID, values=(ens.flat()[i] - recon[i]).reshape(9, 9)
            )
        )
        assert err <= 1e-8


# ----------------------------------------------------------------- select_K


def test_select_k_cvp():
    assert select_K(dummy_eigensystem([0.9, 0.1]), "cvp", 0.9) == 1
    assert select_K(dummy_eigensystem([0.5, 0.5]), "cvp", 0.9) == 2
    assert select_K(dummy_eigensystem([1.0]), "cvp", 1.0) == 1


def test_select_k_fixed_and_degenerate():
    es = dummy_eigensystem([0.0, 0.0])
    assert select_K(es, "cvp", 0.9) == 0
    assert select_K(dummy_eigensystem([0.4, 0.1]), "fixed", 1) == 1
    with pytest.raises(ValueError):
        select_K(dummy_eigensystem([0.4]), "fixed", 5)
    with pytest.raises(ValueError, match="method"):
        select_K(dummy_eigensystem([0.4]), "elbow")


# --------------------------------------------------- perturbation projection


def two_pair_system():
    f1 = cosine_tensor(GRID, 1, 0)
    f2 = cosine_tensor(GRID, 0, 1)
    return (
        EigenSystem(
            grid=GRID,
            eigenvalues=np.array([0.5, 0.2]),
            eigenfunctions=np.stack([f1.values, f2.values]),
            sign_flips=np.ones(2),
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


def test_score_matrix_shape_properties():
    sm = ScoreMatrix(xi=np.zeros((7, 3)))
    assert sm.n == 7 and sm.K == 3
