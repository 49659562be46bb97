from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condcopula.grid import (
    Grid2D,
    GridFunction,
    from_callable,
    inner_product,
    l2_norm,
    make_grid,
    sup_distance,
    write_grid_function_csv,
)
from oracles import constant, read_grid_function_csv


def test_make_grid_two_nodes():
    g = make_grid(2)
    assert np.allclose(g.nodes, [0.25, 0.75])
    assert g.cell_weight == 0.25


def test_make_grid_single_node():
    g = make_grid(1)
    assert np.allclose(g.nodes, [0.5])
    assert g.cell_weight == 1.0


def test_grid_is_its_node_count():
    # nodes and quadrature weight derive from G, so no grid can carry wrong ones
    assert [f.name for f in fields(Grid2D)] == ["G"]
    with pytest.raises(TypeError):
        Grid2D(G=3, nodes=np.zeros(3), cell_weight=5.0)
    g = Grid2D(3)
    assert g == make_grid(3) and hash(g) == hash(make_grid(3)) and g != make_grid(4)
    assert np.array_equal(g.nodes, [1 / 6, 0.5, 5 / 6]) and g.cell_weight == 1 / 9
    assert g.nodes is g.nodes and not g.nodes.flags.writeable


@pytest.mark.parametrize("G", [1, 2, 21, 51])
def test_frechet_bounds_are_computed_once_per_grid(G):
    # the projection of every estimate reads these; they are the bits of the
    # closed forms sampled at the nodes
    g = make_grid(G)
    lower, upper = g.frechet_bounds
    assert np.array_equal(lower, from_callable(g, lambda u, v: np.maximum(u + v - 1.0, 0.0)).values)
    assert np.array_equal(upper, from_callable(g, np.minimum).values)
    assert g.frechet_bounds is g.frechet_bounds
    assert not lower.flags.writeable and not upper.flags.writeable


def test_make_grid_empty_rejected():
    with pytest.raises(ValueError, match="empty grid"):
        make_grid(0)


@pytest.mark.parametrize("G", [2.5, 3.0, True, "3"])
def test_make_grid_needs_an_integer(G):
    # make_grid(2.5) gave the nodes [0.2, 0.6, 1.0], the last on the border
    with pytest.raises(ValueError, match=f"G must be an integer, got {G!r}"):
        make_grid(G)


def test_inner_product_of_ones_is_one():
    g = make_grid(7)
    assert inner_product(constant(g, 1.0), constant(g, 1.0)) == pytest.approx(1.0)


def test_inner_product_with_zero():
    g = make_grid(7)
    assert inner_product(constant(g, 1.0), constant(g, 0.0)) == 0.0


def test_inner_product_hand_quadrature():
    # f(u,v) = u on G=2: 0.25 * (0.0625 + 0.0625 + 0.5625 + 0.5625)
    g = make_grid(2)
    f = from_callable(g, lambda u, v: u)
    assert inner_product(f, f) == pytest.approx(0.3125, abs=1e-15)


def test_norm_of_constant_one():
    assert l2_norm(constant(make_grid(13), 1.0)) == pytest.approx(1.0)


def test_sup_distance_identical_and_shifted():
    g = make_grid(5)
    f = from_callable(g, lambda u, v: u * v)
    assert sup_distance(f, f) == 0.0
    shifted = GridFunction(grid=g, values=f.values + 0.1)
    assert sup_distance(f, shifted) == pytest.approx(0.1)


def test_sup_distance_single_node():
    g = make_grid(3)
    vals = np.zeros((3, 3))
    vals[1, 2] = -0.3
    assert sup_distance(constant(g, 0.0), GridFunction(grid=g, values=vals)) == (
        pytest.approx(0.3)
    )


def test_grid_mismatch_rejected():
    with pytest.raises(ValueError, match="grid mismatch"):
        inner_product(constant(make_grid(3), 1.0), constant(make_grid(4), 1.0))


def test_quadrature_refinement_second_order():
    # analytic integral of (uv)^2 over the unit square is 1/9; the midpoint
    # rule error is O(G^-2), so doubling G should cut it by about 4
    errs = {}
    for G in (10, 20):
        f = from_callable(make_grid(G), lambda u, v: u * v)
        errs[G] = abs(inner_product(f, f) - 1.0 / 9.0)
    assert errs[10] / errs[20] >= 3.0


def test_values_shape_checked():
    with pytest.raises(ValueError, match="shape"):
        GridFunction(grid=make_grid(3), values=np.zeros((2, 3)))


def test_values_must_be_finite():
    vals = np.zeros((2, 2))
    vals[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        GridFunction(grid=make_grid(2), values=vals)


def test_grid_function_immutable():
    f = constant(make_grid(2), 1.0)
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    f = GridFunction(grid=make_grid(6), values=rng.normal(size=(6, 6)))
    path = tmp_path / "f.csv"
    write_grid_function_csv(f, path)
    back = read_grid_function_csv(path)
    assert back.grid.G == 6
    assert np.array_equal(back.values, f.values)


def test_csv_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_grid_function_csv(path)


@st.composite
def grid_pairs(draw):
    G = draw(st.integers(min_value=1, max_value=8))
    elems = st.floats(min_value=-10, max_value=10, allow_nan=False)
    f = draw(
        st.lists(elems, min_size=G * G, max_size=G * G).map(
            lambda xs: np.array(xs).reshape(G, G)
        )
    )
    g = draw(
        st.lists(elems, min_size=G * G, max_size=G * G).map(
            lambda xs: np.array(xs).reshape(G, G)
        )
    )
    grid = make_grid(G)
    return GridFunction(grid=grid, values=f), GridFunction(grid=grid, values=g)


@settings(max_examples=50, deadline=None)
@given(grid_pairs())
def test_inner_product_symmetric(pair):
    f, g = pair
    assert inner_product(f, g) == pytest.approx(inner_product(g, f), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(grid_pairs())
def test_cauchy_schwarz(pair):
    f, g = pair
    lhs = abs(inner_product(f, g))
    rhs = l2_norm(f) * l2_norm(g)
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


@settings(max_examples=50, deadline=None)
@given(grid_pairs())
def test_l2_distance_triangle_via_zero(pair):
    f, g = pair
    zero = constant(f.grid, 0.0)
    # the L2 distance is the norm of the difference, as the harness computes it
    diff = GridFunction(grid=f.grid, values=f.values - g.values)
    assert l2_norm(diff) <= l2_norm(f) + l2_norm(g) + 1e-9
    from_zero = GridFunction(grid=f.grid, values=f.values - zero.values)
    assert l2_norm(from_zero) == pytest.approx(l2_norm(f), abs=1e-12)
