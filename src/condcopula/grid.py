"""Discrete representation of functions on the unit square.

Functions live on a G x G midpoint grid with nodes u_a = (a - 0.5)/G on each
axis, so every node is strictly interior and the constant quadrature weight
1/G^2 integrates the constant function to exactly 1. All FPCA computations
(inner products, norms, eigenproblems) run against this substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import require_integer

__all__ = [
    "Grid2D",
    "GridFunction",
    "make_grid",
    "inner_product",
    "l2_norm",
    "sup_distance",
    "write_grid_function_csv",
]


@dataclass(frozen=True)
class Grid2D:
    """Midpoint discretization of [0,1]^2 with G nodes per axis.

    G alone defines the grid, so grids compare and hash by G; the nodes and
    the quadrature weight derive from it.
    """

    G: int

    @cached_property
    def nodes(self) -> np.ndarray:
        """The read-only node coordinates (a - 0.5)/G, a = 1..G, of each axis."""
        nodes = (np.arange(1, self.G + 1) - 0.5) / self.G
        nodes.setflags(write=False)
        return nodes

    @cached_property
    def frechet_bounds(self) -> tuple:
        """The read-only Frechet-Hoeffding bounds max(u + v - 1, 0) and min(u, v) at the nodes."""
        U, V = np.meshgrid(self.nodes, self.nodes, indexing="ij")
        bounds = (np.maximum(U + V - 1.0, 0.0), np.minimum(U, V))
        for bound in bounds:
            bound.setflags(write=False)
        return bounds

    @property
    def cell_weight(self) -> float:
        return 1.0 / self.G**2


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function sampled at the nodes of a :class:`Grid2D`.

    ``values[a, b]`` holds f(u_a, v_b). Instances are immutable: the value
    array is write-protected at construction.
    """

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        G = self.grid.G
        if vals.shape != (G, G):
            raise ValueError(
                f"values shape {vals.shape} does not match grid ({G}, {G})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("GridFunction values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def flat(self) -> np.ndarray:
        """Row-major flattening, index (a, b) -> a*G + b."""
        return self.values.ravel()


def make_grid(G: int) -> Grid2D:
    """Build the G-node-per-axis midpoint grid.

    Raises ``ValueError`` for G < 1 ("empty grid") or a G not an integer.
    """
    G = require_integer("G", G)
    if G < 1:
        raise ValueError("empty grid: G must be >= 1")
    return Grid2D(G=G)


def from_callable(grid: Grid2D, f) -> GridFunction:
    """Sample ``f(u, v)`` at all grid nodes (f must broadcast over arrays)."""
    U, V = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    return GridFunction(grid=grid, values=np.asarray(f(U, V), dtype=float))


def _check_same_grid(f: GridFunction, g: GridFunction) -> None:
    if f.grid != g.grid:
        raise ValueError(
            f"grid mismatch: G={f.grid.G} vs G={g.grid.G}"
        )


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Quadrature L2 inner product <f, g> = (1/G^2) * sum f*g over nodes."""
    _check_same_grid(f, g)
    return float(f.grid.cell_weight * np.sum(f.values * g.values))


def l2_norm(f: GridFunction) -> float:
    return float(np.sqrt(max(inner_product(f, f), 0.0)))


def sup_distance(f: GridFunction, g: GridFunction) -> float:
    """Maximum absolute difference over grid nodes."""
    _check_same_grid(f, g)
    return float(np.max(np.abs(f.values - g.values)))


def write_grid_function_csv(f: GridFunction, path) -> None:
    """Serialize as ``u,v,value`` rows, row-major by (a, b).

    Values are rendered with 17 significant digits so a round trip is
    bit-exact for doubles.
    """
    nodes = f.grid.nodes
    with open(path, "w") as fh:
        fh.write("u,v,value\n")
        for a in range(f.grid.G):
            for b in range(f.grid.G):
                fh.write(f"{nodes[a]:.17g},{nodes[b]:.17g},{f.values[a, b]:.17g}\n")
