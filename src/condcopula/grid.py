"""Discrete representation of functions on the unit square.

Functions live on a G x G midpoint grid with nodes u_a = (a - 0.5)/G on each
axis, so every node is strictly interior and the constant quadrature weight
1/G^2 integrates the constant function to exactly 1. All FPCA computations
(inner products, norms, eigenproblems) run against this substrate.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid2D",
    "GridFunction",
    "make_grid",
    "inner_product",
    "l2_norm",
    "sup_distance",
    "write_grid_function_csv",
    "read_grid_function_csv",
]


@dataclass(frozen=True)
class Grid2D:
    """Midpoint discretization of [0,1]^2 with G nodes per axis."""

    G: int
    nodes: np.ndarray = field(repr=False)
    cell_weight: float = field(repr=False)

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid2D) and self.G == other.G

    def __hash__(self) -> int:
        return hash(("Grid2D", self.G))


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

    Raises ``ValueError`` for G < 1 ("empty grid").
    """
    if G < 1:
        raise ValueError("empty grid: G must be >= 1")
    nodes = (np.arange(1, G + 1) - 0.5) / G
    nodes.setflags(write=False)
    return Grid2D(G=G, nodes=nodes, cell_weight=1.0 / G**2)


def constant(grid: Grid2D, c: float) -> GridFunction:
    return GridFunction(grid=grid, values=np.full((grid.G, grid.G), float(c)))


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


def write_grid_function_csv(f: GridFunction, path_or_buf) -> None:
    """Serialize as ``u,v,value`` rows, row-major by (a, b).

    Values are rendered with 17 significant digits so a round trip is
    bit-exact for doubles.
    """
    buf = io.StringIO()
    buf.write("u,v,value\n")
    nodes = f.grid.nodes
    for a in range(f.grid.G):
        for b in range(f.grid.G):
            buf.write(f"{nodes[a]:.17g},{nodes[b]:.17g},{f.values[a, b]:.17g}\n")
    text = buf.getvalue()
    if hasattr(path_or_buf, "write"):
        path_or_buf.write(text)
    else:
        with open(path_or_buf, "w") as fh:
            fh.write(text)


def read_grid_function_csv(path_or_buf) -> GridFunction:
    """Inverse of :func:`write_grid_function_csv`."""
    if hasattr(path_or_buf, "read"):
        lines = path_or_buf.read().splitlines()
    else:
        with open(path_or_buf) as fh:
            lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "u,v,value":
        raise ValueError("grid function CSV must start with header 'u,v,value'")
    rows = [ln for ln in lines[1:] if ln.strip()]
    m = len(rows)
    G = round(m**0.5)
    if G * G != m:
        raise ValueError(f"grid function CSV has {m} rows, not a perfect square")
    grid = make_grid(G)
    values = np.empty((G, G))
    for idx, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {idx + 2}: expected 3 fields, got {len(parts)}")
        values[idx // G, idx % G] = float(parts[2])
    return GridFunction(grid=grid, values=values)
