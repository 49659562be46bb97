"""The repository's scripts still run against the package they measure.

``scripts/eigen_route_sweep.py`` patches and wraps private names of
``_blas`` and ``fpca``; one row of each kind it times, at a tiny shape,
fails here when those names or their signatures change.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location(
        "eigen_route_sweep", SCRIPTS / "eigen_route_sweep.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_eigen_route_sweep_times_a_fixed_count_on_both_routes(sweep):
    # N = 120 takes Lanczos for one pair, formed and unformed
    row = sweep.count_row(1, 120, 11, repeats=1)
    assert row["N"] == 120 and row["default_matrix_free"] is False
    for route in sweep.ROUTES:
        assert row[f"{route}_ms"] > 0.0
        assert len(row[f"{route}_products"]) == 1 and row[f"{route}_products"][0] > 0


def test_eigen_route_sweep_times_a_cvp_stop_on_both_routes(sweep):
    # n = 200 at G = 51: the Gram matrix of order 200 takes Lanczos for 16 pairs
    row = sweep.threshold_row(200, 0.9, repeats=1)
    for route in sweep.ROUTES:
        assert row[f"{route}_ms"] > 0.0
        assert len(row[f"{route}_products"]) == 1 and row[f"{route}_products"][0] > 0
    K, pairs = row["formed_K_and_pairs"]
    assert row["matrix_free_K_and_pairs"] == [K, pairs] and pairs == max(K + 1, 5)
