"""The repository's scripts still run against the package they measure.

``scripts/eigen_route_sweep.py`` patches and wraps private names of
``_blas`` and ``fpca``; one row of each kind it times (sweep, fixed count,
threshold, budget and fit), at a tiny shape, fails here when those names or
their signatures change. ``scripts/calibrate_thresholds.py`` derives the
committed threshold in ``calibration/``; a short pilot must write the same
keys to the path it is given and leave that directory alone.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
CALIBRATION = ROOT / "calibration"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location(
        "eigen_route_sweep", SCRIPTS / "eigen_route_sweep.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gram_stack(sweep):
    # n = 200 at G = 51: the Gram matrix of order 200 takes Lanczos for 16 pairs
    return sweep.centered_stack(200, 51)


def test_the_timer_alternates_the_routes_and_keeps_each_best(sweep, monkeypatch):
    clock = [0.0]
    calls = []
    costs = {"a": iter([3.0, 1.0, 2.0]), "b": iter([5.0, 6.0, 4.0])}
    monkeypatch.setattr(sweep.time, "perf_counter", lambda: clock[0])

    def stub(route):
        def run(fn):
            calls.append(route)
            clock[0] += next(costs[route])
            fn()
        return run

    best = sweep.timed({"a": stub("a"), "b": stub("b")}, lambda: None, repeats=3)
    assert calls == ["a", "b"] * 3
    assert best == {"a": 1.0, "b": 4.0}


def test_eigen_route_sweep_times_a_fixed_count_on_both_routes(sweep):
    # N = 120 takes Lanczos for one pair, formed and unformed
    row = sweep.route_row(sweep.centered_stack(120, 11), 1, None, sweep.ROUTES, repeats=1)
    assert row["N"] == 120 and row["default_matrix_free"] is False
    for route in sweep.ROUTES:
        assert row[route]["ms"] > 0.0
        assert len(row[route]["products"]) == 1 and row[route]["products"][0] > 0
        assert row[route]["K_and_pairs"] == [1, 1]


def test_eigen_route_sweep_times_a_cvp_stop_on_both_routes(sweep, gram_stack):
    # the sweep's call: 16 components under CVP 0.9
    row = sweep.route_row(gram_stack, sweep.COUNT, sweep.CVP, sweep.ROUTES, repeats=1)
    assert (row["n"], row["G"], row["N"], row["default_matrix_free"]) == (200, 51, 200, False)
    for route in sweep.ROUTES:
        assert row[route]["ms"] > 0.0
        assert len(row[route]["products"]) == 1 and row[route]["products"][0] > 0
    K, pairs = row["formed"]["K_and_pairs"]
    assert row["matrix_free"]["K_and_pairs"] == [K, pairs] and pairs == max(K + 1, 5)
    assert row["max_lambda_gap_over_lambda1"] < 1e-12 and row["total_rel_gap"] < 1e-12


def test_eigen_route_sweep_records_a_crossing_past_the_lanczos_attempt(sweep, gram_stack):
    # CVP 0.999 at n = 200 crosses past the 16 pairs Lanczos holds: the run
    # gives way to the dense solve, which holds K + 1 components
    row = sweep.route_row(gram_stack, sweep.COUNT, 0.999, sweep.ROUTES, repeats=1)
    K, pairs = row["formed"]["K_and_pairs"]
    assert K > sweep.COUNT and pairs == K + 1
    assert row["matrix_free"]["K_and_pairs"] == [K, pairs]
    for route in sweep.ROUTES:
        assert row[route]["ms"] > 0.0 and len(row[route]["products"]) == 1


def test_eigen_route_sweep_times_both_routes_from_the_step_budget(sweep):
    # N = 51 is the step budget of one pair: Lanczos runs beside eigh; five
    # pairs need 63 steps, so only eigh is timed
    centered = sweep.centered_stack(51, 21, seed=3, kernel="epanechnikov")
    row = sweep.budget_row(centered, 1, None, repeats=1)
    assert (row["budget"], row["route"], row["route_at_twice_budget"]) == (51, "lanczos", "eigh")
    assert row["lanczos"]["ms"] > 0.0 and row["eigh"]["ms"] > 0.0
    assert len(row["lanczos"]["products"]) == 1 and row["eigh"]["products"] == []
    assert row["lanczos"]["K_and_pairs"] == row["eigh"]["K_and_pairs"] == [1, 1]
    row = sweep.budget_row(centered, 5, None, repeats=1)
    assert row["route"] == "eigh" and row["lanczos"] is None and row["eigh"]["ms"] > 0.0


def test_eigen_route_sweep_times_and_traces_a_fit_on_both_routes(sweep):
    row = sweep.fit_row(120, 11, "gaussian", repeats=1)
    K, pairs = row["formed"]["K_and_pairs"]
    for route in sweep.ROUTES:
        assert row[route]["ms"] > 0.0 and row[route]["traced_peak_mib"] > 0.0
        assert len(row[route]["products"]) == 1 and row[route]["products"][0] > 0
        assert row[route]["K_and_pairs"] == [K, pairs] and pairs == max(K + 1, 5)


def test_calibration_pilot_writes_every_key_to_its_path(tmp_path):
    before = {p: p.read_bytes() for p in CALIBRATION.rglob("*") if p.is_file()}
    out = tmp_path / "pilot.json"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, str(SCRIPTS / "calibrate_thresholds.py"),
                    "--reps", "3", "--out", str(out)],
                   cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120)
    committed = json.loads((CALIBRATION / "pilot_calibration.json").read_text())
    written = json.loads(out.read_text())
    assert written.keys() == committed.keys()
    assert written["pilot_config"].keys() == committed["pilot_config"].keys()
    assert written["pilot_config"]["replications"] == 3
    assert written["final_n"] == committed["final_n"] and written["target_reps"] == 50
    assert 0.0 < written["final_median_threshold"] < 1.0
    assert {p: p.read_bytes() for p in CALIBRATION.rglob("*") if p.is_file()} == before
