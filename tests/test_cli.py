import json

import numpy as np

from condcopula.cli import run


def simulate(tmp_path, name="d.csv", seed=7, n=120, link="sine:0.4,0.25"):
    out = tmp_path / name
    code = run([
        "simulate", "--family", "clayton", "--link", link,
        "--n", str(n), "--seed", str(seed), "--out", str(out),
    ])
    assert code == 0
    return out


def test_simulate_writes_csv_and_sidecar(tmp_path):
    out = simulate(tmp_path)
    assert out.exists()
    sidecar = json.loads((tmp_path / "d.csv.truth.json").read_text())
    assert sidecar["family"] == "clayton"
    assert sidecar["seed"] == 7
    lines = out.read_text().splitlines()
    assert lines[0] == "y1,y2,x"
    assert len(lines) == 121


def test_simulate_deterministic_bytes(tmp_path):
    a = simulate(tmp_path, "a.csv")
    b = simulate(tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()
    c = simulate(tmp_path, "c.csv", seed=8)
    assert c.read_bytes() != a.read_bytes()


def test_estimate_end_to_end(tmp_path, capsys):
    data = simulate(tmp_path, n=300)
    est = tmp_path / "est.json"
    code = run([
        "estimate", "--in", str(data), "--x", "0.5", "--grid", "21",
        "--K", "auto", "--cvp", "0.9", "--out", str(est),
    ])
    assert code == 0
    meta = json.loads(est.read_text())
    assert meta["x"] == 0.5
    assert (tmp_path / "est.grid.csv").exists()
    printed = capsys.readouterr().out
    assert "error vs truth" in printed  # sidecar present -> errors reported


def test_estimate_deterministic(tmp_path):
    data = simulate(tmp_path, n=200)
    metas, grids = [], []
    for name in ("e1.json", "e2.json"):
        path = tmp_path / name
        assert run(["estimate", "--in", str(data), "--x", "0.5",
                    "--out", str(path)]) == 0
        meta = json.loads(path.read_text())
        meta.pop("grid_csv")  # the self-referential path differs by name
        metas.append(meta)
        grids.append(path.with_suffix(".grid.csv").read_bytes())
    assert metas[0] == metas[1]
    assert grids[0] == grids[1]


def test_estimate_missing_input_flag(tmp_path, capsys):
    code = run(["estimate", "--x", "0.5", "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "missing required --in" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert run(["simulate", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_no_subcommand_exits_one(capsys):
    assert run([]) == 1


def test_invalid_bandwidth_text(tmp_path, capsys):
    data = simulate(tmp_path)
    code = run(["estimate", "--in", str(data), "--x", "0.5",
                "--h", "wide", "--out", str(tmp_path / "e.json")])
    assert code == 1
    assert "--h" in capsys.readouterr().err


def test_degenerate_weights_exit_two(tmp_path, capsys):
    data = simulate(tmp_path, n=100)
    code = run(["estimate", "--in", str(data), "--x", "40.0",
                "--h-alpha", "0.05", "--out", str(tmp_path / "e.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bandwidth" in err  # the message names the parameter to change


def test_fpca_outputs(tmp_path, capsys):
    data = simulate(tmp_path, n=200)
    out = tmp_path / "spec.json"
    code = run(["fpca", "--in", str(data), "--components", "3",
                "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    lam = payload["eigenvalues"]
    assert np.all(np.diff(lam) <= 1e-15)
    for k in (1, 2, 3):
        assert (tmp_path / f"spec_phi{k}.csv").exists()
    assert "lambda_1" in capsys.readouterr().out


def test_benchmark_and_raw_csv(tmp_path, capsys):
    out = tmp_path / "bench.json"
    raw = tmp_path / "raw.csv"
    code = run([
        "benchmark", "--family", "clayton", "--link", "sine:0.4,0.25",
        "--ladder", "80,160", "--reps", "2", "--grid", "9",
        "--seed", "3", "--out", str(out), "--raw-csv", str(raw),
    ])
    payload = json.loads(out.read_text())
    assert set(payload["metrics"]["error_table"]) == {"80", "160"}
    assert raw.read_text().startswith("metric,n,rep,value")
    assert code in (0, 2)  # tiny runs may fail the monotonicity verdict


def test_benchmark_byte_identical_across_runs(tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        run(["benchmark", "--ladder", "80,160", "--reps", "2",
             "--grid", "9", "--seed", "3", "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_diagnose_small_run(tmp_path):
    out = tmp_path / "diag.json"
    code = run(["diagnose", "--family", "clayton", "--link", "constant:0.5",
                "--ns", "50,200", "--reps", "5", "--seed", "1",
                "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True


def test_bad_ladder_text(capsys):
    assert run(["benchmark", "--ladder", "a,b"]) == 1
    assert "ladder" in capsys.readouterr().err


def test_out_of_range_link_is_validation_error(tmp_path, capsys):
    code = run(["simulate", "--family", "clayton", "--link", "sine:0.1,0.5",
                "--n", "10", "--seed", "0",
                "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "tau" in capsys.readouterr().err.lower()
