import hashlib
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
        metas.append(path.read_bytes())
        grids.append(path.with_suffix(".grid.csv").read_bytes())
    assert metas[0] == metas[1]
    assert grids[0] == grids[1]


def test_estimate_names_a_non_finite_x(tmp_path, capsys):
    data = simulate(tmp_path, n=200)
    for kernel in ("epanechnikov", "gaussian"):
        for x in ("nan", "inf", "-inf"):
            out = tmp_path / f"{kernel}{x}.json"
            code = run(["estimate", "--in", str(data), f"--x={x}", "--kernel", kernel,
                        "--out", str(out)])
            assert code == 1
            assert f"x must be finite, got {x}" in capsys.readouterr().err
            assert not out.exists()


def test_negative_x_after_a_space_is_a_number(tmp_path, capsys):
    # argparse alone reads "-1e-3" and "-inf" as options, not as the value
    data = simulate(tmp_path, n=200)
    out = tmp_path / "neg.json"
    assert run(["estimate", "--in", str(data), "--x", "-1e-3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["x"] == -1e-3
    code = run(["estimate", "--in", str(data), "--x", "-inf",
                "--out", str(tmp_path / "inf.json")])
    assert code == 1
    assert "x must be finite, got -inf" in capsys.readouterr().err
    bench = ["benchmark", "--ladder", "200,400", "--reps", "2", "--grid", "9", "--seed", "3"]
    assert run([*bench, "--x", "-1e-3"]) == 0
    assert run([*bench, "--x", "-inf"]) == 1
    assert "x must be finite, got -inf" in capsys.readouterr().err


def test_clayton_tau_below_its_floor_is_validation_error(tmp_path, capsys):
    code = run(["simulate", "--family", "clayton", "--link", "constant:1e-320",
                "--n", "10", "--seed", "0", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "Clayton tau must lie in [5e-291, 1)" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_estimate_missing_input_flag(tmp_path, capsys):
    code = run(["estimate", "--x", "0.5", "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "missing required --in" in capsys.readouterr().err


def test_unreadable_input_exits_one(tmp_path, capsys):
    code = run(["estimate", "--in", str(tmp_path / "missing.csv"), "--x", "0.5",
                "--out", str(tmp_path / "e.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.csv" in err


def test_unwritable_output_exits_one(tmp_path, capsys):
    code = run(["simulate", "--family", "clayton", "--link", "constant:0.5",
                "--n", "50", "--seed", "1", "--out", str(tmp_path / "nodir" / "s.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nodir" in err


def test_unknown_flag_exits_one(capsys):
    assert run(["simulate", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_no_subcommand_exits_one(capsys):
    assert run([]) == 1


def test_non_finite_bandwidth_is_validation_error(tmp_path, capsys):
    # an infinite g1 or g2 made every pseudo-observation NaN, and an infinite
    # h or h_alpha ended in a degenerate-weights failure
    data = simulate(tmp_path, n=300)
    for flag in ("--h", "--g1", "--g2", "--h-alpha"):
        for value in ("inf", "nan"):
            out = tmp_path / f"{flag[2:]}{value}.json"
            code = run(["estimate", "--in", str(data), "--x", "0.5", flag, value,
                        "--out", str(out)])
            assert code == 1
            assert f"{flag} must be finite and positive, got {value}" in capsys.readouterr().err
            assert not out.exists()
    code = run(["fpca", "--in", str(data), "--h", "inf", "--out", str(tmp_path / "f.json")])
    assert code == 1
    assert "--h must be finite and positive, got inf" in capsys.readouterr().err


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


def test_sample_size_zero_is_validation_error(capsys):
    assert run(["diagnose", "--ns", "0,5", "--reps", "1"]) == 1
    assert "sample sizes must be >= 1, got 0" in capsys.readouterr().err


def test_out_of_range_link_is_validation_error(tmp_path, capsys):
    code = run(["simulate", "--family", "clayton", "--link", "sine:0.1,0.5",
                "--n", "10", "--seed", "0",
                "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "tau" in capsys.readouterr().err.lower()


def test_frank_tau_beyond_the_solver_range_is_validation_error(tmp_path, capsys):
    code = run(["simulate", "--family", "frank", "--link", "constant:0.999",
                "--n", "10", "--seed", "0",
                "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "tau" in capsys.readouterr().err.lower()
    assert not (tmp_path / "x.csv").exists()


def test_simulate_frank_at_high_tau(tmp_path):
    # the textbook Frank inverse raised "math domain error" here
    out = tmp_path / "f.csv"
    code = run(["simulate", "--family", "frank", "--link", "constant:0.95",
                "--n", "500", "--seed", "0", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) > 500


def test_normal_covariate_link_checked_on_every_seed(tmp_path, capsys):
    # the tau range check must not depend on which covariates a seed draws:
    # a sloped linear link leaves the range on the real line, a sine link
    # stays in it and samples as before
    digest = hashlib.sha256()
    for seed in range(6):
        args = ["simulate", "--family", "clayton", "--covariate", "normal",
                "--n", "2", "--seed", str(seed)]
        bad = tmp_path / f"bad{seed}.csv"
        assert run([*args, "--link", "linear:0.2,0.3", "--out", str(bad)]) == 1
        assert not bad.exists()
        assert "tau" in capsys.readouterr().err.lower()
        out = tmp_path / f"s{seed}.csv"
        assert run([*args, "--link", "sine:0.4,0.25", "--out", str(out)]) == 0
        digest.update(out.read_bytes())
    assert digest.hexdigest() == (
        "5b1319841063e7a2cb63bf0d2148c0cdbe7473efeb2825f320e80159dfb05ef7"
    )


def test_seed_outside_64_bits_is_named_under_either_covariate(tmp_path, capsys):
    for covariate in ("uniform", "normal"):
        for seed in ("-1", "18446744073709551616"):
            out = tmp_path / f"{covariate}{seed}.csv"
            code = run(["simulate", "--family", "clayton", "--link", "sine:0.4,0.25",
                        "--covariate", covariate, "--n", "5", "--seed", seed,
                        "--out", str(out)])
            assert code == 1
            assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
            assert not out.exists()
