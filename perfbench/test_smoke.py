"""Smoke test of the benchmark driver at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import copy
import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

TINY = {
    "fit-large-n": dict(n=150, grid_size=5, pool=2, xs=(0.3, 0.7)),
    "fit-fine-grid": dict(n=120, grid_size=7, pool=2, xs=(0.5,)),
    "mc-ladder": dict(n_ladder=(60, 100), pool=2),
}


def tiny(name):
    return replace(run.WORKLOADS[name], **TINY[name])


def test_workloads_match_benchmark_json():
    assert set(TINY) == set(run.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(name, trace, section):
    result, _ = run.run(tiny(name), seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_perturbed_reference_counts_as_failed_op(name):
    w = tiny(name)
    _, fingerprints = run.run(w, seed=3, seconds=0, trace=False)
    reference = [fingerprints[i] for i in range(w.pool)]
    result, _ = run.run(w, seed=3, seconds=0, trace=False, reference=reference)
    assert result["correct"] and result["failed"] == 0

    perturbed = copy.deepcopy(reference)
    entry = perturbed[0][0] if isinstance(perturbed[0][0], list) else perturbed[0]
    entry[-1] += 1e-6
    result, _ = run.run(w, seed=3, seconds=0, trace=False, reference=perturbed)
    # only the ops on pool entry 0 fail
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "mc-ladder", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
