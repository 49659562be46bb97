"""Record this commit's benchmark baseline in perfbench/BASELINE.json.

    python3 perfbench/baseline.py

Runs perfbench/run.py, one fresh process at a time and tracing off, in
two sets of ten runs per workload of BENCHMARK.json, each run_seconds long;
set k uses seeds 10k+1 .. 10k+10. Then it runs each workload once traced at the
default seed, and traced and untraced at a held-out seed. It records the
machine; each end-to-end metric's median, quartiles and spread
(interquartile distance over the median) per set; how far each later set's
median moved in the worse direction, as a share of the first set's median;
the per-layer figures; and the held-out check.
"""

import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 58213  # not run while the benchmark was built
RUNS = 10
SETS = 2
OUT = HERE / "BASELINE.json"


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=180)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def blas_threads() -> dict:
    """Default thread count of each OpenBLAS that numpy and scipy.linalg load."""
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    libs = sorted({line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                   if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                out[Path(path).name] = getattr(lib, symbol)()
                break
    return out


def machine() -> dict:
    import numpy
    import scipy

    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    mem_kib = int(Path("/proc/meminfo").read_text().split("MemTotal:")[1].split()[0])
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "ram_gib": round(mem_kib / 2**20, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "driver": "one run.py process per run, which also times two set-ups in fresh interpreters; CONDCOPULA_WORKERS=1",
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    # sets outermost, so that a later set is measured after the whole of an earlier one
    sets = [
        {name: [bench(name, seed, seconds, 0)
                for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1)]
         for name in workloads}
        for k in range(SETS)
    ]
    report = {"machine": machine(), "runs": RUNS, "seconds": seconds, "workloads": {}}
    for name in workloads:
        runs = [s[name] for s in sets]
        summaries = [
            {m: summary([r["metrics"][m]["value"] for r in rs]) for m in metrics} for rs in runs
        ]
        shifts = {}
        for m, spec_m in metrics.items():
            first = summaries[0][m]["median"]
            sign = 1.0 if spec_m["better"] == "lower" else -1.0
            shifts[m] = [sign * (s[m]["median"] - first) / first for s in summaries[1:]]
        traced = bench(name, DEFAULT_SEED, seconds, 1)
        held = [bench(name, HELD_OUT_SEED, seconds, t) for t in (0, 1)]
        entry = {
            "correct": all(r["correct"] for rs in runs for r in rs) and traced["correct"],
            "sets": [
                {"seeds": [k * RUNS + 1, (k + 1) * RUNS], "end_to_end": s}
                for k, s in enumerate(summaries)
            ],
            "median_shift_worse": shifts,
            f"per_layer_seed_{DEFAULT_SEED}": {m: v["value"] for m, v in traced["metrics"].items()},
            "held_out": {
                "seed": HELD_OUT_SEED,
                "correct": all(r["correct"] for r in held),
                "same_metric_names": [sorted(r["metrics"]) for r in held]
                == [sorted(runs[0][0]["metrics"]), sorted(traced["metrics"])],
            },
        }
        report["workloads"][name] = entry
        print(name, "correct", entry["correct"], "held-out", entry["held_out"], flush=True)
        for m in metrics:
            print(f"  {m:12s} spread {[round(s[m]['spread'], 3) for s in summaries]}"
                  f" shift {[round(x, 3) for x in shifts[m]]} bound {metrics[m]['bound']}",
                  flush=True)
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
