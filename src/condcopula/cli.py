"""Command-line front end.

Subcommands: simulate, estimate, fpca, benchmark, diagnose. Exit codes:
0 success, 1 validation error or an unreadable or unwritable file, 2 either
a numerical failure (degenerate kernel weights, with a message naming the
parameter to change) or a benchmark/diagnose run that completed but failed
its verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .conditional import KERNEL_FAMILIES, read_sample_csv, write_sample_csv
from .errors import DegenerateWeightsError
from .estimator import PipelineConfig, fit_pipeline, evaluate_fit
from .grid import GridFunction, l2_norm, make_grid, sup_distance
from .harness import (
    ExperimentConfig,
    benchmark_vs_baseline,
    build_conditional_model,
    uniformity_and_gap_experiment,
)
from .simulate import COVARIATE_LAWS, sample_conditional, true_conditional_copula

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    # validation problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="condcopula")
    sub = p.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="draw a sample from a known model")
    sim.add_argument("--family", default="clayton")
    sim.add_argument("--link", default="constant:0.5",
                     help="constant:c | linear:a,b | sine:a,b (Kendall tau)")
    sim.add_argument("--covariate", default="uniform", choices=COVARIATE_LAWS)
    sim.add_argument("--n", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out")
    sim.add_argument("--emit-eps", action="store_true",
                     help="include exact transforms in the truth sidecar")

    est = sub.add_parser("estimate", help="estimate the conditional copula")
    est.add_argument("--in", dest="infile")
    est.add_argument("--x", type=float)
    est.add_argument("--grid", type=int, default=21)
    est.add_argument("--kernel", default="epanechnikov", choices=KERNEL_FAMILIES)
    for name in ("--h", "--g1", "--g2", "--h-alpha"):
        est.add_argument(name, default="auto")
    est.add_argument("--K", default="auto")
    est.add_argument("--cvp", type=float, default=0.9)
    est.add_argument("--no-project", action="store_true")
    est.add_argument("--out")

    fp = sub.add_parser("fpca", help="inspect the estimated spectrum")
    fp.add_argument("--in", dest="infile")
    fp.add_argument("--grid", type=int, default=21)
    fp.add_argument("--kernel", default="epanechnikov", choices=KERNEL_FAMILIES)
    fp.add_argument("--h", default="auto")
    fp.add_argument("--components", type=int, default=5)
    fp.add_argument("--out")

    bm = sub.add_parser("benchmark", help="error tables vs the plug-in baseline")
    bm.add_argument("--family", default="clayton")
    bm.add_argument("--link", default="sine:0.4,0.25")
    bm.add_argument("--ladder", default="250,500,1000,2000")
    bm.add_argument("--reps", type=int, default=50)
    bm.add_argument("--x", type=float, default=0.5)
    bm.add_argument("--grid", type=int, default=21)
    bm.add_argument("--seed", type=int, default=0)
    bm.add_argument("--out")
    bm.add_argument("--raw-csv")

    dg = sub.add_parser("diagnose", help="uniformity and rank-gap diagnostics")
    dg.add_argument("--family", default="clayton")
    dg.add_argument("--link", default="constant:0.5")
    dg.add_argument("--ns", default="50,200,1000")
    dg.add_argument("--reps", type=int, default=50)
    dg.add_argument("--seed", type=int, default=0)
    dg.add_argument("--out")
    return p


def _require(args, names) -> None:
    for attr, flag in names:
        if getattr(args, attr) is None:
            raise ValueError(f"missing required {flag}")


def _bandwidth(text: str, label: str):
    if text == "auto":
        return None
    try:
        val = float(text)
    except ValueError:
        raise ValueError(f"{label} must be a number or 'auto'") from None
    if not 0 < val < float("inf"):  # also a NaN
        raise ValueError(f"{label} must be finite and positive, got {text}")
    return val


def _cmd_simulate(args) -> int:
    _require(args, [("out", "--out")])
    spec = {"family": args.family, "link": args.link, "covariate": args.covariate}
    sample, truth = sample_conditional(build_conditional_model(spec), args.n, args.seed)
    write_sample_csv(sample, args.out)
    sidecar = {**spec, "n": args.n, "seed": args.seed}
    if args.emit_eps:
        sidecar["truth"] = truth.to_dict()
    with open(str(args.out) + ".truth.json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out} and {args.out}.truth.json")
    return 0


def _pipeline_config(args) -> PipelineConfig:
    if args.K == "auto":
        K = None
    else:
        try:
            K = int(args.K)
        except ValueError:
            raise ValueError("--K must be an integer or 'auto'") from None
    return PipelineConfig(
        grid_size=args.grid,
        kernel_family=args.kernel,
        h=_bandwidth(args.h, "--h"),
        g1=_bandwidth(args.g1, "--g1"),
        g2=_bandwidth(args.g2, "--g2"),
        h_alpha=_bandwidth(args.h_alpha, "--h-alpha"),
        K=K,
        cvp_threshold=args.cvp,
        project=not args.no_project,
    )


def _cmd_estimate(args) -> int:
    _require(args, [("infile", "--in"), ("x", "--x"), ("out", "--out")])
    sample = read_sample_csv(args.infile)
    cfg = _pipeline_config(args)
    fit = fit_pipeline(sample, cfg)
    est = evaluate_fit(fit, args.x)
    out = Path(args.out)
    csv_path = out.with_suffix(".grid.csv")
    est.export(out, csv_path)
    sidecar = Path(str(args.infile) + ".truth.json")
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
        spec = {k: meta[k] for k in ("family", "link", "covariate") if k in meta}
        model = build_conditional_model(spec)
        true_surf = true_conditional_copula(model, args.x, make_grid(args.grid))
        sup = sup_distance(est.surface, true_surf)
        l2 = l2_norm(
            GridFunction(
                grid=true_surf.grid, values=est.surface.values - true_surf.values
            )
        )
        print(f"error vs truth: sup={sup:.6f} l2={l2:.6f}")
    print(f"wrote {out} and {csv_path} (K={est.K})")
    return 0


def _cmd_fpca(args) -> int:
    _require(args, [("infile", "--in"), ("out", "--out")])
    sample = read_sample_csv(args.infile)
    cfg = PipelineConfig(
        grid_size=args.grid,
        kernel_family=args.kernel,
        h=_bandwidth(args.h, "--h"),
        K=args.components,
    )
    fit = fit_pipeline(sample, cfg)
    out = Path(args.out)
    prefix = str(out.with_suffix(""))
    head = fit.eigen.head(args.components)
    head.export(out, csv_prefix=prefix)
    lam = fit.eigen.eigenvalues
    total = fit.eigen.total if fit.eigen.total > 0 else 1.0
    for k in range(head.m):
        print(f"lambda_{k + 1} = {lam[k]:.6g}  (cvp {lam[: k + 1].sum() / total:.3f})")
    print(f"wrote {out} and {prefix}_phi*.csv")
    return 0


def _parse_ladder(text: str):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError("ladder must be comma-separated integers") from None


def _cmd_benchmark(args) -> int:
    cfg = ExperimentConfig(
        experiment="benchmark_vs_baseline",
        model={"family": args.family, "link": args.link},
        n_ladder=_parse_ladder(args.ladder),
        replications=args.reps,
        seed=args.seed,
        eval_points=(args.x,),
        grid_size=args.grid,
    )
    report = benchmark_vs_baseline(cfg)
    print(report.to_text(), end="")
    if args.out:
        report.to_json(args.out)
    if args.raw_csv:
        report.write_raw_csv(args.raw_csv)
    return 0 if report.passed else 2


def _cmd_diagnose(args) -> int:
    cfg = ExperimentConfig(
        experiment="uniformity_and_gap",
        model={"family": args.family, "link": args.link},
        n_ladder=_parse_ladder(args.ns),
        replications=args.reps,
        seed=args.seed,
    )
    report = uniformity_and_gap_experiment(cfg)
    print(report.to_text(), end="")
    if args.out:
        report.to_json(args.out)
    return 0 if report.passed else 2


def _attach_x_value(argv) -> list:
    """``argv`` with each number after ``--x`` joined to it as ``--x=VALUE``.

    argparse reads a token that starts with '-' as an option unless it looks
    like ``-1`` or ``-.5``, so ``--x -1e-3`` or ``--x -inf`` would lose the
    value.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--x" and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] = f"--x={token}"
                continue
        out.append(token)
    return out


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_x_value(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "simulate": _cmd_simulate,
        "estimate": _cmd_estimate,
        "fpca": _cmd_fpca,
        "benchmark": _cmd_benchmark,
        "diagnose": _cmd_diagnose,
    }
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return handlers[args.command](args)
    except DegenerateWeightsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
