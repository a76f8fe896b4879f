"""Command line interface.

Subcommands: ``generate`` writes a problem bundle, ``solve`` runs one
solver on a bundle, ``check`` prints solvability diagnostics, ``bench``
runs a solver grid and writes ratio CSVs, ``profile`` additionally writes
profile curves.

``solve`` exit codes: 0 converged, 2 diverged, 3 iteration limit,
4 singular system, 5 solver error (undefined theta, inner solver stall),
1 input errors.  A JSON file given through ``--config`` overrides any
flags it names.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import bench as bench_mod
from .core import GMatrix, check_solvability
from .generators import (
    FAMILIES,
    NOSOL1D,
    GeneratorFailure,
    GeneratorSpec,
    build_manifest,
    generate,
    load_problem,
    save_problem,
)
from .mmio import FileFormatError, read_vector
from .solvers import (
    ALPHA_MODES,
    InnerSolverStallError,
    Method,
    SolveStatus,
    SolverConfig,
    ThetaUndefinedError,
    run_solver,
    write_report_trace,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DIVERGED = 2
EXIT_MAX_ITER = 3
EXIT_SINGULAR = 4
EXIT_SOLVER_ERROR = 5

_STATUS_EXIT = {
    SolveStatus.CONVERGED: EXIT_OK,
    SolveStatus.DIVERGED: EXIT_DIVERGED,
    SolveStatus.MAX_ITER_REACHED: EXIT_MAX_ITER,
    SolveStatus.SINGULAR_SYSTEM: EXIT_SINGULAR,
}

# SolverConfig fields with one flag and one --config key each; G comes from --g-diag.
_CONFIG_FIELDS = tuple(f.name for f in fields(SolverConfig) if f.name != "G")


def _add_config_flags(sub: argparse.ArgumentParser, max_iter_default: int) -> None:
    d = SolverConfig()
    g = sub.add_argument_group("solver configuration")
    g.add_argument("--gamma", type=float, default=d.gamma, help="relaxation step length in (0, 2)")
    g.add_argument("--delta", type=float, default=d.delta, help="theoretical-schedule slack in (0, 1)")
    g.add_argument("--eps", dest="epsilon", type=float, default=d.epsilon, help="residual stopping tolerance")
    g.add_argument("--max-iter", type=int, default=max_iter_default, help="outer iteration cap")
    g.add_argument("--omega", type=float, default=d.omega, help="relaxation weight of sor-like")
    g.add_argument("--theta", type=float, default=d.theta, help="inexact-Newton bound; omit to derive it")
    g.add_argument("--nu", type=float, default=d.nu, help="fixed-point step length in (0, 1)")
    g.add_argument("--alpha-mode", choices=ALPHA_MODES, default=d.alpha_mode, help="inexactness schedule of inexact-drs")
    g.add_argument("--k-max", type=int, default=d.k_max, help="heuristic schedule: last iteration with full budget")
    g.add_argument("--mu", type=float, default=d.mu, help="error-bound constant of the theoretical schedule")
    g.add_argument("--divergence-threshold", type=float, default=d.divergence_threshold, help="iterate norm declared divergent")
    g.add_argument("--inner-max-iter", type=int, default=d.inner_max_iter, help="LSQR iteration cap (default 10 n)")
    g.add_argument("--g-diag", metavar="FILE", default=None, help="metric diagonal, one entry per line (default identity)")
    sub.add_argument("--config", metavar="JSON", default=None, help="JSON file whose entries override these flags")


def _config_from_args(args) -> SolverConfig:
    values = {name: getattr(args, name) for name in _CONFIG_FIELDS}
    values["g_diag"] = args.g_diag
    if args.config is not None:
        with open(args.config) as f:
            overrides = json.load(f)
        if not isinstance(overrides, dict):
            raise ValueError(f"{args.config}: config file must hold a JSON object")
        for key in overrides:
            if key not in values:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
        values.update(overrides)
    g_diag = values.pop("g_diag")
    if g_diag is not None:
        if not isinstance(g_diag, str):
            raise ValueError(f"{args.config}: g_diag must be a file path, got {g_diag!r}")
        values["G"] = GMatrix.diagonal(read_vector(g_diag))
    return SolverConfig(**values)


def _cmd_generate(args) -> int:
    if args.family != NOSOL1D and args.n is None:
        raise ValueError(f"generate: --family {args.family} requires --n")
    spec = GeneratorSpec(
        family=args.family,
        n=args.n if args.n is not None else 0,
        density=args.density,
        sigma_min_target=args.sigma_min,
        margin=args.margin,
        seed=args.seed,
    )
    problem = generate(spec)
    manifest = build_manifest(problem, spec)
    save_problem(problem, args.out, manifest)
    print(f"wrote {args.out}")
    for key in ("family", "n", "density_achieved", "sigma_min_achieved", "seed"):
        print(f"  {key}: {manifest[key]}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    cfg = _config_from_args(args)
    report = run_solver(args.method, problem, cfg, seed=args.x0_seed)
    print(
        f"method={args.method} status={report.status.value} "
        f"iterations={report.iterations} residual={report.final_residual_norm:.6e} "
        f"inner_iterations={report.inner_iteration_total} time={report.wall_time:.4f}s"
    )
    if args.trace is not None:
        write_report_trace(report, args.trace)
        print(f"trace written to {args.trace}")
    return _STATUS_EXIT[report.status]


def _cmd_check(args) -> int:
    problem = load_problem(args.problem)
    rep = check_solvability(problem)
    print(f"n:            {problem.n}")
    print(f"sigma_min:    {rep.sigma_min:.10g}")
    print(f"norm_A:       {rep.norm_A:.10g}")
    print(f"inv_norm:     {rep.inv_norm:.10g}")
    print(f"regime:       {rep.regime.value}")
    if rep.banach_nu is None:
        print("banach_nu:    none found on the grid")
    else:
        print(f"banach_nu:    {rep.banach_nu:.2f}")
    return EXIT_OK


def _load_problem_set(paths) -> dict:
    problems = {}
    seen = set()
    for path in paths:
        norm = os.path.normpath(path)
        if norm in seen:
            raise ValueError(f"problem bundle listed twice: {path}")
        seen.add(norm)
        pid = os.path.basename(norm)
        if pid in problems:
            pid = norm
        problems[pid] = load_problem(path)
    return problems


def _run_grid(args) -> int:
    problems = _load_problem_set(args.problems)
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    for s in solvers:
        Method(s)
    cfg = _config_from_args(args)
    records = bench_mod.run_bench(problems, solvers, cfg, repeats=args.repeats, seed=args.seed)
    tau_grid = bench_mod.default_tau_grid(args.r_max, log=args.log_tau) if args.want_curves else None
    table, summary = bench_mod.write_grid_outputs(
        args.out, records, problems, solvers, cfg, args.repeats, args.measure, args.seed,
        r_max=args.r_max, tau_grid=tau_grid,
    )
    print(f"{'solver':<22} {'efficiency %':>12} {'robustness %':>12}")
    for sid in table.solver_ids:
        eff, rob = summary[sid]
        print(f"{sid:<22} {eff:>12.1f} {rob:>12.1f}")
    print(f"outputs written to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avesolve",
        description="Solvers and benchmarks for the absolute value equation A x - |x| - b = 0.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    spec = {f.name: f.default for f in fields(GeneratorSpec)}
    p_gen = sub.add_parser("generate", formatter_class=fmt, help="write a problem bundle")
    p_gen.add_argument("--family", choices=FAMILIES, required=True)
    p_gen.add_argument("--n", type=int, default=None, help="problem size (tridiag8, random)")
    p_gen.add_argument("--density", type=float, default=spec["density"], help="off-diagonal fill probability (random)")
    p_gen.add_argument("--sigma-min", type=float, default=spec["sigma_min_target"], help="smallest-singular-value target (random)")
    p_gen.add_argument("--margin", type=float, default=spec["margin"], help="fractional slack above the target (random)")
    p_gen.add_argument("--seed", type=int, default=spec["seed"])
    p_gen.add_argument("--out", required=True, help="bundle directory to create")
    p_gen.set_defaults(fn=_cmd_generate)

    p_solve = sub.add_parser("solve", formatter_class=fmt, help="run one solver on a bundle")
    p_solve.add_argument("--problem", required=True, help="problem bundle directory")
    p_solve.add_argument("--method", choices=[m.value for m in Method], required=True)
    p_solve.add_argument("--x0-seed", type=int, default=0, help="seed of the random starting point")
    p_solve.add_argument("--trace", metavar="CSV", default=None, help="write per-iteration history here")
    _add_config_flags(p_solve, max_iter_default=1000)
    p_solve.set_defaults(fn=_cmd_solve)

    p_check = sub.add_parser("check", formatter_class=fmt, help="print solvability diagnostics")
    p_check.add_argument("--problem", required=True, help="problem bundle directory")
    p_check.set_defaults(fn=_cmd_check)

    for name, want_curves in (("bench", False), ("profile", True)):
        p_b = sub.add_parser(
            name,
            formatter_class=fmt,
            help="run a solver grid and write ratio CSVs"
            + (" and profile curves" if want_curves else ""),
        )
        p_b.add_argument("--problems", nargs="+", required=True, help="problem bundle directories")
        p_b.add_argument("--solvers", required=True, help="comma-separated method names")
        p_b.add_argument("--measure", choices=("time", "iterations"), default="time")
        p_b.add_argument("--repeats", type=int, default=5)
        p_b.add_argument("--seed", type=int, default=0, help="master seed for starting points")
        p_b.add_argument("--r-max", type=float, default=bench_mod.R_MAX_DEFAULT, help="failure ratio ceiling")
        if want_curves:
            p_b.add_argument("--log-tau", action="store_true", help="log-spaced tau grid")
        p_b.add_argument("--out", required=True, help="output directory")
        _add_config_flags(p_b, max_iter_default=bench_mod.BENCH_MAX_ITER)
        p_b.set_defaults(fn=_run_grid, want_curves=want_curves)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FileFormatError, FileNotFoundError, GeneratorFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ThetaUndefinedError, InnerSolverStallError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


def cli() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
