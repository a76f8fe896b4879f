"""Performance profiles on a random sparse batch.

Generates seeded random sparse problems, runs a set of solvers on the
shared grid, and writes the same files as ``avesolve profile``: the ratio
table, profile curves, a summary and the run manifest.  Efficiency is the
curve value at ratio 1 and robustness the converged share; both are
printed per solver.

Usage::

    python3 scripts/profile_demo.py --problems 20 --n 200 --out profile_out
"""

import argparse

from avesolve import (
    GeneratorSpec,
    gen_random_sparse,
)
from avesolve.bench import (
    bench_config,
    default_tau_grid,
    run_bench,
    write_grid_outputs,
)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--problems", type=int, default=20)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--sigma-min", type=float, default=2.0)
    ap.add_argument("--density", type=float, default=0.1)
    ap.add_argument(
        "--solvers",
        default="drs,inexact-drs,newton,sor-like",
        help="comma separated solver names",
    )
    ap.add_argument("--measure", choices=("time", "iterations"), default="iterations")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="profile_out")
    args = ap.parse_args(argv)

    problems = {}
    for i in range(args.problems):
        spec = GeneratorSpec(
            family="random",
            n=args.n,
            sigma_min_target=args.sigma_min,
            density=args.density,
            seed=args.seed + i,
        )
        problems[f"rand-{args.n}-{args.seed + i}"] = gen_random_sparse(spec)

    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    cfg = bench_config()
    records = run_bench(problems, solvers, cfg, repeats=args.repeats, seed=args.seed)
    table, summary = write_grid_outputs(
        args.out, records, problems, solvers, cfg, args.repeats, args.measure, args.seed,
        tau_grid=default_tau_grid(),
    )

    print(f"{len(problems)} problems x {len(solvers)} solvers "
          f"({args.measure} ratios, r_max {table.r_max:g})")
    print(f"{'solver':<22s} {'efficiency %':>12s} {'robustness %':>12s}")
    for sid, (eff, rob) in summary.items():
        print(f"{sid:<22s} {eff:12.1f} {rob:12.1f}")
    print(f"wrote ratios.csv, curves.csv, summary.csv, bench_manifest.json to {args.out}/")


if __name__ == "__main__":
    main()
