"""Iteration counts on the tridiagonal family.

Runs the relaxed splitting solver and the SOR-like baseline on
``gen_tridiag8`` instances of growing size and prints a small table of
outer iterations and wall time.  The counts are expected to be flat in n.
The exact solves factor the tridiagonal matrix in band storage, so memory
and time per iteration grow linearly in n and the default sizes run to
128 000, where dense storage would need 131 GB.

Usage::

    python3 scripts/tridiag_iteration_table.py --sizes 1000 2000 4000 8000
"""

import argparse
import time

from avesolve import SolverConfig, gen_tridiag8, gen_x0, run_solver


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--sizes", type=int, nargs="+",
        default=[1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000],
    )
    ap.add_argument("--gamma", type=float, default=1.98)
    ap.add_argument("--omega", type=float, default=1.0)
    ap.add_argument("--epsilon", type=float, default=1e-8)
    ap.add_argument("--x0-seed", type=int, default=0)
    args = ap.parse_args(argv)

    runs = (
        ("drs", SolverConfig(gamma=args.gamma, epsilon=args.epsilon)),
        ("sor-like", SolverConfig(omega=args.omega, epsilon=args.epsilon)),
    )
    print(f"{'n':>8s}  {'solver':<10s} {'status':<14s} {'iters':>5s} "
          f"{'final ||e||':>12s} {'time [s]':>9s}")
    for n in args.sizes:
        p = gen_tridiag8(n)
        x0 = gen_x0(n, seed=args.x0_seed)
        for name, cfg in runs:
            t0 = time.perf_counter()
            rep = run_solver(name, p, cfg, x0=x0)
            dt = time.perf_counter() - t0
            print(f"{n:8d}  {name:<10s} {rep.status.value:<14s} "
                  f"{rep.iterations:5d} {rep.final_residual_norm:12.3e} {dt:9.3f}")


if __name__ == "__main__":
    main()
