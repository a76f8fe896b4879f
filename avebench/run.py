#!/usr/bin/env python3
"""Benchmark entry point: run one workload of the avesolve benchmark.

    python3 avebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The library is imported from ``src/`` next
to this directory; without it the command exits with status 2.  BLAS is
pinned to one thread before NumPy loads.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Progress and failures go to standard error.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK_DIR = os.path.join(HERE, "_work")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not os.path.isfile(os.path.join(SRC, "avesolve", "__init__.py")):
        print(f"avebench: no avesolve sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), WORK_DIR)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
