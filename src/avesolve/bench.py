"""Benchmark grid and performance profiles.

``run_bench`` times every (problem, solver) cell; ``performance_ratios``
turns the records into a ratio table (each cell divided by the best value
in its row), ``profile_curves`` into one ``tau`` x solver array of
cumulative distribution curves: the fraction of problems a solver handled
within a factor ``tau`` of the best.  The value at ``tau = 1`` is the
solver's efficiency (how often it wins), the plateau its robustness (how
often it converges at all).

Failures of any kind (non-convergence, divergence, singular systems,
stagnation, an undefined inexact-Newton theta as ``ThetaUndefined``, an
inner solve that missed its bound as ``InnerSolverStalled``) arrive as
report statuses and never abort the grid; they are recorded and assigned
the ceiling ratio ``r_max``.  All ratios saturate at ``r_max`` so every curve
reaches its plateau there.

Measuring ``"iterations"`` instead of ``"time"`` makes the whole pipeline
deterministic: two runs of the same grid produce identical tables.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

import numpy as np

from .core import AveProblem
from .generators import gen_x0
from .solvers import SolveStatus, SolverConfig, clear_factorization, run_solver

__all__ = [
    "IncompleteGridError",
    "BenchRecord",
    "ProfileTable",
    "run_bench",
    "check_r_max",
    "performance_ratios",
    "default_tau_grid",
    "profile_curves",
    "efficiency_robustness",
    "write_bench_manifest",
    "write_grid_outputs",
]

# Ratio assigned to failed cells; also the saturation ceiling for ratios.
R_MAX_DEFAULT = 20.0

# Non-convergence cutoff used by benchmark configurations.
BENCH_MAX_ITER = 50

# Points of the log-spaced tau grid, and the most a linear grid (step 0.1,
# so r_max up to about 1001) may take before the log grid is required.
TAU_LOG_POINTS = 191
TAU_LINEAR_MAX_POINTS = 10_001


class IncompleteGridError(Exception):
    """The record set does not cover the full problem x solver grid."""


@dataclass(frozen=True)
class BenchRecord:
    """One grid cell."""

    problem_id: str
    solver_id: str
    mean_time: float
    iterations: int
    status: SolveStatus

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


@dataclass(frozen=True)
class ProfileTable:
    """Ratio matrix: rows follow ``problem_ids``, columns ``solver_ids``.
    ``converged[i, j]`` distinguishes genuine wins from saturated cells."""

    ratios: np.ndarray
    converged: np.ndarray
    r_max: float
    solver_ids: tuple[str, ...]
    problem_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        expected = (len(self.problem_ids), len(self.solver_ids))
        if self.ratios.shape != expected or self.converged.shape != expected:
            raise ValueError(
                f"ProfileTable: matrices must be {expected}, got ratios "
                f"{self.ratios.shape} and converged {self.converged.shape}"
            )
        check_r_max(self.r_max, "ProfileTable")


def check_r_max(r_max: float, where: str) -> None:
    """Raise ``ValueError`` unless ``r_max`` is a finite ratio ceiling above 1."""
    if not 1.0 < r_max < np.inf:
        raise ValueError(f"{where}: r_max must be finite and exceed 1, got {r_max}")


def bench_config(**overrides) -> SolverConfig:
    """Solver configuration with the benchmark non-convergence cutoff."""
    overrides.setdefault("max_iter", BENCH_MAX_ITER)
    return SolverConfig(**overrides)


def _x0_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence(master_seed, spawn_key=(4, index)).generate_state(1)[0])


def run_bench(
    problems: dict[str, AveProblem],
    solvers: list[str],
    cfg: SolverConfig,
    repeats: int = 5,
    seed: int = 0,
) -> list[BenchRecord]:
    """Run every solver on every problem ``repeats`` times.

    Each problem gets one starting point derived from ``seed`` and its
    position, shared by all solvers on that problem so the comparison is
    fair.  ``mean_time`` averages the reports' wall time over all repeats;
    iteration count and status come from the first run (repeats are
    identical apart from timing).  Every run starts with the factorization
    slot and the per-problem memory empty
    (:func:`.solvers.clear_factorization`), so each time includes that
    run's own factorization, spectral interval and deflation seed of
    ``A``, whichever solver ran before it.
    """
    if repeats < 1:
        raise ValueError(f"run_bench: repeats must be >= 1, got {repeats}")
    if not problems:
        raise ValueError("run_bench: no problems given")
    if not solvers:
        raise ValueError("run_bench: no solvers given")
    records: list[BenchRecord] = []
    for index, (pid, problem) in enumerate(problems.items()):
        x0 = gen_x0(problem.n, _x0_seed(seed, index))
        for sid in solvers:
            reports = []
            for _ in range(repeats):
                clear_factorization()
                reports.append(run_solver(sid, problem, cfg, x0=x0))
            records.append(
                BenchRecord(
                    problem_id=pid,
                    solver_id=sid,
                    mean_time=float(np.mean([r.wall_time for r in reports])),
                    iterations=reports[0].iterations,
                    status=reports[0].status,
                )
            )
    return records


def performance_ratios(
    records: list[BenchRecord],
    r_max: float = R_MAX_DEFAULT,
    measure: str = "time",
) -> ProfileTable:
    """Build the ratio table from bench records.

    ``measure`` selects the cost: ``"time"`` (mean wall time) or
    ``"iterations"``.  In each row the cost is divided by the smallest cost
    among converged solvers; failed cells get ``r_max``, and every ratio is
    capped at ``r_max``.  Raises :class:`IncompleteGridError` when any
    (problem, solver) cell is missing or duplicated.
    """
    if measure not in ("time", "iterations"):
        raise ValueError(f"performance_ratios: unknown measure {measure!r}")
    check_r_max(r_max, "performance_ratios")
    problem_ids = tuple(dict.fromkeys(r.problem_id for r in records))
    solver_ids = tuple(dict.fromkeys(r.solver_id for r in records))
    cell: dict[tuple[str, str], BenchRecord] = {}
    for r in records:
        key = (r.problem_id, r.solver_id)
        if key in cell:
            raise IncompleteGridError(f"duplicate record for {key}")
        cell[key] = r
    grid = [(p, s) for p in problem_ids for s in solver_ids]
    missing = [key for key in grid if key not in cell]
    if missing:
        raise IncompleteGridError(f"missing grid cells: {missing[:5]}")

    cells = [cell[key] for key in grid]
    shape = (len(problem_ids), len(solver_ids))
    converged = np.array([r.converged for r in cells], dtype=bool).reshape(shape)
    attr = "mean_time" if measure == "time" else "iterations"
    cost = np.array([getattr(r, attr) for r in cells], dtype=np.float64).reshape(shape)
    cost[~converged] = np.inf
    best = cost.min(axis=1, keepdims=True, initial=np.inf)
    # Ties (0 = 0 included) are exactly 1; c / 0, inf / b and inf / inf
    # (a row without a finisher) all end at the ceiling.
    with np.errstate(all="ignore"):
        ratios = np.where(converged & (cost == best), 1.0, np.fmin(cost / best, r_max))
    return ProfileTable(
        ratios=ratios,
        converged=converged,
        r_max=r_max,
        solver_ids=solver_ids,
        problem_ids=problem_ids,
    )


def default_tau_grid(r_max: float = R_MAX_DEFAULT, log: bool = False) -> np.ndarray:
    """Evaluation grid for profile curves: 1, 1.1, ... up to ``r_max``
    (or ``TAU_LOG_POINTS`` log-spaced points when ``log``).  A linear grid
    of more than ``TAU_LINEAR_MAX_POINTS`` points is refused."""
    check_r_max(r_max, "default_tau_grid")
    if log:
        return np.geomspace(1.0, r_max, num=TAU_LOG_POINTS)
    steps = int(round((r_max - 1.0) / 0.1))
    if steps + 1 > TAU_LINEAR_MAX_POINTS:
        raise ValueError(
            f"default_tau_grid: a linear grid up to r_max {r_max:g} takes {steps + 1} "
            f"points, more than {TAU_LINEAR_MAX_POINTS}; use the log grid (--log-tau)"
        )
    return np.round(1.0 + 0.1 * np.arange(steps + 1), 10)


def profile_curves(table: ProfileTable, tau_grid: np.ndarray | None = None) -> np.ndarray:
    """Performance profiles of all solvers on one grid (ascending, from 1;
    default :func:`default_tau_grid`): entry ``[i, j]`` is the fraction of
    problems on which solver ``table.solver_ids[j]`` has ratio at most
    ``tau_grid[i]``."""
    if tau_grid is None:
        tau_grid = default_tau_grid(table.r_max)
    tau_grid = np.asarray(tau_grid, dtype=np.float64)
    if tau_grid.size == 0 or tau_grid[0] < 1.0 or np.any(np.diff(tau_grid) < 0):
        raise ValueError("profile_curves: tau grid must ascend and start at >= 1")
    P = len(table.problem_ids)
    curves = np.empty((tau_grid.size, len(table.solver_ids)))
    for j, col in enumerate(np.sort(table.ratios.T, axis=1)):
        curves[:, j] = np.searchsorted(col, tau_grid, side="right") / P
    return curves


def efficiency_robustness(table: ProfileTable) -> dict[str, tuple[float, float]]:
    """Per solver: (efficiency, robustness) in percent.

    Efficiency is the profile value at ``tau = 1`` (share of problems where
    the solver ties the best); robustness the share of problems it
    converged on.  Efficiency never exceeds robustness.
    """
    P = len(table.problem_ids)
    eff = 100.0 * np.count_nonzero(table.converged & (table.ratios <= 1.0), axis=0) / P
    rob = 100.0 * np.count_nonzero(table.converged, axis=0) / P
    return dict(zip(table.solver_ids, zip(eff, rob)))


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV lines; strings are written as
    they are, numbers as ``%.17g`` so they read back bit for bit."""
    with open(path, "w") as f:
        for row in (header, *rows):
            f.write(",".join(v if isinstance(v, str) else "%.17g" % v for v in row) + "\n")


def write_bench_manifest(
    path,
    problems: dict[str, AveProblem],
    solvers: list[str],
    cfg: SolverConfig,
    repeats: int,
    measure: str,
    seed: int,
) -> None:
    """Record what a bench run consisted of, for reproduction."""
    cfg_dict = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    cfg_dict["G"] = "identity" if cfg.G.is_identity else "diagonal"
    manifest = {
        "problems": {pid: int(p.n) for pid, p in problems.items()},
        "solvers": list(solvers),
        "config": cfg_dict,
        "repeats": repeats,
        "measure": measure,
        "seed": seed,
    }
    with open(path, "w") as f:
        # NumPy scalars that SolverConfig accepts are written as Python numbers.
        json.dump(manifest, f, indent=2, sort_keys=True, default=lambda v: v.item())
        f.write("\n")


def write_grid_outputs(
    out_dir,
    records: list[BenchRecord],
    problems: dict[str, AveProblem],
    solvers: list[str],
    cfg: SolverConfig,
    repeats: int,
    measure: str,
    seed: int,
    r_max: float = R_MAX_DEFAULT,
    tau_grid: np.ndarray | None = None,
) -> tuple[ProfileTable, dict[str, tuple[float, float]]]:
    """Write a grid's outputs to ``out_dir`` (created if missing).

    Files: ``ratios.csv``, ``summary.csv`` (efficiency and robustness per
    solver), ``bench_manifest.json`` and, when ``tau_grid`` is given,
    ``curves.csv``.  Returns the ratio table and the summary.
    """
    table = performance_ratios(records, r_max=r_max, measure=measure)
    os.makedirs(out_dir, exist_ok=True)
    write_bench_manifest(
        os.path.join(out_dir, "bench_manifest.json"),
        problems, solvers, cfg, repeats, measure, seed,
    )
    _write_csv(os.path.join(out_dir, "ratios.csv"), ("problem_id", *table.solver_ids),
               ((pid, *row) for pid, row in zip(table.problem_ids, table.ratios)))
    if tau_grid is not None:
        _write_csv(os.path.join(out_dir, "curves.csv"), ("tau", *table.solver_ids),
                   zip(tau_grid, *profile_curves(table, tau_grid).T))
    summary = efficiency_robustness(table)
    _write_csv(
        os.path.join(out_dir, "summary.csv"),
        ("solver", "efficiency_percent", "robustness_percent"),
        ((sid, *summary[sid]) for sid in table.solver_ids),
    )
    return table, summary
