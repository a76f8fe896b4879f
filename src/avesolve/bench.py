"""Benchmark grid and performance profiles.

``run_bench`` times every (problem, solver) cell; ``performance_ratios``
turns the records into a ratio table (each cell divided by the best value
in its row), ``profile_curve`` into cumulative distribution curves: the
fraction of problems a solver handled within a factor ``tau`` of the best.
The value at ``tau = 1`` is the solver's efficiency (how often it wins),
the plateau its robustness (how often it converges at all).

Failures of any kind (non-convergence, divergence, singular systems,
solver errors) never abort the grid; they are recorded and assigned the
ceiling ratio ``r_max``.  All ratios saturate at ``r_max`` so every curve
reaches its plateau there.

Measuring ``"iterations"`` instead of ``"time"`` makes the whole pipeline
deterministic: two runs of the same grid produce identical tables.
"""

from __future__ import annotations

import json
import time
import os
from dataclasses import dataclass, fields

import numpy as np

from .core import AveProblem
from .generators import gen_x0
from .solvers import (
    InnerSolverStallError,
    SolveStatus,
    SolverConfig,
    ThetaUndefinedError,
    run_solver,
)

__all__ = [
    "IncompleteGridError",
    "BenchRecord",
    "ProfileTable",
    "run_bench",
    "performance_ratios",
    "default_tau_grid",
    "profile_curve",
    "profile_curves",
    "efficiency_robustness",
    "emit_csv",
    "read_ratios_csv",
    "write_bench_manifest",
    "write_grid_outputs",
]

# Ratio assigned to failed cells; also the saturation ceiling for ratios.
R_MAX_DEFAULT = 20.0

# Non-convergence cutoff used by benchmark configurations.
BENCH_MAX_ITER = 50


class IncompleteGridError(Exception):
    """The record set does not cover the full problem x solver grid."""


@dataclass(frozen=True)
class BenchRecord:
    """One grid cell.  ``status`` is None when the solver raised instead of
    returning a report; ``error`` then names the failure."""

    problem_id: str
    solver_id: str
    mean_time: float
    iterations: int
    status: SolveStatus | None
    error: str = ""

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
        if self.r_max <= 1.0:
            raise ValueError(f"ProfileTable: r_max must exceed 1, got {self.r_max}")


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
    fair.  ``mean_time`` averages the wall time of all repeats; iteration
    count and status come from the first run (repeats are identical apart
    from timing).  Solver exceptions become failure records.
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
            times = []
            status: SolveStatus | None = None
            iterations = 0
            error = ""
            try:
                for r in range(repeats):
                    t0 = time.perf_counter()
                    report = run_solver(sid, problem, cfg, x0=x0)
                    times.append(time.perf_counter() - t0)
                    if r == 0:
                        status = report.status
                        iterations = report.iterations
            except (ThetaUndefinedError, InnerSolverStallError) as exc:
                # Deterministic failures: repeating them reveals nothing.
                times.append(time.perf_counter() - t0)
                status = None
                error = f"{type(exc).__name__}: {exc}"
            records.append(
                BenchRecord(
                    problem_id=pid,
                    solver_id=sid,
                    mean_time=float(np.mean(times)),
                    iterations=iterations,
                    status=status,
                    error=error,
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
    if r_max <= 1.0:
        raise ValueError("performance_ratios: r_max must exceed 1")
    problem_ids = tuple(dict.fromkeys(r.problem_id for r in records))
    solver_ids = tuple(dict.fromkeys(r.solver_id for r in records))
    cell: dict[tuple[str, str], BenchRecord] = {}
    for r in records:
        key = (r.problem_id, r.solver_id)
        if key in cell:
            raise IncompleteGridError(f"duplicate record for {key}")
        cell[key] = r
    missing = [
        (p, s) for p in problem_ids for s in solver_ids if (p, s) not in cell
    ]
    if missing:
        raise IncompleteGridError(f"missing grid cells: {missing[:5]}")

    P, S = len(problem_ids), len(solver_ids)
    ratios = np.full((P, S), r_max, dtype=np.float64)
    converged = np.zeros((P, S), dtype=bool)
    for i, pid in enumerate(problem_ids):
        row = [cell[(pid, sid)] for sid in solver_ids]
        costs = []
        for rec in row:
            converged_cell = rec.converged
            if measure == "time":
                costs.append(rec.mean_time if converged_cell else np.inf)
            else:
                costs.append(float(rec.iterations) if converged_cell else np.inf)
        best = min(costs)
        for j, (rec, cost) in enumerate(zip(row, costs)):
            converged[i, j] = rec.converged
            if not rec.converged:
                continue
            if best == 0.0:
                ratios[i, j] = 1.0 if cost == 0.0 else r_max
            elif np.isfinite(best):
                ratios[i, j] = min(cost / best, r_max)
    return ProfileTable(
        ratios=ratios,
        converged=converged,
        r_max=r_max,
        solver_ids=solver_ids,
        problem_ids=problem_ids,
    )


def default_tau_grid(r_max: float = R_MAX_DEFAULT, log: bool = False, num: int = 191) -> np.ndarray:
    """Evaluation grid for profile curves: 1, 1.1, ... up to ``r_max``
    (or ``num`` log-spaced points when ``log``)."""
    if log:
        return np.geomspace(1.0, r_max, num=num)
    steps = int(round((r_max - 1.0) / 0.1))
    return np.round(1.0 + 0.1 * np.arange(steps + 1), 10)


def profile_curve(
    table: ProfileTable, solver_id: str, tau_grid: np.ndarray | None = None
) -> list[tuple[float, float]]:
    """Cumulative curve for one solver: fraction of problems with ratio
    at most ``tau``, for each ``tau`` in the (ascending, from 1) grid."""
    if tau_grid is None:
        tau_grid = default_tau_grid(table.r_max)
    tau_grid = np.asarray(tau_grid, dtype=np.float64)
    if tau_grid.size == 0 or tau_grid[0] < 1.0 or np.any(np.diff(tau_grid) < 0):
        raise ValueError("profile_curve: tau grid must ascend and start at >= 1")
    try:
        j = table.solver_ids.index(solver_id)
    except ValueError:
        raise ValueError(f"profile_curve: unknown solver {solver_id!r}")
    col = table.ratios[:, j]
    P = col.shape[0]
    return [(float(t), float(np.count_nonzero(col <= t)) / P) for t in tau_grid]


def profile_curves(
    table: ProfileTable, tau_grid: np.ndarray | None = None
) -> dict[str, list[tuple[float, float]]]:
    """Curves for all solvers on a shared grid."""
    if tau_grid is None:
        tau_grid = default_tau_grid(table.r_max)
    return {sid: profile_curve(table, sid, tau_grid) for sid in table.solver_ids}


def efficiency_robustness(table: ProfileTable) -> dict[str, tuple[float, float]]:
    """Per solver: (efficiency, robustness) in percent.

    Efficiency is the profile value at ``tau = 1`` (share of problems where
    the solver ties the best); robustness the share of problems it
    converged on.  Efficiency never exceeds robustness.
    """
    P = len(table.problem_ids)
    out = {}
    for j, sid in enumerate(table.solver_ids):
        wins = np.count_nonzero(table.converged[:, j] & (table.ratios[:, j] <= 1.0))
        conv = np.count_nonzero(table.converged[:, j])
        out[sid] = (100.0 * wins / P, 100.0 * conv / P)
    return out


def emit_csv(obj, path) -> None:
    """Write a :class:`ProfileTable` (ratio matrix) or a curves mapping to
    CSV with a stable column order.

    Ratio table: header ``problem_id,<solver>...``, one row per problem.
    Curves: header ``tau,<solver>...``, one row per grid point.
    """
    if isinstance(obj, ProfileTable):
        with open(path, "w") as f:
            f.write("problem_id," + ",".join(obj.solver_ids) + "\n")
            for i, pid in enumerate(obj.problem_ids):
                f.write(pid + "," + ",".join("%.17g" % v for v in obj.ratios[i]) + "\n")
        return
    if isinstance(obj, dict):
        solver_ids = list(obj.keys())
        if not solver_ids:
            raise ValueError("emit_csv: empty curves mapping")
        taus = [t for t, _ in obj[solver_ids[0]]]
        for sid in solver_ids[1:]:
            if [t for t, _ in obj[sid]] != taus:
                raise ValueError("emit_csv: curves must share one tau grid")
        with open(path, "w") as f:
            f.write("tau," + ",".join(solver_ids) + "\n")
            for i, t in enumerate(taus):
                f.write(
                    "%.17g" % t
                    + ","
                    + ",".join("%.17g" % obj[sid][i][1] for sid in solver_ids)
                    + "\n"
                )
        return
    raise TypeError(f"emit_csv: unsupported object type {type(obj)!r}")


def read_ratios_csv(path) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Parse a ratio CSV back into (problem_ids, solver_ids, matrix)."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    header = lines[0].split(",")
    solver_ids = tuple(header[1:])
    problem_ids = []
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        problem_ids.append(parts[0])
        rows.append([float(v) for v in parts[1:]])
    return tuple(problem_ids), solver_ids, np.array(rows, dtype=np.float64)


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
    emit_csv(table, os.path.join(out_dir, "ratios.csv"))
    if tau_grid is not None:
        emit_csv(profile_curves(table, tau_grid), os.path.join(out_dir, "curves.csv"))
    summary = efficiency_robustness(table)
    with open(os.path.join(out_dir, "summary.csv"), "w") as f:
        f.write("solver,efficiency_percent,robustness_percent\n")
        for sid in table.solver_ids:
            eff, rob = summary[sid]
            f.write(f"{sid},{eff:.17g},{rob:.17g}\n")
    return table, summary
