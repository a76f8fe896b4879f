"""Set-up, measured phase, output checks and metrics for one workload run.

A run has three phases:

1. Set-up, ``SETUP_ROUNDS`` times: generate every instance, write it as a
   problem bundle, read it back and run the workload's first op once, from
   a start point that does not depend on the seed, as a warm-up.
   ``setup_s`` is the median of these timings.  Reference values are
   computed after the first set-up, outside its timing.  Set-up ``i`` runs
   just before measured round ``i``.
2. Measured phase: whole rounds of the workload's ops, each op and each
   round timed alone, ending when the time spent in rounds is nearest to
   the requested seconds (at least one round).  ``op_s.p50`` is the median
   op and ``ops_per_s`` the ops of one round over the median round time, so
   a slow spell of the machine shorter than half the phase moves neither.
3. Checks: every op result is checked against the references.

With a tracer the same phases run with avesolve's layer functions wrapped,
and the per-layer metrics replace the end-to-end ones.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import tracing
import workloads

SETUP_ROUNDS = 5

UNITS = {"setup_s": "s", "op_s.p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# per-layer metric -> (span name, field); field is "calls" or "self_s"
SPAN_METRICS = {
    "linalg.lu_factor.calls": ("linalg.lu_factor", "calls"),
    "linalg.lu_factor.self_s": ("linalg.lu_factor", "self_s"),
    "linalg.lu_solve.calls": ("linalg.lu_solve", "calls"),
    "linalg.lu_solve.self_s": ("linalg.lu_solve", "self_s"),
    "linalg.norm2_estimate.calls": ("linalg.norm2_estimate", "calls"),
    "linalg.norm2_estimate.self_s": ("linalg.norm2_estimate", "self_s"),
    "linalg.sigma_min_estimate.calls": ("linalg.sigma_min_estimate", "calls"),
    "linalg.sigma_min_estimate.self_s": ("linalg.sigma_min_estimate", "self_s"),
    "lsqr.calls": ("lsqr", "calls"),
    "lsqr.self_s": ("lsqr", "self_s"),
    "core.check_solvability.self_s": ("core.check_solvability", "self_s"),
    "core.theta_k.calls": ("core.theta_k", "calls"),
}
COUNT_METRICS = ("lsqr.iters", "lsqr.matvecs", "lsqr.rmatvecs")
SOLVER_METRICS = ("solvers.outer_iters", "solvers.inner_iters", "solvers.inner_retries",
                  "solvers.first_step_s")


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "s" if metric.endswith("_s") or metric.endswith(".p50") else "count"


class StepLog:
    """Solver callback: keeps the latest iterate and, when tracing, the
    time and LSQR call count at every callback."""

    def __init__(self, tracer: tracing.Tracer | None) -> None:
        self.x = None
        self.tracer = tracer
        self.times: list[float] = []
        self.lsqr_marks: list[int] = []

    def __call__(self, k: int, x) -> None:
        self.x = x
        if self.tracer is not None:
            self.times.append(time.perf_counter())
            self.lsqr_marks.append(self.tracer.counts[(self.tracer.tag, "lsqr.calls")])


@dataclass
class Outcome:
    op: workloads.Op
    seconds: float
    tag: str
    error: str | None = None
    status: str | None = None
    x: object = None
    regime: str | None = None
    nu: float | None = None
    outer: int = 0
    inner: int = 0
    steps: StepLog | None = field(default=None, repr=False)


def run_op(av, op: workloads.Op, problem, tracer, tag: str) -> Outcome:
    """Execute one op; an exception from avesolve becomes ``error``."""
    log = StepLog(tracer)
    out = Outcome(op=op, seconds=0.0, tag=tag, steps=log)
    cfg = av.SolverConfig(epsilon=op.epsilon)
    t0 = time.perf_counter()
    try:
        if op.kind == "check":
            rep = av.check_solvability(problem)
        else:
            rep = av.run_solver(op.method, problem, cfg, seed=op.x0_seed, callback=log)
    except Exception as exc:  # the op fails; the run goes on
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    finally:
        out.seconds = time.perf_counter() - t0
    if op.kind == "check":
        out.regime, out.nu = rep.regime.value, rep.banach_nu
    else:
        out.status, out.x = rep.status.value, log.x
        out.outer, out.inner = rep.iterations, rep.inner_iteration_total
    return out


def check(outcome: Outcome, refs: dict) -> tuple[bool, str | None]:
    """``(completed, wrong)``: whether the op produced an answer, and why
    that answer is wrong (None when it is right)."""
    op = outcome.op
    if outcome.error is not None:
        return False, None
    ref = refs[op.instance]
    if op.kind == "check":
        return True, workloads.check_certificate(ref, outcome.regime, outcome.nu)
    if outcome.status != "Converged":
        return False, None
    return True, workloads.check_solve(ref, op.epsilon, outcome.status, outcome.x)


def _same_problem(a, b) -> bool:
    def eq(u, v):
        return (u is None and v is None) or (
            u is not None and v is not None and np.array_equal(u, v))

    return (a.A.shape == b.A.shape and (a.A != b.A).nnz == 0
            and eq(a.b, b.b) and eq(a.known_solution, b.known_solution))


def setup(av, wl: workloads.Workload, bundle_dir: str) -> tuple[dict, dict]:
    """Generate, save and load every instance; returns (generated, loaded)."""
    generated, loaded = {}, {}
    for inst in wl.instances:
        path = os.path.join(bundle_dir, inst.key)
        generated[inst.key] = inst.generate(av)
        av.save_problem(generated[inst.key], path, inst.manifest())
        loaded[inst.key] = av.load_problem(path)
    return generated, loaded


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: str,
                 small: bool = False) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    import avesolve as av

    wl = workloads.build(name, seed, small)
    tracer = tracing.Tracer() if trace else None
    bundle_dir = os.path.join(work_dir, f"bundles-{name}-{os.getpid()}")
    os.makedirs(bundle_dir, exist_ok=True)
    refs: dict = {}
    setup_times: list[float] = []
    warmups: list[Outcome] = []
    outcomes: list[Outcome] = []
    try:
        with tracing.installed(tracer):
            baseline = None
            first = workloads.warmup_op(wl)

            def set_up(i):
                nonlocal baseline
                tag = f"setup-{i}"
                if tracer is not None:
                    tracer.tag = tag
                t0 = time.perf_counter()
                generated, problems = setup(av, wl, bundle_dir)
                warmups.append(run_op(av, first, problems[first.instance], tracer, tag))
                setup_times.append(time.perf_counter() - t0)
                for key, p in generated.items():
                    if not _same_problem(p, problems[key]):
                        raise RuntimeError(f"{key}: bundle round trip changed the problem")
                if baseline is None:
                    baseline = generated
                    for inst in wl.instances:
                        refs[inst.key] = workloads.reference(inst, generated[inst.key])
                    for op in wl.ops:
                        if op.kind == "solve":
                            workloads.check_floor(wl.instance(op.instance), refs[op.instance],
                                                  op.epsilon)
                elif any(not _same_problem(p, baseline[k]) for k, p in generated.items()):
                    raise RuntimeError("set-up rounds generated different instances")
                return problems

            # Set-up i runs before measured round i, so the set-up timings are
            # spread over the run like the op timings; any set-ups left when
            # the phase ends run after it.
            problems = set_up(0)
            rss_setup = peak_rss_mb()
            rounds = 0
            round_times: list[float] = []
            while True:
                if 0 < rounds < SETUP_ROUNDS:
                    problems = set_up(rounds)
                tag = f"round-{rounds}"
                if tracer is not None:
                    tracer.tag = tag
                t_round = time.perf_counter()
                for op in wl.ops:
                    outcomes.append(run_op(av, op, problems[op.instance], tracer, tag))
                round_times.append(time.perf_counter() - t_round)
                rounds += 1
                phase = sum(round_times)
                if phase + phase / rounds / 2 > seconds:
                    break
            for i in range(rounds, SETUP_ROUNDS):
                set_up(i)
    finally:
        shutil.rmtree(bundle_dir, ignore_errors=True)

    correct = True
    for outcome in warmups:
        _, wrong = check(outcome, refs)
        if wrong is not None:
            correct = False
            print(f"wrong warm-up answer: {outcome.op.label}: {wrong}", file=sys.stderr)
    failed = 0
    for outcome in outcomes:
        completed, wrong = check(outcome, refs)
        if wrong is not None:
            correct = False
            print(f"wrong answer: {outcome.op.label}: {wrong}", file=sys.stderr)
        if not completed or wrong is not None:
            failed += 1
            if not completed:
                why = outcome.error or f"status {outcome.status}"
                print(f"failed op: {outcome.op.label}: {why}", file=sys.stderr)

    times = [o.seconds for o in outcomes]
    print(f"{name} seed {seed}: {rounds} rounds, {len(outcomes)} ops in {phase:.2f} s, "
          f"setups {', '.join(f'{t:.3f}' for t in setup_times)} s, "
          f"peak RSS {rss_setup:.1f} MB after set-up and references", file=sys.stderr)
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "op_s.p50": statistics.median(times),
            "ops_per_s": len(wl.ops) / statistics.median(round_times),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        print(f"traced ops_per_s {len(wl.ops) / statistics.median(round_times):.6g}",
              file=sys.stderr)
        values = per_layer(tracer, outcomes, rounds)
        os.makedirs(work_dir, exist_ok=True)
        tracer.write(os.path.join(work_dir, f"trace-{name}-seed{seed}.jsonl"))
    return {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }


def per_layer(tracer: tracing.Tracer, outcomes: list[Outcome], rounds: int) -> dict:
    """Per-layer metrics: counts per round (which must repeat exactly from
    round to round), times as the median over rounds of per-round totals;
    ``generators.gen_s`` and ``mmio.load_s`` per set-up round."""
    agg = tracer.by_tag()
    setup_tags = [f"setup-{i}" for i in range(SETUP_ROUNDS)]
    round_tags = [f"round-{r}" for r in range(rounds)]

    def layer_total(tag, prefix):
        return sum(v[1] for k, v in agg[tag].items() if k.startswith(prefix))

    per_round: dict[str, list] = {
        m: [] for m in list(SPAN_METRICS) + list(COUNT_METRICS) + list(SOLVER_METRICS)}
    for tag in round_tags:
        for metric, (span, fld) in SPAN_METRICS.items():
            calls, _, self_s = agg[tag].get(span, (0, 0.0, 0.0))
            per_round[metric].append(calls if fld == "calls" else self_s)
        for metric in COUNT_METRICS:
            per_round[metric].append(tracer.counts[(tag, metric)])
        solves = [o for o in outcomes if o.tag == tag and o.op.kind == "solve"]
        per_round["solvers.outer_iters"].append(sum(o.outer for o in solves))
        per_round["solvers.inner_iters"].append(sum(o.inner for o in solves))
        per_round["solvers.inner_retries"].append(sum(
            max(0, b - a - 1)
            for o in solves
            for a, b in zip(o.steps.lsqr_marks, o.steps.lsqr_marks[1:])))
        per_round["solvers.first_step_s"].append(sum(
            o.steps.times[1] - o.steps.times[0] for o in solves if len(o.steps.times) > 1))

    values = {
        "generators.gen_s": statistics.median(layer_total(t, "generators.") for t in setup_tags),
        "mmio.load_s": statistics.median(layer_total(t, "mmio.") for t in setup_tags),
    }
    for metric, series in per_round.items():
        if unit_of(metric) == "count":
            if len(set(series)) > 1:
                print(f"count {metric} differs between rounds: {series}", file=sys.stderr)
            values[metric] = int(statistics.median(series))
        else:
            values[metric] = statistics.median(series)
    steps = [b - a for o in outcomes if o.op.kind == "solve"
             for a, b in zip(o.steps.times[1:], o.steps.times[2:])]
    values["solvers.step_s.p50"] = statistics.median(steps) if steps else 0.0
    return values
