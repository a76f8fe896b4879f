"""Self-tests for the benchmark: every workload's code path at tiny sizes,
the output checks on wrong answers, and the command's contract.

    python3 -m pytest -q avebench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import avesolve as av  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_clean_at_tiny_size(name, trace, tmp_path):
    result = harness.run_workload(name, 0, 0.0, trace, str(tmp_path), small=True)
    wl = workloads.build(name, 0, small=True)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(wl.ops)
    spec = _spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert not any(p.name.startswith("bundles-") for p in tmp_path.iterdir())
    if trace:
        assert (tmp_path / f"trace-{name}-seed0.jsonl").is_file()
        assert result["metrics"]["solvers.outer_iters"]["value"] > 0


def test_traced_counts_repeat(tmp_path):
    runs = [harness.run_workload("random-inexact", 1, 0.0, True, str(tmp_path), small=True)
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["lsqr.iters"] > 0 and counts[0]["core.theta_k.calls"] > 0


def test_same_seed_same_inputs_other_seed_other_starts():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3) == workloads.build(name, 3)
        a = {op.x0_seed for op in workloads.build(name, 0).ops if op.kind == "solve"}
        b = {op.x0_seed for op in workloads.build(name, 1).ops if op.kind == "solve"}
        assert a and b and not a & b


def test_warmup_start_is_fixed_and_not_measured():
    for name in workloads.WORKLOADS:
        warm = [workloads.warmup_op(workloads.build(name, seed)) for seed in (0, 1, 7)]
        assert warm[0] == warm[1] == warm[2]
        starts = {op.x0_seed for seed in (0, 1, 7) for op in workloads.build(name, seed).ops}
        assert warm[0].kind == "check" or warm[0].x0_seed not in starts


def _tridiag_ref(n=20):
    spec = workloads.InstanceSpec("t", "tridiag8", n)
    return workloads.reference(spec, av.gen_tridiag8(n))


def _random_ref(sigma, margin=0.05, n=30):
    spec = workloads.InstanceSpec("r", "random", n, 0.1, sigma, margin, 0)
    return workloads.reference(spec, spec.generate(av))


def test_check_solve_accepts_solution_and_rejects_perturbed_iterate():
    ref = _tridiag_ref()
    assert workloads.check_solve(ref, 1e-8, "Converged", ref.xstar) is None
    assert workloads.check_solve(ref, 1e-8, "MaxIterReached", ref.xstar) is not None
    bad = ref.xstar.copy()
    bad[3] += 1e-6
    assert "residual" in workloads.check_solve(ref, 1e-8, "Converged", bad)


def test_check_solve_error_bound_rejects_far_point():
    ref = _random_ref(3.5)
    x = ref.xstar.copy()
    assert workloads.check_solve(ref, 1e-6, "Converged", x) is None
    # a residual within epsilon cannot sit this far from the unique solution
    ref.xstar = ref.xstar + 1e-3
    assert "error bound" in workloads.check_solve(ref, 1e-6, "Converged", x)


def test_check_certificate_rejects_wrong_regime():
    cases = [(_random_ref(0.8), "NotCovered"), (_random_ref(1.0, margin=0.0), "BoundaryMonotone"),
             (_random_ref(3.5), "StrictlyMonotone")]
    for ref, regime in cases:
        assert workloads.check_certificate(ref, regime, None) is None
        for wrong in {"NotCovered", "BoundaryMonotone", "StrictlyMonotone"} - {regime}:
            assert "regime" in workloads.check_certificate(ref, wrong, None)


def test_check_certificate_rejects_nu_failing_exact_norm_test():
    ref = _tridiag_ref()
    # eigenvalues of tridiag(-1, 8, -1) lie in (6, 10)
    assert workloads.check_certificate(ref, "StrictlyMonotone", 0.01) is None
    assert "nu 0.5" in workloads.check_certificate(ref, "StrictlyMonotone", 0.5)
    dense = _random_ref(3.5)
    exact = float(np.linalg.norm(np.eye(30) - 0.5 * dense.A.toarray(), 2))
    assert dense.nu_norm(0.5) == pytest.approx(exact, rel=1e-12)
    assert exact >= 0.5
    assert "nu 0.5" in workloads.check_certificate(dense, "StrictlyMonotone", 0.5)


def test_floor_guard_refuses_unreachable_tolerance():
    spec = workloads.InstanceSpec("r", "random", 30, 0.1, 3.5, 0.05, 0)
    ref = workloads.reference(spec, spec.generate(av))
    workloads.check_floor(spec, ref, 1e-6)
    with pytest.raises(ValueError, match="roundoff floor"):
        workloads.check_floor(spec, ref, ref.floor)


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


def test_command_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    cmd = _spec()["command"] + ["--workload", "certify", "--seed", "0", "--seconds", "1",
                                "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert proc.stdout == ""
