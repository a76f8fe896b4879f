import importlib.util
import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from avesolve.bench import (
    BenchRecord,
    IncompleteGridError,
    ProfileTable,
    bench_config,
    default_tau_grid,
    efficiency_robustness,
    performance_ratios,
    profile_curves,
    run_bench,
    write_bench_manifest,
    write_grid_outputs,
)
from avesolve import linalg
from avesolve.core import AveProblem
from avesolve.generators import GeneratorSpec, gen_random_sparse
from avesolve.linalg import band_layout, lu_factor
from avesolve.solvers import SolveStatus


def rec(pid, sid, t, it=10, status=SolveStatus.CONVERGED):
    return BenchRecord(problem_id=pid, solver_id=sid, mean_time=t, iterations=it, status=status)


HAND_RECORDS = [
    rec("p1", "s1", 1.0, it=4),
    rec("p1", "s2", 2.0, it=8),
    rec("p2", "s1", 4.0, it=12),
    rec("p2", "s2", 1.0, it=3),
]


def problem_set(count=4, n=25, target=1.6, seed0=100):
    return {
        f"prob{i}": gen_random_sparse(
            GeneratorSpec(family="random", n=n, sigma_min_target=target, seed=seed0 + i)
        )
        for i in range(count)
    }


class TestPerformanceRatios:
    def test_hand_table(self):
        table = performance_ratios(HAND_RECORDS, measure="time")
        assert table.solver_ids == ("s1", "s2")
        assert table.problem_ids == ("p1", "p2")
        npt.assert_array_equal(table.ratios, [[1.0, 2.0], [4.0, 1.0]])
        assert table.converged.all()

    def test_iteration_measure(self):
        table = performance_ratios(HAND_RECORDS, measure="iterations")
        npt.assert_array_equal(table.ratios, [[1.0, 2.0], [4.0, 1.0]])

    def test_failure_saturates_to_ceiling(self):
        records = HAND_RECORDS[:3] + [
            rec("p2", "s2", 1.0, status=SolveStatus.MAX_ITER_REACHED)
        ]
        table = performance_ratios(records, r_max=20.0)
        assert table.ratios[1, 1] == 20.0
        assert not table.converged[1, 1]
        # s1 is now the only finisher on p2, so its ratio is exactly 1.
        assert table.ratios[1, 0] == 1.0

    def test_error_record_counts_as_failure(self):
        records = HAND_RECORDS[:3] + [rec("p2", "s2", 0.0, status=SolveStatus.THETA_UNDEFINED)]
        table = performance_ratios(records)
        assert not table.converged[1, 1]
        assert table.ratios[1, 1] == table.r_max

    def test_all_fail_row(self):
        records = [
            rec("p1", "s1", 1.0, status=SolveStatus.DIVERGED),
            rec("p1", "s2", 1.0, status=SolveStatus.MAX_ITER_REACHED),
        ]
        table = performance_ratios(records)
        npt.assert_array_equal(table.ratios, [[20.0, 20.0]])

    def test_ratio_never_exceeds_ceiling(self):
        records = [rec("p1", "s1", 1.0), rec("p1", "s2", 1e9)]
        table = performance_ratios(records, r_max=20.0)
        assert table.ratios[0, 1] == 20.0

    def test_tie_gives_exact_ones(self):
        records = [rec("p1", "s1", 0.37), rec("p1", "s2", 0.37)]
        table = performance_ratios(records)
        npt.assert_array_equal(table.ratios, [[1.0, 1.0]])

    def test_duplicate_cell_rejected(self):
        with pytest.raises(IncompleteGridError):
            performance_ratios(HAND_RECORDS + [rec("p1", "s1", 9.0)])

    def test_missing_cell_rejected(self):
        with pytest.raises(IncompleteGridError):
            performance_ratios(HAND_RECORDS[:3])

    def test_bad_measure(self):
        with pytest.raises(ValueError, match="measure"):
            performance_ratios(HAND_RECORDS, measure="flops")

    @pytest.mark.parametrize("measure", ["time", "iterations"])
    def test_matches_cell_by_cell_reference(self, measure):
        """The array expression gives the bits of the per-cell definition:
        failures at r_max, 0 = 0 ties at 1, c / 0 at r_max, else
        min(c / best, r_max)."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            P, S = rng.integers(1, 5), rng.integers(1, 5)
            records = [
                rec(f"p{i}", f"s{j}", float(rng.choice([0.0, 0.5, rng.uniform(0.0, 3.0), 1e300])),
                    it=int(rng.choice([0, 1, 3, rng.integers(0, 100)])),
                    status=rng.choice([SolveStatus.CONVERGED, SolveStatus.DIVERGED,
                                       SolveStatus.THETA_UNDEFINED]))
                for i in range(P) for j in range(S)
            ]
            rng.shuffle(records)
            r_max = float(rng.choice([1.5, 20.0]))
            table = performance_ratios(records, r_max=r_max, measure=measure)
            cell = {(r.problem_id, r.solver_id): r for r in records}
            for i, pid in enumerate(table.problem_ids):
                row = [cell[pid, sid] for sid in table.solver_ids]
                costs = [float(getattr(r, "mean_time" if measure == "time" else "iterations"))
                         if r.converged else np.inf for r in row]
                best = min(costs)
                for j, (r, c) in enumerate(zip(row, costs)):
                    if not r.converged:
                        expected = r_max
                    elif best == 0.0:
                        expected = 1.0 if c == 0.0 else r_max
                    else:
                        expected = min(c / best, r_max)
                    assert table.ratios[i, j] == expected
                    assert table.converged[i, j] == r.converged


class TestCurves:
    def test_hand_values(self):
        table = performance_ratios(HAND_RECORDS)
        curves = profile_curves(table, np.array([1.0, 2.0, 4.0, 20.0]))
        npt.assert_array_equal(curves, [[0.5, 0.5], [0.5, 1.0], [1.0, 1.0], [1.0, 1.0]])

    def test_monotone_nondecreasing(self):
        curves = profile_curves(performance_ratios(HAND_RECORDS))
        assert curves.shape == (191, 2)
        assert np.all(np.diff(curves, axis=0) >= 0.0)

    def test_reaches_one_at_ceiling_when_all_converge(self):
        npt.assert_array_equal(profile_curves(performance_ratios(HAND_RECORDS))[-1], [1.0, 1.0])

    def test_failures_pin_curve_until_ceiling(self):
        # Failed cells carry the ceiling ratio, so the curve stays flat
        # below r_max and only jumps to 1 at tau = r_max itself.
        records = HAND_RECORDS[:3] + [
            rec("p2", "s2", 1.0, status=SolveStatus.MAX_ITER_REACHED)
        ]
        curves = profile_curves(performance_ratios(records), np.array([2.0, 19.9, 20.0]))
        npt.assert_array_equal(curves[:, 1], [0.5, 0.5, 1.0])

    def test_matches_per_tau_reference(self):
        """The sorted-column search gives the bits of counting, per tau and
        per solver, the ratios at most tau: over ties, 0 = 0 cells, failed
        and saturated cells, and tau equal to a ratio."""
        rng = np.random.default_rng(19)
        for _ in range(300):
            P, S = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            records = [
                rec(f"p{i}", f"s{j}", 0.5, it=int(rng.choice([0, 1, 2, 3, rng.integers(0, 200)])),
                    status=rng.choice([SolveStatus.CONVERGED, SolveStatus.DIVERGED,
                                       SolveStatus.THETA_UNDEFINED]))
                for i in range(P) for j in range(S)
            ]
            r_max = float(rng.choice([1.5, 4.0, 20.0]))
            table = performance_ratios(records, r_max=r_max, measure="iterations")
            tau = np.sort(np.concatenate([
                rng.choice(table.ratios.ravel(), size=3), rng.uniform(1.0, r_max + 1.0, 4),
                [1.0, r_max, np.nextafter(r_max, 0.0)],
            ]))
            curves = profile_curves(table, tau)
            expected = [
                [float(np.count_nonzero(table.ratios[:, j] <= t)) / P for j in range(S)]
                for t in tau
            ]
            assert curves.shape == (tau.size, S) and curves.dtype == np.float64
            npt.assert_array_equal(curves, expected)

    def test_grid_validation(self):
        table = performance_ratios(HAND_RECORDS)
        with pytest.raises(ValueError):
            profile_curves(table, np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            profile_curves(table, np.array([0.5, 2.0]))
        with pytest.raises(ValueError):
            profile_curves(table, np.array([]))

    def test_default_grids(self):
        lin = default_tau_grid(20.0)
        assert lin[0] == 1.0 and lin[-1] == 20.0
        assert np.all(np.diff(lin) > 0)
        log = default_tau_grid(20.0, log=True)
        assert log[0] == pytest.approx(1.0) and log[-1] == pytest.approx(20.0)
        assert np.all(np.diff(log) > 0)

    def test_linear_grid_is_bounded(self):
        # 10 001 points reach r_max 1001; beyond that only the log grid
        # keeps the curves' cost from growing with the ceiling.
        assert default_tau_grid(1001.0)[-1] == 1001.0
        with pytest.raises(ValueError, match="--log-tau"):
            default_tau_grid(1001.1)
        assert default_tau_grid(1e6, log=True).size == 191


class TestSummary:
    def test_hand_efficiency_robustness(self):
        table = performance_ratios(HAND_RECORDS)
        summary = efficiency_robustness(table)
        assert summary["s1"] == (50.0, 100.0)
        assert summary["s2"] == (50.0, 100.0)

    def test_efficiency_bounded_by_robustness(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            records = []
            for i in range(5):
                for j, sid in enumerate(("a", "b", "c")):
                    ok = rng.random() > 0.3
                    records.append(
                        rec(
                            f"p{i}",
                            sid,
                            float(rng.uniform(0.1, 5.0)),
                            status=SolveStatus.CONVERGED if ok else SolveStatus.DIVERGED,
                        )
                    )
            summary = efficiency_robustness(performance_ratios(records))
            for eff, rob in summary.values():
                assert eff <= rob + 1e-12

    def test_failed_fastest_does_not_win(self):
        # A diverged run with the smallest time must not claim the win.
        records = [
            rec("p1", "s1", 0.01, status=SolveStatus.DIVERGED),
            rec("p1", "s2", 1.0),
        ]
        table = performance_ratios(records)
        assert table.ratios[0, 1] == 1.0
        summary = efficiency_robustness(table)
        assert summary["s1"] == (0.0, 0.0)
        assert summary["s2"] == (100.0, 100.0)


class TestRunBench:
    def test_grid_shape_and_statuses(self):
        problems = problem_set(3)
        records = run_bench(problems, ["drs", "sor-like"], bench_config(), repeats=2, seed=5)
        assert len(records) == 6
        assert {r.problem_id for r in records} == set(problems)
        assert {r.solver_id for r in records} == {"drs", "sor-like"}
        for r in records:
            assert r.status is SolveStatus.CONVERGED
            assert r.mean_time > 0.0
            assert r.iterations > 0

    def test_iteration_mode_deterministic(self):
        problems = problem_set(3)
        cfg = bench_config()
        r1 = run_bench(problems, ["drs", "inexact-drs"], cfg, repeats=1, seed=9)
        r2 = run_bench(problems, ["drs", "inexact-drs"], cfg, repeats=1, seed=9)
        t1 = performance_ratios(r1, measure="iterations")
        t2 = performance_ratios(r2, measure="iterations")
        npt.assert_array_equal(t1.ratios, t2.ratios)
        npt.assert_array_equal(t1.converged, t2.converged)

    def test_solver_error_recorded_not_raised(self):
        from avesolve.core import AveProblem

        problems = {
            "bad": AveProblem(np.diag([1.8, -2.0]), np.zeros(2)),
            "good": problem_set(1, target=3.4)["prob0"],
        }
        records = run_bench(problems, ["inexact-newton"], bench_config(), repeats=1, seed=1)
        by_pid = {r.problem_id: r for r in records}
        assert by_pid["bad"].status is SolveStatus.THETA_UNDEFINED
        assert by_pid["bad"].iterations == 0
        assert by_pid["good"].status is SolveStatus.CONVERGED

    def test_every_run_pays_its_own_factorization(self, monkeypatch):
        # Without emptying the slot, only the first drs run would factor.
        calls = []

        def counting_lu_factor(A, shift=None):
            calls.append(shift)
            return lu_factor(A, shift=shift)

        # The generator factors too, so the problems are built first.
        problems = problem_set(1)
        monkeypatch.setattr(linalg, "lu_factor", counting_lu_factor)
        run_bench(problems, ["drs", "sor-like"], bench_config(), repeats=2, seed=5)
        assert calls == [None] * 4

    def test_every_run_pays_its_own_interval(self, monkeypatch):
        # The theoretical alpha reads the interval of A, which a run on a
        # non-banded matrix takes from one SVD unless the memo holds it.
        problems = problem_set(1)
        assert band_layout(problems["prob0"].A) is None
        calls = []
        svdvals = scipy.linalg.svdvals

        def counting_svdvals(*args, **kwargs):
            calls.append(1)
            return svdvals(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "svdvals", counting_svdvals)
        cfg = bench_config(alpha_mode="theoretical", mu=1.0, max_iter=2)
        run_bench(problems, ["inexact-drs"], cfg, repeats=3, seed=5)
        assert len(calls) == 3

    def test_default_cutoff_is_fifty(self):
        assert bench_config().max_iter == 50
        assert bench_config(max_iter=10).max_iter == 10


def write_hand_grid(out, tau_grid=None):
    problems = {pid: AveProblem(2.0 * np.eye(2), np.ones(2)) for pid in ("p1", "p2")}
    return write_grid_outputs(out, HAND_RECORDS, problems, ["s1", "s2"], bench_config(),
                              repeats=1, measure="time", seed=0, tau_grid=tau_grid)


class TestCsvIo:
    def test_ratio_table_roundtrip(self, tmp_path):
        table, _ = write_hand_grid(tmp_path)
        header, *rows = [ln.split(",") for ln in (tmp_path / "ratios.csv").read_text().splitlines()]
        assert tuple(header) == ("problem_id", *table.solver_ids)
        assert tuple(r[0] for r in rows) == table.problem_ids
        npt.assert_array_equal([[float(v) for v in r[1:]] for r in rows], table.ratios)

    def test_curves_csv_layout(self, tmp_path):
        table, _ = write_hand_grid(tmp_path, np.array([1.0, 2.0, 4.0]))
        data = np.loadtxt(tmp_path / "curves.csv", delimiter=",", skiprows=1)
        assert (tmp_path / "curves.csv").read_text().splitlines()[0] == "tau,s1,s2"
        npt.assert_array_equal(data[:, 0], [1.0, 2.0, 4.0])
        npt.assert_array_equal(data[:, 1:], profile_curves(table, data[:, 0]))

    def test_manifest_written(self, tmp_path):
        import json

        problems = problem_set(2)
        cfg = bench_config()
        path = tmp_path / "bench_manifest.json"
        write_bench_manifest(path, problems, ["drs"], cfg, repeats=3, measure="time", seed=7)
        m = json.loads(path.read_text())
        assert m["solvers"] == ["drs"]
        assert m["repeats"] == 3
        assert m["seed"] == 7
        assert m["measure"] == "time"
        assert set(m["problems"]) == set(problems)


# Iteration counts per row for solvers a, b, c; None marks a failed cell.
# tie0 ties at zero cost, fail and none hold failures (none fails in every
# cell), cap saturates at r_max, mid and slow give non-terminating shares.
GOLDEN_ITERATIONS = {
    "tie0": (0, 0, 5),
    "fail": (3, None, 7),
    "none": (None, None, None),
    "cap": (4, 4, 100),
    "mid": (6, 9, 6),
    "slow": (10, 3, 30),
}

GOLDEN_CSV = {
    "ratios.csv": (
        "problem_id,a,b,c\n"
        "tie0,1,1,10\n"
        "fail,1,10,2.3333333333333335\n"
        "none,10,10,10\n"
        "cap,1,1,10\n"
        "mid,1,1.5,1\n"
        "slow,3.3333333333333335,1,10\n"
    ),
    "curves.csv": (
        "tau,a,b,c\n"
        "1,0.66666666666666663,0.5,0.16666666666666666\n"
        "2.3333333333333335,0.66666666666666663,0.66666666666666663,0.33333333333333331\n"
        "10,1,1,1\n"
    ),
    "summary.csv": (
        "solver,efficiency_percent,robustness_percent\n"
        "a,66.666666666666671,83.333333333333329\n"
        "b,50,66.666666666666671\n"
        "c,16.666666666666668,83.333333333333329\n"
    ),
}


def test_grid_outputs_golden_bytes(tmp_path):
    """The three CSV files keep their exact bytes: ``%.17g`` numbers, rows
    in record order, 0 = 0 ties at 1, failures and saturation at r_max."""
    records = [
        rec(pid, sid, 0.5, it=it or 0,
            status=SolveStatus.MAX_ITER_REACHED if it is None else SolveStatus.CONVERGED)
        for pid, row in GOLDEN_ITERATIONS.items()
        for sid, it in zip("abc", row)
    ]
    # One failure in the row "none" is an undefined theta rather than the iteration cap.
    records[7] = rec("none", "b", 0.0, it=0, status=SolveStatus.THETA_UNDEFINED)
    problems = {pid: AveProblem(2.0 * np.eye(2), np.ones(2)) for pid in GOLDEN_ITERATIONS}
    write_grid_outputs(tmp_path, records, problems, list("abc"), bench_config(), repeats=1,
                       measure="iterations", seed=0, r_max=10.0,
                       tau_grid=np.array([1.0, 7.0 / 3.0, 10.0]))
    for name, expected in GOLDEN_CSV.items():
        assert (tmp_path / name).read_bytes() == expected.encode()


@pytest.mark.parametrize("r_max", [1.0, np.inf, np.nan], ids=["one", "inf", "nan"])
class TestRatioCeilingValidation:
    def test_performance_ratios(self, r_max):
        with pytest.raises(ValueError, match="r_max must be finite and exceed 1"):
            performance_ratios(HAND_RECORDS, r_max=r_max)

    def test_profile_table(self, r_max):
        table = performance_ratios(HAND_RECORDS)
        with pytest.raises(ValueError, match="r_max must be finite and exceed 1"):
            ProfileTable(table.ratios, table.converged, r_max, table.solver_ids, table.problem_ids)

    @pytest.mark.parametrize("log", [False, True], ids=["linear", "log"])
    def test_default_tau_grid(self, r_max, log):
        with pytest.raises(ValueError, match="r_max must be finite and exceed 1"):
            default_tau_grid(r_max, log=log)


class TestProfileTableValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ProfileTable(
                ratios=np.ones((2, 2)),
                converged=np.ones((2, 3), dtype=bool),
                r_max=20.0,
                solver_ids=("a", "b"),
                problem_ids=("p", "q"),
            )


def load_script(name):
    script = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tridiag_iteration_table_prints_one_row_per_run(capsys):
    load_script("tridiag_iteration_table").main(["--sizes", "20", "40"])
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header.split()[:4] == ["n", "solver", "status", "iters"]
    assert [r.split()[:3] for r in rows] == [
        [n, solver, "Converged"] for n in ("20", "40") for solver in ("drs", "sor-like")
    ]
