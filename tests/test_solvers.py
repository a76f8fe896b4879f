import csv
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from avesolve import core, linalg, solvers
from avesolve.core import AveProblem, GMatrix, check_solvability, residual, theta_k
from avesolve.generators import (
    GeneratorSpec,
    gen_no_solution_1d,
    gen_random_sparse,
    gen_tridiag8,
    gen_x0,
    save_problem,
)
from avesolve.linalg import (
    SingularMatrixError,
    band_layout,
    lu_factor,
    lu_solve,
    norm2,
    transposed,
)
from avesolve.lsqr import LsqrStop, as_operator, lsqr_solve
from avesolve.solvers import (
    Deflation,
    _solve_to_criterion,
    Method,
    SolveStatus,
    SolverConfig,
    _heuristic_alpha,
    clear_factorization,
    resolve_newton_theta,
    run_solver,
    write_report_trace,
)

ALL_METHODS = [m.value for m in Method]


def small_random_problem(seed=0, n=40, target=1.5):
    return gen_random_sparse(
        GeneratorSpec(family="random", n=n, sigma_min_target=target, seed=seed)
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 0.0},
            {"gamma": 2.0},
            {"gamma": -1.0},
            {"delta": 0.0},
            {"delta": 1.0},
            {"epsilon": 0.0},
            {"max_iter": -1},
            {"omega": 0.0},
            {"omega": -0.5},
            {"theta": -0.1},
            {"nu": 0.0},
            {"alpha_mode": "bogus"},
            {"k_max": -1},
            {"mu": 0.0},
            {"mu": -2.0},
            {"divergence_threshold": 0.0},
            {"inner_max_iter": 0},
            {"gamma": "1.5"},
            {"gamma": True},
            {"epsilon": "1e-6"},
            {"mu": [1.0]},
            {"max_iter": None},
            {"max_iter": 2.5},
            {"k_max": 3.0},
            {"inner_max_iter": False},
            {"epsilon": float("nan")},
            {"omega": float("nan")},
            {"theta": float("nan")},
            {"mu": float("nan")},
            {"divergence_threshold": float("nan")},
            {"epsilon": float("inf")},
            {"omega": float("inf")},
            {"theta": float("inf")},
            {"G": np.ones(3)},
            {"G": None},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SolverConfig(**kwargs)

    def test_accepts_numpy_scalars_and_int_floats(self):
        cfg = SolverConfig(gamma=np.float64(1.5), max_iter=np.int64(7), mu=2, k_max=np.int32(3))
        assert (cfg.gamma, cfg.max_iter, cfg.mu, cfg.k_max) == (1.5, 7, 2, 3)

    def test_infinite_mu_and_divergence_threshold_accepted(self):
        # mu = inf collapses the theoretical schedule to the exact method;
        # divergence_threshold = inf never declares divergence.
        cfg = SolverConfig(mu=float("inf"), divergence_threshold=float("inf"))
        assert cfg.mu == cfg.divergence_threshold == float("inf")

    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.gamma == 1.98
        assert cfg.G.is_identity


class TestDrsExact:
    def test_first_step_closed_form(self):
        """One step agrees with an independently evaluated update formula."""
        p = small_random_problem(1, n=20)
        x0 = gen_x0(20, seed=5)
        rep = run_solver("drs", p, SolverConfig(gamma=1.6, max_iter=1), x0=x0)
        A = p.A.toarray()
        e0 = A @ x0 - np.abs(x0) - p.b
        expected = x0 - 0.5 * 1.6 * np.linalg.solve(A, e0)
        final_from_history = rep.iterate_norm_history[-1]
        assert final_from_history == pytest.approx(norm2(expected), rel=1e-12)

    def test_converges_and_report_consistent(self):
        p = small_random_problem(2)
        rep = run_solver("drs", p, SolverConfig(), seed=3)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.final_residual_norm <= 1e-8
        assert rep.final_residual_norm == rep.residual_history[-1]
        assert len(rep.residual_history) == rep.iterations + 1
        assert len(rep.iterate_norm_history) == rep.iterations + 1
        assert rep.wall_time >= 0.0

    def test_start_at_solution_zero_iterations(self):
        p = gen_tridiag8(30)
        rep = run_solver("drs", p, x0=p.known_solution)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations == 0

    def test_callback_sees_every_iterate(self):
        p = gen_tridiag8(16)
        seen = []
        rep = run_solver("drs", p, x0=np.zeros(16), callback=lambda k, x: seen.append((k, x.copy())))
        assert [k for k, _ in seen] == list(range(rep.iterations + 1))
        npt.assert_array_equal(seen[0][1], np.zeros(16))

    def test_singular_matrix_status(self):
        p = AveProblem(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))
        rep = run_solver("drs", p, x0=np.ones(2))
        assert rep.status is SolveStatus.SINGULAR_SYSTEM
        assert rep.iterations == 0

    def test_weighted_metric_converges(self):
        p = small_random_problem(3, n=25)
        G = GMatrix.diagonal(np.linspace(0.5, 2.0, 25))
        rep = run_solver("drs", p, SolverConfig(gamma=1.5, G=G), x0=gen_x0(25, seed=9))
        assert rep.status is SolveStatus.CONVERGED

    def test_fejer_monotonicity_in_weighted_norm(self):
        """||A(x_k - x*)||_G^2 decreases by at least the guaranteed amount."""
        p = small_random_problem(4, n=30)
        gamma = 1.8
        G = GMatrix.identity()
        xs = []
        run_solver("drs", p, SolverConfig(gamma=gamma, G=G), x0=gen_x0(30, seed=4),
                   callback=lambda k, x: xs.append(x.copy()))
        xstar = p.known_solution
        A = p.A.toarray()
        lead = gamma * (2.0 - gamma) / 4.0
        vals = [float(d @ d) for d in (A @ (x - xstar) for x in xs)]
        slack = 1e-8 * (1.0 + vals[0])
        for k in range(len(xs) - 1):
            e = residual(p, xs[k])
            drop = lead * 1.0 * float(e @ e)
            assert vals[k + 1] <= vals[k] - drop + slack


class TestDivergenceDetection:
    def test_unsolvable_iterates_march_linearly(self):
        # gamma = 1 from zero walks the iterate up by exactly 1/2 per step.
        p = gen_no_solution_1d()
        seen = []
        cfg = SolverConfig(gamma=1.0, divergence_threshold=50.0, max_iter=10_000)
        rep = run_solver("drs", p, cfg, x0=np.zeros(1), callback=lambda k, x: seen.append(x[0]))
        assert rep.status is SolveStatus.DIVERGED
        for k, v in enumerate(seen):
            assert v == k / 2.0
        assert seen[-1] >= 50.0
        assert rep.iterations == 100

    def test_max_iter_status(self):
        p = gen_no_solution_1d()
        rep = run_solver("drs", p, SolverConfig(gamma=1.0, max_iter=7), x0=np.zeros(1))
        assert rep.status is SolveStatus.MAX_ITER_REACHED
        assert rep.iterations == 7


class TestDrsInexact:
    def test_heuristic_alpha_schedule(self):
        assert _heuristic_alpha(0, 10) == 1.0
        assert _heuristic_alpha(10, 10) == 1.0
        assert _heuristic_alpha(11, 10) == 1.0
        assert _heuristic_alpha(12, 10) == 0.5
        assert _heuristic_alpha(15, 10) == 0.2
        assert _heuristic_alpha(110, 10) == 0.01

    def test_converges_matrix_free(self):
        p = small_random_problem(5, n=50)
        rep = run_solver(Method.DRS_INEXACT, p, SolverConfig(), seed=6)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.inner_iteration_total > 0
        assert sum(rep.inner_iteration_history) == rep.inner_iteration_total
        assert len(rep.inner_iteration_history) == rep.iterations + 1
        assert rep.inner_iteration_history[0] == 0

    def test_acceptance_criterion_holds_each_iterate(self):
        """Every accepted iterate satisfies the shifted-map residual bound."""
        p = small_random_problem(6, n=30)
        cfg = SolverConfig(gamma=1.9)
        xs = []
        rep = run_solver("inexact-drs", p, cfg, x0=gen_x0(30, seed=7),
                         callback=lambda k, x: xs.append(x.copy()))
        assert rep.status is SolveStatus.CONVERGED
        for k in range(len(xs) - 1):
            e = residual(p, xs[k])
            alpha = _heuristic_alpha(k, cfg.k_max)
            lhs = norm2(theta_k(p, cfg.G, cfg.gamma, xs[k], xs[k + 1]))
            assert lhs <= alpha * norm2(e) * (1.0 + 1e-12)

    def test_theoretical_mode_with_finite_mu_converges(self):
        p = small_random_problem(7, n=25)
        cfg = SolverConfig(alpha_mode="theoretical", mu=1.0, gamma=1.5)
        rep = run_solver("inexact-drs", p, cfg, x0=gen_x0(25, seed=8))
        assert rep.status is SolveStatus.CONVERGED

    def test_theoretical_mode_unbounded_mu_matches_exact(self):
        """mu = inf collapses the tolerance to zero: direct-solve fallback."""
        p = small_random_problem(8, n=20)
        x0 = gen_x0(20, seed=9)
        cfg = SolverConfig(alpha_mode="theoretical", mu=np.inf, gamma=1.7)
        rep_in = run_solver("inexact-drs", p, cfg, x0=x0)
        rep_ex = run_solver("drs", p, SolverConfig(gamma=1.7), x0=x0)
        assert rep_in.status is SolveStatus.CONVERGED
        npt.assert_array_equal(
            np.array(rep_in.residual_history), np.array(rep_ex.residual_history)
        )

    def test_theoretical_mode_requires_mu(self):
        p = small_random_problem(8, n=10)
        cfg = SolverConfig(alpha_mode="theoretical")
        with pytest.raises(ValueError, match="mu"):
            run_solver("inexact-drs", p, cfg, x0=np.zeros(10))

    def test_inner_solver_stall_raises(self):
        # One inner iteration per attempt cannot hit a near-exact tolerance.
        p = small_random_problem(9, n=5)
        cfg = SolverConfig(alpha_mode="theoretical", mu=1e12, inner_max_iter=1)
        rep = run_solver("inexact-drs", p, cfg, x0=gen_x0(5, seed=10))
        assert rep.status is SolveStatus.INNER_SOLVER_STALLED

    def test_stalled_step_counts_its_inner_iterations(self):
        # The step from x^0 spends all INNER_RETRY_LIMIT + 1 attempts, one
        # LSQR iteration each, and produces no iterate; the total keeps
        # them although the history cannot.
        p = gen_random_sparse(
            GeneratorSpec(family="random", n=20, sigma_min_target=1.0, margin=0.0, seed=0)
        )
        cfg = SolverConfig(alpha_mode="theoretical", mu=1e12, inner_max_iter=1)
        rep = run_solver("inexact-drs", p, cfg, seed=0)
        assert rep.status is SolveStatus.INNER_SOLVER_STALLED
        assert rep.inner_iteration_history == [0]
        assert rep.inner_iteration_total == solvers.INNER_RETRY_LIMIT + 1
        assert rep.inner_retries == solvers.INNER_RETRY_LIMIT

    def test_roundoff_floor_accepts_machine_exact_candidate(self):
        # A target far below the roundoff scale of the system and a check
        # that never passes must not stall: once an LSQR run stops at
        # ResidualTol or Roundoff, its candidate is taken.
        space = Deflation(np.eye(2), shift=np.zeros(2))
        rhs = np.array([1.0, -2.0])
        sol, _ = _solve_to_criterion(
            space, rhs, np.zeros(2), 1e-300, lambda cand: False, 50
        )
        assert space.res.stop_reason in (LsqrStop.RESIDUAL_TOL, LsqrStop.ROUNDOFF)
        npt.assert_allclose(sol, rhs, rtol=0, atol=1e-12)

    def test_inexact_finishes_when_late_bounds_fall_below_roundoff(self):
        # Badly scaled draw: near convergence alpha * ||e|| drops under
        # eps * (||A|| ||x|| + ||rhs||), so the last steps are solvable
        # only to roundoff; the run must converge rather than stall.
        p = gen_random_sparse(
            GeneratorSpec(family="random", n=200, sigma_min_target=1.05, seed=3)
        )
        rep = run_solver("inexact-drs", p, SolverConfig(), x0=gen_x0(200, seed=1003))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.final_residual_norm <= 1e-8


@pytest.mark.parametrize(
    "method, p, cfg, status, min_iterations",
    [
        ("inexact-newton", AveProblem(np.array([[1.0, 2.0], [-2.0 / 3.0, 1.0]]), np.ones(2)),
         SolverConfig(), SolveStatus.THETA_UNDEFINED, 0),
        # One LSQR iteration per attempt meets the early, loose bounds of the
        # heuristic schedule but not the tighter ones that follow.
        ("inexact-drs", small_random_problem(0, n=10), SolverConfig(k_max=0, inner_max_iter=1),
         SolveStatus.INNER_SOLVER_STALLED, 1),
    ],
    ids=["theta-undefined", "inner-stall"],
)
def test_failed_run_report_is_complete(method, p, cfg, status, min_iterations):
    """A failure is a status on a full report: histories up to the last
    accepted iterate, the run's wall time, and every iterate reported."""
    seen = []
    rep = run_solver(method, p, cfg, x0=gen_x0(p.n, seed=10), callback=lambda k, x: seen.append(k))
    assert rep.status is status
    assert rep.iterations >= min_iterations
    assert len(rep.residual_history) == rep.iterations + 1
    assert len(rep.iterate_norm_history) == len(rep.inner_iteration_history) == rep.iterations + 1
    assert rep.final_residual_norm == rep.residual_history[-1]
    assert rep.wall_time > 0.0
    assert seen == list(range(rep.iterations + 1))


class TestDeflation:
    def test_exact_space_reaches_target_in_fewer_iterations(self):
        rng = np.random.default_rng(30)
        n, k = 60, 8
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = q1 @ np.diag(np.geomspace(1e3, 1.0, n)) @ q2.T
        U, s, Vt = scipy.linalg.svd(A)
        space = Deflation(A)
        space.Y, space.W = Vt[-k:].T / s[-k:], U[:, -k:]
        rhs = rng.standard_normal(n)
        x = rng.standard_normal(n)
        target = 1e-8 * norm2(rhs)
        plain = lsqr_solve(A, rhs, target, x0=x, max_iter=10 * n)
        cand, res = space.solve(rhs, x, target, 10 * n)
        assert res.iterations < plain.iterations
        assert res.basis is None
        # Within rounding of the target: the Y W^T steps add errors of order
        # eps (||A|| ||y|| + ||rhs||).
        floor = 16 * np.finfo(float).eps * (s[0] * norm2(cand) + norm2(rhs))
        assert norm2(rhs - A @ cand) <= target + floor

    def test_continued_run_retry_matches_resumed_lsqr(self):
        """Through a shifted space, the retry after a MaxIter stop resumes
        the first attempt's LSQR run at half the target, bit for bit."""
        rng = np.random.default_rng(31)
        A = rng.standard_normal((40, 40)) + 8.0 * np.eye(40)
        rhs = rng.standard_normal(40)
        x = rng.standard_normal(40)
        target = 1e-3 * norm2(rhs)
        max_inner = 3
        first = lsqr_solve(A, rhs, target, x0=x, max_iter=max_inner)
        assert first.stop_reason is LsqrStop.MAX_ITER
        second = lsqr_solve(A, rhs, 0.5 * target, max_iter=max_inner, resume=first)
        seen = []

        def accepts(cand):
            seen.append(cand)
            return len(seen) == 2

        sol, inner = _solve_to_criterion(
            Deflation(A, shift=np.zeros(40)), rhs, x, target, accepts, max_inner
        )
        npt.assert_array_equal(seen[0], first.solution)
        npt.assert_array_equal(sol, second.solution)
        assert inner == first.iterations + second.iterations

    def test_deflated_first_attempt_skips_roundoff_escape(self, monkeypatch):
        A = np.diag([1.0, 2.0, 4.0, 8.0])
        rhs = np.array([1.0, -2.0, 3.0, -4.0])
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return lsqr_solve(*args, **kwargs)

        monkeypatch.setattr(solvers, "lsqr_solve", counting)
        never = lambda cand: False  # noqa: E731
        deflated = Deflation(A)
        deflated.Y, deflated.W = np.eye(4)[:, :2] / [1.0, 2.0], np.eye(4)[:, :2]
        for space, attempts in [
            (Deflation(A, shift=np.zeros(4)), 1),
            (Deflation(A), 1),
            (deflated, 2),
        ]:
            calls.clear()
            sol, _ = _solve_to_criterion(space, rhs, np.zeros(4), 1e-20, never, 50)
            npt.assert_allclose(A @ sol, rhs, rtol=0, atol=1e-12)
            assert len(calls) == attempts

    def test_recycling_halves_inner_iterations(self, monkeypatch):
        p = gen_random_sparse(
            GeneratorSpec(family="random", n=200, sigma_min_target=1.05, seed=0)
        )
        x0 = gen_x0(200, seed=1000)
        recycled = run_solver("inexact-drs", p, SolverConfig(), x0=x0)
        # Without a harvest the space stays empty, and every inner solve is
        # plain warm-started LSQR.  The seed the first run kept would fill
        # it, so it goes, and the seed computed afresh is empty too.
        monkeypatch.setattr(Deflation, "_harvest", lambda self, res: None)
        clear_factorization()
        plain = run_solver("inexact-drs", p, SolverConfig(), x0=x0)
        assert recycled.status is plain.status is SolveStatus.CONVERGED
        assert recycled.iterations <= plain.iterations
        assert 2 * recycled.inner_iteration_total <= plain.inner_iteration_total


def final_run(p, x0, method="inexact-drs", epsilon=1e-6):
    """A run of ``p`` from ``x0``: the report, the SHA-256 of the final
    iterate's bytes, and the probe iterations spent during the run, the
    LSQR iterations that produced no iterate."""
    xs = []
    rep = run_solver(method, p, SolverConfig(epsilon=epsilon), x0=x0,
                     callback=lambda k, x: xs.append(x))
    digest = hashlib.sha256(xs[-1].tobytes()).hexdigest()
    return rep, digest, rep.inner_iteration_total - sum(rep.inner_iteration_history)


def kept_seed(p):
    return core._memos.get(p, {}).get(solvers.deflation_seed)


class TestInnerRetries:
    """SolveReport.inner_retries counts the attempts that a step's check
    forced, not LSQR calls."""

    def test_direct_method_retries_nothing(self):
        rep = run_solver("drs", small_random_problem(0, n=10), SolverConfig(), seed=0)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.inner_retries == 0

    def test_one_refused_attempt_is_one_retry(self):
        # M = diag(2, 4) and r0 = (-2, 4): one LSQR iteration per attempt
        # leaves the first candidate short of the bound, the check refuses
        # it, and the retry's one iteration solves the 2 x 2 system.
        p = AveProblem(np.diag([3.0, 5.0]), np.array([2.0, 8.0]))
        rep = run_solver("inexact-newton", p, SolverConfig(theta=0.1, inner_max_iter=1),
                         x0=np.array([2.0, 1.0]))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations == 1
        assert rep.inner_iteration_history == [0, 2]
        assert rep.inner_retries == 1


def report_counts(rep):
    """Everything a report holds but its wall time."""
    return replace(rep, wall_time=0.0)


class TestWorkLedger:
    """A report counts its own run's work, and no other run's."""

    def test_nested_runs_leave_the_outer_report_alone(self):
        p = small_random_problem(0, n=60, target=3.5)
        # Two copies of one problem, so that each is solved cold; the
        # generator's own LU is not a run's work.
        copies = [newton_seed_problem() for _ in range(2)]
        nested = []

        def cold_runs():
            q = copies.pop()
            return [run_solver("newton", q, SolverConfig(), seed=0),
                    run_solver("inexact-drs", q, SolverConfig(epsilon=1e-6), seed=0)]

        def callback(k, x):
            if k == 1:
                nested.extend(cold_runs())

        clear_factorization()
        outer = run_solver("drs", p, SolverConfig(), seed=0, callback=callback)
        clear_factorization()
        alone = run_solver("drs", p, SolverConfig(), seed=0)
        assert report_counts(outer) == report_counts(alone)
        assert (outer.factorizations, outer.inner_iteration_total) == (1, 0)
        # Each nested run counts what the same run counts at top level.
        newton, inexact = nested
        assert newton.factorizations == newton.iterations
        probe = solvers.SEED_PASSES * solvers.DEFLATION_BASIS
        assert inexact.inner_iteration_total == sum(inexact.inner_iteration_history) + probe
        assert list(map(report_counts, nested)) == list(map(report_counts, cold_runs()))

    def test_a_raising_callback_restores_the_default_ledger(self):
        default = linalg.work.get()
        p = small_random_problem(10, n=60, target=3.2)

        def callback(k, x):
            if k == 2:
                raise RuntimeError("stop here")

        with pytest.raises(RuntimeError, match="stop here"):
            run_solver("newton", p, SolverConfig(), seed=11, callback=callback)
        assert linalg.work.get() is default
        rep = run_solver("drs", gen_tridiag8(4), x0=np.zeros(4))
        assert (rep.factorizations, rep.inner_iteration_total, rep.inner_retries) == (1, 0, 0)


class TestDeflationSeed:
    """inexact-drs runs on one problem adopt one kept deflation seed."""

    def test_kept_seed_moves_no_iterate(self):
        p = small_random_problem(0, n=200)
        x0 = gen_x0(200, 1100)
        clear_factorization()
        cold = final_run(p, x0)
        assert kept_seed(p) is not None
        warm = final_run(p, x0)
        clear_factorization()
        again = final_run(p, x0)
        probe = solvers.SEED_PASSES * solvers.DEFLATION_BASIS
        assert [run[2] for run in (cold, warm, again)] == [probe, 0, probe]
        for rep, digest, _ in (warm, again):
            assert rep.status is cold[0].status is SolveStatus.CONVERGED
            assert rep.residual_history == cold[0].residual_history
            assert rep.iterate_norm_history == cold[0].iterate_norm_history
            assert rep.inner_iteration_history == cold[0].inner_iteration_history
            assert digest == cold[1]
        assert warm[0].inner_iteration_total == sum(warm[0].inner_iteration_history)
        assert cold[0].inner_iteration_total == warm[0].inner_iteration_total + probe
        assert again[0].inner_iteration_total == cold[0].inner_iteration_total
        # The probe's passes and a capped first run are not retries.
        assert cold[0].inner_retries == warm[0].inner_retries == again[0].inner_retries

    def test_short_inner_runs_compute_no_seed(self):
        # Every inner run on tridiag8 stays below 2k iterations, so no run
        # reaches the point where a seed is adopted.
        p = gen_tridiag8(2000)
        rep, _, probe = final_run(p, gen_x0(2000, 1))
        assert rep.status is SolveStatus.CONVERGED
        assert max(rep.inner_iteration_history) < 2 * solvers.DEFLATION_K
        assert probe == 0
        assert p not in core._memos

    def test_no_seed_up_to_the_basis_size(self):
        n = solvers.DEFLATION_BASIS
        p = small_random_problem(0, n=n)
        rep, _, probe = final_run(p, gen_x0(n, 1))
        assert max(rep.inner_iteration_history) >= 2 * solvers.DEFLATION_K
        assert probe == 0
        assert kept_seed(p) is None

    def test_seed_is_read_only_and_dies_with_its_problem(self):
        clear_factorization()
        p = small_random_problem(1, n=200)
        final_run(p, gen_x0(200, 1))
        Y, W, gain = kept_seed(p)
        assert Y.shape == W.shape == (200, solvers.DEFLATION_K)
        for a in (Y, W):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0
        npt.assert_allclose(W.T @ W, np.eye(solvers.DEFLATION_K), atol=1e-10)
        alive = weakref.ref(p)
        del p
        gc.collect()
        assert alive() is None
        assert len(core._memos) == 0


def newton_seed_problem():
    return gen_random_sparse(GeneratorSpec(family="random", n=200, sigma_min_target=3.5, seed=1))


# Two inexact-newton runs of newton_seed_problem() from gen_x0(200, 1100)
# at epsilon 1e-8, printed as JSON: with the seed (gain about 1e12), and
# with SEED_GAIN_GATE raised above every gain.  The child pins BLAS to one
# thread, as the benchmark does, because it generates its instance: the
# generator's dense LU rounds differently on more threads, and with it every
# entry of A and b.  On one loaded instance the LSQR runs do not depend on
# the thread count (test_lsqr_methods_do_not_depend_on_blas_threads).
_PINNED_NEWTON_CHILD = """
import hashlib, json, math
from avesolve import solvers
from avesolve.generators import gen_x0
from avesolve.solvers import SolverConfig, clear_factorization, run_solver
from tests.test_solvers import newton_seed_problem

out = {}
for name, gate in (("seeded", solvers.SEED_GAIN_GATE), ("gated", math.inf)):
    solvers.SEED_GAIN_GATE = gate
    clear_factorization()
    xs = []
    rep = run_solver("inexact-newton", newton_seed_problem(), SolverConfig(epsilon=1e-8),
                     x0=gen_x0(200, 1100), callback=lambda k, x: xs.append(x))
    out[name] = [rep.status.value, rep.iterations, rep.inner_iteration_history,
                 rep.inner_iteration_total, hashlib.sha256(xs[-1].tobytes()).hexdigest()]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def pinned_newton_runs():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {**os.environ, **dict.fromkeys(threads, "1"),
           "PYTHONPATH": os.pathsep.join([os.path.join(root, "src"), root])}
    out = subprocess.run([sys.executable, "-c", _PINNED_NEWTON_CHILD], env=env, cwd=root,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


# Both LSQR methods on the bundle given as argv[1], from gen_x0(n, 1100) at
# epsilon 1e-8: status, steps, inner iterations and the final iterate's
# SHA-256, printed as JSON.
_LOADED_LSQR_CHILD = """
import hashlib, json, sys
from avesolve import SolverConfig, gen_x0, load_problem, run_solver

p = load_problem(sys.argv[1])
out = {}
for method in ("inexact-drs", "inexact-newton"):
    xs = []
    rep = run_solver(method, p, SolverConfig(epsilon=1e-8), x0=gen_x0(p.n, 1100),
                     callback=lambda k, x: xs.append(x))
    out[method] = [rep.status.value, rep.iterations, rep.inner_iteration_total,
                   hashlib.sha256(xs[-1].tobytes()).hexdigest()]
print(json.dumps(out))
"""


def test_lsqr_methods_do_not_depend_on_blas_threads(tmp_path):
    """On one loaded instance, inexact-drs and inexact-newton end on the
    same iterate, bit for bit, on one and on two OpenBLAS threads.  The
    methods that factor A densely are left out: LAPACK's LU may round
    differently on another thread count."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    save_problem(gen_random_sparse(GeneratorSpec(family="random", n=600, sigma_min_target=3.5,
                                                 seed=1)), tmp_path / "p")
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS"), threads),
               "PYTHONPATH": os.path.join(root, "src")}
        out = subprocess.run([sys.executable, "-c", _LOADED_LSQR_CHILD, str(tmp_path / "p")],
                             env=env, capture_output=True, text=True, check=True).stdout
        runs.append(json.loads(out))
    assert runs[0] == runs[1]
    for status, steps, inner, _ in runs[0].values():
        assert status == "Converged" and steps > 1 and inner > 1000


class TestNewtonSeed:
    """inexact-newton runs read the kept seed, rebase it onto each sign
    pattern's matrix, and never write to it."""

    def test_seeded_run_pinned(self, pinned_newton_runs):
        probe = solvers.SEED_PASSES * solvers.DEFLATION_BASIS
        assert pinned_newton_runs["seeded"] == [
            "Converged", 4, [0, 70, 61, 63, 60], 254 + probe,
            "7c926b1cc4829c3d0e3f1dafb9b523fb818168bfea31a09b070f4b1c4d5ff5cb",
        ]

    def test_seed_below_the_gain_gate_keeps_the_plain_runs(self, pinned_newton_runs):
        # The history and iterate of the runs before inexact-newton read any
        # seed: a first run capped at 2k and then resumed is one plain run.
        probe = solvers.SEED_PASSES * solvers.DEFLATION_BASIS
        assert pinned_newton_runs["gated"] == [
            "Converged", 4, [0, 326, 344, 344, 30], 1044 + probe,
            "f6b8bfb8243801919fcc58cccdbddf73a22736b523e71d6e45a45ccd758c47bc",
        ]

    def test_kept_seed_moves_no_iterate(self):
        p = newton_seed_problem()
        x0 = gen_x0(200, 1100)
        clear_factorization()
        cold = final_run(p, x0, "inexact-newton", 1e-8)
        seed = kept_seed(p)
        assert seed.gain > solvers.SEED_GAIN_GATE
        warm = final_run(p, x0, "inexact-newton", 1e-8)
        assert kept_seed(p) is seed
        clear_factorization()
        again = final_run(p, x0, "inexact-newton", 1e-8)
        probe = solvers.SEED_PASSES * solvers.DEFLATION_BASIS
        assert [run[2] for run in (cold, warm, again)] == [probe, 0, probe]
        for rep, digest, _ in (warm, again):
            assert rep.status is cold[0].status is SolveStatus.CONVERGED
            assert rep.residual_history == cold[0].residual_history
            assert rep.inner_iteration_history == cold[0].inner_iteration_history
            assert digest == cold[1]
        assert warm[0].inner_iteration_total == sum(warm[0].inner_iteration_history)
        assert cold[0].inner_iteration_total == warm[0].inner_iteration_total + probe
        assert again[0].inner_iteration_total == cold[0].inner_iteration_total
        # The probe's passes and a capped first run are not retries.
        assert cold[0].inner_retries == warm[0].inner_retries == again[0].inner_retries

    def test_short_inner_runs_compute_no_seed(self):
        # The certify benchmark's tridiag8 solve: 24 LSQR iterations over 13
        # steps, none near 2k, so the counts and the iterate are those of
        # the runs before inexact-newton read a seed.
        clear_factorization()
        p = gen_tridiag8(1000)
        rep, digest, probe = final_run(p, gen_x0(1000, 1), "inexact-newton", 1e-8)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations == 13
        assert rep.inner_iteration_history == [0, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 1, 2, 2]
        assert rep.inner_iteration_total == 24
        assert digest == "328910b07cb6aad87d67f4ae9cea088f459065d31eeec66d24666d8fd3f284c4"
        assert probe == 0
        assert len(core._memos) == 0


def fixed_theta_newton_run(p):
    """inexact-newton on ``p`` from gen_x0(200, 1100) at theta 0.1, which
    crosses five sign patterns; the report and how many it crossed."""
    xs = []
    rep = run_solver("inexact-newton", p, SolverConfig(theta=0.1, epsilon=1e-8),
                     x0=gen_x0(200, 1100), callback=lambda k, x: xs.append(np.sign(x)))
    patterns = 1 + sum(not np.array_equal(a, b) for a, b in zip(xs[:-2], xs[1:-1]))
    return rep, patterns


class TestOneSpacePerRun:
    """An inexact run keeps one Deflation space: inexact-newton retargets
    it at each sign pattern, and the gain gate binds only that policy."""

    def test_drs_adopts_the_seed_whatever_its_gain(self, monkeypatch):
        p = newton_seed_problem()
        x0 = gen_x0(200, 1100)
        clear_factorization()
        default = final_run(p, x0)
        monkeypatch.setattr(solvers, "SEED_GAIN_GATE", math.inf)
        clear_factorization()
        ungated = final_run(p, x0)
        probe = solvers.SEED_PASSES * solvers.DEFLATION_BASIS
        assert default[2] == ungated[2] == probe
        assert default[0].status is ungated[0].status is SolveStatus.CONVERGED
        assert ungated[0].residual_history == default[0].residual_history
        assert ungated[0].iterate_norm_history == default[0].iterate_norm_history
        assert ungated[0].inner_iteration_history == default[0].inner_iteration_history
        assert ungated[1] == default[1]

    def test_newton_run_builds_one_space_and_one_transpose(self, monkeypatch):
        p = newton_seed_problem()
        # The probe builds a space and a transpose of its own; keep it first.
        core.kept(p, solvers.deflation_seed)
        built, transposes = [], []

        class Counted(Deflation):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        def counted_transposed(A):
            transposes.append(1)
            return transposed(A)

        monkeypatch.setattr(solvers, "Deflation", Counted)
        monkeypatch.setattr(solvers, "transposed", counted_transposed)
        rep, patterns = fixed_theta_newton_run(p)
        assert rep.status is SolveStatus.CONVERGED
        assert patterns >= 2
        assert len(built) == len(transposes) == 1

    def test_no_resume_follows_a_pattern_change(self, monkeypatch):
        p = newton_seed_problem()
        core.kept(p, solvers.deflation_seed)
        events = []
        retarget = Deflation.retarget

        def marked(self, shift):
            events.append("retarget")
            retarget(self, shift)

        def recorded(*args, **kwargs):
            events.append("resume" if kwargs.get("resume") is not None else "fresh")
            return lsqr_solve(*args, **kwargs)

        monkeypatch.setattr(Deflation, "retarget", marked)
        monkeypatch.setattr(solvers, "lsqr_solve", recorded)
        rep, patterns = fixed_theta_newton_run(p)
        assert rep.status is SolveStatus.CONVERGED
        # A new space is aimed at its first pattern by retarget too.
        assert events.count("retarget") == patterns >= 2
        assert "resume" in events
        for before, after in zip(events, events[1:]):
            if before == "retarget":
                assert after == "fresh"

    def test_finished_runs_free_their_spaces_without_the_cycle_collector(self, monkeypatch):
        spaces = []

        class Tracked(Deflation):
            def __init__(self, *args, **kwargs):
                spaces.append(weakref.ref(self))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(solvers, "Deflation", Tracked)
        p = newton_seed_problem()
        clear_factorization()
        gc.disable()
        try:
            fixed_theta_newton_run(p)
            final_run(p, gen_x0(200, 1100))
            alive = [ref() is not None for ref in spaces]
        finally:
            gc.enable()
        # The probe's, the Newton run's and the drs run's.
        assert alive == [False, False, False]

    def test_retargeted_space_solves_as_a_new_one(self):
        rng = np.random.default_rng(32)
        A = rng.standard_normal((40, 40)) + 8.0 * np.eye(40)
        rhs, x = rng.standard_normal(40), rng.standard_normal(40)
        s1, s2 = np.sign(rng.standard_normal((2, 40)))
        space = Deflation(A, shift=s1)
        _, first = space.solve(rhs, x, 1e-12, 3)
        assert first.stop_reason is LsqrStop.MAX_ITER and first.state is not None
        space.retarget(s2)
        assert space.res is None and not space.exhausted
        cand, res = space.solve(rhs, x, 1e-12, 3)
        new_cand, new = Deflation(A, shift=s2).solve(rhs, x, 1e-12, 3)
        npt.assert_array_equal(cand, new_cand)
        assert res.iterations == new.iterations == 3


# Seeded n=60 solves from x0 = gen_x0(60, 1) with the default config:
# (solver, sigma_min target, margin, iterations, inner iteration history,
# SHA-256 of the final iterate's bytes).  Recorded from the LSQR that
# recomputed the true residual on every inner iteration; pinned so that
# skipping that recomputation while the recurrence estimate is far above
# the target never moves an inner stop.  The inexact-drs rows were
# re-recorded when its inner solves began to recycle a deflation space
# (23 -> 23 outer steps and 823 -> 402 inner iterations; 25 -> 24 and
# 950 -> 407; final iterates moved by at most 2e-11 and 5e-10).  The
# inexact-newton row was re-recorded when steps with an unchanged sign
# pattern began to resume the previous step's LSQR run (5 -> 5 outer steps
# and 351 -> 208 inner iterations; the final iterate moved by at most
# 1.7e-11).
PINNED_INEXACT_RUNS = [
    (
        "inexact-drs", 3.5, 0.05, 23,
        [0, 1, 2, 3, 6, 11, 14, 19, 29, 46, 7, 8, 9, 15, 19, 22, 23, 26, 25, 27,
         20, 24, 21, 25],
        "8a243d7ce41a96a250dd72788595ef206b6208ce6974466eea8c06863db8cf4c",
    ),
    (
        "inexact-drs", 1.0, 0.0, 24,
        [0, 1, 2, 3, 6, 11, 14, 19, 27, 45, 5, 9, 11, 16, 19, 21, 22, 17, 22,
         19, 25, 20, 26, 24, 23],
        "d32431da98a7607dc809914c763fb445ac16737212868d7d4e4bbc1a9c0d20ba",
    ),
    (
        "inexact-newton", 3.5, 0.05, 5,
        [0, 50, 75, 76, 4, 3],
        "2ca656d5d4a2bb2f39b9fcc549435d0f2d598a88309d668ee510664c092ab53f",
    ),
]


@pytest.mark.parametrize(
    "method, sigma, margin, iterations, inner_history, x_digest",
    PINNED_INEXACT_RUNS,
    ids=["drs-sigma3.5", "drs-sigma1-margin0", "newton-sigma3.5"],
)
def test_inexact_iterates_pinned(method, sigma, margin, iterations, inner_history, x_digest):
    p = gen_random_sparse(
        GeneratorSpec(family="random", n=60, sigma_min_target=sigma, margin=margin, seed=0)
    )
    xs = []
    rep = run_solver(method, p, SolverConfig(), x0=gen_x0(60, 1),
                     callback=lambda k, x: xs.append(x.copy()))
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations == iterations
    assert rep.inner_iteration_history == inner_history
    assert hashlib.sha256(xs[-1].tobytes()).hexdigest() == x_digest


# Seeded n=60 solves on gen_random_sparse (sigma_min target 3.5, margin
# 0.05, seed 0) from x0 = gen_x0(60, 1) with the default config:
# (method, iterations, SHA-256 of the final iterate's bytes).  At 10 % fill
# the LU stays in dense storage; recorded before banded sparse matrices got
# their own storage, so that choice may not move a dense factorization.
# fixed-point-inverse was recorded while it had a step function of its own,
# before it ran as drs with gamma = 2 nu.
PINNED_DENSE_LU_RUNS = [
    ("drs", 9, "30f844bf686f9e265c39dfc7026bcd263a2961b02fe92bbd64614b924a742d42"),
    ("sor-like", 15, "64f3755b5216ce8b1e82ee4da42ca0e57035c10f2de56a4c29752157ec19e6e1"),
    ("newton", 3, "430c251bcc9fba432f8544465de142e8850051628ad7381f2ca298afda98f166"),
    ("fixed-point-inverse", 44, "d8d134eb89f60968d96c8cec4e59537b540897e18aecce58b8099e16d50448f9"),
]


@pytest.mark.parametrize(
    "method, iterations, x_digest",
    PINNED_DENSE_LU_RUNS,
    ids=["drs", "sor-like", "newton", "fixed-point-inverse"],
)
def test_dense_lu_iterates_pinned(method, iterations, x_digest):
    p = gen_random_sparse(
        GeneratorSpec(family="random", n=60, sigma_min_target=3.5, margin=0.05, seed=0)
    )
    xs = []
    rep = run_solver(method, p, SolverConfig(), x0=gen_x0(60, 1),
                     callback=lambda k, x: xs.append(x.copy()))
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations == iterations
    assert hashlib.sha256(xs[-1].tobytes()).hexdigest() == x_digest


def test_tridiag_direct_solves_in_linear_memory():
    # Dense storage of this matrix would take 80 GB, so the layout is
    # checked before anything is factored.
    n = 100_000
    p = gen_tridiag8(n)
    assert band_layout(p.A) == (1, 1)
    assert lu_factor(p.A).lu.nbytes <= 4 * 8 * n
    x0 = gen_x0(n, seed=0)
    for method in ("drs", "sor-like", "newton"):
        rep = run_solver(method, p, SolverConfig(), x0=x0)
        assert rep.status is SolveStatus.CONVERGED, method
        assert rep.final_residual_norm <= 1e-8


class TestNewton:
    def test_one_dimensional_two_step_trace(self):
        # A = [2], b = [1], x0 = -1: the generalized step gives 1/3, then 1.
        p = AveProblem(np.array([[2.0]]), np.array([1.0]))
        seen = []
        rep = run_solver("newton", p, x0=np.array([-1.0]), callback=lambda k, x: seen.append(x[0]))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations == 2
        npt.assert_allclose(seen, [-1.0, 1.0 / 3.0, 1.0], rtol=1e-15)
        assert rep.final_residual_norm == 0.0

    def test_exact_converges_on_random(self):
        p = small_random_problem(10, n=60, target=3.2)
        rep = run_solver("newton", p, SolverConfig(max_iter=50), seed=11)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations <= 50

    def test_singular_generalized_jacobian(self):
        # A - diag(sign(x0)) is singular for positive starts.
        p = AveProblem(np.diag([2.0, 1.0]), np.ones(2))
        rep = run_solver("newton", p, x0=np.array([1.0, 1.0]))
        assert rep.status is SolveStatus.SINGULAR_SYSTEM

    def test_inexact_zero_theta_delegates_to_exact(self):
        p = small_random_problem(11, n=30, target=3.2)
        x0 = gen_x0(30, seed=12)
        rep_in = run_solver("inexact-newton", p, SolverConfig(theta=0.0), x0=x0)
        rep_ex = run_solver("newton", p, SolverConfig(), x0=x0)
        npt.assert_array_equal(
            np.array(rep_in.residual_history), np.array(rep_ex.residual_history)
        )

    def test_inexact_auto_theta_converges(self):
        p = small_random_problem(12, n=40, target=3.2)
        rep = run_solver("inexact-newton", p, SolverConfig(max_iter=50), x0=gen_x0(40, seed=13))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.inner_iteration_total > 0

    def test_auto_theta_value_against_norm_oracles(self):
        p = small_random_problem(13, n=30, target=3.5)
        theta = resolve_newton_theta(p, SolverConfig())
        A = p.A.toarray()
        s = np.linalg.svd(A, compute_uv=False)
        inv_norm, norm_a = 1.0 / s[-1], s[0]
        expected = 0.9999 * (1.0 - 3.0 * inv_norm) / (inv_norm * (norm_a + 3.0))
        assert theta == pytest.approx(expected, rel=1e-4)
        assert 0.0 < theta < 1.0

    @pytest.mark.parametrize("p, rel", [(gen_tridiag8(60), 1e-2),
                                        (small_random_problem(13, n=30, target=3.5), 1e-6)],
                             ids=["tridiag8", "random"])
    def test_check_solvability_theta_is_conservative(self, p, rel):
        # The report's bounds lie on the safe side of the estimates the
        # derived theta comes from; on tridiag8 Johnson's bound gives
        # sigma_min >= 6 against a true 6.0026.
        rep = check_solvability(p)
        from_report = 0.9999 * (1.0 - 3.0 * rep.inv_norm) / (rep.inv_norm * (rep.norm_A + 3.0))
        theta = resolve_newton_theta(p, SolverConfig())
        assert from_report <= theta
        assert from_report == pytest.approx(theta, rel=rel)

    def test_theta_undefined_when_inverse_too_large(self):
        # sigma_min = 1 means ||A^-1|| = 1 >= 1/3.
        p = AveProblem(np.array([[1.0, 2.0], [-2.0 / 3.0, 1.0]]), np.zeros(2))
        assert resolve_newton_theta(p, SolverConfig()) is None
        rep = run_solver("inexact-newton", p, x0=np.zeros(2))
        assert rep.status is SolveStatus.THETA_UNDEFINED
        assert rep.iterations == 0

    def test_theta_undefined_on_singular(self):
        p = AveProblem(np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2))
        assert resolve_newton_theta(p, SolverConfig()) is None

    def test_exact_stagnates_on_repeated_sign_pattern(self):
        # The residual freezes above epsilon from k = 3 on; the run used to
        # spend max_iter = 1000 factorizations there.
        p = gen_random_sparse(
            GeneratorSpec(family="random", n=200, sigma_min_target=3.5, seed=1)
        )
        xs = []
        rep = run_solver("newton", p, SolverConfig(), x0=gen_x0(200, 0), callback=lambda k, x: xs.append(x))
        assert rep.status is SolveStatus.STAGNATED
        assert rep.iterations <= 5
        assert rep.final_residual_norm > SolverConfig().epsilon
        s = np.sign(xs[-1])
        npt.assert_array_equal(s, np.sign(xs[-2]))
        npt.assert_array_equal(lu_solve(lu_factor(p.A, shift=s), p.b), xs[-1])

    def test_inexact_stagnates_below_roundoff_floor(self):
        # epsilon far below the roundoff floor of the system: once the run of
        # the settled sign pattern stops at Roundoff the solve ends, instead
        # of max_iter steps of 10 n inner iterations each.
        p = gen_random_sparse(
            GeneratorSpec(family="random", n=40, sigma_min_target=3.5, margin=0.05, seed=0)
        )
        rep = run_solver("inexact-newton", p, SolverConfig(epsilon=1e-14), x0=gen_x0(40, 1))
        assert rep.status is SolveStatus.STAGNATED
        assert rep.iterations <= 10
        assert rep.inner_iteration_total <= 10 * 40

    def test_inexact_stagnates_on_a_step_that_gains_nothing(self):
        # epsilon below the floor eps (||A|| ||x|| + ||b||), about 2e-9: the
        # pattern's resumed run stops at ResidualTol at once and the iterate
        # freezes with no Roundoff stop, where a run without the rule on
        # ||e|| spends its 1000 steps.
        p = gen_random_sparse(GeneratorSpec(family="random", n=200, sigma_min_target=3.5))
        rep = run_solver("inexact-newton", p, SolverConfig(epsilon=1e-10, theta=0.1),
                         x0=gen_x0(200, 0))
        assert rep.status is SolveStatus.STAGNATED
        assert rep.iterations <= 20
        assert rep.inner_iteration_total <= 10 * 200
        assert rep.residual_history[-1] >= rep.residual_history[-2]

    def test_unchanged_pattern_steps_resume_the_run(self):
        p = gen_random_sparse(
            GeneratorSpec(family="random", n=60, sigma_min_target=3.5, margin=0.05, seed=0)
        )
        signs = []
        rep = run_solver("inexact-newton", p, SolverConfig(), x0=gen_x0(60, 1),
                         callback=lambda k, x: signs.append(np.sign(x)))
        assert rep.status is SolveStatus.CONVERGED
        # The step from x^k produces iterate k + 1.
        resumed = [k + 1 for k in range(1, rep.iterations)
                   if np.array_equal(signs[k], signs[k - 1])]
        assert resumed
        assert all(rep.inner_iteration_history[k] <= 10 for k in resumed)

    def test_explicit_theta_residual_bound_each_step(self):
        p = small_random_problem(14, n=25, target=3.4)
        theta = 0.05
        xs = []
        rep = run_solver("inexact-newton", p, SolverConfig(theta=theta, max_iter=50),
                         x0=gen_x0(25, seed=14),
                         callback=lambda k, x: xs.append(x.copy()))
        assert rep.status is SolveStatus.CONVERGED
        A = p.A.toarray()
        for k in range(len(xs) - 1):
            e = residual(p, xs[k])
            s = np.sign(xs[k])
            r = A @ xs[k + 1] - s * xs[k + 1] - p.b
            assert norm2(r) <= theta * norm2(e) * (1.0 + 1e-10)


@pytest.mark.parametrize(
    "method, cfg, estimates, bounds",
    [
        ("inexact-newton", SolverConfig(), 1, 0),
        ("inexact-newton", SolverConfig(theta=0.05), 0, 0),
        ("inexact-drs", SolverConfig(), 0, 0),
        ("inexact-drs", SolverConfig(alpha_mode="theoretical", mu=1.0), 0, 1),
        ("inexact-drs", SolverConfig(alpha_mode="theoretical", mu=1.0,
                                     G=GMatrix.diagonal(np.linspace(1.0, 2.0, 40))), 0, 1),
    ],
    ids=["newton-derived-theta", "newton-fixed-theta", "drs-heuristic",
         "drs-theoretical", "drs-theoretical-diagonal-metric"],
)
def test_norm_estimates_per_inexact_solve(monkeypatch, method, cfg, estimates, bounds):
    """Only a derived theta estimates ||A||, once per solve; the theoretical
    alpha reads the upper bound on ||G A|| instead, also once per solve:
    from the problem's kept interval under the identity metric, from the
    interval of G A under a diagonal one."""
    calls = {"estimate": 0, "bounds": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(solvers, "matrix_norm2_estimate",
                        counting("estimate", solvers.matrix_norm2_estimate))
    for name in ("spectral_interval", "singular_value_bounds"):
        monkeypatch.setattr(solvers, name, counting("bounds", getattr(solvers, name)))
    p = small_random_problem(12, n=40, target=3.2)
    run_solver(method, p, replace(cfg, max_iter=3), x0=gen_x0(40, seed=13))
    assert calls == {"estimate": estimates, "bounds": bounds}


class TestSorLike:
    def test_hand_iterates(self):
        # A = 2I, b = 0, omega = 1: x halves every second step via y = |x|.
        p = AveProblem(2.0 * np.eye(2), np.zeros(2))
        seen = []
        run_solver("sor-like", p, SolverConfig(omega=1.0), x0=np.array([2.0, -2.0]),
                   callback=lambda k, x: seen.append(x.copy()))
        npt.assert_array_equal(seen[1], [1.0, -1.0])
        npt.assert_array_equal(seen[2], [0.5, 0.5])
        npt.assert_array_equal(seen[3], [0.25, 0.25])

    def test_converges_with_default_relaxation(self):
        p = small_random_problem(15, n=45)
        rep = run_solver("sor-like", p, SolverConfig(), seed=16)
        assert rep.status is SolveStatus.CONVERGED

    def test_singular_status(self):
        p = AveProblem(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))
        rep = run_solver("sor-like", p, x0=np.ones(2))
        assert rep.status is SolveStatus.SINGULAR_SYSTEM


class TestFixedPoint:
    def test_forward_hand_step(self):
        # x1 = x0 - nu e(x0) with e(x0) = (1, -3).
        p = AveProblem(2.0 * np.eye(2), np.zeros(2))
        seen = []
        run_solver("fixed-point", p, SolverConfig(nu=0.4), x0=np.array([1.0, -1.0]),
                   callback=lambda k, x: seen.append(x.copy()))
        npt.assert_allclose(seen[1], [0.6, 0.2], rtol=1e-15)

    def test_forward_converges_in_contractive_regime(self):
        p = AveProblem(1.2 * np.eye(8), np.linspace(-1, 1, 8))
        rep = run_solver("fixed-point", p, SolverConfig(nu=0.4), x0=np.zeros(8))
        assert rep.status is SolveStatus.CONVERGED

    def test_inverse_variant_matches_halved_relaxation_drs(self):
        """Preconditioned variant with nu = gamma/2 replays the exact splitting."""
        p = small_random_problem(16, n=35)
        x0 = gen_x0(35, seed=17)
        rep_fpi = run_solver("fixed-point-inverse", p, SolverConfig(nu=0.5), x0=x0)
        rep_drs = run_solver("drs", p, SolverConfig(gamma=1.0), x0=x0)
        npt.assert_array_equal(
            np.array(rep_fpi.residual_history), np.array(rep_drs.residual_history)
        )
        npt.assert_array_equal(
            np.array(rep_fpi.iterate_norm_history), np.array(rep_drs.iterate_norm_history)
        )

    def test_inverse_converges(self):
        p = small_random_problem(17, n=30)
        rep = run_solver("fixed-point-inverse", p, SolverConfig(nu=0.6), seed=18)
        assert rep.status is SolveStatus.CONVERGED


class TestRunSolver:
    def test_unknown_method(self):
        p = gen_tridiag8(6)
        with pytest.raises(ValueError, match="method"):
            run_solver("gradient-descent", p, seed=0)

    def test_x0_xor_seed(self):
        p = gen_tridiag8(6)
        with pytest.raises(ValueError):
            run_solver("drs", p)
        with pytest.raises(ValueError):
            run_solver("drs", p, x0=np.zeros(6), seed=1)

    def test_seeded_start_deterministic(self):
        p = small_random_problem(18, n=20)
        rep1 = run_solver("drs", p, seed=42)
        rep2 = run_solver("drs", p, seed=42)
        npt.assert_array_equal(
            np.array(rep1.residual_history), np.array(rep2.residual_history)
        )

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_non_finite_x0_rejected(self, method):
        # Unchecked, a NaN start runs max_iter steps to a NaN residual, or
        # reaches LSQR as a NaN target.
        p = gen_tridiag8(10)
        x0 = np.zeros(10)
        x0[3] = np.nan
        with pytest.raises(ValueError, match="x0 has non-finite entries"):
            run_solver(method, p, x0=x0)

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_metric_length_must_match(self, method, size):
        # Unchecked, one entry broadcasts as G = c I and three fail inside NumPy.
        p = gen_tridiag8(10)
        cfg = SolverConfig(G=GMatrix.diagonal(np.ones(size)))
        with pytest.raises(ValueError, match=f"G diagonal has length {size}, expected 10"):
            run_solver(method, p, cfg, x0=np.zeros(10))

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_every_method_runs_on_well_posed_problem(self, method):
        p = small_random_problem(19, n=24, target=3.4)
        cfg = SolverConfig(max_iter=300, nu=0.5)
        rep = run_solver(method, p, cfg, x0=p.known_solution)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations == 0


class TestFactorizations:
    """``SolveReport.factorizations`` on runs whose LU count is known by
    hand; a fresh problem's ``A`` is never in the factorization slot."""

    def test_drs_factors_once_then_reuses(self):
        p = gen_tridiag8(4)
        first = run_solver("drs", p, x0=np.zeros(4))
        again = run_solver("drs", p, x0=np.zeros(4))
        assert (first.factorizations, again.factorizations) == (1, 0)
        assert again.residual_history == first.residual_history

    def test_sor_like_after_drs_reuses(self):
        p = gen_tridiag8(4)
        run_solver("drs", p, x0=np.zeros(4))
        assert run_solver("sor-like", p, x0=np.zeros(4)).factorizations == 0

    def test_cleared_slot_factors_again(self):
        p = gen_tridiag8(4)
        run_solver("drs", p, x0=np.zeros(4))
        clear_factorization()
        assert run_solver("sor-like", p, x0=np.zeros(4)).factorizations == 1

    def test_newton_factors_every_step(self):
        p = small_random_problem(10, n=60, target=3.2)
        rep = run_solver("newton", p, SolverConfig(max_iter=50), seed=11)
        assert rep.status is SolveStatus.CONVERGED and rep.iterations >= 2
        assert rep.factorizations == rep.iterations

    def test_newton_leaves_the_slot_empty(self):
        # A step's factors of A - diag(s) are dropped once it has solved
        # with them, and its factorization empties the slot first.
        p = small_random_problem(10, n=60, target=3.2)
        run_solver("drs", p, SolverConfig(max_iter=5), seed=11)
        assert linalg.lu_slot is not None
        run_solver("newton", p, SolverConfig(max_iter=50), seed=11)
        assert linalg.lu_slot is None

    def test_newton_restart_after_stagnation_factors_its_pattern(self):
        # The stagnated run's last pattern is not kept, so a run from its
        # final iterate factors it again, and ends as that run did.
        p = gen_random_sparse(
            GeneratorSpec(family="random", n=200, sigma_min_target=1.5, seed=1)
        )
        cfg = SolverConfig(epsilon=1e-8)
        xs = []
        first = run_solver("newton", p, cfg, x0=gen_x0(200, 0), callback=lambda k, x: xs.append(x))
        assert first.status is SolveStatus.STAGNATED
        again = run_solver("newton", p, cfg, x0=xs[-1], callback=lambda k, x: xs.append(x))
        assert again.status is SolveStatus.STAGNATED
        assert again.factorizations == again.iterations == 1
        assert again.residual_history == [first.residual_history[-1]] * 2
        assert again.iterate_norm_history == [first.iterate_norm_history[-1]] * 2
        assert xs[-1].tobytes() == xs[-3].tobytes()

    @pytest.mark.parametrize("method, cfg", [
        ("inexact-drs", SolverConfig()),
        ("fixed-point", SolverConfig(max_iter=5)),
        ("inexact-newton", SolverConfig(theta=0.1)),
    ])
    def test_lu_free_methods_factor_nothing(self, method, cfg):
        p = gen_tridiag8(4)
        assert run_solver(method, p, cfg, x0=np.zeros(4)).factorizations == 0

    def test_derived_theta_counts_its_estimate(self):
        # sigma_min_estimate factors A once; the steps use LSQR.
        rep = run_solver("inexact-newton", gen_tridiag8(4), x0=np.zeros(4))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.factorizations == 1


def test_write_report_trace_roundtrip(tmp_path):
    p = gen_tridiag8(14)
    rep = run_solver("drs", p, x0=np.zeros(14))
    path = tmp_path / "trace.csv"
    write_report_trace(rep, path)
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["iteration", "residual_norm", "iterate_norm", "inner_iterations"]
    assert len(rows) - 1 == rep.iterations + 1
    got = [float(r[1]) for r in rows[1:]]
    npt.assert_array_equal(np.array(got), np.array(rep.residual_history))
