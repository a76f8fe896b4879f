import csv
import hashlib
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from avesolve import solvers
from avesolve.core import AveProblem, GMatrix, check_solvability, residual, theta_k
from avesolve.generators import (
    GeneratorSpec,
    gen_no_solution_1d,
    gen_random_sparse,
    gen_tridiag8,
    gen_x0,
)
from avesolve.linalg import (
    SingularMatrixError,
    band_layout,
    lu_factor,
    lu_operand,
    lu_solve,
    norm2,
)
from avesolve.lsqr import as_operator, lsqr_solve
from avesolve.solvers import (
    ContinuedRun,
    Deflation,
    InnerSolverStallError,
    _solve_to_criterion,
    Method,
    SolveStatus,
    SolverConfig,
    ThetaUndefinedError,
    _heuristic_alpha,
    drs_exact,
    drs_inexact,
    fixed_point,
    fixed_point_inverse,
    newton_exact,
    newton_inexact,
    resolve_newton_theta,
    run_solver,
    sor_like,
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
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SolverConfig(**kwargs)

    def test_accepts_numpy_scalars_and_int_floats(self):
        cfg = SolverConfig(gamma=np.float64(1.5), max_iter=np.int64(7), mu=2, k_max=np.int32(3))
        assert (cfg.gamma, cfg.max_iter, cfg.mu, cfg.k_max) == (1.5, 7, 2, 3)

    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.gamma == 1.98
        assert cfg.G.is_identity


class TestDrsExact:
    def test_first_step_closed_form(self):
        """One step agrees with an independently evaluated update formula."""
        p = small_random_problem(1, n=20)
        x0 = gen_x0(20, seed=5)
        rep = drs_exact(p, SolverConfig(gamma=1.6, max_iter=1), x0=x0)
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
        rep = drs_exact(p, x0=p.known_solution)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations == 0

    def test_callback_sees_every_iterate(self):
        p = gen_tridiag8(16)
        seen = []
        rep = drs_exact(p, x0=np.zeros(16), callback=lambda k, x: seen.append((k, x.copy())))
        assert [k for k, _ in seen] == list(range(rep.iterations + 1))
        npt.assert_array_equal(seen[0][1], np.zeros(16))

    def test_singular_matrix_status(self):
        p = AveProblem(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))
        rep = drs_exact(p, x0=np.ones(2))
        assert rep.status is SolveStatus.SINGULAR_SYSTEM
        assert rep.iterations == 0

    def test_weighted_metric_converges(self):
        p = small_random_problem(3, n=25)
        G = GMatrix.diagonal(np.linspace(0.5, 2.0, 25))
        rep = drs_exact(p, SolverConfig(gamma=1.5, G=G), x0=gen_x0(25, seed=9))
        assert rep.status is SolveStatus.CONVERGED

    def test_fejer_monotonicity_in_weighted_norm(self):
        """||A(x_k - x*)||_G^2 decreases by at least the guaranteed amount."""
        p = small_random_problem(4, n=30)
        gamma = 1.8
        G = GMatrix.identity()
        xs = []
        drs_exact(p, SolverConfig(gamma=gamma, G=G), x0=gen_x0(30, seed=4),
                  callback=lambda k, x: xs.append(x.copy()))
        xstar = p.known_solution
        A = p.A.toarray()
        lead = gamma * (2.0 - gamma) / 4.0
        vals = [G.norm_sq(A @ (x - xstar)) for x in xs]
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
        rep = drs_exact(p, cfg, x0=np.zeros(1), callback=lambda k, x: seen.append(x[0]))
        assert rep.status is SolveStatus.DIVERGED
        for k, v in enumerate(seen):
            assert v == k / 2.0
        assert seen[-1] >= 50.0
        assert rep.iterations == 100

    def test_max_iter_status(self):
        p = gen_no_solution_1d()
        rep = drs_exact(p, SolverConfig(gamma=1.0, max_iter=7), x0=np.zeros(1))
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
        rep = drs_inexact(p, cfg, x0=gen_x0(30, seed=7),
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
        rep = drs_inexact(p, cfg, x0=gen_x0(25, seed=8))
        assert rep.status is SolveStatus.CONVERGED

    def test_theoretical_mode_unbounded_mu_matches_exact(self):
        """mu = inf collapses the tolerance to zero: direct-solve fallback."""
        p = small_random_problem(8, n=20)
        x0 = gen_x0(20, seed=9)
        cfg = SolverConfig(alpha_mode="theoretical", mu=np.inf, gamma=1.7)
        rep_in = drs_inexact(p, cfg, x0=x0)
        rep_ex = drs_exact(p, SolverConfig(gamma=1.7), x0=x0)
        assert rep_in.status is SolveStatus.CONVERGED
        npt.assert_array_equal(
            np.array(rep_in.residual_history), np.array(rep_ex.residual_history)
        )

    def test_theoretical_mode_requires_mu(self):
        p = small_random_problem(8, n=10)
        cfg = SolverConfig(alpha_mode="theoretical")
        with pytest.raises(ValueError, match="mu"):
            drs_inexact(p, cfg, x0=np.zeros(10))

    def test_inner_solver_stall_raises(self):
        # One inner iteration per attempt cannot hit a near-exact tolerance.
        p = small_random_problem(9, n=5)
        cfg = SolverConfig(alpha_mode="theoretical", mu=1e12, inner_max_iter=1)
        with pytest.raises(InnerSolverStallError):
            drs_inexact(p, cfg, x0=gen_x0(5, seed=10))

    def test_roundoff_floor_accepts_machine_exact_candidate(self):
        # An unreachable bound must not stall once the candidate residual
        # is at the roundoff scale of the system.
        space = ContinuedRun(as_operator(np.eye(2)))
        rhs = np.array([1.0, -2.0])
        sol, _ = _solve_to_criterion(
            space, rhs, np.zeros(2), 0.0, lambda cand: False, 50, "probe", 1.0
        )
        npt.assert_allclose(sol, rhs, rtol=0, atol=1e-12)

    def test_inexact_finishes_when_late_bounds_fall_below_roundoff(self):
        # Badly scaled draw: near convergence alpha * ||e|| drops under
        # eps * (||A|| ||x|| + ||rhs||), so the last steps are solvable
        # only to roundoff; the run must converge rather than stall.
        p = gen_random_sparse(
            GeneratorSpec(family="random", n=200, sigma_min_target=1.05, seed=3)
        )
        rep = drs_inexact(p, SolverConfig(), x0=gen_x0(200, seed=1003))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.final_residual_norm <= 1e-8


class TestDeflation:
    def test_exact_space_reaches_target_in_fewer_iterations(self):
        rng = np.random.default_rng(30)
        n, k = 60, 8
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = q1 @ np.diag(np.geomspace(1e3, 1.0, n)) @ q2.T
        U, s, Vt = scipy.linalg.svd(A)
        space = Deflation(A, k=k, Y=Vt[-k:].T / s[-k:], W=U[:, -k:])
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
        """Through a ContinuedRun, the retry resumes the first attempt's
        LSQR run at half the target, bit for bit."""
        rng = np.random.default_rng(31)
        A = rng.standard_normal((40, 40)) + 8.0 * np.eye(40)
        rhs = rng.standard_normal(40)
        x = rng.standard_normal(40)
        target = 1e-3 * norm2(rhs)
        first = lsqr_solve(A, rhs, target, x0=x, max_iter=400)
        second = lsqr_solve(A, rhs, 0.5 * target, max_iter=400, resume=first)
        seen = []

        def accepts(cand):
            seen.append(cand)
            return len(seen) == 2

        sol, inner = _solve_to_criterion(
            ContinuedRun(as_operator(A)), rhs, x, target, accepts, 400, "probe", 10.0
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
        for space, attempts in [
            (ContinuedRun(as_operator(A)), 1),
            (Deflation(A, k=2), 1),
            (Deflation(A, k=2, Y=np.eye(4)[:, :2] / [1.0, 2.0], W=np.eye(4)[:, :2]), 2),
        ]:
            calls.clear()
            sol, _ = _solve_to_criterion(space, rhs, np.zeros(4), 0.0, never, 50, "probe", 8.0)
            npt.assert_allclose(A @ sol, rhs, rtol=0, atol=1e-12)
            assert len(calls) == attempts

    def test_recycling_halves_inner_iterations(self, monkeypatch):
        p = gen_random_sparse(
            GeneratorSpec(family="random", n=200, sigma_min_target=1.05, seed=0)
        )
        x0 = gen_x0(200, seed=1000)
        recycled = drs_inexact(p, SolverConfig(), x0=x0)
        # Without a harvest the space stays empty, and every inner solve is
        # plain warm-started LSQR.
        monkeypatch.setattr(Deflation, "_harvest", lambda self, res: None)
        plain = drs_inexact(p, SolverConfig(), x0=x0)
        assert recycled.status is plain.status is SolveStatus.CONVERGED
        assert recycled.iterations <= plain.iterations
        assert 2 * recycled.inner_iteration_total <= plain.inner_iteration_total


# Seeded n=60 solves from x0 = gen_x0(60, 1) with the default config:
# (solver, sigma_min target, margin, iterations, inner iteration history,
# SHA-256 of the final iterate's bytes).  Recorded from the LSQR that
# recomputed the true residual on every inner iteration; pinned so that
# skipping that recomputation while the recurrence estimate is far above
# the target never moves an inner stop.  The drs_inexact rows were
# re-recorded when its inner solves began to recycle a deflation space
# (23 -> 23 outer steps and 823 -> 402 inner iterations; 25 -> 24 and
# 950 -> 407; final iterates moved by at most 2e-11 and 5e-10).  The
# newton_inexact row was re-recorded when steps with an unchanged sign
# pattern began to resume the previous step's LSQR run (5 -> 5 outer steps
# and 351 -> 208 inner iterations; the final iterate moved by at most
# 1.7e-11).
PINNED_INEXACT_RUNS = [
    (
        drs_inexact, 3.5, 0.05, 23,
        [0, 1, 2, 3, 6, 11, 14, 19, 29, 46, 7, 8, 9, 15, 19, 22, 23, 26, 25, 27,
         20, 24, 21, 25],
        "8a243d7ce41a96a250dd72788595ef206b6208ce6974466eea8c06863db8cf4c",
    ),
    (
        drs_inexact, 1.0, 0.0, 24,
        [0, 1, 2, 3, 6, 11, 14, 19, 27, 45, 5, 9, 11, 16, 19, 21, 22, 17, 22,
         19, 25, 20, 26, 24, 23],
        "d32431da98a7607dc809914c763fb445ac16737212868d7d4e4bbc1a9c0d20ba",
    ),
    (
        newton_inexact, 3.5, 0.05, 5,
        [0, 50, 75, 76, 4, 3],
        "2ca656d5d4a2bb2f39b9fcc549435d0f2d598a88309d668ee510664c092ab53f",
    ),
]


@pytest.mark.parametrize(
    "solver, sigma, margin, iterations, inner_history, x_digest",
    PINNED_INEXACT_RUNS,
    ids=["drs-sigma3.5", "drs-sigma1-margin0", "newton-sigma3.5"],
)
def test_inexact_iterates_pinned(solver, sigma, margin, iterations, inner_history, x_digest):
    p = gen_random_sparse(
        GeneratorSpec(family="random", n=60, sigma_min_target=sigma, margin=margin, seed=0)
    )
    xs = []
    rep = solver(p, SolverConfig(), x0=gen_x0(60, 1), callback=lambda k, x: xs.append(x.copy()))
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations == iterations
    assert rep.inner_iteration_history == inner_history
    assert hashlib.sha256(xs[-1].tobytes()).hexdigest() == x_digest


# Seeded n=60 solves on gen_random_sparse (sigma_min target 3.5, margin
# 0.05, seed 0) from x0 = gen_x0(60, 1) with the default config:
# (solver, iterations, SHA-256 of the final iterate's bytes).  At 10 % fill
# the LU stays in dense storage; recorded before banded sparse matrices got
# their own storage, so that choice may not move a dense factorization.
# fixed_point_inverse was recorded while it had a step function of its own,
# before it ran as drs_exact with gamma = 2 nu.
PINNED_DENSE_LU_RUNS = [
    (drs_exact, 9, "30f844bf686f9e265c39dfc7026bcd263a2961b02fe92bbd64614b924a742d42"),
    (sor_like, 15, "64f3755b5216ce8b1e82ee4da42ca0e57035c10f2de56a4c29752157ec19e6e1"),
    (newton_exact, 3, "430c251bcc9fba432f8544465de142e8850051628ad7381f2ca298afda98f166"),
    (fixed_point_inverse, 44, "d8d134eb89f60968d96c8cec4e59537b540897e18aecce58b8099e16d50448f9"),
]


@pytest.mark.parametrize(
    "solver, iterations, x_digest",
    PINNED_DENSE_LU_RUNS,
    ids=["drs", "sor-like", "newton", "fixed-point-inverse"],
)
def test_dense_lu_iterates_pinned(solver, iterations, x_digest):
    p = gen_random_sparse(
        GeneratorSpec(family="random", n=60, sigma_min_target=3.5, margin=0.05, seed=0)
    )
    xs = []
    rep = solver(p, SolverConfig(), x0=gen_x0(60, 1), callback=lambda k, x: xs.append(x.copy()))
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
        rep = newton_exact(p, x0=np.array([-1.0]), callback=lambda k, x: seen.append(x[0]))
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
        rep = newton_exact(p, x0=np.array([1.0, 1.0]))
        assert rep.status is SolveStatus.SINGULAR_SYSTEM

    def test_inexact_zero_theta_delegates_to_exact(self):
        p = small_random_problem(11, n=30, target=3.2)
        x0 = gen_x0(30, seed=12)
        rep_in = newton_inexact(p, SolverConfig(theta=0.0), x0=x0)
        rep_ex = newton_exact(p, SolverConfig(), x0=x0)
        npt.assert_array_equal(
            np.array(rep_in.residual_history), np.array(rep_ex.residual_history)
        )

    def test_inexact_auto_theta_converges(self):
        p = small_random_problem(12, n=40, target=3.2)
        rep = newton_inexact(p, SolverConfig(max_iter=50), x0=gen_x0(40, seed=13))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.inner_iteration_total > 0

    def test_auto_theta_value_against_norm_oracles(self):
        p = small_random_problem(13, n=30, target=3.5)
        theta = resolve_newton_theta(p, SolverConfig())[0]
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
        theta = resolve_newton_theta(p, SolverConfig())[0]
        assert from_report <= theta
        assert from_report == pytest.approx(theta, rel=rel)

    def test_theta_undefined_when_inverse_too_large(self):
        # sigma_min = 1 means ||A^-1|| = 1 >= 1/3.
        p = AveProblem(np.array([[1.0, 2.0], [-2.0 / 3.0, 1.0]]), np.zeros(2))
        with pytest.raises(ThetaUndefinedError):
            resolve_newton_theta(p, SolverConfig())[0]
        with pytest.raises(ThetaUndefinedError):
            newton_inexact(p, x0=np.zeros(2))

    def test_theta_undefined_on_singular(self):
        p = AveProblem(np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2))
        with pytest.raises(ThetaUndefinedError):
            resolve_newton_theta(p, SolverConfig())[0]

    def test_exact_stagnates_on_repeated_sign_pattern(self):
        # The residual freezes above epsilon from k = 3 on; the run used to
        # spend max_iter = 1000 factorizations there.
        p = gen_random_sparse(
            GeneratorSpec(family="random", n=200, sigma_min_target=3.5, seed=1)
        )
        xs = []
        rep = newton_exact(p, SolverConfig(), x0=gen_x0(200, 0), callback=lambda k, x: xs.append(x))
        assert rep.status is SolveStatus.STAGNATED
        assert rep.iterations <= 5
        assert rep.final_residual_norm > SolverConfig().epsilon
        s = np.sign(xs[-1])
        npt.assert_array_equal(s, np.sign(xs[-2]))
        npt.assert_array_equal(lu_solve(lu_factor(lu_operand(p.A), shift=s), p.b), xs[-1])

    def test_inexact_stagnates_below_roundoff_floor(self):
        # epsilon far below the roundoff floor of the system: once the run of
        # the settled sign pattern stops at Roundoff the solve ends, instead
        # of max_iter steps of 10 n inner iterations each.
        p = gen_random_sparse(
            GeneratorSpec(family="random", n=40, sigma_min_target=3.5, margin=0.05, seed=0)
        )
        rep = newton_inexact(p, SolverConfig(epsilon=1e-14), x0=gen_x0(40, 1))
        assert rep.status is SolveStatus.STAGNATED
        assert rep.iterations <= 10
        assert rep.inner_iteration_total <= 10 * 40

    def test_unchanged_pattern_steps_resume_the_run(self):
        p = gen_random_sparse(
            GeneratorSpec(family="random", n=60, sigma_min_target=3.5, margin=0.05, seed=0)
        )
        signs = []
        rep = newton_inexact(p, SolverConfig(), x0=gen_x0(60, 1),
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
        rep = newton_inexact(p, SolverConfig(theta=theta, max_iter=50),
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
    "solver, cfg, estimates",
    [
        (newton_inexact, SolverConfig(), 1),
        (newton_inexact, SolverConfig(theta=0.05), 1),
        (drs_inexact, SolverConfig(), 1),
        (drs_inexact, SolverConfig(alpha_mode="theoretical", mu=1.0), 1),
        (drs_inexact, SolverConfig(alpha_mode="theoretical", mu=1.0,
                                   G=GMatrix.diagonal(np.linspace(1.0, 2.0, 40))), 2),
    ],
    ids=["newton-derived-theta", "newton-fixed-theta", "drs-heuristic",
         "drs-theoretical", "drs-theoretical-diagonal-metric"],
)
def test_norm_estimates_per_inexact_solve(monkeypatch, solver, cfg, estimates):
    """Each solve estimates ||A|| once; a diagonal metric adds ||G A||."""
    calls = []
    estimate = solvers.matrix_norm2_estimate

    def counting(A, **kwargs):
        calls.append(A)
        return estimate(A, **kwargs)

    monkeypatch.setattr(solvers, "matrix_norm2_estimate", counting)
    p = small_random_problem(12, n=40, target=3.2)
    solver(p, replace(cfg, max_iter=3), x0=gen_x0(40, seed=13))
    assert len(calls) == estimates


class TestSorLike:
    def test_hand_iterates(self):
        # A = 2I, b = 0, omega = 1: x halves every second step via y = |x|.
        p = AveProblem(2.0 * np.eye(2), np.zeros(2))
        seen = []
        sor_like(p, SolverConfig(omega=1.0), x0=np.array([2.0, -2.0]),
                 callback=lambda k, x: seen.append(x.copy()))
        npt.assert_array_equal(seen[1], [1.0, -1.0])
        npt.assert_array_equal(seen[2], [0.5, 0.5])
        npt.assert_array_equal(seen[3], [0.25, 0.25])

    def test_converges_with_default_relaxation(self):
        p = small_random_problem(15, n=45)
        rep = run_solver("sor-like", p, SolverConfig(), seed=16)
        assert rep.status is SolveStatus.CONVERGED

    def test_explicit_y0(self):
        p = gen_tridiag8(12)
        rep = sor_like(p, SolverConfig(omega=1.0), x0=np.zeros(12), y0=np.abs(p.known_solution))
        assert rep.status is SolveStatus.CONVERGED

    def test_singular_status(self):
        p = AveProblem(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))
        rep = sor_like(p, x0=np.ones(2))
        assert rep.status is SolveStatus.SINGULAR_SYSTEM

    def test_non_finite_y0_rejected(self):
        p = gen_tridiag8(10)
        with pytest.raises(ValueError, match="y0 has non-finite entries"):
            sor_like(p, x0=np.zeros(10), y0=np.full(10, np.inf))


class TestFixedPoint:
    def test_forward_hand_step(self):
        # x1 = x0 - nu e(x0) with e(x0) = (1, -3).
        p = AveProblem(2.0 * np.eye(2), np.zeros(2))
        seen = []
        fixed_point(p, SolverConfig(nu=0.4), x0=np.array([1.0, -1.0]),
                    callback=lambda k, x: seen.append(x.copy()))
        npt.assert_allclose(seen[1], [0.6, 0.2], rtol=1e-15)

    def test_forward_converges_in_contractive_regime(self):
        p = AveProblem(1.2 * np.eye(8), np.linspace(-1, 1, 8))
        rep = fixed_point(p, SolverConfig(nu=0.4), x0=np.zeros(8))
        assert rep.status is SolveStatus.CONVERGED

    def test_inverse_variant_matches_halved_relaxation_drs(self):
        """Preconditioned variant with nu = gamma/2 replays the exact splitting."""
        p = small_random_problem(16, n=35)
        x0 = gen_x0(35, seed=17)
        rep_fpi = fixed_point_inverse(p, SolverConfig(nu=0.5), x0=x0)
        rep_drs = drs_exact(p, SolverConfig(gamma=1.0), x0=x0)
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
    def test_metric_length_must_match(self, size):
        # Unchecked, one entry broadcasts as G = c I and three fail inside NumPy.
        p = gen_tridiag8(10)
        cfg = SolverConfig(G=GMatrix.diagonal(np.ones(size)))
        with pytest.raises(ValueError, match=f"G diagonal has length {size}, expected 10"):
            drs_exact(p, cfg, x0=np.zeros(10))

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_every_method_runs_on_well_posed_problem(self, method):
        p = small_random_problem(19, n=24, target=3.4)
        cfg = SolverConfig(max_iter=300, nu=0.5)
        rep = run_solver(method, p, cfg, x0=p.known_solution)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations == 0


def test_write_report_trace_roundtrip(tmp_path):
    p = gen_tridiag8(14)
    rep = drs_exact(p, x0=np.zeros(14))
    path = tmp_path / "trace.csv"
    write_report_trace(rep, path)
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["iteration", "residual_norm", "iterate_norm", "inner_iterations"]
    assert len(rows) - 1 == rep.iterations + 1
    got = [float(r[1]) for r in rows[1:]]
    npt.assert_array_equal(np.array(got), np.array(rep.residual_history))
