import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.sparse as sp

from avesolve.linalg import norm2
from avesolve.lsqr import LsqrStop, MatOperator, as_operator, lsqr_solve
from avesolve.solvers import Deflation


def conditioned_system(rng, n, cond):
    """Square system with prescribed condition number via an SVD product."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.geomspace(cond, 1.0, n)
    return q1 @ np.diag(s) @ q2.T


def counting_operator(A):
    """``as_operator(A)`` behind a wrapper that counts products."""
    inner = as_operator(A)
    counts = {"matvec": 0, "rmatvec": 0}

    def mv(v):
        counts["matvec"] += 1
        return inner.matvec(v)

    def rmv(v):
        counts["rmatvec"] += 1
        return inner.rmatvec(v)

    return MatOperator(inner.shape, mv, rmv), counts


class TestBasicSolves:
    def test_identity_one_iteration(self):
        rhs = np.array([3.0, -1.0, 2.0])
        res = lsqr_solve(np.eye(3), rhs, 1e-10 * norm2(rhs))
        assert res.stop_reason is LsqrStop.RESIDUAL_TOL
        assert res.iterations == 1
        npt.assert_allclose(res.solution, rhs, rtol=1e-12)

    def test_diagonal(self):
        A = np.diag([2.0, 4.0])
        rhs = np.array([2.0, 8.0])
        res = lsqr_solve(A, rhs, 1e-10 * norm2(rhs))
        npt.assert_allclose(res.solution, [1.0, 2.0], rtol=1e-9)
        assert res.stop_reason is LsqrStop.RESIDUAL_TOL

    def test_sparse_operator(self):
        A = sp.diags([-1.0, 8.0, -1.0], [-1, 0, 1], shape=(60, 60), format="csr")
        rhs = np.ones(60)
        res = lsqr_solve(A, rhs, 1e-10 * norm2(rhs))
        assert norm2(A @ res.solution - rhs) <= 1e-8 * norm2(rhs)

    @pytest.mark.parametrize("seed", range(6))
    def test_against_lu_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        A = conditioned_system(rng, n, cond=float(rng.uniform(1.0, 1e3)))
        x_true = rng.standard_normal(n)
        rhs = A @ x_true
        res = lsqr_solve(A, rhs, 1e-12 * norm2(rhs))
        oracle = np.linalg.solve(A, rhs)
        assert norm2(res.solution - oracle) <= 1e-6 * (1.0 + norm2(oracle))

    def test_least_squares_rectangular(self):
        # Overdetermined: minimiser and residual come from the lstsq oracle.
        # The minimum residual is far above a zero target, so the run ends
        # on its iteration cap or a breakdown.
        rng = np.random.default_rng(11)
        A = rng.standard_normal((15, 6))
        rhs = rng.standard_normal(15)
        res = lsqr_solve(A, rhs, 0.0, max_iter=200)
        assert res.stop_reason in (LsqrStop.MAX_ITER, LsqrStop.BREAKDOWN)
        oracle = np.linalg.lstsq(A, rhs, rcond=None)[0]
        npt.assert_allclose(res.solution, oracle, atol=1e-8)


class TestWarmStart:
    def test_exact_start_zero_iterations(self):
        rng = np.random.default_rng(3)
        A = conditioned_system(rng, 20, 10.0)
        x_true = rng.standard_normal(20)
        rhs = A @ x_true
        res = lsqr_solve(A, rhs, 1e-10 * norm2(rhs), x0=x_true)
        assert res.iterations == 0
        assert res.stop_reason is LsqrStop.RESIDUAL_TOL
        npt.assert_array_equal(res.solution, x_true)

    def test_near_start_faster_than_cold(self):
        rng = np.random.default_rng(4)
        A = conditioned_system(rng, 40, 50.0)
        x_true = rng.standard_normal(40)
        rhs = A @ x_true
        target = 1e-10 * norm2(rhs)
        cold = lsqr_solve(A, rhs, target)
        warm = lsqr_solve(A, rhs, target, x0=x_true + 1e-9 * rng.standard_normal(40))
        assert warm.iterations < cold.iterations
        assert norm2(A @ warm.solution - rhs) <= 1e-8 * norm2(rhs)


class TestDiagnostics:
    def test_trace_monotone_nonincreasing(self):
        rng = np.random.default_rng(6)
        A = conditioned_system(rng, 50, 800.0)
        rhs = rng.standard_normal(50)
        res = lsqr_solve(A, rhs, 1e-12 * norm2(rhs))
        vals = [v for _, v in res.trace]
        assert len(vals) == res.iterations + 1
        assert all(b <= a * (1 + 1e-15) for a, b in zip(vals, vals[1:]))
        iters = [k for k, _ in res.trace]
        assert iters == list(range(res.iterations + 1))

    def test_internal_estimate_matches_true_residual(self):
        rng = np.random.default_rng(7)
        A = conditioned_system(rng, 30, 100.0)
        rhs = rng.standard_normal(30)
        res = lsqr_solve(A, rhs, 1e-12 * norm2(rhs))
        true = norm2(A @ res.solution - rhs)
        phibar = res.trace[-1][1]
        assert abs(phibar - true) <= 1e-8 * (1.0 + norm2(rhs))


class TestStopping:
    def test_max_iter(self):
        rng = np.random.default_rng(8)
        A = conditioned_system(rng, 40, 1e3)
        rhs = rng.standard_normal(40)
        res = lsqr_solve(A, rhs, 1e-14 * norm2(rhs), max_iter=3)
        assert res.stop_reason is LsqrStop.MAX_ITER
        assert res.iterations == 3

    def test_breakdown_rhs_orthogonal_to_range(self):
        # A^T rhs = 0 makes the first bidiagonalization step collapse.
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        res = lsqr_solve(A, np.array([0.0, 1.0]), 1e-10)
        assert res.stop_reason is LsqrStop.BREAKDOWN
        npt.assert_array_equal(res.solution, [0.0, 0.0])

    def test_target_early_stop(self):
        rng = np.random.default_rng(9)
        A = conditioned_system(rng, 50, 500.0)
        rhs = rng.standard_normal(50)
        target = 0.1 * norm2(rhs)

        res = lsqr_solve(A, rhs, target)
        assert res.stop_reason is LsqrStop.RESIDUAL_TOL
        true = norm2(A @ res.solution - rhs)
        assert true <= target
        assert res.residual_norm == true
        tight = lsqr_solve(A, rhs, 1e-12 * norm2(rhs))
        assert res.iterations < tight.iterations

    def test_target_stop_reports_true_residual(self):
        # One target per LSQR estimate of a run to a tight target, so the
        # target stops spread over that run's iterations (its last is left
        # out: the tight run stopped there).
        rng = np.random.default_rng(10)
        A = conditioned_system(rng, 30, 200.0)
        rhs = rng.standard_normal(30)
        plain = lsqr_solve(A, rhs, 1e-12 * norm2(rhs))
        stops = set()
        for _, phibar in plain.trace[:-1]:
            res = lsqr_solve(A, rhs, phibar)
            assert res.stop_reason is LsqrStop.RESIDUAL_TOL
            true = norm2(A @ res.solution - rhs)
            assert abs(res.residual_norm - true) <= 1e-10 * (1.0 + norm2(rhs))
            assert true <= phibar
            stops.add(res.iterations)
        assert len(stops) > plain.iterations // 2

    def test_target_stop_is_first_iterate_below_target(self):
        rng = np.random.default_rng(13)
        A = conditioned_system(rng, 40, 1e2)
        rhs = rng.standard_normal(40)
        x0 = rng.standard_normal(40)
        target = 1e-6 * norm2(rhs)
        res = lsqr_solve(A, rhs, target, x0=x0, max_iter=500)
        assert res.stop_reason is LsqrStop.RESIDUAL_TOL
        assert norm2(rhs - A @ res.solution) <= target
        assert res.iterations > 1
        for k in range(1, res.iterations):
            early = lsqr_solve(A, rhs, 0.0, x0=x0, max_iter=k)
            assert early.iterations == k
            assert norm2(rhs - A @ early.solution) > target


class TestProductCounts:
    @pytest.mark.parametrize("fmt", ["csr", "csr-int64", "csr-array", "csc", "dense"])
    def test_as_operator_products_bit_equal(self, fmt):
        rng = np.random.default_rng(14)
        A = sp.random(80, 80, density=0.1, format="csr", random_state=rng) + sp.eye(80)
        A = A.tocsr()
        if fmt == "csr-int64":
            A.indices, A.indptr = A.indices.astype(np.int64), A.indptr.astype(np.int64)
        elif fmt == "csr-array":
            A = sp.csr_array(A)
        elif fmt == "csc":
            A = A.tocsc()
        elif fmt == "dense":
            A = A.toarray()
        op = as_operator(A)
        for _ in range(3):
            v = rng.standard_normal(80)
            assert op.rmatvec(v).tobytes() == (A.T @ v).tobytes()
            assert op.matvec(v).tobytes() == (A @ v).tobytes()

    def test_one_product_each_way_per_iteration(self):
        rng = np.random.default_rng(15)
        A = conditioned_system(rng, 40, 1e3)
        rhs = rng.standard_normal(40)
        op, counts = counting_operator(A)
        target = 1e-12 * norm2(rhs)
        res = lsqr_solve(op, rhs, target)
        assert res.iterations > 10
        # Besides one product each way per iteration, one matvec per
        # true-residual check, made where phibar <= 2 target.
        checks = sum(1 for _, phibar in res.trace[1:] if phibar <= 2.0 * target)
        assert 0 < checks < res.iterations
        assert counts == {"matvec": res.iterations + checks, "rmatvec": res.iterations + 1}

        op, counts = counting_operator(A)
        x0 = rng.standard_normal(40)
        res = lsqr_solve(op, rhs, 0.0, x0=x0, max_iter=25)
        assert res.stop_reason is LsqrStop.MAX_ITER
        assert counts == {"matvec": 26, "rmatvec": 26}

    def test_one_product_each_way_per_deflated_iteration(self, monkeypatch):
        """A deflated inner run, counted as the benchmark's tracer counts:
        by calls to MatOperator.matvec and rmatvec."""
        counts = {"matvec": 0, "rmatvec": 0}
        matvec, rmatvec = MatOperator.matvec, MatOperator.rmatvec

        def counted(name, method):
            def wrapper(self, v):
                counts[name] += 1
                return method(self, v)
            return wrapper

        monkeypatch.setattr(MatOperator, "matvec", counted("matvec", matvec))
        monkeypatch.setattr(MatOperator, "rmatvec", counted("rmatvec", rmatvec))
        rng = np.random.default_rng(18)
        n, k = 60, 4
        A = (sp.random(n, n, density=0.1, random_state=rng) + 4.0 * sp.eye(n)).tocsr()
        shift = np.sign(rng.standard_normal(n))
        space = Deflation(A, shift=shift)
        U, s, Vt = scipy.linalg.svd(A.toarray() - np.diag(shift))
        space.Y, space.W = Vt[-k:].T / s[-k:], U[:, -k:]
        counts.update(matvec=0, rmatvec=0)
        _, res = space.solve(rng.standard_normal(n), rng.standard_normal(n), 0.0, 25)
        assert space.deflated and res.stop_reason is LsqrStop.MAX_ITER
        # Beside one product each way per iteration and LSQR's first rmatvec,
        # the start y0, its residual r0 and the candidate take one matvec each.
        assert counts == {"matvec": 25 + 3, "rmatvec": 25 + 1}

    def test_target_checks_true_residual_only_near_target(self):
        rng = np.random.default_rng(16)
        A = conditioned_system(rng, 60, 1e3)
        rhs = rng.standard_normal(60)
        op, counts = counting_operator(A)
        target = 1e-8 * norm2(rhs)
        res = lsqr_solve(op, rhs, target)
        assert res.stop_reason is LsqrStop.RESIDUAL_TOL
        assert res.iterations > 10
        assert counts["rmatvec"] == res.iterations + 1
        assert counts["matvec"] < 2 * res.iterations


class TestKeepBasis:
    @pytest.mark.parametrize("warm", [False, True])
    def test_recording_leaves_solution_bit_identical(self, warm):
        rng = np.random.default_rng(17)
        A = conditioned_system(rng, 50, 1e3)
        rhs = rng.standard_normal(50)
        x0 = rng.standard_normal(50) if warm else None
        kw = dict(target=1e-9 * norm2(rhs), x0=x0)
        plain = lsqr_solve(A, rhs, **kw)
        for m in (5, plain.iterations, plain.iterations + 40):
            kept = lsqr_solve(A, rhs, keep_basis=m, **kw)
            npt.assert_array_equal(kept.solution, plain.solution)
            assert kept.iterations == plain.iterations
            assert kept.residual_norm == plain.residual_norm
            V, B = kept.basis
            j = min(m, plain.iterations)
            assert V.shape == (50, j) and B.shape == (j + 1, j)
        assert plain.basis is None

    @pytest.mark.parametrize("seed", range(3))
    def test_ritz_values_inside_singular_range(self, seed):
        """The singular values of B are Ritz values of A: inside
        [sigma_min(A), ||A||] up to rounding, even after the Lanczos vectors
        have lost orthogonality."""
        rng = np.random.default_rng(18 + seed)
        A = conditioned_system(rng, 60, 300.0)
        rhs = rng.standard_normal(60)
        res = lsqr_solve(A, rhs, 0.0, max_iter=80, keep_basis=80)
        V, B = res.basis
        assert V.shape == (60, 80) and B.shape == (81, 80)
        sv = np.linalg.svd(A, compute_uv=False)
        ritz = np.linalg.svd(B, compute_uv=False)
        assert ritz.min() >= sv[-1] * (1.0 - 1e-8)
        assert ritz.max() <= sv[0] * (1.0 + 1e-8)


class TestResume:
    @pytest.mark.parametrize("first_stop", ["target", "max_iter"])
    def test_resumed_run_is_one_run(self, first_stop):
        rng = np.random.default_rng(20)
        A = conditioned_system(rng, 50, 1e2)
        rhs = rng.standard_normal(50)
        x0 = rng.standard_normal(50)
        target = 1e-9 * norm2(rhs)
        one = lsqr_solve(A, rhs, target, x0=x0, max_iter=500)
        if first_stop == "target":
            part = lsqr_solve(A, rhs, 1e-3 * norm2(rhs), x0=x0, max_iter=500)
        else:
            part = lsqr_solve(A, rhs, target, x0=x0, max_iter=20)
        assert 0 < part.iterations < one.iterations
        rest = lsqr_solve(A, rhs, target, max_iter=500, resume=part)
        npt.assert_array_equal(rest.solution, one.solution)
        assert part.iterations + rest.iterations == one.iterations
        assert rest.residual_norm == one.residual_norm
        assert rest.stop_reason is LsqrStop.RESIDUAL_TOL
        # The state moved on with the resumed run.
        assert part.state is None and rest.state is not None
        with pytest.raises(ValueError, match="cannot resume"):
            lsqr_solve(A, rhs, target, max_iter=500, resume=part)
        with pytest.raises(ValueError, match="x0"):
            lsqr_solve(A, rhs, target, x0=x0, max_iter=500, resume=rest)

    def test_breakdown_is_not_resumable(self):
        res = lsqr_solve(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([0.0, 1.0]), 1e-10)
        assert res.stop_reason is LsqrStop.BREAKDOWN
        assert res.state is None

    def test_resumed_run_records_no_basis(self):
        # The first vector of a resumed run is not v_1, so the basis it would
        # record does not satisfy A V = U B.
        rng = np.random.default_rng(21)
        A = conditioned_system(rng, 30, 1e2)
        rhs = rng.standard_normal(30)
        part = lsqr_solve(A, rhs, 1e-9 * norm2(rhs), max_iter=5)
        assert part.state is not None
        with pytest.raises(ValueError, match="basis"):
            lsqr_solve(A, rhs, 1e-9 * norm2(rhs), keep_basis=10, resume=part)
        assert part.state is not None


class TestRoundoffStop:
    @pytest.mark.parametrize("seed", range(3))
    def test_never_fires_on_reachable_targets(self, seed):
        rng = np.random.default_rng(40 + seed)
        A = conditioned_system(rng, 40, 1e4)
        rhs = rng.standard_normal(40)
        x0 = rng.standard_normal(40)
        for rel in np.geomspace(1e-1, 1e-9, 9):
            res = lsqr_solve(A, rhs, rel * norm2(rhs), x0=x0, max_iter=400)
            assert res.stop_reason is LsqrStop.RESIDUAL_TOL

    @pytest.mark.parametrize("rel", [0.1 * np.finfo(float).eps, 1e-20])
    def test_fires_soon_on_unreachable_target(self, rel):
        rng = np.random.default_rng(40)
        A = conditioned_system(rng, 20, 10.0)
        rhs = rng.standard_normal(20)
        res = lsqr_solve(A, rhs, rel * norm2(rhs), max_iter=200)
        assert res.stop_reason is LsqrStop.ROUNDOFF
        assert res.iterations <= 50
        true = norm2(rhs - A @ res.solution)
        assert res.residual_norm == pytest.approx(true, rel=1e-12)
        eps = np.finfo(float).eps
        assert true <= 100 * eps * (10.0 * norm2(res.solution) + norm2(rhs))
        assert res.state is None


class TestOperatorAndOptions:
    def test_matrix_free_operator(self):
        rng = np.random.default_rng(12)
        A = conditioned_system(rng, 25, 40.0)
        op = as_operator(A)
        assert op.shape == (25, 25)
        rhs = rng.standard_normal(25)
        res_op = lsqr_solve(op, rhs, 1e-12 * norm2(rhs))
        res_mat = lsqr_solve(A, rhs, 1e-12 * norm2(rhs))
        npt.assert_array_equal(res_op.solution, res_mat.solution)

    @pytest.mark.parametrize(
        "target, max_iter, match",
        [
            (float("nan"), 10, "target"),
            (-1e-3, 10, "target"),
            (-np.inf, 10, "target"),
            (1e-8, 0, "max_iter"),
        ],
        ids=["nan-target", "negative-target", "minus-inf-target", "zero-max-iter"],
    )
    def test_rejects_invalid_arguments(self, target, max_iter, match):
        # A NaN or negative target never compares true, so without the check
        # the run would go on silently to MaxIter or Breakdown.
        with pytest.raises(ValueError, match=match):
            lsqr_solve(np.eye(3), np.ones(3), target, max_iter=max_iter)

    def test_zero_rhs_zero_solution(self):
        res = lsqr_solve(np.eye(5), np.zeros(5), 0.0)
        assert res.iterations == 0
        npt.assert_array_equal(res.solution, np.zeros(5))
