import dataclasses
import gc
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import avesolve.core as core
import avesolve.linalg as linalg
from avesolve.core import (
    BANACH_NU,
    AveProblem,
    GMatrix,
    Regime,
    ZeroResidualError,
    check_solvability,
    glcp_maps,
    residual,
    residual_via_projection,
    rho,
    spectral_interval,
    theta_k,
)
from avesolve.generators import GeneratorSpec, gen_random_sparse, gen_tridiag8
from avesolve.linalg import band_layout, norm2, singular_value_bounds
from avesolve.solvers import SolverConfig, clear_factorization, run_solver


def random_problem(seed, n=10, scale=3.0):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (n, n)) + scale * np.eye(n)
    b = rng.uniform(-5.0, 5.0, n)
    return AveProblem(A, b), rng


class TestResidual:
    def test_hand_example(self):
        # A x = (-2, 1), |x| = (1, 2), so e = (-3.5, -0.5).
        p = AveProblem(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, -0.5]))
        npt.assert_array_equal(residual(p, np.array([1.0, -2.0])), [-3.5, -0.5])

    def test_zero_at_known_solution(self):
        p = gen_tridiag8(8)
        assert norm2(residual(p, p.known_solution)) <= 1e-12

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000))
    def test_lipschitz_bound(self, seed):
        """||e(x) - e(y)|| <= (||A|| + 1) ||x - y||, with ||A|| bounded from above."""
        p, rng = random_problem(seed)
        x = rng.uniform(-10.0, 10.0, 10)
        y = rng.uniform(-10.0, 10.0, 10)
        lhs = norm2(residual(p, x) - residual(p, y))
        bound = (singular_value_bounds(p.A)[3] + 1.0) * norm2(x - y)
        assert lhs <= bound * (1.0 + 1e-10) + 1e-12


class TestGlcpMaps:
    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000))
    def test_difference_and_sum(self, seed):
        p, rng = random_problem(seed)
        x = rng.uniform(-10.0, 10.0, 10)
        q, f = glcp_maps(p, x)
        scale = 1.0 + norm2(x) + norm2(q) + norm2(f)
        npt.assert_allclose(q - f, 2.0 * x, rtol=0, atol=1e-12 * scale)
        ax_b = p.A @ x - p.b
        npt.assert_allclose(q + f, 2.0 * ax_b, rtol=0, atol=1e-12 * scale)

    def test_complementarity_at_solution(self):
        p = gen_tridiag8(20)
        q, f = glcp_maps(p, p.known_solution)
        assert q.min() >= -1e-12
        assert f.min() >= -1e-12
        assert abs(q @ f) <= 1e-10

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 10_000))
    def test_projection_identity(self, seed):
        """Residual equals its min-map reformulation everywhere."""
        p, rng = random_problem(seed)
        x = rng.uniform(-50.0, 50.0, 10)
        e = residual(p, x)
        npt.assert_allclose(
            residual_via_projection(p, x), e, rtol=0, atol=1e-12 * (1.0 + norm2(e))
        )


class TestRho:
    def test_identity_exactly_one(self):
        assert rho(GMatrix.identity(), np.array([0.3, -4.0])) == 1.0

    def test_diagonal_hand_value(self):
        # ||e||^2 / (e^T G^-1 e) with G = diag(2, 8), e = (1, 1): 2 / 0.625.
        assert rho(GMatrix.diagonal(np.array([2.0, 8.0])), np.ones(2)) == pytest.approx(
            3.2, rel=1e-14
        )

    def test_zero_residual_raises(self):
        with pytest.raises(ZeroResidualError):
            rho(GMatrix.identity(), np.zeros(3))

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 15))
    def test_bounds_by_spectrum(self, seed, n):
        """min(d) <= rho <= max(d) for G = diag(d) and any nonzero e."""
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.1, 10.0, n)
        e = rng.uniform(-5.0, 5.0, n)
        e[0] = e[0] if e[0] != 0.0 else 1.0
        G = GMatrix.diagonal(d)
        r = rho(G, e)
        assert d.min() * (1 - 1e-12) <= r <= d.max() * (1 + 1e-12)


class TestThetaK:
    def test_one_dimensional_hand_value(self):
        # A = [1], b = 0, gamma = 1, G = I, xk = x = -1:
        # e(xk) = -1 - 1 = -2, so the value is 2(-1) - 2(-1) + 1*1*(-2) = -2.
        p = AveProblem(np.array([[1.0]]), np.array([0.0]))
        val = theta_k(p, GMatrix.identity(), 1.0, np.array([-1.0]), np.array([-1.0]))
        npt.assert_array_equal(val, [-2.0])

    def test_zero_at_exact_step_image(self):
        """The exact update is the root of the shifted linear map."""
        p, rng = random_problem(21, n=12)
        G = GMatrix.diagonal(rng.uniform(0.5, 2.0, 12))
        gamma = 1.7
        xk = rng.uniform(-3.0, 3.0, 12)
        e = residual(p, xk)
        step = np.linalg.solve(
            p.A, G.apply_inv(e)
        )  # independent route, no package LU
        xk1 = xk - 0.5 * gamma * rho(G, e) * step
        val = theta_k(p, G, gamma, xk, xk1)
        assert norm2(val) <= 1e-9 * (1.0 + norm2(e))

    def test_value_at_xk(self):
        """At x = xk the map reduces to gamma rho G^-1 e(xk)."""
        p, rng = random_problem(22, n=9)
        G = GMatrix.diagonal(rng.uniform(0.5, 2.0, 9))
        gamma = 1.3
        xk = rng.uniform(-3.0, 3.0, 9)
        e = residual(p, xk)
        expected = gamma * rho(G, e) * G.apply_inv(e)
        npt.assert_allclose(theta_k(p, G, gamma, xk, xk), expected, rtol=1e-13)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_step_map_bit_equal(self, sparse):
        """The per-step map gives the bits of the one-shot formula
        ``2 A x - 2 A xk + (gamma rho) G^-1 e(xk)``, evaluated left to right."""
        p, rng = random_problem(23, n=15)
        if sparse:
            p = AveProblem(sp.csr_matrix(p.A), p.b)
        G = GMatrix.diagonal(rng.uniform(0.5, 2.0, 15))
        gamma = 1.98
        xk = rng.uniform(-3.0, 3.0, 15)
        step_map = theta_k(p, G, gamma, xk)
        ek = residual(p, xk)
        for _ in range(3):
            x = rng.uniform(-3.0, 3.0, 15)
            expected = 2.0 * (p.A @ x) - 2.0 * (p.A @ xk) + (gamma * rho(G, ek)) * G.apply_inv(ek)
            npt.assert_array_equal(step_map(x), expected)
            npt.assert_array_equal(theta_k(p, G, gamma, xk, x), expected)


class TestMonotonicityInequalities:
    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 5_000))
    def test_residual_strong_monotonicity(self, seed):
        """<A(x - x*), e(x)> >= (||e||^2 + <d, (A^T A - I) d>) / 2 - slack."""
        spec = GeneratorSpec(family="random", n=30, sigma_min_target=1.2, seed=seed)
        p = gen_random_sparse(spec)
        rng = np.random.default_rng(seed + 1)
        x = p.known_solution + rng.uniform(-5.0, 5.0, 30)
        d = x - p.known_solution
        e = residual(p, x)
        Ad = p.A @ d
        lhs = float(Ad @ e)
        rhs = 0.5 * (float(e @ e) + float(Ad @ Ad) - float(d @ d))
        assert lhs >= rhs - 1e-8 * (1.0 + abs(lhs) + abs(rhs))

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 5_000))
    def test_gram_lower_bound_when_sigma_above_one(self, seed):
        spec = GeneratorSpec(family="random", n=25, sigma_min_target=1.3, seed=seed)
        p = gen_random_sparse(spec)
        rng = np.random.default_rng(seed + 2)
        d = rng.uniform(-2.0, 2.0, 25)
        Ad = p.A @ d
        assert float(Ad @ Ad) >= float(d @ d) * (1 - 1e-10)


class TestProblemValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            AveProblem(np.ones((2, 3)), np.ones(2))

    @pytest.mark.parametrize("A", [np.zeros((0, 0)), sp.csr_matrix((0, 0))], ids=["dense", "sparse"])
    def test_rejects_empty(self, A):
        with pytest.raises(ValueError, match="nonempty"):
            AveProblem(A, np.zeros(0))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            AveProblem(np.eye(3), np.ones(2))

    def test_rejects_non_finite(self):
        A = np.eye(2)
        A[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            AveProblem(A, np.ones(2))
        with pytest.raises(ValueError, match="finite"):
            AveProblem(np.eye(2), np.array([1.0, np.inf]))

    def test_rejects_false_known_solution(self):
        with pytest.raises(ValueError, match="known_solution"):
            AveProblem(2.0 * np.eye(2), np.ones(2), known_solution=np.ones(2) * 50.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_known_solution(self, bad):
        # A NaN residual compares False against any tolerance.
        with pytest.raises(ValueError, match="known_solution has non-finite"):
            AveProblem(2.0 * np.eye(2), np.ones(2), known_solution=[bad, 1.0])

    def test_accepts_true_known_solution(self):
        x = np.array([1.0, -2.0])
        A = 2.0 * np.eye(2)
        p = AveProblem(A, A @ x - np.abs(x), known_solution=x)
        npt.assert_array_equal(p.known_solution, x)

    def test_sparse_canonicalized_to_csr(self):
        A = sp.diags([4.0], [0], shape=(4, 4), format="coo")
        p = AveProblem(A, np.ones(4))
        assert p.A.format == "csr"

    def test_dense_carrier_fortran(self):
        p = AveProblem(np.eye(3, order="C"), np.ones(3))
        assert p.A.flags.f_contiguous

    def test_sparse_input_left_untouched_and_unshared(self):
        # A duplicate entry (0, 1) and unsorted column indices in row 0.
        A = sp.csr_matrix(
            (np.array([1.0, 3.0, 1.0, 5.0]), np.array([1, 0, 1, 1]), np.array([0, 3, 4])),
            shape=(2, 2),
        )
        before = [a.copy() for a in (A.data, A.indices, A.indptr)]
        p = AveProblem(A, np.ones(2))
        for now, then in zip((A.data, A.indices, A.indptr), before):
            npt.assert_array_equal(now, then)
        assert A.nnz == 4
        npt.assert_array_equal(p.A.toarray(), [[3.0, 2.0], [0.0, 5.0]])
        A.data[:] = 7.0
        npt.assert_array_equal(p.A.toarray(), [[3.0, 2.0], [0.0, 5.0]])

    def test_dense_input_unshared(self):
        # Fortran float64 input is the case a no-copy conversion would keep.
        A = np.asfortranarray(2.0 * np.eye(2))
        x = np.array([1.0, 0.5])
        b = A @ x - np.abs(x)
        p = AveProblem(A, b, known_solution=x)
        A[0, 1] = 9.0
        b[0] = 9.0
        x[0] = 9.0
        npt.assert_array_equal(p.A, 2.0 * np.eye(2))
        npt.assert_array_equal(p.b, [1.0, 0.5])
        npt.assert_array_equal(p.known_solution, [1.0, 0.5])


def final_iterate(p, x0):
    """The report of a ``drs`` run from ``x0`` and its last iterate."""
    seen = []
    rep = run_solver("drs", p, x0=x0, callback=lambda k, x: seen.append(x))
    return rep, seen[-1]


class TestReadOnlyMatrix:
    """A solver keeps the factorization of a problem's ``A`` between
    solves, so ``A`` must not change under it."""

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_in_place_edit_raises(self, storage):
        p, _ = random_problem(0, n=5)
        if storage == "csr":
            p = AveProblem(sp.csr_matrix(p.A), p.b)
            arrays = (p.A.data, p.A.indices, p.A.indptr)
        else:
            arrays = (p.A,)
        with pytest.raises(ValueError, match="read-only"):
            p.A[0, 0] = 9.0
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[1] = a[0]

    @pytest.mark.parametrize("name", ["A", "b", "known_solution"])
    def test_fields_cannot_be_reassigned(self, name):
        # A new matrix makes a new problem, so nothing kept for this one
        # can go stale.
        p = gen_tridiag8(6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, getattr(p, name).copy())

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_matrix_cannot_be_made_writable_again(self, storage):
        # Each array is a view of a read-only copy, so NumPy refuses the
        # flag flip that would let an edit reach a kept LU or interval.
        p, _ = random_problem(0, n=5)
        if storage == "csr":
            p = AveProblem(sp.csr_matrix(p.A), p.b)
            arrays = (p.A.data, p.A.indices, p.A.indptr)
        else:
            arrays = (p.A,)
        for a in arrays:
            with pytest.raises(ValueError, match="WRITEABLE"):
                a.flags.writeable = True

    @pytest.mark.parametrize("writable", [True, False], ids=["writable", "read-only"])
    def test_replaced_csr_arrays_miss(self, writable):
        # A CSR matrix can be given new arrays while it stays the same
        # object; neither its LU nor its interval may survive that.
        p, rng = random_problem(8, n=8)
        p = AveProblem(sp.csr_matrix(p.A), p.b)
        x0 = rng.uniform(-10.0, 10.0, 8)
        run_solver("drs", p, x0=x0)
        before = check_solvability(p)
        data = p.A.data * 2.0
        data.flags.writeable = writable
        p.A.data = data
        rep, x = final_iterate(p, x0)
        cold, x_cold = final_iterate(AveProblem(p.A, p.b), x0)
        assert rep.factorizations == 1
        npt.assert_array_equal(x, x_cold)
        after = check_solvability(p)
        assert after == check_solvability(AveProblem(p.A, p.b))
        assert after.sigma_min > 1.9 * before.sigma_min

    def test_edited_replacement_array_misses(self):
        # A CSR matrix given a writable data array can be edited in place
        # between solves, and can be given its own array back; neither its
        # LU nor its interval may survive either change.
        p, rng = random_problem(10, n=8)
        p = AveProblem(sp.csr_matrix(p.A), p.b)
        x0 = rng.uniform(-10.0, 10.0, 8)
        own = p.A.data
        first = run_solver("drs", p, x0=x0)
        before = check_solvability(p)
        p.A.data = own.copy()
        run_solver("drs", p, x0=x0)
        check_solvability(p)
        p.A.data *= 2.0
        doubled = AveProblem(p.A, p.b)
        rep, x = final_iterate(p, x0)
        assert check_solvability(p).sigma_min > 1.9 * before.sigma_min
        p.A.data = own
        again = run_solver("drs", p, x0=x0)
        assert again.factorizations == 1
        assert again.residual_history == first.residual_history
        assert check_solvability(p) == before
        cold, x_cold = final_iterate(doubled, x0)
        assert rep.factorizations == 1
        npt.assert_array_equal(x, x_cold)

    @pytest.mark.parametrize("convert", [sp.coo_matrix, sp.csc_matrix], ids=["coo", "csc"])
    def test_converted_sparse_matrix_is_kept(self, convert):
        # scipy's conversions can leave views; the problem's copy owns its
        # arrays, so the factorization is still kept.
        p, rng = random_problem(4, n=8)
        p = AveProblem(convert(p.A), p.b)
        x0 = rng.uniform(-10.0, 10.0, 8)
        reports = [run_solver("drs", p, x0=x0) for _ in range(2)]
        assert [r.factorizations for r in reports] == [1, 0]


class TestKeptInterval:
    """``check_solvability`` reads the interval of a problem's ``A`` from
    the memo of ``core.spectral_interval``."""

    @staticmethod
    def count_svdvals(monkeypatch) -> list:
        calls = []
        svdvals = scipy.linalg.svdvals

        def counting(*args, **kwargs):
            calls.append(1)
            return svdvals(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "svdvals", counting)
        return calls

    def test_hit_returns_the_same_tuple_without_svd(self, monkeypatch):
        p, _ = random_problem(5, n=12)
        clear_factorization()
        calls = self.count_svdvals(monkeypatch)
        first = spectral_interval(p)
        assert spectral_interval(p) is first
        assert calls == [1]
        assert check_solvability(p).sigma_min == first[0]

    def test_check_then_theoretical_alpha_share_one_svd(self, monkeypatch):
        # Certifying a problem and then running inexact-drs with the
        # theoretical alpha reads the interval of the same A twice.
        p = gen_random_sparse(GeneratorSpec(family="random", n=40, sigma_min_target=1.5))
        assert band_layout(p.A) is None
        clear_factorization()
        calls = self.count_svdvals(monkeypatch)
        check_solvability(p)
        cfg = SolverConfig(alpha_mode="theoretical", mu=1.0, max_iter=2)
        run_solver("inexact-drs", p, cfg, seed=0)
        assert calls == [1]

    def test_no_entry_outlives_its_problem(self):
        clear_factorization()
        for seed in range(200):
            check_solvability(random_problem(seed, n=4)[0])
        gc.collect()
        assert len(core._memos) == 0

    def test_repeated_check_keeps_the_banach_verdict(self, monkeypatch):
        # The witness bounds I - nu A once per problem, like the interval.
        p = gen_tridiag8(200)
        clear_factorization()
        calls = []

        def counting(A):
            calls.append(1)
            return singular_value_bounds(A)

        monkeypatch.setattr(core, "singular_value_bounds", counting)
        first = check_solvability(p)
        assert first.banach_nu == BANACH_NU
        assert len(calls) == 2
        assert check_solvability(p) == first
        assert len(calls) == 2

    @pytest.mark.parametrize("A", [
        np.array([[1.0, 2.0], [-2.0 / 3.0, 1.0]]),
        1.5 * np.eye(6),
        np.diag([1.8, -2.0]),
        0.5 * np.eye(4),
        np.array([[1.0, 2.0], [2.0, 4.0]]),
        gen_tridiag8(60).A,
        sp.block_diag([np.array([[0.0, 3.0], [3.0, 0.0]])] * 3, format="csr"),
        gen_random_sparse(GeneratorSpec(family="random", n=40, sigma_min_target=1.5)).A,
    ], ids=["boundary", "banach", "indefinite", "below-one", "singular", "tridiag",
            "zero-diagonal", "random"])
    def test_kept_report_equals_writable_report(self, A):
        p = AveProblem(A, np.zeros(A.shape[0]))
        kept = [check_solvability(p) for _ in range(2)]
        clear_factorization()
        assert kept[0] == kept[1] == check_solvability(p)


class TestGMatrix:
    def test_identity_flags(self):
        G = GMatrix.identity()
        assert G.is_identity
        assert G.lambda_max == 1.0
        x = np.array([1.0, -2.0])
        npt.assert_array_equal(G.apply_inv(x), x)

    def test_diagonal_weighting(self):
        G = GMatrix.diagonal(np.array([2.0, 0.5]))
        x = np.array([3.0, 4.0])
        npt.assert_array_equal(G.apply_inv(x), [1.5, 8.0])
        assert G.lambda_max == 2.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            GMatrix.diagonal(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="positive"):
            GMatrix.diagonal(np.array([1.0, -2.0]))


class TestSolvability:
    def test_boundary_case(self):
        # Singular values are 7/3 and exactly 1.
        p = AveProblem(np.array([[1.0, 2.0], [-2.0 / 3.0, 1.0]]), np.zeros(2))
        rep = check_solvability(p)
        assert rep.regime is Regime.BOUNDARY_MONOTONE
        assert rep.sigma_min == pytest.approx(1.0, abs=1e-6)

    def test_strictly_monotone_tridiag(self):
        rep = check_solvability(gen_tridiag8(60))
        assert rep.regime is Regime.STRICTLY_MONOTONE
        assert rep.sigma_min > 1.0
        assert rep.inv_norm == pytest.approx(1.0 / rep.sigma_min, rel=1e-12)

    def test_banach_grid_respects_contraction(self):
        p = AveProblem(1.5 * np.eye(6), np.ones(6))
        rep = check_solvability(p)
        assert rep.banach_nu is not None
        nu = rep.banach_nu
        shrink = np.linalg.norm(np.eye(6) - nu * p.A.toarray() if hasattr(p.A, "toarray") else np.eye(6) - nu * p.A, 2)
        assert shrink < 1.0 - nu

    def test_banach_absent_for_indefinite_diagonal(self):
        # sigma_min = 1.8 > 1, yet no nu gives ||I - nu A|| < 1 - nu.
        rep = check_solvability(AveProblem(np.diag([1.8, -2.0]), np.zeros(2)))
        assert rep.regime is Regime.STRICTLY_MONOTONE
        assert rep.banach_nu is None

    def test_not_covered_below_one(self):
        rep = check_solvability(AveProblem(0.5 * np.eye(4), np.ones(4)))
        assert rep.regime is Regime.NOT_COVERED
        assert rep.sigma_min == pytest.approx(0.5, rel=1e-6)

    def test_singular_matrix_not_covered(self):
        rep = check_solvability(AveProblem(np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2)))
        assert rep.regime is Regime.NOT_COVERED
        assert rep.sigma_min == 0.0
        assert rep.inv_norm == np.inf

    def test_tridiag_band_storage_at_scale(self):
        # A dense copy at n = 100 000 would take 80 GB; the band-storage
        # bounds stay under 1 KB per row.
        n = 100_000
        p = gen_tridiag8(n)
        tracemalloc.start()
        try:
            rep = check_solvability(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1000 * n
        assert rep.regime is Regime.STRICTLY_MONOTONE
        assert rep.banach_nu == BANACH_NU == 0.01
        c = np.cos(np.pi / (n + 1))
        assert rep.sigma_min <= 8.0 - 2.0 * c
        assert rep.norm_A >= 8.0 + 2.0 * c

    def test_band_bound_too_weak_is_not_covered(self):
        # sigma_min is exactly 3, but Johnson's bound for a zero diagonal is
        # 0 - (3 + 3) / 2 = -3: no certificate, reported as sigma_min 0.
        A = sp.block_diag([np.array([[0.0, 3.0], [3.0, 0.0]])] * 3, format="csr")
        assert band_layout(A) is not None
        assert np.linalg.svd(A.toarray(), compute_uv=False)[-1] == pytest.approx(3.0)
        rep = check_solvability(AveProblem(A, np.zeros(6)))
        assert rep.regime is Regime.NOT_COVERED
        assert rep.sigma_min == 0.0
        assert rep.inv_norm == np.inf
        assert rep.banach_nu is None

    def test_uses_no_estimator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("check_solvability called a power-iteration estimator")

        monkeypatch.setattr(linalg, "matrix_norm2_estimate", refuse)
        monkeypatch.setattr(linalg, "sigma_min_estimate", refuse)
        assert not hasattr(core, "matrix_norm2_estimate")
        assert not hasattr(core, "sigma_min_estimate")
        problems = [
            AveProblem(np.array([[1.0, 2.0], [-2.0 / 3.0, 1.0]]), np.zeros(2)),
            AveProblem(1.5 * np.eye(6), np.ones(6)),
            gen_tridiag8(60),
            gen_random_sparse(GeneratorSpec(family="random", n=40, sigma_min_target=1.5)),
        ]
        for p in problems:
            check_solvability(p)


# nu = 0.01, 0.02, ..., 0.99: the scan that the one-point witness test
# replaces by the convexity argument of ``core._banach_witness``.
SCAN_GRID = np.round(np.arange(1, 100) * 0.01, 2)


def exact_banach_scan(A):
    """``(first grid nu with ||I - nu A|| < 1 - nu, smallest |margin|)``
    from numpy's SVD over the whole ``SCAN_GRID``."""
    n = A.shape[0]
    margins = [np.linalg.svd(np.eye(n) - nu * A, compute_uv=False)[0] - (1.0 - nu)
               for nu in SCAN_GRID]
    passing = [nu for nu, m in zip(SCAN_GRID, margins) if m < 0.0]
    return (float(passing[0]) if passing else None), min(abs(m) for m in margins)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 6),
       shift=st.floats(0.2, 3.0), spread=st.floats(0.0, 2.0))
def test_banach_nu_matches_exact_scan(seed, n, shift, spread):
    """The one-point witness test agrees with an exact scan of all 99 grid
    values wherever the scan is decided by more than rounding, and every
    witness passes the exact test."""
    rng = np.random.default_rng(seed)
    A = shift * np.eye(n) + spread * rng.uniform(-1.0, 1.0, (n, n))
    expected, closest = exact_banach_scan(A)
    for M in (A, sp.csr_matrix(A)):
        nu = check_solvability(AveProblem(M, np.zeros(n))).banach_nu
        if nu is not None:
            assert np.linalg.svd(np.eye(n) - nu * A, compute_uv=False)[0] < 1.0 - nu
        if band_layout(M) is None and closest > 1e-10:
            assert nu == expected
