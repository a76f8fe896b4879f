import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import avesolve.core as core
import avesolve.linalg as linalg
from avesolve.core import (
    BANACH_NU_GRID,
    AveProblem,
    GMatrix,
    Regime,
    ZeroResidualError,
    check_solvability,
    glcp_maps,
    residual,
    residual_via_projection,
    rho,
    theta_k,
)
from avesolve.generators import GeneratorSpec, gen_random_sparse, gen_tridiag8
from avesolve.linalg import band_layout, matrix_norm2_estimate, norm2


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
        """||e(x) - e(y)|| <= (||A|| + 1) ||x - y||."""
        p, rng = random_problem(seed)
        x = rng.uniform(-10.0, 10.0, 10)
        y = rng.uniform(-10.0, 10.0, 10)
        lhs = norm2(residual(p, x) - residual(p, y))
        bound = (matrix_norm2_estimate(p.A, tol=1e-8) + 1.0) * norm2(x - y)
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
        """lambda_min(G) <= rho <= lambda_max(G) for any nonzero e."""
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.1, 10.0, n)
        e = rng.uniform(-5.0, 5.0, n)
        e[0] = e[0] if e[0] != 0.0 else 1.0
        G = GMatrix.diagonal(d)
        r = rho(G, e)
        assert G.lambda_min * (1 - 1e-12) <= r <= G.lambda_max * (1 + 1e-12)


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


class TestGMatrix:
    def test_identity_flags(self):
        G = GMatrix.identity()
        assert G.is_identity
        assert G.lambda_min == G.lambda_max == 1.0
        x = np.array([1.0, -2.0])
        npt.assert_array_equal(G.apply(x), x)
        npt.assert_array_equal(G.apply_inv(x), x)
        assert G.norm_sq(x) == pytest.approx(5.0)

    def test_diagonal_weighting(self):
        G = GMatrix.diagonal(np.array([2.0, 0.5]))
        x = np.array([3.0, 4.0])
        npt.assert_array_equal(G.apply(x), [6.0, 2.0])
        npt.assert_array_equal(G.apply_inv(x), [1.5, 8.0])
        assert G.norm_sq(x) == pytest.approx(2 * 9 + 0.5 * 16)
        assert G.lambda_min == 0.5
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
        assert rep.banach_nu == BANACH_NU_GRID[0] == 0.01
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


def exact_banach_scan(A):
    """``(first grid nu with ||I - nu A|| < 1 - nu, smallest |margin|)``
    from numpy's SVD over the whole ``BANACH_NU_GRID``."""
    n = A.shape[0]
    margins = [np.linalg.svd(np.eye(n) - nu * A, compute_uv=False)[0] - (1.0 - nu)
               for nu in BANACH_NU_GRID]
    passing = [nu for nu, m in zip(BANACH_NU_GRID, margins) if m < 0.0]
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
