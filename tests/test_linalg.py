import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from avesolve.generators import GeneratorSpec, gen_random_sparse
from avesolve.linalg import (
    SingularMatrixError,
    band_layout,
    lu_factor,
    lu_solve,
    matrix_norm2_estimate,
    norm2,
    sigma_min_estimate,
    sign_diag,
    to_dense,
    transposed,
)


def tridiag(n, lo=-1.0, di=8.0, up=-1.0, fmt="csr"):
    return sp.diags([lo, di, up], offsets=[-1, 0, 1], shape=(n, n), format=fmt)


class TestTransposed:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12), m=st.integers(1, 12))
    def test_adjoint_identity(self, seed, n, m):
        """<A x, y> == <x, A^T y> to 1e-12 on unit-scaled inputs."""
        rng = np.random.default_rng(seed)
        A = rng.uniform(-1.0, 1.0, (m, n))
        x = rng.uniform(-1.0, 1.0, n)
        y = rng.uniform(-1.0, 1.0, m)
        for M in (A, sp.csr_matrix(A)):
            lhs = float((M @ x) @ y)
            rhs = float(x @ (transposed(M) @ y))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


class TestLu:
    def test_hand_solve(self):
        # 2x + y = 3, x + 3y = 5 has solution (0.8, 1.4).
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        f = lu_factor(A)
        npt.assert_allclose(lu_solve(f, np.array([3.0, 5.0])), [0.8, 1.4], rtol=1e-14)

    def test_transpose_solve(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((12, 12)) + 6 * np.eye(12)
        b = rng.standard_normal(12)
        f = lu_factor(A)
        npt.assert_allclose(
            lu_solve(f, b, transpose=True), np.linalg.solve(A.T, b), rtol=1e-10
        )

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 30))
    def test_roundtrip_residual(self, seed, n):
        """||A x - b|| <= 1e-10 (1 + ||b||) on well-conditioned systems."""
        rng = np.random.default_rng(seed)
        A = rng.uniform(-1.0, 1.0, (n, n)) + (n + 2) * np.eye(n)
        b = rng.uniform(-10.0, 10.0, n)
        x = lu_solve(lu_factor(A), b)
        assert norm2(A @ x - b) <= 1e-10 * (1.0 + norm2(b))

    def test_sparse_banded_input(self):
        A = tridiag(40)
        b = np.ones(40)
        x = lu_solve(lu_factor(A), b)
        assert norm2(A @ x - b) <= 1e-10 * (1.0 + norm2(b))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError, match="pivot"):
            lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            lu_factor(np.zeros((3, 3)))

    def test_not_square(self):
        with pytest.raises(ValueError, match="square"):
            lu_factor(np.ones((2, 3)))


def random_band(n, offsets, seed, fmt="csr"):
    """Random entries on the given diagonals (uniform on (1, 2) in
    magnitude, random sign); no entries elsewhere."""
    rng = np.random.default_rng(seed)
    diags = [
        rng.choice([-1.0, 1.0], n - abs(k)) * rng.uniform(1.0, 2.0, n - abs(k))
        for k in offsets
    ]
    return sp.diags(diags, offsets=offsets, shape=(n, n), format=fmt)


class TestBandedLu:
    def test_tridiag_uses_band_layout(self):
        A = tridiag(40)
        assert band_layout(A) == (1, 1)
        f = lu_factor(A)
        assert f.band == (1, 1)
        assert f.lu.shape == (4, 40)

    def test_dense_and_random_fill_use_dense_layout(self):
        assert band_layout(tridiag(40).toarray()) is None
        assert lu_factor(tridiag(40).toarray()).band is None
        p = gen_random_sparse(
            GeneratorSpec(family="random", n=100, sigma_min_target=3.5, seed=0)
        )
        assert band_layout(p.A) is None
        f = lu_factor(p.A)
        assert f.band is None
        assert f.lu.shape == (100, 100)

    def test_layout_rule_is_storage_size(self):
        # kl = 2, ku = 3: band storage has 2*2 + 3 + 1 = 8 rows.
        offsets = [-2, -1, 0, 1, 2, 3]
        assert band_layout(random_band(9, offsets, seed=0)) == (2, 3)
        assert band_layout(random_band(8, offsets, seed=0)) is None

    def test_empty_rows(self):
        # Row 0 and row 5 hold no entries; row 7 reaches 3 left, row 2
        # reaches 2 right.
        rows = [1, 2, 2, 3, 4, 6, 7, 7, 8, 9, 10, 11]
        cols = [1, 2, 4, 3, 4, 6, 4, 7, 8, 9, 10, 11]
        A = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(12, 12))
        assert band_layout(A) == (3, 2)
        with pytest.raises(SingularMatrixError, match="pivot"):
            lu_factor(A)
        assert band_layout(sp.csr_matrix((12, 12))) == (0, 0)
        with pytest.raises(SingularMatrixError, match="identically zero"):
            lu_factor(sp.csr_matrix((12, 12)))

    def test_unsorted_csr_and_csc_agree_with_sorted_csr(self):
        A = random_band(30, [-3, -1, 0, 2], seed=1)
        A.sort_indices()
        # Reverse every row's entries: same matrix, unsorted indices.
        perm = np.concatenate(
            [np.arange(A.indptr[i + 1] - 1, A.indptr[i] - 1, -1) for i in range(30)]
        )
        U = sp.csr_matrix((A.data[perm], A.indices[perm], A.indptr), shape=A.shape)
        assert not U.has_sorted_indices
        b = np.linspace(-1.0, 1.0, 30)
        x = lu_solve(lu_factor(A), b)
        for B in (U, A.tocsc()):
            assert band_layout(B) == band_layout(A) == (3, 2)
            npt.assert_array_equal(lu_solve(lu_factor(B), b), x)

    @pytest.mark.parametrize("seed", [2, 3, 4])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_solve_with_row_swaps(self, seed, transpose):
        # A zero main diagonal forces a row swap at every step.
        n = 50
        A = random_band(n, [-2, -1, 1, 2, 3], seed=seed)
        f = lu_factor(A)
        assert f.band == (2, 3)
        assert np.any(f.piv != np.arange(n))
        b = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        Ad = A.toarray()
        expected = np.linalg.solve(Ad.T if transpose else Ad, b)
        x = lu_solve(f, b, transpose=transpose)
        npt.assert_allclose(x, expected, rtol=1e-10, atol=1e-10 * norm2(expected))

    @pytest.mark.parametrize("banded", [True, False])
    def test_shift_matches_shifted_matrix(self, banded):
        n = 40
        A = random_band(n, [-1, 0, 1, 4], seed=5)
        if not banded:
            A = A.toarray()
        before = A.copy()
        s = np.sign(np.sin(np.arange(n, dtype=np.float64)))
        f = lu_factor(A, shift=s)
        g = lu_factor(A - sp.diags(s) if banded else A - np.diag(s))
        assert f.band == g.band == ((1, 4) if banded else None)
        npt.assert_array_equal(f.lu, g.lu)
        npt.assert_array_equal(f.piv, g.piv)
        b = np.ones(n)
        npt.assert_array_equal(lu_solve(f, b), lu_solve(g, b))
        # The shift is applied to the factored copy, never to A.
        npt.assert_array_equal(A.toarray() if banded else A,
                               before.toarray() if banded else before)

    def test_singular_banded_raises(self):
        # Rows 3 and 4 are equal.
        A = tridiag(20).tolil()
        A[3, 2:6] = [0.0, 1.0, 1.0, 0.0]
        A[4, 2:6] = [0.0, 1.0, 1.0, 0.0]
        A = A.tocsr()
        assert band_layout(A) == (1, 1)
        with pytest.raises(SingularMatrixError, match="pivot"):
            lu_factor(A)


class TestNormEstimate:
    def test_scaled_identity_exact(self):
        assert matrix_norm2_estimate(3.0 * np.eye(7)) == pytest.approx(3.0, abs=1e-12)

    def test_sign_indefinite_diagonal(self):
        est = matrix_norm2_estimate(np.diag([1.8, -2.0]), tol=1e-13)
        assert est == pytest.approx(2.0, rel=1e-10)

    def test_tridiag_against_eigenvalue_formula(self):
        # Symmetric tridiagonal (lo=up): eigenvalues 8 - 2 cos(k pi / (n+1)).
        n = 100
        est = matrix_norm2_estimate(tridiag(n), tol=1e-10)
        oracle = 8.0 - 2.0 * np.cos(n * np.pi / (n + 1))
        # The top of this spectrum is clustered, so only modest accuracy
        # is promised; the estimate must still land on ~9.99.
        assert est == pytest.approx(oracle, rel=1e-3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gapped_oracle_svd(self, seed):
        """Relative tol accuracy against numpy's SVD on gapped spectra."""
        rng = np.random.default_rng(seed)
        n = 20
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = np.linspace(1.0, 2.0, n)
        s[-1] = 5.0  # clear gap at the top
        A = q1 @ np.diag(s) @ q2.T
        est = matrix_norm2_estimate(A, tol=1e-12)
        oracle = np.linalg.svd(A, compute_uv=False)[0]
        assert est == pytest.approx(oracle, rel=1e-8)



class TestSigmaMin:
    def test_scaled_identity(self):
        assert sigma_min_estimate(2.0 * np.eye(5)) == pytest.approx(2.0, abs=1e-12)

    def test_unit_sigma_min_matrix(self):
        # Singular values of [[1, 2], [-2/3, 1]] are 7/3 and exactly 1.
        A = np.array([[1.0, 2.0], [-2.0 / 3.0, 1.0]])
        assert sigma_min_estimate(A, tol=1e-12) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_gapped_oracle_svd(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = np.linspace(2.0, 4.0, n)
        s[0] = 0.5  # clear gap at the bottom
        A = q1 @ np.diag(s) @ q2.T
        est = sigma_min_estimate(A, tol=1e-12)
        oracle = np.linalg.svd(A, compute_uv=False)[-1]
        assert est == pytest.approx(oracle, rel=1e-8)

    def test_singular_gives_zero(self):
        assert sigma_min_estimate(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0.0

    def test_not_square(self):
        with pytest.raises(ValueError, match="square"):
            sigma_min_estimate(np.ones((2, 3)))


def test_capped_sweeps_are_monotone():
    """After ``max_iter`` sweeps both estimators return the last sweep's
    value, which moves monotonically toward the extreme singular value."""
    rng = np.random.default_rng(6)
    n = 20
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = q1 @ np.diag(np.linspace(0.5, 5.0, n)) @ q2.T
    s = np.linalg.svd(A, compute_uv=False)
    tops = [matrix_norm2_estimate(A, tol=1e-14, max_iter=k) for k in (1, 2, 3)]
    bottoms = [sigma_min_estimate(A, tol=1e-14, max_iter=k) for k in (1, 2, 3)]
    assert tops[0] < tops[1] < tops[2] <= s[0]
    assert bottoms[0] > bottoms[1] > bottoms[2] >= s[-1]


class TestSignDiag:
    def test_values(self):
        npt.assert_array_equal(sign_diag(np.array([-3.0, 0.0, 2.0])), [-1.0, 0.0, 1.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_reconstructs_abs(self, xs):
        x = np.array(xs)
        npt.assert_array_equal(sign_diag(x) * x, np.abs(x))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_idempotent_on_signs(self, xs):
        s = sign_diag(np.array(xs))
        npt.assert_array_equal(sign_diag(s), s)


def test_to_dense_column_major():
    d = to_dense(tridiag(6))
    assert d.flags.f_contiguous
    assert d.shape == (6, 6)
    npt.assert_array_equal(np.diag(d), np.full(6, 8.0))
    npt.assert_array_equal(np.diag(d, 1), np.full(5, -1.0))
