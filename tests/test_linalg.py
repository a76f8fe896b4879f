import os
import re
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from avesolve.generators import GeneratorSpec, gen_random_sparse, gen_tridiag8
from avesolve.linalg import (
    PIVOT_RTOL,
    SingularMatrixError,
    band_layout,
    lu_factor,
    lu_solve,
    matrix_norm2_estimate,
    norm2,
    product,
    sigma_min_estimate,
    sign_diag,
    singular_value_bounds,
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


def csr_of(A, index_dtype=np.int32, cls=sp.csr_matrix):
    """``A`` as CSR of class ``cls`` with index arrays of ``index_dtype``."""
    A = cls(A)
    # The constructor would shrink int64 indices that fit in int32.
    A.indices, A.indptr = A.indices.astype(index_dtype), A.indptr.astype(index_dtype)
    return A


class TestProduct:
    """linalg.product(A) is ``v -> A @ v`` bit for bit: SciPy's CSR kernel
    for float64 CSR input, ``A.__matmul__`` for everything else."""

    @staticmethod
    def assert_bit_equal(A, rng, vectors=3):
        f = product(A)
        n = A.shape[1]
        for _ in range(vectors):
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
            assert f(v).tobytes() == (A @ v).tobytes()
        # A strided view goes through the kernel too.
        w = rng.standard_normal(2 * n)
        assert f(w[::2]).tobytes() == (A @ w[::2]).tobytes()

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("cls", [sp.csr_matrix, sp.csr_array])
    def test_kernel_bit_equal(self, index_dtype, cls):
        rng = np.random.default_rng(40)
        A = csr_of(sp.random(70, 50, density=0.2, random_state=rng), index_dtype, cls)
        assert A.indices.dtype == A.indptr.dtype == index_dtype
        assert product(A) != A.__matmul__
        self.assert_bit_equal(A, rng)

    def test_non_canonical_and_empty_rows(self):
        # Row 0 holds unsorted duplicates, rows 1 and 3 are empty.
        data = np.array([1e16, 3.0, -1e16, 0.5, 2.0, -7.25])
        indices = np.array([2, 0, 2, 1, 3, 0], dtype=np.int32)
        indptr = np.array([0, 4, 4, 6, 6], dtype=np.int32)
        A = sp.csr_matrix((data, indices, indptr), shape=(4, 4))
        assert not A.has_canonical_format
        assert product(A) != A.__matmul__
        self.assert_bit_equal(A, np.random.default_rng(41))
        npt.assert_array_equal(product(A)(np.ones(4))[[1, 3]], [0.0, 0.0])

    def test_read_only_problem_arrays(self):
        p = gen_random_sparse(GeneratorSpec(family="random", n=60, sigma_min_target=3.5, seed=2))
        assert not (p.A.data.flags.writeable or p.A.indices.flags.writeable
                    or p.A.indptr.flags.writeable)
        assert product(p.A) != p.A.__matmul__
        self.assert_bit_equal(p.A, np.random.default_rng(42))

    @pytest.mark.parametrize("fmt", ["csc", "coo", "dense", "float32"])
    def test_fallback_is_matmul(self, fmt):
        rng = np.random.default_rng(43)
        A = sp.random(30, 20, density=0.3, format="csr", random_state=rng)
        A = {"csc": A.tocsc(), "coo": A.tocoo(), "dense": A.toarray(),
             "float32": A.astype(np.float32)}[fmt]
        assert product(A) == A.__matmul__
        self.assert_bit_equal(A, rng)

    def test_other_vectors_go_through_matmul(self):
        rng = np.random.default_rng(44)
        A = sp.random(30, 20, density=0.3, format="csr", random_state=rng)
        f = product(A)
        for v in (rng.standard_normal(20).astype(np.float32), list(range(20)),
                  rng.standard_normal((20, 1))):
            assert f(v).tobytes() == (A @ v).tobytes()
        # The kernel would read past the end of a short vector.
        with pytest.raises(ValueError, match="dimension mismatch"):
            f(np.ones(19))


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

    @pytest.mark.parametrize("ratio, singular", [(0.99, True), (1.01, False)])
    @pytest.mark.parametrize("shifted", [False, True], ids=["negative-entry", "shifted-diagonal"])
    @pytest.mark.parametrize("banded", [False, True], ids=["dense", "band"])
    def test_pivot_threshold_is_max_magnitude(self, banded, shifted, ratio, singular):
        # A - diag(s) is upper bidiagonal, so its pivots are its diagonal.
        # Its largest magnitude is the negative -M, which the shift alone
        # puts there in the shifted case (max|A| is then 3).  The last
        # pivot sits just below or above PIVOT_RTOL * M.
        n, M = 6, 1e3
        diag = np.array([-M, 1.0, 1.0, 1.0, 1.0, ratio * PIVOT_RTOL * M])
        s = np.zeros(n)
        if shifted:
            s[0] = M + 1.0
            diag[0] = 1.0
        A = np.diag(diag) + np.diag(np.full(n - 1, 3.0), 1)
        if banded:
            A = sp.csr_matrix(A)
            assert band_layout(A) == (0, 1)
        if singular:
            with pytest.raises(SingularMatrixError,
                               match=re.escape(f"pivot {n - 1} ") + ".*"
                               + re.escape(f"= {PIVOT_RTOL * M:.3e}")):
                lu_factor(A, shift=s)
        else:
            assert lu_factor(A, shift=s).n == n

    def test_singular_banded_raises(self):
        # Rows 3 and 4 are equal.
        A = tridiag(20).tolil()
        A[3, 2:6] = [0.0, 1.0, 1.0, 0.0]
        A[4, 2:6] = [0.0, 1.0, 1.0, 0.0]
        A = A.tocsr()
        assert band_layout(A) == (1, 1)
        with pytest.raises(SingularMatrixError, match="pivot"):
            lu_factor(A)


class TestSingularValueBounds:
    """The intervals enclose the extreme singular values from numpy's SVD."""

    @staticmethod
    def assert_encloses(A, smin, smax):
        smin_lo, smin_hi, smax_lo, smax_hi = singular_value_bounds(A)
        assert 0.0 <= smin_lo <= smin <= smin_hi
        assert 0.0 <= smax_lo <= smax <= smax_hi

    @staticmethod
    def svd_extremes(A):
        s = np.linalg.svd(to_dense(A), compute_uv=False)
        return s[-1], s[0]

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), rank_drop=st.integers(0, 2))
    def test_dense(self, seed, n, scale, rank_drop):
        rng = np.random.default_rng(seed)
        A = scale * rng.uniform(-1.0, 1.0, (n, n))
        A[:, : min(rank_drop, n - 1)] = 0.0
        self.assert_encloses(A, *self.svd_extremes(A))

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000), n=st.integers(8, 40),
           offsets=st.sampled_from([(0,), (-1, 0, 1), (-2, 0, 1), (-1, 1), (0, 3)]))
    def test_band(self, seed, n, offsets):
        A = random_band(n, offsets, seed)
        assert band_layout(A) is not None
        self.assert_encloses(A, *self.svd_extremes(A))

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 1_000), n=st.integers(30, 200),
           target=st.sampled_from([(0.8, 0.05), (1.0, 0.0), (3.5, 0.05)]))
    def test_random_family(self, seed, n, target):
        p = gen_random_sparse(GeneratorSpec(family="random", n=n, sigma_min_target=target[0],
                                            margin=target[1], seed=seed))
        self.assert_encloses(p.A, *self.svd_extremes(p.A))

    @pytest.mark.parametrize("n", [60, 1000])
    def test_tridiag_closed_form(self, n):
        lam = 8.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
        A = tridiag(n)
        assert band_layout(A) == (1, 1)
        self.assert_encloses(A, lam.min(), lam.max())
        smin_lo, _, _, smax_hi = singular_value_bounds(A)
        assert smin_lo == pytest.approx(6.0, rel=1e-9)
        assert smax_hi == pytest.approx(10.0, rel=1e-9)


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


    def test_pinned_on_tridiag8(self):
        # The value of the estimator through A @ v, before linalg.product.
        est = matrix_norm2_estimate(gen_tridiag8(1000).A, tol=1e-8)
        assert est == float.fromhex("0x1.3ffafbfd73a80p+3")

    def test_pinned_on_random_inexact_instance(self):
        # random-inexact's first instance, generated on one BLAS thread as
        # the benchmark does: the generator's dense LU rounds differently on
        # other thread counts, and with it the instance.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {**os.environ, **dict.fromkeys(threads, "1"),
               "PYTHONPATH": os.path.join(root, "src")}
        child = (
            "from avesolve.generators import GeneratorSpec, gen_random_sparse\n"
            "from avesolve.linalg import matrix_norm2_estimate\n"
            "p = gen_random_sparse(GeneratorSpec(family='random', n=300, density=0.1,\n"
            "                                    sigma_min_target=3.5, margin=0.05, seed=0))\n"
            "print(matrix_norm2_estimate(p.A, tol=1e-8).hex())\n"
        )
        out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "0x1.81db863b756ffp+11"


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
