"""Dense and sparse matrix kernels shared by the solvers.

Dense matrices are float64 arrays kept in column-major (Fortran) order so
LAPACK factorizations work in place; sparse matrices are CSR with sorted,
duplicate-free indices.  Row-oriented products dominate the solver inner
loops, which is why CSR is the only sparse format supported.

LU factorizations choose their storage from the matrix's structure.  A
sparse matrix with lower and upper bandwidths ``kl`` and ``ku`` is factored
in LAPACK band storage (``dgbtrf``/``dgbtrs``, ``2 kl + ku + 1`` rows of
length n) exactly when that is smaller than dense storage, i.e. when
``2 kl + ku + 1 < n``; every other matrix is factored densely
(``getrf``/``getrs``).  Both use partial pivoting.

:func:`singular_value_bounds` encloses the smallest and the largest
singular value in intervals that hold despite rounding; the solvability
certificate and the theoretical step scale of ``drs_inexact`` rest on them.
It chooses its storage like the LU: densely stored matrices get LAPACK's
singular values with a backward-error padding, band-stored ones O(nnz) norm
and Gershgorin-type bounds.

:func:`product` binds ``v -> A @ v`` once per matrix, calling SciPy's CSR
kernel without the per-call dispatch of ``A @ v`` and with the same bits.
The products of the inexact path go through it: LSQR's operator, the
plain, shifted and deflated operators of the solvers' deflation space, and
:func:`matrix_norm2_estimate`.  The direct path's products do not.

:func:`lu_factor` empties :data:`lu_slot`, which holds the one
factorization :func:`.core.kept_lu` keeps between solves, before it
allocates, so no factorization is ever built beside a kept one.

:class:`Work` is the ledger of one solver run, which the run publishes
through the context variable :data:`work` while it lasts.  Each count is
made where the work happens: :func:`lu_factor` counts its factorizations
here, :mod:`.lsqr` its iterations and :mod:`.solvers` its retries.  Work
done outside a run goes to the default ledger, which nobody reads.

The spectral-norm and smallest-singular-value estimates feed only the
derived inexact-Newton ``theta``, the rescaling of the random generator and
``build_manifest``'s ``sigma_min_achieved``.  They use power iteration on
``A^T A`` (inverse power iteration through an LU factorization for the
smallest).  The iteration stops once the Rayleigh quotient stabilizes, so on
matrices whose extreme singular values are tightly clustered the returned
value carries the cluster's width as error; on matrices with a spectral gap
it is accurate to roughly ``tol``.  Neither estimate fails: after
``max_iter`` sweeps it returns the last one, and a numerically singular
matrix has smallest singular value ``0.0``.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack as lapack
import scipy.sparse as sp

__all__ = [
    "SingularMatrixError",
    "LuFactors",
    "band_layout",
    "to_dense",
    "is_sparse",
    "transposed",
    "product",
    "lu_factor",
    "lu_solve",
    "norm2",
    "singular_value_bounds",
    "matrix_norm2_estimate",
    "sigma_min_estimate",
    "sign_diag",
]

# Pivots below this fraction of the largest entry magnitude are treated as zero.
PIVOT_RTOL = 1e-14

EPS = float(np.finfo(np.float64).eps)

# The LU of one problem's A that core.kept_lu keeps between solves, as
# (weak reference to the problem, factors), or None; when it is reused is
# decided there.  One slot, so it holds one factorization at most.
lu_slot: tuple | None = None


class SingularMatrixError(Exception):
    """LU factorization met a pivot indistinguishable from zero."""


@dataclass
class Work:
    """The work of one solver run, counted where it happens: LU
    factorizations started, failed ones included; LSQR iterations, each
    call adding its own; and inner-solve retries."""

    factorizations: int = 0
    lsqr_iterations: int = 0
    retries: int = 0


# The ledger of the running solve; outside a run, the default one.
work: contextvars.ContextVar[Work] = contextvars.ContextVar("work", default=Work())


def is_sparse(A) -> bool:
    return sp.issparse(A)


def to_dense(A) -> np.ndarray:
    """Return ``A`` as a column-major float64 array (always a copy)."""
    if is_sparse(A):
        d = A.toarray(order="F").astype(np.float64, copy=False)
    else:
        d = np.array(A, dtype=np.float64, order="F", copy=True)
    if d.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={d.ndim}")
    return d


def transposed(A):
    """``A.T`` built once for repeated products.

    Sparse input gives a CSR copy.  scipy builds ``A.T`` as a new CSC
    matrix object on every access, which at desk scale costs more than the
    product itself; the CSR copy sums each output entry's terms in the same
    order as that CSC product, so the products are bit-identical.  Dense
    input gives the free ``A.T`` view.
    """
    return A.T.tocsr() if is_sparse(A) else A.T


def product(A):
    """``v -> A @ v``, bound once for repeated products with one matrix.

    For a 2-D float64 CSR matrix or array with int32 or int64 indices, the
    returned function allocates ``np.zeros(m)`` and calls SciPy's
    ``csr_matvec`` kernel on ``A``'s own ``indptr``, ``indices`` and
    ``data``: the call ``A @ v`` makes after its Python-level dispatch, so
    every result equals ``A @ v`` bit for bit, at about two thirds of its
    cost on the benchmark's matrices.  A vector that is not a float64
    ndarray of length n goes through ``A @ v`` itself.  Every other matrix,
    dense arrays, other sparse formats and dtypes included, or a SciPy
    without that kernel, gives ``A.__matmul__``.  The function holds the
    arrays ``A`` has now; a matrix that is later given new ones needs a new
    binding.
    """
    if not (is_sparse(A) and A.format == "csr" and A.ndim == 2 and A.dtype == np.float64
            and A.indices.dtype == A.indptr.dtype
            and A.indices.dtype in (np.int32, np.int64)):
        return A.__matmul__
    try:
        from scipy.sparse._sparsetools import csr_matvec
    except ImportError:
        return A.__matmul__
    (m, n), indptr, indices, data = A.shape, A.indptr, A.indices, A.data
    matmul, f64 = A.__matmul__, np.dtype(np.float64)

    def matvec(v):
        # The kernel reads v without checking its length.
        if type(v) is not np.ndarray or v.shape != (n,) or v.dtype != f64:
            return matmul(v)
        out = np.zeros(m)
        csr_matvec(m, n, indptr, indices, data, v, out)
        return out

    return matvec


def band_layout(A) -> tuple[int, int] | None:
    """Bandwidths ``(kl, ku)`` under which :func:`lu_factor` stores ``A``
    in LAPACK band layout, or ``None`` when it stores ``A`` densely.

    Band layout is chosen for sparse input exactly when its
    ``2 kl + ku + 1`` rows are fewer than the n rows of dense storage.  The
    bandwidths come from the first and last column of each row of the
    sorted CSR index arrays, which is O(n); other sparse input is converted
    to sorted CSR first.  Dense input is always stored densely.
    """
    if not is_sparse(A):
        return None
    n = A.shape[0]
    A = _canonical_csr(A)
    rows = np.flatnonzero(np.diff(A.indptr))
    if rows.size == 0:
        kl = ku = 0
    else:
        first = A.indices[A.indptr[rows]]
        last = A.indices[A.indptr[rows + 1] - 1]
        kl = max(0, int(np.max(rows - first)))
        ku = max(0, int(np.max(last - rows)))
    return (kl, ku) if 2 * kl + ku + 1 < n else None


@dataclass(frozen=True)
class LuFactors:
    """LU factorization with partial pivoting in LAPACK layout.

    ``band`` is ``None`` for the dense ``getrf`` layout; otherwise it holds
    the bandwidths ``(kl, ku)`` and ``lu`` is the ``dgbtrf`` band array with
    ``2 kl + ku + 1`` rows, whose row ``kl + ku`` is the diagonal of ``U``.
    """

    lu: np.ndarray
    piv: np.ndarray
    n: int
    band: tuple[int, int] | None = None


def _canonical_csr(A):
    """Sparse ``A`` as CSR with sorted, duplicate-free indices; a copy only
    when ``A`` is not already in that form."""
    if A.format == "csr" and A.has_canonical_format:
        return A
    A = A.tocsr(copy=True)
    A.sum_duplicates()
    return A


def _band_storage(A, kl: int, ku: int) -> np.ndarray:
    """Canonical CSR ``A`` in ``dgbtrf`` layout: ``A[i, j]`` at row
    ``kl + ku + i - j`` of column ``j``, the top ``kl`` rows left free for
    pivoting fill-in."""
    ldab, n = 2 * kl + ku + 1, A.shape[1]
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    ab = np.zeros((ldab, n), order="F")
    ab.reshape(-1, order="F")[kl + ku + rows + (ldab - 1) * A.indices] = A.data
    return ab


def lu_factor(A, shift: np.ndarray | None = None) -> LuFactors:
    """Factor ``A - diag(shift)`` as ``P A = L U`` with partial pivoting.

    The storage follows :func:`band_layout`: sparse input whose band
    storage is smaller than dense storage is factored with ``dgbtrf`` in
    O(n kl (kl + ku)) time and O(n (kl + ku)) memory; everything else,
    sparse input included, is written once into a fresh dense column-major
    array that ``dgetrf`` overwrites with its factors, so a dense
    factorization holds one n x n array and no other.  ``shift`` (default
    zero) is subtracted from the diagonal of that copy, never from ``A``.
    Raises :class:`SingularMatrixError` when any pivot magnitude falls
    below ``PIVOT_RTOL`` times the largest entry magnitude of the factored
    matrix.
    """
    global lu_slot
    shape = np.shape(A)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"lu_factor: matrix must be square, got shape {shape}")
    n = shape[0]
    work.get().factorizations += 1
    # Free the kept factors before the new ones are allocated.
    lu_slot = None
    if is_sparse(A):
        A = _canonical_csr(A)
    band = band_layout(A)
    if band is None:
        d = to_dense(A)
        if shift is not None:
            idx = np.arange(n)
            d[idx, idx] -= shift
    else:
        kl, ku = band
        d = _band_storage(A, kl, ku)
        if shift is not None:
            d[kl + ku] -= shift
    # max|d| without an |d| temporary the size of d; the same value for
    # finite entries, and NaN whenever d holds a NaN.
    scale = float(max(d.max(), -d.min())) if d.size else 0.0
    if scale == 0.0:
        raise SingularMatrixError("lu_factor: matrix is identically zero")
    # info > 0 reports an exact zero pivot, which the check below catches.
    if band is None:
        lu, piv, _ = lapack.dgetrf(d, overwrite_a=True)
        pivots = np.abs(np.diag(lu))
    else:
        lu, piv, _ = lapack.dgbtrf(d, kl, ku, overwrite_ab=True)
        pivots = np.abs(lu[kl + ku])
    bad = np.flatnonzero(pivots < PIVOT_RTOL * scale)
    if bad.size:
        raise SingularMatrixError(
            f"lu_factor: pivot {bad[0]} has magnitude {pivots[bad[0]]:.3e}, "
            f"below {PIVOT_RTOL:.0e} * max|A| = {PIVOT_RTOL * scale:.3e}"
        )
    return LuFactors(lu=lu, piv=piv, n=n, band=band)


def lu_solve(factors: LuFactors, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve ``A x = b`` (or ``A.T x = b``) from LU factors of either layout."""
    if b.shape != (factors.n,):
        raise ValueError(
            f"lu_solve: expected a vector of length {factors.n}, got shape {b.shape}"
        )
    trans = 1 if transpose else 0
    if factors.band is None:
        x, _ = lapack.dgetrs(factors.lu, factors.piv, b, trans=trans)
        return x
    kl, ku = factors.band
    x, _ = lapack.dgbtrs(factors.lu, kl, ku, b, factors.piv, trans=trans)
    return x


def norm2(x: np.ndarray) -> float:
    """Euclidean norm of a vector."""
    return float(np.linalg.norm(x))


def singular_value_bounds(A) -> tuple[float, float, float, float]:
    """Bounds ``(smin_lo, smin_hi, smax_lo, smax_hi)`` with
    ``smin_lo <= sigma_min(A) <= smin_hi`` and
    ``smax_lo <= ||A||_2 <= smax_hi`` for square ``A``, rounding included.

    The storage follows :func:`band_layout`.  Densely stored input gets the
    singular values of its dense copy from ``scipy.linalg.svdvals``.  LAPACK
    computes the exact singular values of some ``A + E`` with
    ``||E|| <= n eps ||A||``, and by Weyl's inequality no singular value
    moves by more than ``||E||``, so each is padded by ``n eps sigma_max``.

    Band-stored input is never widened; its bounds take O(nnz) time and
    memory.  With ``r_i`` and ``c_i`` the off-diagonal absolute row and
    column sums:

    - ``||A|| <= sqrt(||A||_1 ||A||_inf)``, and ``||A||`` is at least the
      largest column 2-norm;
    - ``sigma_min >= min_i (|a_ii| - (r_i + c_i) / 2)`` (Johnson, Linear
      Algebra Appl. 112, 1989), and ``sigma_min`` is at most the smallest
      column 2-norm.

    A sum of at most n terms rounds by less than ``n eps`` relative to the
    sum of the magnitudes, so each band bound is widened by ``(n + 4) eps``
    relative to the terms it is computed from.  The lower bound on
    ``sigma_min`` is clipped at 0.
    """
    n = A.shape[0]
    if band_layout(A) is None:
        sv = scipy.linalg.svdvals(to_dense(A), overwrite_a=True, check_finite=False)
        smin, smax = float(sv[-1]), float(sv[0])
        pad = n * EPS * smax
        return max(smin - pad, 0.0), smin + pad, smax - pad, smax + pad
    A = _canonical_csr(A)
    widen = (n + 4) * EPS
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    off = np.where(rows == A.indices, 0.0, np.abs(A.data))
    r = np.bincount(rows, off, minlength=n)
    c = np.bincount(A.indices, off, minlength=n)
    d = np.abs(A.diagonal())
    half = (r + c) / 2.0
    smin_lo = float(np.min(d - half - widen * (d + half)))
    smax_hi = float(np.sqrt(np.max(d + c) * np.max(d + r))) * (1.0 + widen)
    col = np.sqrt(np.bincount(A.indices, A.data * A.data, minlength=n))
    smin_hi = float(np.min(col)) * (1.0 + widen)
    smax_lo = float(np.max(col)) * (1.0 - widen)
    return max(smin_lo, 0.0), smin_hi, smax_lo, smax_hi


def _start_vector(n: int) -> np.ndarray:
    # All-ones plus a fixed aperiodic perturbation, so the start vector is
    # deterministic yet not orthogonal to any structured singular vector.
    v = np.ones(n) + 1e-4 * np.sin(np.arange(1, n + 1, dtype=np.float64))
    return v / np.linalg.norm(v)


def matrix_norm2_estimate(A, tol: float = 1e-10, max_iter: int = 200_000) -> float:
    """Estimate the spectral norm ``||A||_2`` by power iteration on ``A^T A``.

    Stops when two consecutive Rayleigh-quotient estimates agree to a
    relative ``tol``, or after ``max_iter`` sweeps with the last estimate,
    which in exact arithmetic never decreases and never exceeds ``||A||_2``.
    A sweep is one product with ``A`` and one with ``A^T``, each bound once
    by :func:`product`, and two norms taken as ``sqrt(w @ w)``, which is
    how NumPy's ``norm`` computes them: the estimate is the one plain
    ``A @ v`` and ``np.linalg.norm`` give, bit for bit.
    """
    if A.ndim != 2:
        raise ValueError("matrix_norm2_estimate: expected a 2-D matrix")
    n = A.shape[1]
    matvec, rmatvec = product(A), product(transposed(A))
    tiny = np.finfo(float).tiny
    v = _start_vector(n)
    sigma_prev = -np.inf
    sigma = 0.0
    for _ in range(max_iter):
        w = matvec(v)
        sigma = math.sqrt(w @ w)
        if sigma == 0.0:
            return 0.0
        z = rmatvec(w)
        nz = math.sqrt(z @ z)
        if nz == 0.0:
            return sigma
        v = z / nz
        if abs(sigma - sigma_prev) <= tol * max(sigma, tiny):
            return sigma
        sigma_prev = sigma
    return sigma


def sigma_min_estimate(
    A, tol: float = 1e-10, max_iter: int = 50_000, factors: LuFactors | None = None
) -> float:
    """Estimate the smallest singular value by inverse power iteration.

    Runs power iteration on ``(A^T A)^{-1}`` using one LU factorization of
    ``A`` (two triangular solves per sweep) and stops like
    :func:`matrix_norm2_estimate`, approaching ``sigma_min`` from above.  A
    zero pivot, or a quadratic form rounded to nonpositive, gives ``0.0``.
    ``factors``, an LU factorization of ``A`` the caller already holds, is
    used instead of a new one.
    """
    if A.shape[0] != A.shape[1]:
        raise ValueError(
            f"sigma_min_estimate: matrix must be square, got shape {A.shape}"
        )
    if factors is None:
        try:
            factors = lu_factor(A)
        except SingularMatrixError:
            return 0.0
    n = factors.n
    v = _start_vector(n)
    sigma_prev = -np.inf
    sigma = 0.0
    for _ in range(max_iter):
        w = lu_solve(factors, v, transpose=True)
        y = lu_solve(factors, w)
        mu = float(v @ y)
        ny = float(np.linalg.norm(y))
        if mu <= 0.0 or ny == 0.0:
            # Rounding drove the quadratic form nonpositive: sigma_min is
            # below resolvable precision.
            return 0.0
        sigma = 1.0 / np.sqrt(mu)
        v = y / ny
        if abs(sigma - sigma_prev) <= tol * max(sigma, np.finfo(float).tiny):
            return sigma
        sigma_prev = sigma
    return sigma


def sign_diag(x: np.ndarray) -> np.ndarray:
    """Entrywise sign vector; zero entries map to sign 0."""
    return np.sign(x)
