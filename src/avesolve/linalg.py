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

Spectral-norm and smallest-singular-value estimates use power iteration on
``A^T A`` (inverse power iteration through an LU factorization for the
smallest).  The iteration stops once the Rayleigh quotient stabilizes, so on
matrices whose extreme singular values are tightly clustered the returned
value carries the cluster's width as error; on matrices with a spectral gap
it is accurate to roughly ``tol``.  Neither estimate fails: after
``max_iter`` sweeps it returns the last one, and a numerically singular
matrix has smallest singular value ``0.0``.
"""

from __future__ import annotations

import warnings
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
    "lu_operand",
    "lu_factor",
    "lu_solve",
    "norm2",
    "matrix_norm2_estimate",
    "sigma_min_estimate",
    "sign_diag",
]

# Pivots below this fraction of the largest entry magnitude are treated as zero.
PIVOT_RTOL = 1e-14


class SingularMatrixError(Exception):
    """LU factorization met a pivot indistinguishable from zero."""


def is_sparse(A) -> bool:
    return sp.issparse(A)


def to_dense(A) -> np.ndarray:
    """Return ``A`` as a column-major float64 array (always a copy)."""
    if is_sparse(A):
        d = A.toarray(order="F")
    else:
        d = np.array(A, dtype=np.float64, copy=True)
    if d.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={d.ndim}")
    return np.asfortranarray(d, dtype=np.float64)


def transposed(A):
    """``A.T`` built once for repeated products.

    Sparse input gives a CSR copy.  scipy builds ``A.T`` as a new CSC
    matrix object on every access, which at desk scale costs more than the
    product itself; the CSR copy sums each output entry's terms in the same
    order as that CSC product, so the products are bit-identical.  Dense
    input gives the free ``A.T`` view.
    """
    return A.T.tocsr() if is_sparse(A) else A.T


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


def lu_operand(A):
    """``A`` in the storage :func:`lu_factor` reads it from: sparse banded
    input as is, anything else widened once to dense.

    For callers that factor many diagonal shifts of one matrix, so that the
    dense path copies the widened matrix once per factorization instead of
    widening it again.
    """
    return A if band_layout(A) is not None else to_dense(A)


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
    O(n kl (kl + ku)) time and O(n (kl + ku)) memory; everything else is
    copied once into dense column-major storage and factored there in
    place.  ``shift`` (default zero) is subtracted from the diagonal of that
    copy, never from ``A``.  Raises :class:`SingularMatrixError` when any
    pivot magnitude falls below ``PIVOT_RTOL`` times the largest entry
    magnitude of the factored matrix.
    """
    shape = np.shape(A)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"lu_factor: matrix must be square, got shape {shape}")
    n = shape[0]
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
    scale = float(np.max(np.abs(d))) if d.size else 0.0
    if scale == 0.0:
        raise SingularMatrixError("lu_factor: matrix is identically zero")
    if band is None:
        with warnings.catch_warnings():
            # scipy warns instead of raising on exact zero pivots; the pivot
            # check below owns that diagnosis.
            warnings.simplefilter("ignore")
            lu, piv = scipy.linalg.lu_factor(d, overwrite_a=True, check_finite=False)
        pivots = np.abs(np.diag(lu))
    else:
        # info > 0 reports an exact zero pivot, which the check below catches.
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
        return scipy.linalg.lu_solve(
            (factors.lu, factors.piv), b, trans=trans, check_finite=False
        )
    kl, ku = factors.band
    x, _ = lapack.dgbtrs(factors.lu, kl, ku, b, factors.piv, trans=trans)
    return x


def norm2(x: np.ndarray) -> float:
    """Euclidean norm of a vector."""
    return float(np.linalg.norm(x))


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
    """
    if A.ndim != 2:
        raise ValueError("matrix_norm2_estimate: expected a 2-D matrix")
    n = A.shape[1]
    AT = transposed(A)
    v = _start_vector(n)
    sigma_prev = -np.inf
    sigma = 0.0
    for _ in range(max_iter):
        w = A @ v
        sigma = float(np.linalg.norm(w))
        if sigma == 0.0:
            return 0.0
        z = AT @ w
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            return sigma
        v = z / nz
        if abs(sigma - sigma_prev) <= tol * max(sigma, np.finfo(float).tiny):
            return sigma
        sigma_prev = sigma
    return sigma


def sigma_min_estimate(A, tol: float = 1e-10, max_iter: int = 50_000) -> float:
    """Estimate the smallest singular value by inverse power iteration.

    Runs power iteration on ``(A^T A)^{-1}`` using one LU factorization of
    ``A`` (two triangular solves per sweep) and stops like
    :func:`matrix_norm2_estimate`, approaching ``sigma_min`` from above.  A
    zero pivot, or a quadratic form rounded to nonpositive, gives ``0.0``.
    """
    if A.shape[0] != A.shape[1]:
        raise ValueError(
            f"sigma_min_estimate: matrix must be square, got shape {A.shape}"
        )
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
