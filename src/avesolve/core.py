"""Core quantities for the absolute value equation ``A x - |x| - b = 0``.

The equation is equivalent to a generalized complementarity problem over the
nonnegative orthant with the map pair ``Q(x) = A x + x - b`` and
``F(x) = A x - x - b``: a point solves the equation iff ``Q(x) >= 0``,
``F(x) >= 0`` and ``<Q(x), F(x)> = 0``.  That view gives a second, projection
based route to the residual, used as a cross-check against the direct
formula.

``rho`` and ``theta_k`` are the two ingredients of the splitting solvers: a
metric-dependent relaxation scalar and the linearized subproblem operator
whose root is the next iterate.

``check_solvability`` classifies a problem by the smallest singular value of
``A`` (unique solvability for every ``b`` holds when it exceeds 1) and
searches a fixed grid for a contraction witness ``nu`` with
``||I - nu A|| < 1 - nu``, which certifies unique solvability through the
Banach fixed-point theorem even for some matrices with smallest singular
value below 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .linalg import is_sparse, matrix_norm2_estimate, norm2, sigma_min_estimate

__all__ = [
    "ZeroResidualError",
    "GMatrix",
    "AveProblem",
    "residual",
    "glcp_maps",
    "residual_via_projection",
    "rho",
    "theta_k",
    "Regime",
    "SolvabilityReport",
    "check_solvability",
    "BANACH_NU_GRID",
]

# Half-width of the band around sigma_min = 1 reported as the boundary regime.
BOUNDARY_TOL = 1e-8

# Candidate contraction parameters for the Banach certificate.
BANACH_NU_GRID = np.round(np.arange(1, 100) * 0.01, 2)


class ZeroResidualError(Exception):
    """The relaxation scalar is undefined at an exact solution."""


@dataclass(frozen=True)
class GMatrix:
    """Symmetric positive definite metric, either the identity or a
    positive diagonal.  ``diag is None`` means identity."""

    diag: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.diag is not None:
            d = np.asarray(self.diag, dtype=np.float64).reshape(-1)
            if d.size == 0:
                raise ValueError("GMatrix: diagonal must be nonempty")
            if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
                raise ValueError("GMatrix: diagonal entries must be finite and positive")
            object.__setattr__(self, "diag", d)

    @classmethod
    def identity(cls) -> "GMatrix":
        return cls(diag=None)

    @classmethod
    def diagonal(cls, d) -> "GMatrix":
        return cls(diag=np.asarray(d, dtype=np.float64).reshape(-1))

    @property
    def is_identity(self) -> bool:
        return self.diag is None

    @property
    def lambda_min(self) -> float:
        return 1.0 if self.diag is None else float(np.min(self.diag))

    @property
    def lambda_max(self) -> float:
        return 1.0 if self.diag is None else float(np.max(self.diag))

    def apply(self, v: np.ndarray) -> np.ndarray:
        return v if self.diag is None else self.diag * v

    def apply_inv(self, v: np.ndarray) -> np.ndarray:
        return v if self.diag is None else v / self.diag

    def norm_sq(self, v: np.ndarray) -> float:
        """Quadratic form ``v^T G v``."""
        return float(v @ v) if self.diag is None else float(v @ (self.diag * v))


@dataclass
class AveProblem:
    """Instance data for ``A x - |x| - b = 0``.

    ``A`` is a square dense array or CSR matrix, ``b`` the right-hand side,
    ``known_solution`` an optional reference solution (checked on
    construction so stored problems cannot drift from their certificate).
    """

    A: object
    b: np.ndarray
    known_solution: np.ndarray | None = None

    def __post_init__(self) -> None:
        if is_sparse(self.A):
            M = sp.csr_matrix(self.A)
            M.sum_duplicates()
            M.sort_indices()
            self.A = M
            if not np.all(np.isfinite(M.data)):
                raise ValueError("AveProblem: A has non-finite entries")
        else:
            self.A = np.asfortranarray(np.asarray(self.A, dtype=np.float64))
            if not np.all(np.isfinite(self.A)):
                raise ValueError("AveProblem: A has non-finite entries")
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError(f"AveProblem: A must be square, got shape {self.A.shape}")
        self.b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        if self.b.shape[0] != self.A.shape[0]:
            raise ValueError(
                f"AveProblem: b has length {self.b.shape[0]}, expected {self.A.shape[0]}"
            )
        if not np.all(np.isfinite(self.b)):
            raise ValueError("AveProblem: b has non-finite entries")
        if self.known_solution is not None:
            xs = np.asarray(self.known_solution, dtype=np.float64).reshape(-1)
            if xs.shape[0] != self.A.shape[0]:
                raise ValueError("AveProblem: known_solution has wrong length")
            self.known_solution = xs
            res = norm2(residual(self, xs))
            if res > 1e-10 * (1.0 + norm2(self.b)):
                raise ValueError(
                    f"AveProblem: known_solution has residual {res:.3e}, "
                    "not a solution at the stated tolerance"
                )

    @property
    def n(self) -> int:
        return self.A.shape[0]


def residual(p: AveProblem, x: np.ndarray) -> np.ndarray:
    """Equation residual ``A x - |x| - b``."""
    return p.A @ x - np.abs(x) - p.b


def glcp_maps(p: AveProblem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complementarity pair ``Q(x) = A x + x - b`` and ``F(x) = A x - x - b``."""
    Ax = p.A @ x
    return Ax + x - p.b, Ax - x - p.b


def residual_via_projection(p: AveProblem, x: np.ndarray) -> np.ndarray:
    """Residual through the complementarity view:
    ``Q(x) - P[Q(x) - F(x)]`` with P the projection onto the nonnegative
    orthant.  Agrees with :func:`residual` up to rounding."""
    Q, F = glcp_maps(p, x)
    return Q - np.maximum(Q - F, 0.0)


def rho(G: GMatrix, e: np.ndarray) -> float:
    """Relaxation scalar ``||e||^2 / (e^T G^{-1} e)``.

    Identically 1 for the identity metric; in general lies in
    ``[lambda_min(G), lambda_max(G)]``.  Undefined at ``e = 0``.
    """
    if G.is_identity:
        if not np.any(e):
            raise ZeroResidualError("rho: undefined at zero residual")
        return 1.0
    num = float(e @ e)
    if num == 0.0:
        raise ZeroResidualError("rho: undefined at zero residual")
    den = float(e @ (e / G.diag))
    return num / den


def theta_k(
    p: AveProblem, G: GMatrix, gamma: float, xk: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Linearized subproblem operator at outer iterate ``xk``:

    ``Theta_k(x) = 2 A x - 2 A xk + gamma rho(xk) G^{-1} (A xk - |xk| - b)``.

    The splitting step takes ``x^{k+1}`` to be (an approximation of) the
    root of this affine map.
    """
    ek = residual(p, xk)
    if not np.any(ek):
        raise ZeroResidualError("theta_k: undefined at zero residual")
    rk = rho(G, ek)
    return 2.0 * (p.A @ x) - 2.0 * (p.A @ xk) + (gamma * rk) * G.apply_inv(ek)


class Regime(Enum):
    STRICTLY_MONOTONE = "StrictlyMonotone"
    BOUNDARY_MONOTONE = "BoundaryMonotone"
    NOT_COVERED = "NotCovered"


@dataclass(frozen=True)
class SolvabilityReport:
    sigma_min: float
    norm_A: float
    inv_norm: float
    regime: Regime
    banach_nu: float | None = None


def _eye_like(A, nu: float):
    n = A.shape[0]
    if is_sparse(A):
        return sp.identity(n, format="csr") - nu * A
    return np.eye(n) - nu * A


def check_solvability(p: AveProblem) -> SolvabilityReport:
    """Classify a problem by the smallest singular value of ``A`` and search
    for a Banach contraction witness.

    ``norm_A`` and ``sigma_min`` are the estimates of :mod:`.linalg` at
    relative tolerance 1e-8, the same ones the derived inexact-Newton
    ``theta`` is computed from.  Never raises: a numerically singular ``A``
    reports ``sigma_min = 0`` and the not-covered regime.  The witness
    search walks ``nu`` over ``BANACH_NU_GRID`` and reports the first value
    with ``||I - nu A|| < 1 - nu``; the comparison inherits the accuracy of
    the spectral-norm estimator.
    """
    norm_A = matrix_norm2_estimate(p.A, tol=1e-8)
    sigma_min = sigma_min_estimate(p.A, tol=1e-8)

    if sigma_min > 1.0 + BOUNDARY_TOL:
        regime = Regime.STRICTLY_MONOTONE
    elif abs(sigma_min - 1.0) <= BOUNDARY_TOL:
        regime = Regime.BOUNDARY_MONOTONE
    else:
        regime = Regime.NOT_COVERED

    banach_nu = None
    for nu in BANACH_NU_GRID:
        nu = float(nu)
        if matrix_norm2_estimate(_eye_like(p.A, nu), tol=1e-8) < 1.0 - nu:
            banach_nu = nu
            break

    inv_norm = float("inf") if sigma_min == 0.0 else 1.0 / sigma_min
    return SolvabilityReport(
        sigma_min=sigma_min,
        norm_A=norm_A,
        inv_norm=inv_norm,
        regime=regime,
        banach_nu=banach_nu,
    )
