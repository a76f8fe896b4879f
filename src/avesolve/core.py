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
``A`` (unique solvability for every ``b`` holds when it exceeds 1) and looks
for a contraction witness ``nu`` with ``||I - nu A|| < 1 - nu``, which
certifies unique solvability through the Banach fixed-point theorem even for
some matrices with smallest singular value below 1.  Both answers rest on
guaranteed bounds, so a certificate is never issued on an estimate's word.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .linalg import EPS, is_sparse, norm2, singular_value_bounds

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

# Candidate contraction parameters for the Banach certificate.  A value
# passes only if the first one does (see ``_banach_witness``).
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
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1] or self.A.shape[0] == 0:
            raise ValueError(f"AveProblem: A must be square and nonempty, got shape {self.A.shape}")
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
    p: AveProblem, G: GMatrix, gamma: float, xk: np.ndarray, x: np.ndarray | None = None
):
    """Linearized subproblem operator at outer iterate ``xk``:

    ``Theta_k(x) = 2 A x - 2 A xk + gamma rho(xk) G^{-1} (A xk - |xk| - b)``.

    The splitting step takes ``x^{k+1}`` to be (an approximation of) the
    root of this affine map.  Returns ``Theta_k(x)``; without ``x``, returns
    the map ``x -> Theta_k(x)`` itself, whose terms in ``xk`` are computed
    once, so a solver testing many candidates in one step pays one product
    with ``A`` per candidate.  Both give the same bits.
    """
    ek = residual(p, xk)
    if not np.any(ek):
        raise ZeroResidualError("theta_k: undefined at zero residual")
    rk = rho(G, ek)
    # Evaluated in the order of the formula above: (2 A x - 2 A xk) + shift.
    axk2 = 2.0 * (p.A @ xk)
    shift = (gamma * rk) * G.apply_inv(ek)

    def step_map(y: np.ndarray) -> np.ndarray:
        return 2.0 * (p.A @ y) - axk2 + shift

    return step_map if x is None else step_map(x)


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


def _banach_witness(A, smax_lo: float, smax_hi: float) -> float | None:
    """``BANACH_NU_GRID[0]`` when ``||I - nu A|| < 1 - nu`` is proven there,
    else ``None``.

    ``phi(nu) = ||I - nu A|| - (1 - nu)`` is convex with ``phi(0) = 0``, so
    ``phi(nu) / nu`` is nondecreasing: if any grid value passes, so does
    every smaller one.  ``||I - nu A|| >= nu ||A|| - 1`` rejects without a
    second bound.  Forming ``I - nu A`` rounds entry ``(i, j)`` by at most
    ``eps (delta_ij + nu |a_ij|)``, which is at most
    ``eps sqrt(n) (1 + nu ||A||)`` in 2-norm, added to the bound.
    """
    nu = float(BANACH_NU_GRID[0])
    if nu * smax_lo - 1.0 >= 1.0 - nu:
        return None
    n = A.shape[0]
    if is_sparse(A):
        shifted = sp.identity(n, format="csr") - nu * A
    else:
        shifted = np.eye(n) - nu * A
    hi = singular_value_bounds(shifted)[3] + EPS * np.sqrt(n) * (1.0 + nu * smax_hi)
    return nu if hi < 1.0 - nu else None


def check_solvability(p: AveProblem) -> SolvabilityReport:
    """Classify a problem by the smallest singular value of ``A`` and look
    for a Banach contraction witness, from the guaranteed intervals of
    :func:`.linalg.singular_value_bounds`.

    The regime is strictly monotone when the interval for ``sigma_min``
    lies above ``1 + BOUNDARY_TOL``, boundary monotone when it lies inside
    ``1 +- BOUNDARY_TOL``, and not covered otherwise: "not covered" means
    no certificate, which includes a singular ``A`` and an interval too wide
    to decide.  Each reported number sits on its safe side: ``sigma_min``
    is the lower bound, ``norm_A`` the upper bound and ``inv_norm`` is
    ``1 / sigma_min`` (``inf`` at 0).  ``banach_nu`` is the first value of
    ``BANACH_NU_GRID`` when ``||I - nu A|| < 1 - nu`` is proven for it,
    which happens exactly when it can be proven for any grid value.  Never
    raises.
    """
    smin_lo, smin_hi, smax_lo, smax_hi = singular_value_bounds(p.A)
    if smin_lo > 1.0 + BOUNDARY_TOL:
        regime = Regime.STRICTLY_MONOTONE
    elif 1.0 - BOUNDARY_TOL <= smin_lo and smin_hi <= 1.0 + BOUNDARY_TOL:
        regime = Regime.BOUNDARY_MONOTONE
    else:
        regime = Regime.NOT_COVERED

    inv_norm = float("inf") if smin_lo == 0.0 else 1.0 / smin_lo
    return SolvabilityReport(
        sigma_min=smin_lo,
        norm_A=smax_hi,
        inv_norm=inv_norm,
        regime=regime,
        banach_nu=_banach_witness(p.A, smax_lo, smax_hi),
    )
