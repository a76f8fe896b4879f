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

A problem's ``A`` never changes: ``AveProblem`` is frozen and holds a
read-only copy.  So what depends on ``A`` alone is kept per problem, here
beside it: :func:`kept_lu` keeps the LU of one problem's ``A`` in one
process-wide slot, and :func:`kept` keeps, for every live problem, each
value a caller computes from ``A`` alone: the singular-value interval
(:func:`spectral_interval`), the Banach verdict of
:func:`check_solvability`, and the deflation seed that ``inexact-drs``
and ``inexact-newton`` share (:func:`.solvers.deflation_seed`).  So solves and checks of one problem
factor its ``A``, bound its spectrum and probe its small singular
directions once between them.  :func:`clear_factorization` empties both
memories.
"""

from __future__ import annotations

import functools
import numbers
import weakref
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import linalg
from .linalg import EPS, LuFactors, is_sparse, norm2, singular_value_bounds

__all__ = [
    "ZeroResidualError",
    "GMatrix",
    "AveProblem",
    "kept_lu",
    "kept",
    "spectral_interval",
    "clear_factorization",
    "residual",
    "glcp_maps",
    "residual_via_projection",
    "rho",
    "theta_k",
    "Regime",
    "SolvabilityReport",
    "check_solvability",
]

# Half-width of the band around sigma_min = 1 reported as the boundary regime.
BOUNDARY_TOL = 1e-8

# The one contraction parameter the Banach certificate tries: any larger
# nu passes only if this one does (see ``_banach_witness``).
BANACH_NU = 0.01


# Accepted type and its description for each numeric field annotation that
# check_number_fields reads; NumPy scalars pass the ABCs.
_NUMBER_KINDS = {"float": (numbers.Real, "a number"), "int": (numbers.Integral, "an integer")}


@functools.cache
def _number_fields(cls) -> tuple:
    """(name, accepted type, its description, None allowed) for each field
    of dataclass ``cls`` annotated ``int`` or ``float``, or that ``| None``."""
    return tuple(
        (f.name, *_NUMBER_KINDS[kind], optional == "None")
        for f in fields(cls)
        for kind, _, optional in [f.type.partition(" | ")]
        if kind in _NUMBER_KINDS
    )


def check_number_fields(obj) -> None:
    """Raise ``ValueError`` naming the first numeric field of dataclass
    ``obj`` whose value is not of its annotated kind; a bool is never a
    number here."""
    for name, kind, what, optional in _number_fields(type(obj)):
        value = getattr(obj, name)
        if value is None and optional:
            continue
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{type(obj).__name__}: {name} must be {what}, got {value!r}")


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
    def lambda_max(self) -> float:
        return 1.0 if self.diag is None else float(np.max(self.diag))

    def apply_inv(self, v: np.ndarray) -> np.ndarray:
        return v if self.diag is None else v / self.diag


@dataclass(frozen=True, eq=False)
class AveProblem:
    """Instance data for ``A x - |x| - b = 0``.

    ``A`` is a square dense array or CSR matrix, ``b`` the right-hand side,
    ``known_solution`` an optional reference solution (checked on
    construction so stored problems cannot drift from their certificate).
    All three are copied, so later edits of the caller's arrays do not
    reach the problem.  The copy of ``A`` (for CSR: ``data``, ``indices``
    and ``indptr``) is a read-only view of a private read-only array, so an
    in-place edit raises and NumPy refuses to make the view writable again.
    The problem is frozen and compares by identity, so its factorization,
    spectral interval and deflation seed are kept for later solves and
    checks (:func:`kept_lu`, :func:`kept`).  A new matrix makes a new
    problem; ``dataclasses.replace(p, A=...)`` builds one.
    """

    A: object
    b: np.ndarray
    known_solution: np.ndarray | None = None

    def __post_init__(self) -> None:
        if is_sparse(self.A):
            M = sp.csr_matrix(self.A, copy=True)
            M.sum_duplicates()
            M.sort_indices()
            object.__setattr__(self, "A", M)
            # scipy can leave views of a larger buffer here.
            owners = [a if a.base is None else a.copy() for a in (M.data, M.indices, M.indptr)]
        else:
            owners = [np.array(self.A, dtype=np.float64, order="F", copy=True)]
        if not np.all(np.isfinite(owners[0])):
            raise ValueError("AveProblem: A has non-finite entries")
        # Each array is a view of a private read-only copy, which NumPy
        # will not make writable again through the view.
        for a in owners:
            a.flags.writeable = False
        views = [a.view() for a in owners]
        if is_sparse(self.A):
            M.data, M.indices, M.indptr = views
        else:
            object.__setattr__(self, "A", views[0])
        # What kept_lu and kept may keep rests on these arrays.
        object.__setattr__(self, "_arrays", tuple(views))
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1] or self.A.shape[0] == 0:
            raise ValueError(f"AveProblem: A must be square and nonempty, got shape {self.A.shape}")
        object.__setattr__(self, "b", np.array(self.b, dtype=np.float64).reshape(-1))
        if self.b.shape[0] != self.A.shape[0]:
            raise ValueError(
                f"AveProblem: b has length {self.b.shape[0]}, expected {self.A.shape[0]}"
            )
        if not np.all(np.isfinite(self.b)):
            raise ValueError("AveProblem: b has non-finite entries")
        if self.known_solution is not None:
            xs = np.array(self.known_solution, dtype=np.float64).reshape(-1)
            if xs.shape[0] != self.A.shape[0]:
                raise ValueError("AveProblem: known_solution has wrong length")
            object.__setattr__(self, "known_solution", xs)
            if not np.all(np.isfinite(xs)):
                raise ValueError("AveProblem: known_solution has non-finite entries")
            res = norm2(residual(self, xs))
            if not res <= 1e-10 * (1.0 + norm2(self.b)):
                raise ValueError(
                    f"AveProblem: known_solution has residual {res:.3e}, "
                    "not a solution at the stated tolerance"
                )

    @property
    def n(self) -> int:
        return self.A.shape[0]


# What kept() computed for each live problem: {problem: {compute: value}}.
_memos: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _intact(p: AveProblem) -> bool:
    """Whether ``p.A`` still holds the read-only arrays the problem made
    (a CSR matrix can be given new ``data``, ``indices`` or ``indptr``,
    whose values nothing stops from changing)."""
    A = p.A
    arrays = (A.data, A.indices, A.indptr) if is_sparse(A) else (A,)
    return all(a is own for a, own in zip(arrays, p._arrays))


def kept_lu(p: AveProblem) -> LuFactors:
    """:func:`.linalg.lu_factor` of ``p.A``, reused when the last call was
    for the same problem.

    The factors sit in the one process-wide slot :data:`.linalg.lu_slot`
    with a weak reference to ``p``, so the slot keeps no problem alive and
    a hit returns the very factors the first call computed.  A miss
    factors afresh, and ``lu_factor`` frees the old factors before it
    allocates the new ones; any other factorization empties the slot too.
    A problem whose ``A`` was given new arrays is never kept.
    """
    if not _intact(p):
        return linalg.lu_factor(p.A)
    slot = linalg.lu_slot
    if slot is None or slot[0]() is not p:
        del slot  # so that lu_factor's drop of the slot frees the old factors
        linalg.lu_slot = (weakref.ref(p), linalg.lu_factor(p.A))
    return linalg.lu_slot[1]


def kept(p: AveProblem, compute: Callable[[AveProblem], object]):
    """``compute(p)``, computed once per problem; ``compute`` must depend
    on ``p.A`` alone.

    The value is kept, under the function ``compute`` itself, until ``p``
    is collected (or :func:`clear_factorization`), and a later call for
    ``p`` returns the same object, so a kept array should be read-only.
    A problem whose ``A`` was given new arrays is never kept.
    """
    if not _intact(p):
        return compute(p)
    memo = _memos.setdefault(p, {})
    if compute not in memo:
        memo[compute] = compute(p)
    return memo[compute]


def _interval(p: AveProblem) -> tuple[float, float, float, float]:
    return singular_value_bounds(p.A)


def spectral_interval(p: AveProblem) -> tuple[float, float, float, float]:
    """:func:`.linalg.singular_value_bounds` of ``p.A``, computed once per
    problem (:func:`kept`)."""
    return kept(p, _interval)


def clear_factorization() -> None:
    """Empty both memories: the factorization slot of :func:`kept_lu` and
    everything :func:`kept` holds, so the next call for any problem
    computes afresh."""
    linalg.lu_slot = None
    _memos.clear()


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

    Identically 1 for the identity metric; in general lies between the
    smallest and the largest diagonal entry of ``G``.  Undefined at ``e = 0``.
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


def _banach_witness(p: AveProblem) -> float | None:
    """``BANACH_NU`` when ``||I - nu A|| < 1 - nu`` is proven there, else
    ``None``.

    ``phi(nu) = ||I - nu A|| - (1 - nu)`` is convex with ``phi(0) = 0``, so
    ``phi(nu) / nu`` is nondecreasing: if any ``nu`` passes, so does every
    smaller one, so no larger ``nu`` passes where ``BANACH_NU`` fails.
    ``||I - nu A|| >= nu ||A|| - 1`` rejects without a second bound.
    Forming ``I - nu A`` rounds entry ``(i, j)`` by at most
    ``eps (delta_ij + nu |a_ij|)``, which is at most
    ``eps sqrt(n) (1 + nu ||A||)`` in 2-norm, added to the bound.
    """
    nu = BANACH_NU
    A = p.A
    _, _, smax_lo, smax_hi = spectral_interval(p)
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
    :func:`.linalg.singular_value_bounds`.  The interval of ``A`` and the
    witness's verdict are kept per problem (:func:`kept`), so a repeated
    check bounds nothing.

    The regime is strictly monotone when the interval for ``sigma_min``
    lies above ``1 + BOUNDARY_TOL``, boundary monotone when it lies inside
    ``1 +- BOUNDARY_TOL``, and not covered otherwise: "not covered" means
    no certificate, which includes a singular ``A`` and an interval too wide
    to decide.  Each reported number sits on its safe side: ``sigma_min``
    is the lower bound, ``norm_A`` the upper bound and ``inv_norm`` is
    ``1 / sigma_min`` (``inf`` at 0).  ``banach_nu`` is ``BANACH_NU``
    when ``||I - nu A|| < 1 - nu`` is proven for it; no larger ``nu`` can
    pass where it fails.  Never raises.
    """
    smin_lo, smin_hi, _, smax_hi = spectral_interval(p)
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
        banach_nu=kept(p, _banach_witness),
    )
