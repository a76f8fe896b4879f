"""Iterative solvers for ``A x - |x| - b = 0``.

Seven methods behind one report type:

* ``drs_exact``: relaxed splitting step
  ``x^{k+1} = x^k - (gamma/2) rho(x^k) A^{-1} G^{-1} e(x^k)`` with
  ``e(x) = A x - |x| - b``; the linear solve uses one LU factorization of
  ``A`` amortized over all iterations.
* ``drs_inexact``: same step, but ``x^{k+1}`` only has to satisfy
  ``||Theta_k(x^{k+1})|| <= alpha_k ||e(x^k)||`` with ``Theta_k`` the affine
  subproblem map; the subproblem is solved matrix-free by warm-started LSQR
  whose residual target enforces exactly that bound.  The inner solves of
  one run share a :class:`Deflation` space of ``DEFLATION_K`` directions
  harvested from their own Lanczos vectors, at a cost of at most
  ``DEFLATION_BASIS + 3 DEFLATION_K = 220`` vectors of length n.
* ``newton_exact``: generalized Newton step
  ``[A - diag(sign(x^k))] x^{k+1} = b``, refactored every iteration.
* ``newton_inexact``: the same linear system solved by LSQR up to
  ``||r_k|| <= theta ||e(x^k)||``, where ``theta`` is either supplied or
  derived from norm estimates of ``A`` (undefined when ``||A^{-1}|| >= 1/3``);
  consecutive steps with one sign pattern continue one LSQR run.
* ``sor_like``: the two-sequence relaxation
  ``x^{k+1} = (1-omega) x^k + omega A^{-1}(y^k + b)``,
  ``y^{k+1} = (1-omega) y^k + omega |x^{k+1}|``.
* ``fixed_point``: ``x^{k+1} = x^k - nu e(x^k)``, inverse-free.
* ``fixed_point_inverse``: ``x^{k+1} = x^k - nu A^{-1} e(x^k)``, the
  ``drs_exact`` map with ``gamma = 2 nu`` and the identity metric; it runs
  as ``drs_exact``.

Every solver stops when ``||e(x^k)|| <= epsilon``, declares divergence when
``||x^k||`` reaches ``divergence_threshold``, and otherwise gives up at
``max_iter`` steps; the two Newton methods also stop as ``STAGNATED`` once
the sign pattern has settled and its linear solve cannot move ``x^k``
any further.  A singular linear system surfaces as a report status,
not an exception, so batch drivers can keep going.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .core import AveProblem, GMatrix, residual, rho, theta_k
from .linalg import (
    EPS,
    SingularMatrixError,
    lu_factor,
    lu_operand,
    lu_solve,
    matrix_norm2_estimate,
    norm2,
    sigma_min_estimate,
    sign_diag,
    transposed,
)
from .lsqr import LsqrStop, MatOperator, lsqr_solve

__all__ = [
    "Method",
    "SolveStatus",
    "SolverConfig",
    "SolveReport",
    "ThetaUndefinedError",
    "InnerSolverStallError",
    "drs_exact",
    "drs_inexact",
    "newton_exact",
    "newton_inexact",
    "sor_like",
    "fixed_point",
    "fixed_point_inverse",
    "run_solver",
    "write_report_trace",
]

# Inexactness schedules of drs_inexact, the values of SolverConfig.alpha_mode.
ALPHA_MODES = ("heuristic", "theoretical")

# Tightening retries granted to an inner LSQR solve before giving up.
INNER_RETRY_LIMIT = 5

# Directions in the deflation space of a drs_inexact run, and the Lanczos
# vectors an inner run records for the harvest.
DEFLATION_K = 20
DEFLATION_BASIS = 8 * DEFLATION_K

Callback = Callable[[int, np.ndarray], None]


class Method(str, Enum):
    DRS = "drs"
    DRS_INEXACT = "inexact-drs"
    NEWTON = "newton"
    NEWTON_INEXACT = "inexact-newton"
    SOR_LIKE = "sor-like"
    FIXED_POINT = "fixed-point"
    FIXED_POINT_INVERSE = "fixed-point-inverse"


class SolveStatus(Enum):
    CONVERGED = "Converged"
    MAX_ITER_REACHED = "MaxIterReached"
    DIVERGED = "Diverged"
    SINGULAR_SYSTEM = "SingularSystem"
    STAGNATED = "Stagnated"


class ThetaUndefinedError(Exception):
    """Automatic inexactness bound requires ``||A^{-1}|| < 1/3``."""


class InnerSolverStallError(Exception):
    """LSQR could not reach the inner acceptance criterion."""


class _Stagnation(Exception):
    """Raised by a step that cannot move its iterate any further."""


@dataclass(frozen=True)
class SolverConfig:
    """Shared knob set for every method; each solver reads what it needs.

    ``theta = None`` selects the derived inexact-Newton bound.  The
    inexactness schedule for ``drs_inexact`` is either ``"heuristic"``
    (``alpha_k = min(1, 1/max(1, k - k_max))``) or ``"theoretical"``
    (largest bound compatible with convergence for error-bound constant
    ``mu``; ``mu = inf`` collapses it to the exact method).
    """

    gamma: float = 1.98
    G: GMatrix = field(default_factory=GMatrix.identity)
    delta: float = 0.5
    epsilon: float = 1e-8
    max_iter: int = 1000
    omega: float = 0.9
    theta: float | None = None
    nu: float = 0.5
    alpha_mode: str = "heuristic"
    k_max: int = 10
    mu: float | None = None
    divergence_threshold: float = 1e8
    inner_max_iter: int | None = None

    def __post_init__(self) -> None:
        for name, kind, what, optional in _NUMERIC_FIELDS:
            value = getattr(self, name)
            if value is None and optional:
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"SolverConfig: {name} must be {what}, got {value!r}")
        if not 0.0 < self.gamma < 2.0:
            raise ValueError(f"SolverConfig: gamma must be in (0, 2), got {self.gamma}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"SolverConfig: delta must be in (0, 1), got {self.delta}")
        if not self.epsilon > 0.0:
            raise ValueError("SolverConfig: epsilon must be positive")
        if self.max_iter < 0:
            raise ValueError("SolverConfig: max_iter must be nonnegative")
        if not self.omega > 0.0:
            raise ValueError(f"SolverConfig: omega must be positive, got {self.omega}")
        if self.theta is not None and not self.theta >= 0.0:
            raise ValueError("SolverConfig: fixed theta must be nonnegative")
        if not 0.0 < self.nu < 1.0:
            raise ValueError(f"SolverConfig: nu must be in (0, 1), got {self.nu}")
        if self.alpha_mode not in ALPHA_MODES:
            raise ValueError(
                f"SolverConfig: alpha_mode must be {' or '.join(map(repr, ALPHA_MODES))}, "
                f"got {self.alpha_mode!r}"
            )
        if self.k_max < 0:
            raise ValueError("SolverConfig: k_max must be nonnegative")
        if self.mu is not None and not self.mu > 0.0:
            raise ValueError("SolverConfig: mu must be positive")
        if not self.divergence_threshold > 0.0:
            raise ValueError("SolverConfig: divergence_threshold must be positive")
        if self.inner_max_iter is not None and self.inner_max_iter < 1:
            raise ValueError("SolverConfig: inner_max_iter must be positive")


# (name, accepted type, its description, None allowed) for each numeric
# SolverConfig field, read from its annotation; NumPy scalars pass the ABCs.
_NUMBER_KINDS = {"float": (numbers.Real, "a number"), "int": (numbers.Integral, "an integer")}
_NUMERIC_FIELDS = tuple(
    (f.name, *_NUMBER_KINDS[kind], optional == "None")
    for f in fields(SolverConfig)
    for kind, _, optional in [f.type.partition(" | ")]
    if kind in _NUMBER_KINDS
)


@dataclass
class SolveReport:
    """Outcome of one solver run.

    Histories cover iterates ``0..iterations`` inclusive;
    ``inner_iteration_history[k]`` counts the LSQR iterations spent
    producing iterate ``k`` (0 for iterate 0 and for direct methods).
    """

    status: SolveStatus
    iterations: int
    final_residual_norm: float
    residual_history: list[float]
    iterate_norm_history: list[float]
    inner_iteration_history: list[int]
    inner_iteration_total: int
    wall_time: float


def _start_vector(v, n: int, name: str) -> np.ndarray:
    """A float copy of a start vector, checked for length ``n`` and finite
    entries."""
    v = np.array(v, dtype=np.float64, copy=True).reshape(-1)
    if v.shape[0] != n:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {n}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def _drive(
    p: AveProblem,
    cfg: SolverConfig,
    x0: np.ndarray | None,
    make_step,
    callback: Callback | None,
) -> SolveReport:
    """Shared outer loop: stopping rules, histories, timing.

    ``make_step`` runs once before the loop (factorizations, norm
    estimates) and returns ``step(x, k, e, e_norm) -> (x_next, inner_iters)``
    or raises SingularMatrixError, which becomes a report status.
    """
    if x0 is None:
        raise ValueError("x0 is required")
    t0 = time.perf_counter()
    x = _start_vector(x0, p.n, "x0")
    if not cfg.G.is_identity and cfg.G.diag.shape[0] != p.n:
        raise ValueError(f"G diagonal has length {cfg.G.diag.shape[0]}, expected {p.n}")

    res_hist: list[float] = []
    xnorm_hist: list[float] = []
    inner_hist: list[int] = [0]

    e = residual(p, x)
    en = norm2(e)
    res_hist.append(en)
    xnorm_hist.append(norm2(x))
    if callback is not None:
        callback(0, x)

    status: SolveStatus | None = None
    k = 0
    try:
        step = make_step()
    except SingularMatrixError:
        status = SolveStatus.SINGULAR_SYSTEM
        step = None

    while status is None:
        if en <= cfg.epsilon:
            status = SolveStatus.CONVERGED
            break
        if xnorm_hist[-1] >= cfg.divergence_threshold:
            status = SolveStatus.DIVERGED
            break
        if k >= cfg.max_iter:
            status = SolveStatus.MAX_ITER_REACHED
            break
        try:
            x, inner = step(x, k, e, en)
        except SingularMatrixError:
            status = SolveStatus.SINGULAR_SYSTEM
            break
        except _Stagnation:
            status = SolveStatus.STAGNATED
            break
        k += 1
        e = residual(p, x)
        en = norm2(e)
        res_hist.append(en)
        xnorm_hist.append(norm2(x))
        inner_hist.append(inner)
        if callback is not None:
            callback(k, x)

    return SolveReport(
        status=status,
        iterations=k,
        final_residual_norm=en,
        residual_history=res_hist,
        iterate_norm_history=xnorm_hist,
        inner_iteration_history=inner_hist,
        inner_iteration_total=sum(inner_hist),
        wall_time=time.perf_counter() - t0,
    )


def drs_exact(
    p: AveProblem,
    cfg: SolverConfig = SolverConfig(),
    x0: np.ndarray | None = None,
    callback: Callback | None = None,
) -> SolveReport:
    """Relaxed splitting iteration with exact linear solves."""

    def make_step():
        factors = lu_factor(p.A)

        def step(x, k, e, en):
            # rho is identically 1 under the identity metric (e != 0 here).
            coef = 0.5 * cfg.gamma if cfg.G.is_identity else 0.5 * cfg.gamma * rho(cfg.G, e)
            return x - coef * lu_solve(factors, cfg.G.apply_inv(e)), 0

        return step

    return _drive(p, cfg, x0, make_step, callback)


def _heuristic_alpha(k: int, k_max: int) -> float:
    return min(1.0, 1.0 / max(1, k - k_max))


class Deflation:
    """Recycled inner-solve space: directions ``Y`` with small ``||A y||``
    and ``W = A Y`` with orthonormal columns, shared by the inner solves of
    one run with the same ``A`` (augmented LSQR after Baglama, Reichel and
    Richmond, Numer. Algorithms 64, 2013; recycling after Parks, de Sturler
    et al., SIAM J. Sci. Comput. 28, 2006).

    :meth:`solve` takes the ``Y`` components exactly and runs LSQR on
    ``(I - W W^T) A``, whose smallest singular values are gone; every run
    of at least ``2 k`` iterations then refreshes the space from its first
    Lanczos vectors.  At most ``DEFLATION_BASIS + 3 k`` vectors of length
    ``n`` are held at once: the recorded basis, ``Y``, ``W`` and ``k`` Ritz
    vectors.
    """

    def __init__(self, A, k: int = DEFLATION_K, Y=None, W=None):
        n = A.shape[1]
        self.A = A
        self.AT = AT = transposed(A)
        self.k = k
        self.Y = np.empty((n, 0)) if Y is None else np.asarray(Y, dtype=np.float64)
        self.W = np.empty((n, 0)) if W is None else np.asarray(W, dtype=np.float64)
        # The products lsqr_solve forms for A itself: with an empty space the
        # run is plain warm-started LSQR, bit for bit.
        self.op = MatOperator(A.shape, lambda v: A @ v, lambda u: AT @ u)

    @property
    def size(self) -> int:
        return self.Y.shape[1]

    def solve(self, rhs: np.ndarray, x: np.ndarray, target: float, max_iter: int):
        """One inner run for ``A y = rhs`` from ``x``; returns the candidate
        and the LSQR result.  With an empty space this is plain warm-started
        LSQR.  Otherwise it starts at ``y0 = x + Y W^T r0`` and runs LSQR on
        ``(I - W W^T) A`` from zero with right side ``(I - W W^T) r0'``,
        where ``r0' = rhs - A y0``; the candidate
        ``y0 + d + Y W^T (r0' - A d)`` has true residual
        ``(I - W W^T)(r0' - A d)``, the residual LSQR stopped on, in exact
        arithmetic."""
        if self.size == 0:
            res = lsqr_solve(self.op, rhs, target, x0=x, max_iter=max_iter,
                             keep_basis=DEFLATION_BASIS)
            cand = res.solution
        else:
            A, AT, Y, W, matvec = self.A, self.AT, self.Y, self.W, self.op.matvec

            def project(u):
                return u - W @ (W.T @ u)

            deflated = MatOperator(A.shape, lambda v: project(A @ v), lambda u: AT @ project(u))
            y0 = x + Y @ (W.T @ (rhs - matvec(x)))
            r0 = rhs - matvec(y0)
            res = lsqr_solve(deflated, project(r0), target, max_iter=max_iter,
                             keep_basis=DEFLATION_BASIS)
            d = res.solution
            cand = y0 + d + Y @ (W.T @ (r0 - matvec(d)))
        if res.iterations >= 2 * self.k:
            self._harvest(res)
        res.basis = None
        return cand, res

    def _harvest(self, res) -> None:
        """Rayleigh-Ritz with ``A`` on ``Y`` and the ``k`` smallest Ritz
        vectors of the run: keep the ``k`` directions of smallest
        ``||A y||``."""
        V, B = res.basis
        res.basis = None
        a, b = np.diag(B), np.diag(B, -1)
        # B^T B is tridiagonal; its eigenvectors map through V to Ritz vectors.
        _, S = scipy.linalg.eigh_tridiagonal(
            a * a + b * b, b[:-1] * a[1:], select="i", select_range=(0, self.k - 1)
        )
        Z = V @ S
        del V
        Q = scipy.linalg.qr(np.hstack([self.Y, Z]), mode="economic")[0]
        del Z
        U, s, Ht = scipy.linalg.svd(self.A @ Q, full_matrices=False)
        # s is descending; an exact zero (A singular on span Q) cannot be kept.
        hi = int(np.count_nonzero(s))
        lo = max(hi - self.k, 0)
        self.Y = (Q @ Ht[lo:hi].T) / s[lo:hi]
        self.W = U[:, lo:hi].copy()


class ContinuedRun:
    """One LSQR run on a fixed operator ``op``, continued across inner
    solves of the same linear system.

    :meth:`solve` resumes the run while it can, and otherwise starts a
    fresh one from the ``x`` it is given.  A resumed run ignores ``x``:
    callers hand back the candidate of the previous solve, which is the
    run's current iterate.  A run that stopped at ``Roundoff`` is not
    resumed; :attr:`exhausted` says so.
    """

    def __init__(self, op: MatOperator):
        self.op = op
        self.res = None

    @property
    def exhausted(self) -> bool:
        return self.res is not None and self.res.stop_reason is LsqrStop.ROUNDOFF

    def solve(self, rhs: np.ndarray, x: np.ndarray, target: float, max_iter: int):
        """The next candidate for ``op y = rhs`` and its LSQR result."""
        if self.res is not None and self.res.state is not None:
            res = lsqr_solve(self.op, rhs, target, max_iter=max_iter, resume=self.res)
        else:
            res = lsqr_solve(self.op, rhs, target, x0=x, max_iter=max_iter)
        self.res = res
        return res.solution, res


def _solve_to_criterion(
    space: Deflation | ContinuedRun,
    rhs: np.ndarray,
    x_start: np.ndarray,
    target: float,
    accepts: Callable[[np.ndarray], bool],
    max_inner: int,
    what: str,
    op_norm: float,
):
    """Inner solves of ``space.op y = rhs`` through ``space.solve`` until
    ``accepts`` passes on the returned candidate, halving the residual
    target between attempts.

    Each attempt's LSQR run stops at the first iterate whose true residual
    is at most the current target.  LSQR recomputes that residual (one
    extra matvec) only on iterations where its recurrence estimate
    ``phibar`` is at most twice the target; ``phibar`` tracks the true
    residual far closer than that factor, so the skipped iterations are
    ones that could not have stopped.  :meth:`Deflation.solve` both uses
    and refreshes a deflation space, and :meth:`ContinuedRun.solve`
    continues one LSQR run where the previous attempt, or the previous
    solve of the same system, stopped.

    A candidate whose true residual has reached the roundoff scale of the
    system, ``16 eps (||op|| ||x|| + ||rhs||)``, is accepted even when the
    requested bound is smaller: no double-precision solve, direct or
    iterative, can certify a residual below that scale, so the candidate
    already is an exact solve for every representable purpose.
    ``op_norm`` is an estimate of ``||op||`` for that scale.  A candidate of
    a first attempt that was deflated does not take the escape: its
    ``Y W^T`` corrections leave rounding errors of that scale in the
    residual without a single LSQR iteration spent on them, and one retry
    removes them.
    """
    inner_total = 0
    x_warm = x_start
    rhs_norm = norm2(rhs)
    deflated_first = isinstance(space, Deflation) and space.size > 0
    for attempt in range(INNER_RETRY_LIMIT + 1):
        cand, res = space.solve(rhs, x_warm, target, max_inner)
        inner_total += res.iterations
        if accepts(cand):
            return cand, inner_total
        if not (attempt == 0 and deflated_first):
            rn = norm2(rhs - space.op.matvec(cand))
            floor = 16.0 * EPS * (op_norm * norm2(cand) + rhs_norm)
            if rn <= floor:
                return cand, inner_total
        x_warm = cand
        target *= 0.5
    raise InnerSolverStallError(
        f"{what}: LSQR could not reach the acceptance criterion within "
        f"{INNER_RETRY_LIMIT + 1} attempts of {max_inner} iterations each"
    )


def drs_inexact(
    p: AveProblem,
    cfg: SolverConfig = SolverConfig(),
    x0: np.ndarray | None = None,
    callback: Callback | None = None,
) -> SolveReport:
    """Relaxed splitting iteration with LSQR subproblem solves.

    In theoretical mode an infinite error-bound constant ``mu`` leaves a
    zero inexactness budget at every step; that run delegates to
    :func:`drs_exact`.

    Near convergence on badly scaled problems the step bound
    ``alpha ||e||`` can drop below the roundoff scale of the subproblem;
    such steps are solved to roundoff and accepted, so recomputing the
    bound on them can show a violation at that scale.
    """
    if cfg.alpha_mode == "theoretical" and cfg.mu is None:
        raise ValueError("drs_inexact: theoretical alpha schedule requires mu")
    if cfg.alpha_mode == "theoretical" and cfg.mu == math.inf:
        return drs_exact(p, cfg, x0, callback)

    def make_step():
        space = Deflation(p.A)
        max_inner = cfg.inner_max_iter if cfg.inner_max_iter is not None else 10 * p.n
        theoretical = cfg.alpha_mode == "theoretical"
        if theoretical:
            # ||A^T G|| = ||G A||, which under the identity metric is ||A||.
            GA = p.A if cfg.G.is_identity else sp.diags(cfg.G.diag) @ p.A
            atg_norm = matrix_norm2_estimate(GA, tol=1e-8)
        shared = theoretical and cfg.G.is_identity
        a_norm = atg_norm if shared else matrix_norm2_estimate(p.A, tol=1e-6)

        def step(x, k, e, en):
            rk = rho(cfg.G, e)
            if not theoretical:
                alpha = _heuristic_alpha(k, cfg.k_max)
            else:
                alpha = ((1.0 - cfg.delta) * cfg.gamma * (2.0 - cfg.gamma) * rk) / (
                    4.0 * cfg.mu * atg_norm
                    + 2.0 * cfg.gamma * rk
                    + cfg.G.lambda_max
                )
            coef = 0.5 * cfg.gamma * rk
            z = cfg.G.apply_inv(e)
            # Theta_k(y) = 2 (A y - rhs), so the inner criterion
            # ||Theta_k|| <= alpha ||e|| maps to a residual target alpha ||e|| / 2.
            rhs = p.A @ x - coef * z
            bound = alpha * en
            theta = theta_k(p, cfg.G, cfg.gamma, x)

            def accepts(cand: np.ndarray) -> bool:
                return norm2(theta(cand)) <= bound

            return _solve_to_criterion(
                space, rhs, x, 0.5 * bound, accepts, max_inner, "drs_inexact", a_norm
            )

        return step

    return _drive(p, cfg, x0, make_step, callback)


def newton_exact(
    p: AveProblem,
    cfg: SolverConfig = SolverConfig(),
    x0: np.ndarray | None = None,
    callback: Callback | None = None,
) -> SolveReport:
    """Generalized Newton iteration ``[A - diag(sign(x^k))] x^{k+1} = b``.

    Banded sparse ``A`` is refactored in band storage, O(n bandwidth) per
    step; any other ``A`` is widened once and copied for each dense LU.
    An unconverged iterate with the sign pattern of the previous one ends
    the run as ``STAGNATED``: the next step would solve the same system
    and return it bit for bit.
    """

    def make_step():
        A = lu_operand(p.A)
        prev = None

        def step(x, k, e, en):
            nonlocal prev
            s = sign_diag(x)
            if prev is not None and np.array_equal(s, prev):
                raise _Stagnation
            prev = s
            return lu_solve(lu_factor(A, shift=s), p.b), 0

        return step

    return _drive(p, cfg, x0, make_step, callback)


def resolve_newton_theta(p: AveProblem, cfg: SolverConfig) -> tuple[float, float | None]:
    """Inexactness bound for ``newton_inexact`` and the ``||A||`` estimate
    it was derived from.

    A fixed ``cfg.theta`` is returned as-is, with ``None`` for the norm.
    Otherwise the bound
    ``0.9999 (1 - 3 ||A^{-1}||) / (||A^{-1}|| (||A|| + 3))`` is evaluated
    from norm estimates; it only exists for ``||A^{-1}|| < 1/3``.
    """
    if cfg.theta is not None:
        return cfg.theta, None
    norm_A = matrix_norm2_estimate(p.A, tol=1e-8)
    sigma_min = sigma_min_estimate(p.A, tol=1e-8)
    inv_norm = np.inf if sigma_min == 0.0 else 1.0 / sigma_min
    if inv_norm >= 1.0 / 3.0:
        raise ThetaUndefinedError(
            f"newton_inexact: derived theta needs ||A^-1|| < 1/3, "
            f"estimated ||A^-1|| = {inv_norm:.4f}"
        )
    return 0.9999 * (1.0 - 3.0 * inv_norm) / (inv_norm * (norm_A + 3.0)), norm_A


def newton_inexact(
    p: AveProblem,
    cfg: SolverConfig = SolverConfig(),
    x0: np.ndarray | None = None,
    callback: Callback | None = None,
) -> SolveReport:
    """Generalized Newton iteration with LSQR linear solves.

    Each step accepts ``x^{k+1}`` once
    ``||[A - diag(sign(x^k))] x^{k+1} - b|| <= theta ||e(x^k)||``.
    ``theta = 0`` leaves no inexactness budget and delegates to
    :func:`newton_exact`.  Steps whose bound falls below the roundoff
    scale of the linear system are solved to roundoff and accepted.

    Consecutive steps with the same sign pattern solve the same system, and
    ``x^k`` is the iterate the previous step's LSQR run stopped on, so such
    a step resumes that run (:class:`ContinuedRun`) at the new target
    instead of starting a Krylov space from scratch; a changed pattern
    starts a fresh run from ``x^k``.  A run that stopped at ``Roundoff``
    has gone as far as double precision takes that system, so an
    unconverged step with its pattern ends the solve as ``STAGNATED``.
    """
    theta, norm_A = resolve_newton_theta(p, cfg)
    if theta == 0.0:
        return newton_exact(p, cfg, x0, callback)

    def make_step():
        max_inner = cfg.inner_max_iter if cfg.inner_max_iter is not None else 10 * p.n
        AT = transposed(p.A)
        # ||A - diag(sign(x))|| <= ||A|| + 1, a tight enough scale here; a
        # derived theta comes with its ||A|| estimate.
        jac_norm = (norm_A if norm_A is not None else matrix_norm2_estimate(p.A, tol=1e-6)) + 1.0
        run, prev = None, None

        def step(x, k, e, en):
            nonlocal run, prev
            s = sign_diag(x)
            if prev is None or not np.array_equal(s, prev):
                run = ContinuedRun(MatOperator(
                    p.A.shape,
                    lambda v: p.A @ v - s * v,
                    lambda v: AT @ v - s * v,
                ))
                prev = s
            elif run.exhausted:
                raise _Stagnation
            bound = theta * en

            def accepts(cand: np.ndarray) -> bool:
                return norm2(p.A @ cand - s * cand - p.b) <= bound

            return _solve_to_criterion(
                run, p.b, x, bound, accepts, max_inner, "newton_inexact", jac_norm
            )

        return step

    return _drive(p, cfg, x0, make_step, callback)


def sor_like(
    p: AveProblem,
    cfg: SolverConfig = SolverConfig(),
    x0: np.ndarray | None = None,
    y0: np.ndarray | None = None,
    callback: Callback | None = None,
) -> SolveReport:
    """Two-sequence relaxation iteration; ``y0`` defaults to ``x0``."""
    y_init = x0 if y0 is None else y0

    def make_step():
        factors = lu_factor(p.A)
        y = _start_vector(y_init, p.n, "y0")
        omega = cfg.omega

        def step(x, k, e, en):
            x_next = (1.0 - omega) * x + omega * lu_solve(factors, y + p.b)
            y[:] = (1.0 - omega) * y + omega * np.abs(x_next)
            return x_next, 0

        return step

    return _drive(p, cfg, x0, make_step, callback)


def fixed_point(
    p: AveProblem,
    cfg: SolverConfig = SolverConfig(),
    x0: np.ndarray | None = None,
    callback: Callback | None = None,
) -> SolveReport:
    """Inverse-free contraction iteration ``x - nu e(x)``."""

    def make_step():
        def step(x, k, e, en):
            return x - cfg.nu * e, 0

        return step

    return _drive(p, cfg, x0, make_step, callback)


def fixed_point_inverse(
    p: AveProblem,
    cfg: SolverConfig = SolverConfig(),
    x0: np.ndarray | None = None,
    callback: Callback | None = None,
) -> SolveReport:
    """Contraction iteration ``x - nu A^{-1} e(x)`` with one amortized LU.

    This is the :func:`drs_exact` update with ``gamma = 2 nu`` and the
    identity metric, and runs as that.
    """
    return drs_exact(p, replace(cfg, gamma=2.0 * cfg.nu, G=GMatrix.identity()), x0, callback)


_DISPATCH = {
    Method.DRS: drs_exact,
    Method.DRS_INEXACT: drs_inexact,
    Method.NEWTON: newton_exact,
    Method.NEWTON_INEXACT: newton_inexact,
    Method.SOR_LIKE: sor_like,
    Method.FIXED_POINT: fixed_point,
    Method.FIXED_POINT_INVERSE: fixed_point_inverse,
}


def run_solver(
    method: Method | str,
    p: AveProblem,
    cfg: SolverConfig = SolverConfig(),
    x0: np.ndarray | None = None,
    seed: int | None = None,
    callback: Callback | None = None,
) -> SolveReport:
    """Dispatch a solve by method name.

    Exactly one of ``x0`` and ``seed`` must be given; a seed draws the
    standard random start (entries uniform on (-100, 100)).  Two calls with
    the same seed and config produce identical reports except for timing.
    """
    try:
        method = Method(method)
    except ValueError:
        valid = ", ".join(m.value for m in Method)
        raise ValueError(f"run_solver: unknown method {method!r}; expected one of {valid}")
    if (x0 is None) == (seed is None):
        raise ValueError("run_solver: give exactly one of x0 and seed")
    if x0 is None:
        from .generators import gen_x0

        x0 = gen_x0(p.n, seed)
    return _DISPATCH[method](p, cfg, x0=x0, callback=callback)


def write_report_trace(report: SolveReport, path) -> None:
    """Write per-iteration history as CSV
    ``iteration,residual_norm,iterate_norm,inner_iterations``."""
    with open(path, "w") as f:
        f.write("iteration,residual_norm,iterate_norm,inner_iterations\n")
        for k in range(report.iterations + 1):
            f.write(
                f"{k},{report.residual_history[k]:.17g},"
                f"{report.iterate_norm_history[k]:.17g},"
                f"{report.inner_iteration_history[k]}\n"
            )
