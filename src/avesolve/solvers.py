"""Iterative solvers for ``A x - |x| - b = 0``.

Seven methods, selected by :class:`Method` name through :func:`run_solver`,
behind one report type:

* ``drs``: relaxed splitting step
  ``x^{k+1} = x^k - (gamma/2) rho(x^k) A^{-1} G^{-1} e(x^k)`` with
  ``e(x) = A x - |x| - b``; the linear solve uses one LU factorization of
  ``A`` amortized over all iterations, and over later solves of the same
  problem (see :func:`.core.kept_lu`).
* ``inexact-drs``: same step, but ``x^{k+1}`` only has to satisfy
  ``||Theta_k(x^{k+1})|| <= alpha_k ||e(x^k)||`` with ``Theta_k`` the affine
  subproblem map; the subproblem is solved matrix-free by warm-started LSQR
  whose residual target enforces exactly that bound.  The inner solves of
  one run share a :class:`Deflation` space of ``DEFLATION_K`` directions
  harvested from their own Lanczos vectors, at a cost of at most
  ``DEFLATION_BASIS + 3 DEFLATION_K = 220`` vectors of length n.  For
  ``n > DEFLATION_BASIS`` the space starts, at the first inner run long
  enough to harvest, from the problem's kept :func:`deflation_seed`.
* ``newton``: generalized Newton step
  ``[A - diag(sign(x^k))] x^{k+1} = b``, refactored every iteration.
* ``inexact-newton``: the same linear system solved by LSQR up to
  ``||r_k|| <= theta ||e(x^k)||``, where ``theta`` is either supplied or
  derived from norm estimates of ``A`` (undefined when ``||A^{-1}|| >= 1/3``);
  consecutive steps with one sign pattern continue one LSQR run, on one
  :class:`Deflation` space retargeted at each new pattern.  For
  ``n > DEFLATION_BASIS`` a run whose inner solve reaches ``2 DEFLATION_K``
  iterations reads the same kept seed, and when the probe measured it to
  pay (``SEED_GAIN_GATE``) deflates each new pattern's run with the seed
  rebased onto ``A - diag(s)``; it never harvests or writes to the seed.
* ``sor-like``: the two-sequence relaxation
  ``x^{k+1} = (1-omega) x^k + omega A^{-1}(y^k + b)``,
  ``y^{k+1} = (1-omega) y^k + omega |x^{k+1}|`` from ``y^0 = x^0``.
* ``fixed-point``: ``x^{k+1} = x^k - nu e(x^k)``, inverse-free.
* ``fixed-point-inverse``: ``x^{k+1} = x^k - nu A^{-1} e(x^k)``, the
  ``drs`` map with ``gamma = 2 nu`` and the identity metric; it runs
  as ``drs``.

Every solver stops when ``||e(x^k)|| <= epsilon``, declares divergence when
``||x^k||`` reaches ``divergence_threshold``, and otherwise gives up at
``max_iter`` steps; the two Newton methods also stop as ``STAGNATED`` once
the sign pattern has settled and its linear solve cannot move ``x^k``
any further.  Every failure is a report status, never an exception, so
batch drivers can keep going: a singular linear system ends the run as
``SingularSystem``, an ``inexact-newton`` run whose derived ``theta`` is
undefined as ``ThetaUndefined`` at iteration 0, and an inexact run whose
LSQR inner solve cannot meet its bound within its retries as
``InnerSolverStalled``, with the history up to that step kept.

Every LU factorization of ``A``, the one behind a derived ``theta``'s
``sigma_min_estimate`` included, goes through :func:`.core.kept_lu`, which
keeps it in a single process-wide slot (``newton``'s LU of ``A - diag(s)``
lasts one step): ``drs``, ``sor-like``, ``fixed-point-inverse`` and a
derived-``theta`` ``inexact-newton`` run on one problem factor ``A`` once
between them.  The theoretical ``alpha`` of ``inexact-drs`` under the
identity metric reads :func:`.core.spectral_interval`, which computes the
interval of a problem's ``A`` once, and both inexact methods read its
deflation seed through :func:`.core.kept`, which probes a problem's ``A``
once.  None of these changes an iterate: a run gives the same iterates
whether it computes what it needs or finds it kept.
:func:`clear_factorization` empties both memories.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import linalg
from .core import (
    AveProblem,
    GMatrix,
    check_number_fields,
    clear_factorization,
    kept,
    kept_lu,
    residual,
    rho,
    spectral_interval,
    theta_k,
)
from .linalg import (
    SingularMatrixError,
    lu_factor,
    lu_solve,
    matrix_norm2_estimate,
    norm2,
    product,
    sigma_min_estimate,
    sign_diag,
    singular_value_bounds,
    transposed,
)
from .lsqr import LsqrStop, MatOperator, lsqr_solve

__all__ = [
    "Method",
    "SolveStatus",
    "SolverConfig",
    "SolveReport",
    "run_solver",
    "clear_factorization",
    "write_report_trace",
]

# Inexactness schedules of inexact-drs, the values of SolverConfig.alpha_mode.
ALPHA_MODES = ("heuristic", "theoretical")

# Tightening retries granted to an inner LSQR solve before giving up.
INNER_RETRY_LIMIT = 5

# Directions in the deflation space of an inexact-drs run, and the Lanczos
# vectors an inner run records for the harvest.
DEFLATION_K = 20
DEFLATION_BASIS = 8 * DEFLATION_K

# Passes of the probe behind a problem's deflation seed (deflation_seed):
# each is a deflated LSQR run of DEFLATION_BASIS iterations and a harvest.
# Fewer passes make a run that computes the seed cheaper and every run
# that adopts it dearer.
SEED_PASSES = DEFLATION_BASIS // (2 * DEFLATION_K)

# An inexact-newton run adopts a deflation seed only when the probe saw it
# speed LSQR up by more than this factor (DeflationSeed.gain): beyond
# n of about 1000 the probe misses the bottom of the spectrum, and the
# two projections per iteration cost more than the iterations they save.
SEED_GAIN_GATE = 4.0

# LSQR iterations spent by deflation_seed in this process, and inner-solve
# retries made by _solve_to_criterion; a run counts the ones made during it.
probe_iteration_count = 0
inner_retry_count = 0

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
    THETA_UNDEFINED = "ThetaUndefined"
    INNER_SOLVER_STALLED = "InnerSolverStalled"


class _Stop(Exception):
    """Raised by a method's set-up or step to end the run with ``status``;
    ``inner`` counts the inner iterations spent by a step that ended it."""

    def __init__(self, status: SolveStatus, inner: int = 0):
        self.status = status
        self.inner = inner


@dataclass(frozen=True)
class SolverConfig:
    """Shared knob set for every method; each solver reads what it needs.

    ``theta = None`` selects the derived inexact-Newton bound.  The
    inexactness schedule for ``inexact-drs`` is either ``"heuristic"``
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
        check_number_fields(self)
        if not isinstance(self.G, GMatrix):
            raise ValueError(f"SolverConfig: G must be a GMatrix, got {type(self.G).__name__}")
        if not 0.0 < self.gamma < 2.0:
            raise ValueError(f"SolverConfig: gamma must be in (0, 2), got {self.gamma}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"SolverConfig: delta must be in (0, 1), got {self.delta}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"SolverConfig: epsilon must be finite and > 0, got {self.epsilon}")
        if self.max_iter < 0:
            raise ValueError("SolverConfig: max_iter must be nonnegative")
        if not 0.0 < self.omega < math.inf:
            raise ValueError(f"SolverConfig: omega must be finite and > 0, got {self.omega}")
        if self.theta is not None and not 0.0 <= self.theta < math.inf:
            raise ValueError(f"SolverConfig: theta must be finite and >= 0, got {self.theta}")
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


@dataclass
class SolveReport:
    """Outcome of one solver run.

    Histories cover iterates ``0..iterations`` inclusive;
    ``inner_iteration_history[k]`` counts the LSQR iterations spent
    producing iterate ``k`` (0 for iterate 0 and for direct methods).
    ``inner_iteration_total`` counts every LSQR iteration of the run.  It
    equals the sum of the history plus two kinds of iterations that
    produced no iterate: those of the step that stalled, after
    ``INNER_SOLVER_STALLED``, and those of the probe behind the problem's
    deflation seed, when this run computed it (:func:`deflation_seed`).
    ``inner_retries`` counts the inner attempts that repeated a step's
    solve because its check refused the candidate
    (:func:`_solve_to_criterion`); a capped first run that continues
    deflated and the probe's passes are not retries.
    ``factorizations`` counts the LU factorizations the run computed,
    those of a derived ``theta``'s norm estimates included; an LU of ``A``
    reused from an earlier run on the same problem counts 0.
    ``wall_time`` covers the whole run, set-up included: factorizations,
    the norm estimates of a derived ``theta``, the deflation probe, and
    the method's option checks.  What the process kept from an earlier run
    on the same problem costs nothing, so such a run can take less time
    than the same run cold.

    Status, iterations, every history and the final iterate depend only on
    the problem, the start, the config and the BLAS thread count (LSQR's
    products round differently on more threads), never on what the
    process kept: a kept factorization, interval or deflation seed is bit
    for bit what the run would have computed.  ``factorizations``,
    ``inner_iteration_total`` and ``wall_time`` do depend on it, because
    only the run that computes a kept value pays for it.
    """

    status: SolveStatus
    iterations: int
    final_residual_norm: float
    residual_history: list[float]
    iterate_norm_history: list[float]
    inner_iteration_history: list[int]
    inner_iteration_total: int
    inner_retries: int
    factorizations: int
    wall_time: float


def _drive(
    p: AveProblem,
    cfg: SolverConfig,
    x0: np.ndarray | None,
    make_step,
    callback: Callback | None,
) -> SolveReport:
    """Shared outer loop: stopping rules, histories, timing.

    ``make_step(p, cfg)`` runs once, after iterate 0 is reported and before
    the loop (option checks, factorizations, norm estimates), and returns
    ``step(x, k, e, e_norm) -> (x_next, inner_iters)``.  Set-up and steps
    end a run early by raising SingularMatrixError or :class:`_Stop`;
    either becomes the report status.
    """
    t0 = time.perf_counter()
    x = np.array(x0, dtype=np.float64, copy=True).reshape(-1)
    if x.shape[0] != p.n:
        raise ValueError(f"x0 has length {x.shape[0]}, expected {p.n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 has non-finite entries")
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

    k = 0
    stalled_inner = 0
    factorizations_before = linalg.factorization_count
    probe_before = probe_iteration_count
    retries_before = inner_retry_count
    try:
        step = make_step(p, cfg)
        while True:
            if en <= cfg.epsilon:
                status = SolveStatus.CONVERGED
                break
            if xnorm_hist[-1] >= cfg.divergence_threshold:
                status = SolveStatus.DIVERGED
                break
            if k >= cfg.max_iter:
                status = SolveStatus.MAX_ITER_REACHED
                break
            x, inner = step(x, k, e, en)
            k += 1
            e = residual(p, x)
            en = norm2(e)
            res_hist.append(en)
            xnorm_hist.append(norm2(x))
            inner_hist.append(inner)
            if callback is not None:
                callback(k, x)
    except SingularMatrixError:
        status = SolveStatus.SINGULAR_SYSTEM
    except _Stop as stop:
        status, stalled_inner = stop.status, stop.inner

    return SolveReport(
        status=status,
        iterations=k,
        final_residual_norm=en,
        residual_history=res_hist,
        iterate_norm_history=xnorm_hist,
        inner_iteration_history=inner_hist,
        inner_iteration_total=(sum(inner_hist) + stalled_inner
                               + probe_iteration_count - probe_before),
        inner_retries=inner_retry_count - retries_before,
        factorizations=linalg.factorization_count - factorizations_before,
        wall_time=time.perf_counter() - t0,
    )


def _drs_exact(p: AveProblem, cfg: SolverConfig):
    """Relaxed splitting iteration with exact linear solves."""
    factors = kept_lu(p)

    def step(x, k, e, en):
        # rho is identically 1 under the identity metric (e != 0 here).
        coef = 0.5 * cfg.gamma if cfg.G.is_identity else 0.5 * cfg.gamma * rho(cfg.G, e)
        return x - coef * lu_solve(factors, cfg.G.apply_inv(e)), 0

    return step


def _heuristic_alpha(k: int, k_max: int) -> float:
    return min(1.0, 1.0 / max(1, k - k_max))


class Deflation:
    """Recycled inner-solve space for ``M = A - diag(shift)``:
    ``k = DEFLATION_K`` directions ``Y`` with small ``||M y||`` and
    ``W = M Y`` with orthonormal columns (augmented LSQR after Baglama,
    Reichel and Richmond, Numer. Algorithms 64, 2013; recycling after
    Parks, de Sturler et al., SIAM J. Sci. Comput. 28, 2006).

    :meth:`solve` takes the ``Y`` components exactly and runs LSQR on
    ``(I - W W^T) M``, whose smallest singular values are gone; with an
    empty space it is plain warm-started LSQR.  ``seed``, when given,
    returns a starting space for ``A`` as a :class:`DeflationSeed`; it is
    called once, at the first inner run that reaches ``2 k`` iterations,
    so runs that never get that long never call it.

    Without a shift (``inexact-drs``: ``M = A``, a new right side every
    step) every run of at least ``2 k`` iterations adopts the seed as it
    is, whatever its gain, and then refreshes the space from its first
    Lanczos vectors.  At most ``DEFLATION_BASIS + 3 k`` vectors of length
    ``n`` are held at once: the recorded basis, ``Y``, ``W`` and ``k``
    Ritz vectors, plus the probe's own while ``seed`` computes.

    With a shift (``inexact-newton``: one system ``M y = rhs`` per sign
    pattern, :meth:`retarget` moving the space to the next) the space
    records and harvests nothing.  It adopts the seed only when its gain
    exceeds ``SEED_GAIN_GATE``, and rebases it onto each pattern's ``M``
    (:meth:`_fit`).  While the seed is unread, a pattern's first run is
    capped at ``2 k`` iterations and, if it is still short of its target,
    continues deflated from its candidate when the seed is adopted, or
    resumes the capped run when it is not.  Every later :meth:`solve` on
    one pattern resumes the last run while it can and ignores ``x``:
    callers hand back the previous candidate, the run's current iterate.
    A run that stopped at ``Roundoff`` is not resumed; :attr:`exhausted`
    says so.

    The products with ``A`` and ``A^T`` are bound once per space
    (:func:`.linalg.product`); the shifted and deflated operators call them
    directly, so one LSQR iteration makes one ``matvec`` and one
    ``rmatvec`` call on :class:`.lsqr.MatOperator`.
    """

    def __init__(self, A, seed=None, shift=None):
        self.A = A
        self._products = product(A), product(transposed(A))
        self.seed = seed
        # The adopted seed's Y, rebased onto each pattern's M.
        self.base = None
        self.retarget(shift)

    def retarget(self, shift) -> None:
        """Move the space to ``M = A - diag(shift)``: drop the last run, and
        free ``Y`` and ``W`` before rebasing the adopted seed onto ``M``."""
        A, (matvec, rmatvec) = self.A, self._products
        self.shift = shift
        # The operator's products close over A's bound products and shift,
        # not the space, so a space is freed as soon as its run drops it.
        if shift is None:
            # The products lsqr_solve forms for A itself: with an empty space
            # the run is plain warm-started LSQR, bit for bit.
            self.op = MatOperator(A.shape, matvec, rmatvec)
        else:
            self.op = MatOperator(A.shape, lambda v: matvec(v) - shift * v,
                                  lambda u: rmatvec(u) - shift * u)
        # The last run: its LSQR result, the operator and right side it ran
        # on, and for a deflated run its start y0 and residual r0 there.
        self.res = self._run = None
        self.Y = self.W = np.empty((A.shape[1], 0))
        if self.base is not None:
            self._fit(self.base)

    @property
    def deflated(self) -> bool:
        """Whether the last candidate came with ``Y W^T`` corrections."""
        return self._run is not None and self._run[2] is not None

    @property
    def exhausted(self) -> bool:
        return self.res is not None and self.res.stop_reason is LsqrStop.ROUNDOFF

    def solve(self, rhs: np.ndarray, x: np.ndarray, target: float, max_iter: int):
        """One inner run for ``M y = rhs`` from ``x``; returns the candidate
        and the LSQR result, whose ``iterations`` count the whole run.  A
        deflated run starts at ``y0 = x + Y W^T r0`` and runs LSQR on
        ``(I - W W^T) M`` from zero with right side ``(I - W W^T) r0'``,
        where ``r0' = rhs - M y0``; the candidate
        ``y0 + d + Y W^T (r0' - M d)`` has true residual
        ``(I - W W^T)(r0' - M d)``, the residual LSQR stopped on, in exact
        arithmetic."""
        if self.shift is not None and self.res is not None and self.res.state is not None:
            op, prhs, _ = self._run
            res = lsqr_solve(op, prhs, target, max_iter=max_iter, resume=self.res)
        elif self.shift is None:
            res = self._start(rhs, x, target, max_iter, DEFLATION_BASIS)
        else:
            # A seed still to read leaves the space empty.
            capped = self.seed is not None and max_iter > 2 * DEFLATION_K
            res = self._start(rhs, x, target, 2 * DEFLATION_K if capped else max_iter, 0)
            if capped and res.stop_reason is LsqrStop.MAX_ITER:
                spent = res.iterations
                if self._take_seed():
                    res = self._start(rhs, self._candidate(res), target, max_iter - spent, 0)
                else:
                    op, prhs, _ = self._run
                    res = lsqr_solve(op, prhs, target, max_iter=max_iter - spent, resume=res)
                res.iterations += spent
        cand = self._candidate(res)
        if self.shift is None and res.iterations >= 2 * DEFLATION_K:
            if self.seed is not None:
                self._take_seed()
            self._harvest(res)
        res.basis = None
        self.res = res
        return cand, res

    def _start(self, rhs, x, target, max_iter, keep_basis):
        """A fresh LSQR run from ``x``, deflated by the space unless empty."""
        if self.Y.shape[1] == 0:
            self._run = (self.op, rhs, None)
            return lsqr_solve(self.op, rhs, target, x0=x, max_iter=max_iter,
                              keep_basis=keep_basis)
        Y, W, op = self.Y, self.W, self.op
        matvec, rmatvec = op.matvec_fn, op.rmatvec_fn

        def project(u):
            return u - W @ (W.T @ u)

        deflated = MatOperator(op.shape, lambda v: project(matvec(v)),
                               lambda u: rmatvec(project(u)))
        y0 = x + Y @ (W.T @ (rhs - op.matvec(x)))
        r0 = rhs - op.matvec(y0)
        prhs = project(r0)
        self._run = (deflated, prhs, (y0, r0, Y, W))
        return lsqr_solve(deflated, prhs, target, max_iter=max_iter, keep_basis=keep_basis)

    def _candidate(self, res) -> np.ndarray:
        if not self.deflated:
            return res.solution
        y0, r0, Y, W = self._run[2]
        d = res.solution
        return y0 + d + Y @ (W.T @ (r0 - self.op.matvec(d)))

    def _take_seed(self) -> bool:
        """Read ``seed``, once, and adopt the space it returns: as it is
        without a shift, and with one only past the gain gate, rebased onto
        ``M``.  Whether the space was adopted."""
        found, self.seed = self.seed(), None
        if self.shift is None:
            self.Y, self.W = found.Y, found.W
        elif found.gain > SEED_GAIN_GATE:
            self.base = found.Y
            self._fit(self.base)
        else:
            return False
        return True

    def _harvest(self, res) -> None:
        """Rayleigh-Ritz with ``A`` on ``Y`` and the ``k`` smallest Ritz
        vectors of the run: keep the ``k`` directions of smallest
        ``||A y||``."""
        V, B = res.basis
        res.basis = None
        a, b = np.diag(B), np.diag(B, -1)
        # B^T B is tridiagonal; its eigenvectors map through V to Ritz vectors.
        _, S = scipy.linalg.eigh_tridiagonal(
            a * a + b * b, b[:-1] * a[1:], select="i", select_range=(0, DEFLATION_K - 1)
        )
        Z = V @ S
        del V
        Q = scipy.linalg.qr(np.hstack([self.Y, Z]), mode="economic")[0]
        del Z
        self._fit(Q)

    def _fit(self, Q) -> None:
        """Set ``Y = Q H S^-1`` and ``W = U`` from the thin SVD
        ``M Q = U S H^T``, keeping the ``k`` smallest nonzero singular
        values, so that ``M Y = W`` with orthonormal ``W``."""
        MQ = self.A @ Q if self.shift is None else self.A @ Q - self.shift[:, None] * Q
        U, s, Ht = scipy.linalg.svd(MQ, full_matrices=False)
        del MQ
        # s is descending; an exact zero (M singular on span Q) cannot be kept.
        hi = int(np.count_nonzero(s))
        lo = max(hi - DEFLATION_K, 0)
        Y = Q @ Ht[lo:hi].T
        Y /= s[lo:hi]
        self.Y = Y
        self.W = U[:, lo:hi].copy()


class DeflationSeed(NamedTuple):
    """A problem's starting deflation space ``A Y = W``, and ``gain``, how
    much faster LSQR reduced the residual with it: the first (plain) probe
    pass's residual drop over the last (deflated) pass's drop."""

    Y: np.ndarray
    W: np.ndarray
    gain: float


def deflation_seed(p: AveProblem) -> DeflationSeed:
    """A starting deflation space for ``p.A``, a pure function of ``A``,
    with read-only arrays; both inexact methods keep it per problem
    (:func:`.core.kept`).

    The probe runs ``SEED_PASSES`` inner solves of ``DEFLATION_BASIS``
    iterations each, with target 0 from zero, on one fixed seeded right
    side; each pass runs deflated by the space the passes before it
    harvested.  A pass's residual drop is the last over the first
    ``phibar`` of its trace, so the gain costs no product.  Its LSQR
    iterations are added to :data:`probe_iteration_count`.
    """
    global probe_iteration_count
    space = Deflation(p.A)
    rhs = np.random.default_rng(0).standard_normal(p.n)
    start = np.zeros(p.n)
    drops = []
    for _ in range(SEED_PASSES):
        _, res = space.solve(rhs, start, 0.0, DEFLATION_BASIS)
        probe_iteration_count += res.iterations
        drops.append(res.trace[-1][1] / res.trace[0][1])
    for a in (space.Y, space.W):
        a.flags.writeable = False
    gain = drops[0] / drops[-1] if drops[-1] > 0.0 else math.inf
    return DeflationSeed(space.Y, space.W, gain)


def _inner_cap(p: AveProblem, cfg: SolverConfig) -> int:
    """LSQR iterations per inner attempt: ``inner_max_iter``, by default 10 n."""
    return cfg.inner_max_iter if cfg.inner_max_iter is not None else 10 * p.n


def _seed_of(p: AveProblem):
    """The ``seed`` of an inexact run's :class:`Deflation`: none up to
    ``n = DEFLATION_BASIS``, where the probe costs more than a whole run."""
    return (lambda: kept(p, deflation_seed)) if p.n > DEFLATION_BASIS else None


def _solve_to_criterion(
    space: Deflation,
    rhs: np.ndarray,
    x_start: np.ndarray,
    target: float,
    accepts: Callable[[np.ndarray], bool],
    max_inner: int,
):
    """Inner solves of ``space.op y = rhs`` through ``space.solve`` until
    ``accepts`` passes on the returned candidate, halving the residual
    target between attempts.

    Each attempt's LSQR run stops at the first iterate whose true residual
    is at most the current target.  LSQR recomputes that residual (one
    extra matvec) only on iterations where its recurrence estimate
    ``phibar`` is at most twice the target; ``phibar`` tracks the true
    residual far closer than that factor, so the skipped iterations are
    ones that could not have stopped.  :meth:`Deflation.solve` uses the
    space, and either refreshes it (no shift) or continues one LSQR run
    where the previous attempt, or the previous solve of the same system,
    stopped (a shift).

    A candidate that ``accepts`` refuses is still taken when its LSQR run
    vouched for it, by stopping at ``ResidualTol`` or ``Roundoff``.  At
    ``ResidualTol`` the true residual met the target, so the refusal is
    rounding in the caller's own evaluation of that residual; at
    ``Roundoff`` double precision cannot push the residual any lower, so
    the candidate already is an exact solve for every representable
    purpose.  A candidate of a first attempt that was deflated is retried
    instead: its ``Y W^T`` corrections leave rounding errors in the
    residual without a single LSQR iteration spent on them, and one retry
    removes them.  ``MaxIter`` and ``Breakdown`` stops are retried; once
    ``INNER_RETRY_LIMIT`` retries are spent the run ends as
    ``INNER_SOLVER_STALLED``, carrying the iterations of every attempt.
    Every attempt after the first adds one to :data:`inner_retry_count`.
    """
    global inner_retry_count
    inner_total = 0
    x_warm = x_start
    for attempt in range(INNER_RETRY_LIMIT + 1):
        if attempt > 0:
            inner_retry_count += 1
        cand, res = space.solve(rhs, x_warm, target, max_inner)
        inner_total += res.iterations
        if accepts(cand):
            return cand, inner_total
        vouched = res.stop_reason in (LsqrStop.RESIDUAL_TOL, LsqrStop.ROUNDOFF)
        if vouched and not (attempt == 0 and space.deflated):
            return cand, inner_total
        x_warm = cand
        target *= 0.5
    raise _Stop(SolveStatus.INNER_SOLVER_STALLED, inner_total)


def _drs_inexact(p: AveProblem, cfg: SolverConfig):
    """Relaxed splitting iteration with LSQR subproblem solves.

    In theoretical mode an infinite error-bound constant ``mu`` leaves a
    zero inexactness budget at every step; that run is the exact method.

    Near convergence on badly scaled problems the step bound
    ``alpha ||e||`` can drop below the roundoff scale of the subproblem;
    such steps are solved to roundoff and accepted, so recomputing the
    bound on them can show a violation at that scale.
    """
    theoretical = cfg.alpha_mode == "theoretical"
    if theoretical and cfg.mu is None:
        raise ValueError("inexact-drs: theoretical alpha schedule requires mu")
    if theoretical and cfg.mu == math.inf:
        return _drs_exact(p, cfg)
    space = Deflation(p.A, seed=_seed_of(p))
    max_inner = _inner_cap(p, cfg)
    if theoretical:
        # ||A^T G|| = ||G A||, which under the identity metric is ||A||.
        # The bound must not fall below it, or alpha exceeds the schedule.
        if cfg.G.is_identity:
            atg_norm = spectral_interval(p)[3]
        else:
            atg_norm = singular_value_bounds(sp.diags(cfg.G.diag) @ p.A)[3]

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

        target = 0.5 * bound
        return _solve_to_criterion(space, rhs, x, target, accepts, max_inner)

    return step


def _newton_exact(p: AveProblem, cfg: SolverConfig):
    """Generalized Newton iteration ``[A - diag(sign(x^k))] x^{k+1} = b``.

    Each step factors ``A - diag(sign(x^k))`` and drops the factors once it
    has solved with them; its factorization empties the slot of
    :func:`.core.kept_lu` first.  Banded sparse ``A`` is refactored in
    band storage, O(n bandwidth) per step; any other ``A`` is written into
    the one dense array that step's LU overwrites, so no second n x n copy
    is ever held.  An unconverged iterate with the sign pattern of the
    previous one ends the run as ``STAGNATED``: the next step would solve
    the same system and return it bit for bit.  So every step of a run
    computes one factorization, which no later step could reuse.
    """
    prev = None

    def step(x, k, e, en):
        nonlocal prev
        s = sign_diag(x)
        if prev is not None and np.array_equal(s, prev):
            raise _Stop(SolveStatus.STAGNATED)
        prev = s
        return lu_solve(lu_factor(p.A, shift=s), p.b), 0

    return step


def resolve_newton_theta(p: AveProblem, cfg: SolverConfig) -> float | None:
    """Inexactness bound ``theta`` for ``inexact-newton``.

    A fixed ``cfg.theta`` is returned as-is.  Otherwise the bound
    ``0.9999 (1 - 3 ||A^{-1}||) / (||A^{-1}|| (||A|| + 3))`` is evaluated
    from norm estimates; it only exists for ``||A^{-1}|| < 1/3``, and
    ``None`` is returned when the estimates put ``||A^{-1}||`` outside.
    The ``||A^{-1}||`` estimate solves with the problem's kept
    factorization (:func:`.core.kept_lu`), so after ``drs`` it factors
    nothing.
    """
    if cfg.theta is not None:
        return cfg.theta
    norm_A = matrix_norm2_estimate(p.A, tol=1e-8)
    try:
        sigma_min = sigma_min_estimate(p.A, tol=1e-8, factors=kept_lu(p))
    except SingularMatrixError:
        return None
    inv_norm = np.inf if sigma_min == 0.0 else 1.0 / sigma_min
    if inv_norm >= 1.0 / 3.0:
        return None
    return 0.9999 * (1.0 - 3.0 * inv_norm) / (inv_norm * (norm_A + 3.0))


def _newton_inexact(p: AveProblem, cfg: SolverConfig):
    """Generalized Newton iteration with LSQR linear solves.

    Each step accepts ``x^{k+1}`` once
    ``||[A - diag(sign(x^k))] x^{k+1} - b|| <= theta ||e(x^k)||``.
    ``theta = 0`` leaves no inexactness budget; that run is the exact
    method.  Steps whose bound falls below the roundoff scale of the
    linear system are solved to roundoff and accepted.

    The run has one :class:`Deflation` space, built at its first step for
    ``A - diag(s)`` and retargeted at each new sign pattern ``s``.
    Consecutive steps with one pattern solve the same system, and ``x^k``
    is the iterate the previous step's LSQR run stopped on, so such a step
    resumes that run at the new target instead of starting a Krylov space
    from scratch; a changed pattern starts a fresh run from ``x^k``.  For
    ``n > DEFLATION_BASIS`` the space reads the problem's kept
    :func:`deflation_seed` at its first inner run that reaches
    ``2 DEFLATION_K`` iterations short of its target, and adopts it if its
    gain exceeds ``SEED_GAIN_GATE``; from then on every new pattern starts
    deflated by the seed rebased onto its matrix.  The run never writes
    to the seed.  A run that stopped at ``Roundoff`` has gone
    as far as double precision takes that system, so an unconverged step
    with its pattern ends the solve as ``STAGNATED``.  An undefined
    derived ``theta`` ends it as ``THETA_UNDEFINED``.
    """
    theta = resolve_newton_theta(p, cfg)
    if theta is None:
        raise _Stop(SolveStatus.THETA_UNDEFINED)
    if theta == 0.0:
        return _newton_exact(p, cfg)
    max_inner = _inner_cap(p, cfg)
    space = None

    def step(x, k, e, en):
        nonlocal space
        s = sign_diag(x)
        if space is None:
            space = Deflation(p.A, seed=_seed_of(p), shift=s)
        elif not np.array_equal(s, space.shift):
            space.retarget(s)
        elif space.exhausted:
            raise _Stop(SolveStatus.STAGNATED)
        bound = theta * en

        def accepts(cand: np.ndarray) -> bool:
            return norm2(p.A @ cand - s * cand - p.b) <= bound

        return _solve_to_criterion(space, p.b, x, bound, accepts, max_inner)

    return step


def _sor_like(p: AveProblem, cfg: SolverConfig):
    """Two-sequence relaxation iteration from ``y^0 = x^0``."""
    factors = kept_lu(p)
    omega = cfg.omega
    y = None

    def step(x, k, e, en):
        nonlocal y
        if k == 0:
            y = x
        x_next = (1.0 - omega) * x + omega * lu_solve(factors, y + p.b)
        y = (1.0 - omega) * y + omega * np.abs(x_next)
        return x_next, 0

    return step


def _fixed_point(p: AveProblem, cfg: SolverConfig):
    """Inverse-free contraction iteration ``x - nu e(x)``."""

    def step(x, k, e, en):
        return x - cfg.nu * e, 0

    return step


def _fixed_point_inverse(p: AveProblem, cfg: SolverConfig):
    """Contraction iteration ``x - nu A^{-1} e(x)``: the exact splitting
    update with ``gamma = 2 nu`` and the identity metric."""
    return _drs_exact(p, replace(cfg, gamma=2.0 * cfg.nu, G=GMatrix.identity()))


_DISPATCH = {
    Method.DRS: _drs_exact,
    Method.DRS_INEXACT: _drs_inexact,
    Method.NEWTON: _newton_exact,
    Method.NEWTON_INEXACT: _newton_inexact,
    Method.SOR_LIKE: _sor_like,
    Method.FIXED_POINT: _fixed_point,
    Method.FIXED_POINT_INVERSE: _fixed_point_inverse,
}


def run_solver(
    method: Method | str,
    p: AveProblem,
    cfg: SolverConfig = SolverConfig(),
    x0: np.ndarray | None = None,
    seed: int | None = None,
    callback: Callback | None = None,
) -> SolveReport:
    """Solve ``p`` by the method of that name; the one entry point to
    the methods.

    Exactly one of ``x0`` and ``seed`` must be given; a seed draws the
    standard random start (entries uniform on (-100, 100)).  Two calls with
    the same problem, start, config and BLAS thread count give the same
    status, iterations, histories and final iterate, bit for bit;
    ``factorizations`` and ``inner_iteration_total`` count only what the
    call computed rather than took from the process's memories (see
    :class:`SolveReport`), and ``wall_time`` varies.
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
    return _drive(p, cfg, x0, _DISPATCH[method], callback)


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
