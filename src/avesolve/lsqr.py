"""LSQR iteration for square and least-squares linear systems.

Implements the Golub-Kahan bidiagonalization with QR factorization by
Givens rotations, after Paige and Saunders, ACM TOMS 8(1), 1982.  Six
departures from the textbook routine matter here:

* warm start: with a nonzero ``x0`` the iteration runs on the shifted
  system ``A d = rhs - A x0`` and returns ``x0 + d``, so a good initial
  guess costs nothing;
* caller-supplied residual target, the one convergence test: the run
  stops at the first iterate whose recomputed true residual norm
  ``||rhs - A x||`` is at most ``target``, letting an outer solver enforce
  its own acceptance criterion exactly.  The true residual costs one extra
  matvec and is recomputed only on iterations where the recurrence
  estimate ``phibar`` is at most twice the target.  The textbook tests on
  ``||r||`` and ``||A^T r||`` relative to ``||A||`` are not implemented;
  a least-squares problem whose minimum residual lies above the target
  runs to ``max_iter`` or a breakdown (``scipy.sparse.linalg.lsqr`` has
  those tests);
* roundoff stop: when that recomputed residual is still above the target
  but ``phibar`` has fallen below half of it, the recurrence has left the
  true residual behind and further iterations move the iterate only by
  rounding, so the run stops with ``Roundoff``;
* resumable runs: a result carries the state of its Golub-Kahan process,
  and ``resume = result`` continues that process to a new target exactly
  as one longer run would have gone on;
* breakdown reporting: a vanishing bidiagonalization vector before the
  target is met is reported as ``Breakdown`` rather than silently treated
  as convergence;
* basis recording: ``keep_basis = m`` returns the first ``m`` right
  Lanczos vectors ``V`` and the lower bidiagonal ``B`` with
  ``A V = U B``, from which a caller can extract Ritz vectors.

The operator only needs ``shape``, ``matvec`` and ``rmatvec``; dense arrays
and scipy sparse matrices are wrapped automatically.  Each iteration does
one ``matvec`` and one ``rmatvec``.  Every call adds the iterations it ran
to the running solve's ledger (:data:`.linalg.work`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import is_sparse, product, transposed, work

__all__ = [
    "LsqrStop",
    "LsqrResult",
    "LsqrState",
    "MatOperator",
    "as_operator",
    "lsqr_solve",
]

# A bidiagonalization norm below this fraction of its starting scale counts
# as a breakdown.
BREAKDOWN_RTOL = 1e-14


class LsqrStop(Enum):
    RESIDUAL_TOL = "ResidualTol"
    MAX_ITER = "MaxIter"
    BREAKDOWN = "Breakdown"
    ROUNDOFF = "Roundoff"


@dataclass
class LsqrState:
    """Where a Golub-Kahan process stands after its last iteration: the
    iterate is ``x_base + d``, ``u`` and ``v`` are the current
    bidiagonalization vectors, ``w`` the next search direction, and
    ``alpha``, ``phibar`` and ``rhobar`` the recurrence scalars.  Resuming
    updates the arrays in place."""

    x_base: np.ndarray
    d: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    alpha: float
    phibar: float
    rhobar: float
    breakdown_floor: float


@dataclass
class LsqrResult:
    solution: np.ndarray
    iterations: int
    residual_norm: float
    stop_reason: LsqrStop
    trace: list[tuple[int, float]] = field(default_factory=list)
    # (V, B) under keep_basis: V is n x j, B is (j + 1) x j, j = min(m, iterations).
    basis: tuple[np.ndarray, np.ndarray] | None = None
    # The process to continue with lsqr_solve(resume=...); None once it broke
    # down, stopped at Roundoff, was resumed, or never started.
    state: LsqrState | None = None


class MatOperator:
    """Minimal linear-operator wrapper: ``shape``, ``matvec``, ``rmatvec``.

    Each method call is one product, so the calls of the methods count an
    operator's products.  An operator composed from another one's products
    calls that one's ``matvec_fn`` and ``rmatvec_fn``, not its methods, so
    that each product is counted once."""

    def __init__(self, shape, matvec_fn, rmatvec_fn):
        self.shape = tuple(shape)
        self.matvec_fn = matvec_fn
        self.rmatvec_fn = rmatvec_fn

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.matvec_fn(v)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        return self.rmatvec_fn(v)


def as_operator(A) -> MatOperator:
    """Wrap a dense or sparse matrix; its transpose is built once, here,
    and both products are bound once (:func:`.linalg.product`), so each
    equals ``A @ v`` or ``A.T @ v`` bit for bit."""
    if isinstance(A, MatOperator):
        return A
    if is_sparse(A) or isinstance(A, np.ndarray):
        return MatOperator(A.shape, product(A), product(transposed(A)))
    raise TypeError(f"as_operator: unsupported operand type {type(A)!r}")


def _sym_ortho(a: float, b: float) -> tuple[float, float, float]:
    """Stable Givens rotation: returns (c, s, r) with r = hypot(a, b)."""
    if b == 0.0:
        return math.copysign(1.0, a) if a != 0.0 else 1.0, 0.0, abs(a)
    if a == 0.0:
        return 0.0, math.copysign(1.0, b), abs(b)
    if abs(b) > abs(a):
        tau = a / b
        s = math.copysign(1.0, b) / math.sqrt(1.0 + tau * tau)
        c = s * tau
        r = b / s
    else:
        tau = b / a
        c = math.copysign(1.0, a) / math.sqrt(1.0 + tau * tau)
        s = c * tau
        r = a / c
    return c, s, r


def lsqr_solve(
    A,
    rhs: np.ndarray,
    target: float,
    x0: np.ndarray | None = None,
    max_iter: int = 1000,
    keep_basis: int = 0,
    resume: LsqrResult | None = None,
) -> LsqrResult:
    """Minimize ``||A x - rhs||`` starting from ``x0`` until the true
    residual is at most ``target``.

    The run stops with ``ResidualTol`` at the first iterate whose true
    residual norm ``||rhs - A x||`` is at most ``target``, and reports that
    norm.  The true residual is exact at ``x0``; after that it is recomputed
    (one extra matvec) only on iterations where ``phibar <= 2 target``.
    ``phibar`` equals the true residual in exact arithmetic; in double
    precision it has been measured less than 1 % above it on the random
    problem family, so the factor of two leaves wide room and the gate does
    not move the stop.  A recomputed residual above ``target`` with
    ``phibar`` below half of it stops the run with ``Roundoff`` and reports
    that residual: the two have parted by rounding, and the true residual
    no longer follows the recurrence down.  A run stopped by ``MaxIter`` or
    ``Breakdown`` reports ``phibar``.  The trace records
    ``(iteration, phibar)`` pairs, nonincreasing by construction.

    ``resume = r`` continues the process of an earlier result ``r`` on the
    same ``A`` and ``rhs`` (``x0`` is not given) under this call's
    ``target`` and ``max_iter``; ``r.state`` is consumed.  Its iterates are
    those of one run that had not stopped, bit for bit, and
    ``iterations``, the trace and ``max_iter`` count this call's iterations
    only.  The target is first checked, as in the loop, at the iterate
    ``r`` stopped on.

    ``keep_basis = m > 0`` records the first ``m`` Lanczos vectors
    ``v_1 .. v_m`` of the run as the columns of ``V`` and the lower
    bidiagonal ``B`` (``alpha_i`` on the diagonal, ``beta_{i+1}`` below it)
    with ``A V = U B``, returned as ``basis``.  The singular values of ``B``
    are Ritz values of ``A``.  Recording copies; the iterate does not move.
    A resumed run records no basis: its first vector is not ``v_1``.
    """
    if not target >= 0.0:
        raise ValueError(f"lsqr_solve: target must be nonnegative, got {target!r}")
    if max_iter < 1:
        raise ValueError(f"lsqr_solve: max_iter must be positive, got {max_iter!r}")
    if keep_basis > 0 and resume is not None:
        raise ValueError("lsqr_solve: a resumed run cannot record a basis")
    op = as_operator(A)
    matvec, rmatvec = op.matvec, op.rmatvec
    m, n = op.shape
    rhs = np.asarray(rhs, dtype=np.float64).reshape(-1)
    if rhs.shape[0] != m:
        raise ValueError(f"lsqr_solve: rhs length {rhs.shape[0]} != {m} rows")

    trace: list[tuple[int, float]] = []
    keep_basis = min(keep_basis, max_iter)
    if keep_basis > 0:
        V = np.empty((n, keep_basis), order="F")
        B = np.zeros((keep_basis + 1, keep_basis))
    check_below = 2.0 * target
    started = broke = alpha_broke = False

    def finish(iters: int, rnorm: float, reason: LsqrStop) -> LsqrResult:
        work.get().lsqr_iterations += iters
        basis = None
        if keep_basis > 0:
            j = min(iters, keep_basis)
            basis = (V[:, :j], B[: j + 1, :j])
        state = None
        if (started and not (broke or alpha_broke)
                and reason in (LsqrStop.RESIDUAL_TOL, LsqrStop.MAX_ITER)):
            state = LsqrState(x_base, d, u, v, w, alpha, phibar, rhobar, breakdown_floor)
        return LsqrResult(
            solution=x_base + d,
            iterations=iters,
            residual_norm=rnorm,
            stop_reason=reason,
            trace=trace,
            basis=basis,
            state=state,
        )

    if resume is not None:
        if x0 is not None:
            raise ValueError("lsqr_solve: a resumed run continues its own iterate; drop x0")
        st = resume.state
        if st is None:
            raise ValueError(
                f"lsqr_solve: the run stopped with {resume.stop_reason.value} and cannot resume"
            )
        resume.state = None
        if st.x_base.shape[0] != n:
            raise ValueError(f"lsqr_solve: resumed iterate length {st.x_base.shape[0]} != {n}")
        x_base, d, u, v, w = st.x_base, st.d, st.u, st.v, st.w
        alpha, phibar, rhobar = st.alpha, st.phibar, st.rhobar
        breakdown_floor = st.breakdown_floor
        started = True
        trace.append((0, phibar))
        if phibar <= check_below:
            r = rhs - matvec(x_base + d)
            rtrue = math.sqrt(r @ r)
            if rtrue <= target:
                return finish(0, rtrue, LsqrStop.RESIDUAL_TOL)
    else:
        if x0 is None:
            x_base = np.zeros(n)
            r0 = rhs.copy()
        else:
            x_base = np.asarray(x0, dtype=np.float64).reshape(-1).copy()
            if x_base.shape[0] != n:
                raise ValueError(f"lsqr_solve: x0 length {x_base.shape[0]} != {n} columns")
            r0 = rhs - matvec(x_base)
        d = np.zeros(n)

        beta = math.sqrt(r0 @ r0)
        trace.append((0, beta))
        if beta <= target:
            return finish(0, beta, LsqrStop.RESIDUAL_TOL)

        breakdown_floor = BREAKDOWN_RTOL * beta
        u = r0 / beta
        v = rmatvec(u)
        alpha = math.sqrt(v @ v)
        if alpha <= breakdown_floor:
            # rhs - A x0 is orthogonal to the range of A: nothing to improve.
            return finish(0, beta, LsqrStop.BREAKDOWN)
        v = v / alpha

        w = v.copy()
        phibar = beta
        rhobar = alpha
        started = True

    # u, v, w and d are updated in place; each in-place sequence rounds
    # exactly like the textbook expression in its comment.  After a
    # breakdown v and w are never read again.
    for it in range(1, max_iter + 1):
        record = it <= keep_basis
        if record:
            V[:, it - 1] = v
            B[it - 1, it - 1] = alpha
        u *= alpha
        np.subtract(matvec(v), u, out=u)  # u = A v - alpha u
        beta = math.sqrt(u @ u)
        if record:
            B[it, it - 1] = beta
        broke = beta <= breakdown_floor
        if not broke:
            u /= beta

        # s >= 0 because beta is a norm, so phibar stays nonnegative and the
        # trace is nonincreasing by construction.
        c, s, rho = _sym_ortho(rhobar, beta)
        phi = c * phibar
        phibar = s * phibar

        d += (phi / rho) * w

        if not broke:
            v *= beta
            np.subtract(rmatvec(u), v, out=v)  # v = A^T u - beta v
            alpha = math.sqrt(v @ v)
            alpha_broke = alpha <= breakdown_floor
            if not alpha_broke:
                v /= alpha
            theta = s * alpha
            rhobar = -c * alpha
            w *= -(theta / rho)
            w += v  # w = v - (theta / rho) w
        else:
            alpha_broke = True

        trace.append((it, phibar))

        if phibar <= check_below:
            r = rhs - matvec(x_base + d)
            rtrue = math.sqrt(r @ r)
            if rtrue <= target:
                return finish(it, rtrue, LsqrStop.RESIDUAL_TOL)
            if phibar < 0.5 * rtrue:
                return finish(it, rtrue, LsqrStop.ROUNDOFF)

        if broke or alpha_broke:
            return finish(it, phibar, LsqrStop.BREAKDOWN)

    return finish(max_iter, phibar, LsqrStop.MAX_ITER)
