"""Workloads of the avesolve benchmark, their reference values and the
output checks.

A workload is a fixed list of problem instances and a fixed list of ops on
them; one round of a run executes every op once, in order.  An op is either
a solve (``run_solver`` from a seeded start point to the op's tolerance) or
one ``check_solvability`` call.

Reference values come from SciPy/NumPy alone: singular values from
``scipy.linalg.svdvals`` of the dense matrix for the random family, and the
closed-form eigenvalues ``8 - 2 cos(k pi / (n + 1))`` for
``tridiag(-1, 8, -1)``.  Nothing here calls into avesolve except
:meth:`InstanceSpec.generate`, which is the generation step being timed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp

__all__ = [
    "InstanceSpec",
    "Op",
    "Workload",
    "Reference",
    "WORKLOADS",
    "build",
    "warmup_op",
    "reference",
    "classify",
    "check_floor",
    "check_solve",
    "check_certificate",
]

EPS = float(np.finfo(np.float64).eps)

# Half-width of the band around sigma_min = 1 that counts as the boundary
# regime; the same band avesolve documents for check_solvability.
BOUNDARY_TOL = 1e-8

# Every instance's roundoff floor must sit at least this factor below the
# tolerance of each op run on it, or the workload refuses to start.
FLOOR_MARGIN = 20.0

# Start point k of workload seed s is gen_x0(n, X0_STRIDE * s + k).
X0_STRIDE = 100

# The set-up warm-up solve starts from gen_x0(n, WARMUP_X0_SEED) whatever the
# workload seed, so that setup_s does not vary with the seed's start points;
# no measured op uses this start.
WARMUP_X0_SEED = X0_STRIDE - 1

DIRECT_METHODS = ("drs", "sor-like", "fixed-point-inverse", "newton")


@dataclass(frozen=True)
class InstanceSpec:
    """One generated problem: ``tridiag8`` of size ``n`` or a ``random``
    draw of ``gen_random_sparse``."""

    key: str
    family: str
    n: int
    density: float = 0.1
    sigma: float = 0.0
    margin: float = 0.05
    gen_seed: int = 0

    def generate(self, av):
        """Build the problem through the package namespace ``av``."""
        if self.family == "tridiag8":
            return av.gen_tridiag8(self.n)
        spec = av.GeneratorSpec(
            family="random",
            n=self.n,
            density=self.density,
            sigma_min_target=self.sigma,
            margin=self.margin,
            seed=self.gen_seed,
        )
        return av.gen_random_sparse(spec)

    def manifest(self) -> dict:
        meta = {"family": self.family, "n": self.n}
        if self.family == "random":
            meta.update(
                density_requested=self.density,
                sigma_min_target=self.sigma,
                margin=self.margin,
                seed=self.gen_seed,
            )
        return meta


@dataclass(frozen=True)
class Op:
    """``kind`` is ``"solve"`` (needs ``method``, ``epsilon``, ``x0_seed``)
    or ``"check"``."""

    kind: str
    instance: str
    method: str | None = None
    epsilon: float = 1e-8
    x0_seed: int | None = None

    @property
    def label(self) -> str:
        if self.kind == "check":
            return f"check_solvability({self.instance})"
        return f"{self.method}({self.instance}, x0 seed {self.x0_seed}, eps {self.epsilon:g})"


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[InstanceSpec, ...]
    ops: tuple[Op, ...]

    def instance(self, key: str) -> InstanceSpec:
        return next(i for i in self.instances if i.key == key)


def _solves(inst: InstanceSpec, methods, starts: int, seed: int, epsilon: float) -> list[Op]:
    return [
        Op("solve", inst.key, m, epsilon, X0_STRIDE * seed + k)
        for k in range(starts)
        for m in methods
    ]


def warmup_op(wl: Workload) -> Op:
    """The workload's first op, from the fixed warm-up start if it is a solve."""
    first = wl.ops[0]
    return first if first.kind == "check" else replace(first, x0_seed=WARMUP_X0_SEED)


def tridiag_direct(seed: int, small: bool = False) -> Workload:
    inst = InstanceSpec("tridiag8", "tridiag8", 20 if small else 2000)
    return Workload("tridiag-direct", (inst,), tuple(_solves(inst, DIRECT_METHODS, 3, seed, 1e-8)))


def random_direct(seed: int, small: bool = False) -> Workload:
    n = 60 if small else 1000
    instances = tuple(
        InstanceSpec(f"random-s{sigma}-g{g}", "random", n, 0.1, sigma, 0.05, g)
        for sigma in (1.5, 3.5)
        for g in range(3)
    )
    # drs and sor-like (one LU, 7-14 steps) hold three quarters of the ops,
    # so the median op falls inside their cost band rather than on the edge
    # between it and fixed-point-inverse (44 steps) or newton (an LU a step).
    ops = []
    for inst in instances:
        ops += _solves(inst, ("drs", "sor-like"), 3, seed, 1e-6)
        ops += _solves(inst, ("fixed-point-inverse", "newton"), 1, seed, 1e-6)
    return Workload("random-direct", instances, tuple(ops))


def random_inexact(seed: int, small: bool = False) -> Workload:
    n = 40 if small else 300
    boundary = tuple(
        InstanceSpec(f"random-s1.0-g{g}", "random", n, 0.1, 1.0, 0.0, g) for g in range(4)
    )
    strict = tuple(
        InstanceSpec(f"random-s3.5-g{g}", "random", n, 0.1, 3.5, 0.05, g) for g in range(4)
    )
    # n = 300 and two starts per solve keep a round near 11 s, so one run
    # holds two rounds of 24 distinct start points.  With one start the
    # median op rested on the two middle solves of twelve, and moved by a
    # quarter between seeds on the cost of those two start points alone.
    ops = []
    for inst in strict:
        ops += _solves(inst, ("inexact-newton", "inexact-drs"), 2, seed, 1e-6)
    for inst in boundary:
        ops += _solves(inst, ("inexact-drs",), 2, seed, 1e-6)
    return Workload("random-inexact", strict + boundary, tuple(ops))


def certify(seed: int, small: bool = False) -> Workload:
    n = 30 if small else 200
    randoms = (
        InstanceSpec("random-s0.8", "random", n, 0.1, 0.8, 0.05, 0),
        InstanceSpec("random-s1.0", "random", n, 0.1, 1.0, 0.0, 0),
        InstanceSpec("random-s3.5", "random", n, 0.1, 3.5, 0.05, 0),
    )
    tri = InstanceSpec("tridiag8", "tridiag8", 20 if small else 1000)
    ops = [Op("check", inst.key) for inst in randoms + (tri,)]
    ops += _solves(tri, ("inexact-newton",), 1, seed, 1e-8)
    return Workload("certify", randoms + (tri,), tuple(ops))


WORKLOADS = {
    "tridiag-direct": tridiag_direct,
    "random-direct": random_direct,
    "random-inexact": random_inexact,
    "certify": certify,
}


def build(name: str, seed: int, small: bool = False) -> Workload:
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    return factory(seed, small)


def classify(sigma_min: float) -> str:
    """Regime name of avesolve's ``Regime`` for a smallest singular value."""
    if sigma_min > 1.0 + BOUNDARY_TOL:
        return "StrictlyMonotone"
    if abs(sigma_min - 1.0) <= BOUNDARY_TOL:
        return "BoundaryMonotone"
    return "NotCovered"


@dataclass
class Reference:
    """Independent facts about one instance.

    ``floor = eps (||A||_2 ||x*|| + ||b||)`` is the roundoff scale below
    which no double-precision residual can be certified.  ``nu_norm(nu)``
    returns the exact ``||I - nu A||_2``.
    """

    A: object
    b: np.ndarray
    xstar: np.ndarray | None
    sigma_min: float
    norm_A: float
    floor: float
    estar_norm: float
    _nu_norm: object = field(repr=False)
    _nu_cache: dict = field(default_factory=dict, repr=False)

    def nu_norm(self, nu: float) -> float:
        if nu not in self._nu_cache:
            self._nu_cache[nu] = float(self._nu_norm(nu))
        return self._nu_cache[nu]


def _tridiag_reference_matrix(n: int):
    return sp.diags([-1.0, 8.0, -1.0], offsets=[-1, 0, 1], shape=(n, n), format="csr")


def reference(spec: InstanceSpec, problem) -> Reference:
    """Reference values for a generated ``problem``.

    For ``tridiag8`` the matrix and reference solution are first compared
    with an independent construction; a mismatch raises ``ValueError``.
    """
    A = problem.A
    n = A.shape[0]
    xstar = None if problem.known_solution is None else problem.known_solution.copy()
    if spec.family == "tridiag8":
        if (A != _tridiag_reference_matrix(n)).nnz:
            raise ValueError(f"{spec.key}: matrix is not tridiag(-1, 8, -1)")
        expected = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
        if xstar is None or not np.array_equal(xstar, expected):
            raise ValueError(f"{spec.key}: reference solution is not (-1, 1, -1, ...)")
        lam = 8.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
        sigma_min, norm_A = float(lam.min()), float(lam.max())

        def nu_norm(nu):
            return np.max(np.abs(1.0 - nu * lam))

    else:
        sv = scipy.linalg.svdvals(A.toarray())
        sigma_min, norm_A = float(sv[-1]), float(sv[0])

        def nu_norm(nu):
            return scipy.linalg.svdvals(np.eye(n) - nu * A.toarray())[0]

    b = problem.b.copy()
    xnorm = 0.0 if xstar is None else float(np.linalg.norm(xstar))
    estar = 0.0 if xstar is None else float(np.linalg.norm(A @ xstar - np.abs(xstar) - b))
    return Reference(
        A=A,
        b=b,
        xstar=xstar,
        sigma_min=sigma_min,
        norm_A=norm_A,
        floor=EPS * (norm_A * xnorm + float(np.linalg.norm(b))),
        estar_norm=estar,
        _nu_norm=nu_norm,
    )


def check_floor(spec: InstanceSpec, ref: Reference, epsilon: float) -> None:
    """Refuse an instance whose roundoff floor is not well below ``epsilon``."""
    if not ref.floor * FLOOR_MARGIN <= epsilon:
        raise ValueError(
            f"{spec.key}: roundoff floor {ref.floor:.2e} is within {FLOOR_MARGIN:g}x "
            f"of the tolerance {epsilon:.0e}; no method can be held to it"
        )


def check_solve(ref: Reference, epsilon: float, status: str, x) -> str | None:
    """Return why a solve's output is wrong, or None when it passes.

    The residual ``A x - |x| - b`` is recomputed from the instance data.
    When ``sigma_min > 1`` every point obeys
    ``||x - x*|| <= (||e(x)|| + ||e(x*)||) / (sigma_min - 1)`` because
    ``|.|`` is 1-Lipschitz; each residual is allowed one floor of rounding.
    """
    if status != "Converged":
        return f"status {status}"
    if x is None:
        return "no iterate was reported"
    rnorm = float(np.linalg.norm(ref.A @ x - np.abs(x) - ref.b))
    if not rnorm <= epsilon:
        return f"recomputed residual {rnorm:.3e} > epsilon {epsilon:.0e}"
    if ref.xstar is not None and ref.sigma_min > 1.0 + BOUNDARY_TOL:
        bound = (rnorm + ref.estar_norm + 2.0 * ref.floor) / (ref.sigma_min - 1.0)
        err = float(np.linalg.norm(x - ref.xstar))
        if not err <= bound:
            return f"||x - x*|| = {err:.3e} exceeds the error bound {bound:.3e}"
    return None


def check_certificate(ref: Reference, regime: str, nu) -> str | None:
    """Return why a ``check_solvability`` answer is wrong, or None."""
    expected = classify(ref.sigma_min)
    if regime != expected:
        return f"regime {regime}, but svdvals sigma_min {ref.sigma_min!r} gives {expected}"
    if nu is not None:
        shifted = ref.nu_norm(float(nu))
        if not shifted < 1.0 - nu:
            return f"nu {nu}: exact ||I - nu A||_2 = {shifted!r} is not < 1 - nu"
    return None
