"""Problem generators and on-disk problem bundles.

Random draws use PCG64 generators derived from a single user seed through
``numpy``'s ``SeedSequence`` with fixed spawn keys, one independent stream
per role: key 0 feeds the sparsity pattern, key 1 the matrix values, key 2
the reference solution, key 3 the starting points of :func:`gen_x0`.
Changing how many values one stream consumes therefore never shifts the
others, and every artifact is reproducible from ``(family, parameters,
seed)`` alone.

A problem bundle is a directory holding ``manifest.json``, ``A.mtx``
(Matrix Market; coordinate for sparse, array for dense), ``b.txt`` and
optionally ``xstar.txt`` (one entry per line).  SciPy formats the matrix
entries in their shortest round-trip form and the vectors are written at 17
significant digits, so a round-trip reproduces the problem bit for bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import AveProblem, check_number_fields
from .linalg import is_sparse, sigma_min_estimate
from .mmio import (
    FileFormatError,
    read_matrix_market,
    read_vector,
    write_matrix_market,
    write_vector,
)

__all__ = [
    "GeneratorFailure",
    "GeneratorSpec",
    "gen_tridiag8",
    "gen_random_sparse",
    "gen_no_solution_1d",
    "gen_x0",
    "generate",
    "achieved_density",
    "save_problem",
    "load_problem",
    "read_manifest",
    "MANIFEST_NAME",
    "FAMILIES",
]

MANIFEST_NAME = "manifest.json"

# Problem families a GeneratorSpec can name; all but NOSOL1D take a size n.
FAMILIES = ("tridiag8", "random", "nosol1d")
TRIDIAG8, RANDOM, NOSOL1D = FAMILIES

# Redraws allowed before the sparse generator gives up on a seed.
MAX_REDRAWS = 10

# Rows of the sparsity pattern drawn at a time.  Generator.random fills its
# output in order, so these blocks read the same stream values as one n x n
# draw would, without ever holding an n x n array.
PATTERN_BLOCK_ROWS = 64


class GeneratorFailure(Exception):
    """The random generator could not produce a usable matrix."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of a generated problem family.

    ``family`` is one of :data:`FAMILIES`; the remaining fields apply to
    the families that read them.  ``margin`` lifts the smallest singular
    value ``margin`` fractionally above ``sigma_min_target`` so the target
    is met with slack.
    """

    family: str
    n: int = 0
    density: float = 0.1
    sigma_min_target: float = 1.05
    margin: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"GeneratorSpec: unknown family {self.family!r}")
        check_number_fields(self)
        if self.family != NOSOL1D and self.n < 1:
            raise ValueError(f"GeneratorSpec: family {self.family!r} needs n >= 1")
        if self.family == RANDOM:
            if not 0.0 < self.density <= 1.0:
                raise ValueError("GeneratorSpec: density must be in (0, 1]")
            if self.sigma_min_target <= 0.0:
                raise ValueError("GeneratorSpec: sigma_min_target must be positive")
            if self.margin < 0.0:
                raise ValueError("GeneratorSpec: margin must be nonnegative")
        if self.seed < 0:
            raise ValueError("GeneratorSpec: seed must be nonnegative")


def _stream(seed: int, role: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(role,))))


def _open_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    # random() covers [0, 1); redraw the (measure-zero) exact zeros so the
    # scaled entries stay inside the open interval.
    u = rng.random(n)
    while np.any(u == 0.0):
        zero = u == 0.0
        u[zero] = rng.random(int(np.count_nonzero(zero)))
    return u


def gen_tridiag8(n: int) -> AveProblem:
    """Tridiagonal benchmark: ``A = tridiag(-1, 8, -1)`` (CSR), reference
    solution alternating ``(-1, 1, -1, 1, ...)``; requires even ``n >= 2``."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"gen_tridiag8: n must be even and >= 2, got {n}")
    A = sp.diags([-1.0, 8.0, -1.0], offsets=[-1, 0, 1], shape=(n, n), format="csr")
    A.sort_indices()
    xstar = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
    b = A @ xstar - np.abs(xstar)
    return AveProblem(A=A, b=b, known_solution=xstar)


def _draw_pattern(rng: np.random.Generator, n: int, density: float):
    """Row and column indices, in row-major order, of the full diagonal and
    of each off-diagonal entry whose uniform draw falls below ``density``."""
    rows, cols = [], []
    for start in range(0, n, PATTERN_BLOCK_ROWS):
        mask = rng.random((min(PATTERN_BLOCK_ROWS, n - start), n)) < density
        i = np.arange(mask.shape[0])
        mask[i, start + i] = True
        r, c = np.nonzero(mask)
        rows.append(r + start)
        cols.append(c)
    return np.concatenate(rows), np.concatenate(cols)


def gen_random_sparse(spec: GeneratorSpec) -> AveProblem:
    """Random sparse family with a prescribed smallest singular value.

    Off-diagonal entries appear with probability ``density`` and are
    uniform on (-1, 1); diagonal entries are always present, positive,
    uniform on (0.5, 1.5).  The draw is rescaled so the smallest singular
    value lands at ``sigma_min_target * (1 + margin)``; numerically
    singular draws are redrawn up to ``MAX_REDRAWS`` times before
    :class:`GeneratorFailure`.
    """
    if spec.family != RANDOM:
        raise ValueError(f"gen_random_sparse: spec has family {spec.family!r}")
    n = spec.n
    pattern_rng = _stream(spec.seed, 0)
    value_rng = _stream(spec.seed, 1)
    xstar_rng = _stream(spec.seed, 2)

    target = spec.sigma_min_target * (1.0 + spec.margin)
    for _ in range(MAX_REDRAWS + 1):
        rows, cols = _draw_pattern(pattern_rng, n, spec.density)
        vals = -1.0 + 2.0 * _open_uniform(value_rng, rows.size)
        diag = rows == cols
        vals[diag] = 0.5 + _open_uniform(value_rng, int(np.count_nonzero(diag)))
        A_raw = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        A_raw.sort_indices()
        sigma_raw = sigma_min_estimate(A_raw, tol=1e-8)
        if sigma_raw <= 0.0:
            continue
        A = (target / sigma_raw) * A_raw
        xstar = -100.0 + 200.0 * _open_uniform(xstar_rng, n)
        b = A @ xstar - np.abs(xstar)
        return AveProblem(A=A, b=b, known_solution=xstar)
    raise GeneratorFailure(
        f"gen_random_sparse: {MAX_REDRAWS + 1} draws at seed {spec.seed} were "
        "numerically singular"
    )


def gen_no_solution_1d() -> AveProblem:
    """The 1-D equation ``x - |x| - 1 = 0``, which has no solution."""
    return AveProblem(A=np.array([[1.0]]), b=np.array([1.0]))


def gen_x0(n: int, seed: int) -> np.ndarray:
    """Standard random start: entries uniform on the open (-100, 100)."""
    if n < 1:
        raise ValueError(f"gen_x0: n must be >= 1, got {n}")
    return -100.0 + 200.0 * _open_uniform(_stream(seed, 3), n)


def generate(spec: GeneratorSpec) -> AveProblem:
    """Build the problem described by ``spec``."""
    if spec.family == TRIDIAG8:
        return gen_tridiag8(spec.n)
    if spec.family == RANDOM:
        return gen_random_sparse(spec)
    return gen_no_solution_1d()


def achieved_density(A) -> float:
    """Fraction of structurally stored entries, ``nnz / n^2``."""
    size = A.shape[0] * A.shape[1]
    if is_sparse(A):
        return float(A.nnz) / size
    return float(np.count_nonzero(A)) / size


def build_manifest(p: AveProblem, spec: GeneratorSpec | None = None) -> dict:
    """Manifest metadata for a problem, re-estimating what it claims.

    ``sigma_min_achieved`` comes from a fresh estimate on the final matrix,
    not from the generator's internal bookkeeping.
    """
    random_spec = spec is not None and spec.family == RANDOM
    return {
        "family": spec.family if spec is not None else "custom",
        "n": p.n,
        "density_requested": spec.density if random_spec else None,
        "density_achieved": achieved_density(p.A),
        "sigma_min_target": spec.sigma_min_target if random_spec else None,
        "sigma_min_achieved": sigma_min_estimate(p.A, tol=1e-6),
        "seed": spec.seed if spec is not None else None,
    }


def save_problem(p: AveProblem, path, manifest: dict | None = None) -> None:
    """Write a problem bundle directory.

    ``manifest`` supplies generator metadata; missing fields are filled with
    structural facts (family "custom", size, achieved density).  The matrix
    keeps its storage kind: sparse saves as coordinate, dense as array.
    """
    os.makedirs(path, exist_ok=True)
    meta = build_manifest(p) if manifest is None else dict(manifest)
    meta.setdefault("family", "custom")
    meta.setdefault("n", p.n)
    meta["format"] = "sparse" if is_sparse(p.A) else "dense"
    meta["has_known_solution"] = p.known_solution is not None
    with open(os.path.join(path, MANIFEST_NAME), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
    write_matrix_market(p.A, os.path.join(path, "A.mtx"))
    write_vector(p.b, os.path.join(path, "b.txt"))
    if p.known_solution is not None:
        write_vector(p.known_solution, os.path.join(path, "xstar.txt"))


def read_manifest(path) -> dict:
    """Load and minimally validate a bundle manifest."""
    mpath = os.path.join(path, MANIFEST_NAME)
    try:
        with open(mpath) as f:
            meta = json.load(f)
    except FileNotFoundError:
        raise FileFormatError(f"{mpath}: not found; not a problem bundle")
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{mpath}:{exc.lineno}: invalid JSON ({exc.msg})")
    if not isinstance(meta, dict):
        raise FileFormatError(f"{mpath}:1: manifest must be a JSON object")
    for key in ("family", "n"):
        if key not in meta:
            raise FileFormatError(f"{mpath}:1: manifest missing key {key!r}")
    return meta


def load_problem(path) -> AveProblem:
    """Read a problem bundle written by :func:`save_problem`."""
    meta = read_manifest(path)
    A = read_matrix_market(os.path.join(path, "A.mtx"))
    if meta.get("format") == "dense" and is_sparse(A):
        A = A.toarray()
    b = read_vector(os.path.join(path, "b.txt"))
    xstar_path = os.path.join(path, "xstar.txt")
    xstar = read_vector(xstar_path) if os.path.exists(xstar_path) else None
    n = int(meta["n"])
    if A.shape != (n, n):
        raise FileFormatError(
            f"{os.path.join(path, 'A.mtx')}: matrix is {A.shape[0]} x {A.shape[1]}, "
            f"manifest says n = {n}"
        )
    return AveProblem(A=A, b=b, known_solution=xstar)
