"""Peak memory of the dense paths, in units of one n x n float64 array.

A dense LU holds the one array LAPACK factors in place, a Newton solve
widens its matrix afresh at each step and keeps no widened copy or factors
across steps or after the run, the factorization kept between solves is
the only one held, and the random generator draws its sparsity pattern in
row blocks.  NumPy reports its array buffers to ``tracemalloc``, so the
traced peak covers every widened copy and temporary.  A derived
inexact-Newton theta's estimator reads the kept factorization rather than
building its own, and any other factorization frees the kept one before
it allocates.  The probe behind a deflation seed holds its recorded Krylov
basis, a bounded number of vectors of length n, and no n x n array.
"""

import tracemalloc

import numpy as np
import pytest

from avesolve import linalg
from avesolve.generators import GeneratorSpec, gen_random_sparse, gen_x0
from avesolve.linalg import band_layout, lu_factor
from avesolve.core import kept
from avesolve.solvers import (
    DEFLATION_BASIS,
    SolverConfig,
    clear_factorization,
    deflation_seed,
    run_solver,
)

N = 400
SPEC = GeneratorSpec(family="random", n=N, sigma_min_target=3.5, seed=1)


def traced_dense_arrays(fn) -> tuple[float, float]:
    """Traced allocation of ``fn()`` beyond what was live before it, at its
    peak and still live at the end, in bytes of one N x N float64 array."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - base) / (8.0 * N * N), (live - base) / (8.0 * N * N)


def peak_in_dense_arrays(fn) -> float:
    return traced_dense_arrays(fn)[0]


@pytest.fixture(scope="module")
def problem():
    p = gen_random_sparse(SPEC)
    assert band_layout(p.A) is None
    return p


@pytest.mark.parametrize("storage", ["csr", "c-order-dense"])
def test_lu_factor_holds_one_dense_array(problem, storage):
    A = problem.A if storage == "csr" else np.ascontiguousarray(problem.A.toarray())
    assert peak_in_dense_arrays(lambda: lu_factor(A)) <= 1.5


def test_newton_keeps_no_widened_copy(problem):
    x0 = gen_x0(N, seed=0)
    reports = []
    peak = peak_in_dense_arrays(
        lambda: reports.append(run_solver("newton", problem, SolverConfig(), x0=x0))
    )
    assert reports[0].iterations >= 2
    assert peak <= 1.5


def test_kept_factorization_is_the_only_one_held(problem):
    # drs factors A, newton replaces it once per step, and the last drs
    # factors A again: each new factorization replaces the kept one.
    x0 = gen_x0(N, seed=0)
    clear_factorization()
    reports = []
    peak, live = traced_dense_arrays(lambda: reports.extend(
        run_solver(method, problem, SolverConfig(), x0=x0)
        for method in ("drs", "newton", "drs")
    ))
    assert [r.factorizations for r in reports] == [1, reports[1].iterations, 1]
    assert reports[1].iterations >= 2
    assert peak <= 1.5
    # The kept factors: one n x n array and its pivots.
    assert live < 1.1


def test_newton_keeps_no_factors_after_the_run(problem):
    # Each step's factors of A - diag(s) are a temporary of that step.
    x0 = gen_x0(N, seed=0)
    clear_factorization()
    reports = []
    _, live = traced_dense_arrays(
        lambda: reports.append(run_solver("newton", problem, SolverConfig(), x0=x0))
    )
    assert reports[0].iterations >= 2
    assert linalg.lu_slot is None
    assert live <= 0.1


def test_derived_theta_reads_the_kept_factorization(problem):
    # The sigma_min estimate behind a derived theta factors through the
    # slot, so after drs it reuses drs's LU instead of building a second.
    # The deflation seed that inexact-newton reads is kept before the
    # window opens: its probe alone peaks near one n x n array at this n
    # (test_cold_probe_holds_vectors_not_arrays), as much as the second LU
    # this test rules out would add.
    x0 = gen_x0(N, seed=0)
    clear_factorization()
    kept(problem, deflation_seed)
    reports = []
    peak = peak_in_dense_arrays(lambda: reports.extend(
        run_solver(method, problem, SolverConfig(), x0=x0)
        for method in ("drs", "inexact-newton")
    ))
    assert [r.factorizations for r in reports] == [1, 0]
    assert peak <= 1.5
    clear_factorization()
    cold = run_solver("inexact-newton", problem, SolverConfig(), x0=x0)
    assert cold.factorizations == 1
    assert cold.residual_history == reports[1].residual_history


def test_cold_probe_holds_vectors_not_arrays(problem):
    # The probe's peak is counted in vectors of length n: the transposed
    # copy of A (60 at this fill), the recorded basis (160) and its
    # bidiagonal (64), the space and the harvest's blocks; 387 measured.
    clear_factorization()
    peak, _ = traced_dense_arrays(lambda: deflation_seed(problem))
    assert peak * N <= 2.5 * DEFLATION_BASIS


def test_generator_estimate_replaces_the_kept_factorization(problem):
    # The generator's sigma_min estimate factors a matrix of its own; the
    # factors kept from drs are freed before that LU is allocated.  The
    # generator alone peaks at 1.64 arrays, and keeping drs's factors
    # through its estimate would add a whole one (2.65).
    x0 = gen_x0(N, seed=0)
    clear_factorization()
    reports = []

    def drs_then_generate():
        reports.append(run_solver("drs", problem, SolverConfig(), x0=x0))
        gen_random_sparse(SPEC)

    assert peak_in_dense_arrays(drs_then_generate) <= 2.0
    assert reports[0].factorizations == 1


def test_random_generator_draws_no_dense_pattern():
    assert peak_in_dense_arrays(lambda: gen_random_sparse(SPEC)) <= 2.0
