"""Solvers, generators and benchmarks for absolute value equations
``A x - |x| - b = 0``."""

from .core import (
    AveProblem,
    GMatrix,
    Regime,
    SolvabilityReport,
    ZeroResidualError,
    check_solvability,
    glcp_maps,
    residual,
    residual_via_projection,
    rho,
    theta_k,
)
from .generators import (
    GeneratorFailure,
    GeneratorSpec,
    gen_no_solution_1d,
    gen_random_sparse,
    gen_tridiag8,
    gen_x0,
    generate,
    load_problem,
    read_manifest,
    save_problem,
)
from .linalg import (
    SingularMatrixError,
    lu_factor,
    lu_solve,
    matrix_norm2_estimate,
    norm2,
    sigma_min_estimate,
    singular_value_bounds,
)
from .lsqr import LsqrResult, LsqrStop, lsqr_solve
from .solvers import (
    InnerSolverStallError,
    Method,
    SolveReport,
    SolverConfig,
    SolveStatus,
    ThetaUndefinedError,
    drs_exact,
    drs_inexact,
    fixed_point,
    fixed_point_inverse,
    newton_exact,
    newton_inexact,
    run_solver,
    sor_like,
)
from .bench import (
    BenchRecord,
    IncompleteGridError,
    ProfileTable,
    efficiency_robustness,
    emit_csv,
    performance_ratios,
    profile_curve,
    profile_curves,
    run_bench,
)

__version__ = "0.1.0"
