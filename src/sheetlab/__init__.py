"""Numerical laboratory for Brownian-sheet kernel approximations, weak-convergence
diagnostics, and the stochastic Poisson equation on the unit cube."""

from .grid import GridField, GridSpec
from .rng import RngStream
from .kernels import (
    DonskerField,
    PoissonField,
    donsker_eval,
    kac_stroock_eval,
    sample_donsker,
    sample_kac_stroock,
    sheet_covariance,
    zeta,
    zeta_on_axes,
)
from .integrals import Integrand, indicator_integrand
from .convergence import (
    ConvergenceReport,
    DiagConfig,
    fdd_test,
    holder_probe,
    moment_bound_probe,
    tightness_modulus_probe,
    solution_convergence_report,
    variance_convergence_report,
)
from .green import (
    GreenSeries,
    WalkTruncationError,
    WosConfig,
    green_eval,
    green_integrand,
    green_l2_norm,
    green_mc_estimate,
    k_apply,
    lambda_sup,
    poincare_constant,
)
from .solver import (
    Nonlinearity,
    SolveConfig,
    SolveResult,
    psi_continuity_check,
    residual,
    solve_contraction,
)

__version__ = "0.1.0"
