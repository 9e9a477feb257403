"""Optimal stopping of squared Bessel bridges with power payoffs.

The library computes the free boundary z(t) = Z (1 - t) and the value
function of the stopping problem sup E[Q_tau^{n/2}] for the alpha-dimensional
squared Bessel bridge, via a power-series solution of the associated ODE, and
cross-checks the construction against independent oracles: ODE shooting, a
one-sweep lattice on the self-similar line, and Monte Carlo path simulation.
"""

from .boundary import (
    NoRootError,
    RootResult,
    boundary_margin,
    find_C_excursion,
    find_Z,
)
from .oracles import (
    AccuracyError,
    FdResult,
    LatticeError,
    OdeSolution,
    RangeError,
    Z_from_ode,
    fd_value,
    kummer_psi,
    kummer_value,
    kummer_Z,
    ode_residual,
    ode_shoot,
)
from .series import (
    CoefficientTable,
    ModelParams,
    TruncationError,
    build_coefficients,
    default_ymax,
    F_eval,
    gamma_form_coefficients,
    ode_residual_series,
    psi_derivative,
    psi_eval,
)
from .simulate import (
    BridgePath,
    MCResult,
    SCHEME_EXACT,
    SimConfig,
    StoppingOutcome,
    SweepRow,
    SweepTable,
    ThresholdPolicy,
    apply_policy,
    mc_estimate,
    path_seed,
    policy_sweep,
    simulate_exact,
)
from .value import (
    CandidateSolution,
    ExcursionSolution,
    U_star,
    V_star,
    boundary_q,
    boundary_x,
    build_candidate,
    build_excursion,
    excursion_value,
    pde_residual,
    smooth_fit_residual,
)
from .verify import (
    CheckResult,
    DELTA_FORM,
    GAMMA_FORM,
    IterState,
    LambdaParams,
    VerificationReport,
    candidate_shape_checks,
    check_delta_bounds,
    check_dominance,
    check_gamma_bounds,
    delta_polynomials,
    H_value,
    iterate_DB,
    lambda_eval,
    lambda_iterate_invariance,
    run_iteration_checks,
    run_shape_checks,
    tilde_map,
)

__version__ = "0.1.0"
