"""Optimal stopping of squared Bessel bridges with power payoffs.

The library computes the free boundary z(t) = Z (1 - t) and the value
function of the stopping problem sup E[Q_tau^{n/2}] for the alpha-dimensional
squared Bessel bridge, via a power-series solution of the associated ODE, and
cross-checks the construction against independent oracles: ODE shooting, a
one-sweep lattice on the self-similar line, and Monte Carlo path simulation.

The solve path (``series``, ``boundary``, ``value``) loads with the package
and solves in Python floats, without numpy; ``oracles``, ``simulate``,
``verify`` and their names here resolve on first access.
"""

from importlib import import_module as _import_module

from .boundary import NoRootError, RootResult, boundary_margin, find_C_excursion, find_Z
from .series import (
    CoefficientTable, ModelParams, TruncationError, build_coefficients, default_ymax, F_eval,
    gamma_form_coefficients, ode_residual_series, psi_derivative, psi_eval,
)
from .value import (
    CandidateSolution, ExcursionSolution, U_star, V_star, boundary_q, boundary_x,
    build_candidate, build_excursion, excursion_value, pde_residual, smooth_fit_residual,
)

# submodule -> the names it exports here, resolved on first access
_LAZY = {
    "oracles": """AccuracyError FdResult LatticeError OdeSolution RangeError Z_from_ode fd_value
        kummer_psi kummer_value kummer_Z ode_residual ode_shoot""".split(),
    "simulate": """BridgePath MCResult SCHEME_EXACT SimConfig StoppingOutcome SweepRow SweepTable
        ThresholdPolicy apply_policy mc_estimate policy_sweep simulate_exact""".split(),
    "verify": """CheckResult DELTA_FORM GAMMA_FORM IterState LambdaParams VerificationReport
        candidate_shape_checks check_delta_bounds check_dominance check_gamma_bounds
        delta_polynomials H_value iterate_DB lambda_eval lambda_iterate_invariance
        run_iteration_checks run_shape_checks tilde_map""".split(),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    # not cached, so each access reads the defining module's current object
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(_import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_HOME))


# a star import takes every public name and submodule, the lazy ones included
__all__ = [name for name in globals() if not name.startswith("_")] + [*_LAZY, *_HOME]

__version__ = "0.1.0"
