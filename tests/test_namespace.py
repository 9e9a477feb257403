"""The package namespace: eager solve-path names and lazily resolved layers."""

import importlib

import pytest

import besselstop

# every name the package exported when it imported all its layers eagerly
EXPORTED = {
    "boundary": [
        "NoRootError", "RootResult", "boundary_margin", "find_C_excursion", "find_Z",
    ],
    "oracles": [
        "AccuracyError", "FdResult", "LatticeError", "OdeSolution", "RangeError", "Z_from_ode",
        "fd_value", "kummer_psi", "kummer_value", "kummer_Z", "ode_residual", "ode_shoot",
    ],
    "series": [
        "CoefficientTable", "ModelParams", "TruncationError", "build_coefficients", "default_ymax",
        "F_eval", "gamma_form_coefficients", "ode_residual_series", "psi_derivative", "psi_eval",
    ],
    "simulate": [
        "BridgePath", "MCResult", "SCHEME_EXACT", "SimConfig", "StoppingOutcome", "SweepRow",
        "SweepTable", "ThresholdPolicy", "apply_policy", "mc_estimate", "policy_sweep",
        "simulate_exact",
    ],
    "value": [
        "CandidateSolution", "ExcursionSolution", "U_star", "V_star", "boundary_q", "boundary_x",
        "build_candidate", "build_excursion", "excursion_value", "pde_residual",
        "smooth_fit_residual",
    ],
    "verify": [
        "CheckResult", "DELTA_FORM", "GAMMA_FORM", "IterState", "LambdaParams",
        "VerificationReport", "candidate_shape_checks", "check_delta_bounds", "check_dominance",
        "check_gamma_bounds", "delta_polynomials", "H_value", "iterate_DB", "lambda_eval",
        "lambda_iterate_invariance", "run_iteration_checks", "run_shape_checks", "tilde_map",
    ],
}
PAIRS = [(module, name) for module, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("module, name", PAIRS)
def test_exported_name_is_the_defining_modules_object(module, name):
    home = importlib.import_module(f"besselstop.{module}")
    namespace = {}
    exec(f"from besselstop import {name}", namespace)
    assert getattr(besselstop, name) is getattr(home, name)
    assert namespace[name] is getattr(home, name)
    assert name in dir(besselstop)
    assert name in besselstop.__all__


def test_submodules_resolve_as_modules():
    from besselstop import simulate

    assert simulate is importlib.import_module("besselstop.simulate")
    for module in EXPORTED:
        assert getattr(besselstop, module) is importlib.import_module(f"besselstop.{module}")
        assert module in dir(besselstop)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        besselstop.no_such_name
    with pytest.raises(ImportError):
        exec("from besselstop import no_such_name", {})
