import math

import numpy as np
import pytest

from besselstop.oracles import explicit_special_values
from besselstop.series import ModelParams, psi_derivative, psi_eval
from besselstop.value import (
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

C_REF = 1.503395376470782
B_REF = 0.9711974210930677
E1_53_REF = 2.1250941585842282  # via the integral-form solution
E1_72_REF = 2.0908278369595936  # via the second integral form


@pytest.fixture(scope="module")
def sol31():
    return build_candidate(ModelParams(3, 1))


@pytest.fixture(scope="module")
def sol11():
    return build_candidate(ModelParams(1, 1))


def test_excursion_constants():
    exc = build_excursion()
    assert exc.C == pytest.approx(C_REF, abs=1e-9)
    assert exc.B == pytest.approx(B_REF, abs=1e-9)
    assert exc.B == pytest.approx(2.0 * exc.C * math.exp(-0.5 * exc.C**2), rel=1e-12)


def test_candidate_invariants(sol31):
    n = sol31.params.n
    lhs = sol31.E1 * psi_eval(sol31.table, sol31.Z)
    assert lhs == pytest.approx(sol31.Z ** (n / 2.0), rel=1e-12)
    fit = 2.0 * sol31.Z * sol31.E1 * psi_derivative(sol31.table, sol31.Z)
    assert fit == pytest.approx(n * sol31.Z ** (n / 2.0), rel=1e-10)


def test_level_constants_special_cases(sol11):
    assert sol11.E1 == pytest.approx(math.exp(-0.5), rel=1e-12)
    sol22 = build_candidate(ModelParams(2, 2))
    assert sol22.Z == pytest.approx(2.0, abs=1e-10)
    assert sol22.E1 == pytest.approx(2.0 / math.e, rel=1e-12)


def test_origin_value_is_excursion_level(sol31):
    assert U_star(sol31, 0.0, 0.0) == pytest.approx(B_REF, abs=1e-9)
    assert sol31.E1 == pytest.approx(B_REF, abs=1e-9)


def test_boundary_point_takes_payoff_branch(sol11):
    # q exactly at the boundary: payoff branch, and value matching makes it 1
    assert U_star(sol11, 0.0, 1.0) == 1.0


def test_stopping_region_value(sol11):
    assert U_star(sol11, 0.75, 0.5) == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_time_one_returns_payoff(sol31):
    assert U_star(sol31, 1.0, 0.49) == pytest.approx(0.7, rel=1e-15)
    assert U_star(sol31, 1.0, 0.0) == 0.0


def test_argument_validation(sol31):
    with pytest.raises(ValueError):
        U_star(sol31, 1.5, 0.0)
    with pytest.raises(ValueError):
        U_star(sol31, -0.1, 0.0)
    with pytest.raises(ValueError):
        U_star(sol31, 0.5, -1.0)
    with pytest.raises(ValueError):
        boundary_q(sol31, 1.2)
    for q in (-1.0, math.nan):
        with pytest.raises(ValueError, match="q must be nonnegative"):
            explicit_special_values(ModelParams(1, 1), 0.5, q)


def test_V_is_U_of_squared_argument(sol31):
    for t in (0.0, 0.3, 0.9):
        for x in (0.0, 0.5, 1.2, 2.0):
            assert V_star(sol31, t, x) == U_star(sol31, t, x * x)
    assert V_star(sol31, 0.0, 2.0) == 2.0


def test_value_matching_on_x_boundary(sol31):
    n = sol31.params.n
    for t in np.linspace(0.0, 0.9, 10):
        xb = boundary_x(sol31, t)
        assert V_star(sol31, t, xb) == pytest.approx(xb**n, rel=1e-12)


def test_boundary_curves(sol31):
    assert boundary_q(sol31, 0.5) == pytest.approx(0.5 * sol31.Z, rel=1e-15)
    assert boundary_x(sol31, 0.0) == pytest.approx(C_REF, abs=1e-9)
    assert boundary_q(sol31, 1.0) == 0.0
    t = np.linspace(0.0, 1.0, 50)
    zq = boundary_q(sol31, t)
    assert np.all(np.diff(zq) < 0.0)


def test_excursion_value_limits_and_agreement(sol31):
    assert excursion_value(0.0, 1e-12) == pytest.approx(B_REF, abs=1e-9)
    assert excursion_value(0.0, C_REF) == pytest.approx(C_REF, rel=1e-12)
    assert excursion_value(0.96, 1.0) == 1.0  # deep in the stopping region
    rng = np.random.default_rng(3)
    for _ in range(40):
        t = rng.uniform(0.0, 0.95)
        x = rng.uniform(0.0, 2.0)
        assert excursion_value(t, x) == pytest.approx(V_star(sol31, t, x), abs=1e-8)


def test_smooth_fit_residuals(sol31, sol11):
    assert smooth_fit_residual(sol11, 0.0) <= 1e-12
    assert smooth_fit_residual(sol31, 0.5) <= 1e-9
    sol22 = build_candidate(ModelParams(2, 2))
    for t in (0.0, 0.4, 0.9):
        assert smooth_fit_residual(sol22, t) <= 1e-12


def test_majorant_property(sol31):
    for t in (0.0, 0.25, 0.5, 0.75):
        z_t = boundary_q(sol31, t)
        q = np.linspace(0.0, z_t, 500)
        gap = U_star(sol31, t, q) - q ** (sol31.params.n / 2.0)
        assert gap.min() >= -1e-12


def test_value_matching_in_q(sol31):
    n = sol31.params.n
    for t in np.arange(0.0, 0.95, 0.1):
        z_t = boundary_q(sol31, t)
        left = U_star(sol31, t, z_t * (1.0 - 1e-12))
        assert abs(left - z_t ** (n / 2.0)) <= 1e-10


def test_scaling_self_similarity(sol31):
    rng = np.random.default_rng(5)
    for _ in range(30):
        t = rng.uniform(0.0, 0.99)
        q = rng.uniform(0.0, 2.0 * sol31.Z)
        lhs = U_star(sol31, t, q)
        rhs = (1.0 - t) ** 0.5 * U_star(sol31, 0.0, q / (1.0 - t))
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_pde_residual_small(sol31):
    for t in (0.0, 0.3, 0.6):
        z_t = boundary_q(sol31, t)
        q = np.linspace(0.0, 0.999 * z_t, 200)
        res = np.abs(pde_residual(sol31, t, q))
        assert res.max() <= 1e-8
    with pytest.raises(ValueError):
        pde_residual(sol31, 0.5, 2.0 * sol31.Z)


def test_special_values_equal_parameter_family():
    val = explicit_special_values(ModelParams(1, 1), 0.0, 0.0)
    assert val == pytest.approx(math.exp(-0.5), rel=1e-12)
    # stopping branch
    assert explicit_special_values(ModelParams(1, 1), 0.75, 0.5) == pytest.approx(
        math.sqrt(0.5), rel=1e-15
    )


def test_special_values_integral_family(sol31):
    assert explicit_special_values(ModelParams(3, 1), 0.0, 0.0) == pytest.approx(
        B_REF, abs=1e-9
    )
    assert explicit_special_values(ModelParams(5, 3), 0.0, 0.0) == pytest.approx(
        E1_53_REF, rel=1e-9
    )


def test_special_values_second_form():
    assert explicit_special_values(ModelParams(7, 2), 0.0, 0.0) == pytest.approx(
        E1_72_REF, rel=1e-8
    )


def test_special_values_absent():
    assert explicit_special_values(ModelParams(5, 1), 0.0, 0.0) is None


# (4, 2) lies in both integral families and takes the first form
@pytest.mark.parametrize(
    "a,n", [(1.0, 1.0), (3.0, 1.0), (5.0, 3.0), (7.0, 2.0), (2.0, 2.0), (4.0, 2.0), (2.5, 2.0)]
)
def test_special_values_agree_with_series(a, n):
    params = ModelParams(a, n)
    sol = build_candidate(params)
    rng = np.random.default_rng(17)
    for _ in range(15):
        t = rng.uniform(0.0, 0.9)
        q = rng.uniform(0.0, 2.0 * sol.Z)
        special = explicit_special_values(params, t, q)
        assert special == pytest.approx(U_star(sol, t, q), rel=1e-7, abs=1e-9)
