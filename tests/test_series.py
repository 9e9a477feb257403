import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp1f1

from besselstop.boundary import find_Z
from besselstop.series import (
    CoefficientTable,
    F_derivative,
    F_eval,
    ModelParams,
    TruncationError,
    build_coefficients,
    gamma_form_coefficients,
    ode_residual_series,
    psi_derivative,
    psi_eval,
)

# Independent references: the excursion threshold from quadrature root
# finding and its square (the alpha=3, n=1 boundary scale).
C_REF = 1.503395376470782
Z31_REF = 2.260197657993724
PSI31_AT_Z = 1.5479812279348246  # via Kummer's function and via quadrature


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, -2.0)
    with pytest.raises(ValueError):
        ModelParams(math.nan, 1.0)
    p = ModelParams(3, 1)
    assert p.alpha == 3.0 and p.n == 1.0


def test_first_recursion_steps_3_1():
    table = build_coefficients(ModelParams(3, 1))
    assert table.coeffs[0] == 1.0
    assert table.coeffs[1] == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert table.coeffs[2] == pytest.approx(1.0 / 40.0, rel=1e-14)
    # second coefficient also matches 1/((2k+1) 2^k k!) at k = 2
    assert table.coeffs[2] == pytest.approx(1.0 / (5 * 4 * 2), rel=1e-14)


def test_equal_parameters_reduce_to_exponential_coefficients():
    for n in (0.5, 2.0, 5.0):
        table = build_coefficients(ModelParams(n, n))
        for k in range(min(10, table.K) + 1):
            assert table.coeffs[k] == pytest.approx(
                1.0 / (2.0**k * math.factorial(k)), rel=1e-12
            )


def test_recursion_matches_gamma_closed_form_random_params():
    rng = np.random.default_rng(20240601)
    for _ in range(25):
        a, n = rng.uniform(0.25, 10.0, size=2)
        table = build_coefficients(ModelParams(a, n))
        closed = gamma_form_coefficients(table.params, table.K)
        assert np.max(np.abs(table.coeffs / closed - 1.0)) <= 1e-10


def test_cross_check_covers_underflowed_coefficients():
    # at (80, 78) with ymax = 200 the highest 36 coefficients are zero or
    # subnormal in both forms; the normal ones agree to about 2.4e-13
    params = ModelParams(80, 78)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = build_coefficients(params, ymax=200.0)
    closed = gamma_form_coefficients(params, table.K)
    assert np.sum(closed < np.finfo(float).tiny) > 0


# the last coefficient has underflowed to 0 in both forms; A_100 ~ 2.4e-189
# is normal in both.  1e-300 is normal where the recursion has underflowed.
@pytest.mark.parametrize("k, bad", [(-1, math.nan), (-1, 1e-300), (100, 0.0), (100, math.nan)])
def test_cross_check_rejects_corrupted_high_coefficient(monkeypatch, k, bad):
    import besselstop.series as series

    def corrupted(params, K):
        closed = gamma_form_coefficients(params, K)
        closed[k] = bad
        return closed

    monkeypatch.setattr(series, "gamma_form_coefficients", corrupted)
    with pytest.raises(RuntimeError):
        build_coefficients(ModelParams(80, 78), ymax=200.0)


def test_truncation_cap_carries_partial_table():
    with pytest.raises(TruncationError) as exc:
        build_coefficients(ModelParams(3, 1), ymax=1e6)
    partial = exc.value.partial
    assert isinstance(partial, CoefficientTable)
    assert partial.K == 500
    assert partial.coeffs[0] == 1.0


def test_psi_at_zero_is_one():
    for a, n in ((3, 1), (0.5, 7), (10, 0.25)):
        table = build_coefficients(ModelParams(a, n))
        assert psi_eval(table, 0.0) == 1.0


def test_psi_equals_exponential_when_parameters_match():
    table = build_coefficients(ModelParams(1, 1), ymax=20.0)
    y = np.linspace(0.0, 20.0, 200)
    assert np.max(np.abs(psi_eval(table, y) / np.exp(0.5 * y) - 1.0)) <= 1e-12
    assert psi_eval(table, 2.0) == pytest.approx(math.e, rel=1e-13)


def test_psi_matches_quadrature_closed_form_for_excursion():
    # Bounded solution for (3, 1) in closed form: y^{-1/2} int_0^{sqrt(y)} e^{t^2/2} dt.
    table = build_coefficients(ModelParams(3, 1))
    for y in (0.5, 1.0, Z31_REF):
        val, _ = quad(lambda t: math.exp(0.5 * t * t), 0.0, math.sqrt(y), epsrel=1e-13, epsabs=0.0)
        assert psi_eval(table, y) == pytest.approx(val / math.sqrt(y), rel=1e-11)
    assert psi_eval(table, Z31_REF) == pytest.approx(PSI31_AT_Z, rel=1e-11)


def test_psi_strictly_increasing():
    table = build_coefficients(ModelParams(4.5, 0.75))
    y = np.linspace(0.0, table.ymax, 400)
    assert np.all(np.diff(psi_eval(table, y)) > 0.0)


def test_psi_matches_kummer_function():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, n = rng.uniform(0.3, 8.0, size=2)
        table = build_coefficients(ModelParams(a, n))
        y = rng.uniform(0.0, min(4.0, table.ymax))
        assert psi_eval(table, y) == pytest.approx(
            float(hyp1f1(n / 2.0, a / 2.0, y / 2.0)), rel=1e-10
        )


def test_partial_sums_increasing_and_at_least_one():
    table = build_coefficients(ModelParams(2.5, 1.5))
    y = 3.0
    partial = np.cumsum(table.coeffs * y ** np.arange(table.K + 1))
    assert partial[0] == 1.0
    # positive terms: nondecreasing everywhere, strictly so above the ulp floor
    assert np.all(np.diff(partial) >= 0.0)
    assert np.all(np.diff(partial[:10]) > 0.0)
    assert np.all(partial >= 1.0)


def test_derivatives_at_zero():
    table = build_coefficients(ModelParams(3, 1))
    assert psi_derivative(table, 0.0, 1) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert psi_derivative(table, 0.0, 2) == pytest.approx(2.0 * table.coeffs[2], rel=1e-14)
    table22 = build_coefficients(ModelParams(2, 2))
    assert psi_derivative(table22, 0.0, 1) == pytest.approx(0.5, rel=1e-15)


def test_derivative_order_validation():
    table = build_coefficients(ModelParams(3, 1))
    with pytest.raises(ValueError):
        psi_derivative(table, 1.0, 3)
    with pytest.raises(ValueError):
        psi_derivative(table, 1.0, 0)


def test_range_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="ymax"):
            build_coefficients(ModelParams(3, 1), ymax=bad)
        with pytest.raises(ValueError, match="eps"):
            build_coefficients(ModelParams(3, 1), eps=bad)
    table = build_coefficients(ModelParams(3, 1), ymax=5.0)
    with pytest.raises(ValueError):
        psi_eval(table, 5.5)
    with pytest.raises(ValueError):
        psi_eval(table, -0.1)
    with pytest.raises(ValueError):
        F_eval(table.params, 6.0, table)


def test_F_at_zero_and_mismatched_params():
    table = build_coefficients(ModelParams(3, 1))
    assert F_eval(ModelParams(3, 1), 0.0, table) == -1.0
    with pytest.raises(ValueError):
        F_eval(ModelParams(2, 1), 1.0, table)


def test_F_matches_derivative_identity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, n = rng.uniform(0.3, 8.0, size=2)
        params = ModelParams(a, n)
        table = build_coefficients(params)
        z = rng.uniform(0.0, 0.5 * table.ymax)
        direct = F_eval(params, z, table)
        via_psi = 2.0 * z * psi_derivative(table, z, 1) - n * psi_eval(table, z)
        assert direct == pytest.approx(via_psi, rel=1e-12, abs=1e-12)


def test_F_closed_form_for_reflecting_bridge():
    # alpha = n = 1: the series sums to (z - 1) e^{z/2}.
    params = ModelParams(1, 1)
    table = build_coefficients(params)
    for z in (0.25, 1.0, 2.5):
        assert F_eval(params, z, table) == pytest.approx(
            (z - 1.0) * math.exp(0.5 * z), rel=1e-12, abs=1e-13
        )
    assert abs(F_eval(params, 1.0, table)) < 1e-14


def test_F_root_location_for_excursion():
    params = ModelParams(3, 1)
    table = build_coefficients(params)
    assert abs(F_eval(params, Z31_REF, table)) < 1e-12


def test_F_sign_structure_around_root():
    for a, n in ((3, 1), (1.3, 4.2), (7, 2)):
        params = ModelParams(a, n)
        z_root = find_Z(params).value
        table = build_coefficients(params, ymax=2.5 * z_root)
        below = np.linspace(0.0, z_root * (1.0 - 1e-6), 200)
        above = np.linspace(z_root * (1.0 + 1e-6), 2.0 * z_root, 200)
        assert np.all(F_eval(params, below, table) < 0.0)
        assert np.all(F_eval(params, above, table) > 0.0)


def test_F_derivative_consistent_with_finite_difference():
    params = ModelParams(3, 1)
    table = build_coefficients(params)
    z, h = 1.7, 1e-6
    fd = (F_eval(params, z + h, table) - F_eval(params, z - h, table)) / (2.0 * h)
    assert F_derivative(table, z) == pytest.approx(fd, rel=1e-8)


def test_series_ode_residual_small_on_grid():
    for a, n in ((3, 1), (0.5, 0.5), (5, 2)):
        params = ModelParams(a, n)
        z_root = find_Z(params).value
        table = build_coefficients(params, ymax=2.0 * z_root)
        y = np.linspace(0.0, 2.0 * z_root, 1000)
        res = np.abs(ode_residual_series(table, y))
        assert np.all(res <= 1e-9 * (1.0 + psi_eval(table, y)))


def test_residual_spot_value_from_example_parameters():
    table = build_coefficients(ModelParams(3, 1))
    assert abs(ode_residual_series(table, 1.0)) <= 1e-10


def test_coefficients_are_readonly():
    table = build_coefficients(ModelParams(3, 1))
    with pytest.raises(ValueError):
        table.coeffs[0] = 2.0
