import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import hyp1f1

from besselstop.boundary import find_Z
from besselstop.series import (
    CoefficientTable,
    F_eval,
    ModelParams,
    TruncationError,
    _horner,
    build_coefficients,
    gamma_form_coefficients,
    ode_residual_series,
    psi_derivative,
    psi_eval,
)
from besselstop.value import build_candidate, pde_residual

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
    assert table.A[0] == 1.0
    assert table.A[1] == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert table.A[2] == pytest.approx(1.0 / 40.0, rel=1e-14)
    # second coefficient also matches 1/((2k+1) 2^k k!) at k = 2
    assert table.A[2] == pytest.approx(1.0 / (5 * 4 * 2), rel=1e-14)


def test_equal_parameters_reduce_to_exponential_coefficients():
    for n in (0.5, 2.0, 5.0):
        table = build_coefficients(ModelParams(n, n))
        for k in range(min(10, table.K) + 1):
            assert table.A[k] == pytest.approx(
                1.0 / (2.0**k * math.factorial(k)), rel=1e-12
            )


def test_recursion_matches_gamma_closed_form_random_params():
    rng = np.random.default_rng(20240601)
    for _ in range(25):
        a, n = rng.uniform(0.25, 10.0, size=2)
        table = build_coefficients(ModelParams(a, n))
        closed = gamma_form_coefficients(table.params, table.K)
        assert np.max(np.abs(np.array(table.A) / closed - 1.0)) <= 1e-10


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
    # psi(1100) ~ e^550 is a float, but its tail needs about 740 terms
    with pytest.raises(TruncationError, match="no K <= 500") as exc:
        build_coefficients(ModelParams(3, 1), ymax=1100.0)
    partial = exc.value.partial
    assert isinstance(partial, CoefficientTable)
    assert partial.K == 500 and len(partial.A) == 501
    assert partial.A[0] == 1.0


@pytest.mark.parametrize("alpha, n, ymax, K", [(1, 405, None, 282), (3, 1, 1e6, 74)])
def test_overflowed_tail_sum_carries_the_table_built_so_far(alpha, n, ymax, K):
    # the sum of A_k ymax^k passes float range before its tail test holds
    with pytest.raises(TruncationError, match=f"overflows by order {K}") as exc:
        build_coefficients(ModelParams(alpha, n), ymax=ymax)
    partial = exc.value.partial
    assert partial.K == K and len(partial.A) == K + 1
    assert partial.A[0] == 1.0


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
    partial = np.cumsum(np.array(table.A) * y ** np.arange(table.K + 1))
    assert partial[0] == 1.0
    # positive terms: nondecreasing everywhere, strictly so above the ulp floor
    assert np.all(np.diff(partial) >= 0.0)
    assert np.all(np.diff(partial[:10]) > 0.0)
    assert np.all(partial >= 1.0)


def test_derivatives_at_zero():
    table = build_coefficients(ModelParams(3, 1))
    assert psi_derivative(table, 0.0, 1) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert psi_derivative(table, 0.0, 2) == pytest.approx(2.0 * table.A[2], rel=1e-14)
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
        F_eval(table, 6.0)
    # a Python float takes the float path, a one-element array the numpy path:
    # both accept ymax (1 + 1e-9) and give the same message for everything else
    edge = table.ymax * (1.0 + 1e-9)
    for call in (*_series_callers(table).values(), lambda y: psi_derivative(table, y, 2)):
        assert call(edge) == call(np.array([edge]))[0]
        for bad in (math.nan, -0.1, math.nextafter(edge, math.inf)):
            with pytest.raises(ValueError) as scalar:
                call(bad)
            with pytest.raises(ValueError) as array:
                call(np.array([bad]))
            assert str(scalar.value) == str(array.value)


def _series_callers(table):
    return {
        "psi_eval": lambda y: psi_eval(table, y),
        "psi_derivative": lambda y: psi_derivative(table, y, 1),
        "F_eval": lambda y: F_eval(table, y),
        "ode_residual_series": lambda y: ode_residual_series(table, y),
    }


_TABLE31 = build_coefficients(ModelParams(3, 1))
_SERIES_CALLERS = dict(
    _series_callers(_TABLE31),
    pde_residual=lambda q: pde_residual(build_candidate(ModelParams(3, 1)), 0.5, q),
)


@pytest.mark.parametrize("caller", sorted(_SERIES_CALLERS))
def test_nan_series_argument_is_rejected(caller):
    # NaN < 0 and NaN > ymax are both false, so the range check must test >= 0
    call = _SERIES_CALLERS[caller]
    assert math.isfinite(call(0.5))
    for bad in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match="nonnegative"):
            call(bad)
    # the float path gives the one-element array's message
    for bad in (math.nan, -0.5):
        with pytest.raises(ValueError, match="nonnegative") as scalar:
            call(bad)
        with pytest.raises(ValueError) as array:
            call(np.array([bad]))
        assert str(scalar.value) == str(array.value)


def _same_error(call, bad):
    with pytest.raises(ValueError) as scalar:
        call(bad)
    with pytest.raises(ValueError) as array:
        call(np.array([bad]))
    assert str(scalar.value) == str(array.value)


@pytest.mark.parametrize("alpha, n", [(3, 1), (0.3, 7.0), (20, 0.5), (1, 1)])
def test_scalar_residual_is_the_one_element_array_result(alpha, n):
    # a float or int argument stays a Python float through the three series
    # calls; the result is bit for bit the one-element array's
    params = ModelParams(alpha, n)
    table = build_coefficients(params)
    sol = build_candidate(params)
    for u in (0.0, 0.1, 0.37, 0.9, 1.0):
        for y in (u * table.ymax, np.float64(u * table.ymax), np.array(u * table.ymax)):
            got = ode_residual_series(table, y)
            want = ode_residual_series(table, np.array([float(y)]))
            assert type(got) is float and np.array([got]).tobytes() == want.tobytes()
        for t in (0.0, 0.4):
            q = 0.999 * u * sol.Z * (1.0 - t)
            got = pde_residual(sol, t, q)
            want = pde_residual(sol, t, np.array([q]))
            assert type(got) is float and np.array([got]).tobytes() == want.tobytes()
    assert type(ode_residual_series(table, 1)) is float
    assert type(pde_residual(sol, 0.5, 0)) is float
    for bad in (math.nan, -0.5, 2.0 * table.ymax):
        _same_error(lambda y: ode_residual_series(table, y), bad)
    for bad in (math.nan, -0.5, sol.Z):
        _same_error(lambda q: pde_residual(sol, 0.0, q), bad)


def test_F_at_zero_is_minus_n():
    for a, n in ((3, 1), (2, 4.5)):
        assert F_eval(build_coefficients(ModelParams(a, n)), 0.0) == -n


def test_F_matches_derivative_identity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, n = rng.uniform(0.3, 8.0, size=2)
        params = ModelParams(a, n)
        table = build_coefficients(params)
        z = rng.uniform(0.0, 0.5 * table.ymax)
        direct = F_eval(table, z)
        via_psi = 2.0 * z * psi_derivative(table, z, 1) - n * psi_eval(table, z)
        assert direct == pytest.approx(via_psi, rel=1e-12, abs=1e-12)


def test_F_closed_form_for_reflecting_bridge():
    # alpha = n = 1: the series sums to (z - 1) e^{z/2}.
    params = ModelParams(1, 1)
    table = build_coefficients(params)
    for z in (0.25, 1.0, 2.5):
        assert F_eval(table, z) == pytest.approx(
            (z - 1.0) * math.exp(0.5 * z), rel=1e-12, abs=1e-13
        )
    assert abs(F_eval(table, 1.0)) < 1e-14


def test_F_root_location_for_excursion():
    params = ModelParams(3, 1)
    table = build_coefficients(params)
    assert abs(F_eval(table, Z31_REF)) < 1e-12


def test_F_sign_structure_around_root():
    for a, n in ((3, 1), (1.3, 4.2), (7, 2)):
        params = ModelParams(a, n)
        z_root = find_Z(params).value
        table = build_coefficients(params, ymax=2.5 * z_root)
        below = np.linspace(0.0, z_root * (1.0 - 1e-6), 200)
        above = np.linspace(z_root * (1.0 + 1e-6), 2.0 * z_root, 200)
        assert np.all(F_eval(table, below) < 0.0)
        assert np.all(F_eval(table, above) > 0.0)


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
    # one table serves every evaluation of a root solve, so a write into any
    # of its coefficient sets would corrupt the later ones
    table = build_coefficients(ModelParams(3, 1))
    for name in ("A", "_dpsi", "_d2psi", "_F"):
        coeffs = getattr(table, name)
        assert type(coeffs) is tuple and getattr(table, name) is coeffs
        with pytest.raises(TypeError):
            coeffs[0] = 2.0
    with pytest.raises(AttributeError):
        table.A = (2.0,)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=60, deadline=None)
@given(
    alpha=_log_uniform(0.05, 60.0),
    n=_log_uniform(0.05, 60.0),
    u=st.floats(0.0, 1.0),
    eps=st.sampled_from([1e-14, 1e-8, 1.0]),
)
def test_horner_bit_identical_to_polyval(alpha, n, u, eps):
    # eps = 1 gives K = 0, so the derivative tables below are empty
    table = build_coefficients(ModelParams(alpha, n), eps=eps)
    k = np.arange(table.K + 1, dtype=float)
    A = np.array(table.A)
    inline = {
        "A": A,
        "_dpsi": (k * A)[1:],
        "_d2psi": (k * (k - 1.0) * A)[2:],
        "_F": (2.0 * k - n) * A,
    }
    coeff_sets = [getattr(table, name) for name in inline]
    for name, c in zip(inline, coeff_sets):
        assert np.array(c, dtype=float).tobytes() == inline[name].tobytes(), name
    y = u * table.ymax
    grid = np.linspace(0.0, table.ymax, 12).reshape(3, 4)
    # a one-element array takes the binary loop, the longer ones the in-place one
    line = np.linspace(0.0, table.ymax, 2000)
    args = (y, np.float64(y), np.array(y), np.array([y]), grid, line, 0, int(table.ymax))
    for c in coeff_sets:
        for arg in args:
            kept = np.array(arg, dtype=float)
            got = _horner(table, arg, c)
            want = np.polynomial.polynomial.polyval(np.asarray(arg), np.array(c) if c else np.zeros(1))
            assert np.asarray(got).tobytes() == np.asarray(want, dtype=float).tobytes()
            assert np.asarray(arg, dtype=float).tobytes() == kept.tobytes()
            if np.ndim(arg) == 0:
                assert type(got) is float
            else:
                assert isinstance(got, np.ndarray) and got.shape == np.shape(arg)
                assert not np.shares_memory(got, arg)
    if table.K == 0:
        assert psi_derivative(table, y, 1) == 0.0
        assert np.array_equal(psi_derivative(table, grid, 2), np.zeros((3, 4)))


@pytest.mark.parametrize("size", [1, 2, 2000])
def test_series_functions_leave_the_argument_unchanged(size):
    # the in-place Horner accumulates in a fresh array, never in the caller's y
    table = build_coefficients(ModelParams(3, 1))
    y = np.linspace(0.0, table.ymax, size) if size > 1 else np.array([0.7 * table.ymax])
    kept = y.copy()
    calls = dict(_series_callers(table), psi_derivative_2=lambda v: psi_derivative(table, v, 2))
    for name, call in calls.items():
        got = call(y)
        assert y.tobytes() == kept.tobytes(), name
        assert got.shape == y.shape and not np.shares_memory(got, y), name
        assert call(y).tobytes() == got.tobytes(), name


@pytest.mark.parametrize("y", [1.25, np.float64(1.25), np.array(1.25), 1])
def test_series_functions_return_python_float_for_scalar_input(y):
    params = ModelParams(3, 1)
    table = build_coefficients(params)
    for value in (
        psi_eval(table, y),
        psi_derivative(table, y, 1),
        psi_derivative(table, y, 2),
        F_eval(table, y),
    ):
        assert type(value) is float
