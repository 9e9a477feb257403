import inspect
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from besselstop import boundary, oracles
from besselstop.boundary import (
    NoRootError,
    RootResult,
    exp_t2_integral,
    boundary_margin,
    excursion_h,
    find_C_excursion,
    find_Z,
    solve_root,
)
from besselstop.oracles import Z_from_ode, kummer_Z, kummer_value
from besselstop.series import (
    F_eval,
    ModelParams,
    TruncationError,
    _horner,
    build_coefficients,
)
from besselstop.value import U_star, build_candidate
from besselstop.verify import PARAMETER_GRID

C_REF = 1.503395376470782  # quadrature + bracketed root, frozen
C_PUBLISHED = 1.50339538  # eight-digit reference string
Z_REF = {
    (2.0, 1.0): 1.661973143472448,
    (5.0, 1.0): 3.3840620854024386,
    (7.0, 2.0): 4.840097315571536,
    (5.0, 3.0): 4.142719526139801,
    (4.0, 2.0): 3.1872485200800673,
}


def test_excursion_sign_pattern():
    assert excursion_h(1.0) > 0.0
    assert excursion_h(2.0) < 0.0
    # the increasing-then-decreasing shape puts the root past the peak at 1
    assert excursion_h(1.0) < excursion_h(0.5) or excursion_h(0.5) > 0.0


def test_exp_t2_integral_matches_quadrature():
    cs = np.array([1e-6, 0.3, 1.0, C_REF, 2.0, 4.0])
    for c, closed in zip(cs, exp_t2_integral(cs)):
        direct, _ = quad(lambda t: math.exp(0.5 * t * t), 0.0, c, epsabs=0.0, epsrel=1e-13)
        assert closed == pytest.approx(direct, rel=1e-13)
        assert exp_t2_integral(float(c)) == closed


def test_excursion_constant():
    root = find_C_excursion(1e-8)
    assert abs(root.value - C_PUBLISHED) <= 1e-6
    assert abs(root.value - C_REF) <= 1e-9
    assert 1.0 < root.value < 2.0
    lo, hi = root.bracket
    assert lo < root.value < hi
    assert excursion_h(lo) > 0.0 > excursion_h(hi)


def test_excursion_tolerance_validation():
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            find_C_excursion(tol)


@pytest.mark.parametrize("n", [0.5, 1.0, 2.0, 3.0, 5.0])
def test_equal_parameter_roots(n):
    assert find_Z(ModelParams(n, n), tol=1e-12).value == pytest.approx(n, abs=1e-10)


def test_reflecting_bridge_root_exact():
    assert abs(find_Z(ModelParams(1, 1)).value - 1.0) <= 1e-10


def test_excursion_root_is_squared_constant():
    z = find_Z(ModelParams(3, 1), tol=1e-12).value
    assert abs(z - C_REF**2) <= 1e-8


@pytest.mark.parametrize("key", sorted(Z_REF))
def test_frozen_roots(key):
    a, n = key
    assert find_Z(ModelParams(a, n)).value == pytest.approx(Z_REF[key], rel=1e-9)


def test_root_result_bracket_invariant():
    for a, n in ((3, 1), (0.4, 6.0), (9, 9)):
        params = ModelParams(a, n)
        root = find_Z(params)
        lo, hi = root.bracket
        assert lo < root.value < hi
        table = build_coefficients(params, ymax=2.0 * hi)
        assert F_eval(table, lo) < 0.0 < F_eval(table, hi)
        assert abs(root.residual) <= 1e-8
        assert root.iterations > 0


def test_root_is_tolerance_stable():
    params = ModelParams(2.7, 1.3)
    for tol in (1e-6, 1e-8, 1e-10):
        coarse = find_Z(params, tol=tol).value
        fine = find_Z(params, tol=tol / 2.0).value
        assert abs(coarse - fine) <= tol


def test_find_Z_tol_validation():
    for tol in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            find_Z(ModelParams(3, 1), tol=tol)


@pytest.fixture
def table_builds(monkeypatch):
    """Coefficient tables built for roots, counted from an empty root memo."""
    builds = []
    real = boundary.build_coefficients

    def counting(*args, **kwargs):
        builds.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(boundary, "build_coefficients", counting)
    boundary._solve_Z.cache_clear()
    yield builds
    boundary._solve_Z.cache_clear()


def test_find_Z_is_a_plain_function():
    # the benchmark tracer wraps only plain functions
    assert inspect.isfunction(find_Z)


def test_find_Z_returns_the_last_root_again(table_builds):
    params = ModelParams(2.7, 1.3)
    root = find_Z(params)
    assert find_Z(params, 1e-10) is root
    assert find_Z(params, tol=1e-10) is root
    assert find_Z(ModelParams(2.7, 1.3)) is root
    assert len(table_builds) == 1


def test_find_Z_solves_again_for_another_tol(table_builds):
    params = ModelParams(2.7, 1.3)
    root = find_Z(params)
    other = find_Z(params, tol=1e-12)
    assert other is not root
    assert len(table_builds) == 2
    boundary._solve_Z.cache_clear()
    fresh = find_Z(params, tol=1e-12)
    assert fresh is not other
    assert fresh == other


def test_find_Z_keeps_only_the_last_root(table_builds):
    p1, p2 = ModelParams(3, 1), ModelParams(5, 3)
    first = find_Z(p1)
    find_Z(p2)
    again = find_Z(p1)
    assert table_builds == [p1, p2, p1]
    assert again is not first
    assert again == first


def test_find_Z_does_not_remember_errors(table_builds):
    params = ModelParams(1, 300)
    for _ in range(2):
        with pytest.raises(TruncationError):
            find_Z(params)
    assert table_builds == [params, params]


def test_candidate_and_margin_share_one_solve(table_builds):
    params = ModelParams(3.3, 1.7)
    sol = build_candidate(params)
    margin = boundary_margin(params)
    assert table_builds == [params]
    assert margin == sol.Z - 0.5 * (params.alpha + params.n - 2.0)


def test_closed_form_equal_parameters():
    # on the diagonal both Kummer functions are e^{z/2}, and the root is n exactly
    for n in (1e-7, 1e-3, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0):
        assert kummer_Z(ModelParams(n, n)) == n


@pytest.mark.parametrize("a", [2.5, 3.0, 4.0, 5.0, 7.0, 12.0])
def test_closed_form_integral_family(a):
    # n = alpha - 2 and n = 2 < alpha, once families with their own forms
    z = kummer_Z(ModelParams(a, a - 2.0))
    assert z == pytest.approx(find_Z(ModelParams(a, a - 2.0)).value, rel=1e-13)
    z2 = kummer_Z(ModelParams(a, 2.0))
    assert z2 == pytest.approx(find_Z(ModelParams(a, 2.0)).value, rel=1e-13)


@pytest.mark.parametrize("a", [80.0, 150.0])
def test_closed_form_integral_family_large_alpha(a):
    # Kummer's functions from hyp1f1 stay finite here
    z = kummer_Z(ModelParams(a, a - 2.0))
    assert z == pytest.approx(find_Z(ModelParams(a, a - 2.0)).value, rel=1e-13)
    z2 = kummer_Z(ModelParams(a, 2.0))
    assert z2 == pytest.approx(find_Z(ModelParams(a, 2.0)).value, rel=1e-13)


@pytest.mark.parametrize("a", [3.0, 7.0, 40.0, 100.0])
def test_second_integral_form_matches_series_root(a):
    # psi is hyp1f1 in closed form: no quadrature, no IntegrationWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = kummer_Z(ModelParams(a, 2.0))
    assert abs(z - find_Z(ModelParams(a, 2.0)).value) <= 1e-10 * z


def _mpmath_root(alpha, n):
    # z M(n/2 + 1, alpha/2 + 1, z/2) = alpha M(n/2, alpha/2, z/2) at 60 digits,
    # divided through by the right side so that it stays of order one; the
    # secant starts at (alpha + n)/2, within one of Z, not at the root under test
    with mp.workdps(60):
        a, b = mp.mpf(alpha), mp.mpf(n)

        def ratio(z):
            m2 = mp.hyp1f1(b / 2 + 1, a / 2 + 1, z / 2)
            return z * m2 / (a * mp.hyp1f1(b / 2, a / 2, z / 2)) - 1

        return mp.findroot(ratio, (alpha + n) / 2)


@pytest.mark.parametrize("a", [2.05, 2.5, 3.0, 30.0, 150.0, 300.0, 400.0, 1000.0])
def test_first_integral_form_root_matches_mpmath(a):
    # at 300, 400 and 1000 find_Z raises TruncationError; this form still holds
    z = kummer_Z(ModelParams(a, a - 2.0))
    assert abs(z - float(_mpmath_root(a, a - 2.0))) <= 1e-12 * z


@pytest.mark.parametrize("a", [5000.0, 2e4])
def test_second_integral_form_root_at_very_large_alpha(a):
    # M(1, alpha/2, z/2) overflows well above Z here, so the bracket must start near Z
    z = kummer_Z(ModelParams(a, 2.0))
    assert abs(z - float(_mpmath_root(a, 2.0))) <= 1e-12 * z


@pytest.mark.parametrize("alpha, n", [(1400.0, 1398.0), (1.0, 300.0), (1000.0, 0.01)])
def test_kummer_Z_matches_mpmath_past_the_series(alpha, n):
    # large alpha and n, where the series table needs more than K_MAX terms
    params = ModelParams(alpha, n)
    z = kummer_Z(params)
    assert abs(z - float(_mpmath_root(alpha, n))) <= 1e-14 * z
    if (alpha, n) == (1000.0, 0.01):
        with pytest.raises(TruncationError):
            find_Z(params)


def test_second_form_value_at_very_large_alpha():
    # U*(t, q) = (1 - t) Z M(1, a/2, q / (2 (1 - t))) / M(1, a/2, Z/2) below the boundary
    a = 5000.0
    params = ModelParams(a, 2.0)
    with mp.workdps(40):
        Z = _mpmath_root(a, 2.0)
        for t, q in ((0.0, 0.0), (0.0, 1000.0), (0.5, 1000.0), (0.5, 1250.0), (0.0, 3000.0)):
            tau = 1 - mp.mpf(t)
            if q >= Z * tau:
                want = mp.mpf(q)
            else:
                want = tau * Z * mp.hyp1f1(1, a / 2, q / (2 * tau)) / mp.hyp1f1(1, a / 2, Z / 2)
            assert kummer_value(params, t, q) == pytest.approx(float(want), rel=1e-12)


def test_kummer_Z_off_the_special_families():
    # (5, 1) lies in no family that once had its own closed form
    params = ModelParams(5, 1)
    assert kummer_Z(params) == pytest.approx(find_Z(params).value, rel=1e-14)
    assert kummer_Z(params) == pytest.approx(Z_REF[(5.0, 1.0)], rel=1e-14)


def test_margin_examples():
    assert boundary_margin(ModelParams(3, 1)) == pytest.approx(C_REF**2 - 1.0, abs=1e-8)
    assert boundary_margin(ModelParams(1, 1)) == pytest.approx(1.0, abs=1e-9)
    # below the degenerate line the threshold is negative, so the gap exceeds Z
    assert boundary_margin(ModelParams(0.5, 0.5)) == pytest.approx(1.0, abs=1e-9)


def test_margin_nonnegative_on_subgrid():
    for a in (0.25, 1.0, 3.0, 10.0):
        for n in (0.25, 1.0, 3.0, 10.0):
            assert boundary_margin(ModelParams(a, n)) >= 0.0


def test_sign_change_unique_on_log_grid():
    # one sign change of the smooth-fit series over (0, inf): scan a wide
    # logarithmic grid and count transitions
    for a, n in ((3, 1), (0.5, 4.0), (8, 2)):
        params = ModelParams(a, n)
        z_root = find_Z(params).value
        table = build_coefficients(params, ymax=12.0 * z_root)
        grid = np.geomspace(1e-6, 10.0 * z_root, 4000)
        signs = np.sign(F_eval(table, grid))
        changes = np.sum(signs[:-1] != signs[1:])
        assert changes == 1


def test_find_Z_float_path_matches_array_path():
    # find_Z's solve again, with F read on one-element arrays, which take the
    # numpy path of the series Horner loop: every field agrees bit for bit,
    # so the float path moved no root
    for a in PARAMETER_GRID:
        for n in PARAMETER_GRID:
            params = ModelParams(a, n)
            table = build_coefficients(params)

            def F(z):
                nonlocal table
                if z > table.ymax:
                    table = build_coefficients(params, ymax=2.0 * z)
                return float(F_eval(table, np.array([z]))[0])

            hi = max(1.0, 0.5 * (a + n))
            via_arrays = solve_root(F, 0.0, hi, 1e-10, grow_cap=2.0**60)
            assert repr(find_Z(params)) == repr(via_arrays)


def test_find_Z_iterations_on_grid():
    for a in PARAMETER_GRID:
        for n in PARAMETER_GRID:
            assert find_Z(ModelParams(a, n)).iterations <= 20


@pytest.mark.parametrize("lo, hi", [(1.0, 3.0), (-1.0, 1.0)])
def test_solve_root_accepts_exact_zero_at_bracket_end(lo, hi):
    root = solve_root(lambda x: x - 1.0, lo, hi, 1e-12)
    assert root.value == 1.0
    assert root.residual == 0.0
    assert root.bracket == (lo, hi)
    assert root.iterations == 0  # an exact zero at an end takes no step and no polish
    assert root.method == "chandrupatla"


def test_solve_root_polish_stays_within_tol():
    # the chord polish lands inside the loop's last bracket, so even a loose
    # tol leaves the root within it, and the polish costs one evaluation
    calls = []

    def f(x):
        calls.append(x)
        return x**3 - 2.0

    tol = 1e-6
    root = solve_root(f, 0.0, 2.0, tol)
    assert abs(root.value - 2.0 ** (1.0 / 3.0)) <= tol
    assert root.method == "secant_polished"
    assert root.iterations == len(calls) - 2  # the two bracket ends are free
    assert calls[-1] == root.value


def test_solve_root_without_sign_change():
    with pytest.raises(NoRootError, match="no sign change"):
        solve_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(NoRootError, match="no sign change below"):
        solve_root(lambda x: -1.0, 0.0, 1.0, 1e-12, grow_cap=2.0**10)


def test_solve_root_rejects_nan_inside_the_bracket():
    def f(x):
        return math.nan if 0.25 < x < 0.75 else x - 0.5

    with pytest.raises(NoRootError, match="NaN evaluating at 0.5"):
        solve_root(f, 0.0, 1.0, 1e-12)
    with pytest.raises(NoRootError, match="NaN evaluating at 2.0"):
        solve_root(lambda x: -1.0 if x < 2.0 else math.nan, 0.0, 1.0, 1e-12, grow_cap=2.0**10)


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_solve_root_rejects_negative_or_nan_tol(tol):
    # a negative or NaN tol used to leave the bracket test never true, so the
    # loop ran forever; the counter turns such a hang into a failure
    calls = []

    def f(x):
        calls.append(x)
        if len(calls) > 1000:
            raise RuntimeError("solve_root did not stop")
        return x * x - 2.0

    with pytest.raises(ValueError, match="tol"):
        solve_root(f, 1.0, 4.0, tol)
    assert solve_root(lambda x: x * x - 2.0, 1.0, 4.0, 0.0).value == pytest.approx(math.sqrt(2.0))


def _brent_reference(params, tol=1e-10):
    """find_Z as Brent's method plus a Newton polish with the series' own
    F'(z) = sum k (2k - n) A_k z^{k-1}: the root and the (F, F') evaluation
    counts of that solver, which re-evaluates the bracket ends and its own
    root."""
    counts = {"F": 0, "dF": 0}
    table = build_coefficients(params)

    def F(z):
        nonlocal table
        counts["F"] += 1
        if z > table.ymax:
            table = build_coefficients(params, ymax=2.0 * z)
        return F_eval(table, z)

    lo, hi = 0.0, max(1.0, 0.5 * (params.alpha + params.n))
    flo, fhi = F(lo), F(hi)
    while flo * fhi > 0.0:
        lo, flo, hi = hi, fhi, 2.0 * hi
        fhi = F(hi)
    value = brentq(F, lo, hi, xtol=tol)
    fval = F(value)
    if fval != 0.0:
        counts["dF"] += 1
        width = tol + 8.0 * math.ulp(value)
        k = np.arange(table.K + 1, dtype=float)
        dF = _horner(table, value, tuple((k * (2.0 * k - params.n) * np.array(table.A))[1:]))
        cand = value - fval / dF
        cand = max(cand, value - width, math.nextafter(lo, hi))
        value = min(cand, value + width, math.nextafter(hi, lo))
        F(value)
    return value, counts


def _assert_within_2_ulp_of_brent(a, n):
    params = ModelParams(a, n)
    want, _ = _brent_reference(params)
    assert abs(find_Z(params).value - want) <= 2.0 * math.ulp(want), (a, n)


def test_find_Z_matches_brent_on_grid():
    for a in PARAMETER_GRID:
        for n in PARAMETER_GRID:
            _assert_within_2_ulp_of_brent(a, n)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=100, deadline=None)
@given(alpha=_log_uniform(0.05, 60.0), n=_log_uniform(0.05, 60.0))
def test_find_Z_matches_brent_log_uniform(alpha, n):
    _assert_within_2_ulp_of_brent(alpha, n)


@pytest.mark.parametrize("alpha, n", [(1.0, 405.0), (10.0, 390.0), (0.1, 350.0), (10.2446, 392.605)])
def test_find_Z_refuses_a_table_whose_tail_sum_overflows(alpha, n):
    # the tail test used to accept any finite term once its running sum was
    # inf, so the table was cut unconverged: Z read 314.5 at (1, 405), 55% off
    with pytest.raises(TruncationError, match="overflows"):
        find_Z(ModelParams(alpha, n))


@settings(max_examples=100, deadline=None)
@given(alpha=_log_uniform(0.05, 200.0), n=st.floats(100.0, 520.0))
def test_find_Z_at_large_n_is_right_or_refused(alpha, n):
    # 1e-8 covers the drift of the underflowed coefficients: 4.1e-9 at worst,
    # at (31.1, 249.1), over 20,000 pairs from this distribution
    params = ModelParams(alpha, n)
    try:
        want = kummer_Z(params)
    except NoRootError:  # M past float range: no reference for this pair
        return
    try:
        got = find_Z(params).value
    except TruncationError:
        return
    assert abs(got / want - 1.0) <= 1e-8


def test_find_Z_evaluates_F_no_more_often_than_brent(monkeypatch):
    counts = {"F": 0}
    F = boundary.F_eval

    def counting_F(*args):
        counts["F"] += 1
        return F(*args)

    monkeypatch.setattr(boundary, "F_eval", counting_F)
    brent = {"F": 0, "dF": 0}
    for a in PARAMETER_GRID:
        for n in PARAMETER_GRID:
            params = ModelParams(a, n)
            for key, count in _brent_reference(params)[1].items():
                brent[key] += count
            boundary._solve_Z.cache_clear()
            find_Z(params)
    boundary._solve_Z.cache_clear()
    # Brent's solver reads 1057 F and 74 F' on these 81 pairs; find_Z's chord
    # polish reads no F' at all
    assert counts["F"] <= brent["F"], (counts, brent)


def test_Z_from_ode_root_matches_brent(monkeypatch):
    # the Hermite cubic's root on the criterion 5 pairs, against Brent's
    # method on the same cubic
    grid = (0.5, 1.0, 2.0, 3.0, 5.0)
    got = {(a, n): Z_from_ode(ModelParams(a, n))[0] for a in grid for n in grid}

    def brent(f, lo, hi, tol, grow_cap=None):
        return RootResult(brentq(f, lo, hi, xtol=tol), 0.0, 0, (lo, hi), "brentq")

    monkeypatch.setattr(oracles, "solve_root", brent)
    for (a, n), z in got.items():
        assert abs(z - Z_from_ode(ModelParams(a, n))[0]) <= 1e-13, (a, n)


def test_solve_root_grows_bracket():
    root = solve_root(lambda x: x - 100.0, 0.0, 1.0, 1e-12, grow_cap=2.0**10)
    assert root.value == pytest.approx(100.0, rel=1e-15)
    assert root.bracket == (64.0, 128.0)


@pytest.mark.parametrize(
    "call",
    [lambda: kummer_Z(ModelParams(3, 1000))],
    ids=["kummer_a3_n1000"],
)
def test_special_family_breakdown_is_typed(call):
    with pytest.raises(NoRootError, match="evaluating at"):
        call()


@pytest.mark.parametrize("a", [120.0, 400.0])
def test_second_form_value_holds_at_large_alpha(a):
    # n = 2 at large alpha, down to q = 1e-8, where quadrature once broke down
    params = ModelParams(a, 2.0)
    sol = build_candidate(params)
    for t, q in ((0.0, 0.0), (0.0, 1e-8), (0.5, 10.0)):
        want = U_star(sol, t, q)
        assert kummer_value(params, t, q) == pytest.approx(want, rel=1e-12)
