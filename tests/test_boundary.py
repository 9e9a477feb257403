import math

import numpy as np
import pytest
from scipy.integrate import quad

from besselstop.boundary import (
    NoRootError,
    exp_t2_integral,
    boundary_margin,
    closed_form_Z,
    excursion_h,
    find_C_excursion,
    find_Z,
    solve_root,
)
from besselstop.series import F_eval, ModelParams, build_coefficients
from besselstop.value import _second_form_boundary, explicit_special_values
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
    with pytest.raises(ValueError):
        find_C_excursion(0.0)


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
        assert F_eval(params, lo, table) < 0.0 < F_eval(params, hi, table)
        assert abs(root.residual) <= 1e-8
        assert root.iterations > 0


def test_root_is_tolerance_stable():
    params = ModelParams(2.7, 1.3)
    for tol in (1e-6, 1e-8, 1e-10):
        coarse = find_Z(params, tol=tol).value
        fine = find_Z(params, tol=tol / 2.0).value
        assert abs(coarse - fine) <= tol


def test_find_Z_tol_validation():
    with pytest.raises(ValueError):
        find_Z(ModelParams(3, 1), tol=-1.0)


def test_closed_form_equal_parameters():
    assert closed_form_Z(ModelParams(2, 2)) == 2.0
    assert closed_form_Z(ModelParams(0.5, 0.5)) == 0.5


@pytest.mark.parametrize("a", [2.5, 3.0, 4.0, 5.0, 7.0, 12.0])
def test_closed_form_integral_family(a):
    z = closed_form_Z(ModelParams(a, a - 2.0))
    assert z == pytest.approx(find_Z(ModelParams(a, a - 2.0)).value, rel=1e-9)
    assert _second_form_boundary(a) == pytest.approx(find_Z(ModelParams(a, 2.0)).value, rel=1e-9)


@pytest.mark.parametrize("a", [80.0, 150.0])
def test_closed_form_integral_family_large_alpha(a):
    # the first form stays finite here; the second form breaks down (see below)
    z = closed_form_Z(ModelParams(a, a - 2.0))
    assert z == pytest.approx(find_Z(ModelParams(a, a - 2.0)).value, rel=1e-9)


def test_closed_form_absent():
    assert closed_form_Z(ModelParams(5, 1)) is None


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
        signs = np.sign(F_eval(params, grid, table))
        changes = np.sum(signs[:-1] != signs[1:])
        assert changes == 1


def test_find_Z_iterations_on_grid():
    for a in PARAMETER_GRID:
        for n in PARAMETER_GRID:
            assert find_Z(ModelParams(a, n)).iterations <= 20


@pytest.mark.parametrize("lo, hi", [(1.0, 3.0), (-1.0, 1.0)])
def test_solve_root_accepts_exact_zero_at_bracket_end(lo, hi):
    root = solve_root(lambda x: x - 1.0, lo, hi, 1e-12, fprime=lambda x: 1.0)
    assert root.value == 1.0
    assert root.residual == 0.0
    assert root.bracket == (lo, hi)


def test_solve_root_polish_stays_within_tol():
    # a wrong derivative must not carry the polished root away from Brent's
    tol = 1e-6
    root = solve_root(lambda x: x**3 - 2.0, 0.0, 2.0, tol, fprime=lambda x: 1e-20)
    assert abs(root.value - 2.0 ** (1.0 / 3.0)) <= 2.0 * tol


def test_solve_root_without_sign_change():
    with pytest.raises(NoRootError, match="no sign change"):
        solve_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(NoRootError, match="no sign change below"):
        solve_root(lambda x: -1.0, 0.0, 1.0, 1e-12, grow_cap=2.0**10)


def test_solve_root_grows_bracket():
    root = solve_root(lambda x: x - 100.0, 0.0, 1.0, 1e-12, grow_cap=2.0**10)
    assert root.value == pytest.approx(100.0, rel=1e-15)
    assert root.bracket == (64.0, 128.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: explicit_special_values(ModelParams(120, 2), 0.0, 0.0),
        lambda: explicit_special_values(ModelParams(400, 2), 0.0, 0.0),
        lambda: closed_form_Z(ModelParams(400, 398)),
    ],
    ids=["second_form_a120", "second_form_a400", "integral_form_a400"],
)
def test_special_family_breakdown_is_typed(call):
    with pytest.raises(NoRootError, match="evaluating at"):
        call()
