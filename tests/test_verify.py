import math
from fractions import Fraction

import pytest
from scipy.special import gammaln

from besselstop.series import F_eval, ModelParams, build_coefficients
from besselstop.verify import (
    DELTA_FORM,
    GAMMA_FORM,
    H_value,
    LambdaParams,
    VerificationReport,
    CheckResult,
    candidate_shape_checks,
    check_delta_bounds,
    check_dominance,
    check_gamma_bounds,
    delta_polynomials,
    gamma_from_params,
    iterate_DB,
    iterate_delta_exact,
    lambda_eval,
    lambda_iterate_invariance,
    run_iteration_checks,
)

B_REF = 0.9711974210930677
LAMBDA_REF_N1_GHALF = -1.480786477357  # two independent evaluations agree here


def test_lambda_zero_coefficients():
    p = LambdaParams(D=0.0, B=0.0, Delta=0.0, n=1.0, gamma=-0.5)
    assert lambda_eval(p) == 0.0


def test_lambda_sign_and_frozen_value():
    val = lambda_eval(LambdaParams(D=1.0, B=-1.0, Delta=0.0, n=1.0, gamma=-0.5))
    assert val < 0.0
    assert val == pytest.approx(LAMBDA_REF_N1_GHALF, rel=1e-10)


def test_lambda_matches_scaled_series():
    for a, n in ((2.0, 1.0), (7.0, 2.0), (6.6, 4.0), (1.2, 3.0)):
        params = ModelParams(a, n)
        g = gamma_from_params(params)
        table = build_coefficients(params)
        scaled = math.exp(gammaln(0.5 * n) - gammaln(0.5 * n + 1.0 + g)) * F_eval(
            params, n + g, table
        )
        assert H_value(params) == pytest.approx(scaled, rel=1e-9)


def test_lambda_validation():
    with pytest.raises(ValueError):
        LambdaParams(D=1.0, B=-1.0, Delta=0.0, n=1.0, gamma=-1.5)  # n + gamma < 0
    with pytest.raises(ValueError):
        LambdaParams(D=1.0, B=-1.0, Delta=-1.0, n=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        lambda_eval(LambdaParams(D=1.0, B=-1.0, Delta=0.0, n=2.0, gamma=18.0, K=12))


def test_invariance_across_regimes():
    cases = [(1.0, -0.5, 10), (2.0, 1.5, 15), (7.0, -4.0, 12)]
    for n, g, steps in cases:
        rep = lambda_iterate_invariance(
            LambdaParams(D=1.0, B=-1.0, Delta=0.0, n=n, gamma=g), steps=steps
        )
        assert rep.all_passed, rep.failures()
        assert rep.n_total == steps


def test_invariance_zero_steps_trivial():
    rep = lambda_iterate_invariance(
        LambdaParams(D=1.0, B=-1.0, Delta=0.0, n=1.0, gamma=0.5), steps=0
    )
    assert rep.n_total == 0 and rep.all_passed


def test_iteration_first_steps_gamma_form():
    n, g = 1.7, 0.9
    states = iterate_DB(GAMMA_FORM, (n, g), 2)
    assert (states[0].D_r, states[0].B_r) == (1.0, -1.0)
    assert states[1].D_r == pytest.approx(g, rel=1e-15)
    assert states[1].B_r == pytest.approx(-(2.0 + g), rel=1e-15)
    assert states[2].D_r == pytest.approx(g * g - 2.0 * n, rel=1e-14)
    assert states[2].B_r == pytest.approx(-(g * g + 8.0 * g + 2.0 * n + 8.0), rel=1e-14)


def test_iteration_first_steps_delta_form():
    d = 2.3
    states = iterate_DB(DELTA_FORM, (0.0, d), 1)
    assert states[1].D_r == pytest.approx(-(d + 2.0), rel=1e-15)
    assert states[1].B_r == pytest.approx(d, rel=1e-15)


def test_iteration_validation():
    with pytest.raises(ValueError):
        iterate_DB("weird", (1.0, 1.0), 5)
    with pytest.raises(ValueError):
        iterate_DB(GAMMA_FORM, (1.0, 1.0), -1)


def test_polynomial_rows_low_order():
    d = 1.75
    assert delta_polynomials(d, 2) == (d * d, -(d * d))
    D3, B3 = delta_polynomials(d, 3)
    assert D3 == pytest.approx(-(d**3) - 2 * d * d, rel=1e-15)
    assert B3 == pytest.approx(d**3 - 4 * d * d, rel=1e-15)
    with pytest.raises(ValueError):
        delta_polynomials(d, 8)
    with pytest.raises(ValueError):
        delta_polynomials(d, 1)


def test_polynomial_rows_match_exact_iteration():
    for dval in (Fraction(1), Fraction(3), Fraction(1, 10), Fraction(7, 3), Fraction(11, 7)):
        exact = iterate_delta_exact(dval, 7)
        for j in range(2, 8):
            assert delta_polynomials(dval, j) == exact[j]


def test_exact_iteration_agrees_with_float_iteration():
    float_states = iterate_DB(DELTA_FORM, (0.0, 0.5), 7)
    exact = iterate_delta_exact(Fraction(1, 2), 7)
    for st, (D, B) in zip(float_states, exact):
        assert st.D_r == pytest.approx(float(D), rel=1e-12)
        assert st.B_r == pytest.approx(float(B), rel=1e-12)


def test_growth_bounds_and_termination():
    rep = check_gamma_bounds(1.0, 2.0, 40)
    assert rep.all_passed, rep.failures()
    states = iterate_DB(GAMMA_FORM, (1.0, 2.0), 4)
    assert any(s.D_r < 0.0 for s in states[: 4]), "D should turn negative by r = 3"
    rep2 = check_gamma_bounds(0.5, 5.0, 60)
    assert rep2.all_passed
    with pytest.raises(ValueError):
        check_gamma_bounds(1.0, -1.0, 10)


def test_parity_bounds():
    rep = check_delta_bounds(1.0, 30)
    assert rep.all_passed, rep.failures()
    rep3 = check_delta_bounds(3.0, 40)
    assert rep3.all_passed
    # even-index bound at small delta
    rep_small = check_delta_bounds(0.1, 12)
    assert rep_small.all_passed
    with pytest.raises(ValueError):
        check_delta_bounds(1.0, 5)


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
def test_delta_bounds_reject_nonpositive_or_nan_delta(delta):
    with pytest.raises(ValueError, match="delta"):
        check_delta_bounds(delta, 20)


def test_dominance_bounds():
    assert check_dominance(2.0, 1.0, 30).all_passed
    assert check_dominance(0.5, 4.0, 50).all_passed
    states_a = iterate_DB(DELTA_FORM, (2.0, 1.0), 0)
    states_0 = iterate_DB(DELTA_FORM, (0.0, 1.0), 0)
    assert states_a[0].D_r == states_0[0].D_r == 1.0
    assert states_a[0].B_r == states_0[0].B_r == -1.0


def test_H_negative_when_threshold_positive():
    for a in (0.5, 1.0, 3.0, 7.0):
        for n in (0.5, 2.0, 6.0):
            if a + n <= 2.0:
                continue
            assert H_value(ModelParams(a, n)) < 0.0


def test_excursion_shape_report():
    rep = candidate_shape_checks(None)
    assert rep.all_passed, rep.failures()
    names = {c.name for c in rep.checks}
    assert "profile_convex" in names
    assert "profile_dominates_payoff" in names


def test_general_shape_report():
    rep = candidate_shape_checks(ModelParams(3, 1))
    assert rep.all_passed, rep.failures()
    rep2 = candidate_shape_checks(ModelParams(0.5, 4.0), grid_points=2000)
    assert rep2.all_passed


def test_report_merge_and_serialization():
    a = VerificationReport((CheckResult("b_check", True, 0.0, 1e-8),))
    b = VerificationReport((CheckResult("a_check", False, 1.0, 0.0),))
    merged = a.merge(b)
    assert [c.name for c in merged.checks] == ["a_check", "b_check"]
    assert merged.summary == "1/2"
    assert not merged.all_passed
    d = merged.to_dict()
    assert d["summary"] == "1/2"
    assert len(d["checks"]) == 2


def test_iteration_suite_fast_configuration():
    rep = run_iteration_checks(steps=6, r_max=20, grid=(0.5, 2.0, 5.0))
    assert rep.all_passed, rep.failures()


@pytest.mark.parametrize("steps", [0, -1])
def test_iteration_suite_rejects_empty_invariance_run(steps):
    # zero steps leave no invariance checks, and their worst margin has no maximum
    with pytest.raises(ValueError, match="steps must be at least 1"):
        run_iteration_checks(steps=steps, r_max=20, grid=(0.5,))
