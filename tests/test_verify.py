import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

from besselstop import cli
from besselstop.series import F_eval, ModelParams, build_coefficients
from besselstop.value import build_candidate
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
    lambda_eval,
    lambda_iterate_invariance,
    run_iteration_checks,
    run_shape_checks,
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
            table, n + g
        )
        assert H_value(params) == pytest.approx(scaled, rel=1e-9)


def _lambda_inline(p):
    # lambda_eval's formula, every term built afresh
    n, g, Delta = p.n, p.gamma, p.Delta
    k = np.arange(p.K + 1, dtype=float)
    logpref = (
        k * math.log(n + g)
        - k * math.log(2.0)
        - gammaln(k + 1.0)
        + gammaln(k + 0.5 * n)
        - gammaln(k + 0.5 * n + Delta + 1.0 + g)
    )
    bracket = p.D * k / 2.0 ** (Delta - 1.0) + p.B * n / 2.0**Delta
    return float(np.sum(np.exp(logpref) * bracket))


def test_lambda_eval_is_the_inline_formula_bit_for_bit():
    # the terms that depend on K alone are built once per K and reused; each
    # K is asked twice, the second time from those cached terms
    for K in (10, 400, 10, 400):
        for n, g in ((0.5, -0.4), (1.5, -1.3)):
            for D, B, Delta in ((1.0, -1.0, 0.0), (0.3, 0.7, 2.0)):
                p = LambdaParams(D=D, B=B, Delta=Delta, n=n, gamma=g, K=K)
                assert lambda_eval(p) == _lambda_inline(p)


def test_lambda_validation():
    with pytest.raises(ValueError):
        LambdaParams(D=1.0, B=-1.0, Delta=0.0, n=1.0, gamma=-1.5)  # n + gamma < 0
    with pytest.raises(ValueError):
        LambdaParams(D=1.0, B=-1.0, Delta=-1.0, n=1.0, gamma=0.0)
    with pytest.raises(ValueError, match="n must be positive"):
        LambdaParams(D=1.0, B=-1.0, Delta=0.0, n=math.nan, gamma=0.0)
    # a NaN or infinite coefficient used to evaluate to nan
    for D, B in ((math.nan, -1.0), (1.0, math.inf), (-math.inf, -1.0)):
        with pytest.raises(ValueError, match="and finite"):
            LambdaParams(D=D, B=B, Delta=0.0, n=1.0, gamma=0.0)
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
    # zero steps used to skip the check and return the start state
    with pytest.raises(ValueError, match="unknown parameterization"):
        iterate_DB("bogus", (1.0, 2.0), 0)
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
        exact = iterate_DB(DELTA_FORM, (0, dval), 7)
        for j in range(2, 8):
            assert type(exact[j].D_r) is Fraction and type(exact[j].B_r) is Fraction
            assert delta_polynomials(dval, j) == (exact[j].D_r, exact[j].B_r)


def test_exact_iteration_agrees_with_float_iteration():
    float_states = iterate_DB(DELTA_FORM, (0.0, 0.5), 7)
    exact = iterate_DB(DELTA_FORM, (0, Fraction(1, 2)), 7)
    for st, ex in zip(float_states, exact):
        assert st.D_r == pytest.approx(float(ex.D_r), rel=1e-12)
        assert st.B_r == pytest.approx(float(ex.B_r), rel=1e-12)


def _float_iteration(parameterization, x, y, r_max):
    # the float recurrences as written out before iterate_DB kept its inputs'
    # number type: the reference for its float arithmetic
    D, B = 1.0, -1.0
    out = [(D, B)]
    for r in range(r_max):
        if parameterization == GAMMA_FORM:
            D, B = (x + y) * D + x * B, (x + y) * D + (x + 2.0 * r + 2.0 + 2.0 * y) * B
        else:
            D, B = (x + y) * D + (x + 2.0 + 2.0 * y) * B, (x + y) * D + (2.0 * r + x) * B
        out.append((D, B))
    return out


@pytest.mark.parametrize(
    "form, x, y",
    [(GAMMA_FORM, 1.0, 2.0), (GAMMA_FORM, 0.5, 5.0), (GAMMA_FORM, 1.7, 0.9),
     (GAMMA_FORM, 3.0, 8.0), (DELTA_FORM, 0.0, 0.1), (DELTA_FORM, 0.0, 2.3),
     (DELTA_FORM, 2.0, 1.0), (DELTA_FORM, 0.5, 4.0), (DELTA_FORM, 3.0, 10.0)],
)
def test_float_iteration_bit_identical_to_written_out_recurrence(form, x, y):
    states = iterate_DB(form, (x, y), 60)
    assert [(s.D_r, s.B_r) for s in states] == _float_iteration(form, x, y, 60)
    assert all(type(s.D_r) is float and type(s.B_r) is float for s in states)


def test_growth_bounds_and_termination():
    rep = check_gamma_bounds(1.0, 2.0, 40)
    assert rep.all_passed, rep.failures()
    states = iterate_DB(GAMMA_FORM, (1.0, 2.0), 4)
    assert any(s.D_r < 0.0 for s in states[: 4]), "D should turn negative by r = 3"
    rep2 = check_gamma_bounds(0.5, 5.0, 60)
    assert rep2.all_passed
    with pytest.raises(ValueError):
        check_gamma_bounds(1.0, -1.0, 10)


@pytest.mark.parametrize("n", [0.0, -1.0, math.nan, math.inf])
def test_gamma_bounds_reject_nonpositive_or_nonfinite_n(n):
    # n = 0 used to divide by zero, n = -1 to return a report, n = nan to
    # fail converting the float to an integer
    with pytest.raises(ValueError, match="n must be positive and finite"):
        check_gamma_bounds(n, 2.0, 10)


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
    with pytest.raises(ValueError, match="alpha"):
        check_dominance(math.nan, 1.0, 10)
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


def test_report_serialization():
    report = VerificationReport(
        (CheckResult("a_check", False, 1.0, 0.0), CheckResult("b_check", True, 0.0, 1e-8))
    )
    assert report.summary == "1/2"
    assert not report.all_passed
    d = report.to_dict()
    assert d["summary"] == "1/2"
    assert len(d["checks"]) == 2


def test_iteration_suite_fast_configuration():
    rep = run_iteration_checks(steps=6, r_max=20, grid=(0.5, 2.0, 5.0))
    assert rep.all_passed, rep.failures()


@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("steps", lambda: run_iteration_checks(steps=2.5, r_max=20, grid=(0.5,)),
                     id="run_iteration_checks-steps"),
        pytest.param("r_max", lambda: run_iteration_checks(steps=2, r_max=20.5, grid=(0.5,)),
                     id="run_iteration_checks-r_max"),
        pytest.param("r_max", lambda: iterate_DB(GAMMA_FORM, (1.0, 2.0), 8.0), id="iterate_DB"),
        pytest.param("r_max", lambda: check_gamma_bounds(1.0, 2.0, 8.5), id="check_gamma_bounds"),
        pytest.param("r_max", lambda: check_delta_bounds(1.0, 9.5), id="check_delta_bounds"),
        pytest.param("r_max", lambda: check_dominance(2.0, 1.0, 9.5), id="check_dominance"),
        pytest.param("K", lambda: LambdaParams(D=1.0, B=-1.0, Delta=0.0, n=1.0, gamma=0.5, K=400.5),
                     id="LambdaParams-K"),
        pytest.param("grid_points", lambda: candidate_shape_checks(ModelParams(3, 1), grid_points=2.5),
                     id="candidate_shape_checks-general"),
        pytest.param("grid_points", lambda: candidate_shape_checks(None, grid_points=True),
                     id="candidate_shape_checks-excursion"),
        pytest.param("t_points", lambda: cli.emit_boundary_curve(build_candidate(ModelParams(3, 1)), 2.5),
                     id="emit_boundary_curve"),
        pytest.param("t_points", lambda: cli.run(cli.RunConfig("boundary", out_format="csv", t_points=2.5)),
                     id="cli-boundary-csv"),
    ],
)
def test_counts_must_be_integers(name, call):
    # a float count used to run silently truncated or fail deep inside with a
    # bare TypeError
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call()


def test_iteration_battery_refuses_iterates_past_float_range():
    # B_r grows like 2^r r!: at (n, gamma) = (3, 8), B_145 is -inf in floats,
    # its slack NaN, which min() would drop from a battery's margin; from
    # r = 320 on, gamma**r itself overflows
    assert run_iteration_checks(steps=2, r_max=144, grid=(0.5,)).all_passed
    for r_max in (145, 146, 320):
        # the first battery refused: (3, 8) at r = 145, or (1, 2) at r = 149
        with pytest.raises(ValueError, match=rf"r_max={r_max}\): the iterate or bound at r=14[59] leaves"):
            run_iteration_checks(steps=2, r_max=r_max, grid=(0.5,))
    with pytest.raises(ValueError, match=r"r_max=145: the iterate or bound at r=145 "):
        iterate_DB(GAMMA_FORM, (3.0, 8.0), 145)
    assert len(iterate_DB(GAMMA_FORM, (3.0, 8.0), 144)) == 145
    # exact numbers never leave range
    assert iterate_DB(GAMMA_FORM, (Fraction(3), Fraction(8)), 160)[-1].B_r < 0
    with pytest.raises(ValueError, match=r"check_dominance\(alpha=3.0, delta=10.0, r_max=148\)"):
        check_dominance(3.0, 10.0, 148)
    assert check_dominance(3.0, 10.0, 147).all_passed


def test_delta_bounds_refuse_a_termination_index_past_float_range():
    # r* = 151 at delta 300: both iterates there are -inf, and -inf < 0
    # would pass the termination check with margin inf
    with pytest.raises(ValueError, match=r"check_delta_bounds\(delta=300, r_max=8\): .* at r=111 "):
        check_delta_bounds(300, 8)
    # r* = 1,000,001 at delta 2e6: the refusal comes at r = 48, so the
    # request costs 48 steps, not a million
    start = time.perf_counter()
    with pytest.raises(ValueError, match="delta=2000000.0"):
        check_delta_bounds(2e6, 7)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "call",
    [
        # integer arguments iterate in floats too, not in exact ints that
        # overflow only when a bound converts them
        pytest.param(lambda: check_gamma_bounds(3, 8, 400), id="int-gamma"),
        pytest.param(lambda: check_gamma_bounds(1, 100, 5), id="int-termination"),
        pytest.param(lambda: check_dominance(3, 10, 400), id="int-dominance"),
        # g^2/(2n) itself overflows
        pytest.param(lambda: check_gamma_bounds(1.0, 1e200, 5), id="huge-gamma"),
        pytest.param(lambda: check_delta_bounds(1e308, 7), id="huge-delta"),
    ],
)
def test_bound_checks_refuse_instead_of_overflowing(call):
    with pytest.raises(ValueError, match="leaves float range"):
        call()


@pytest.mark.parametrize("delta", [0.1, 13.0, 14.0, 15.0, 15.5, 16.0, 17.99, 100.0, 101.0, 229.0])
def test_delta_bounds_termination_index_is_the_first_odd_r_past_delta_over_two(delta):
    r_star = 7
    while not (r_star % 2 == 1 and 2 * r_star > delta):
        r_star += 1
    assert check_delta_bounds(delta, 7).checks[-1].name == f"termination_both_negative_r{r_star:02d}"


def test_batteries_list_their_checks_sorted_by_name():
    for rep in (
        run_iteration_checks(steps=2, r_max=10, grid=(0.5, 3.0)),
        run_shape_checks((ModelParams(2, 2),)),
        run_shape_checks(()),
    ):
        names = [c.name for c in rep.checks]
        assert names == sorted(names)


@pytest.mark.parametrize("steps", [0, -1])
def test_iteration_suite_rejects_empty_invariance_run(steps):
    # zero steps leave no invariance checks, and their worst margin has no maximum
    with pytest.raises(ValueError, match="steps must be at least 1"):
        run_iteration_checks(steps=steps, r_max=20, grid=(0.5,))
