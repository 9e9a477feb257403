"""Numerical verification of the inequality machinery behind the boundary bound.

The bound Z >= (alpha + n - 2)/2 reduces to showing that a weighted series

    Lam(D, B, Delta) = sum_k (n+g)^k / (2^k k!)
                       * G(k + n/2) / G(k + n/2 + Delta + 1 + g)
                       * [ D k / 2^{Delta-1} + B n / 2^{Delta} ]

is negative at (D, B, Delta) = (1, -1, 0), where g parameterizes the
dimension through alpha = n + 2 + 2g.  The series is invariant under the
index-shift map

    D -> (n+g) D + n B,    B -> (n+g) D + (n + 2 Delta + 2 + 2g) B,
    Delta -> Delta + 1,

and iterating the map eventually makes both coefficients negative, which
settles the sign.  This module evaluates the series, checks the invariance,
runs both coefficient iterations (the (n, g) form and the reparameterized
(alpha, d) form with alpha = 0 as the extremal case), and verifies the
monotone bounds that drive the induction, all numerically.

Checks are returned as :class:`VerificationReport` objects so the command
line can serialize them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .series import ModelParams

GAMMA_FORM = "gamma_form"
DELTA_FORM = "delta_form"


@dataclass(frozen=True)
class LambdaParams:
    """Arguments of the weighted series Lam; K is the truncation order.

    Requires n > 0, n + gamma > 0, Delta >= 0, and a positive gamma-function
    argument n/2 + 1 + gamma + Delta (equivalently alpha/2 + Delta > 0); the
    reparameterized regime drives gamma below -2, so no lower bound on gamma
    itself is imposed.
    """

    D: float
    B: float
    Delta: float
    n: float
    gamma: float
    K: int = 400

    def __post_init__(self):
        if self.n <= 0.0:
            raise ValueError("n must be positive")
        if self.n + self.gamma <= 0.0:
            raise ValueError("n + gamma must be positive")
        if self.Delta < 0.0:
            raise ValueError("Delta must be nonnegative")
        if 0.5 * self.n + 1.0 + self.gamma + self.Delta <= 0.0:
            raise ValueError("gamma-function argument must stay positive")
        if self.K < 10:
            raise ValueError("K too small")


@dataclass(frozen=True)
class IterState:
    r: int
    D_r: float
    B_r: float
    parameterization: str
    params: tuple[float, float]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "margin", float(self.margin))
        object.__setattr__(self, "tolerance", float(self.tolerance))


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def n_total(self) -> int:
        return len(self.checks)

    @property
    def n_passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def all_passed(self) -> bool:
        return self.n_passed == self.n_total

    @property
    def summary(self) -> str:
        return f"{self.n_passed}/{self.n_total}"

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        merged = sorted(self.checks + other.checks, key=lambda c: c.name)
        return VerificationReport(tuple(merged))

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "summary": self.summary,
            "all_passed": self.all_passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "margin": c.margin,
                    "tolerance": c.tolerance,
                }
                for c in self.checks
            ],
        }


def lambda_eval(p: LambdaParams) -> float:
    """Evaluate the weighted series at (D, B, Delta).

    Gamma ratios run in log space; the bracket is linear in (D, B) and may
    change sign term by term, so it multiplies the positive prefactor
    directly.  Fails loudly if the truncation tail is not negligible.
    """
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
    terms = np.exp(logpref) * bracket
    total_abs = float(np.sum(np.abs(terms)))
    if total_abs > 0.0 and abs(terms[-1]) > 1e-14 * total_abs:
        raise ValueError(f"K={p.K} too small: tail term not negligible")
    return float(np.sum(terms))


def tilde_map(D: float, B: float, Delta: float, n: float, gamma: float):
    """One index-shift step: the pair the series is invariant under."""
    return (
        (n + gamma) * D + n * B,
        (n + gamma) * D + (n + 2.0 * Delta + 2.0 + 2.0 * gamma) * B,
        Delta + 1.0,
    )


def lambda_iterate_invariance(
    p: LambdaParams, steps: int, rel_tol: float = 1e-8
) -> VerificationReport:
    """Check that the series value is unchanged by repeated index shifts.

    The coefficients grow roughly factorially, so each stage is rescaled by
    its max magnitude (the series is linear in (D, B), so rescaling is exact)
    and the comparison runs on log magnitudes plus signs.
    """
    base = lambda_eval(p)
    checks = []
    D, B, Delta = p.D, p.B, p.Delta
    log_scale = 0.0
    for r in range(1, steps + 1):
        D, B, Delta = tilde_map(D, B, Delta, p.n, p.gamma)
        m = max(abs(D), abs(B))
        if m > 0.0:
            D, B = D / m, B / m
            log_scale += math.log(m)
        stage = lambda_eval(
            LambdaParams(D=D, B=B, Delta=Delta, n=p.n, gamma=p.gamma, K=p.K)
        )
        if base == 0.0 and stage == 0.0:
            margin = 0.0
        elif base == 0.0 or stage == 0.0 or (stage > 0.0) != (base > 0.0):
            margin = float("inf")
        else:
            margin = abs(
                math.exp(math.log(abs(stage)) + log_scale - math.log(abs(base))) - 1.0
            )
        checks.append(
            CheckResult(
                name=f"shift_invariance_stage_{r:02d}",
                passed=margin <= rel_tol,
                margin=margin,
                tolerance=rel_tol,
            )
        )
    return VerificationReport(tuple(checks))


def iterate_DB(
    parameterization: str, params: tuple[float, float], r_max: int
) -> list[IterState]:
    """Run the coefficient iteration from (D_0, B_0) = (1, -1).

    ``gamma_form`` takes (n, gamma):
        D' = (n+g) D + n B,  B' = (n+g) D + (n + 2r + 2 + 2g) B.
    ``delta_form`` takes (alpha, delta):
        D' = (a+d) D + (a + 2 + 2d) B,  B' = (a+d) D + (2r + a) B.
    """
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    x, y = float(params[0]), float(params[1])
    D, B = 1.0, -1.0
    out = [IterState(0, D, B, parameterization, (x, y))]
    for r in range(r_max):
        if parameterization == GAMMA_FORM:
            n, g = x, y
            D, B = (n + g) * D + n * B, (n + g) * D + (n + 2.0 * r + 2.0 + 2.0 * g) * B
        elif parameterization == DELTA_FORM:
            a, d = x, y
            D, B = (a + d) * D + (a + 2.0 + 2.0 * d) * B, (a + d) * D + (2.0 * r + a) * B
        else:
            raise ValueError(f"unknown parameterization {parameterization!r}")
        out.append(IterState(r + 1, D, B, parameterization, (x, y)))
    return out


# Closed-form polynomials (in the delta variable) of the alpha = 0 iteration,
# index j = 2..7; coefficient lists are ascending powers.
_D_POLY = {
    2: (0, 0, 1),
    3: (0, 0, -2, -1),
    4: (0, 0, -8, -8, 1),
    5: (0, 0, -48, -48, -2, -1),
    6: (0, 0, -384, -384, -32, -32, 1),
    7: (0, 0, -3840, -3840, -416, -432, -18, -1),
}
_B_POLY = {
    2: (0, 0, -1),
    3: (0, 0, -4, 1),
    4: (0, 0, -24, 4, -1),
    5: (0, 0, -192, 24, -16, 1),
    6: (0, 0, -1920, 192, -208, 8, -1),
    7: (0, 0, -23040, 1920, -2880, 64, -44, 1),
}


def delta_polynomials(delta, j: int):
    """Closed-form (D, B) of the alpha = 0 iteration at index j in 2..7.

    Works with floats or exact rationals; the polynomials have integer
    coefficients, so evaluating at a Fraction reproduces the iteration
    exactly.
    """
    if j not in _D_POLY:
        raise ValueError(f"j must be in 2..7, got {j}")
    dval = sum(c * delta**i for i, c in enumerate(_D_POLY[j]) if c)
    bval = sum(c * delta**i for i, c in enumerate(_B_POLY[j]) if c)
    return dval, bval


def iterate_delta_exact(delta, r_max: int) -> list[tuple]:
    """Reparameterized iteration at dimension zero in exact arithmetic.

    Feed a Fraction to compare against :func:`delta_polynomials` with no
    rounding at all; the recurrence has integer structure so the identity is
    exact, not approximate.
    """
    D, B = type(delta)(1), type(delta)(-1)
    out = [(D, B)]
    for r in range(r_max):
        D, B = delta * D + (2 + 2 * delta) * B, delta * D + 2 * r * B
        out.append((D, B))
    return out


def _slack_leq(value: float, bound: float) -> float:
    # Signed slack of 'value <= bound' normalized by scale; positive = holds.
    scale = max(1.0, abs(value), abs(bound))
    return (bound - value) / scale


def check_gamma_bounds(n: float, gamma: float, r_max: int) -> VerificationReport:
    """Bounds D_r <= g^r and B_r <= -g^r (1 + 2r/g) for the (n, g) iteration.

    Requires gamma > 0 (the regime where the iteration needs them).  Also
    checks the termination device: one step past any r0 > g^2/(2n) the D
    coefficient is strictly negative.
    """
    if gamma <= 0.0:
        raise ValueError("bounds regime needs gamma > 0")
    r0 = int(math.floor(gamma * gamma / (2.0 * n))) + 1
    states = iterate_DB(GAMMA_FORM, (n, gamma), max(r_max, r0 + 1))
    checks = []
    tol = -1e-12
    for st in states[: r_max + 1]:
        g_r = gamma**st.r
        m1 = _slack_leq(st.D_r, g_r)
        m2 = _slack_leq(st.B_r, -g_r * (1.0 + 2.0 * st.r / gamma))
        checks.append(
            CheckResult(f"growth_bound_r{st.r:02d}", min(m1, m2) >= tol, min(m1, m2), tol)
        )
    term = states[r0 + 1].D_r
    checks.append(
        CheckResult("termination_D_negative", term < 0.0, -term, 0.0)
    )
    return VerificationReport(tuple(checks))


def check_delta_bounds(delta: float, r_max: int) -> VerificationReport:
    """Odd/even bounds of the alpha = 0 iteration, valid from r = 7 upward.

    Odd r:  D <= -d^r - 2r d^{r-1} and B <= d^r - 2r d^{r-1}.
    Even r: D <= -d^r - 4r d^{r-1} and B <= d^r.
    Also checks that the first odd r* >= 7 with 2 r* > delta has both
    coefficients strictly negative, which is what terminates the argument.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if r_max < 7:
        raise ValueError(f"r_max must be at least 7, where the bounds start; got {r_max}")
    r_star = 7
    while not (r_star % 2 == 1 and 2 * r_star > delta):
        r_star += 1
    states = iterate_DB(DELTA_FORM, (0.0, delta), max(r_max, r_star))
    checks = []
    tol = -1e-12
    for st in states[7 : r_max + 1]:
        r = st.r
        if r % 2 == 1:
            bd = -(delta**r) - 2.0 * r * delta ** (r - 1)
            bb = delta**r - 2.0 * r * delta ** (r - 1)
        else:
            bd = -(delta**r) - 4.0 * r * delta ** (r - 1)
            bb = delta**r
        m = min(_slack_leq(st.D_r, bd), _slack_leq(st.B_r, bb))
        checks.append(CheckResult(f"parity_bound_r{r:02d}", m >= tol, m, tol))
    st = states[r_star]
    both_neg = st.D_r < 0.0 and st.B_r < 0.0
    checks.append(
        CheckResult(
            f"termination_both_negative_r{r_star:02d}",
            both_neg,
            -max(st.D_r, st.B_r),
            0.0,
        )
    )
    return VerificationReport(tuple(checks))


def check_dominance(alpha: float, delta: float, r_max: int) -> VerificationReport:
    """Positive-dimension iterates never exceed the alpha = 0 iterates.

    Checks D_{a,r} <= D_{0,r}, B_{a,r} <= B_{0,r}, and the sum inequality
    D_{0,r} + B_{0,r} <= 0 for r = 0..r_max.
    """
    if alpha < 0.0 or delta <= 0.0:
        raise ValueError("need alpha >= 0 and delta > 0")
    with_a = iterate_DB(DELTA_FORM, (alpha, delta), r_max)
    at_zero = iterate_DB(DELTA_FORM, (0.0, delta), r_max)
    checks = []
    tol = -1e-12
    for sa, s0 in zip(with_a, at_zero):
        m = min(_slack_leq(sa.D_r, s0.D_r), _slack_leq(sa.B_r, s0.B_r))
        checks.append(CheckResult(f"dominance_r{sa.r:02d}", m >= tol, m, tol))
        ms = _slack_leq(s0.D_r + s0.B_r, 0.0)
        checks.append(CheckResult(f"zero_dim_sum_r{sa.r:02d}", ms >= tol, ms, tol))
    return VerificationReport(tuple(checks))


def gamma_from_params(params: ModelParams) -> float:
    """The shift parameter g with alpha = n + 2 + 2g."""
    return 0.5 * (params.alpha - params.n - 2.0)


def H_value(params: ModelParams, K: int = 400) -> float:
    """The scaled smooth-fit value H = Lam(1, -1, 0) at argument n + g.

    Negative exactly when the boundary scale clears (alpha + n - 2)/2, which
    is the content of the margin check in :mod:`besselstop.boundary`.
    """
    g = gamma_from_params(params)
    return lambda_eval(LambdaParams(D=1.0, B=-1.0, Delta=0.0, n=params.n, gamma=g, K=K))


def candidate_shape_checks(
    params: ModelParams | None = None, grid_points: int = 10_000
) -> VerificationReport:
    """Grid checks of the qualitative shape facts the optimality proof leans on.

    Excursion mode (``params`` is None): the scaled profile f has f(0) = B,
    f'(0) = 0, is convex on (0, C), dominates the identity payoff on [0, C],
    and the drift of the stopped value at the boundary is negative.

    General mode: the continuation profile dominates the payoff on [0, Z] and
    the payoff drift h(t, q) = n q^{n/2-1} ((alpha+n-2)/2 - q/(1-t)) is
    nonpositive throughout the stopping region.
    """
    checks = []
    if params is None:
        from .boundary import exp_t2_integral as integral
        from .value import build_excursion

        exc = build_excursion()
        C, B = exc.C, exc.B

        y = np.linspace(1e-3, C * (1.0 - 1e-12), grid_points)
        f = B * integral(y) / y
        fp = (B * np.exp(0.5 * y * y) - f) / y
        fpp = (y * f - (2.0 - y * y) * fp) / y

        f_small = B * integral(1e-7) / 1e-7
        checks.append(
            CheckResult("profile_value_at_zero", abs(f_small / B - 1.0) <= 1e-10,
                        abs(f_small / B - 1.0), 1e-10)
        )
        eps = 1e-6
        fp_small = (B * math.exp(0.5 * eps * eps) - B * integral(eps) / eps) / eps
        checks.append(
            CheckResult("profile_slope_at_zero", abs(fp_small) <= 1e-5, abs(fp_small), 1e-5)
        )
        checks.append(
            CheckResult("profile_convex", bool(np.all(fpp > 0.0)), float(fpp.min()), 0.0)
        )
        checks.append(
            CheckResult(
                "profile_dominates_payoff",
                bool(np.all(f - y >= -1e-12)),
                float((f - y).min()),
                -1e-12,
            )
        )
        tgrid = np.linspace(0.0, 0.99, 100)
        drift = (1.0 / C - C) * np.sqrt(1.0 - tgrid)
        checks.append(
            CheckResult(
                "stop_region_drift_negative",
                bool(np.all(drift < 0.0)),
                float(drift.max()),
                0.0,
            )
        )
    else:
        from .series import psi_eval
        from .value import build_candidate

        sol = build_candidate(params)
        a, n, Z = params.alpha, params.n, sol.Z
        z = np.linspace(0.0, Z, grid_points)
        gap = sol.E1 * psi_eval(sol.table, z) - z ** (0.5 * n)
        checks.append(
            CheckResult(
                "continuation_dominates_payoff",
                bool(np.all(gap >= -1e-12)),
                float(gap.min()),
                -1e-12,
            )
        )
        worst = -math.inf
        for t in np.linspace(0.0, 0.9, 10):
            q = np.linspace(Z * (1.0 - t), 3.0 * Z, 1000)
            q = q[q > 0.0]
            h = n * q ** (0.5 * n - 1.0) * (0.5 * (a + n - 2.0) - q / (1.0 - t))
            worst = max(worst, float(h.max()))
        checks.append(
            CheckResult("stop_region_drift_nonpositive", worst <= 1e-12, worst, 1e-12)
        )
    return VerificationReport(tuple(checks))


# Representative regimes for the index-shift identity: |alpha - n| <= 2,
# alpha > n + 2 (positive shift parameter), and alpha < n - 2 (the
# reparameterized case, shift parameter below -2).
INVARIANCE_CASES = (
    (1.0, -0.5),
    (3.0, 0.0),
    (2.0, 1.5),
    (1.0, 2.0),
    (7.0, -4.0),
    (9.0, -4.5),
)

PARAMETER_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 10.0)


def run_iteration_checks(
    steps: int = 12,
    r_max: int = 60,
    grid: tuple[float, ...] = PARAMETER_GRID,
) -> VerificationReport:
    """Full battery on the series-identity side: invariance, sign, bounds.

    Covers the index-shift invariance on all three regimes, negativity of the
    scaled smooth-fit value wherever alpha + n > 2 together with its identity
    against the direct series, the closed-form polynomial rows against the
    exact iteration, and the three families of monotone bounds up to r_max.
    """
    from fractions import Fraction

    from .series import build_coefficients, F_eval

    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    report = VerificationReport()
    for n, g in INVARIANCE_CASES:
        inv = lambda_iterate_invariance(
            LambdaParams(D=1.0, B=-1.0, Delta=0.0, n=n, gamma=g), steps=steps
        )
        worst = max(c.margin for c in inv.checks)
        report = report.merge(
            VerificationReport(
                (
                    CheckResult(
                        f"invariance_n{n:g}_g{g:g}", inv.all_passed, worst, 1e-8
                    ),
                )
            )
        )

    checks = []
    for a in grid:
        for n in grid:
            if a + n <= 2.0:
                continue
            params = ModelParams(a, n)
            h = H_value(params)
            checks.append(
                CheckResult(f"H_negative_a{a:g}_n{n:g}", h < 0.0, h, 0.0)
            )
            g = gamma_from_params(params)
            table = build_coefficients(params)
            scaled = math.exp(
                gammaln(0.5 * n) - gammaln(0.5 * n + 1.0 + g)
            ) * F_eval(params, n + g, table)
            rel = abs(h / scaled - 1.0)
            checks.append(
                CheckResult(f"H_series_identity_a{a:g}_n{n:g}", rel <= 1e-9, rel, 1e-9)
            )
    report = report.merge(VerificationReport(tuple(checks)))

    poly_ok = True
    for dv in (Fraction(1), Fraction(3), Fraction(1, 10), Fraction(7, 3)):
        exact = iterate_delta_exact(dv, 7)
        for j in range(2, 8):
            if delta_polynomials(dv, j) != exact[j]:
                poly_ok = False
    report = report.merge(
        VerificationReport(
            (CheckResult("closed_form_rows_exact", poly_ok, 0.0 if poly_ok else 1.0, 0.0),)
        )
    )

    bound_reports = (
        [(f"growth_bounds_n{n:g}_g{g:g}", check_gamma_bounds(n, g, r_max))
         for n, g in ((1.0, 2.0), (0.5, 5.0), (2.0, 0.3), (3.0, 8.0))]
        + [(f"parity_bounds_d{d:g}", check_delta_bounds(d, r_max))
           for d in (0.1, 1.0, 3.0, 10.0)]
        + [(f"dominance_a{a:g}_d{d:g}", check_dominance(a, d, r_max))
           for a, d in ((2.0, 1.0), (0.5, 4.0), (1.0, 2.0), (3.0, 10.0))]
    )
    summary = tuple(
        CheckResult(name, rep.all_passed, min(c.margin for c in rep.checks), 0.0)
        for name, rep in bound_reports
    )
    report = report.merge(VerificationReport(summary))
    return report


def run_shape_checks(params_list: tuple[ModelParams, ...] | None = None) -> VerificationReport:
    """Shape-property battery: the excursion profile plus a list of instances."""
    if params_list is None:
        params_list = (ModelParams(3, 1), ModelParams(1, 1), ModelParams(2, 2))
    report = candidate_shape_checks(None)
    for params in params_list:
        sub = candidate_shape_checks(params)
        tagged = tuple(
            CheckResult(
                f"{c.name}_a{params.alpha:g}_n{params.n:g}", c.passed, c.margin, c.tolerance
            )
            for c in sub.checks
        )
        report = report.merge(VerificationReport(tagged))
    return report
