"""Root finding for the free-boundary constants.

Two constants pin down the stopping rule: the boundary scale Z (unique
positive root of the smooth-fit series F) for general parameters, and the
excursion threshold C, the root in (1, 2) of

    h(c) = 2 * int_0^c exp(t^2/2) dt - c * exp(c^2/2).

Both go through ``solve_root``: a sign-change bracket, Brent's method inside
it and a single Newton polish, so convergence is guaranteed by the sign
structure and the last step restores full floating-point accuracy.  The
closed and integral forms of the special families, which check Z without the
series, live in ``oracles`` and use the same helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq
from scipy.special import erfi

from .series import F_derivative, F_eval, ModelParams, build_coefficients

NEWTON_POLISHED = "newton_polished"


class NoRootError(RuntimeError):
    """No sign change inside the bracket, or the target failed arithmetically.

    For F this signals numerical breakdown; a positive root always exists.
    """


@dataclass(frozen=True)
class RootResult:
    """A bracketed root with its residual and bookkeeping.

    ``bracket`` is the sign-change bracket handed to Brent's method: the
    target has opposite signs at its ends, or is exactly zero at one of them
    (negative below and positive above for F; the excursion h is decreasing
    through its root, so the signs flip there).  ``iterations`` counts the
    bracket doublings, the Brent iterations and the Newton polish.
    """

    value: float
    residual: float
    iterations: int
    bracket: tuple[float, float]
    method: str


def solve_root(f, lo, hi, tol, fprime=None, grow_cap=None) -> RootResult:
    """Root of ``f`` between ``lo`` and ``hi`` by Brent's method.

    With ``grow_cap``, ``hi`` doubles (``lo`` following it) until the signs
    differ, and ``NoRootError`` is raised once ``hi`` passes the cap.  Brent
    runs to ``tol`` (Brent 1973, ch. 4); with ``fprime``, one Newton step,
    clamped to the bracket and to Brent's error bound, then restores full
    floating-point accuracy.  An exact zero at a bracket end is accepted.  An
    ``ArithmeticError`` in ``f`` is re-raised as ``NoRootError`` naming the
    point.
    """

    def call(x: float) -> float:
        try:
            return f(x)
        except ArithmeticError as exc:
            raise NoRootError(f"{type(exc).__name__} evaluating at {x!r}: {exc}") from exc

    def straddles(flo: float, fhi: float) -> bool:
        return flo <= 0.0 <= fhi or fhi <= 0.0 <= flo

    flo, fhi = call(lo), call(hi)
    iterations = 0
    while grow_cap is not None and not straddles(flo, fhi):
        lo, flo = hi, fhi
        hi *= 2.0
        iterations += 1
        if hi > grow_cap:
            raise NoRootError(f"no sign change below {grow_cap:g}")
        fhi = call(hi)
    if not straddles(flo, fhi):
        raise NoRootError(f"no sign change on [{lo!r}, {hi!r}]: f = {flo!r}, {fhi!r}")

    value, info = brentq(call, lo, hi, xtol=tol, full_output=True)
    iterations += info.iterations
    method = "brentq"
    fval = call(value)
    slope = fprime(value) if fprime is not None and fval != 0.0 else 0.0
    if slope != 0.0 and math.isfinite(slope):
        cand = value - fval / slope
        # Keep the step in the open bracket and within brentq's error bound,
        # tol + 4 eps |value| <= tol + 8 ulp(value), of Brent's root.
        width = tol + 8.0 * math.ulp(value)
        cand = max(cand, value - width, math.nextafter(lo, hi))
        cand = min(cand, value + width, math.nextafter(hi, lo))
        if math.isfinite(cand):
            value, method, fval = cand, NEWTON_POLISHED, call(cand)
            iterations += 1
    return RootResult(value, fval, iterations, (lo, hi), method)


def find_Z(params: ModelParams, tol: float = 1e-10) -> RootResult:
    """Unique positive root of the smooth-fit series for ``params``.

    Brackets by doubling from [0, max(1, (alpha+n)/2)] until F turns
    positive, runs Brent's method to ``tol``, then applies one Newton step.
    The coefficient table is rebuilt transparently if the bracket outgrows
    its validated range.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    table = build_coefficients(params)

    def F(z: float) -> float:
        nonlocal table
        if z > table.ymax:
            table = build_coefficients(params, ymax=2.0 * z)
        return F_eval(params, z, table)

    hi = max(1.0, 0.5 * (params.alpha + params.n))
    return solve_root(F, 0.0, hi, tol, lambda z: F_derivative(table, z), grow_cap=2.0**60)


def exp_t2_integral(c):
    """int_0^c e^{t^2/2} dt = sqrt(pi/2) erfi(c / sqrt 2), scalar or array ``c``."""
    return math.sqrt(0.5 * math.pi) * erfi(c / math.sqrt(2.0))


def excursion_h(c: float) -> float:
    """h(c) = 2 int_0^c e^{t^2/2} dt - c e^{c^2/2}; positive at 1, negative at 2."""
    return float(2.0 * exp_t2_integral(c) - c * math.exp(0.5 * c * c))


def find_C_excursion(tol: float = 1e-8) -> RootResult:
    """Excursion threshold constant: the root of h in (1, 2).

    The integral is the closed form ``exp_t2_integral``; Brent's method runs
    on [1, 2], where the sign change is guaranteed, with one Newton polish
    using h'(c) = e^{c^2/2} (1 - c^2).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return solve_root(
        excursion_h, 1.0, 2.0, tol, lambda c: math.exp(0.5 * c * c) * (1.0 - c * c)
    )


def boundary_margin(params: ModelParams, tol: float = 1e-10) -> float:
    """Gap Z - (alpha + n - 2)/2, nonnegative for every valid parameter pair.

    The quantity (alpha + n - 2)/2 is where the payoff drift changes sign, so
    a nonnegative gap makes the drift nonpositive on the whole stopping
    region.
    """
    root = find_Z(params, tol=tol)
    return root.value - 0.5 * (params.alpha + params.n - 2.0)
