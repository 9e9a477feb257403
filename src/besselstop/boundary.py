"""Root finding for the free-boundary constants.

Two constants pin down the stopping rule: the boundary scale Z (unique
positive root of the smooth-fit series F) for general parameters, and the
excursion threshold C, the root in (1, 2) of

    h(c) = 2 * int_0^c exp(t^2/2) dt - c * exp(c^2/2).

Both go through ``solve_root``: a sign-change bracket, Chandrupatla's
bracketed inverse quadratic interpolation inside it and a single secant
step along the final bracket's chord to polish, so convergence is
guaranteed by the sign structure and the last step restores full
floating-point accuracy.  The Kummer-function root and the ODE oracle's
root, which check Z without the series, live in ``oracles`` and use the
same helper.  scipy is imported only by ``exp_t2_integral``, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .series import F_eval, ModelParams, _require, build_coefficients

CHANDRUPATLA = "chandrupatla"
SECANT_POLISHED = "secant_polished"
_EPS = 2.0**-52  # float64 machine epsilon


class NoRootError(RuntimeError):
    """No sign change inside the bracket, or the target failed arithmetically.

    For F this signals numerical breakdown; a positive root always exists.
    """


@dataclass(frozen=True)
class RootResult:
    """A bracketed root with its residual and bookkeeping.

    ``bracket`` is the sign-change bracket the interpolation starts from:
    the target has opposite signs at its ends, or is exactly zero at one of
    them (negative below and positive above for F; the excursion h is
    decreasing through its root, so the signs flip there).  ``iterations``
    counts the bracket doublings, the interpolation steps and the secant
    polish, one target evaluation each.  ``method`` names the last step:
    ``secant_polished``, or ``chandrupatla`` where the loop hit an exact zero.
    """

    value: float
    residual: float
    iterations: int
    bracket: tuple[float, float]
    method: str


def solve_root(f, lo, hi, tol, grow_cap=None) -> RootResult:
    """Root of ``f`` between ``lo`` and ``hi`` by Chandrupatla's method.

    With ``grow_cap``, ``hi`` doubles (``lo`` following it) until the signs
    differ, and ``NoRootError`` is raised once ``hi`` passes the cap.  Each
    step then tries inverse quadratic interpolation through the bracket and
    the point it last dropped, bisecting where the interpolant is not
    monotone (Chandrupatla 1997), until the bracket is at most
    ``tol + 4 eps |x|`` wide, ``x`` being the end with the smaller |f|.  One
    secant step from ``x`` along that last bracket's chord, clamped to the
    bracket and to that width, then restores full floating-point accuracy;
    it reuses f(x), so it costs one evaluation of f.  An exact zero at a
    bracket end or an iterate is accepted as it is.  An ``ArithmeticError``
    in ``f``, or a NaN from it, is re-raised as ``NoRootError`` naming the
    point.  ``tol`` must be finite and at least 0.
    """
    tol = _require("tol", tol, 0.0, math.inf, open_hi=True)

    def call(x: float) -> float:
        try:
            fx = f(x)
        except ArithmeticError as exc:
            raise NoRootError(f"{type(exc).__name__} evaluating at {x!r}: {exc}") from exc
        if fx != fx:
            raise NoRootError(f"NaN evaluating at {x!r}")
        return fx

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

    # a is the newest point, b the other end of the bracket, c the end dropped last
    a, fa, b, fb = hi, fhi, lo, flo
    x, fx = (lo, flo) if flo == 0.0 else (hi, fhi)
    t = 0.5
    while fx != 0.0:
        x = a + t * (b - a)
        fx = call(x)
        iterations += 1
        if (fx > 0.0) == (fa > 0.0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = x, fx
        if abs(fb) < abs(fa):
            x, fx = b, fb
        width = tol + 4.0 * _EPS * abs(x)
        if abs(b - a) <= width:
            break
        lim = 0.5 * width / abs(b - a)
        xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = fa / (fb - fa) * fc / (fb - fc)
            t += (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
        else:
            t = 0.5
        t = min(1.0 - lim, max(lim, t))

    method = CHANDRUPATLA
    if fx != 0.0:
        # one more step from x along the final chord, which lands inside the
        # last bracket
        slope = (fb - fa) / (b - a)
        if slope != 0.0 and math.isfinite(slope):
            cand = x - fx / slope
            # Keep the step in the open bracket and within the loop's error
            # bound, tol + 4 eps |x| <= tol + 8 ulp(x), of its root.
            width = tol + 8.0 * math.ulp(x)
            cand = max(cand, x - width, math.nextafter(lo, hi))
            cand = min(cand, x + width, math.nextafter(hi, lo))
            if math.isfinite(cand):
                x, fx = cand, call(cand)
                method = SECANT_POLISHED
                iterations += 1
    return RootResult(x, fx, iterations, (lo, hi), method)


def find_Z(params: ModelParams, tol: float = 1e-10) -> RootResult:
    """Unique positive root of the smooth-fit series for ``params``.

    Brackets by doubling from [0, max(1, (alpha+n)/2)] until F turns
    positive and runs ``solve_root`` to ``tol``, chord polish included.
    The coefficient table is rebuilt transparently if the bracket outgrows
    its validated range.  The last root is remembered, so asking again for
    the same ``(params, tol)`` returns the same, immutable, ``RootResult``
    without solving; errors are raised afresh on every call.
    """
    return _solve_Z(params, _require("tol", tol, 0.0, math.inf, open_lo=True, open_hi=True))


@lru_cache(maxsize=1)
def _solve_Z(params: ModelParams, tol: float) -> RootResult:
    # One slot: callers ask for a root right after it was solved (a candidate
    # and its margin, a candidate and its lattice), never for an older one.
    table = build_coefficients(params)

    def F(z: float) -> float:
        nonlocal table
        if z > table.ymax:
            table = build_coefficients(params, ymax=2.0 * z)
        return F_eval(table, z)

    hi = max(1.0, 0.5 * (params.alpha + params.n))
    return solve_root(F, 0.0, hi, tol, grow_cap=2.0**60)


def exp_t2_integral(c):
    """int_0^c e^{t^2/2} dt = sqrt(pi/2) erfi(c / sqrt 2), scalar or array ``c``."""
    from scipy.special import erfi

    return math.sqrt(0.5 * math.pi) * erfi(c / math.sqrt(2.0))


def excursion_h(c: float) -> float:
    """h(c) = 2 int_0^c e^{t^2/2} dt - c e^{c^2/2}; positive at 1, negative at 2."""
    return float(2.0 * exp_t2_integral(c) - c * math.exp(0.5 * c * c))


def find_C_excursion(tol: float = 1e-8) -> RootResult:
    """Excursion threshold constant: the root of h in (1, 2).

    The integral is the closed form ``exp_t2_integral``; ``solve_root`` runs
    on [1, 2], where the sign change is guaranteed.
    """
    _require("tol", tol, 0.0, math.inf, open_lo=True, open_hi=True)
    return solve_root(excursion_h, 1.0, 2.0, tol)


def boundary_margin(params: ModelParams) -> float:
    """Gap Z - (alpha + n - 2)/2, nonnegative for every valid parameter pair.

    The quantity (alpha + n - 2)/2 is where the payoff drift changes sign, so
    a nonnegative gap makes the drift nonpositive on the whole stopping
    region.
    """
    return find_Z(params).value - 0.5 * (params.alpha + params.n - 2.0)
