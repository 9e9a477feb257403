"""Root finding for the free-boundary constants.

Two constants pin down the stopping rule: the boundary scale Z (unique
positive root of the smooth-fit series F) for general parameters, and the
excursion threshold C, the root in (1, 2) of

    h(c) = 2 * int_0^c exp(t^2/2) dt - c * exp(c^2/2).

Both are found by bracketed bisection followed by a single Newton polish, so
convergence is guaranteed by the sign structure and the last step restores
full floating-point accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import erfi

from .series import F_derivative, F_eval, ModelParams, build_coefficients

BISECTION = "bisection"
NEWTON_POLISHED = "newton_polished"


class NoRootError(RuntimeError):
    """Bracket growth exceeded its cap without a sign change.

    For F this signals numerical breakdown; a positive root always exists.
    """


@dataclass(frozen=True)
class RootResult:
    """A bracketed root with its residual and bookkeeping.

    ``bracket`` straddles ``value`` with strict opposite signs of the target
    function (negative below and positive above for F; the excursion h is
    decreasing through its root, so the signs flip there).
    """

    value: float
    residual: float
    iterations: int
    bracket: tuple[float, float]
    method: str


def _polish(value, lo, hi, f, fprime, iterations):
    slope = fprime(value)
    if slope != 0.0 and math.isfinite(slope):
        cand = value - f(value) / slope
        # Clamp into the open bracket: a polished root may round onto an
        # endpoint, and the endpoints are themselves within tol of the root.
        cand = min(max(cand, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        if math.isfinite(cand):
            return cand, NEWTON_POLISHED, iterations + 1
    return value, BISECTION, iterations


def find_Z(params: ModelParams, tol: float = 1e-10) -> RootResult:
    """Unique positive root of the smooth-fit series for ``params``.

    Brackets by doubling from max(1, (alpha+n)/2) until F turns positive,
    bisects the bracket down to ``tol``, then applies one Newton step.  The
    coefficient table is rebuilt transparently if the bracket outgrows its
    validated range.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    table = build_coefficients(params)

    def F(z: float) -> float:
        nonlocal table
        if z > table.ymax:
            table = build_coefficients(params, ymax=2.0 * z)
        return F_eval(params, z, table)

    lo, flo = 0.0, -params.n
    hi = max(1.0, 0.5 * (params.alpha + params.n))
    iterations = 0
    fhi = F(hi)
    while fhi <= 0.0:
        lo, flo = hi, fhi
        hi *= 2.0
        iterations += 1
        if hi > 2.0**60:
            raise NoRootError(
                f"no sign change of F below 2^60 for alpha={params.alpha}, n={params.n}"
            )
        fhi = F(hi)
    if flo == 0.0:  # pathological exact hit while advancing the bracket
        lo = math.nextafter(lo, 0.0)
        flo = F(lo)

    value = None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = F(mid)
        iterations += 1
        if fmid < 0.0:
            lo, flo = mid, fmid
        elif fmid > 0.0:
            hi, fhi = mid, fmid
        else:
            value = mid
            break
    if value is None:
        value = 0.5 * (lo + hi)

    value, method, iterations = _polish(
        value, lo, hi, F, lambda z: F_derivative(table, z), iterations
    )
    return RootResult(value, F(value), iterations, (lo, hi), method)


def exp_t2_integral(c):
    """int_0^c e^{t^2/2} dt = sqrt(pi/2) erfi(c / sqrt 2), scalar or array ``c``."""
    return math.sqrt(0.5 * math.pi) * erfi(c / math.sqrt(2.0))


def excursion_h(c: float) -> float:
    """h(c) = 2 int_0^c e^{t^2/2} dt - c e^{c^2/2}; positive at 1, negative at 2."""
    return float(2.0 * exp_t2_integral(c) - c * math.exp(0.5 * c * c))


def find_C_excursion(tol: float = 1e-8) -> RootResult:
    """Excursion threshold constant: the root of h in (1, 2).

    The integral is the closed form ``exp_t2_integral``; bisection runs on
    [1, 2] where the sign change is guaranteed, with one Newton polish using
    h'(c) = e^{c^2/2} (1 - c^2).
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    lo, hi = 1.0, 2.0
    flo, fhi = excursion_h(lo), excursion_h(hi)
    if not (flo > 0.0 > fhi):
        raise RuntimeError("sign pattern of h on [1, 2] violated")
    iterations = 0
    value = None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = excursion_h(mid)
        iterations += 1
        if fmid > 0.0:
            lo, flo = mid, fmid
        elif fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            value = mid
            break
    if value is None:
        value = 0.5 * (lo + hi)

    def hprime(c: float) -> float:
        return math.exp(0.5 * c * c) * (1.0 - c * c)

    value, method, iterations = _polish(value, lo, hi, excursion_h, hprime, iterations)
    return RootResult(value, excursion_h(value), iterations, (lo, hi), method)


def closed_form_Z(params: ModelParams, tol: float = 1e-10) -> float | None:
    """Boundary scale from a closed form, when one exists.

    alpha == n has the exponential solution with Z = n.  n == alpha - 2 has an
    integral-form solution; Z then solves exp(z/2) = 2 n H(z) with H evaluated
    by quadrature.  Returns None when no special case applies.
    """
    a, n = params.alpha, params.n
    if math.isclose(a, n, rel_tol=1e-12, abs_tol=1e-12):
        return float(n)
    if math.isclose(n, a - 2.0, rel_tol=1e-12, abs_tol=1e-12):
        from .oracles import quadrature_H

        def phi(z: float) -> float:
            return 2.0 * n * quadrature_H(params, z) * math.exp(-0.5 * z) - 1.0

        lo, hi = 1e-8, max(4.0, 4.0 * n)
        while phi(hi) >= 0.0:
            hi *= 2.0
            if hi > 2.0**40:
                raise RuntimeError("no sign change for the integral-form boundary")
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if phi(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    return None


def boundary_margin(params: ModelParams, tol: float = 1e-10) -> float:
    """Gap Z - (alpha + n - 2)/2, nonnegative for every valid parameter pair.

    The quantity (alpha + n - 2)/2 is where the payoff drift changes sign, so
    a nonnegative gap makes the drift nonpositive on the whole stopping
    region.
    """
    root = find_Z(params, tol=tol)
    return root.value - 0.5 * (params.alpha + params.n - 2.0)
