"""Candidate value functions, boundary curves, and smooth-fit diagnostics.

In squared coordinates the candidate value is

    U*(t, q) = E1 (1-t)^{n/2} psi(q / (1-t))   if q <  Z (1-t)
             = q^{n/2}                          if q >= Z (1-t)

with E1 = Z^{n/2} / psi(Z) fixed by value matching; smooth fit then holds
automatically because Z is the root of the smooth-fit series.  The second,
unbounded-at-zero solution of the same ODE is excluded outright: a finite
value with bounded slope at the origin forces its coefficient to zero, so
the series branch alone carries the continuation value.  The original
coordinates are recovered through V*(t, x) = U*(t, x^2).

Points exactly on the boundary take the payoff branch; continuity makes the
choice value-irrelevant but the policy needs a convention.  U* at t = 1 is
defined as the payoff by continuity (the bridge pins at zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boundary import exp_t2_integral, find_C_excursion, find_Z
from .series import (
    CoefficientTable,
    ModelParams,
    build_coefficients,
    ode_residual_series,
    psi_derivative,
    psi_eval,
)


@dataclass(frozen=True, eq=False)
class CandidateSolution:
    """Everything needed to evaluate U*, V* and the boundary curves."""

    params: ModelParams
    Z: float
    E1: float
    table: CoefficientTable


@dataclass(frozen=True)
class ExcursionSolution:
    """Threshold constant C and level constant B of the excursion solution.

    B = C^2 / int_0^C e^{t^2/2} dt, which the root equation for C makes equal
    to 2 C e^{-C^2/2}.
    """

    C: float
    B: float


def build_candidate(params: ModelParams, tol: float = 1e-10) -> CandidateSolution:
    """Solve for Z, build a table valid on [0, 2Z], and fix E1 by value matching."""
    root = find_Z(params, tol=tol)
    Z = root.value
    table = build_coefficients(params, ymax=max(4.0, 2.0 * Z))
    E1 = Z ** (params.n / 2.0) / psi_eval(table, Z)

    # Construction invariants: value matching is exact by definition of E1,
    # smooth fit holds because F(Z) ~ 0.
    fit = abs(2.0 * Z * E1 * psi_derivative(table, Z) - params.n * Z ** (params.n / 2.0))
    if fit > 1e-8 * (1.0 + Z ** (params.n / 2.0)):
        raise RuntimeError(f"smooth-fit defect {fit:.3e} too large after root solve")
    return CandidateSolution(params, Z, E1, table)


@lru_cache(maxsize=1)
def build_excursion(tol: float = 1e-10) -> ExcursionSolution:
    root = find_C_excursion(tol=tol)
    C = root.value
    B_exp = 2.0 * C * math.exp(-0.5 * C * C)
    B_int = C * C / exp_t2_integral(C)
    if abs(B_exp / B_int - 1.0) > 1e-10:
        raise RuntimeError("two expressions for B disagree; root is off")
    return ExcursionSolution(C=C, B=B_exp)


def _check_time(t: float, allow_one: bool = True) -> float:
    t = float(t)
    hi_ok = (t <= 1.0) if allow_one else (t < 1.0)
    if not (t >= 0.0 and hi_ok):
        raise ValueError(f"t={t} outside the admissible time range")
    return t


def U_star(sol: CandidateSolution, t: float, q):
    """Candidate value in squared coordinates; scalar t, scalar or array q."""
    t = _check_time(t)
    scalar = np.isscalar(q) or np.ndim(q) == 0
    qa = np.atleast_1d(np.asarray(q, dtype=float)).copy()
    if np.any(qa < 0.0):
        raise ValueError("q must be nonnegative")
    n = sol.params.n
    out = qa ** (n / 2.0)
    if t < 1.0:
        tau = 1.0 - t
        cont = qa < sol.Z * tau
        if np.any(cont):
            out[cont] = sol.E1 * tau ** (n / 2.0) * psi_eval(sol.table, qa[cont] / tau)
    return float(out[0]) if scalar else out


def V_star(sol: CandidateSolution, t: float, x):
    """Candidate value in original coordinates: V*(t, x) = U*(t, x^2)."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise ValueError("x must be nonnegative")
    out = U_star(sol, t, xa * xa)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def boundary_q(sol: CandidateSolution, t):
    """Stopping boundary in squared coordinates, z(t) = Z (1 - t)."""
    ta = np.asarray(t, dtype=float)
    if np.any(ta < 0.0) or np.any(ta > 1.0):
        raise ValueError("t must lie in [0, 1]")
    out = sol.Z * (1.0 - ta)
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def boundary_x(sol: CandidateSolution, t):
    """Stopping boundary in original coordinates, sqrt(Z (1 - t))."""
    out = np.sqrt(boundary_q(sol, t))
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def excursion_value(t: float, x: float) -> float:
    """Excursion value (alpha=3, n=1) from the closed-form integral, no series involved.

    On the continuation branch this is

        B * (1-t)/x * int_0^{x/sqrt(1-t)} e^{s^2/2} ds,

    with the l'Hopital limit B sqrt(1-t) as x -> 0; on the stopping branch it
    is the identity payoff x.
    """
    t = _check_time(t)
    x = float(x)
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if t == 1.0:
        return x
    exc = build_excursion()
    root_tau = math.sqrt(1.0 - t)
    if x >= exc.C * root_tau:
        return x
    y = x / root_tau
    if y < 1e-8:
        return exc.B * root_tau * (1.0 + y * y / 6.0)
    return float(exc.B * root_tau / y * exp_t2_integral(y))


def smooth_fit_residual(sol: CandidateSolution, t: float) -> float:
    """|d/dq U* at the boundary minus the payoff slope|, computed analytically.

    The derivative comes from the series, never finite differences, because
    the second derivative is kinked across the boundary.
    """
    t = _check_time(t, allow_one=False)
    n = sol.params.n
    tau = 1.0 - t
    inner = sol.E1 * psi_derivative(sol.table, sol.Z) - 0.5 * n * sol.Z ** (n / 2.0 - 1.0)
    return tau ** (n / 2.0 - 1.0) * abs(inner)


def pde_residual(sol: CandidateSolution, t: float, q) -> float:
    """Residual of the backward equation at continuation points.

    Through the self-similar ansatz this is the series ODE residual scaled by
    (1-t)^{n/2 - 1} / 2, so it inherits the truncation-level smallness.
    """
    t = _check_time(t, allow_one=False)
    tau = 1.0 - t
    qa = np.asarray(q, dtype=float)
    if np.any(qa >= sol.Z * tau):
        raise ValueError("pde_residual is defined on the continuation region only")
    res = ode_residual_series(sol.table, qa / tau)
    out = 0.5 * tau ** (sol.params.n / 2.0 - 1.0) * sol.E1 * res
    return float(out) if np.isscalar(q) or np.ndim(q) == 0 else out
