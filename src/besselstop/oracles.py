"""Independent numerical oracles for the series construction.

Nothing here trusts the power series beyond a short bootstrap near the
coordinate singularity:

* ``ode_shoot`` integrates the self-similar ODE with classical RK4 and
  reports the solution on a uniform grid; ``Z_from_ode`` reads the boundary
  scale off that solution by a sign change plus local Hermite interpolation.
  The ODE is linear in (g, g'), so every RK4 step is a 2x2 matrix; all of
  them are built in one vectorised pass and applied by a two-term recurrence.
* ``dp_value`` solves the discrete-time optimal stopping problem directly by
  backward induction on a lattice, with a moment-matched trinomial transition
  built from the Euler step of the bridge dynamics.  The stencils (indices
  and weights) are precomputed a block of time steps at a time, the block
  sized by a cell budget (``_BLOCK_CELLS``), so each backward step is one
  gather, a weighted sum and a maximum, and the memory is the value table
  plus about 1 MB of scratch at any grid width.  A block steps only the
  cells [0, W) below a payoff window: from W up the payoff is concave, the
  drift pulls down with a floating-point margin, and every stencil point
  reads a payoff cell of the next row, so by Jensen's inequality the step
  would return the payoff there and the table is bit-identical to stepping
  every cell.  A guard checked after each block, n > 2 and the last steps
  before t = 1 fall back to the full width; ``dp_value`` has the proof.
* ``closed_form_Z`` and ``explicit_special_values`` solve the three special
  parameter families without the series: alpha = n in closed form, and n =
  alpha - 2 and n = 2 < alpha through scipy's Kummer function ``hyp1f1``
  (``quadrature_H``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import hyp1f1

from .boundary import find_Z, solve_root
from .series import (
    ModelParams,
    _require,
    build_coefficients,
    default_ymax,
    psi_derivative,
    psi_eval,
)


# Lattice cells whose stencils dp_value builds in one vectorised pass: 16 time
# steps at the gate's 801 q cells, and about 1 MB of scratch at any grid width.
_BLOCK_CELLS = 16 * 801

# dp_value's payoff window: the cells a block's rows may move the last
# non-payoff cell up by, and the relative slack the drift must leave below the
# payoff (six times the rounding it covers, see dp_value).
_GUARD_CELLS = 8
_WINDOW_SLACK = 256 * np.finfo(float).eps

# The largest normalized residual ode_shoot accepts, and how far short of the
# pin time t = 1 dp_value's time grid stops.
_RESIDUAL_TOL = 1e-8
_EPS_END = 1e-4


class AccuracyError(RuntimeError):
    """Integration step too large: the pointwise residual check failed."""


class RangeError(RuntimeError):
    """No sign change found inside the integration range."""


class LatticeError(ValueError):
    """Transition weights would go negative; carries a suggested refinement."""

    def __init__(self, message: str, suggested_q_steps: int):
        super().__init__(message)
        self.suggested_q_steps = suggested_q_steps


@dataclass(frozen=True, eq=False)
class OdeSolution:
    """RK4 solution of 4y g'' + 2(alpha - y) g' - n g = 0 with g(0) = 1."""

    params: ModelParams
    grid: np.ndarray
    g_values: np.ndarray
    g_prime_values: np.ndarray
    step: float


@dataclass(frozen=True, eq=False)
class LatticeResult:
    """Backward-induction lattice for the discrete optimal stopping value."""

    t_grid: np.ndarray
    q_grid: np.ndarray
    value: np.ndarray
    boundary_estimate: np.ndarray
    value_at_origin: float
    cells_stepped: int


def _rk4_step_matrices(a: float, n: float, y: np.ndarray, h: float):
    """Entries (m00, m01, m10, m11) of the RK4 step u(y+h) = M u(y), u = (g, g').

    The ODE is u' = A(y) u with A(y) = [[0, 1], [n/(4y), -(a-y)/(2y)]], so the
    four RK4 stages are matrices: K1 = A(y), K2 = A(y+h/2)(I + h/2 K1),
    K3 = A(y+h/2)(I + h/2 K2), K4 = A(y+h)(I + h K3), and
    M = I + h/6 (K1 + 2 K2 + 2 K3 + K4).  Vectorised over the array ``y``.
    """

    def row(s):
        # second row of A(s); the first row is (0, 1)
        return n / (4.0 * s), -(a - s) / (2.0 * s)

    def stage(c, d, k, s):
        # A(.) (I + s K) with A(.) = [[0, 1], [c, d]]
        b00, b01, b10, b11 = 1.0 + s * k[0], s * k[1], s * k[2], 1.0 + s * k[3]
        return b10, b11, c * b00 + d * b10, c * b01 + d * b11

    c0, d0 = row(y)
    cm, dm = row(y + 0.5 * h)
    c1, d1 = row(y + h)
    k1 = (0.0, 1.0, c0, d0)
    k2 = stage(cm, dm, k1, 0.5 * h)
    k3 = stage(cm, dm, k2, 0.5 * h)
    k4 = stage(c1, d1, k3, h)
    return [
        eye + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
        for j, eye in enumerate((1.0, 0.0, 0.0, 1.0))
    ]


def ode_shoot(
    params: ModelParams,
    ymax: float,
    step: float,
) -> OdeSolution:
    """Integrate the self-similar ODE from the origin by RK4.

    The equation degenerates at y = 0 (the leading coefficient vanishes), so
    the first two nodes are filled from the series expansion and RK4 starts
    at 2*step.  The initial slope n/(2 alpha) is forced by the equation
    itself at the origin.  The ODE is linear in u = (g, g'), so each classical
    RK4 step is a fixed 2x2 matrix M_i with u_{i+1} = M_i u_i
    (``_rk4_step_matrices``); all M_i are built in one vectorised pass and the
    integration is the two-term recurrence over their entries.  Raises
    AccuracyError when the normalized residual 4y g'' + 2(alpha - y) g' - n g,
    divided by 1 + |g|, exceeds ``_RESIDUAL_TOL`` anywhere (g'' estimated by a
    fourth-order difference of the stored slopes).
    """
    ymax = _require("ymax", ymax, 0.0, math.inf, open_lo=True, open_hi=True)
    step = _require("step", step, 0.0, math.inf, open_lo=True, open_hi=True)
    m = int(round(ymax / step))
    if m < 6:
        raise ValueError("grid too coarse: need at least 6 steps")
    a, n = params.alpha, params.n
    grid = np.linspace(0.0, m * step, m + 1)

    table = build_coefficients(params, ymax=max(default_ymax(params), 4.0 * step))
    g = np.empty(m + 1)
    p = np.empty(m + 1)
    g[0], p[0] = 1.0, n / (2.0 * a)
    for i in (1, 2):
        g[i] = psi_eval(table, grid[i])
        p[i] = psi_derivative(table, grid[i], 1)

    m00, m01, m10, m11 = (e.tolist() for e in _rk4_step_matrices(a, n, grid[2:m], step))
    gs, ps = [], []
    gv, pv = float(g[2]), float(p[2])
    for e00, e01, e10, e11 in zip(m00, m01, m10, m11):
        gv, pv = e00 * gv + e01 * pv, e10 * gv + e11 * pv
        gs.append(gv)
        ps.append(pv)
    g[3:] = gs
    p[3:] = ps

    sol = OdeSolution(params, grid, g, p, step)
    worst = float(np.max(ode_residual(sol)))
    if worst > _RESIDUAL_TOL:
        raise AccuracyError(
            f"normalized ODE residual {worst:.3e} exceeds {_RESIDUAL_TOL:.1e}; reduce step"
        )
    return sol


def ode_residual(sol: OdeSolution) -> np.ndarray:
    """Normalized residual |4y g'' + 2(a-y) g' - n g| / (1 + |g|) at interior nodes.

    g'' comes from a fourth-order central difference of the stored slopes, so
    the estimate is independent of the integrator's own right-hand side.
    """
    a, n = sol.params.alpha, sol.params.n
    y, g, p, h = sol.grid, sol.g_values, sol.g_prime_values, sol.step
    i = np.arange(2, y.size - 2)
    gpp = (-p[i + 2] + 8.0 * p[i + 1] - 8.0 * p[i - 1] + p[i - 2]) / (12.0 * h)
    res = 4.0 * y[i] * gpp + 2.0 * (a - y[i]) * p[i] - n * g[i]
    return np.abs(res) / (1.0 + np.abs(g[i]))


def Z_from_ode(
    params: ModelParams,
    ymax: float | None = None,
    step: float = 1e-3,
) -> tuple[float, OdeSolution]:
    """Boundary scale read off the ODE solution, independent of the series root.

    Locates the sign change of w(y) = 2 y g'(y) - n g(y) along the RK4
    solution and refines it on the bracketing cell with cubic Hermite
    interpolation.  Enlarges the range once if no sign change shows up.
    Returns ``(Z, sol)``, where ``sol`` is the solution Z was read from, so a
    caller can check its residual without shooting again.
    """
    a, n = params.alpha, params.n
    if ymax is None:
        ymax = 4.0 * max(1.0, 0.5 * (a + n))
    for attempt in range(2):
        sol = ode_shoot(params, ymax, step)
        y, g, p = sol.grid, sol.g_values, sol.g_prime_values
        w = 2.0 * y * p - n * g
        pos = np.nonzero(w > 0.0)[0]
        if pos.size:
            j = int(pos[0])
            if j == 0:
                raise RangeError("sign change at the origin node; grid unusable")
            y0, y1 = y[j - 1], y[j]
            w0, w1 = w[j - 1], w[j]

            def wprime(i: int) -> float:
                yp = (n * g[i] - 2.0 * (a - y[i]) * p[i]) / (4.0 * y[i])
                return 2.0 * p[i] + 2.0 * y[i] * yp - n * p[i]

            d0, d1 = wprime(j - 1), wprime(j)
            h = y1 - y0

            def hermite(s: float) -> float:
                u = (s - y0) / h
                h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
                h10 = u * (1.0 - u) ** 2
                h01 = u * u * (3.0 - 2.0 * u)
                h11 = u * u * (u - 1.0)
                return h00 * w0 + h10 * h * d0 + h01 * w1 + h11 * h * d1

            z = float(brentq(hermite, y0, y1, xtol=1e-14))
            return z, sol
        ymax *= 2.0
    raise RangeError(f"no sign change of 2y g' - n g below ymax={ymax}")


def _kummer(a: float, b: float, x: float) -> float:
    # Kummer's M(a, b, x); past float range it is an OverflowError, which
    # solve_root reports as NoRootError naming the point
    m = float(hyp1f1(a, b, x))
    if not math.isfinite(m):
        raise OverflowError(f"M({a!r}, {b!r}, {x!r}) is not finite")
    return m


def _family(params: ModelParams):
    """``(H, solve_Z)`` for the special family of ``params``, or None outside them.

    ``H`` is the family's bounded solution of the ODE, up to a constant
    factor, and ``solve_Z(tol)`` finds the boundary scale without the series:

    * alpha = n: H(y) = e^{y/2} and Z = n.
    * n = alpha - 2 and n = 2 < alpha: H(y) = M(n/2, alpha/2, y/2) / (alpha - 2),
      Kummer's function, which equals the integral forms
      y^{-n/2} int_0^y e^{s/2} s^{n/2-1} ds / 2 (n = alpha - 2, DLMF 13.4.1)
      and y^{1-alpha/2} e^{y/2} int_0^y e^{-v/2} v^{alpha/2-2} dv / 2 (n = 2).
      Z solves the smooth-fit ratio H'/H = 1/Z, where
      M'(a, b, x) = (a/b) M(a+1, b+1, x) gives
      H'/H = M(n/2 + 1, alpha/2 + 1, z/2) / (alpha M(n/2, alpha/2, z/2)).
    """
    a, n = params.alpha, params.n
    if math.isclose(a, n, rel_tol=1e-12, abs_tol=1e-12):
        return (lambda y: math.exp(0.5 * y)), (lambda tol: n)
    if not (
        math.isclose(n, a - 2.0, rel_tol=1e-12, abs_tol=1e-12)
        or (math.isclose(n, 2.0, rel_tol=1e-12, abs_tol=1e-12) and a > 2.0 + 1e-12)
    ):
        return None

    def H(y: float) -> float:
        return _kummer(0.5 * n, 0.5 * a, 0.5 * y) / (a - 2.0)

    def ratio(z: float) -> float:
        x = 0.5 * z
        m2 = _kummer(0.5 * n + 1.0, 0.5 * a + 1.0, x)
        return m2 / (a * _kummer(0.5 * n, 0.5 * a, x)) - 1.0 / z

    # ratio ~ 1/alpha - 1/z < 0 at the lower end for every alpha > 2; an upper
    # end far past Z overflows M(n/2, alpha/2, z/2) at large alpha, so
    # doubling is only a safeguard
    return H, lambda tol: solve_root(
        ratio, 1e-6, max(4.0, 0.5 * a + 4.0), tol, grow_cap=2.0**40
    ).value


def quadrature_H(params: ModelParams, y: float) -> float:
    """Bounded solution H of the special family of ``params`` (see ``_family``).

    e^{y/2} for alpha = n; for n = alpha - 2 and n = 2 < alpha Kummer's
    M(n/2, alpha/2, y/2) / (alpha - 2) from scipy's ``hyp1f1``.  All are
    strictly positive with finite limits at zero, which is what makes them
    usable as value-function building blocks.  y = 0 returns the limit.
    Raises ValueError outside the three families, and OverflowError where H
    exceeds float range.
    """
    y = _require("y", y, 0.0)
    family = _family(params)
    if family is None:
        raise ValueError(
            f"no closed or integral form for alpha={params.alpha}, n={params.n}; "
            "need alpha = n, n = alpha - 2 or n = 2 < alpha"
        )
    return family[0](y)


def closed_form_Z(params: ModelParams, tol: float = 1e-10) -> float | None:
    """Boundary scale from the closed or Kummer form of a special family.

    Exact for alpha = n; for the Kummer forms a root found by Brent's method
    to ``tol``.  Returns None outside the three families.
    """
    family = _family(params)
    return None if family is None else family[1](tol)


def explicit_special_values(params: ModelParams, t: float, q: float) -> float | None:
    """U*(t, q) from the closed or Kummer form of a special family.

    With the family's H and Z this is

        (1-t)^{n/2} Z^{n/2} / H(Z) * H(q / (1-t))   if q <  Z (1-t)
        q^{n/2}                                      if q >= Z (1-t),

    the constant fixed by value matching.  Returns None outside the three
    families.
    """
    t = _require("t", t, 0.0, 1.0)
    q = _require("q", q, 0.0)
    family = _family(params)
    if family is None:
        return None
    H, solve_Z = family
    n = params.n
    Z = solve_Z(1e-10)
    if t == 1.0 or q >= Z * (1.0 - t):
        return q ** (n / 2.0)
    tau = 1.0 - t
    return tau ** (n / 2.0) * (Z ** (n / 2.0) / H(Z)) * H(q / tau)


def _lattice_stencils(a, q_grid, tau, h, dq):
    """Three-point stencils of the lattice transition for a block of time steps.

    ``tau`` holds 1 - t for each step of the block, and ``q_grid`` the cells
    to step (``dp_value`` passes its window, a prefix of the grid).  The
    stencil of a cell depends only on its own q, so the result for a cell is
    the same whatever the window.  Returns ``(idx, wts)`` of
    shape (steps, 3, q cells): the continuation value at cell j of step r is
    sum_k wts[r, k, j] * vnext[idx[r, k, j]], summed in the order k = 0, 1, 2.
    Indices are folded at q = 0 (reflection) and may exceed the grid, where the
    caller supplies the payoff.  Trinomial cells use the points c - L, c, c + L;
    the rest use the mean-exact two-point split on f, f + 1 plus a third point
    of weight 0.  Each (steps, q cells) temporary is overwritten in place once
    it is dead, so the peak is about 75 bytes per cell, the 48 bytes of the
    returned stencils included.
    """
    mu = q_grid + (a - 2.0 * q_grid / tau[:, None]) * h
    r = mu / dq
    c = np.rint(r).astype(np.int64)
    delta = np.subtract(mu, c * dq, out=mu)
    sig2 = delta * delta
    sig2 += 4.0 * q_grid * h
    # u = L dq, with L = max(1, ceil(sqrt(1.5 sig2) / dq)) held exactly as a float
    u = np.sqrt(1.5 * sig2)
    u /= dq
    np.ceil(u, out=u)
    np.maximum(u, 1.0, out=u)
    L = u.astype(np.int64)
    u *= dq

    rows, cols = np.nonzero((sig2 <= 0.0) | (np.abs(delta) * u > sig2))
    r = r[rows, cols]
    d = np.divide(delta, u, out=delta)
    v = np.divide(sig2, np.multiply(u, u, out=u), out=sig2)
    del u

    idx = np.empty((tau.size, 3, q_grid.size), dtype=np.int64)
    np.subtract(c, L, out=idx[:, 0])
    idx[:, 1] = c
    np.add(c, L, out=idx[:, 2])
    del c, L
    wts = np.empty((tau.size, 3, q_grid.size))
    np.subtract(v, d, out=wts[:, 0])
    wts[:, 0] *= 0.5
    np.subtract(1.0, v, out=wts[:, 1])
    np.add(v, d, out=wts[:, 2])
    wts[:, 2] *= 0.5

    if rows.size:
        f = np.floor(r).astype(np.int64)
        w = r - f
        idx[rows, :, cols] = np.stack((f, f + 1, f), axis=1)
        wts[rows, :, cols] = np.stack((1.0 - w, w, np.zeros_like(w)), axis=1)
    if wts.min() < -1e-12:
        raise LatticeError(
            "trinomial weights went negative", suggested_q_steps=2 * (q_grid.size - 1)
        )
    return np.abs(idx, out=idx), wts


def _window(a, n, tau, h, dq, floor, M):
    """First cell from which every row of ``tau`` may keep value = payoff, or M + 1.

    From the returned cell up, for each 1 - t in ``tau``: the drift leaves a
    relative slack (n/2)(2/tau - a/q) h of at least ``_WINDOW_SLACK``, and
    the lowest stencil point is at or above cell ``floor`` (so none folds
    below 0).  With c = rint(mu/dq), L <= sqrt(1.5 sig2)/dq + 1 and
    sig2 <= dq^2/4 + 4 q h, the lowest point is at least
    mu - sqrt(3/8 dq^2 + 6 q h) - 1.5 dq, and mu >= beta q with
    beta = 1 - 2h/tau, so beta q - sqrt(6 h q) >= (floor + 3) dq suffices,
    with 0.88 dq to spare for rounding.  Both conditions, once met, hold for
    every larger q, so each row's is one root in q; beta <= 0 (1 - t <= 2h)
    has none.
    """
    if n > 2.0:
        return M + 1
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = 2.0 / tau - _WINDOW_SLACK / (0.5 * n * h)
        beta = 1.0 - 2.0 * h / tau
        root = (math.sqrt(6.0 * h) + np.sqrt(6.0 * h + 4.0 * beta * (floor + 3) * dq)) / (
            2.0 * beta
        )
        q_low = np.where((drift > 0.0) & (beta > 0.0), np.maximum(a / drift, root * root), np.inf)
    q_low = float(q_low.max())
    # a cell of room past q_low absorbs the rounding of q_low / dq and of the grid
    return int(q_low // dq) + 2 if q_low < (M - 2) * dq else M + 1


def dp_value(
    params: ModelParams,
    t_steps: int,
    q_max: float | None,
    q_steps: int,
    t0: float = 0.0,
) -> LatticeResult:
    """Optimal stopping value by backward induction on a (t, q) lattice.

    One step of the chain matches the mean and variance of the Euler
    transition of the bridge dynamics with a symmetric trinomial stencil on
    the grid (span widened as needed so no weight can go negative); cells
    whose move is nearly deterministic fall back to a mean-exact two-point
    split.  Probability falling below q = 0 is reflected; indices above the
    grid are valued with the payoff, which is exact that deep in the stopping
    region.  The time grid stops at 1 - ``_EPS_END`` where the terminal value
    is the payoff; the drift blows up at the pin time and the bridge ends at
    zero anyway.

    The stencil depends on the time step only through 1 - t, so it is built
    for a block of steps at a time (``_lattice_stencils``), the two-point
    split written as a third point of weight 0.  Each backward step gathers
    three values per cell from the next row, extended past the grid with the
    payoff, and sums them in the per-step order, so the result is the same to
    the last bit as stepping one row at a time over the whole grid.

    Payoff window.  Deep in the stopping region the step only confirms
    value = payoff, so each block steps the cells [0, W) and keeps value =
    payoff, counted as stopped, at every cell from W up.  W (``_window``) is
    the first cell from which every row of the block has

    1. a concave payoff q^{n/2} (n <= 2);
    2. a stencil mean mu = q + (a - 2q/tau) h <= q, with relative slack
       s = (n/2)(2/tau - a/q) h >= ``_WINDOW_SLACK``;
    3. no stencil point below q = 0;
    4. every stencil point at or above K + g, where K is one past the last
       cell of the row above the block whose value differs from its payoff
       and g = ``_GUARD_CELLS``.

    Then the next row is the payoff f at every stencil point (4), and the
    weights are nonnegative, sum to one and are mean-exact (3: nothing is
    reflected), so Jensen's inequality and the tangent of the concave f at
    q give sum w f(x) <= f(mu) <= f(q) - f'(q)(q - mu) = f(q)(1 - s): the
    step would return the payoff.  In floating point (eps = 2^-52) the
    weights sum to one within eps; their mean is within about 6 eps of the
    top stencil point, which is at most 3q once nothing folds, so within
    18 eps of q; a weight that is zero in exact arithmetic may come out
    about eps negative, and dropping it only raises the sum; the three-term
    dot product rounds within 2 eps and each payoff power within 4 eps.
    Together that is under 40 eps relative to f(q), which ``_WINDOW_SLACK``
    (256 eps) covers sixfold, so the value table, ``boundary_estimate`` and
    ``value_at_origin`` are bit-identical to stepping every cell.  (4)
    holds only while no row inside the block moves K past K + g.  That is
    checked after the block; if a row did, the block's stencils are freed
    and its rows are redone at full width.  The same loop runs at full
    width, W = q_steps + 1, for n > 2, for rows with 1 - t below about 2h
    (the drift folds the stencil there) and for a failed guard.

    A block holds ``_BLOCK_CELLS // W`` steps, at least one, so its scratch
    stays near 1 MB whatever the grid width and the returned table is the
    only allocation that grows with the grid.  A windowed block also holds
    no more steps than the boundary Z (1 - t) takes to climb g/2 cells, so
    the guard seldom fails.  ``cells_stepped`` counts the (row, cell)
    continuation values of the kept blocks.
    """
    a, n = params.alpha, params.n
    _require("t_steps", t_steps, 100)
    _require("q_steps", q_steps, 50)
    _require("t0", t0, 0.0, 1.0 - _EPS_END, open_hi=True)
    Z = find_Z(params).value
    if q_max is None:
        q_max = 6.0 * Z * (1.0 - t0)
    q_max = _require("q_max", q_max, 3.0 * Z * (1.0 - t0), math.inf, open_hi=True)

    t_grid = np.linspace(t0, 1.0 - _EPS_END, t_steps + 1)
    q_grid = np.linspace(0.0, q_max, q_steps + 1)
    dq = q_grid[1] - q_grid[0]
    h = t_grid[1] - t_grid[0]
    payoff = q_grid ** (0.5 * n)
    M = q_steps

    value = np.empty((t_steps + 1, q_steps + 1))
    boundary = np.empty(t_steps + 1)
    value[-1] = payoff
    boundary[-1] = 0.0
    stop_level = payoff + 1e-12 * (1.0 + payoff)

    # vnext in the first M + 1 slots, then the payoff at q = k dq for k > M
    vext = np.empty(M + 1)
    cells_stepped = 0
    # rows over which the boundary Z (1 - t) climbs half the guard; halved
    # after each failed guard, where the lattice's boundary climbs faster
    climb = max(1, int(0.5 * _GUARD_CELLS * dq / (Z * h)))
    hi, redo_lo = t_steps, t_steps  # rows above redo_lo are redone at full width
    while hi > 0:
        W = M + 1
        if hi <= redo_lo:
            live = np.flatnonzero(value[hi] != payoff)
            floor = (int(live[-1]) + 1 if live.size else 0) + _GUARD_CELLS
            W = _window(a, n, 1.0 - t_grid[max(hi - climb, 0) : hi], h, dq, floor, M)
        block = max(1, _BLOCK_CELLS // W)
        if W <= M:
            block = min(block, climb)
        rows = np.arange(hi - 1, max(hi - block, 0) - 1, -1)
        lo = int(rows[-1])
        idx, wts = _lattice_stencils(a, q_grid[:W], 1.0 - t_grid[rows], h, dq)
        top = int(idx.max())
        if top >= vext.size:
            beyond = np.arange(vext.size, top + 1) * dq
            vext = np.concatenate((vext, beyond ** (0.5 * n)))
        value[lo:hi, W:] = payoff[W:]
        cont = np.empty((rows.size, W))
        for r, i in enumerate(rows):
            vext[: M + 1] = value[i + 1]
            x = wts[r] * vext[idx[r]]
            np.add(x[0] + x[1], x[2], out=cont[r])
            np.maximum(payoff[:W], cont[r], out=value[i, :W])
        del idx, wts  # free this block's stencils before the next are built
        if W <= M and not np.all(value[lo + 1 : hi, floor:W] == payoff[floor:W]):
            redo_lo, climb = lo, max(1, climb // 2)
            continue
        stopped = cont <= stop_level[:W]
        first = np.argmax(stopped, axis=1)
        boundary[rows] = np.where(stopped.any(axis=1), q_grid[first], q_grid[min(W, M)])
        cells_stepped += cont.size
        hi = lo

    return LatticeResult(
        t_grid=t_grid,
        q_grid=q_grid,
        value=value,
        boundary_estimate=boundary,
        value_at_origin=float(value[0, 0]),
        cells_stepped=cells_stepped,
    )
