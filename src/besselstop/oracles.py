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
  plus about 1 MB of scratch at any grid width.
* ``closed_form_Z`` and ``explicit_special_values`` solve the three special
  parameter families, alpha = n, n = alpha - 2 and n = 2 < alpha, through
  their closed or integral forms (``quadrature_H``), and never touch the
  series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammainc, gammaln, hyp1f1

from .boundary import find_Z, solve_root
from .series import ModelParams, build_coefficients, default_ymax, psi_derivative, psi_eval
from .value import _check_time


# Lattice cells whose stencils dp_value builds in one vectorised pass: 16 time
# steps at the gate's 801 q cells, and about 1 MB of scratch at any grid width.
_BLOCK_CELLS = 16 * 801
_LN2 = math.log(2.0)


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
    residual_tol: float = 1e-8,
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
    divided by 1 + |g|, exceeds ``residual_tol`` anywhere (g'' estimated by a
    fourth-order difference of the stored slopes).
    """
    if ymax <= 0.0 or step <= 0.0:
        raise ValueError("ymax and step must be positive")
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
    if worst > residual_tol:
        raise AccuracyError(
            f"normalized ODE residual {worst:.3e} exceeds {residual_tol:.1e}; reduce step"
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


def _quad(f, upper: float) -> float:
    # int_0^upper f, at the one accuracy setting every integral form uses
    return quad(f, 0.0, upper, epsabs=0.0, epsrel=1e-10, limit=300)[0]


def _first_form_H(n: float, y: float) -> float:
    # H(y) = y^{-n/2} int_0^y e^{s/2} s^{n/2-1} ds / 2; the substitution
    # s = t^{2/n} removes the endpoint singularity for n < 2.
    if y == 0.0:
        return 1.0 / n
    return y ** (-0.5 * n) * _quad(lambda t: math.exp(0.5 * t ** (2.0 / n)), y ** (0.5 * n)) / n


def _second_form_log_J(alpha: float, y: float) -> float:
    """log J(y), J(y) = int_0^y e^{-v/2} v^{alpha/2-2} dv / 2, for y > 0.

    With v = 2w and b = alpha/2 - 1, J(y) = 2^{b-1} Gamma(b) P(b, y/2), P the
    regularized lower incomplete gamma function; summed in logs, so Gamma(b)
    may overflow.  Where P(b, x) falls below the normal range, x lies far
    below b and Kummer's form P(b, x) = x^b e^{-x} M(1, b+1, x) / Gamma(b+1)
    takes over.
    """
    b = 0.5 * alpha - 1.0
    x = 0.5 * y
    p = float(gammainc(b, x))
    if p >= np.finfo(float).tiny:
        log_p = math.log(p)
    else:
        kummer = float(hyp1f1(1.0, b + 1.0, x))
        log_p = b * math.log(x) - x - float(gammaln(b + 1.0)) + math.log(kummer)
    return (b - 1.0) * _LN2 + float(gammaln(b)) + log_p


def _second_form_H(alpha: float, y: float) -> float:
    if y == 0.0:
        return 1.0 / (alpha - 2.0)
    return math.exp((1.0 - 0.5 * alpha) * math.log(y) + 0.5 * y + _second_form_log_J(alpha, y))


def _family(params: ModelParams):
    """``(H, solve_Z)`` for the special family of ``params``, or None outside them.

    ``H`` is the family's bounded solution of the ODE, up to a constant
    factor, and ``solve_Z(tol)`` finds the boundary scale without the series:

    * alpha = n: H(y) = e^{y/2} and Z = n.
    * n = alpha - 2: H(y) = y^{-n/2} int_0^y e^{s/2} s^{n/2-1} ds / 2, and Z
      solves e^{z/2} = 2 n H(z).
    * n = 2 < alpha: H(y) = y^{1-alpha/2} e^{y/2} J(y) with
      J(y) = int_0^y e^{-v/2} v^{alpha/2-2} dv / 2, and Z solves the
      smooth-fit ratio H'/H = 1/Z.

    At alpha = 4, n = 2 both integral forms apply; the first is used.
    """
    a, n = params.alpha, params.n
    if math.isclose(a, n, rel_tol=1e-12, abs_tol=1e-12):
        return (lambda y: math.exp(0.5 * y)), (lambda tol: n)
    if math.isclose(n, a - 2.0, rel_tol=1e-12, abs_tol=1e-12):
        H = partial(_first_form_H, n)

        def phi(z: float) -> float:
            return 2.0 * n * H(z) * math.exp(-0.5 * z) - 1.0

        # phi(0) = 1 exactly; Z lies just below alpha, and ends far past it overflow H.
        return H, lambda tol: solve_root(phi, 0.0, a, tol, grow_cap=2.0**40).value
    if math.isclose(n, 2.0, rel_tol=1e-12, abs_tol=1e-12) and a > 2.0 + 1e-12:

        def ratio(z: float) -> float:
            log_J = _second_form_log_J(a, z)
            return (
                (1.0 - 0.5 * a) / z
                + 0.5
                + math.exp((0.5 * a - 2.0) * math.log(z) - 0.5 * z - _LN2 - log_J)
                - 1.0 / z
            )

        # ratio ~ 0.5 - 1/z < 0 at the lower end for every alpha > 2
        return partial(_second_form_H, a), lambda tol: solve_root(
            ratio, 1e-6, max(4.0, 2.0 * a), tol, grow_cap=2.0**40
        ).value
    return None


def quadrature_H(params: ModelParams, y: float) -> float:
    """Bounded solution H of the special family of ``params`` (see ``_family``).

    e^{y/2} for alpha = n; for n = alpha - 2 the integral form, evaluated by
    adaptive quadrature, and for n = 2 < alpha the integral form through the
    incomplete gamma function (``_second_form_log_J``).  All are strictly
    positive with finite limits at zero, which is what makes them usable as
    value-function building blocks.  y = 0 returns the limit.  Raises
    ValueError outside the three families.
    """
    y = float(y)
    if not y >= 0.0:
        raise ValueError("y must be nonnegative")
    family = _family(params)
    if family is None:
        raise ValueError(
            f"no closed or integral form for alpha={params.alpha}, n={params.n}; "
            "need alpha = n, n = alpha - 2 or n = 2 < alpha"
        )
    return family[0](y)


def closed_form_Z(params: ModelParams, tol: float = 1e-10) -> float | None:
    """Boundary scale from the closed or integral form of a special family.

    Exact for alpha = n; for the integral forms a root found by Brent's method
    to ``tol``.  Returns None outside the three families.
    """
    family = _family(params)
    return None if family is None else family[1](tol)


def explicit_special_values(params: ModelParams, t: float, q: float) -> float | None:
    """U*(t, q) from the closed or integral form of a special family.

    With the family's H and Z this is

        (1-t)^{n/2} Z^{n/2} / H(Z) * H(q / (1-t))   if q <  Z (1-t)
        q^{n/2}                                      if q >= Z (1-t),

    the constant fixed by value matching.  Returns None outside the three
    families.
    """
    t = _check_time(t)
    q = float(q)
    if not q >= 0.0:
        raise ValueError("q must be nonnegative")
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

    ``tau`` holds 1 - t for each step of the block.  Returns ``(idx, wts)`` of
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


def dp_value(
    params: ModelParams,
    t_steps: int,
    q_max: float | None,
    q_steps: int,
    t0: float = 0.0,
    eps_end: float = 1e-4,
) -> LatticeResult:
    """Optimal stopping value by backward induction on a (t, q) lattice.

    One step of the chain matches the mean and variance of the Euler
    transition of the bridge dynamics with a symmetric trinomial stencil on
    the grid (span widened as needed so no weight can go negative); cells
    whose move is nearly deterministic fall back to a mean-exact two-point
    split.  Probability falling below q = 0 is reflected; indices above the
    grid are valued with the payoff, which is exact that deep in the stopping
    region.  The time grid stops at 1 - eps_end where the terminal value is
    the payoff; the drift blows up at the pin time and the bridge ends at
    zero anyway.

    The stencil depends on the time step only through 1 - t, so it is built
    for a block of steps at a time (``_lattice_stencils``), the two-point
    split written as a third point of weight 0.  A block holds
    ``_BLOCK_CELLS // (q_steps + 1)`` steps, at least one, so its scratch
    stays near 1 MB whatever the grid width and the returned table is the
    only allocation that grows with the grid.  Each backward step then
    gathers three values per cell from the next row, extended past the grid
    with the payoff, and sums them in the per-step order, so the result is
    the same to the last bit as stepping one row at a time, whatever the
    block height.
    """
    a, n = params.alpha, params.n
    if t_steps < 100:
        raise ValueError("t_steps must be at least 100")
    if q_steps < 50:
        raise ValueError("q_steps must be at least 50")
    if not (0.0 <= t0 < 1.0):
        raise ValueError("t0 must lie in [0, 1)")
    if not (0.0 < eps_end < 1.0 - t0):
        raise ValueError("eps_end must lie in (0, 1 - t0)")
    Z = find_Z(params).value
    if q_max is None:
        q_max = 6.0 * Z * (1.0 - t0)
    q_max = float(q_max)
    if not 3.0 * Z * (1.0 - t0) <= q_max < math.inf:
        raise ValueError(f"q_max={q_max} must be finite and at least the 3*Z*(1-t0) scale")

    t_grid = np.linspace(t0, 1.0 - eps_end, t_steps + 1)
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
    block = max(1, _BLOCK_CELLS // (M + 1))
    for hi in range(t_steps, 0, -block):
        rows = np.arange(hi - 1, max(hi - block, 0) - 1, -1)
        idx, wts = _lattice_stencils(a, q_grid, 1.0 - t_grid[rows], h, dq)
        top = int(idx.max())
        if top >= vext.size:
            beyond = np.arange(vext.size, top + 1) * dq
            vext = np.concatenate((vext, beyond ** (0.5 * n)))
        cont = np.empty((rows.size, M + 1))
        for r, i in enumerate(rows):
            vext[: M + 1] = value[i + 1]
            x = wts[r] * vext[idx[r]]
            np.add(x[0] + x[1], x[2], out=cont[r])
            np.maximum(payoff, cont[r], out=value[i])
        stopped = cont <= stop_level
        first = np.argmax(stopped, axis=1)
        boundary[rows] = np.where(stopped.any(axis=1), q_grid[first], q_max)
        del idx, wts, cont  # free this block's scratch before the next one is built

    return LatticeResult(
        t_grid=t_grid,
        q_grid=q_grid,
        value=value,
        boundary_estimate=boundary,
        value_at_origin=float(value[0, 0]),
    )
