"""Independent numerical oracles for the series construction.

Nothing here trusts the power series beyond a short bootstrap near the
coordinate singularity:

* ``ode_shoot`` integrates the self-similar ODE with classical RK4 and
  reports the solution on a uniform grid; ``Z_from_ode`` reads the boundary
  scale off that solution by a sign change plus local Hermite interpolation.
  The ODE is linear in (g, g'), so every RK4 step is a 2x2 matrix; all of
  them are built in one vectorised pass, and the recurrence they define is
  one unit lower-triangular banded system, solved by a single LAPACK call.
* ``fd_value`` solves the stopping problem on a lattice in y = q/(1-t).  With
  s = -ln(1-t), Ito's formula makes Y = Q/(1-t) the diffusion
  dY = (alpha - Y) ds + 2 sqrt(Y) dB_s and the payoff e^{-ns/2} Y^{n/2}:
  perpetual stopping at rate n/2, whose generator L g = 2y g'' +
  (alpha - y) g' - (n/2) g is half the ODE's operator, so U*(t, q) =
  (1-t)^{n/2} u(q/(1-t)) exactly.  One Brennan-Schwartz sweep (Brennan &
  Schwartz 1977) solves the discrete obstacle problem min(-L g, g - y^{n/2})
  = 0 when the stopping set is an upper interval, the discrete ratio rule
  u = psi sup phi/psi (Dayanik & Karatzas 2003); a complementarity residual
  checked afterwards confirms it.
* ``kummer_psi``, ``kummer_Z`` and ``kummer_value`` compute psi, Z and U*
  for every (alpha, n) without the series: psi(y) = M(n/2, alpha/2, y/2) is
  Kummer's function (DLMF 13.2), taken from scipy's ``hyp1f1``, near the
  diagonal b = c through a contiguous relation (``_kummer``).

Every root here goes through ``boundary.solve_root``; scipy's LAPACK and
``hyp1f1`` are imported on first use, so importing the package loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .boundary import find_Z, solve_root
from .series import (
    ModelParams,
    _require,
    _require_int,
    build_coefficients,
    default_ymax,
    psi_derivative,
    psi_eval,
)


# The largest normalized residual ode_shoot accepts, and the largest row-scaled
# complementarity residual fd_value accepts (an exact sweep reads about 1e-16).
_RESIDUAL_TOL = 1e-8
_LCP_TOL = 1e-12


class AccuracyError(RuntimeError):
    """Integration step too large: the pointwise residual check failed."""


class RangeError(RuntimeError):
    """No sign change found inside the integration range."""


class LatticeError(RuntimeError):
    """The lattice's complementarity check failed: its stopping set is not an upper interval."""


@dataclass(frozen=True, eq=False)
class OdeSolution:
    """RK4 solution of 4y g'' + 2(alpha - y) g' - n g = 0 with g(0) = 1.

    ``residual`` is the largest normalized residual (``ode_residual``) on it.
    """

    params: ModelParams
    grid: np.ndarray
    g_values: np.ndarray
    g_prime_values: np.ndarray
    step: float
    residual: float


@dataclass(frozen=True, eq=False)
class FdResult:
    """Lattice value g >= y^{n/2} on ``y``, its first stopping node and LCP residual."""

    y: np.ndarray
    g: np.ndarray
    Z_fd: float
    residual: float


def _rk4_step_matrices(a: float, n: float, y: np.ndarray, h: float):
    """Entries (m00, m01, m10, m11) of the RK4 step u(y+h) = M u(y), u = (g, g').

    The ODE is u' = A(y) u with A(y) = [[0, 1], [n/(4y), -(a-y)/(2y)]], so the
    four RK4 stages are matrices: K1 = A(y), K2 = A(y+h/2)(I + h/2 K1),
    K3 = A(y+h/2)(I + h/2 K2), K4 = A(y+h)(I + h K3), and
    M = I + h/6 (K1 + 2 K2 + 2 K3 + K4).  Vectorised over the array ``y``;
    each stage takes two temporaries besides its four entries, and M is
    summed in place in K2's arrays, every operation on the operands and in
    the order the formulas give, so the entries are bit for bit theirs.
    """

    def row(s):
        # second row of A(s), n/(4s) and -(a-s)/(2s); the first row is (0, 1)
        c = 4.0 * s
        np.divide(n, c, out=c)
        d = a - s
        d /= -2.0 * s
        return c, d

    def stage(c, d, k, s):
        # A(.) (I + s K) with A(.) = [[0, 1], [c, d]], in fresh arrays
        b10 = s * k[2]
        b11 = s * k[3]
        b11 += 1.0
        e = s * k[0]
        e += 1.0
        e *= c  # c (1 + s k00)
        f = d * b10
        e += f
        g = s * k[1]
        g *= c  # c s k01
        np.multiply(d, b11, out=f)
        g += f
        return b10, b11, e, g

    c0, d0 = row(y)
    cm, dm = row(y + 0.5 * h)
    c1, d1 = row(y + h)
    k1 = (0.0, 1.0, c0, d0)
    k2 = stage(cm, dm, k1, 0.5 * h)
    k3 = stage(cm, dm, k2, 0.5 * h)
    k4 = stage(c1, d1, k3, h)
    for m, m1, m3, m4, eye in zip(k2, k1, k3, k4, (1.0, 0.0, 0.0, 1.0)):
        # k2's arrays become M's, in the order of eye + h/6 (k1 + 2 k2 + 2 k3 + k4)
        m *= 2.0
        m += m1
        m3 *= 2.0
        m += m3
        m += m4
        m *= h / 6.0
        m += eye
    return list(k2)


def ode_shoot(
    params: ModelParams,
    ymax: float,
    step: float,
) -> OdeSolution:
    """Integrate the self-similar ODE from the origin by RK4.

    The equation degenerates at y = 0 (the leading coefficient vanishes) and
    is stiff near it, with step stiffness h alpha/(2y), so the nodes below
    y = alpha h/2, and at least the first two, are filled from the series
    expansion, and RK4 starts from the first node at or past that point.  The
    initial slope n/(2 alpha) is forced by the equation itself at the origin.
    The ODE is linear in u = (g, g'), so each classical RK4 step is a fixed
    2x2 matrix M_i with u_{i+1} = M_i u_i (``_rk4_step_matrices``).  Over the
    interleaved unknowns (g_s, g'_s, g_{s+1}, ...) the steps u_{i+1} - M_i u_i
    = 0 form a unit lower-triangular banded system with 3 subdiagonals, which
    one LAPACK ``dtbtrs`` call solves by forward substitution.  Raises
    AccuracyError unless the normalized residual 4y g'' + 2(alpha - y) g' - n g,
    divided by 1 + |g|, is at most ``_RESIDUAL_TOL`` everywhere (g'' estimated
    by a fourth-order difference of the stored slopes); a non-finite solution
    fails too.
    """
    ymax = _require("ymax", ymax, 0.0, math.inf, open_lo=True, open_hi=True)
    step = _require("step", step, 0.0, math.inf, open_lo=True, open_hi=True)
    m = int(round(ymax / step))
    if m < 6:
        raise ValueError("grid too coarse: need at least 6 steps")
    a, n = params.alpha, params.n
    grid = np.linspace(0.0, m * step, m + 1)

    # series nodes 1..s, s = max(2, ceil(alpha/2)): RK4 starts where y >= alpha h/2
    s = min(max(2, math.ceil(0.5 * a)), m - 1)
    table = build_coefficients(params, ymax=max(default_ymax(params), 2.0 * s * step))
    g = np.empty(m + 1)
    p = np.empty(m + 1)
    g[0], p[0] = 1.0, n / (2.0 * a)
    g[1 : s + 1] = psi_eval(table, grid[1 : s + 1])
    p[1 : s + 1] = psi_derivative(table, grid[1 : s + 1], 1)

    from scipy.linalg.lapack import dtbtrs

    m00, m01, m10, m11 = _rk4_step_matrices(a, n, grid[s:m], step)
    size = 2 * (m - s + 1)
    ab = np.zeros((4, size), order="F")  # ab[d, j] holds A[j + d, j]
    ab[1, 1:-1:2] = -m01
    ab[2, 0:-2:2] = -m00
    ab[2, 1:-1:2] = -m11
    ab[3, 0:-2:2] = -m10
    rhs = np.zeros((size, 1))
    rhs[0, 0], rhs[1, 0] = g[s], p[s]
    u, info = dtbtrs(ab, rhs, uplo="L", diag="U")
    if info != 0:
        raise RuntimeError(f"banded RK4 solve failed: LAPACK dtbtrs info={info}")
    g[s + 1 :] = u[2::2, 0]
    p[s + 1 :] = u[3::2, 0]

    sol = OdeSolution(params, grid, g, p, step, math.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        worst = float(np.max(ode_residual(sol)))
    if not worst <= _RESIDUAL_TOL:
        raise AccuracyError(
            f"normalized ODE residual {worst:.3e} exceeds {_RESIDUAL_TOL:.1e}; reduce step"
        )
    return replace(sol, residual=worst)


def ode_residual(sol: OdeSolution) -> np.ndarray:
    """Normalized residual |4y g'' + 2(a-y) g' - n g| / (1 + |g|) at interior nodes.

    g'' comes from a fourth-order central difference of the stored slopes, so
    the estimate is independent of the integrator's own right-hand side.
    """
    a, n = sol.params.alpha, sol.params.n
    p, h = sol.g_prime_values, sol.step
    y, g, pi = sol.grid[2:-2], sol.g_values[2:-2], p[2:-2]  # nodes 2..m-2
    gpp = (-p[4:] + 8.0 * p[3:-1] - 8.0 * p[1:-3] + p[:-4]) / (12.0 * h)
    res = 4.0 * y * gpp + 2.0 * (a - y) * pi - n * g
    return np.abs(res) / (1.0 + np.abs(g))


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
    caller can read its residual (``sol.residual``) without shooting again.
    """
    a, n = params.alpha, params.n
    if ymax is None:
        ymax = default_ymax(params)
    for attempt in range(2):
        sol = ode_shoot(params, ymax, step)
        y, g, p = sol.grid, sol.g_values, sol.g_prime_values
        w = 2.0 * y * p - n * g
        pos = np.nonzero(w > 0.0)[0]
        if pos.size:
            j = int(pos[0])  # >= 1: w(0) = -n g(0) = -n < 0
            y0, y1 = float(y[j - 1]), float(y[j])
            w0, w1 = float(w[j - 1]), float(w[j])

            def wprime(i: int) -> float:
                yp = (n * g[i] - 2.0 * (a - y[i]) * p[i]) / (4.0 * y[i])
                return float(2.0 * p[i] + 2.0 * y[i] * yp - n * p[i])

            d0, d1 = wprime(j - 1), wprime(j)
            h = y1 - y0

            def hermite(s: float) -> float:
                u = (s - y0) / h
                h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
                h10 = u * (1.0 - u) ** 2
                h01 = u * u * (3.0 - 2.0 * u)
                h11 = u * u * (u - 1.0)
                return h00 * w0 + h10 * h * d0 + h01 * w1 + h11 * h * d1

            return solve_root(hermite, y0, y1, 1e-14).value, sol
        ymax *= 2.0
    raise RangeError(f"no sign change of 2y g' - n g below ymax={ymax}")


def _kummer(b: float, c: float, x: float) -> float:
    """Kummer's M(b, c, x) from scipy's ``hyp1f1``.

    Against 40-digit mpmath, ``hyp1f1`` reads within 3e-14 relative where
    b - c lies outside (-0.75, 0.5), but inside it has spikes near x = 2 of
    up to 3e-10 (at b = 4.5, c = 4.7, x = 2.009).  There, off the diagonal
    b = c (where ``hyp1f1`` returns e^x), M comes from M(b, c+3, x) and
    M(b, c+2, x) by two downward steps of the contiguous relation
    (s-1) s M(b, s-1, x) = s (s-1+x) M(b, s, x) - x (s-b) M(b, s+1, x)
    (DLMF 13.3.2), stable downward since M is its minimal solution as s
    grows; that reads within 7e-14 over the band.  Past float range, or
    where ``hyp1f1`` gives up with a NaN, it is an OverflowError, which
    ``solve_root`` reports as NoRootError naming the point.
    """
    from scipy.special import hyp1f1

    if -0.75 < b - c < 0.5 and b != c:
        m_up, m = float(hyp1f1(b, c + 3.0, x)), float(hyp1f1(b, c + 2.0, x))
        for s in (c + 2.0, c + 1.0):
            m_up, m = m, (s * (s - 1.0 + x) * m - x * (s - b) * m_up) / (s * (s - 1.0))
    else:
        m = float(hyp1f1(b, c, x))
    if not math.isfinite(m):
        raise OverflowError(f"M({b!r}, {c!r}, {x!r}) is not finite")
    return m


def kummer_psi(params: ModelParams, y: float) -> float:
    """psi(y) = M(n/2, alpha/2, y/2) without the series, for every alpha, n > 0.

    The series recursion A_{k+1}/A_k = (k + n/2) / (2 (k+1) (k + alpha/2)) is
    Kummer's (DLMF 13.2.2) at y/2, so this is the series' own normalisation,
    psi(0) = 1.  Raises OverflowError where psi exceeds float range.
    """
    y = _require("y", y, 0.0)
    return _kummer(0.5 * params.n, 0.5 * params.alpha, 0.5 * y)


def kummer_Z(params: ModelParams, tol: float = 1e-10) -> float:
    """Boundary scale from Kummer's function, independent of the series.

    M'(b, c, x) = (b/c) M(b+1, c+1, x) turns the smooth-fit function into
    F(z)/n = z M(n/2 + 1, alpha/2 + 1, z/2) / alpha - M(n/2, alpha/2, z/2),
    which is -1 at z = 0 for every pair; ``solve_root`` brackets its root from
    0 to ``tol``.  On the diagonal both M are e^{z/2}, so Z = n exactly.  The
    last root is remembered, as in ``find_Z``, so ``kummer_value`` solves once
    per pair however many (t, q) it is asked for.
    """
    return _kummer_root(params, _require("tol", tol, 0.0, math.inf, open_lo=True, open_hi=True))


@lru_cache(maxsize=1)
def _kummer_root(params: ModelParams, tol: float) -> float:
    # One slot: callers evaluate one pair at many (t, q) before the next pair.
    a, n = params.alpha, params.n

    def f(z: float) -> float:
        # z = alpha on the diagonal makes both products one and the same float
        m2 = _kummer(0.5 * n + 1.0, 0.5 * a + 1.0, 0.5 * z)
        return (z * m2 - a * _kummer(0.5 * n, 0.5 * a, 0.5 * z)) / a

    # Z lay below (alpha + n)/2 + 1 on every pair tried, from 1e-3 to 2e4, and
    # an upper end far past Z overflows M at large alpha, so the bracket ends
    # just past that and doubling is only a safeguard.
    return solve_root(f, 0.0, 0.5 * (a + n) + 2.0, tol, grow_cap=2.0**40).value


def kummer_value(params: ModelParams, t: float, q: float) -> float:
    """U*(t, q) from ``kummer_psi`` and ``kummer_Z``, without the series:

        (1-t)^{n/2} Z^{n/2} / psi(Z) * psi(q / (1-t))   if q <  Z (1-t)
        q^{n/2}                                          if q >= Z (1-t),

    the constant fixed by value matching.
    """
    t = _require("t", t, 0.0, 1.0)
    q = _require("q", q, 0.0)
    n = params.n
    Z = kummer_Z(params)
    if t == 1.0 or q >= Z * (1.0 - t):
        return q ** (n / 2.0)
    tau = 1.0 - t
    scale = Z ** (n / 2.0) / kummer_psi(params, Z)
    return tau ** (n / 2.0) * scale * kummer_psi(params, q / tau)


def _fd_stencil(a: float, n: float, y: np.ndarray, dy: float):
    """Rows (lo, mid, up) of (L g)_i = lo_i g_{i-1} + mid_i g_i + up_i g_{i+1} at ``y``.

    The drift is central where 2y/dy^2 >= |a - y|/(2 dy) and upwind elsewhere,
    so y = 0 gets a forward difference (lo_0 = 0).  Then lo, up >= 0 and
    mid = -(lo + up) - n/2: the rows form an M-matrix.
    """
    diff = 2.0 * y / (dy * dy)
    drift = a - y
    central = diff >= np.abs(drift) / (2.0 * dy)
    lo = np.where(central, diff - drift / (2.0 * dy), diff + np.maximum(-drift, 0.0) / dy)
    up = np.where(central, diff + drift / (2.0 * dy), diff + np.maximum(drift, 0.0) / dy)
    return lo, -(lo + up) - 0.5 * n, up


def _complementarity(lo, mid, up, g, phi) -> float:
    """max |min(-L g, g - phi)| over the rows, -L g scaled by |lo| g_{i-1} +
    |mid| g_i + |up| g_{i+1} and g - phi by g, so an exact sweep reads rounding."""
    below, here, above = np.concatenate(([0.0], g[:-2])), g[:-1], g[1:]
    Lg = lo * below + mid * here + up * above
    scale = np.abs(lo) * below + np.abs(mid) * here + np.abs(up) * above
    return float(np.max(np.abs(np.minimum(-Lg / scale, (here - phi[:-1]) / here))))


def fd_value(params: ModelParams, cells: int, ymax: float | None = None) -> FdResult:
    """Value u on y = q/(1-t) in [0, ymax] by one Brennan-Schwartz sweep.

    ``ymax`` defaults to 6 Z and must exceed Z; U*(t0, 0) = (1-t0)^{n/2} g[0].
    Continuation from the origin is eliminated forward, g_i = r_i g_{i+1} with
    r_i = -up_i/(mid_i + lo_i r_{i-1}) and r_{-1} = 0, and the sweep back from
    g_M = y_M^{n/2} takes g_i = max(phi_i, r_i g_{i+1}).  Both loops run over
    Python floats: the vectorised g = w revcummax(phi/w) loses digits where the
    continuation solution w spans many decades.  The sweep is exact when the
    stopping set is an upper interval; a larger ``_complementarity`` residual
    than ``_LCP_TOL`` raises LatticeError.
    """
    a, n = params.alpha, params.n
    M = _require_int("cells", cells, 50)
    Z = find_Z(params).value
    ymax = 6.0 * Z if ymax is None else ymax
    ymax = _require("ymax", ymax, Z, math.inf, open_lo=True, open_hi=True)
    y = np.linspace(0.0, ymax, M + 1)
    phi = y ** (0.5 * n)
    lo, mid, up = _fd_stencil(a, n, y[:-1], ymax / M)

    r, prev = [], 0.0
    for lo_i, mid_i, up_i in zip(lo.tolist(), mid.tolist(), up.tolist()):
        prev = -up_i / (mid_i + lo_i * prev)
        r.append(prev)
    g = phi.tolist()
    for i in range(M - 1, -1, -1):
        g[i] = max(g[i], r[i] * g[i + 1])
    g = np.array(g)

    residual = _complementarity(lo, mid, up, g, phi)
    if not residual <= _LCP_TOL:
        raise LatticeError(f"complementarity residual {residual:.3e} exceeds {_LCP_TOL:.0e}")
    return FdResult(y=y, g=g, Z_fd=float(y[np.argmax(g == phi)]), residual=residual)
