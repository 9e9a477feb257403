"""Power-series machinery for the squared-Bessel-bridge stopping problem.

The continuation value in self-similar coordinates solves the degenerate ODE

    4*y*g''(y) + 2*(alpha - y)*g'(y) - n*g(y) = 0,

whose bounded-at-zero solution, normalised to 1 at the origin, is the series

    psi(y) = sum_k A_k y^k,   A_0 = 1,
    A_{k+1} = (2k + n) / (2 (k+1) (2k + alpha)) * A_k.

All coefficients are positive, so psi is increasing and the evaluation has no
cancellation.  The smooth-fit function

    F(z) = sum_k (2k - n) A_k z^k  =  2 z psi'(z) - n psi(z)

changes sign exactly once on (0, inf); its root is the boundary scale Z used
throughout the package.

Tables are truncated with a relative tail test at a declared ``ymax`` and
carry that range so downstream evaluations can refuse arguments the table was
never validated for.  The recursion is cross-checked against the log-gamma
closed form of the same coefficients on every build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

K_MAX = 500
_RANGE_SLACK = 1.0 + 1e-9
_TINY = np.finfo(float).tiny  # smallest normal float64


class TruncationError(RuntimeError):
    """Coefficient recursion hit the hard cap before the tail test passed.

    Carries the partial table built so far in ``partial``.
    """

    def __init__(self, message: str, partial: "CoefficientTable | None" = None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class ModelParams:
    """Problem instance: bridge dimension ``alpha`` and payoff exponent ``n``.

    Both must be strictly positive reals; neither needs to be an integer.
    """

    alpha: float
    n: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "n", float(self.n))
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be a positive real, got {self.alpha}")
        if not (math.isfinite(self.n) and self.n > 0.0):
            raise ValueError(f"n must be a positive real, got {self.n}")


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Truncated series coefficients A_0..A_K with their validated range.

    ``eps`` is the relative tail tolerance used to select K, ``ymax`` the
    argument bound the truncation was tested at.  Valid evaluations are
    y in [0, ymax].
    """

    params: ModelParams
    K: int
    coeffs: np.ndarray
    eps: float
    ymax: float

    def __post_init__(self):
        self.coeffs.setflags(write=False)


def default_ymax(params: ModelParams) -> float:
    """Declared table range: generous multiple of a cheap boundary-scale guess."""
    z_guess = max(1.0, 0.5 * (params.alpha + params.n))
    return max(4.0, 4.0 * z_guess)


def gamma_form_coefficients(params: ModelParams, K: int) -> np.ndarray:
    """Closed-form coefficients via log-gamma, A_k for k = 0..K.

    Evaluated in log space so large k never overflows.
    """
    a, n = params.alpha, params.n
    k = np.arange(K + 1, dtype=float)
    log_ak = (
        gammaln(a / 2.0)
        - gammaln(n / 2.0)
        + gammaln(k + n / 2.0)
        - gammaln(k + a / 2.0)
        - k * math.log(2.0)
        - gammaln(k + 1.0)
    )
    return np.exp(log_ak)


def build_coefficients(
    params: ModelParams, ymax: float | None = None, eps: float = 1e-14
) -> CoefficientTable:
    """Build the coefficient table for ``params`` valid on [0, ymax].

    K is the smallest order at which the term A_K ymax^K falls below ``eps``
    times the partial sum, capped at K_MAX.  Raises TruncationError (carrying
    the partial table) if the cap is hit first.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if ymax is None:
        ymax = default_ymax(params)
    ymax = float(ymax)
    if not 0.0 < ymax < math.inf:
        raise ValueError(f"ymax must be positive and finite, got {ymax}")

    a, n = params.alpha, params.n
    coeffs = [1.0]
    term = 1.0  # A_k * ymax^k
    total = 1.0
    K = None
    for k in range(K_MAX + 1):
        if math.isfinite(term) and term <= eps * total:
            K = k
            break
        ratio = (2.0 * k + n) / (2.0 * (k + 1.0) * (2.0 * k + a))
        coeffs.append(coeffs[-1] * ratio)
        term *= ratio * ymax
        total += term
    arr = np.asarray(coeffs[: (K + 1) if K is not None else K_MAX + 1], dtype=float)

    if K is None:
        partial = CoefficientTable(params, K_MAX, arr[: K_MAX + 1], eps, ymax)
        raise TruncationError(
            f"series truncation failed: no K <= {K_MAX} meets eps={eps} at ymax={ymax}",
            partial=partial,
        )

    # compare where the closed form is a normal float; past its underflow both
    # forms must be zero or subnormal.  A NaN fails both tests.
    closed = gamma_form_coefficients(params, K)
    normal = closed >= _TINY
    rest = ~normal
    if not ((arr[rest] < _TINY).all() and (closed[rest] < _TINY).all()):
        raise RuntimeError("recursion disagrees with gamma closed form past underflow")
    rel = np.max(np.abs(arr[normal] / closed[normal] - 1.0), initial=0.0)
    if not rel <= 1e-10:
        raise RuntimeError(
            f"recursion disagrees with gamma closed form (max rel {rel:.3e})"
        )
    return CoefficientTable(params, K, arr, eps, ymax)


def _validate_range(table: CoefficientTable, y):
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("series argument must be nonnegative")
    if np.any(arr > table.ymax * _RANGE_SLACK):
        raise ValueError(
            f"series argument {np.max(arr)} outside the table's validated range "
            f"[0, {table.ymax}]"
        )
    return arr


def psi_eval(table: CoefficientTable, y):
    """Evaluate psi(y) = sum A_k y^k by Horner's rule.

    Accepts a scalar or array y inside the table's validated range.
    """
    arr = _validate_range(table, y)
    out = np.polynomial.polynomial.polyval(arr, table.coeffs)
    return float(out) if np.isscalar(y) or np.ndim(y) == 0 else out

def psi_derivative(table: CoefficientTable, y, order: int = 1):
    """Term-wise derivative of psi of the given order (1 or 2)."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    arr = _validate_range(table, y)
    k = np.arange(table.K + 1, dtype=float)
    if order == 1:
        c = (k * table.coeffs)[1:]
    else:
        c = (k * (k - 1.0) * table.coeffs)[2:]
    if c.size == 0:
        out = np.zeros_like(arr)
    else:
        out = np.polynomial.polynomial.polyval(arr, c)
    return float(out) if np.isscalar(y) or np.ndim(y) == 0 else out


def F_eval(params: ModelParams, z, table: CoefficientTable):
    """Smooth-fit function F(z) = sum (2k - n) A_k z^k.

    Identical (to roundoff) to 2 z psi'(z) - n psi(z); the direct series keeps
    a single Horner pass.  F(0) = -n and F has a unique positive root.
    """
    if params != table.params:
        raise ValueError("params do not match the coefficient table")
    arr = _validate_range(table, z)
    k = np.arange(table.K + 1, dtype=float)
    c = (2.0 * k - params.n) * table.coeffs
    out = np.polynomial.polynomial.polyval(arr, c)
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


def F_derivative(table: CoefficientTable, z):
    """d/dz of the smooth-fit function: sum k (2k - n) A_k z^{k-1}."""
    arr = _validate_range(table, z)
    n = table.params.n
    k = np.arange(table.K + 1, dtype=float)
    c = (k * (2.0 * k - n) * table.coeffs)[1:]
    if c.size == 0:
        out = np.zeros_like(arr)
    else:
        out = np.polynomial.polynomial.polyval(arr, c)
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


def ode_residual_series(table: CoefficientTable, y):
    """Residual of 4y psi'' + 2(alpha - y) psi' - n psi at y, from the series."""
    a, n = table.params.alpha, table.params.n
    arr = _validate_range(table, y)
    p = psi_eval(table, arr)
    p1 = psi_derivative(table, arr, 1)
    p2 = psi_derivative(table, arr, 2)
    out = 4.0 * arr * p2 + 2.0 * (a - arr) * p1 - n * p
    return float(out) if np.isscalar(y) or np.ndim(y) == 0 else out
