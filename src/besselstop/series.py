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
closed form of the same coefficients on every build.  A table holds its
coefficients as Python floats and builds those of psi', psi'' and F once, on
first use; every evaluation is one Horner loop, in Python floats for a scalar
argument, in numpy for an array.  An array of two or more points is
accumulated in place, in one fresh array; a one-element array, which is what
``U_star`` passes for a scalar q, keeps the binary form, since numpy's
in-place operators cost about twice its binary ones on a single element.
numpy is imported only by the first array argument.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

K_MAX = 500
_RANGE_SLACK = 1.0 + 1e-9
_TINY = sys.float_info.min  # smallest normal float64
# ln(2^k k!) for k = 0..K_MAX, the integer-argument part of the closed form
_LOG_2K_FACTORIAL = tuple(k * math.log(2.0) + math.lgamma(k + 1.0) for k in range(K_MAX + 1))


def _require(name, x, lo=-math.inf, hi=math.inf, open_lo=False, open_hi=False) -> float:
    """``float(x)`` if it lies between ``lo`` and ``hi``, else a ValueError naming ``name``.

    Each end is included unless its ``open_*`` flag is set, and a NaN fails
    every bound.  The scalar range checks of every layer go through here, so
    they share one NaN policy and one message form.
    """
    v = float(x)
    if (v > lo if open_lo else v >= lo) and (v < hi if open_hi else v <= hi):
        return v
    if hi < math.inf:
        what = f"lie in {'(' if open_lo else '['}{lo:g}, {hi:g}{')' if open_hi else ']'}"
    elif lo == 0.0:
        what = "be positive" if open_lo else "be nonnegative"
    else:
        what = f"be {'above' if open_lo else 'at least'} {lo:g}"
    if hi == math.inf and open_hi:
        what += " and finite"
    raise ValueError(f"{name} must {what}, got {x}")


def _require_int(name, x, lo) -> int:
    """``int(x)`` for an integer ``x`` (no bool) of at least ``lo``, else a ValueError naming it."""
    import numbers

    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    _require(name, x, lo)
    return int(x)


class TruncationError(RuntimeError):
    """Coefficient recursion hit the hard cap or overflowed before the tail test passed.

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
        for name in ("alpha", "n"):
            value = _require(name, getattr(self, name), 0.0, math.inf, open_lo=True, open_hi=True)
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Truncated series coefficients A_0..A_K with their validated range.

    ``A`` holds the recursion's own floats as a tuple, the one form every
    evaluation and the ``coeffs`` command read.  ``eps`` is the relative tail
    tolerance used to select K, ``ymax`` the argument bound the truncation was
    tested at.  Valid evaluations are y in [0, ymax].  The coefficients of
    psi' (k A_k from k = 1), psi'' (k (k-1) A_k from k = 2) and F
    ((2k - n) A_k) are tuples built on first use.
    """

    params: ModelParams
    K: int
    A: tuple[float, ...]
    eps: float
    ymax: float

    @cached_property
    def _dpsi(self) -> tuple[float, ...]:
        return tuple(k * c for k, c in enumerate(self.A[1:], 1))

    @cached_property
    def _d2psi(self) -> tuple[float, ...]:
        return tuple(k * (k - 1.0) * c for k, c in enumerate(self.A[2:], 2))

    @cached_property
    def _F(self) -> tuple[float, ...]:
        return tuple((2.0 * k - self.params.n) * c for k, c in enumerate(self.A))


def default_ymax(params: ModelParams) -> float:
    """Declared table range: generous multiple of a cheap boundary-scale guess."""
    z_guess = max(1.0, 0.5 * (params.alpha + params.n))
    return max(4.0, 4.0 * z_guess)


def gamma_form_coefficients(params: ModelParams, K: int) -> list[float]:
    """Closed-form coefficients via log-gamma, A_k for k = 0..K, as a list of floats.

    A_k = Gamma(alpha/2) Gamma(k + n/2) / (Gamma(n/2) Gamma(k + alpha/2) 2^k k!),
    evaluated in log space with ``math.lgamma`` and ``math.exp`` so large k never overflows.
    """
    ha, hn = 0.5 * params.alpha, 0.5 * params.n
    lg = math.lgamma
    c = lg(ha) - lg(hn)
    return [math.exp(c + lg(k + hn) - lg(k + ha) - _LOG_2K_FACTORIAL[k]) for k in range(K + 1)]


def build_coefficients(
    params: ModelParams, ymax: float | None = None, eps: float = 1e-14
) -> CoefficientTable:
    """Build the coefficient table for ``params`` valid on [0, ymax].

    K is the smallest order at which the term A_K ymax^K falls below ``eps``
    times the partial sum, capped at K_MAX.  Raises TruncationError, carrying
    the partial table up to the last order built, if the cap is hit first or
    the partial sum overflows: past float range the tail test would accept
    any finite term and cut the table before it converges.
    """
    _require("eps", eps, 0.0, math.inf, open_lo=True, open_hi=True)
    if ymax is None:
        ymax = default_ymax(params)
    ymax = _require("ymax", ymax, 0.0, math.inf, open_lo=True, open_hi=True)

    a, n = params.alpha, params.n
    coeffs = [1.0]
    term = 1.0  # A_k * ymax^k
    total = 1.0
    K = None
    for k in range(K_MAX + 1):
        if not math.isfinite(total):
            break
        if term <= eps * total:
            K = k
            break
        ratio = (2.0 * k + n) / (2.0 * (k + 1.0) * (2.0 * k + a))
        coeffs.append(coeffs[-1] * ratio)
        term *= ratio * ymax
        total += term
    if K is None:
        last = min(len(coeffs) - 1, K_MAX)
        why = f"no K <= {K_MAX} meets eps={eps}"
        if not math.isfinite(total):
            why = f"the sum of A_k ymax^k overflows by order {last}"
        raise TruncationError(
            f"series truncation failed: {why} at ymax={ymax}",
            partial=CoefficientTable(params, last, tuple(coeffs[: last + 1]), eps, ymax),
        )

    # compare where the closed form is a normal float; past its underflow both
    # forms must be zero or subnormal.  A NaN in the closed form fails both
    # tests; the recursion's positive ratios never give a NaN.
    rel = 0.0
    for x, c in zip(coeffs, gamma_form_coefficients(params, K)):
        if c >= _TINY:
            rel = max(rel, abs(x / c - 1.0))
        elif not (x < _TINY and c < _TINY):
            raise RuntimeError("recursion disagrees with gamma closed form past underflow")
    if not rel <= 1e-10:
        raise RuntimeError(
            f"recursion disagrees with gamma closed form (max rel {rel:.3e})"
        )
    return CoefficientTable(params, K, tuple(coeffs), eps, ymax)


def _argument(y):
    """A scalar or 0-d y as a Python float, any other y as a float ndarray."""
    if isinstance(y, (float, int)):  # np.float64 subclasses float
        return float(y)
    import numpy as np

    x = np.asarray(y, dtype=float)
    return float(x) if x.ndim == 0 else x


def _horner(table: CoefficientTable, y, c):
    """sum_k c_k y^k by Horner's rule, for y inside the table's validated range.

    One loop over the coefficients ``c``, a tuple of floats, in the operation
    order of numpy's ``polyval`` (``acc = c_K + y*0``, then
    ``acc = c_k + acc*y``), so results are bit for bit polyval's; no
    coefficients give 0.  A scalar or 0-d y is range-checked
    and summed in Python floats, an array in numpy, with the same ValueError.
    An array of two or more points runs ``acc *= y; acc += c_k`` on the fresh
    ``acc``: the same products and sums, without two new arrays per
    coefficient, and ``y`` itself is never written.  A one-element array
    keeps the binary form, which numpy runs in about half the time of the
    in-place one there.
    """
    x = _argument(y)
    if isinstance(x, float):
        below, above = not x >= 0.0, x > table.ymax * _RANGE_SLACK  # NaN is below
    else:
        below, above = not (x >= 0.0).all(), (x > table.ymax * _RANGE_SLACK).any()
    if below:
        raise ValueError("series argument must be nonnegative")
    if above:
        raise ValueError(
            f"series argument {x if isinstance(x, float) else x.max()} outside the "
            f"table's validated range [0, {table.ymax}]"
        )
    coeffs = c or (0.0,)
    acc = coeffs[-1] + x * 0.0  # a fresh float or array, never the caller's y
    if isinstance(x, float) or x.size == 1:
        for ck in reversed(coeffs[:-1]):
            acc = ck + acc * x
    else:
        for ck in reversed(coeffs[:-1]):
            acc *= x
            acc += ck
    return acc


def psi_eval(table: CoefficientTable, y):
    """Evaluate psi(y) = sum A_k y^k by Horner's rule.

    Accepts a scalar or array y inside the table's validated range.
    """
    return _horner(table, y, table.A)


def psi_derivative(table: CoefficientTable, y, order: int = 1):
    """Term-wise derivative of psi of the given order (1 or 2)."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    return _horner(table, y, table._dpsi if order == 1 else table._d2psi)


def F_eval(table: CoefficientTable, z):
    """Smooth-fit function F(z) = sum (2k - n) A_k z^k, n that of ``table.params``.

    Identical (to roundoff) to 2 z psi'(z) - n psi(z); the direct series keeps
    a single Horner pass.  F(0) = -n and F has a unique positive root.
    """
    return _horner(table, z, table._F)


def ode_residual_series(table: CoefficientTable, y):
    """Residual of 4y psi'' + 2(alpha - y) psi' - n psi at y, from the series.

    A scalar or 0-d y stays a Python float throughout, as in ``_horner``.
    """
    a, n = table.params.alpha, table.params.n
    x = _argument(y)
    p = psi_eval(table, x)
    p1 = psi_derivative(table, x, 1)
    p2 = psi_derivative(table, x, 2)
    return 4.0 * x * p2 + 2.0 * (a - x) * p1 - n * p
