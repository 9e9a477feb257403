import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from besselstop import acceptance, oracles
from besselstop.boundary import find_Z
from besselstop.oracles import (
    AccuracyError,
    RangeError,
    Z_from_ode,
    dp_value,
    ode_residual,
    ode_shoot,
    quadrature_H,
)
from besselstop.series import (
    ModelParams,
    build_coefficients,
    default_ymax,
    psi_derivative,
    psi_eval,
)
from besselstop.value import U_star, build_candidate

C_REF = 1.503395376470782
Z31_REF = 2.260197657993724
PSI31_AT_Z = 1.5479812279348246


def _hermite_interp(sol, y_star):
    j = int(np.searchsorted(sol.grid, y_star))
    y0, y1 = sol.grid[j - 1], sol.grid[j]
    h = y1 - y0
    u = (y_star - y0) / h
    g0, g1 = sol.g_values[j - 1], sol.g_values[j]
    p0, p1 = sol.g_prime_values[j - 1], sol.g_prime_values[j]
    h00 = (1 + 2 * u) * (1 - u) ** 2
    h10 = u * (1 - u) ** 2
    h01 = u * u * (3 - 2 * u)
    h11 = u * u * (u - 1)
    return h00 * g0 + h10 * h * p0 + h01 * g1 + h11 * h * p1


def test_shoot_matches_exponential():
    sol = ode_shoot(ModelParams(1, 1), 4.0, 1e-3)
    assert sol.g_values[0] == 1.0
    assert sol.g_prime_values[0] == 0.5
    err = np.max(np.abs(sol.g_values - np.exp(0.5 * sol.grid)))
    assert err <= 1e-8


def test_shoot_residual_contract():
    sol = ode_shoot(ModelParams(3, 1), 6.0, 1e-3)
    assert float(np.max(ode_residual(sol))) <= 1e-8


def test_shoot_matches_series_at_excursion_scale():
    sol = ode_shoot(ModelParams(3, 1), 4.0, 1e-3)
    g_at_root = _hermite_interp(sol, Z31_REF)
    assert g_at_root / sol.g_values[0] == pytest.approx(PSI31_AT_Z, rel=1e-7)


def test_shoot_step_too_large_raises():
    with pytest.raises(AccuracyError):
        ode_shoot(ModelParams(3, 1), 6.0, 0.5)


def test_shoot_input_validation():
    with pytest.raises(ValueError):
        ode_shoot(ModelParams(3, 1), -1.0, 1e-3)
    with pytest.raises(ValueError):
        ode_shoot(ModelParams(3, 1), 4.0, 2.0)


def test_boundary_scale_from_ode():
    assert Z_from_ode(ModelParams(1, 1))[0] == pytest.approx(1.0, abs=1e-6)
    assert Z_from_ode(ModelParams(3, 1))[0] == pytest.approx(C_REF**2, abs=1e-6)
    z72, _ = Z_from_ode(ModelParams(7, 2))
    assert z72 == pytest.approx(find_Z(ModelParams(7, 2)).value, abs=1e-6)


def test_boundary_scale_range_retry_and_error():
    # span 1.5 misses the root at ~2.26, the doubled retry reaches it
    z, sol = Z_from_ode(ModelParams(3, 1), ymax=1.5)
    assert z == pytest.approx(C_REF**2, abs=1e-6)
    # the returned solution is the retried shot, not the first one
    assert sol.grid[-1] == pytest.approx(3.0)
    with pytest.raises(RangeError):
        Z_from_ode(ModelParams(3, 1), ymax=0.5)


def test_quadrature_H_proportional_to_scaled_integral():
    params = ModelParams(3, 1)
    for y in (0.3, 1.0, 2.26):
        direct, _ = quad(
            lambda t: math.exp(0.5 * t * t), 0.0, math.sqrt(y), epsrel=1e-12, epsabs=0.0
        )
        assert quadrature_H(params, y) == pytest.approx(direct / math.sqrt(y), rel=1e-9)


def test_quadrature_H_limits_and_validation():
    assert quadrature_H(ModelParams(3, 1), 0.0) == 1.0
    assert quadrature_H(ModelParams(4, 2), 0.0) == 0.5
    assert quadrature_H(ModelParams(4, 2), 1e-10) == pytest.approx(0.5, rel=1e-5)
    assert quadrature_H(ModelParams(7, 2), 1.0) > 0.0
    assert quadrature_H(ModelParams(2, 2), 3.0) == math.exp(1.5)
    with pytest.raises(ValueError):
        quadrature_H(ModelParams(5, 1), 1.0)
    with pytest.raises(ValueError):
        quadrature_H(ModelParams(3, 1), -1.0)


def test_quadrature_H_both_forms_coincide_at_overlap():
    # alpha = 4, n = 2 admits both integral forms; they normalize identically
    params = ModelParams(4, 2)
    for y in (0.5, 1.5, 3.0):
        h1 = quadrature_H(params, y)
        assert h1 == pytest.approx((math.exp(0.5 * y) - 1.0) / y, rel=1e-9)


def test_lattice_converges_to_candidate_value():
    params = ModelParams(3, 1)
    sol = build_candidate(params)
    lat = dp_value(params, t_steps=400, q_max=6.0 * sol.Z, q_steps=200)
    target = U_star(sol, 0.0, 0.0)
    assert abs(lat.value_at_origin - target) / target <= 0.02


def test_lattice_obstacle_and_interval_structure():
    params = ModelParams(1, 1)
    lat = dp_value(params, t_steps=400, q_max=6.0, q_steps=300)
    payoff = lat.q_grid ** 0.5
    assert np.all(lat.value >= payoff[None, :] - 1e-12)
    # continuation region is an interval [0, boundary) at every slice
    for i in range(0, lat.t_grid.size, 25):
        stopped = lat.value[i] <= payoff + 1e-12 * (1.0 + payoff)
        first = int(np.argmax(stopped)) if stopped.any() else lat.q_grid.size
        assert np.all(stopped[first:])


def test_lattice_boundary_tracks_candidate():
    params = ModelParams(1, 1)
    lat = dp_value(params, t_steps=800, q_max=6.0, q_steps=800)
    keep = lat.t_grid <= 0.8
    ratio = lat.boundary_estimate[keep] / (1.0 - lat.t_grid[keep])
    assert np.all(np.abs(ratio - 1.0) <= 0.05)
    # decreasing within one grid cell
    dq = lat.q_grid[1] - lat.q_grid[0]
    assert np.max(np.diff(lat.boundary_estimate)) <= dq + 1e-12


def test_lattice_resolution_refinement_shrinks_changes():
    params = ModelParams(2, 2)
    values = []
    for ts, qs in ((200, 100), (400, 200), (800, 400)):
        values.append(dp_value(params, ts, 12.0, qs).value_at_origin)
    first = abs(values[1] - values[0])
    second = abs(values[2] - values[1])
    assert second < first


def test_lattice_validation():
    params = ModelParams(3, 1)
    with pytest.raises(ValueError):
        dp_value(params, t_steps=50, q_max=10.0, q_steps=200)
    with pytest.raises(ValueError):
        dp_value(params, t_steps=200, q_max=1.0, q_steps=200)  # below 3 Z scale
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="q_max"):
            dp_value(params, t_steps=200, q_max=bad, q_steps=200)
    with pytest.raises(ValueError):
        dp_value(params, t_steps=200, q_max=14.0, q_steps=10)


def _reference_rk4(params, ymax, step):
    """Scalar four-slope RK4 loop: the integrator ode_shoot's step matrices replace."""
    m = int(round(ymax / step))
    a, n = params.alpha, params.n
    grid = np.linspace(0.0, m * step, m + 1)
    table = build_coefficients(params, ymax=max(default_ymax(params), 4.0 * step))
    g = np.empty(m + 1)
    p = np.empty(m + 1)
    g[0], p[0] = 1.0, n / (2.0 * a)
    for i in (1, 2):
        g[i] = psi_eval(table, grid[i])
        p[i] = psi_derivative(table, grid[i], 1)

    def slope(y, gv, pv):
        return (n * gv - 2.0 * (a - y) * pv) / (4.0 * y)

    h = step
    gv, pv = g[2], p[2]
    for i in range(2, m):
        y = grid[i]
        k1g = pv
        k1p = slope(y, gv, pv)
        k2g = pv + 0.5 * h * k1p
        k2p = slope(y + 0.5 * h, gv + 0.5 * h * k1g, pv + 0.5 * h * k1p)
        k3g = pv + 0.5 * h * k2p
        k3p = slope(y + 0.5 * h, gv + 0.5 * h * k2g, pv + 0.5 * h * k2p)
        k4g = pv + h * k3p
        k4p = slope(y + h, gv + h * k3g, pv + h * k3p)
        gv += h * (k1g + 2.0 * k2g + 2.0 * k3g + k4g) / 6.0
        pv += h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        g[i + 1], p[i + 1] = gv, pv
    return grid, g, p


@pytest.mark.parametrize(
    "alpha, n, ymax",
    [(0.5, 5, 20.0), (5, 5, 20.0), (3, 1, 8.0), (1, 0.5, 6.0), (2, 3, 20.0)],
)
def test_step_matrices_match_scalar_rk4(alpha, n, ymax):
    params = ModelParams(alpha, n)
    sol = ode_shoot(params, ymax, 1e-3)
    grid, g, p = _reference_rk4(params, ymax, 1e-3)
    assert np.array_equal(sol.grid, grid)
    assert np.max(np.abs(sol.g_values / g - 1.0)) <= 1e-13
    assert np.max(np.abs(sol.g_prime_values / p - 1.0)) <= 1e-13


def _reference_lattice(params, t_steps, q_max, q_steps, t0=0.0, eps_end=1e-4):
    """Per-step backward induction that dp_value's block stencils replace.

    Also reports whether any stencil index folded below q = 0, whether any ran
    past the last cell and whether any cell took the two-point fallback, so a
    test can show each edge was exercised.
    """
    a, n = params.alpha, params.n
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
    edges = {"folded": False, "beyond": False, "two_point": False}

    def fetch(vnext, idx, used):
        edges["folded"] |= bool(np.any(used & (idx < 0)))
        folded = np.abs(idx)
        inside = folded <= M
        edges["beyond"] |= bool(np.any(used & ~inside))
        out = np.where(inside, vnext[np.minimum(folded, M)], 0.0)
        if not inside.all():
            q_out = folded[~inside] * dq
            out[~inside] = q_out ** (0.5 * n)
        return out

    for i in range(t_steps - 1, -1, -1):
        tau = 1.0 - t_grid[i]
        vnext = value[i + 1]
        mu = q_grid + (a - 2.0 * q_grid / tau) * h
        s2 = 4.0 * q_grid * h
        c = np.rint(mu / dq).astype(np.int64)
        delta = mu - c * dq
        sig2 = s2 + delta * delta
        L = np.maximum(1, np.ceil(np.sqrt(1.5 * sig2) / dq)).astype(np.int64)
        u = L * dq
        tri_ok = (sig2 > 0.0) & (np.abs(delta) * u <= sig2)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(tri_ok, sig2 / (u * u), 0.0)
            d = np.where(tri_ok, delta / u, 0.0)
        p_up = 0.5 * (v + d)
        p_dn = 0.5 * (v - d)
        p_mid = 1.0 - v
        tri = (
            p_dn * fetch(vnext, c - L, tri_ok)
            + p_mid * fetch(vnext, c, tri_ok)
            + p_up * fetch(vnext, c + L, tri_ok)
        )
        edges["two_point"] |= bool(np.any(~tri_ok))
        f = np.floor(mu / dq).astype(np.int64)
        w = mu / dq - f
        bino = (1.0 - w) * fetch(vnext, f, ~tri_ok) + w * fetch(vnext, f + 1, ~tri_ok)
        cont = np.where(tri_ok, tri, bino)
        value[i] = np.maximum(payoff, cont)
        stopped = cont <= payoff + 1e-12 * (1.0 + payoff)
        hit = np.nonzero(stopped)[0]
        boundary[i] = q_grid[hit[0]] if hit.size else q_max
    return value, boundary, edges


@pytest.mark.parametrize(
    "alpha, n, t_steps, q_steps, t0",
    [
        (3, 1, 129, 300, 0.3),
        (1, 1, 150, 400, 0.0),
        (0.5, 3, 333, 400, 0.5),
        (2.5, 1.5, 100, 200, 0.9),
        (3, 1, 100, 800, 0.0),
        (1, 1, 125, 1600, 0.2),
    ],
)
def test_block_lattice_bit_identical_to_per_step(alpha, n, t_steps, q_steps, t0):
    params = ModelParams(alpha, n)
    # the smallest admissible q_max pushes stencils past the last cell, and
    # q cells fine against the time step make stencils near q = 0 fold
    q_max = 3.0 * find_Z(params).value * (1.0 - t0)
    lat = dp_value(params, t_steps, q_max, q_steps, t0=t0)
    value, boundary, edges = _reference_lattice(params, t_steps, q_max, q_steps, t0)
    block = max(1, oracles._BLOCK_CELLS // (q_steps + 1))
    assert block < t_steps and t_steps % block != 0  # several blocks, the last partial
    assert edges["folded"] and edges["beyond"] and edges["two_point"]
    assert np.array_equal(lat.value, value)
    assert np.array_equal(lat.boundary_estimate, boundary)
    assert lat.value_at_origin == value[0, 0]


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=150, deadline=None)
@given(
    alpha=_log_uniform(0.05, 60.0),
    n=_log_uniform(0.05, 60.0),
    t_steps=st.integers(100, 3000),
    q_steps=st.integers(50, 3000),
    q_scale=st.floats(3.0, 50.0),
    t0=st.sampled_from([0.0, 0.5, 0.9]),
)
def test_lattice_weights_are_never_negative(alpha, n, t_steps, q_steps, q_scale, t0):
    # L is widened until u^2 >= 1.5 sig2, so v <= 2/3, and every cell with
    # |d| > v takes the two-point split: no weight can go negative.  The first
    # and last steps of the grid dp_value builds are the extremes of 1 - t.
    Z = find_Z(ModelParams(alpha, n)).value
    t_grid = np.linspace(t0, 1.0 - 1e-4, t_steps + 1)
    q_grid = np.linspace(0.0, q_scale * Z * (1.0 - t0), q_steps + 1)
    h, dq = t_grid[1] - t_grid[0], q_grid[1] - q_grid[0]
    rows = np.r_[0:8, t_steps - 8 : t_steps]
    _, wts = oracles._lattice_stencils(alpha, q_grid, 1.0 - t_grid[rows], h, dq)
    assert wts.min() >= 0.0


def test_block_budget_below_one_row_steps_row_by_row(monkeypatch):
    params = ModelParams(3, 1)
    whole = dp_value(params, 100, None, 200)
    monkeypatch.setattr(oracles, "_BLOCK_CELLS", 100)
    rowwise = dp_value(params, 100, None, 200)
    assert np.array_equal(rowwise.value, whole.value)
    assert np.array_equal(rowwise.boundary_estimate, whole.boundary_estimate)


@pytest.mark.parametrize("q_steps", [800, 1600])
def test_lattice_scratch_is_bounded_by_the_cell_budget(q_steps):
    # the value table is the only allocation that grows with the grid; the
    # per-block stencils and continuation rows stay near 1.1 MB at any width;
    # keeping the previous block alive, or the stencils' dead temporaries,
    # reads 1.8-1.9 MB
    params = ModelParams(3, 1)
    find_Z(params)  # warm the coefficient cache outside the trace
    tracemalloc.start()
    try:
        lat = dp_value(params, 4000, None, q_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lat.value.shape == (4001, q_steps + 1)
    assert peak - lat.value.nbytes < 1_500_000


def test_ode_criterion_shoots_once_per_pair(monkeypatch):
    calls = []
    real = oracles.ode_shoot

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(oracles, "ode_shoot", counting)
    monkeypatch.setattr(acceptance, "ode_shoot", counting, raising=False)
    row = acceptance.criterion_5_ode_oracle()
    assert row.passed
    assert len(calls) == 25
    assert len(set(calls)) == 25
