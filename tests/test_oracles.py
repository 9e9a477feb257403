import json
import math
import pathlib
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import solve_banded

from besselstop import acceptance, oracles
from besselstop.boundary import find_Z, solve_root
from besselstop.cli import main
from besselstop.oracles import (
    AccuracyError,
    LatticeError,
    RangeError,
    Z_from_ode,
    fd_value,
    kummer_psi,
    kummer_value,
    kummer_Z,
    ode_residual,
    ode_shoot,
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
        assert kummer_psi(params, y) == pytest.approx(direct / math.sqrt(y), rel=1e-9)


def test_quadrature_H_limits_and_validation():
    # kummer_psi is normalised like the series, psi(0) = 1, for every pair
    assert kummer_psi(ModelParams(3, 1), 0.0) == 1.0
    assert kummer_psi(ModelParams(4, 2), 0.0) == 1.0
    assert kummer_psi(ModelParams(4, 2), 1e-10) == pytest.approx(1.0, rel=1e-9)
    assert kummer_psi(ModelParams(7, 2), 1.0) > 0.0
    assert kummer_psi(ModelParams(2, 2), 3.0) == math.exp(1.5)
    table = build_coefficients(ModelParams(5, 1))
    assert kummer_psi(ModelParams(5, 1), 1.0) == pytest.approx(psi_eval(table, 1.0), rel=1e-15)
    with pytest.raises(ValueError):
        kummer_psi(ModelParams(3, 1), -1.0)


def test_quadrature_H_both_forms_coincide_at_overlap():
    # alpha = 4, n = 2 lies on both former integral families, where
    # M(1, 2, x) = (e^x - 1) / x
    params = ModelParams(4, 2)
    for y in (0.5, 1.5, 3.0):
        assert kummer_psi(params, y) == pytest.approx(2.0 * math.expm1(0.5 * y) / y, rel=1e-14)


def test_quadrature_H_overflow_raises():
    with pytest.raises(OverflowError):
        kummer_psi(ModelParams(3, 1), 1500.0)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=100, deadline=None)
@given(
    alpha=_log_uniform(0.05, 60.0),
    n=_log_uniform(0.05, 60.0),
    u=st.floats(0.0, 2.0),
    t=st.floats(0.0, 0.99),
)
# hyp1f1 alone read psi 2.06e-13 off mpmath here, near the diagonal
@example(alpha=math.exp(1.0625), n=math.e, u=1.625, t=0.0)
def test_kummer_oracle_matches_series_log_uniform(alpha, n, u, t):
    # psi, Z and U* from Kummer's function against the series, with y and q up
    # to twice the boundary: 40,000 draws with |ln(n/alpha)| < 0.3, where
    # hyp1f1 alone is weakest, read 8.4e-15, 1.8e-14 and 1.6e-14 at worst
    params = ModelParams(alpha, n)
    sol = build_candidate(params)
    assert abs(kummer_Z(params) / sol.Z - 1.0) <= 1e-13
    y = u * sol.Z
    assert abs(kummer_psi(params, y) / psi_eval(sol.table, y) - 1.0) <= 1e-13
    q = y * (1.0 - t)
    assert abs(kummer_value(params, t, q) / U_star(sol, t, q) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "b, c, x",
    [(4.5, 4.7, 2.009), (1.5, 1.55, 2.326), (1.359, 1.447, 2.2605), (1.127, 1.2267, 2.2393),
     (2.0, 1.97, 2.5), (0.3, 0.32, 2.3), (20.0, 20.3, 1.5), (0.5, 1.5, 2.0), (3.0, 3.0, 2.2)],
)
def test_kummer_function_matches_mpmath_near_the_diagonal(b, c, x):
    # scipy's hyp1f1 alone reads 3.0e-10, 2.5e-11, 5.5e-11 and 2.4e-12 off
    # 40-digit mpmath at the first four points
    with mp.workdps(40):
        want = mp.hyp1f1(mp.mpf(b), mp.mpf(c), mp.mpf(x))
        assert abs(float(oracles._kummer(b, c, x) / want - 1)) <= 5e-14


def test_kummer_value_solves_one_root_per_pair(monkeypatch):
    # 15 (t, q) at one pair reuse one root, and every value is the one a
    # fresh solve gives, bit for bit
    params = ModelParams(5, 1)
    points = [(t, u * (1.0 - t)) for t in (0.0, 0.3, 0.6, 0.9, 0.99) for u in (0.1, 1.0, 4.0)]
    fresh = []
    for t, q in points:
        oracles._kummer_root.cache_clear()
        fresh.append(kummer_value(params, t, q))
    solves = []

    def counting(*args, **kwargs):
        solves.append(args)
        return solve_root(*args, **kwargs)

    monkeypatch.setattr(oracles, "solve_root", counting)
    oracles._kummer_root.cache_clear()
    assert [kummer_value(params, t, q) for t, q in points] == fresh
    assert len(solves) == 1
    assert kummer_Z(params) == kummer_Z(params, 1e-10) and len(solves) == 1
    kummer_Z(params, 1e-12)
    assert len(solves) == 2
    with pytest.raises(ValueError):
        kummer_Z(params, 0.0)


def _run_fresh(script: str) -> None:
    # a fresh interpreter, since this suite's warning filter and test modules
    # import scipy
    repo_root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
        cwd=str(repo_root),
    )
    assert proc.returncode == 0, proc.stderr


def test_special_families_never_load_scipy_integrate():
    # the Kummer oracle needs scipy.special alone: its root is solve_root's
    _run_fresh(
        "import sys\n"
        "from besselstop import ModelParams, kummer_psi, kummer_value, kummer_Z\n"
        "for a, n in ((3, 1), (7, 2), (2, 2), (5, 1)):\n"
        "    p = ModelParams(a, n)\n"
        "    kummer_Z(p), kummer_psi(p, 1.0), kummer_value(p, 0.2, 0.5)\n"
        "assert 'scipy.special' in sys.modules\n"
        "assert 'scipy.integrate' not in sys.modules\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )


def test_solve_evaluate_and_simulate_never_load_scipy():
    # the package imports scipy only in the oracles, the closed forms and
    # verification, on first use; those still pass once it is loaded
    _run_fresh(
        "import sys\n"
        "import besselstop as bs\n"
        "from besselstop import acceptance, cli\n"
        "p = bs.ModelParams(3, 1)\n"
        "sol = bs.build_candidate(p)\n"
        "bs.U_star(sol, 0.2, 1.0), bs.U_star(sol, 0.2, [0.5, 3.0]), bs.V_star(sol, 0.2, 1.0)\n"
        "bs.boundary_margin(p), bs.smooth_fit_residual(sol, 0.2)\n"
        "cfg = bs.SimConfig(p, n_paths=64, n_steps=50, seed=1)\n"
        "bs.mc_estimate(cfg, bs.ThresholdPolicy(sol.Z))\n"
        "cli.run(cli.RunConfig('value', q0=1.0))\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
        "p75 = bs.ModelParams(7, 5)\n"
        "assert abs(bs.kummer_Z(p75) - bs.find_Z(p75).value) <= 1e-10\n"
        "assert abs(bs.Z_from_ode(p)[0] - sol.Z) <= 5e-11\n"
        "assert bs.run_iteration_checks().all_passed\n"
        "assert acceptance.criterion_1_excursion_constant().passed\n"
        "assert 'scipy.special' in sys.modules\n"
    )


def test_solve_and_scalar_evaluation_never_load_numpy():
    # the solve path runs in Python floats; numpy loads with the first array
    # evaluation and gives the README values
    _run_fresh(
        "import sys\n"
        "from besselstop import (ModelParams, build_candidate, find_Z, boundary_margin,\n"
        "                        build_coefficients, psi_eval, F_eval)\n"
        "for a, n in ((3, 1), (60, 80)):\n"
        "    p = ModelParams(a, n)\n"
        "    sol = build_candidate(p)\n"
        "    table = build_coefficients(p, ymax=2.0 * sol.Z)\n"
        "    psi_eval(table, sol.Z), F_eval(table, find_Z(p).value), boundary_margin(p)\n"
        "assert table.K > 100, table.K\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' or m.startswith('scipy'))\n"
        "assert not loaded, loaded\n"
        "from besselstop import U_star\n"
        "sol = build_candidate(ModelParams(3, 1))\n"
        "u = U_star(sol, 0.0, [0.0, 1.0])\n"
        "assert 'numpy' in sys.modules\n"
        "assert (sol.Z, u[0]) == (2.2601976579937237, 0.9711974210930678), (sol.Z, u[0])\n"
    )


def test_lattice_converges_to_candidate_value():
    # U*(t0, q) = (1-t0)^{n/2} u(q/(1-t0)): one lattice in y carries every t0,
    # at every node, continuation and stopping region alike
    for alpha, n in ((3, 1), (2.5, 1.5)):
        params = ModelParams(alpha, n)
        sol = build_candidate(params)
        lat = fd_value(params, 4000)
        for t0 in (0.0, 0.5, 0.9):
            tau = 1.0 - t0
            value = tau ** (0.5 * n) * lat.g
            rel = value[0] / U_star(sol, t0, 0.0) - 1.0
            assert rel == pytest.approx(lat.g[0] / sol.E1 - 1.0)
            assert np.max(np.abs(value / U_star(sol, t0, tau * lat.y) - 1.0)) <= 3e-5


def test_lattice_obstacle_and_interval_structure():
    for alpha, n in ((3, 1), (1, 1), (0.5, 5), (20, 0.3)):
        lat = fd_value(ModelParams(alpha, n), 1000)
        phi = lat.y ** (0.5 * n)
        assert np.all(lat.g >= phi)
        # the stopping set is the upper interval [Z_fd, ymax], continuation below
        stopped = lat.g == phi
        first = int(np.argmax(stopped))
        assert lat.Z_fd == lat.y[first] and first > 0
        assert np.all(stopped[first:]) and not np.any(stopped[:first])


def test_lattice_boundary_tracks_candidate():
    for alpha, n, scale in ((3, 1, 6.0), (1, 1, 1.5), (0.1, 0.1, 20.0)):
        params = ModelParams(alpha, n)
        Z = find_Z(params).value
        for cells in (200, 1000, 4000):
            lat = fd_value(params, cells, ymax=scale * Z)
            assert lat.y[-1] == pytest.approx(scale * Z, rel=1e-15)
            assert abs(lat.Z_fd - Z) <= lat.y[1]


def test_lattice_resolution_refinement_shrinks_changes():
    # second order at (3,1): the gap to U* falls 4x per halving of dy
    params = ModelParams(3, 1)
    target = build_candidate(params).E1
    gaps = [fd_value(params, cells).g[0] / target - 1.0 for cells in (1000, 2000, 4000)]
    assert all(gap > 0.0 for gap in gaps)
    for coarse, fine in zip(gaps, gaps[1:]):
        assert math.log2(coarse / fine) == pytest.approx(2.0, abs=0.1)


def test_lattice_validation():
    params = ModelParams(3, 1)
    Z = find_Z(params).value
    for bad in (10, 49, 4000.7, 1000.0, True, math.nan, math.inf):
        with pytest.raises(ValueError, match="cells"):
            fd_value(params, bad)
    for bad in (Z, 0.5 * Z, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="ymax"):
            fd_value(params, 1000, ymax=bad)


def test_small_alpha_lattice_matches_candidate():
    # the exact Monte Carlo converges to U* here at O(h), so a lattice reading
    # high at small alpha is the lattice's defect, not the series'
    params = ModelParams(0.1, 0.1)
    rel = fd_value(params, 4000).g[0] / build_candidate(params).E1 - 1.0
    assert 0.0 <= rel <= 3e-5


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


C5_GRID = (0.5, 1.0, 2.0, 3.0, 5.0)


@pytest.mark.parametrize("alpha", C5_GRID)
def test_banded_solve_matches_step_recurrence(alpha):
    # the two-term loop over the step matrices that the banded solve replaces,
    # started from the same series node, on the criterion-5 pairs
    for n in C5_GRID:
        params = ModelParams(alpha, n)
        _, sol = Z_from_ode(params)
        s = max(2, math.ceil(0.5 * alpha))
        m00, m01, m10, m11 = (
            e.tolist() for e in oracles._rk4_step_matrices(alpha, n, sol.grid[s:-1], sol.step)
        )
        gv, pv = float(sol.g_values[s]), float(sol.g_prime_values[s])
        gs, ps = [], []
        for e00, e01, e10, e11 in zip(m00, m01, m10, m11):
            gv, pv = e00 * gv + e01 * pv, e10 * gv + e11 * pv
            gs.append(gv)
            ps.append(pv)
        assert np.max(np.abs(sol.g_values[s + 1 :] / gs - 1.0)) <= 1e-13
        assert np.max(np.abs(sol.g_prime_values[s + 1 :] / ps - 1.0)) <= 1e-13


def _binary_step_matrices(a, n, y, h):
    # _rk4_step_matrices written with a new array for every operation
    def row(s):
        return n / (4.0 * s), -(a - s) / (2.0 * s)

    def stage(c, d, k, s):
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


@pytest.mark.parametrize(
    "alpha, n, h", [(3.0, 1.0, 1e-3), (0.3, 7.0, 1e-3), (40.0, 0.1, 2e-3), (2.0, 2.0, 0.5)]
)
def test_step_matrices_are_the_binary_formula_bit_for_bit(alpha, n, h):
    # the in-place step matrices against the same arithmetic written out;
    # y = alpha, where -(a - y) is -0.0, included
    y = np.concatenate([np.linspace(h, 60.0, 4001), [alpha]])
    got = oracles._rk4_step_matrices(alpha, n, y, h)
    for entry, want in zip(got, _binary_step_matrices(alpha, n, y, h)):
        assert entry.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha, n", [(3.0, 1.0), (0.5, 2.0), (10.0, 8.0)])
def test_residual_stencil_is_the_gathered_formula_bit_for_bit(alpha, n):
    # the sliced stencil against the same arithmetic on index-array gathers
    sol = ode_shoot(ModelParams(alpha, n), 8.0, 1e-3)
    grid, g, p, step = sol.grid, sol.g_values, sol.g_prime_values, sol.step
    i = np.arange(2, grid.size - 2)
    gpp = (-p[i + 2] + 8.0 * p[i + 1] - 8.0 * p[i - 1] + p[i - 2]) / (12.0 * step)
    res = 4.0 * grid[i] * gpp + 2.0 * (alpha - grid[i]) * p[i] - n * g[i]
    assert ode_residual(sol).tobytes() == (np.abs(res) / (1.0 + np.abs(g[i]))).tobytes()


def test_shoot_carries_its_residual():
    sol = ode_shoot(ModelParams(3, 1), 6.0, 1e-3)
    assert sol.residual == float(np.max(ode_residual(sol)))


def test_shoot_rejects_non_finite_solution():
    # g overflows to inf long before y = 3000; the NaN residual must fail the check
    with pytest.raises(AccuracyError):
        ode_shoot(ModelParams(3, 1), 3000.0, 0.01)


@pytest.mark.parametrize("alpha", [14.0, 20.0, 40.0, 60.0])
def test_ode_oracle_at_stiff_alpha(alpha):
    # the step stiffness h alpha/(2y) is what the longer series start removes
    for n in (0.01, 1.0, 10.0):
        params = ModelParams(alpha, n)
        z_ode, sol = Z_from_ode(params)
        assert abs(z_ode - find_Z(params).value) <= 5e-11
        assert sol.residual <= 1e-8


def test_ode_oracle_cli_at_stiff_alpha(capsys):
    assert main(["ode-oracle", "--alpha", "40", "--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["abs_gap"] <= 5e-11


def _reference_sweep(params, cells, ymax):
    """Row-by-row transcription of the scheme fd_value builds over all rows at once.

    Each row picks its central or upwind stencil by a scalar test, then takes
    its elimination ratio; the sweep back and the first stopping node follow.
    Also reports which stencils ran, so a test can show both were exercised,
    and the stencil's (lo, mid, up) rows, for the complementarity check.
    """
    a, n = params.alpha, params.n
    y = np.linspace(0.0, ymax, cells + 1)
    phi = (y ** (0.5 * n)).tolist()
    dy = ymax / cells
    kinds = set()
    r, prev = [], 0.0
    rows = []
    for yi in y[:-1].tolist():
        diff = 2.0 * yi / (dy * dy)
        drift = a - yi
        if diff >= abs(drift) / (2.0 * dy):
            lo, up = diff - drift / (2.0 * dy), diff + drift / (2.0 * dy)
            kinds.add("central")
        else:
            lo, up = diff + max(-drift, 0.0) / dy, diff + max(drift, 0.0) / dy
            kinds.add("upwind")
        mid = -(lo + up) - 0.5 * n
        prev = -up / (mid + lo * prev)
        r.append(prev)
        rows.append((lo, mid, up))
    g = phi[:]
    for i in range(cells - 1, -1, -1):
        g[i] = max(phi[i], r[i] * g[i + 1])
    first = next(i for i in range(cells + 1) if g[i] == phi[i])
    return np.array(g), float(y[first]), kinds, np.array(rows).T


@pytest.mark.parametrize(
    "alpha, n, cells, span, t0",  # span: ymax in hundredths of Z
    [
        (3, 1, 129, 300, 0.3),
        (1, 1, 150, 400, 0.0),
        (0.5, 3, 333, 400, 0.5),
        (2.5, 1.5, 100, 200, 0.9),
        (3, 1, 100, 800, 0.0),
        (1, 1, 125, 1600, 0.2),
    ],
)
def test_block_lattice_bit_identical_to_per_step(alpha, n, cells, span, t0, capsys):
    # the same lattice read through dp-oracle at t0: value (1-t0)^{n/2} g[0]
    # and boundary Z_fd (1-t0)
    params = ModelParams(alpha, n)
    ymax = span / 100 * find_Z(params).value
    lat = fd_value(params, cells, ymax)
    g, Z_fd, kinds, _ = _reference_sweep(params, cells, ymax)
    assert kinds == {"central", "upwind"}
    assert np.array_equal(lat.g, g)
    assert lat.Z_fd == Z_fd

    argv = ["dp-oracle", "--alpha", str(alpha), "--n", str(n), "--t0", str(t0)]
    assert main(argv + ["--q-steps", str(cells), "--q-max", repr(ymax)]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    tau = 1.0 - t0
    assert res["value_at_origin"] == tau ** (0.5 * n) * g[0]
    assert res["boundary_estimate_t0"] == Z_fd * tau
    assert (res["q_steps"], res["q_max"]) == (cells, ymax)


@settings(max_examples=60, deadline=None)
@given(
    alpha=_log_uniform(0.05, 60.0),
    n=_log_uniform(0.05, 60.0),
    cells=st.integers(50, 3000),
    scale=st.floats(1.01, 50.0),
)
# the sweep's stop set here is {6, 8, 9, .., 50}, not an upper interval, so
# the sweep is not the obstacle problem's solution and fd_value must refuse it
@example(alpha=math.exp(3.75), n=math.exp(3.875), cells=50, scale=12.0)
def test_windowed_lattice_bit_identical_to_per_step(alpha, n, cells, scale):
    # any window [0, ymax] above Z, any grid the validator admits: fd_value
    # raises LatticeError exactly when the row-by-row sweep fails the same
    # complementarity bound, and otherwise matches it bit for bit
    params = ModelParams(alpha, n)
    ymax = scale * find_Z(params).value
    g, Z_fd, _, (lo, mid, up) = _reference_sweep(params, cells, ymax)
    phi = np.linspace(0.0, ymax, cells + 1) ** (0.5 * n)
    if not oracles._complementarity(lo, mid, up, g, phi) <= oracles._LCP_TOL:
        with pytest.raises(LatticeError, match="complementarity"):
            fd_value(params, cells, ymax)
        return
    lat = fd_value(params, cells, ymax)
    assert np.array_equal(lat.g, g)
    assert lat.Z_fd == Z_fd


def _howard(params, lat):
    """The discrete obstacle problem of ``lat``'s grid solved by policy iteration.

    Each step fixes a stopping set, solves the tridiagonal system (g = phi on
    it, L g = 0 elsewhere, g = phi at the top) with scipy's banded solver and
    then stops wherever g - phi <= -L g.  Nothing is shared with the sweep but
    the stencil.
    """
    y, M = lat.y, lat.y.size - 1
    phi = y ** (0.5 * params.n)
    lo, mid, up = oracles._fd_stencil(params.alpha, params.n, y[:-1], y[1])
    stop = np.ones(M + 1, dtype=bool)
    for _ in range(M + 1):
        cont = ~stop[:M]
        bands = np.zeros((3, M + 1))
        bands[1] = 1.0
        bands[1, :M][cont] = mid[cont]
        bands[0, 1:][cont] = up[cont]
        bands[2, :-2][cont[1:]] = lo[1:][cont[1:]]
        g = solve_banded((1, 1), bands, np.where(np.r_[cont, False], 0.0, phi))
        minus_Lg = -(lo * np.r_[0.0, g[:-2]] + mid * g[:-1] + up * g[1:])
        new = np.r_[g[:-1] - phi[:-1] <= minus_Lg, True]
        if np.array_equal(new, stop):
            return g
        stop = new
    raise AssertionError("policy iteration did not settle")


def test_sweep_solves_the_discrete_obstacle_problem():
    for alpha, n in ((3, 1), (1, 1), (0.1, 0.1), (10, 10), (0.5, 5), (60, 0.05)):
        params = ModelParams(alpha, n)
        lat = fd_value(params, 1000)
        g = _howard(params, lat)
        assert np.max(np.abs(lat.g / g - 1.0)) <= 1e-10
        assert lat.Z_fd == lat.y[np.argmax(g <= lat.y ** (0.5 * n))]


@settings(max_examples=40, deadline=None)
@given(alpha=_log_uniform(0.05, 60.0), n=_log_uniform(0.05, 60.0))
def test_lattice_sweep_over_log_uniform_pairs(alpha, n):
    # no bound on the gap itself: it converges slowly where y near 0 is
    # under-resolved, +0.25 at (0.05, 49.7) and 4000 cells
    params = ModelParams(alpha, n)
    target = build_candidate(params).E1
    fine, coarse = fd_value(params, 4000), fd_value(params, 2000)
    assert 0.0 <= fine.g[0] / target - 1.0 < coarse.g[0] / target - 1.0
    Z = find_Z(params).value
    for lat in (fine, coarse):
        assert abs(lat.Z_fd - Z) <= lat.y[1]
        assert lat.residual <= 1e-12


def test_lattice_error_when_stopping_set_is_not_an_upper_interval(monkeypatch):
    # a second bump in the obstacle below Z makes a stopping island, where the
    # sweep is no longer exact and the residual shows it
    params = ModelParams(3, 1)
    lat = fd_value(params, 1000)
    y = lat.y
    lo, mid, up = oracles._fd_stencil(3.0, 1.0, y[:-1], y[1])
    phi = y**0.5 + 2.0 * np.exp(-(((y - 0.5) / 0.1) ** 2))
    r, prev = [], 0.0
    for lo_i, mid_i, up_i in zip(lo, mid, up):
        prev = -up_i / (mid_i + lo_i * prev)
        r.append(prev)
    g = phi.copy()
    for i in range(y.size - 2, -1, -1):
        g[i] = max(phi[i], r[i] * g[i + 1])
    island = oracles._complementarity(lo, mid, up, g, phi)
    assert island > 1e-3
    assert oracles._complementarity(lo, mid, up, lat.g, y**0.5) == lat.residual <= 1e-15

    monkeypatch.setattr(oracles, "_complementarity", lambda *args: island)
    with pytest.raises(LatticeError, match="complementarity residual"):
        fd_value(params, 1000)


@settings(max_examples=100, deadline=None)
@given(
    alpha=_log_uniform(0.05, 60.0),
    n=_log_uniform(0.05, 60.0),
    cells=st.integers(50, 8000),
    scale=st.floats(1.01, 50.0),
)
def test_lattice_weights_are_never_negative(alpha, n, cells, scale):
    # central where the diffusion dominates the drift, upwind elsewhere: the
    # off-diagonals are nonnegative and the diagonal dominates by n/2, which
    # keeps every r_i of the sweep positive and bounded
    ymax = scale * find_Z(ModelParams(alpha, n)).value
    y = np.linspace(0.0, ymax, cells + 1)[:-1]
    lo, mid, up = oracles._fd_stencil(alpha, n, y, ymax / cells)
    assert lo[0] == 0.0 and np.all(lo >= 0.0) and np.all(up >= 0.0)
    assert np.all(mid <= -(lo + up)) and np.all(mid < 0.0)


@pytest.mark.parametrize("cells", [800, 1600])
def test_lattice_scratch_is_bounded_by_the_cell_budget(cells):
    # memory grows with the cells alone, a few hundred bytes each, and no
    # table over time steps is kept
    params = ModelParams(3, 1)
    find_Z(params)  # warm the coefficient cache outside the trace
    tracemalloc.start()
    try:
        fd_value(params, cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * cells


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
