import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from besselstop.boundary import find_Z
from besselstop.series import ModelParams
from besselstop.simulate import (
    BridgePath,
    SimConfig,
    StoppingOutcome,
    ThresholdPolicy,
    _BLOCK_PATHS,
    _BLOCK_STEPS,
    _sampler,
    _path_generator,
    _payoff,
    _threshold_payoffs,
    apply_policy,
    mc_estimate,
    path_seed,
    policy_sweep,
    simulate_exact,
)
from besselstop.value import U_star, build_candidate

Z31 = 2.260197657993724
B_REF = 0.9711974210930677


def _exact_config(**kw):
    base = dict(params=ModelParams(3, 1), n_paths=100, n_steps=200, seed=42)
    base.update(kw)
    return SimConfig(**base)


def _exact_bridge_q(xi: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Law reference: the squared bridge as a sum of d squared scalar bridges.

    The scalar bridge recursion B_{t+h} = B_t (1 - h/(1-t)) + sqrt(h(1-t-h)/(1-t)) xi
    has multiplier (1-t_{j+1})/(1-t_j), so it telescopes to
    B_j = (1-t_j) * sum_{k<j} c_k xi_k / (1-t_{k+1}), which one cumulative sum
    evaluates for all nodes at once.  The pinned node gets the exact zero the
    recursion produces (its multiplier and innovation both vanish).

    xi has shape (..., m, d) for m steps and d component bridges; the result
    has shape (..., m+1) and starts at 0.
    """
    m = t.size - 1
    c = np.sqrt(np.diff(t) * (1.0 - t[1:]) / (1.0 - t[:-1]))
    w = np.zeros(m)
    w[:-1] = c[:-1] / (1.0 - t[1:m])
    s = np.cumsum(xi * w[:, None], axis=-2)
    b = s * (1.0 - t[1:, None])
    q = np.einsum("...jd,...jd->...j", b, b)
    lead = np.zeros(q.shape[:-1] + (1,))
    return np.concatenate([lead, q], axis=-1)


def _replay_q(seed, block, alpha, n_steps, n_paths, levels, t0=0.0, q0=0.0):
    """The engine's draw schedule on stream (seed, block), stepped in Python floats.

    Paths 2i and 2i + 1 form pair i; an odd path count gives the last pair a
    path B that is stepped and then dropped.  Paths start at
    X0 = q0/(1-t0)^2 on the grid linspace(t0, 1, n_steps + 1); a level the
    start meets stops every path at node 0.  Each time block serves the n
    pairs in which a path still has an unhit level, in pair order.  For
    integer alpha it draws (k, n) normals, then (alpha-1)//2 exponential
    arrays (k, n) and, for even alpha, one more (k, n) normal.  Path A of
    each pair then takes the radial step U = R + sqrt(ds) xi, path B
    U = R - sqrt(ds) xi, both X = U^2 + ds chi2 with the pair's chi2 and
    R = sqrt X (at alpha = 1, X = U^2 and R = |U|), one float at a time.  Any
    other alpha draws, step by step, (2, n) Poisson counts N, path A of every
    pair first, then (2, n) gammas of shape alpha/2 + N, and sets X = 2 ds G.
    Nodes a path never reaches stay 0.  Returns the grid and q with shape
    (n_paths, n_steps + 1).
    """
    t = np.linspace(t0, 1.0, n_steps + 1)
    tl = t.tolist()
    gen = _path_generator(seed, block)
    pairs = (n_paths + 1) // 2
    q = np.zeros((2 * pairs, n_steps + 1))
    q[:, 0] = q0
    x0 = q0 / ((1.0 - t0) * (1.0 - t0))
    r = [math.sqrt(x0)] * (2 * pairs)
    xs = [x0] * (2 * pairs)
    active = [i for i in range(pairs) if any(q0 < z * (1.0 - t0) for z in levels)]
    last = n_steps - 1
    for j0 in range(0, last, _BLOCK_STEPS):
        if not active:
            break
        j1 = min(j0 + _BLOCK_STEPS, last)
        k, n = j1 - j0, len(active)
        if not float(alpha).is_integer():
            for j in range(j0, j1):
                ds = (tl[j + 1] - tl[j]) / ((1.0 - tl[j]) * (1.0 - tl[j + 1]))
                h = ds + ds
                counts = gen.poisson(np.array([[xs[2 * i + s] / h for i in active] for s in (0, 1)]))
                g = gen.standard_gamma(counts + 0.5 * alpha).tolist()
                for s in (0, 1):
                    for c, i in enumerate(active):
                        p = 2 * i + s
                        xs[p] = g[s][c] * h
                        q[p, j + 1] = xs[p] * ((1.0 - tl[j + 1]) * (1.0 - tl[j + 1]))
            active = _still_open(q, t, active, j1, levels, n_paths)
            continue
        n_exp, odd = divmod(int(alpha) - 1, 2)
        xi = gen.standard_normal((k, n)).tolist()
        e = gen.standard_exponential((n_exp, k, n)).tolist() if n_exp else []
        g = gen.standard_normal((k, n)).tolist() if odd else None
        for c, i in enumerate(active):
            for p in (2 * i, 2 * i + 1):
                for ii in range(k):
                    j = j0 + ii
                    ds = (tl[j + 1] - tl[j]) / ((1.0 - tl[j]) * (1.0 - tl[j + 1]))
                    step = math.sqrt(ds) * xi[ii][c]
                    u = r[p] + step if p % 2 == 0 else r[p] - step
                    if alpha == 1:
                        x = u * u
                        r[p] = abs(u)
                    else:
                        chi = 0.0
                        if n_exp:
                            chi = e[0][ii][c]
                            for extra in e[1:]:
                                chi = chi + extra[ii][c]
                            chi = chi + chi
                        if odd:
                            chi = chi + g[ii][c] * g[ii][c] if n_exp else g[ii][c] * g[ii][c]
                        x = u * u + chi * ds
                        r[p] = math.sqrt(x)
                    q[p, j + 1] = x * ((1.0 - tl[j + 1]) * (1.0 - tl[j + 1]))
        active = _still_open(q, t, active, j1, levels, n_paths)
    return t, q[:n_paths]


def _still_open(q, t, active, j1, levels, n_paths):
    """The active pairs with a path that has a level nodes 0 .. j1 have not met."""
    bound = 1.0 - t[: j1 + 1]
    return [
        i
        for i in active
        if any(
            np.all(q[p, : j1 + 1] < z * bound)
            for p in (2 * i, 2 * i + 1)
            if p < n_paths
            for z in levels
        )
    ]


def _assert_engine_matches_paths(t, q, levels, payoffs, stopped, n):
    """Every engine payoff and stop flag equals ``apply_policy`` on the replayed path."""
    for i in range(q.shape[0]):
        path = BridgePath(times=t, q=q[i], seed_used=0)
        for l, z in enumerate(levels):
            outcome = apply_policy(path, ThresholdPolicy(z), n)
            assert payoffs[i, l] == outcome.payoff
            assert bool(stopped[i, l]) == outcome.stopped


def test_config_validation():
    # any dimension and any start in [0, 1) x [0, inf) is valid
    SimConfig(params=ModelParams(2.5, 1), t0=0.5, q0=1.0)
    for q0 in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SimConfig(params=ModelParams(3, 1), q0=q0)
    for t0 in (1.0, -0.1, math.nan):
        with pytest.raises(ValueError):
            SimConfig(params=ModelParams(3, 1), t0=t0)
    with pytest.raises(ValueError):
        SimConfig(params=ModelParams(3, 1), scheme="euler_full_truncation")
    with pytest.raises(ValueError):
        ThresholdPolicy(0.0)


def test_exact_path_pins_and_stays_nonnegative():
    path = simulate_exact(_exact_config(n_steps=500))
    assert path.q[0] == 0.0
    assert path.q[-1] == 0.0
    assert path.times[0] == 0.0 and path.times[-1] == 1.0
    assert np.all(path.q >= 0.0)
    assert path.seed_used == path_seed(42, 0)


def test_exact_pinning_moment():
    # E[Q_t] = alpha t (1 - t) for the exact scheme; check the midpoint
    t = np.linspace(0.0, 1.0, 301)
    vals = np.empty(8000)
    for s in range(0, 8000, 1000):
        xi = np.empty((1000, 300, 3))
        for i in range(1000):
            xi[i] = _path_generator(123, s + i).standard_normal((300, 3))
        q = _exact_bridge_q(xi, t)
        vals[s : s + 1000] = q[:, 150]
    stderr = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 0.75) <= 3.0 * stderr


@pytest.mark.parametrize("alpha", [0.5, 3])
def test_off_origin_path_properties(alpha):
    cfg = SimConfig(params=ModelParams(alpha, 1), n_paths=1, n_steps=300, seed=11, t0=0.4, q0=2.0)
    path = simulate_exact(cfg)
    assert path.times[0] == 0.4 and path.times[-1] == 1.0
    assert path.q[0] == 2.0 and path.q[-1] == 0.0
    assert np.all(path.q[1:-1] > 0.0)


def test_drift_sign_flips_at_half_boundary_level():
    a, tau = 3.0, 0.4
    q_hi = 0.5 * a * tau * 1.01
    q_lo = 0.5 * a * tau * 0.99
    assert a - 2.0 * q_hi / tau < 0.0
    assert a - 2.0 * q_lo / tau > 0.0


def test_policy_on_flat_path():
    times = np.linspace(0.0, 1.0, 11)
    path = BridgePath(times=times, q=np.zeros(11), seed_used=0)
    out = apply_policy(path, ThresholdPolicy(1.0), 1.0)
    assert (out.tau, out.payoff, out.stopped) == (1.0, 0.0, False)


def test_policy_immediate_stop():
    times = np.linspace(0.5, 1.0, 6)
    q = np.full(6, 5.0)
    path = BridgePath(times=times, q=q, seed_used=0)
    out = apply_policy(path, ThresholdPolicy(1.0), 2.0)
    assert out.tau == 0.5
    assert out.payoff == 5.0  # Q^{n/2} with n = 2
    assert out.stopped


def test_single_path_matches_engine_row():
    # one path: simulate_exact is the schedule replayed with no stopping, and
    # the engine's block 0 draws the same stream
    cfg = _exact_config(n_paths=1, n_steps=300, seed=77)
    path = simulate_exact(cfg)
    _, q_ref = _replay_q(77, 0, 3, cfg.n_steps, 1, (math.inf,))
    assert np.array_equal(path.q, q_ref[0])
    outcome = apply_policy(path, ThresholdPolicy(Z31), cfg.params.n)
    payoffs, stopped = _threshold_payoffs(cfg, np.array([Z31]))
    assert outcome.stopped
    assert payoffs[0, 0] == outcome.payoff
    assert bool(stopped[0, 0]) == outcome.stopped

    # fractional dimension, from the origin and from an interior start
    for t0, q0 in ((0.0, 0.0), (0.3, 0.4)):
        cfg = SimConfig(
            params=ModelParams(0.5, 1), n_paths=1, n_steps=300, seed=77, t0=t0, q0=q0
        )
        path = simulate_exact(cfg)
        t, q_ref = _replay_q(77, 0, 0.5, cfg.n_steps, 1, (math.inf,), t0, q0)
        assert np.array_equal(path.times, t)
        assert np.array_equal(path.q, q_ref[0])
        levels = np.array([0.2, 1.0, 1e6])
        payoffs, stopped = _threshold_payoffs(cfg, levels)
        for l, z in enumerate(levels):
            outcome = apply_policy(path, ThresholdPolicy(z), cfg.params.n)
            assert payoffs[0, l] == outcome.payoff
            assert bool(stopped[0, l]) == outcome.stopped
        assert stopped[0, 0] and not stopped[0, 2]


def test_mc_estimate_matches_candidate_level():
    cfg = _exact_config(n_paths=20_000, n_steps=500, seed=99)
    res = mc_estimate(cfg, ThresholdPolicy(Z31))
    assert res.ci95 == (res.mean - 1.96 * res.stderr, res.mean + 1.96 * res.stderr)
    assert abs(res.mean - B_REF) <= max(3.0 * res.stderr, 0.01 * B_REF)
    assert 0.0 <= res.stop_fraction <= 1.0
    assert res.warning is None


def test_mc_estimate_deterministic_and_warns_on_tiny_samples():
    cfg = _exact_config(n_paths=2000, n_steps=200, seed=5)
    r1 = mc_estimate(cfg, ThresholdPolicy(Z31))
    r2 = mc_estimate(cfg, ThresholdPolicy(Z31))
    assert r1 == r2
    tiny = mc_estimate(_exact_config(n_paths=50, n_steps=100, seed=5), ThresholdPolicy(Z31))
    assert tiny.warning is not None


# paths that end just before, at and just after the first and the fourth time
# block edge, plus one-step and long paths
_EDGE_STEPS = [e + k for e in (_BLOCK_STEPS, 4 * _BLOCK_STEPS) for k in (-1, 0, 1, 2)]


@pytest.mark.parametrize("n_steps", [1, *_EDGE_STEPS, 300, 2000])
def test_engine_carry_across_time_blocks_is_bit_exact(n_steps):
    # levels: one stopped almost at once, the candidate, one never reached;
    # alpha 1..5 draws 0, 0, 1, 1, 2 exponentials, with the squared normal at 2 and 4
    levels = np.array([1e-3, Z31, 1e6])
    for alpha in (1, 2, 3, 4, 5):
        cfg = SimConfig(params=ModelParams(alpha, 1), n_paths=1, n_steps=n_steps, seed=5)
        path = simulate_exact(cfg)
        t, q_ref = _replay_q(5, 0, alpha, n_steps, 1, levels)
        assert np.array_equal(path.q, q_ref[0])
        assert np.array_equal(path.times, t)
        payoffs, stopped = _threshold_payoffs(cfg, levels)
        for l, z in enumerate(levels):
            outcome = apply_policy(path, ThresholdPolicy(z), cfg.params.n)
            assert payoffs[0, l] == outcome.payoff
            assert bool(stopped[0, l]) == outcome.stopped
        assert payoffs[0, 2] == 0.0 and not stopped[0, 2]
        if n_steps > 1:
            assert stopped[0, 0]


def test_engine_matches_replayed_whole_paths():
    # Replays the engine's draw schedule on one stream in Python floats: each
    # time block gives the next draws to the paths with an unhit level, in
    # path order, and every payoff comes from the replayed whole path.
    for alpha in (1, 2, 3, 4, 5):
        cfg = SimConfig(params=ModelParams(alpha, 1), n_paths=60, n_steps=400, seed=8)
        z = find_Z(cfg.params).value
        levels = np.array([0.5 * z, z, 2.0 * z])
        t, q = _replay_q(cfg.seed, 0, alpha, cfg.n_steps, cfg.n_paths, levels)
        payoffs, stopped = _threshold_payoffs(cfg, levels)
        reached_end = q[:, -2] > 0.0
        assert 0 < reached_end.sum() < cfg.n_paths
        _assert_engine_matches_paths(t, q, levels, payoffs, stopped, cfg.params.n)


@pytest.mark.parametrize(
    "alpha, t0, q0", [(0.5, 0.0, 0.0), (2.5, 0.0, 0.0), (0.5, 0.5, 0.1), (2.5, 0.3, 0.4), (3, 0.5, 0.3), (1, 0.2, 0.5)]
)
def test_engine_matches_replayed_paths_any_dimension_and_start(alpha, t0, q0):
    # as above, for the mixture kernel and for starts off the origin; the
    # lowest level is met at node 0 by the off-origin starts
    cfg = SimConfig(params=ModelParams(alpha, 1), n_paths=40, n_steps=150, seed=8, t0=t0, q0=q0)
    z = find_Z(cfg.params).value
    levels = np.array([0.25, z, 2.0 * z])
    t, q = _replay_q(cfg.seed, 0, alpha, cfg.n_steps, cfg.n_paths, levels, t0, q0)
    payoffs, stopped = _threshold_payoffs(cfg, levels)
    assert 0 < stopped[:, 2].sum() < cfg.n_paths
    _assert_engine_matches_paths(t, q, levels, payoffs, stopped, cfg.params.n)


@pytest.mark.parametrize("alpha", [1, 3, 0.5])
def test_odd_block_last_path_is_a_group_of_one(alpha):
    # 41 paths: the last pair has no path B.  The engine steps the missing
    # path but never scores it, and path A matches the replay like any other
    cfg = SimConfig(params=ModelParams(alpha, 1), n_paths=41, n_steps=150, seed=8)
    z = find_Z(cfg.params).value
    levels = np.array([0.5 * z, z, 2.0 * z])
    t, q = _replay_q(cfg.seed, 0, alpha, cfg.n_steps, cfg.n_paths, levels)
    payoffs, stopped = _threshold_payoffs(cfg, levels)
    assert 0 < stopped[:, 2].sum() < cfg.n_paths
    _assert_engine_matches_paths(t, q, levels, payoffs, stopped, cfg.params.n)


def _tight_equality_level(cfg):
    """A path p and a level z that q meets with equality at node 1, kept only by the slack.

    Draws the first time block with the engine's kernel; every pair is still
    open there, so its draws do not depend on the levels.  Looks for a path
    whose q_1 == z (1 - t_1) exactly while X_max (1 - t_1) < z in floating
    point, X_max the path's largest X in the block: the pre-filter's bound is
    tight there, and only ``_PEAK_SLACK`` keeps the hit.  The start must not
    meet z.
    """
    t, step, x0, width = _sampler(cfg)
    n = cfg.n_paths
    pairs = n // 2
    buf = np.empty(width * _BLOCK_STEPS * pairs)
    x = step(_path_generator(cfg.seed, 0), np.full((2, pairs), x0), 0, _BLOCK_STEPS, buf)
    x = x.transpose(0, 2, 1).reshape(_BLOCK_STEPS, n)  # column 2i + s: path s of pair i
    tau = 1.0 - t[1]
    for p in range(n):
        q1 = x[0, p] * (tau * tau)
        z = q1 / tau
        for z in (z, np.nextafter(z, 0.0), np.nextafter(z, math.inf)):
            if z * tau == q1 and x[:, p].max() * tau < z and cfg.q0 < z * (1.0 - t[0]):
                return p, float(z)
    raise AssertionError("no path meets a level with equality at a tight bound")


@pytest.mark.parametrize("alpha", [1, 3, 0.5])
def test_engine_matches_replayed_paths_late_start(alpha):
    # from t0 = 0.95 the factor 1 - t falls from 0.05 to 0, by up to a factor
    # 21 inside the last time block, so the pre-filter's bound
    # X_max (1 - t_{j0+1}) is loose there and tight at a block's first node.
    # The first level equals one path's q/(1-t) at node 1 exactly, at a tight
    # bound: the engine must stop that path there, as apply_policy does.
    # Such a path is rare at alpha = 3; seed 10 has one for every alpha here.
    t0, q0 = 0.95, 0.02
    cfg = SimConfig(params=ModelParams(alpha, 1), n_paths=120, n_steps=150, seed=10, t0=t0, q0=q0)
    p, z_eq = _tight_equality_level(cfg)
    z = find_Z(cfg.params).value
    levels = np.array([z_eq, z, 2.0 * z])
    t, q = _replay_q(cfg.seed, 0, alpha, cfg.n_steps, cfg.n_paths, levels, t0, q0)
    payoffs, stopped = _threshold_payoffs(cfg, levels)
    assert q[p, 1] == z_eq * (1.0 - t[1])
    assert stopped[p, 0] and payoffs[p, 0] == _payoff(q[p, 1], cfg.params.n)
    assert 0 < stopped[:, 2].sum() < cfg.n_paths
    _assert_engine_matches_paths(t, q, levels, payoffs, stopped, cfg.params.n)


@pytest.mark.parametrize("alpha", [0.5, 3])
def test_start_in_stopping_region_stops_at_node_zero(alpha):
    # q0 >= Z (1 - t0) stops every path at t0 with payoff q0^{n/2}, including
    # the start exactly on the boundary; the other level still simulates
    t0 = 0.5
    for q0 in (Z31 * (1.0 - t0), 2.0):
        cfg = SimConfig(params=ModelParams(alpha, 1), n_paths=300, n_steps=100, seed=4, t0=t0, q0=q0)
        payoffs, stopped = _threshold_payoffs(cfg, np.array([Z31, 5.0]))
        assert stopped[:, 0].all()
        assert np.all(payoffs[:, 0] == _payoff(q0, 1.0))
        assert not stopped[:, 1].all()
        one = dataclasses.replace(cfg, n_paths=1)
        path = simulate_exact(one)
        payoffs, _ = _threshold_payoffs(one, np.array([Z31, 5.0]))
        assert apply_policy(path, ThresholdPolicy(Z31), 1.0) == StoppingOutcome(t0, payoffs[0, 0], True)
        assert payoffs[0, 1] == apply_policy(path, ThresholdPolicy(5.0), 1.0).payoff
        res = mc_estimate(cfg, ThresholdPolicy(Z31))
        assert res.stop_fraction == 1.0
        assert res.mean == pytest.approx(payoffs[0, 0], rel=1e-14)


@pytest.mark.parametrize("n", [0.5, 1.0, 2.0, 3.0])
def test_engine_and_policy_payoffs_agree_bit_for_bit(n):
    # the engine raises the array of newly stopped q to n/2 at once and
    # apply_policy one float64 element of a path; numpy's ``**`` rounds those
    # two differently (a sqrt fast path for arrays at exponent 0.5, libm pow
    # for scalars), so a payoff must not depend on which form evaluated it
    q = np.random.default_rng(4).uniform(1e-3, 30.0, 100_000)
    engine = _payoff(q, n)
    policy = np.array([_payoff(x, n) for x in q])
    assert np.array_equal(engine, policy)
    times = np.array([0.5, 1.0])
    for x, want in zip(q[:2000], policy[:2000]):
        path = BridgePath(times=times, q=np.array([x, 0.0]), seed_used=0)
        assert apply_policy(path, ThresholdPolicy(1e-6), n).payoff == want


@pytest.mark.parametrize("n", [0.5, 1.0, 3.0])
def test_engine_payoffs_match_policy_on_many_stops(n):
    # two steps and a tiny level: every path stops at the one free node, so
    # the engine evaluates 5 x 4096 payoffs as arrays.  ``**`` on a float64
    # scalar calls libm pow, which misses the array kernels on ~1e-3 of q at
    # n = 1 and ~5% at n = 0.5 and 3, so a scalar form that bypassed _payoff
    # would disagree on about 16 payoffs here at n = 1
    blocks = 5
    cfg = SimConfig(params=ModelParams(3, n), n_paths=blocks * _BLOCK_PATHS, n_steps=2, seed=8)
    replays = [_replay_q(cfg.seed, b, 3, cfg.n_steps, _BLOCK_PATHS, (1e-9,)) for b in range(blocks)]
    t = replays[0][0]
    q = np.concatenate([r[1] for r in replays])
    payoffs, stopped = _threshold_payoffs(cfg, np.array([1e-9]))
    assert stopped.all()
    for i in range(cfg.n_paths):
        path = BridgePath(times=t, q=q[i], seed_used=0)
        assert payoffs[i, 0] == apply_policy(path, ThresholdPolicy(1e-9), n).payoff


def _grid_q(alpha, n_paths, seed, t0=0.0, q0=0.0, side=0):
    """q at the 9 inner nodes of linspace(t0, 1, 11) for n_paths independent rows.

    One kernel call on n_paths antithetic pairs keeps path A (``side`` 0) or
    path B (``side`` 1) of each, so the rows are independent.  The kernel is the engine's choice for alpha:
    radial for integer alpha, the Poisson mixture otherwise.  It returns X,
    and q = (1-t)(1-t) X is the product the engine forms.
    """
    cfg = SimConfig(params=ModelParams(alpha, 1), t0=t0, q0=q0, n_steps=10)
    t, step, x0, width = _sampler(cfg)
    buf = np.empty(width * 9 * n_paths)
    x = step(np.random.default_rng(seed), np.full((2, n_paths), x0), 0, 9, buf)[:, side]
    tau = 1.0 - t[1:-1, None]
    return t[1:-1], x * (tau * tau)


def _case_seed(base, alpha):
    # integer alpha keeps the seed base + alpha these tests have always used
    return base + alpha if float(alpha).is_integer() else 10 * base + int(10 * alpha)


@pytest.mark.parametrize("alpha", [1, 2, 3, 5, 0.5, 2.5])
def test_kernel_marginals_are_scaled_chi_square(alpha):
    # Q_t / (t (1 - t)) ~ chi2_alpha for the bridge from 0 to 0
    t, q = _grid_q(alpha, 20_000, _case_seed(100, alpha))
    for j in (0, 4, 8):
        scaled = q[j] / (t[j] * (1.0 - t[j]))
        assert stats.kstest(scaled, stats.chi2(alpha).cdf).pvalue > 1e-3


@pytest.mark.parametrize("alpha", [0.5, 1, 2.5, 3])
def test_kernel_marginals_off_origin_are_noncentral_chi_square(alpha):
    # from Q_{t0} = q0, X = Q/(1-t)^2 at s = t/(1-t) is BESQ^alpha from
    # X0 = q0/(1-t0)^2 at s0, so X(s)/(s - s0) ~ ncx2(alpha, X0/(s - s0))
    t0, q0 = 0.3, 0.4
    t, q = _grid_q(alpha, 20_000, _case_seed(300, alpha), t0, q0)
    s0, x0 = t0 / (1.0 - t0), q0 / (1.0 - t0) ** 2
    for j in (0, 4, 8):
        gap = t[j] / (1.0 - t[j]) - s0
        scaled = q[j] / (1.0 - t[j]) ** 2 / gap
        assert stats.kstest(scaled, stats.ncx2(alpha, x0 / gap).cdf).pvalue > 1e-3


def _assert_bridge_covariance(alpha, t, q):
    # Cov(Q_t1, Q_t2) = 2 alpha t1^2 (1 - t2)^2 for t1 <= t2
    for i, j in ((0, 4), (4, 8), (0, 8), (4, 4)):
        x = q[i] - q[i].mean()
        y = q[j] - q[j].mean()
        prod = x * y
        cov = prod.sum() / (prod.size - 1)
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        target = 2.0 * alpha * t[i] ** 2 * (1.0 - t[j]) ** 2
        assert abs(cov - target) <= 4.0 * se


@pytest.mark.parametrize("alpha", [1, 2, 3, 5, 0.5, 2.5])
def test_kernel_covariance_matches_bridge(alpha):
    t, q = _grid_q(alpha, 20_000, _case_seed(200, alpha))
    _assert_bridge_covariance(alpha, t, q)


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_mirrored_path_has_the_bridge_law(alpha):
    # path B of each pair steps by -sqrt(ds) xi, reflected at alpha = 1; its
    # marginals and covariance are those of path A
    t, q = _grid_q(alpha, 20_000, _case_seed(400, alpha), side=1)
    for j in (0, 4, 8):
        scaled = q[j] / (t[j] * (1.0 - t[j]))
        assert stats.kstest(scaled, stats.chi2(alpha).cdf).pvalue > 1e-3
    _assert_bridge_covariance(alpha, t, q)


def test_stopped_payoffs_match_component_sum_reference():
    # same grid and level, independent draws: the radial engine and the old
    # sum of three squared scalar bridges must give one payoff law
    cfg = _exact_config(n_paths=20_000, n_steps=200, seed=61)
    payoffs, stopped = _threshold_payoffs(cfg, np.array([Z31]))
    t = np.linspace(0.0, 1.0, cfg.n_steps + 1)
    gen = np.random.default_rng(62)
    ref = []
    for _ in range(10):
        q = _exact_bridge_q(gen.standard_normal((2000, cfg.n_steps, 3)), t)
        mask = (q >= Z31 * (1.0 - t)) & (t < 1.0)
        hit = mask.any(axis=1)
        first = np.argmax(mask[hit], axis=1)
        ref.append(np.sqrt(q[hit, first]))
    ref = np.concatenate(ref)
    assert stats.ks_2samp(payoffs[stopped[:, 0], 0], ref).pvalue > 1e-3


@pytest.mark.parametrize("threads", ["2", "3"])
def test_results_independent_of_worker_count_across_blocks(monkeypatch, threads):
    # two full path blocks, a partial third with an odd path count, whose
    # last path is a group of one, and 22 time blocks per path
    cfg = _exact_config(n_paths=2 * _BLOCK_PATHS + 501, n_steps=700, seed=17)
    mult = [0.5, 0.75, 1.0, 1.5, 2.0]
    monkeypatch.setenv("BESSELSTOP_THREADS", "1")
    est1 = mc_estimate(cfg, ThresholdPolicy(Z31))
    sweep1 = policy_sweep(cfg, mult, Z=Z31)
    monkeypatch.setenv("BESSELSTOP_THREADS", threads)
    assert mc_estimate(cfg, ThresholdPolicy(Z31)) == est1
    assert policy_sweep(cfg, mult, Z=Z31) == sweep1


def _traced_peak(cfg):
    """tracemalloc peak, in bytes, of one mc_estimate at the level Z31."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mc_estimate(cfg, ThresholdPolicy(Z31))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_exact_engine_temporaries_stay_small(monkeypatch):
    monkeypatch.setenv("BESSELSTOP_THREADS", "1")
    cfg = _exact_config(n_paths=_BLOCK_PATHS, n_steps=2000, seed=3)
    # measured 2.36 MB for one full block: two 1 MB draw slabs; q is formed
    # only on the pre-filter's candidate columns
    assert _traced_peak(cfg) < 4 * 2**20


def test_mixture_block_temporaries_stay_small(monkeypatch):
    monkeypatch.setenv("BESSELSTOP_THREADS", "1")
    cfg = SimConfig(params=ModelParams(0.5, 1), n_paths=_BLOCK_PATHS, n_steps=2000, seed=3)
    # measured 1.95 MB for one full block: one 1 MB draw slab and a few
    # per-step rows
    assert _traced_peak(cfg) < 3 * 2**20


def test_results_independent_of_worker_count(monkeypatch):
    cfgs = (
        _exact_config(n_paths=3000, n_steps=150, seed=13),
        SimConfig(params=ModelParams(2.5, 1.5), t0=0.2, q0=0.3, n_paths=_BLOCK_PATHS + 300, n_steps=100, seed=13),
    )
    for cfg in cfgs:
        monkeypatch.setenv("BESSELSTOP_THREADS", "1")
        r1 = mc_estimate(cfg, ThresholdPolicy(Z31))
        monkeypatch.setenv("BESSELSTOP_THREADS", "4")
        r2 = mc_estimate(cfg, ThresholdPolicy(Z31))
        assert r1 == r2


@pytest.mark.parametrize("alpha, bound", [(3, -0.2), (1, -0.1)])
def test_antithetic_pair_payoffs_are_negatively_correlated(alpha, bound):
    # the two paths of a pair mirror xi and share chi2; at the candidate level
    # their payoffs correlate at about -0.45 at (3, 1) and -0.27 at (1, 1).
    # Equal steps would make them equal, and a signed coordinate at alpha = 1
    # would make -W and W the same path, both correlation +1
    cfg = SimConfig(params=ModelParams(alpha, 1), n_paths=8192, n_steps=2000, seed=71)
    payoffs, _ = _threshold_payoffs(cfg, np.array([find_Z(cfg.params).value]))
    assert np.corrcoef(payoffs[0::2, 0], payoffs[1::2, 0])[0, 1] < bound


def test_stderr_is_taken_over_pair_means():
    # 2001 paths: 1000 pairs and a last path that is a group of one
    cfg = _exact_config(n_paths=2001, n_steps=200, seed=23)

    def pair_stderr(col):
        groups = np.append(col[:-1].reshape(-1, 2).mean(axis=1), col[-1])
        return groups.std(ddof=1) / math.sqrt(groups.size)

    payoffs, _ = _threshold_payoffs(cfg, np.array([Z31]))
    res = mc_estimate(cfg, ThresholdPolicy(Z31))
    assert res.mean == np.mean(payoffs[:, 0])
    assert res.stderr == pytest.approx(pair_stderr(payoffs[:, 0]), rel=1e-12)
    # antithetic pairs beat independent paths at (3, 1)
    assert res.stderr < 0.9 * payoffs[:, 0].std(ddof=1) / math.sqrt(cfg.n_paths)

    table = policy_sweep(cfg, [1.0, 1.5], Z=Z31)
    payoffs, _ = _threshold_payoffs(cfg, np.array([Z31, 1.5 * Z31]))
    assert table.rows[0].result.stderr == pytest.approx(pair_stderr(payoffs[:, 0]), rel=1e-12)
    diff = payoffs[:, 0] - payoffs[:, 1]
    assert table.rows[1].paired_stderr_vs_candidate == pytest.approx(pair_stderr(diff), rel=1e-12)


def test_pair_stderr_matches_independent_paths_for_the_mixture():
    # the mixture's two paths draw independently, so the pair-mean stderr and
    # the independent-path formula estimate the same quantity
    cfg = SimConfig(params=ModelParams(0.5, 1), n_paths=16_384, n_steps=500, seed=29)
    z = find_Z(cfg.params).value
    res = mc_estimate(cfg, ThresholdPolicy(z))
    payoffs, _ = _threshold_payoffs(cfg, np.array([z]))
    independent = payoffs[:, 0].std(ddof=1) / math.sqrt(cfg.n_paths)
    assert abs(res.stderr / independent - 1.0) < 0.1


@pytest.mark.parametrize(
    "alpha, n, t0, q0, n_steps",
    [(0.5, 1, 0.0, 0.0, 2000), (0.5, 1, 0.5, 0.1, 1000), (2.5, 1.5, 0.3, 0.4, 1000)],
)
def test_mc_estimate_matches_value_any_dimension_and_start(alpha, n, t0, q0, n_steps):
    # the exact sampler against the series value U*(t0, q0), with no floor;
    # the full-truncation Euler scheme it replaced read +14.8 se at (0.5, 1)
    # from the origin on 8192 x 2000
    params = ModelParams(alpha, n)
    sol = build_candidate(params)
    cfg = SimConfig(params=params, t0=t0, q0=q0, n_paths=8192, n_steps=n_steps, seed=20240601)
    res = mc_estimate(cfg, ThresholdPolicy(sol.Z))
    assert abs(res.mean - U_star(sol, t0, q0)) <= 3.0 * res.stderr


def test_reflecting_bridge_level():
    cfg = SimConfig(params=ModelParams(1, 1), n_paths=20_000, n_steps=500, seed=2024)
    res = mc_estimate(cfg, ThresholdPolicy(1.0))
    target = math.exp(-0.5)
    assert abs(res.mean - target) <= max(3.0 * res.stderr, 0.01 * target)


def test_sweep_single_multiplier_equals_estimate():
    cfg = _exact_config(n_paths=3000, n_steps=200, seed=21)
    table = policy_sweep(cfg, [1.0], Z=Z31)
    direct = mc_estimate(cfg, ThresholdPolicy(Z31))
    assert table.rows[0].result == direct
    assert table.rows[0].paired_mean_vs_candidate is None


def test_sweep_candidate_dominates_with_common_random_numbers():
    cfg = _exact_config(n_paths=15_000, n_steps=400, seed=31)
    table = policy_sweep(cfg, [0.5, 0.75, 1.0, 1.5, 2.0], Z=Z31)
    assert table.argmax_mean() == 1.0
    for row in table.rows:
        if row.multiplier == 1.0:
            continue
        assert row.paired_mean_vs_candidate >= -row.paired_stderr_vs_candidate


def test_sweep_validation():
    cfg = _exact_config()
    with pytest.raises(ValueError):
        policy_sweep(cfg, [])
    with pytest.raises(ValueError):
        policy_sweep(cfg, [-1.0])


def test_path_seeds_are_distinct_and_stable():
    assert path_seed(1, 0) != path_seed(1, 1)
    assert path_seed(1, 0) == path_seed(1, 0)
    assert path_seed(2, 0) != path_seed(1, 0)
