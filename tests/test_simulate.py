import dataclasses
import math
import threading
import tracemalloc
import types

import numpy as np
import pytest
from scipy import stats

from besselstop import simulate
from besselstop.boundary import find_Z
from besselstop.series import ModelParams
from besselstop.simulate import (
    BridgePath,
    SimConfig,
    StoppingOutcome,
    ThresholdPolicy,
    _BLOCK_PATHS,
    _BLOCK_STEPS,
    _CAPS,
    _Walk,
    _cap_nodes,
    _path_generator,
    _payoff,
    _simulate_levels,
    apply_policy,
    mc_estimate,
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


def _threshold_payoffs(cfg, levels):
    """The engine's per-path payoffs and stop flags, one column per level."""
    walk = _simulate_levels(cfg, levels)
    rows = range(len(levels))
    return np.array([walk.payoffs(l) for l in rows]).T, np.array([walk.stopped(l) for l in rows]).T


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
    alpha >= 1 it draws (k, n) normals and, for alpha > 1, (k, n) gammas G
    of shape (alpha-1)/2.  Path A of each pair then takes the radial step
    U = R + sqrt(ds) xi, path B U = R - sqrt(ds) xi, both X = U^2 + 2 ds G
    with the pair's G and R = sqrt X (at alpha = 1, X = U^2 and R = |U|), one
    float at a time.  alpha < 1 draws, step by step, (2, n) Poisson counts N,
    path A of every pair first, then (2, n) gammas of shape alpha/2 + N, and
    sets X = 2 ds G.
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
        if alpha < 1:
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
        xi = gen.standard_normal((k, n)).tolist()
        g = gen.standard_gamma(0.5 * (alpha - 1), (k, n)).tolist() if alpha > 1 else None
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
                        x = u * u + g[ii][c] * (ds + ds)
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
        path = BridgePath(times=t, q=q[i])
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
    for z in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="Z must be positive and finite"):
            ThresholdPolicy(z)


@pytest.mark.parametrize(
    "field, bad",
    [("n_paths", 100.5), ("n_paths", 100.0), ("n_paths", True), ("n_paths", "100"),
     ("n_steps", 20.5), ("n_steps", False), ("n_steps", None), ("seed", 1.5), ("seed", True)],
)
def test_config_rejects_non_integer_counts(field, bad):
    # a float used to pass and fail later, deep in the engine; a bool is no count
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SimConfig(params=ModelParams(3, 1), **{field: bad})


def test_config_accepts_numpy_integer_counts():
    cfg = SimConfig(params=ModelParams(3, 1), n_paths=np.int64(40), n_steps=np.int32(10), seed=np.uint64(1))
    assert mc_estimate(cfg, ThresholdPolicy(Z31)).n_paths == 40


@pytest.mark.parametrize("env, n_tasks, want", [("1", 5, 1), ("3", 5, 3), ("3", 2, 2), (" 2 ", 4, 2), ("", 1, 1)])
def test_worker_count_reads_a_positive_integer(monkeypatch, env, n_tasks, want):
    monkeypatch.setenv("BESSELSTOP_THREADS", env)
    assert simulate.worker_count(n_tasks) == want


def test_worker_count_defaults_to_the_cpus_the_process_may_run_on(monkeypatch):
    # taskset and cpusets narrow the affinity mask, not os.cpu_count()
    monkeypatch.delenv("BESSELSTOP_THREADS", raising=False)
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
    assert simulate.worker_count(8) == 1


@pytest.mark.parametrize("env", ["two", "-3", "0", "1.5", "+2", " "])
def test_worker_count_rejects_a_bad_thread_setting(monkeypatch, env):
    monkeypatch.setenv("BESSELSTOP_THREADS", env)
    with pytest.raises(ValueError, match="BESSELSTOP_THREADS must be a positive integer"):
        simulate.worker_count(4)


def test_exact_path_pins_and_stays_nonnegative():
    path = simulate_exact(_exact_config(n_steps=500))
    assert path.q[0] == 0.0
    assert path.q[-1] == 0.0
    assert path.times[0] == 0.0 and path.times[-1] == 1.0
    assert np.all(path.q >= 0.0)


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
    path = BridgePath(times=times, q=np.zeros(11))
    out = apply_policy(path, ThresholdPolicy(1.0), 1.0)
    assert (out.tau, out.payoff, out.stopped) == (1.0, 0.0, False)


def test_policy_immediate_stop():
    times = np.linspace(0.5, 1.0, 6)
    q = np.full(6, 5.0)
    path = BridgePath(times=times, q=q)
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
    # alpha 1 draws no gamma, the others one slab of shape (alpha-1)/2: 0.5,
    # 0.75, 1, 1.5 and 2
    levels = np.array([1e-3, Z31, 1e6])
    for alpha in (1, 2, 2.5, 3, 4, 5):
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
    for alpha in (1, 2, 2.5, 3, 4, 5):
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
    # as above, for fractional alpha on either kernel and for starts off the
    # origin; the lowest level is met at node 0 by the off-origin starts
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


def _step(walk, gen, state, j0, j1, buf):
    """One kernel call outside the engine, holding the walk's lock, as ``_Walk.step`` expects."""
    with walk.lock:
        return walk.step(gen, state, j0, j1, buf)


def _tight_equality_level(cfg):
    """A path p and a level z that q meets with equality at node 1, kept only by the slack.

    Draws the first time block with the engine's kernel; every pair is still
    open there, so its draws do not depend on the levels.  Looks for a path
    whose q_1 == z (1 - t_1) exactly while X_max (1 - t_1) < z in floating
    point, X_max the path's largest X in the block: the pre-filter's bound is
    tight there, and only ``_PEAK_SLACK`` keeps the hit.  The start must not
    meet z.  Returns ``(p, z)``, or None when no path of the block qualifies.
    """
    walk = _Walk(cfg)
    n = cfg.n_paths
    pairs = n // 2
    buf = np.empty(walk.width * _BLOCK_STEPS * pairs)
    x = _step(walk, _path_generator(cfg.seed, 0), np.full((2, pairs), walk.start), 0, _BLOCK_STEPS, buf)
    x = x.transpose(0, 2, 1).reshape(_BLOCK_STEPS, n)  # column 2i + s: path s of pair i
    tau = walk.tau[1]
    for p in range(n):
        q1 = x[0, p] * (tau * tau)
        z = q1 / tau
        for z in (z, np.nextafter(z, 0.0), np.nextafter(z, math.inf)):
            if z * tau == q1 and x[:, p].max() * tau < z and cfg.q0 < z * walk.tau[0]:
                return p, float(z)
    return None


@pytest.mark.parametrize("alpha", [1, 3, 0.5])
def test_engine_matches_replayed_paths_late_start(alpha):
    # from t0 = 0.95 the factor 1 - t falls from 0.05 to 0, by up to a factor
    # 21 inside the last time block, so the pre-filter's bound
    # X_max (1 - t_{j0+1}) is loose there and tight at a block's first node.
    # The first level equals one path's q/(1-t) at node 1 exactly, at a tight
    # bound: the engine must stop that path there, as apply_policy does.
    # Such a path is rare at alpha = 3 (4 of seeds 5-15 have one), so the
    # test takes the first seed from 10 on that has one; a change to the draw
    # schedule then moves the seed instead of breaking the test.
    t0, q0 = 0.95, 0.02
    for seed in range(10, 61):
        cfg = SimConfig(params=ModelParams(alpha, 1), n_paths=120, n_steps=150, seed=seed, t0=t0, q0=q0)
        hit = _tight_equality_level(cfg)
        if hit is not None:
            break
    assert hit is not None, "no seed in 10-60 has a path meeting a level at a tight bound"
    p, z_eq = hit
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
        path = BridgePath(times=times, q=np.array([x, 0.0]))
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
        path = BridgePath(times=t, q=q[i])
        assert payoffs[i, 0] == apply_policy(path, ThresholdPolicy(1e-9), n).payoff


def _grid_q(alpha, n_paths, seed, t0=0.0, q0=0.0, side=0):
    """q at the 9 inner nodes of linspace(t0, 1, 11) for n_paths independent rows.

    One kernel call on n_paths antithetic pairs keeps path A (``side`` 0) or
    path B (``side`` 1) of each, so the rows are independent.  The kernel is
    the engine's choice for alpha: radial for alpha >= 1, the Poisson mixture
    below.  It returns X, and q = (1-t)(1-t) X is the product the engine
    forms.
    """
    cfg = SimConfig(params=ModelParams(alpha, 1), t0=t0, q0=q0, n_steps=10)
    walk = _Walk(cfg)
    buf = np.empty(walk.width * 9 * n_paths)
    x = _step(walk, np.random.default_rng(seed), np.full((2, n_paths), walk.start), 0, 9, buf)[:, side]
    return walk.t[1:-1], x * walk.tau2[1:-1, None]


def _case_seed(base, alpha):
    # integer alpha keeps the seed base + alpha these tests have always used
    return base + alpha if float(alpha).is_integer() else 10 * base + int(10 * alpha)


@pytest.mark.parametrize("alpha", [1, 2, 3, 5, 0.5, 1.5, 2.5])
def test_kernel_marginals_are_scaled_chi_square(alpha):
    # Q_t / (t (1 - t)) ~ chi2_alpha for the bridge from 0 to 0
    t, q = _grid_q(alpha, 20_000, _case_seed(100, alpha))
    for j in (0, 4, 8):
        scaled = q[j] / (t[j] * (1.0 - t[j]))
        assert stats.kstest(scaled, stats.chi2(alpha).cdf).pvalue > 1e-3


@pytest.mark.parametrize("alpha", [0.5, 1, 1.5, 2.5, 3])
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


@pytest.mark.parametrize("alpha", [1, 2, 3, 5, 0.5, 1.5, 2.5])
def test_kernel_covariance_matches_bridge(alpha):
    t, q = _grid_q(alpha, 20_000, _case_seed(200, alpha))
    _assert_bridge_covariance(alpha, t, q)


@pytest.mark.parametrize("alpha", [1, 1.5, 2, 2.5, 3])
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
    # last path is a group of one, and 22 time blocks per path; one dimension
    # per kernel branch: the exponential fill at 3, the reflected step at 1,
    # the gamma fill at 2.5 and the mixture, which steps without the run's
    # lock, at 0.5
    mult = [0.5, 0.75, 1.0, 1.5, 2.0]
    for params in (ModelParams(3, 1), ModelParams(1, 1), ModelParams(2.5, 1.5), ModelParams(0.5, 1)):
        cfg = SimConfig(params=params, n_paths=2 * _BLOCK_PATHS + 501, n_steps=700, seed=17)
        z = find_Z(params).value
        monkeypatch.setenv("BESSELSTOP_THREADS", "1")
        est1 = mc_estimate(cfg, ThresholdPolicy(z))
        sweep1 = policy_sweep(cfg, mult, Z=z)
        monkeypatch.setenv("BESSELSTOP_THREADS", threads)
        assert mc_estimate(cfg, ThresholdPolicy(z)) == est1, params
        assert policy_sweep(cfg, mult, Z=z) == sweep1, params


@pytest.mark.parametrize("where", ["fill", "step"])
def test_worker_error_releases_the_run_lock(monkeypatch, where):
    # a worker that raises while it holds the run's lock, or inside a fill
    # that let it go, must still leave the lock free: else the other worker
    # waits on it for ever and the pool's shutdown joins that worker for ever
    monkeypatch.setenv("BESSELSTOP_THREADS", "2")
    cfg = _exact_config(n_paths=_BLOCK_PATHS + 100, n_steps=300, seed=4)
    real_generator, real_block = simulate._path_generator, simulate._radial_block

    class FailingFill:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, out):
            raise RuntimeError("fill failed")

        def __getattr__(self, name):
            return getattr(self.gen, name)

    def generator(seed, block):
        gen = real_generator(seed, block)
        return FailingFill(gen) if block == 1 else gen

    def radial_block(gen, state, *args):
        # the second path block starts with 50 pairs, the first with 2048, so
        # the second fails at its first time block, holding the run's lock
        if state.shape[1] != _BLOCK_PATHS // 2:
            raise RuntimeError("step failed")
        return real_block(gen, state, *args)

    if where == "fill":
        monkeypatch.setattr(simulate, "_path_generator", generator)
    else:
        monkeypatch.setattr(simulate, "_radial_block", radial_block)
    locks = []

    def lock():
        locks.append(threading.Lock())
        return locks[-1]

    monkeypatch.setattr(simulate, "threading", types.SimpleNamespace(Lock=lock))
    outcome = []

    def call():
        try:
            mc_estimate(cfg, ThresholdPolicy(Z31))
        except RuntimeError as exc:
            outcome.append(str(exc))
        else:
            outcome.append(None)

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=30)
    hung = worker.is_alive()
    if hung:
        # free what the failed worker kept, so the waiting worker, and with
        # it the pool's shutdown at exit, can finish
        for held in locks:
            if held.locked():
                held.release()
    assert not hung, "mc_estimate hung after a worker raised"
    assert outcome == [f"{where} failed"]
    monkeypatch.undo()
    monkeypatch.setenv("BESSELSTOP_THREADS", "2")
    assert mc_estimate(cfg, ThresholdPolicy(Z31)).n_paths == cfg.n_paths


def _traced_peak(cfg, z=Z31):
    """tracemalloc peak, in bytes, of one mc_estimate at the level z."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mc_estimate(cfg, ThresholdPolicy(z))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_exact_engine_temporaries_stay_small(monkeypatch):
    monkeypatch.setenv("BESSELSTOP_THREADS", "1")
    cfg = _exact_config(n_paths=_BLOCK_PATHS, n_steps=2000, seed=3)
    # measured 2.42 MB for one full block: the 1.5 MB draw buffer and the
    # block's 0.5 MB record of X at the caps; q is formed only on the
    # pre-filter's candidate columns
    assert _traced_peak(cfg) < 4 * 2**20


@pytest.mark.parametrize("alpha", [41, 40.5])
def test_radial_block_temporaries_stay_small_at_large_alpha(monkeypatch, alpha):
    # one gamma slab carries chi2_{alpha-1} for every alpha > 1, so the draw
    # buffer is 3 slabs whatever alpha is (2.7 MB here); a slab per
    # exponential, (alpha-1)//2 of them, would take 12.6 MB at alpha 41
    monkeypatch.setenv("BESSELSTOP_THREADS", "1")
    params = ModelParams(alpha, 1)
    cfg = SimConfig(params=params, n_paths=_BLOCK_PATHS, n_steps=2000, seed=3)
    assert _traced_peak(cfg, find_Z(params).value) < 4 * 2**20


def test_unit_gamma_draws_are_standard_exponentials():
    # the alpha = 3 kernel fills its shape-1 gamma slab with
    # standard_exponential, which is faster: numpy's standard_gamma(1) is
    # standard_exponential, bit for bit, and advances the SFC64 stream alike,
    # so the draws after it match as well
    a, b = _path_generator(5, 0), _path_generator(5, 0)
    x, y = np.empty((_BLOCK_STEPS, _BLOCK_PATHS // 2)), np.empty((_BLOCK_STEPS, _BLOCK_PATHS // 2))
    a.standard_gamma(1.0, out=x)
    b.standard_exponential(out=y)
    assert x.tobytes() == y.tobytes()
    assert a.standard_normal(1000).tobytes() == b.standard_normal(1000).tobytes()
    assert a.standard_gamma(1.0, 1000).tobytes() == b.standard_exponential(1000).tobytes()


def test_mixture_block_temporaries_stay_small(monkeypatch):
    monkeypatch.setenv("BESSELSTOP_THREADS", "1")
    cfg = SimConfig(params=ModelParams(0.5, 1), n_paths=_BLOCK_PATHS, n_steps=2000, seed=3)
    # measured 2.24 MB for one full block: one 1 MB draw slab, a few
    # per-step rows and the block's 0.5 MB record of X at the caps
    assert _traced_peak(cfg) < 3 * 2**20


def test_results_independent_of_worker_count(monkeypatch):
    cfgs = (
        _exact_config(n_paths=3000, n_steps=150, seed=13),
        SimConfig(params=ModelParams(2.5, 1.5), t0=0.2, q0=0.3, n_paths=_BLOCK_PATHS + 300, n_steps=100, seed=13),
        SimConfig(params=ModelParams(0.5, 1.5), t0=0.2, q0=0.3, n_paths=_BLOCK_PATHS + 300, n_steps=100, seed=13),
    )
    for cfg in cfgs:
        monkeypatch.setenv("BESSELSTOP_THREADS", "1")
        r1 = mc_estimate(cfg, ThresholdPolicy(Z31))
        monkeypatch.setenv("BESSELSTOP_THREADS", "4")
        r2 = mc_estimate(cfg, ThresholdPolicy(Z31))
        # every field, the control-variate and the plain estimate alike
        assert r1 == r2
        assert (r1.plain_mean, r1.plain_stderr) == (r2.plain_mean, r2.plain_stderr)


def _pair_means(values):
    """Pair means along the last axis, an odd last value a group of one."""
    even = values.shape[-1] - values.shape[-1] % 2
    pairs = values[..., :even].reshape(values.shape[:-1] + (-1, 2)).mean(axis=-1)
    return np.concatenate((pairs, values[..., even:]), axis=-1)


def _record_paths(monkeypatch):
    """Whole X paths of a single-threaded engine run, read off its kernel calls.

    Wraps ``_Walk.step`` and returns a function that assembles the
    recorded calls into X with shape (n_paths, n_steps + 1), NaN where a
    dropped pair drew no more.  A call's rows are the previous call's rows
    that stayed open, in order; each is found by its kernel state, which
    equals that row's state after the previous call.  A call from node 0
    starts the next path block.
    """
    monkeypatch.setenv("BESSELSTOP_THREADS", "1")
    calls = []
    real = simulate._Walk.step

    def recorded(walk, gen, state, j0, j1, buf):
        before = state.copy()
        x = real(walk, gen, state, j0, j1, buf)
        calls.append((j0, before, x.copy(), state.copy()))
        return x

    monkeypatch.setattr(simulate._Walk, "step", recorded)

    def paths(cfg):
        # an odd path count's last pair still steps a path B
        x = np.full((cfg.n_paths + 1, cfg.n_steps + 1), np.nan)
        x[:, 0] = cfg.q0 / (1.0 - cfg.t0) ** 2
        block = -1
        for j0, before, xk, after in calls:
            if j0 == 0:
                block += 1
                rows = np.arange(before.shape[1])
            else:
                keep, i = [], 0
                for col in before.T:
                    while not np.array_equal(prev[:, i], col):
                        i += 1
                    keep.append(i)
                    i += 1
                rows = rows[keep]
            for side in (0, 1):
                x[block * _BLOCK_PATHS + 2 * rows + side, j0 + 1 : j0 + 1 + xk.shape[0]] = xk[:, side].T
            prev = after
        calls.clear()
        return x[: cfg.n_paths]

    return paths


def _reference_controls(x, cfg, node):
    """Per-path controls of a level that stops at ``node``: M1 at each cap, then M2 at each cap.

    Rebuilt from the whole paths ``x`` with the time change s = t/(1-t), not
    the engine's sum of ds: with S = s - s0, M1 = X - alpha S - X0 and
    M2 = X^2 - (2 alpha + 4) S X + alpha (alpha + 2) S^2 - X0^2, read at
    min(tau, c).
    """
    a = cfg.params.alpha
    t = np.linspace(cfg.t0, 1.0, cfg.n_steps + 1)[:-1]
    s = t / (1.0 - t) - cfg.t0 / (1.0 - cfg.t0)
    x = x[:, :-1]
    x0 = x[0, 0]
    m1 = x - a * s - x0
    m2 = x * x - (2 * a + 4) * s * x + a * (a + 2) * s * s - x0 * x0
    at = np.minimum(node[:, None], _cap_nodes(cfg.n_steps))
    rows = np.arange(x.shape[0])[:, None]
    return np.concatenate((m1[rows, at].T, m2[rows, at].T))


def _moments(controls, values):
    """Sum over pair means of w w^T, w = (1, controls, values)."""
    y = _pair_means(values)
    w = np.vstack([np.ones(y.size), _pair_means(controls), y])
    return w @ w.T


def _lstsq_estimate(values, controls):
    """Intercept and residual stderr of pair means on control pair means, by ``lstsq``."""
    y = _pair_means(values)
    design = np.column_stack([np.ones(y.size), _pair_means(controls).T])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return coef[0], math.sqrt(resid @ resid / (y.size - rank) / y.size)


def _placement(i, n_steps):
    return min(max(round((1.0 - (1.0 - i / 17) ** 2) * n_steps), 1), n_steps - 1)


def test_cap_nodes():
    assert _cap_nodes(1).size == 0
    assert _cap_nodes(2).tolist() == [1]
    assert _cap_nodes(3).tolist() == [1, 2]
    assert _cap_nodes(2000).tolist() == [_placement(i, 2000) for i in range(1, _CAPS + 1)]
    # crowded toward t -> 1: the last cap sits at 1 - (1/17)^2 = 0.9965
    assert _cap_nodes(2000).tolist()[-3:] == [1938, 1972, 1993]
    assert _cap_nodes(200).size == _CAPS
    assert _cap_nodes(40).size == 14
    assert _cap_nodes(20).tolist() == sorted({_placement(i, 20) for i in range(1, 17)})


@pytest.mark.parametrize(
    "alpha, n, t0, q0", [(3, 1, 0.0, 0.0), (1, 1, 0.0, 0.0), (0.5, 1, 0.0, 0.0), (2.5, 1.5, 0.3, 0.4)]
)
def test_controls_have_mean_zero_by_optional_stopping(alpha, n, t0, q0, monkeypatch):
    # X - alpha S - X0 and X^2 - (2 alpha + 4) S X + alpha (alpha + 2) S^2 - X0^2
    # stopped at min(tau, c) have mean zero at every cap.  A coarse grid makes
    # alpha ds large, so a control read one node off its S, or with a wrong
    # coefficient, sits many se from zero
    params = ModelParams(alpha, n)
    cfg = SimConfig(params=params, t0=t0, q0=q0, n_paths=16_384, n_steps=40, seed=7)
    paths = _record_paths(monkeypatch)
    walk = _simulate_levels(cfg, np.array([find_Z(params).value]))
    x = paths(cfg)
    stopped = walk.stopped(0)
    assert np.array_equal(x[stopped, walk.node[0][stopped]], walk.x_stop[0][stopped])
    own = walk.own[0]
    k = 2 * _cap_nodes(cfg.n_steps).size
    assert own.shape == (k + 2, k + 2) and own[0, 0] == cfg.n_paths // 2
    # the engine's moments are those of the controls rebuilt from whole paths
    ref = _moments(_reference_controls(x, cfg, walk.node[0]), walk.payoffs(0))
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    assert np.all(np.abs(own - ref) <= 1e-10 * scale)
    # each control's pair mean, from the engine's own sums
    groups = own[0, 0]
    mean = own[0, 1:-1] / groups
    se = np.sqrt((np.diag(own)[1:-1] / groups - mean * mean) / (groups - 1))
    assert np.all(np.abs(mean) <= 4.0 * se)
    # the regression keeps the plain estimate's answer
    res = mc_estimate(cfg, ThresholdPolicy(find_Z(params).value))
    assert abs(res.mean - res.plain_mean) <= 3.0 * res.plain_stderr
    assert res.stderr < res.plain_stderr
    assert res.controls == k


@pytest.mark.parametrize("alpha", [3, 1])
def test_control_variates_cut_the_stderr(alpha):
    # the headline sizes per op: the pair-mean variance falls to 0.0014 at
    # (3, 1) and 0.0009 at (1, 1) of the plain one, stderr 0.038 and 0.029
    # of the plain stderr
    cfg = SimConfig(params=ModelParams(alpha, 1), n_paths=8192, n_steps=2000, seed=20240601)
    res = mc_estimate(cfg, ThresholdPolicy(find_Z(cfg.params).value))
    assert res.stderr <= 0.1 * res.plain_stderr
    assert res.controls == 2 * _CAPS
    assert res.ci95 == (res.mean - 1.96 * res.stderr, res.mean + 1.96 * res.stderr)
    assert abs(res.mean - res.plain_mean) <= 3.0 * res.plain_stderr


def test_stderr_is_calibrated_across_seeds():
    # the regression's stderr against the spread of its mean over 48 seeds:
    # the ratio reads 0.99 at (3, 1) and 0.99 at (1, 1), 32 controls on 1024
    # pairs each
    for alpha in (3, 1):
        params = ModelParams(alpha, 1)
        z = find_Z(params).value
        runs = [
            mc_estimate(SimConfig(params=params, n_paths=2048, n_steps=500, seed=s), ThresholdPolicy(z))
            for s in range(48)
        ]
        ratio = np.std([r.mean for r in runs], ddof=1) / np.mean([r.stderr for r in runs])
        assert 0.75 <= ratio <= 1.33


@pytest.mark.parametrize("n_steps", [1, 2, 3])
@pytest.mark.parametrize("n_paths", [1, 2, 3, 99, 1001])
def test_control_variates_at_the_edges(n_steps, n_paths):
    # no interior cap, one or two caps, too few groups and an odd last path:
    # nothing raises or warns, and without the regression the plain estimate
    # is the estimate
    cfg = _exact_config(n_paths=n_paths, n_steps=n_steps, seed=3)
    res = mc_estimate(cfg, ThresholdPolicy(0.5))
    table = policy_sweep(cfg, [0.5, 1.0, 2.0], Z=0.5)
    # one path leaves every stderr nan, which equality alone would reject
    np.testing.assert_equal(dataclasses.astuple(table.rows[1].result), dataclasses.astuple(res))
    groups = (n_paths + 1) // 2
    k = 2 * _cap_nodes(n_steps).size  # two controls per cap
    if k == 0 or groups <= 4 * (k + 1):
        assert res.mean == res.plain_mean
        assert res.stderr == res.plain_stderr or math.isnan(res.plain_stderr)
        assert res.controls == 0
    else:
        assert abs(res.mean - res.plain_mean) <= 3.0 * res.plain_stderr


def test_start_in_stopping_region_has_zero_controls():
    # every path stops at t0, so every control is X0 - X0 = 0: the plain
    # estimate stands, and the level the start misses still regresses
    cfg = SimConfig(params=ModelParams(3, 1), t0=0.5, q0=2.0, n_paths=2000, n_steps=100, seed=4)
    walk = _simulate_levels(cfg, np.array([Z31, 5.0]))
    # every sum with a control in it is zero
    assert not walk.own[0, 1:-1].any()
    res = mc_estimate(cfg, ThresholdPolicy(Z31))
    assert (res.mean, res.stderr, res.controls) == (res.plain_mean, res.plain_stderr, 0)
    table = policy_sweep(cfg, [1.0, 5.0 / Z31], Z=Z31)
    assert table.rows[0].result == res
    assert table.rows[1].result.stderr < table.rows[1].result.plain_stderr


@pytest.mark.parametrize("alpha, bound", [(3, -0.2), (1, -0.1)])
def test_antithetic_pair_payoffs_are_negatively_correlated(alpha, bound):
    # the two paths of a pair mirror xi and share chi2; at the candidate level
    # their payoffs correlate at about -0.45 at (3, 1) and -0.27 at (1, 1).
    # Equal steps would make them equal, and a signed coordinate at alpha = 1
    # would make -W and W the same path, both correlation +1
    cfg = SimConfig(params=ModelParams(alpha, 1), n_paths=8192, n_steps=2000, seed=71)
    payoffs, _ = _threshold_payoffs(cfg, np.array([find_Z(cfg.params).value]))
    assert np.corrcoef(payoffs[0::2, 0], payoffs[1::2, 0])[0, 1] < bound


def test_stderr_is_taken_over_pair_means(monkeypatch):
    # 2001 paths: 1000 pairs and a last path that is a group of one
    cfg = _exact_config(n_paths=2001, n_steps=200, seed=23)

    def pair_stderr(col):
        groups = np.append(col[:-1].reshape(-1, 2).mean(axis=1), col[-1])
        return groups.std(ddof=1) / math.sqrt(groups.size)

    payoffs, _ = _threshold_payoffs(cfg, np.array([Z31]))
    res = mc_estimate(cfg, ThresholdPolicy(Z31))
    assert res.plain_mean == np.mean(payoffs[:, 0])
    assert res.plain_stderr == pytest.approx(pair_stderr(payoffs[:, 0]), rel=1e-12)
    # antithetic pairs beat independent paths at (3, 1)
    assert res.plain_stderr < 0.9 * payoffs[:, 0].std(ddof=1) / math.sqrt(cfg.n_paths)

    table = policy_sweep(cfg, [1.0, 1.5], Z=Z31)
    paths = _record_paths(monkeypatch)
    walk = _simulate_levels(cfg, np.array([Z31, 1.5 * Z31]), candidate=0)
    x = paths(cfg)
    assert table.rows[0].result.plain_stderr == pytest.approx(pair_stderr(walk.payoffs(0)), rel=1e-12)
    # the estimates are the regression of the pair means on the controls' pair
    # means, recomputed by lstsq on a design with an intercept column from
    # controls rebuilt on the whole paths
    controls = [_reference_controls(x, cfg, walk.node[l]) for l in (0, 1)]
    for row, l in zip(table.rows, (0, 1)):
        mean, se = _lstsq_estimate(walk.payoffs(l), controls[l])
        assert (row.result.mean, row.result.stderr) == pytest.approx((mean, se), rel=1e-12)
    mean, se = _lstsq_estimate(walk.payoffs(0) - walk.payoffs(1), controls[0] - controls[1])
    assert table.rows[1].paired_mean_vs_candidate == pytest.approx(mean, rel=1e-12)
    assert table.rows[1].paired_stderr_vs_candidate == pytest.approx(se, rel=1e-12)


def test_pair_stderr_matches_independent_paths_for_the_mixture():
    # the mixture's two paths draw independently, so the pair-mean stderr and
    # the independent-path formula estimate the same quantity
    cfg = SimConfig(params=ModelParams(0.5, 1), n_paths=16_384, n_steps=500, seed=29)
    z = find_Z(cfg.params).value
    res = mc_estimate(cfg, ThresholdPolicy(z))
    payoffs, _ = _threshold_payoffs(cfg, np.array([z]))
    independent = payoffs[:, 0].std(ddof=1) / math.sqrt(cfg.n_paths)
    assert abs(res.plain_stderr / independent - 1.0) < 0.1


@pytest.mark.parametrize(
    "alpha, n, t0, q0, n_steps",
    [(0.5, 1, 0.0, 0.0, 2000), (0.5, 1, 0.5, 0.1, 1000), (1.5, 1, 0.0, 0.0, 2000), (2.5, 1.5, 0.3, 0.4, 1000)],
)
def test_mc_estimate_matches_value_any_dimension_and_start(alpha, n, t0, q0, n_steps):
    # the exact sampler against the series value U*(t0, q0), with no floor;
    # the full-truncation Euler scheme it replaced read +14.8 se at (0.5, 1)
    # from the origin on 8192 x 2000
    params = ModelParams(alpha, n)
    sol = build_candidate(params)
    cfg = SimConfig(params=params, t0=t0, q0=q0, n_paths=8192, n_steps=n_steps, seed=20240601)
    # the plain estimate: the control variates' sharper stderr exposes the
    # grid's O(h) monitoring bias at (0.5, 1), -3.69 and -4.55 se here
    res = mc_estimate(cfg, ThresholdPolicy(sol.Z))
    assert abs(res.plain_mean - U_star(sol, t0, q0)) <= 3.0 * res.plain_stderr


def test_reflecting_bridge_level():
    cfg = SimConfig(params=ModelParams(1, 1), n_paths=20_000, n_steps=500, seed=2024)
    res = mc_estimate(cfg, ThresholdPolicy(1.0))
    target = math.exp(-0.5)
    assert abs(res.mean - target) <= max(3.0 * res.stderr, 0.01 * target)


def test_sweep_single_multiplier_equals_estimate():
    # one case per kernel branch (the exponential fill at 3, the reflected
    # step at 1, the gamma fill at 2.5, the mixture at 0.5), two of them from
    # an inner start, and 4097 paths: two path blocks, the second a lone
    # path that is a group of one
    cases = (
        (ModelParams(3, 1), 0.0, 0.0, 3000),
        (ModelParams(1, 1), 0.0, 0.0, 3000),
        (ModelParams(2.5, 1.5), 0.3, 0.2, 3000),
        (ModelParams(0.5, 1), 0.5, 0.1, 3000),
        (ModelParams(3, 1), 0.0, 0.0, _BLOCK_PATHS + 1),
    )
    for params, t0, q0, n_paths in cases:
        cfg = SimConfig(params=params, t0=t0, q0=q0, n_paths=n_paths, n_steps=200, seed=21)
        z = find_Z(params).value
        table = policy_sweep(cfg, [1.0], Z=z)
        direct = mc_estimate(cfg, ThresholdPolicy(z))
        np.testing.assert_equal(dataclasses.astuple(table.rows[0].result), dataclasses.astuple(direct))
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
    for bad in ([-1.0], [1.0, math.nan], [math.inf]):
        with pytest.raises(ValueError, match="multiplier"):
            policy_sweep(cfg, bad)
    with pytest.raises(ValueError, match="Z must be positive"):
        policy_sweep(cfg, [1.0], Z=math.nan)
    # a repeat walks one level twice, and a second m = 1 row would pair
    # against the first with a mean and stderr of 0
    with pytest.raises(ValueError, match=r"distinct, got 0\.5, 1\.0 repeated"):
        policy_sweep(cfg, [1.0, 0.5, 1.0, 0.5, 0.5], Z=1.0)


def test_path_seeds_are_distinct_and_stable():
    # the (master seed, block index) key alone fixes a block's stream
    def draws(master, index):
        return _path_generator(master, index).standard_normal(4)

    assert np.array_equal(draws(1, 0), draws(1, 0))
    assert not np.array_equal(draws(1, 0), draws(1, 1))
    assert not np.array_equal(draws(2, 0), draws(1, 0))
