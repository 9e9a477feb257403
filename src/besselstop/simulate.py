"""Path simulation of the squared bridge and Monte Carlo policy evaluation.

Two schemes: an exact one for integer dimension and full-truncation Euler for
arbitrary dimension.  The exact scheme uses the time change
Q_t = (1 - t)^2 X(t/(1 - t)), where X is a squared Bessel process of
dimension alpha started at 0, and walks X with its exact radial transition
X' = (sqrt X + sqrt(ds) xi)^2 + ds chi2_{alpha-1} between grid nodes, so
every grid marginal has the exact law and the path ends at zero.  Per step it
draws one normal plus chi2_{alpha-1} as (alpha-1)//2 doubled standard
exponentials and, for even alpha, one squared normal; at alpha = 1 it carries
the signed coordinate and the chi-square term vanishes.

Reproducibility contract: the exact engine simulates paths in fixed blocks of
``_BLOCK_PATHS`` (4096), walked ``_BLOCK_STEPS`` (32) steps at a time; each
block owns one SFC64 stream keyed by (master seed, block index) through a
seed sequence, and the block size does not depend on the worker count, so
results are a deterministic function of the configuration and the threshold
levels, bit identical for any number of worker threads.  The exact engine
draws only for paths that some level has not stopped yet, so the variates a
path receives depend on the levels of the call: one call shares its paths
across all its levels (common random numbers), but calls with different level
sets do not share paths.  The Euler scheme keeps one stream per (master seed,
path index) and runs ``_EULER_BLOCK_PATHS`` paths per task.  Reductions run
over the fully assembled per-path payoff arrays with numpy's pairwise
summation.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .series import ModelParams

SCHEME_EXACT = "exact_integer_dim"
SCHEME_EULER = "euler_full_truncation"
_MAX_U64 = 2**64
_BLOCK_PATHS = 4096  # paths per worker task and per RNG stream in the exact engine
_BLOCK_STEPS = 32  # steps drawn per call in the exact engine
# paths per Euler task: its (paths, n_steps) normal matrix is 16 MB at 2000 steps
_EULER_BLOCK_PATHS = 1024
# Relative slack of the level pre-filter.  q >= z (1-t) in floating point
# implies q * (1/(1-t)) >= z (1 - 3 eps), so 1e-12 never drops a true hit.
_PEAK_SLACK = 1.0 - 1e-12


def path_seed(master_seed: int, path_index: int) -> int:
    """64-bit key of stream (master seed, path_index), derived statelessly.

    The seed sequence of (master seed, path_index) also seeds that stream's
    SFC64 generator.  The index names a block of ``_BLOCK_PATHS`` paths in the
    exact engine and a single path in the Euler scheme; single-path
    simulations use index 0.
    """
    ss = np.random.SeedSequence((master_seed, path_index))
    return int(ss.generate_state(1, np.uint64)[0])


def _path_generator(master_seed: int, path_index: int) -> np.random.Generator:
    # Stateless split: the (master, index) pair keys the stream, so any
    # thread count reproduces identical paths.
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence((master_seed, path_index)))
    )


def worker_count(n_tasks: int) -> int:
    """Worker cap: BESSELSTOP_THREADS if set, else hardware parallelism."""
    env = os.environ.get("BESSELSTOP_THREADS")
    cap = int(env) if env else (os.cpu_count() or 1)
    return max(1, min(cap, n_tasks))


@dataclass(frozen=True)
class SimConfig:
    """Inputs of a simulation run; immutable and fully determining with the seed."""

    params: ModelParams
    t0: float = 0.0
    q0: float = 0.0
    n_paths: int = 200_000
    n_steps: int = 2000
    seed: int = 20240601
    scheme: str = SCHEME_EXACT
    eps_end: float = 1e-6

    def __post_init__(self):
        if not (0.0 <= self.t0 < 1.0):
            raise ValueError("t0 must lie in [0, 1)")
        if self.q0 < 0.0:
            raise ValueError("q0 must be nonnegative")
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("n_paths and n_steps must be positive")
        if not (0 <= self.seed < _MAX_U64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.scheme not in (SCHEME_EXACT, SCHEME_EULER):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (0.0 < self.eps_end < 1.0 - self.t0):
            raise ValueError("eps_end must lie in (0, 1 - t0)")
        if self.scheme == SCHEME_EXACT:
            a = self.params.alpha
            if abs(a - round(a)) > 1e-12 or a < 1.0:
                raise ValueError("exact scheme needs a positive integer dimension")
            if self.q0 != 0.0:
                raise ValueError("exact scheme starts from q0 = 0")


@dataclass(frozen=True, eq=False)
class BridgePath:
    """One discretized trajectory with the key of the stream that produced it.

    Single-path simulations draw from the SFC64 stream (seed, 0), so
    ``seed_used`` is ``path_seed(seed, 0)``; for the exact scheme that is also
    the stream of path block 0, and a one-path engine run reproduces this
    trajectory.
    """

    times: np.ndarray
    q: np.ndarray
    seed_used: int


@dataclass(frozen=True)
class ThresholdPolicy:
    """Stop at the first grid time s with Q_s >= Z (1 - s)."""

    Z: float

    def __post_init__(self):
        if self.Z <= 0.0:
            raise ValueError("Z must be positive")


@dataclass(frozen=True)
class StoppingOutcome:
    tau: float
    payoff: float
    stopped: bool


@dataclass(frozen=True)
class MCResult:
    """Monte Carlo aggregate; ci95 = mean +/- 1.96 stderr."""

    mean: float
    stderr: float
    n_paths: int
    ci95: tuple[float, float]
    stop_fraction: float
    warning: str | None = None


@dataclass(frozen=True)
class SweepRow:
    multiplier: float
    Z_level: float
    result: MCResult
    paired_mean_vs_candidate: float | None = None
    paired_stderr_vs_candidate: float | None = None


@dataclass(frozen=True)
class SweepTable:
    base_Z: float
    rows: tuple[SweepRow, ...]

    def argmax_mean(self) -> float:
        best = max(self.rows, key=lambda r: r.result.mean)
        return best.multiplier


def _exact_times(config: SimConfig) -> np.ndarray:
    return np.linspace(0.0, 1.0, config.n_steps + 1)


def _euler_times(config: SimConfig) -> np.ndarray:
    return np.linspace(config.t0, 1.0 - config.eps_end, config.n_steps + 1)


def _radial_steps(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step tables of the time-changed walk to nodes 1 .. m-1 of the grid t.

    Node j sits at time s_j = t_j/(1-t_j) of X, so the step to node j+1 has
    length ds_j = h_j/((1-t_j)(1-t_{j+1})), and q = (1-t)^2 X there.  Returns
    sqrt(ds), ds and (1-t_{j+1})^2 per step; the pinned node m (s = infinity)
    is excluded, its q is the exact zero of the bridge.
    """
    tau = 1.0 - t
    ds = np.diff(t)[:-1] / (tau[:-2] * tau[1:-1])
    return np.sqrt(ds), ds, tau[1:-1] * tau[1:-1]


def _draws_per_step(d: int) -> int:
    """Variates one step draws per path: xi, the exponentials, the odd normal."""
    n_exp, odd = divmod(d - 1, 2)
    return 1 + n_exp + odd


def _radial_block(gen, state, d, sd, ds, tau2, buf=None):
    """q at the next k nodes for every row; ``state`` advances in place.

    ``state`` holds sqrt X per row, or the signed coordinate when d = 1.  The
    block draws, in this order: (k, n) normals xi; then chi2_{d-1} as
    (d-1)//2 doubled standard exponentials of shape ((d-1)//2, k, n) and, when
    d - 1 is odd, one squared (k, n) normal.  Each step is U = R + sqrt(ds) xi,
    X = U^2 + ds chi2, R = sqrt X; at d = 1 it is the single add
    U += sqrt(ds) xi and X = U^2.  Without the squared normal (odd d) the
    doubling is folded into the scale, 2 sum(e) ds == sum(e) (2 ds) exactly.
    The result, q = (1-t)^2 X with shape (k, n), is a view of ``buf``.
    """
    k, n = sd.size, state.size
    size = k * n
    n_exp, odd = divmod(d - 1, 2)
    if buf is None:
        buf = np.empty(_draws_per_step(d) * size)
    x = buf[:size].reshape(k, n)
    gen.standard_normal(out=x)
    x *= sd[:, None]
    if d == 1:
        x[0] += state
        np.cumsum(x, axis=0, out=x)
        state[:] = x[-1]
        x *= x
    else:
        chi = buf[size : 2 * size].reshape(k, n)
        scale = ds
        if n_exp:
            e = buf[size : (1 + n_exp) * size].reshape(n_exp, k, n)
            gen.standard_exponential(out=e)
            for extra in e[1:]:
                chi += extra
            if odd:
                chi += chi
            else:
                scale = ds + ds
        if odd:
            g = buf[(1 + n_exp) * size : (2 + n_exp) * size].reshape(k, n)
            gen.standard_normal(out=g)
            g *= g
            if n_exp:
                chi += g
            else:
                chi = g
        chi *= scale[:, None]
        for u, c in zip(x, chi):
            np.add(state, u, out=u)
            np.multiply(u, u, out=u)
            np.add(u, c, out=u)
            np.sqrt(u, out=state)
    x *= tau2[:, None]
    return x


def simulate_exact(config: SimConfig) -> BridgePath:
    """One exact path: the time-changed BESQ^alpha walk of the engine.

    Draws from stream (seed, 0) in the engine's time blocks, through the same
    kernel, so a one-path engine run reproduces it bit for bit.  Every grid
    marginal has the exact law, and the pinned node is the exact zero.
    Requires integer dimension and a start at (t, q) = (0, 0).
    """
    if config.scheme != SCHEME_EXACT:
        raise ValueError("config.scheme must be exact_integer_dim")
    if config.t0 != 0.0:
        raise ValueError("exact scheme starts at t0 = 0")
    d = int(round(config.params.alpha))
    t = _exact_times(config)
    gen = _path_generator(config.seed, 0)
    sd, ds, tau2 = _radial_steps(t)
    state = np.zeros(1)
    q = np.zeros(config.n_steps + 1)
    last = config.n_steps - 1
    for j0 in range(0, last, _BLOCK_STEPS):
        j1 = min(j0 + _BLOCK_STEPS, last)
        q[j0 + 1 : j1 + 1] = _radial_block(gen, state, d, sd[j0:j1], ds[j0:j1], tau2[j0:j1])[:, 0]
    return BridgePath(times=t, q=q, seed_used=path_seed(config.seed, 0))


def simulate_euler(config: SimConfig) -> BridgePath:
    """One full-truncation Euler path on [t0, 1 - eps_end].

    The state is clipped at zero after every step, which keeps the square
    root well-defined without biasing the positive part of the dynamics.
    """
    if config.scheme != SCHEME_EULER:
        raise ValueError("config.scheme must be euler_full_truncation")
    a = config.params.alpha
    t = _euler_times(config)
    gen = _path_generator(config.seed, 0)
    xi = gen.standard_normal(config.n_steps)
    q = np.empty(config.n_steps + 1)
    q[0] = config.q0
    for j in range(config.n_steps):
        tau = 1.0 - t[j]
        h = t[j + 1] - t[j]
        drift = (a - 2.0 * q[j] / tau) * h
        q[j + 1] = max(0.0, q[j] + drift + 2.0 * math.sqrt(q[j] * h) * xi[j])
    return BridgePath(times=t, q=q, seed_used=path_seed(config.seed, 0))


def _payoff(q, n: float):
    """Q^{n/2} through the power ufunc, for a float64 scalar or an array.

    The ``**`` operator rounds the two differently: on arrays it takes a sqrt
    fast path at exponent 0.5 (and SIMD kernels where the CPU has them), on a
    float64 scalar it calls libm ``pow``.  The ufunc runs one loop for both,
    so the engine and ``apply_policy`` agree bit for bit.
    """
    return np.power(q, 0.5 * n)


def apply_policy(path: BridgePath, policy: ThresholdPolicy, n: float) -> StoppingOutcome:
    """First grid time with Q >= Z (1 - t); payoff Q^{n/2} there.

    The pinned node at t = 1 never triggers: a path that reaches it untouched
    keeps the zero payoff that pinning forces.
    """
    mask = (path.times < 1.0) & (path.q >= policy.Z * (1.0 - path.times))
    if mask.any():
        j = int(np.argmax(mask))
        return StoppingOutcome(
            tau=float(path.times[j]),
            payoff=float(_payoff(path.q[j], n)),
            stopped=True,
        )
    return StoppingOutcome(tau=1.0, payoff=0.0, stopped=False)


def _run_chunk_exact(config, levels, t, start, stop, payoffs, stopped):
    """Payoffs of the path block [start, stop), simulated a time block at a time.

    ``start`` is a multiple of ``_BLOCK_PATHS`` and names the block's stream.
    Rows are the block's paths that still have an unhit level.  Each time
    block draws fresh variates for those rows only and applies the radial
    transition of ``_radial_block``, so a path stops costing draws once every
    level has stopped it.  The draws are independent of the history that
    chose the rows, so every surviving path keeps the exact law.  The radial
    state carries across time blocks; a one-path block therefore reproduces
    ``simulate_exact`` on the same stream bit for bit.
    """
    d = int(round(config.params.alpha))
    m = stop - start
    gen = _path_generator(config.seed, start // _BLOCK_PATHS)
    sd, ds, tau2 = _radial_steps(t)
    tau = 1.0 - t
    inv_tau = 1.0 / tau[:-1]
    # nodes 1 .. n_steps - 1 can stop a path; the pinned node never does
    last = config.n_steps - 1

    rows = np.arange(m)  # block-local index of each active row
    state = np.zeros(m)  # radial state at the current node
    open_ = np.ones((m, levels.size), dtype=bool)
    # one buffer serves every time block, so draws never fault in fresh pages
    buf = np.empty(_draws_per_step(d) * m * min(_BLOCK_STEPS, last))
    for j0 in range(0, last, _BLOCK_STEPS):
        j1 = min(j0 + _BLOCK_STEPS, last)
        q = _radial_block(gen, state, d, sd[j0:j1], ds[j0:j1], tau2[j0:j1], buf)
        bound = tau[j0 + 1 : j1 + 1, None]
        # per row, the block's largest q/(1-t): only rows with peak >= z can
        # hit level z, so the exact test below runs on those columns alone
        peak = (q * inv_tau[j0 + 1 : j1 + 1, None]).max(axis=0)
        for l, z in enumerate(levels):
            cand = np.flatnonzero(open_[:, l] & (peak >= z * _PEAK_SLACK))
            if cand.size == 0:
                continue
            mask = q[:, cand] >= z * bound
            hit = mask.any(axis=0)
            first = np.argmax(mask[:, hit], axis=0)
            cand = cand[hit]
            payoffs[start + rows[cand], l] = _payoff(q[first, cand], config.params.n)
            stopped[start + rows[cand], l] = True
            open_[cand, l] = False
        keep = open_.any(axis=1)
        if not keep.all():
            rows, state, open_ = rows[keep], state[keep], open_[keep]
            if rows.size == 0:
                break


def _run_chunk_euler(config, levels, t, start, stop, payoffs, stopped):
    a = config.params.alpha
    n = config.params.n
    m = stop - start
    xi = np.empty((m, config.n_steps))
    for i in range(m):
        gen = _path_generator(config.seed, start + i)
        xi[i] = gen.standard_normal(config.n_steps)
    qv = np.full(m, config.q0)
    hit = np.zeros((m, levels.size), dtype=bool)
    pay = np.zeros((m, levels.size))

    def record(node_t, q_now):
        for l, z in enumerate(levels):
            new = ~hit[:, l] & (q_now >= z * (1.0 - node_t))
            if new.any():
                pay[new, l] = _payoff(q_now[new], n)
                hit[new, l] = True

    record(t[0], qv)
    for j in range(config.n_steps):
        tau = 1.0 - t[j]
        h = t[j + 1] - t[j]
        qv = np.maximum(
            0.0, qv + (a - 2.0 * qv / tau) * h + 2.0 * np.sqrt(qv * h) * xi[:, j]
        )
        record(t[j + 1], qv)
    payoffs[start:stop] = pay
    stopped[start:stop] = hit


def _threshold_payoffs(
    config: SimConfig, levels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path payoffs under each threshold level, common random numbers."""
    levels = np.asarray(levels, dtype=float)
    n_paths = config.n_paths
    payoffs = np.zeros((n_paths, levels.size))
    stopped = np.zeros((n_paths, levels.size), dtype=bool)
    if config.scheme == SCHEME_EXACT:
        t, runner, block = _exact_times(config), _run_chunk_exact, _BLOCK_PATHS
    else:
        t, runner, block = _euler_times(config), _run_chunk_euler, _EULER_BLOCK_PATHS

    bounds = [(s, min(s + block, n_paths)) for s in range(0, n_paths, block)]
    workers = worker_count(len(bounds))
    if workers == 1:
        for s, e in bounds:
            runner(config, levels, t, s, e, payoffs, stopped)
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            futures = [
                ex.submit(runner, config, levels, t, s, e, payoffs, stopped)
                for s, e in bounds
            ]
            for f in futures:
                f.result()
    return payoffs, stopped


def _aggregate(payoff_col: np.ndarray, stopped_col: np.ndarray, n_paths: int) -> MCResult:
    mean = float(np.mean(payoff_col))
    if n_paths > 1:
        stderr = float(np.std(payoff_col, ddof=1) / math.sqrt(n_paths))
    else:
        stderr = float("nan")
    warning = "n_paths below 100; interval estimate unreliable" if n_paths < 100 else None
    return MCResult(
        mean=mean,
        stderr=stderr,
        n_paths=n_paths,
        ci95=(mean - 1.96 * stderr, mean + 1.96 * stderr),
        stop_fraction=float(np.mean(stopped_col)),
        warning=warning,
    )


def mc_estimate(config: SimConfig, policy: ThresholdPolicy) -> MCResult:
    """Mean payoff of the threshold policy over n_paths independent paths."""
    payoffs, stopped = _threshold_payoffs(config, np.array([policy.Z]))
    return _aggregate(payoffs[:, 0], stopped[:, 0], config.n_paths)


def policy_sweep(
    config: SimConfig,
    multipliers: list[float] | tuple[float, ...],
    Z: float | None = None,
) -> SweepTable:
    """Evaluate thresholds m * Z on one shared path ensemble.

    Common random numbers make the per-multiplier comparison paired; rows
    carry the paired difference statistics against the m = 1 row when it is
    present.  With the optimal Z the m = 1 row should have the maximal mean
    up to confidence-interval overlap.
    """
    mult = [float(m) for m in multipliers]
    if not mult or any(m <= 0.0 for m in mult):
        raise ValueError("multipliers must be positive")
    if Z is None:
        from .boundary import find_Z

        Z = find_Z(config.params).value
    levels = np.array([m * Z for m in mult])
    payoffs, stopped = _threshold_payoffs(config, levels)

    candidate_idx = None
    for i, m in enumerate(mult):
        if m == 1.0:
            candidate_idx = i
            break

    rows = []
    for i, m in enumerate(mult):
        res = _aggregate(payoffs[:, i], stopped[:, i], config.n_paths)
        pm = ps = None
        if candidate_idx is not None and i != candidate_idx:
            diff = payoffs[:, candidate_idx] - payoffs[:, i]
            pm = float(np.mean(diff))
            ps = float(np.std(diff, ddof=1) / math.sqrt(config.n_paths))
        rows.append(
            SweepRow(
                multiplier=m,
                Z_level=float(levels[i]),
                result=res,
                paired_mean_vs_candidate=pm,
                paired_stderr_vs_candidate=ps,
            )
        )
    return SweepTable(base_Z=float(Z), rows=tuple(rows))
