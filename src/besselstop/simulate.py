"""Path simulation of the squared bridge and Monte Carlo policy evaluation.

One exact sampler for every dimension alpha > 0 and every start (t0, q0).  It
uses the time change Q_t = (1 - t)^2 X(t/(1 - t)), where X is a squared
Bessel process of dimension alpha started at X0 = q0/(1 - t0)^2 at time
t0/(1 - t0), and walks X between the nodes of the grid linspace(t0, 1, n+1)
with an exact transition, so every grid marginal has the exact law and the
path ends at zero.  Integer alpha takes the radial step on R = sqrt X >= 0,
R' = sqrt((R + sqrt(ds) xi)^2 + ds chi2_{alpha-1}): one normal plus
chi2_{alpha-1} as (alpha-1)//2 doubled standard exponentials and, for even
alpha, one squared normal; at alpha = 1 the chi-square term vanishes and the
step is the reflected R' = |R + sqrt(ds) xi|, the exact BES(1) law.  Any
other alpha takes the Poisson mixture of the noncentral chi-square,
X' = 2 ds Gamma(alpha/2 + N) with N ~ Poisson(X/(2 ds)).  The kernels return
X; q = (1-t)(1-t) X is formed only where it is read: on the whole of a
``simulate_exact`` path, and in the engine on the paths a level's pre-filter
cannot rule out.

Antithetic pairs: paths 2i and 2i + 1 form pair i.  For integer alpha the
pair draws its variates once; path A steps by +sqrt(ds) xi, path B by
-sqrt(ds) xi, and both add the same ds chi2_{alpha-1}.  -xi has the law of
xi, so each path keeps the exact law and only the two paths of a pair depend
on each other; their payoffs are negatively correlated, and a pair costs the
draws of one path.  The mixture's two paths draw independently, so there
the pairs are bookkeeping only.  The mean is over all paths, and every
standard error is taken over pair means (``_pair_stderr``), so it is valid
for either kernel; an odd path count leaves the last path a group of one.

Reproducibility contract: the engine simulates paths in fixed blocks of
``_BLOCK_PATHS`` (4096), walked ``_BLOCK_STEPS`` (32) steps at a time; each
block owns one SFC64 stream keyed by (master seed, block index) through a
seed sequence, and the block size does not depend on the worker count, so
results are a deterministic function of the configuration and the threshold
levels, bit identical for any number of worker threads.  The engine draws
only for pairs in which some level has not stopped a path yet, so the
variates a path receives depend on the levels of the call: one call shares
its paths across all its levels (common random numbers), but calls with
different level sets do not share paths.  Reductions run over the fully
assembled per-path payoff arrays with numpy's pairwise summation.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .series import ModelParams

SCHEME_EXACT = "exact"
_MAX_U64 = 2**64
_BLOCK_PATHS = 4096  # paths per worker task and per RNG stream
_BLOCK_STEPS = 32  # steps drawn per kernel call
# Relative slack of the level pre-filter.  q = X (1-t)^2 >= z (1-t) in
# floating point implies X (1-t') >= z (1 - 4 eps) for every 1-t' >= 1-t, so
# 1e-12 never drops a true hit.
_PEAK_SLACK = 1.0 - 1e-12


def path_seed(master_seed: int, path_index: int) -> int:
    """64-bit key of stream (master seed, path_index), derived statelessly.

    The seed sequence of (master seed, path_index) also seeds that stream's
    SFC64 generator.  The index names a block of ``_BLOCK_PATHS`` paths;
    single-path simulations use index 0, the stream of block 0.
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
    """Inputs of a simulation run; immutable and fully determining with the seed.

    Paths start at Q_{t0} = q0 and walk the grid linspace(t0, 1, n_steps + 1)
    for any dimension alpha > 0.  ``scheme`` has the one valid value
    ``SCHEME_EXACT``.
    """

    params: ModelParams
    t0: float = 0.0
    q0: float = 0.0
    n_paths: int = 200_000
    n_steps: int = 2000
    seed: int = 20240601
    scheme: str = SCHEME_EXACT

    def __post_init__(self):
        if not (0.0 <= self.t0 < 1.0):
            raise ValueError("t0 must lie in [0, 1)")
        if not (0.0 <= self.q0 < math.inf):
            raise ValueError("q0 must be finite and nonnegative")
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("n_paths and n_steps must be positive")
        if not (0 <= self.seed < _MAX_U64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.scheme != SCHEME_EXACT:
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True, eq=False)
class BridgePath:
    """One discretized trajectory with the key of the stream that produced it.

    Single-path simulations draw from the SFC64 stream (seed, 0), so
    ``seed_used`` is ``path_seed(seed, 0)``; that is also the stream of path
    block 0, and a one-path engine run reproduces this trajectory.
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
    """Monte Carlo aggregate; ci95 = mean +/- 1.96 stderr.

    ``mean`` is over all ``n_paths`` paths; ``stderr`` is the standard
    deviation of the antithetic pair means over the square root of their
    count, an odd last path counting as a group of one.
    """

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


def _radial_steps(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step tables of the time-changed walk to nodes 1 .. m-1 of the grid t.

    Node j sits at time s_j = t_j/(1-t_j) of X, so the step to node j+1 has
    length ds_j = h_j/((1-t_j)(1-t_{j+1})).  Returns sqrt(ds) and ds per step;
    the pinned node m (s = infinity) is excluded, its q is the exact zero of
    the bridge.
    """
    tau = 1.0 - t
    ds = np.diff(t)[:-1] / (tau[:-2] * tau[1:-1])
    return np.sqrt(ds), ds


def _radial_block(gen, state, d, sd, ds, buf):
    """X at the next k nodes of both paths of every pair; ``state`` advances in place.

    ``state`` has shape (2, n): R = sqrt X >= 0 of path A (row 0) and path B
    (row 1) of each of n pairs.  The block draws, for the n pairs, in this
    order: (k, n) normals xi; then chi2_{d-1} as (d-1)//2 doubled standard
    exponentials of shape ((d-1)//2, k, n) and, when d - 1 is odd, one squared
    (k, n) normal.  Each step is U = R + sqrt(ds) xi on path A and
    U = R + (-sqrt(ds) xi) on path B, then X = U^2 + ds chi2 with the pair's
    one chi2, and R = sqrt X; at d = 1 there is no chi2 and R = |U|, the
    reflected step.  Without the squared normal (odd d) the doubling is
    folded into the scale, 2 sum(e) ds == sum(e) (2 ds) exactly.  The result,
    X with shape (k, 2, n), is a view of ``buf``; q = (1-t)^2 X is left to
    the caller.
    """
    k, n = sd.size, state.shape[1]
    size = k * n
    n_exp, odd = divmod(d - 1, 2)
    x = buf[: 2 * size].reshape(k, 2, n)
    xi = buf[2 * size : 3 * size].reshape(k, n)
    gen.standard_normal(out=xi)
    # the increments of path A, then their mirror for path B; this frees the
    # xi slab for the chi-square draws
    np.multiply(xi, sd[:, None], out=x[:, 0])
    np.negative(x[:, 0], out=x[:, 1])
    if d == 1:
        for u in x:
            np.add(u, state, out=u)
            np.abs(u, out=state)
        x *= x
        return x
    chi = buf[2 * size : 3 * size].reshape(k, n)
    scale = ds
    if n_exp:
        e = buf[2 * size : (2 + n_exp) * size].reshape(n_exp, k, n)
        gen.standard_exponential(out=e)
        for extra in e[1:]:
            chi += extra
        if odd:
            chi += chi
        else:
            scale = ds + ds
    if odd:
        g = buf[(2 + n_exp) * size : (3 + n_exp) * size].reshape(k, n)
        gen.standard_normal(out=g)
        g *= g
        if n_exp:
            chi += g
        else:
            chi = g
    chi *= scale[:, None]
    for u, c in zip(x, chi):
        np.add(u, state, out=u)
        np.multiply(u, u, out=u)
        np.add(u, c, out=u)
        np.sqrt(u, out=state)
    return x


def _mixture_block(gen, state, alpha, ds, buf):
    """X at the next k nodes for every path of ``state``, any alpha; ``state`` advances in place.

    ``state`` holds X per path, shape (2, n) for n pairs; the two paths of a
    pair draw independently.  Each step draws N ~ Poisson(X/(2 ds)) for every
    path, in C order, and then X' = 2 ds Gamma(alpha/2 + N), the Poisson
    mixture of the scaled noncentral chi-square that is the exact BESQ^alpha
    transition.  The result, X with shape (k,) + state.shape, is a view of
    ``buf``.
    """
    k = ds.size
    x = buf[: k * state.size].reshape((k,) + state.shape)
    prev = state
    for row, h in zip(x, ds + ds):
        gen.standard_gamma(gen.poisson(prev / h) + 0.5 * alpha, out=row)
        row *= h
        prev = row
    state[:] = prev
    return x


def _sampler(config: SimConfig):
    """Grid, block kernel, start state and buffer floats per pair-step of a run.

    The grid is linspace(t0, 1, n_steps + 1); ``step(gen, state, j0, j1, buf)``
    advances the (2, pairs) ``state`` and returns the time-changed BESQ value
    X of both paths of every pair at the nodes j0+1 .. j1, shape
    (j1 - j0, 2, pairs), as a view of ``buf``; q = (1-t)^2 X there, with
    (1-t)^2 formed as (1-t)(1-t).  Integer alpha takes ``_radial_block``,
    whose state starts at sqrt X0; any other alpha ``_mixture_block``, whose
    state is X itself.
    """
    a = config.params.alpha
    t = np.linspace(config.t0, 1.0, config.n_steps + 1)
    sd, ds = _radial_steps(t)
    x0 = config.q0 / ((1.0 - config.t0) * (1.0 - config.t0))
    if a.is_integer():
        d = int(a)

        def step(gen, state, j0, j1, buf):
            return _radial_block(gen, state, d, sd[j0:j1], ds[j0:j1], buf)

        # X of both paths, then the xi slab, which the chi-square draws reuse
        return t, step, math.sqrt(x0), 2 + max(1, d // 2)

    def step(gen, state, j0, j1, buf):
        return _mixture_block(gen, state, a, ds[j0:j1], buf)

    return t, step, x0, 2


def simulate_exact(config: SimConfig) -> BridgePath:
    """One exact path from (t0, q0): the engine's walk without stopping.

    Draws from stream (seed, 0) in the engine's time blocks, through the same
    kernel, and keeps path A of the one pair, so a one-path engine run (a
    group of one) reproduces it bit for bit.  Every grid marginal has the
    exact law, and the pinned node is the exact zero.
    """
    t, step, x0, width = _sampler(config)
    gen = _path_generator(config.seed, 0)
    state = np.full((2, 1), x0)
    buf = np.empty(width * _BLOCK_STEPS)
    x = np.zeros(config.n_steps + 1)
    last = config.n_steps - 1
    for j0 in range(0, last, _BLOCK_STEPS):
        j1 = min(j0 + _BLOCK_STEPS, last)
        x[j0 + 1 : j1 + 1] = step(gen, state, j0, j1, buf)[:, 0, 0]
    tau = 1.0 - t
    q = x * (tau * tau)
    q[0] = config.q0
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


def _run_chunk_exact(config, levels, sampler, start, stop, payoffs, stopped):
    """Payoffs of the path block [start, stop), simulated a time block at a time.

    ``start`` is a multiple of ``_BLOCK_PATHS`` and names the block's stream.
    Levels with q0 >= z (1 - t0) stop every path at node 0, as
    ``apply_policy`` does.  The block walks its paths as antithetic pairs,
    paths (start + 2i, start + 2i + 1); an odd last path is path A of a pair
    whose path B is never read.  Rows are the pairs in which some path still
    has an unhit level.  Each time block draws fresh variates for those rows
    only and applies the ``sampler`` kernel, so a pair stops costing draws
    once every level has stopped both its paths.  The draws are independent
    of the history that chose the rows, so every surviving path keeps the
    exact law.  The kernel state carries across time blocks; a one-path
    block therefore reproduces ``simulate_exact`` on the same stream bit for
    bit.  The kernel returns X; q = X (1-t)^2 is formed only on the columns
    the peak pre-filter keeps for a level, by the same product
    ``simulate_exact`` uses.
    """
    m = stop - start
    pairs = (m + 1) // 2
    t, step, x0, width = sampler
    gen = _path_generator(config.seed, start // _BLOCK_PATHS)
    tau = 1.0 - t
    tau2 = tau * tau
    # nodes 1 .. n_steps - 1 can stop a path; the pinned node never does
    last = config.n_steps - 1

    at_start = config.q0 >= levels * tau[0]
    payoffs[start:stop, at_start] = _payoff(config.q0, config.params.n)
    stopped[start:stop, at_start] = True
    rows = np.arange(pairs)  # block-local pair index of each active row
    state = np.full((2, pairs), x0)  # kernel state of paths A and B at the current node
    open_ = np.empty((levels.size, 2, pairs), dtype=bool)  # (levels, path A or B, rows)
    open_[:] = ~at_start[:, None, None]
    if m % 2:
        open_[:, 1, -1] = False  # an odd block's last pair has no path B
    # one buffer serves every time block, so draws never fault in fresh pages
    buf = np.empty(width * pairs * min(_BLOCK_STEPS, last))
    for j0 in range(0, last, _BLOCK_STEPS):
        keep = open_.any(axis=(0, 1))
        if not keep.all():
            keep = np.flatnonzero(keep)
            if keep.size == 0:
                break
            # take: twice as fast as a fancy index on the column axis
            rows, state, open_ = rows[keep], state.take(keep, axis=1), open_.take(keep, axis=2)
        j1 = min(j0 + _BLOCK_STEPS, last)
        # columns: path A of every row, then path B of every row
        x = step(gen, state, j0, j1, buf).reshape(j1 - j0, -1)
        flat_open = open_.reshape(levels.size, -1)
        bound = tau[j0 + 1 : j1 + 1, None]
        scale = tau2[j0 + 1 : j1 + 1, None]
        # q/(1-t) = X (1-t) and 1-t only falls along the block, so the path's
        # largest X times 1-t at the block's first node bounds q/(1-t): only
        # paths with peak >= z can hit level z, and q is formed on those alone
        peak = x.max(axis=0)
        peak *= tau[j0 + 1]
        for l, z in enumerate(levels):
            cand = np.flatnonzero(flat_open[l] & (peak >= z * _PEAK_SLACK))
            if cand.size == 0:
                continue
            q = x[:, cand] * scale
            mask = q >= z * bound
            hit = np.flatnonzero(mask.any(axis=0))
            first = np.argmax(mask[:, hit], axis=0)
            cand = cand[hit]
            side, row = np.divmod(cand, rows.size)
            path = start + 2 * rows[row] + side
            payoffs[path, l] = _payoff(q[first, hit], config.params.n)
            stopped[path, l] = True
            flat_open[l, cand] = False


def _threshold_payoffs(
    config: SimConfig, levels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path payoffs under each threshold level, common random numbers."""
    levels = np.asarray(levels, dtype=float)
    n_paths = config.n_paths
    payoffs = np.zeros((n_paths, levels.size))
    stopped = np.zeros((n_paths, levels.size), dtype=bool)
    sampler = _sampler(config)

    bounds = [(s, min(s + _BLOCK_PATHS, n_paths)) for s in range(0, n_paths, _BLOCK_PATHS)]
    workers = worker_count(len(bounds))
    if workers == 1:
        for s, e in bounds:
            _run_chunk_exact(config, levels, sampler, s, e, payoffs, stopped)
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            futures = [
                ex.submit(_run_chunk_exact, config, levels, sampler, s, e, payoffs, stopped)
                for s, e in bounds
            ]
            for f in futures:
                f.result()
    return payoffs, stopped


def _pair_stderr(values: np.ndarray) -> float:
    """Standard error of the mean of per-path ``values``, from their pair means.

    The groups are the antithetic pairs (2i, 2i + 1), and an odd last value
    is a group of one.
    """
    even = values.size - values.size % 2
    groups = np.concatenate((0.5 * (values[0:even:2] + values[1:even:2]), values[even:]))
    if groups.size < 2:
        return float("nan")
    return float(np.std(groups, ddof=1) / math.sqrt(groups.size))


def _aggregate(payoff_col: np.ndarray, stopped_col: np.ndarray, n_paths: int) -> MCResult:
    mean = float(np.mean(payoff_col))
    stderr = _pair_stderr(payoff_col)
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
    """Mean payoff of the threshold policy over n_paths paths in antithetic pairs."""
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
    present, the stderr again over antithetic pair means.  With the optimal
    Z the m = 1 row should have the maximal mean up to confidence-interval
    overlap.
    """
    mult = [float(m) for m in multipliers]
    if not mult or any(m <= 0.0 for m in mult):
        raise ValueError("multipliers must be positive")
    if Z is None:
        from .boundary import find_Z

        Z = find_Z(config.params).value
    levels = np.array([m * Z for m in mult])
    payoffs, stopped = _threshold_payoffs(config, levels)

    candidate_idx = mult.index(1.0) if 1.0 in mult else None

    rows = []
    for i, m in enumerate(mult):
        res = _aggregate(payoffs[:, i], stopped[:, i], config.n_paths)
        pm = ps = None
        if candidate_idx is not None and i != candidate_idx:
            diff = payoffs[:, candidate_idx] - payoffs[:, i]
            pm = float(np.mean(diff))
            ps = _pair_stderr(diff)
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
