"""Path simulation of the squared bridge and Monte Carlo policy evaluation.

One exact sampler for every dimension alpha > 0 and every start (t0, q0).  It
uses the time change Q_t = (1 - t)^2 X(t/(1 - t)), where X is a squared
Bessel process of dimension alpha started at X0 = q0/(1 - t0)^2 at time
t0/(1 - t0), and walks X between the nodes of the grid linspace(t0, 1, n+1)
with an exact transition, so every grid marginal has the exact law and the
path ends at zero.  alpha >= 1 takes the radial step on R = sqrt X >= 0,
R' = sqrt((R + sqrt(ds) xi)^2 + ds chi2_{alpha-1}): one normal plus
chi2_{alpha-1} = 2 Gamma((alpha-1)/2), one gamma variate (Glasserman 2003,
section 3.4); at alpha = 3 the shape-1 gamma slab is filled with
``standard_exponential``, the same stream bit for bit, and at alpha = 1 the
chi-square term vanishes and the step is the reflected
R' = |R + sqrt(ds) xi|, the exact BES(1) law.  alpha < 1 takes
the Poisson mixture of the noncentral chi-square,
X' = 2 ds Gamma(alpha/2 + N) with N ~ Poisson(X/(2 ds)).  The kernels return
X; q = (1-t)(1-t) X is formed only where it is read: on the whole of a
``simulate_exact`` path, and in the engine on the paths a level's pre-filter
cannot rule out.

Antithetic pairs: paths 2i and 2i + 1 form pair i.  For alpha >= 1 the
pair draws its variates once; path A steps by +sqrt(ds) xi, path B by
-sqrt(ds) xi, and both add the same ds chi2_{alpha-1}.  -xi has the law of
xi, so each path keeps the exact law and only the two paths of a pair depend
on each other; their payoffs are negatively correlated, and a pair costs the
draws of one path.  The mixture's two paths draw independently, so there
the pairs are bookkeeping only.  Every estimate is taken over the pair means
(``_group_means``), so it is valid for either kernel; an odd path count
leaves the last path a group of one.

Estimator: stopped-martingale control variates.  Every kernel step has
E[X' | X] = X + alpha ds and E[X'^2 | X] = X^2 + (2 alpha + 4) X ds +
alpha (alpha + 2) ds^2, for the radial and the mixture kernel alike, so the
space-time harmonic polynomials of degree one and two,
M1_j = X_j - alpha S_j - X0 and
M2_j = X_j^2 - (2 alpha + 4) S_j X_j + alpha (alpha + 2) S_j^2 - X0^2, with
S_j the sum of the kernel's own ds up to node j, are martingales on the
grid, exactly.  Stopped at min(tau, c) for a fixed node c they have mean
zero by optional stopping, whatever the level, and they need nothing of the
path but S and X there.  The controls are both martingales at each of
``_CAPS`` (16) cap nodes c = round((1 - (1 - i/17)^2) n_steps),
i = 1 .. 16, clipped to 1 .. n_steps - 1 and deduplicated, so the caps
crowd toward t -> 1.  The pair means of the payoff are regressed on the pair
means of the controls with an intercept (Henderson and Glynn's martingale
control variates; the regression estimator of Glasserman, section 4.1):
beta solves the centred normal equations, mean = ybar - beta . cbar, and
stderr is the residual standard deviation, on groups - 1 - rank degrees of
freedom, over sqrt(groups).  The sweep's paired statistics regress the
payoff difference on the difference of the two levels' controls.  No series
value enters a control, so the estimate stays independent of U*.  The plain
estimate, the mean over all paths and the standard deviation of the pair
means over sqrt(groups), is reported beside it; it is also the estimate
when there is no interior cap (n_steps = 1), too few groups (at most
4 (k + 1) for k controls) or no control that varies.  The engine records
each path's stopping node and X there, and keeps X at the caps only while
a path block walks: when the block ends, its worker sums the moments of
(1, controls, payoff) over the block's pair means, ``_FIT_PATHS`` paths at
a time, and the blocks' sums are added in block order and solved with
Goodnight's sweep operator (``_cv_fit``).

Reproducibility contract: the engine simulates paths in fixed blocks of
``_BLOCK_PATHS`` (4096), walked ``_BLOCK_STEPS`` (32) steps at a time; each
block owns one SFC64 stream keyed by (master seed, block index) through a
seed sequence, and the block size does not depend on the worker count, so
results are a deterministic function of the configuration and the threshold
levels, bit identical for any number of worker threads.  The run's walk
holds the lock its workers share: a worker holds it for all of a time
block's work that makes many small numpy calls (row compaction, the
per-step recursion, the cap record, the level scan) and lets it go only
while its kernel fills the block's slabs of variates, and the mixture
kernel, which draws at every step, runs wholly without it.  The lock orders
no draw and no write that another worker reads, so it moves no bit; it only
keeps the workers from trading the interpreter lock at every call.  The
engine draws only for pairs in which some level has not stopped a path yet,
so the variates a path receives depend on the levels of the call: one call
shares its paths across all its levels (common random numbers), but calls
with different level sets do not share paths.  Reductions run over the fully
assembled per-path arrays, with numpy's pairwise summation or, for the
regression's moments, per path block in path order and then over the blocks
in block order.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .series import ModelParams, _require, _require_int

SCHEME_EXACT = "exact"
_MAX_U64 = 2**64
_BLOCK_PATHS = 4096  # paths per worker task and per RNG stream
_BLOCK_STEPS = 32  # steps drawn per kernel call
# Relative slack of the level pre-filter.  q = X (1-t)^2 >= z (1-t) in
# floating point implies X (1-t') >= z (1 - 4 eps) for every 1-t' >= 1-t, so
# 1e-12 never drops a true hit.
_PEAK_SLACK = 1.0 - 1e-12
_CAPS = 16  # cap nodes of the stopped-martingale controls
_FIT_PATHS = 1024  # paths per step of the regression pass; even, so no pair is split
_PRODUCT_GROUPS = 128  # groups per matrix product of the regression pass


def _path_generator(master_seed: int, path_index: int) -> np.random.Generator:
    # Stateless split: the (master, index) pair keys the stream, so any
    # thread count reproduces identical paths.  The index names a block of
    # ``_BLOCK_PATHS`` paths; single-path simulations use block 0.
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence((master_seed, path_index)))
    )


def worker_count(n_tasks: int) -> int:
    """Worker cap: BESSELSTOP_THREADS (a positive integer) if set, else the CPUs this process may run on."""
    env = os.environ.get("BESSELSTOP_THREADS")
    if env and not (env.strip().isdecimal() and int(env) > 0):
        raise ValueError(f"BESSELSTOP_THREADS must be a positive integer, got {env!r}")
    if env:
        cap = int(env)
    elif hasattr(os, "sched_getaffinity"):  # the affinity mask, which taskset and cpusets narrow
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


@contextmanager
def _released(lock):
    """Release the held ``lock`` for the body, a variate fill, and take it back however the body ends."""
    lock.release()
    try:
        yield
    finally:
        lock.acquire()


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
        _require("t0", self.t0, 0.0, 1.0, open_hi=True)
        _require("q0", self.q0, 0.0, math.inf, open_hi=True)
        for name, lo in (("n_paths", 1), ("n_steps", 1), ("seed", 0)):
            _require_int(name, getattr(self, name), lo)
        if not self.seed < _MAX_U64:  # in integers: float(2**64 - 1) is 2**64
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.scheme != SCHEME_EXACT:
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True, eq=False)
class BridgePath:
    """One discretized trajectory: the grid ``times`` and Q at each of them.

    Single-path simulations draw from the SFC64 stream (seed, 0), the stream
    of path block 0, so ``SimConfig.seed`` names the stream and a one-path
    engine run reproduces this trajectory.
    """

    times: np.ndarray
    q: np.ndarray


@dataclass(frozen=True)
class ThresholdPolicy:
    """Stop at the first grid time s with Q_s >= Z (1 - s)."""

    Z: float

    def __post_init__(self):
        _require("Z", self.Z, 0.0, math.inf, open_lo=True, open_hi=True)


@dataclass(frozen=True)
class StoppingOutcome:
    tau: float
    payoff: float
    stopped: bool


@dataclass(frozen=True)
class MCResult:
    """Monte Carlo aggregate; ci95 = mean +/- 1.96 stderr.

    ``mean`` and ``stderr`` are the control-variate estimate (see the module
    docstring): the intercept of the regression of the antithetic pair means
    on the pair means of the stopped-martingale controls, the linear and the
    quadratic space-time martingale at each cap node, and its residual standard
    deviation over the square root of the group count.  ``controls`` is the
    number of controls the regression kept, its rank: 32 when two controls
    at each of 16 distinct caps all vary.  ``plain_mean`` is the mean over all
    ``n_paths`` paths and ``plain_stderr`` the standard deviation of the pair
    means over the square root of their count, an odd last path counting as a
    group of one; ``mean`` and ``stderr`` equal them, and ``controls`` is 0,
    where the regression does not apply.
    """

    mean: float
    stderr: float
    n_paths: int
    ci95: tuple[float, float]
    stop_fraction: float
    plain_mean: float
    plain_stderr: float
    controls: int
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


def _radial_block(gen, state, alpha, sd, ds, buf, lock):
    """X at the next k nodes of both paths of every pair, alpha >= 1; ``state`` advances in place.

    ``state`` has shape (2, n): R = sqrt X >= 0 of path A (row 0) and path B
    (row 1) of each of n pairs.  The block draws, for the n pairs, (k, n)
    normals xi and then, for alpha > 1, (k, n) gammas G of shape
    (alpha - 1)/2, so that 2 G ~ chi2_{alpha-1}; at alpha = 3 the shape-1
    gammas come from ``standard_exponential``, the same stream bit for bit
    and a faster fill.  Each step is
    U = R + sqrt(ds) xi on path A and U = R + (-sqrt(ds) xi) on path B, then
    X = U^2 + 2 ds G with the pair's one G, and R = sqrt X; at alpha = 1
    there is no G and R = |U|, the reflected step.  The result, X with shape
    (k, 2, n), is a view of ``buf``, which holds at least 3 k n floats;
    q = (1-t)^2 X is left to the caller.  The caller holds ``lock``, and the
    kernel lets it go only while it fills the slabs: the variates, the
    increments and the scaled chi-square.
    """
    k, n = sd.size, state.shape[1]
    size = k * n
    x = buf[: 2 * size].reshape(k, 2, n)
    xi = buf[2 * size : 3 * size].reshape(k, n)
    with _released(lock):
        gen.standard_normal(out=xi)
        # the increments of path A, then their mirror for path B; this frees
        # the xi slab for the gamma draws
        np.multiply(xi, sd[:, None], out=x[:, 0])
        np.negative(x[:, 0], out=x[:, 1])
        if alpha > 1:
            chi = xi
            if alpha == 3:
                gen.standard_exponential(out=chi)
            else:
                gen.standard_gamma(0.5 * (alpha - 1.0), out=chi)
            chi *= (ds + ds)[:, None]
    if alpha == 1:
        for u in x:
            np.add(u, state, out=u)
            np.abs(u, out=state)
        x *= x
        return x
    for u, c in zip(x, chi):
        np.add(u, state, out=u)
        np.multiply(u, u, out=u)
        np.add(u, c, out=u)
        np.sqrt(u, out=state)
    return x


def _mixture_block(gen, state, alpha, ds, buf):
    """X at the next k nodes for every path of ``state``, alpha < 1; ``state`` advances in place.

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


def _cap_nodes(n_steps: int) -> np.ndarray:
    """Cap nodes round((1 - (1 - i/17)^2) n_steps), i = 1 .. 16, clipped to 1 .. n_steps-1, deduplicated.

    The caps crowd toward t -> 1: the last sits 1 - 1/289 of the way.
    """
    nodes = {
        min(max(round((1.0 - (1.0 - i / (_CAPS + 1)) ** 2) * n_steps), 1), n_steps - 1)
        for i in range(1, _CAPS + 1)
    }
    # int32, as the stopping nodes are, so comparing them casts nothing
    return np.array(sorted(nodes) if n_steps > 1 else [], dtype=np.int32)


class _Walk:
    """One Monte Carlo run: grid, kernel, levels, stopping records, moments, stream key, lock.

    Built once from the run's ``SimConfig``, the threshold ``levels`` and the
    ``candidate`` level the paired moments compare against (None: no paired
    moments); ``simulate_exact`` builds one with no level.

    The grid is ``t`` = linspace(t0, 1, n_steps + 1), with ``tau`` = 1 - t and
    ``tau2`` = (1-t)(1-t), the factor q = tau2 X reads.  Node j sits at time
    s_j = t_j/(1-t_j) of X, so the step to node j+1 has length
    ds_j = h_j/((1-t_j)(1-t_{j+1})); ``ds`` and ``sd`` = sqrt(ds) hold the
    steps to nodes 1 .. n_steps-1, as the pinned node (s = infinity) is the
    exact zero of the bridge.  ``elapsed[j]`` = S_j sums the steps up to node
    j; nothing reads it at the pinned node.  ``x0`` = q0/(1-t0)^2 is X at the
    start, ``start`` the kernel's state there (sqrt X0 for the radial kernel,
    X0 for the mixture), ``width`` the buffer floats per pair and step the
    kernel needs, and ``caps`` the cap nodes of the controls; ``alpha``,
    ``n``, ``q0``, ``n_steps`` and ``seed`` (the master seed that keys every
    path block's stream) are the config's.

    ``node`` and ``x_stop`` have one row per level and one column per path:
    the node where the level stopped the path (``n_steps`` where it never
    did) and the kernel's X there; the payoff and the stop flag follow from
    them.  ``own`` and ``paired`` have one moment matrix per level: the sums
    over the path blocks, in block order, of the matrices ``_block_moments``
    builds when a block's walk ends.  A path that never stopped reads
    ``tau2`` and ``elapsed`` at the pinned node: tau2 is 0 there, so its q
    and payoff are 0, and no control reads its S.

    ``step(gen, state, j0, j1, buf)`` advances the (2, pairs) ``state`` and
    returns X of both paths of every pair at the nodes j0+1 .. j1, shape
    (j1 - j0, 2, pairs), as a view of ``buf``: ``_radial_block`` for
    alpha >= 1, ``_mixture_block`` below.  The caller holds ``lock``, which
    every worker of the run shares; the radial kernel lets it go while it
    fills variates, and the mixture, which draws at every step, runs wholly
    without it.
    """

    def __init__(self, config: SimConfig, levels=(), candidate: int | None = None):
        self.alpha, self.n, self.q0 = config.params.alpha, config.params.n, config.q0
        self.n_steps, self.seed = config.n_steps, config.seed
        self.t = np.linspace(config.t0, 1.0, config.n_steps + 1)
        self.tau = 1.0 - self.t
        self.tau2 = self.tau * self.tau
        self.ds = np.diff(self.t)[:-1] / (self.tau[:-2] * self.tau[1:-1])
        self.sd = np.sqrt(self.ds)
        self.elapsed = np.zeros(config.n_steps + 1)
        np.cumsum(self.ds, out=self.elapsed[1:-1])
        self.x0 = config.q0 / ((1.0 - config.t0) * (1.0 - config.t0))
        # the radial kernel's X of both paths, then its xi slab, which the gamma draws reuse
        self.start, self.width = (math.sqrt(self.x0), 3) if self.alpha >= 1 else (self.x0, 2)
        self.caps = _cap_nodes(config.n_steps)
        self.levels = np.asarray(levels, dtype=float)
        self.candidate = candidate
        shape = (self.levels.size, config.n_paths)
        self.node = np.full(shape, config.n_steps, dtype=np.int32)
        self.x_stop = np.zeros(shape)
        self.own = np.zeros((self.levels.size, 2 * self.caps.size + 2, 2 * self.caps.size + 2))
        self.paired = self.own.copy()
        self.lock = threading.Lock()

    def step(self, gen, state, j0, j1, buf):
        if self.alpha >= 1:
            return _radial_block(gen, state, self.alpha, self.sd[j0:j1], self.ds[j0:j1], buf, self.lock)
        with _released(self.lock):
            return _mixture_block(gen, state, self.alpha, self.ds[j0:j1], buf)

    def stopped(self, l: int) -> np.ndarray:
        return self.node[l] < self.n_steps

    def payoffs(self, l: int, a: int = 0, b: int | None = None) -> np.ndarray:
        """Q^{n/2} at the stop of paths [a, b) under level ``l``, 0 where it never stopped.

        q = X (1-t)^2 is the product the engine's level test formed; a start
        in the stopping region pays q0 itself, as ``apply_policy`` does.
        """
        node = self.node[l, a:b]
        q = self.x_stop[l, a:b] * self.tau2[node]
        q[node == 0] = self.q0
        return _payoff(q, self.n)


def simulate_exact(config: SimConfig) -> BridgePath:
    """One exact path from (t0, q0): the engine's walk without stopping.

    Draws from stream (seed, 0) in the engine's time blocks, through the
    run's ``_Walk``, and keeps path A of the one pair, so a one-path engine
    run (a group of one) reproduces it bit for bit.  Every grid marginal has
    the exact law, and the pinned node is the exact zero.
    """
    walk = _Walk(config)
    gen = _path_generator(config.seed, 0)
    state = np.full((2, 1), walk.start)
    buf = np.empty(walk.width * _BLOCK_STEPS)
    x = np.zeros(config.n_steps + 1)
    last = config.n_steps - 1
    with walk.lock:
        for j0 in range(0, last, _BLOCK_STEPS):
            j1 = min(j0 + _BLOCK_STEPS, last)
            x[j0 + 1 : j1 + 1] = walk.step(gen, state, j0, j1, buf)[:, 0, 0]
    q = x * walk.tau2
    q[0] = config.q0
    return BridgePath(times=walk.t, q=q)


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


def _run_chunk_exact(walk, start, stop):
    """Walk the path block [start, stop) a time block at a time; fill its stops in ``walk``.

    ``start`` is a multiple of ``_BLOCK_PATHS`` and names the block's stream.
    Levels with q0 >= z (1 - t0) stop every path at node 0, as
    ``apply_policy`` does.  The block walks its paths as antithetic pairs,
    paths (start + 2i, start + 2i + 1); an odd last path is path A of a pair
    whose path B is never read.  Rows are the pairs in which some path still
    has an unhit level.  Each time block steps those rows alone with the
    run's kernel, on fresh variates, so a pair stops costing draws once
    every level has stopped both its paths.  The draws are independent
    of the history that chose the rows, so every surviving path keeps the
    exact law.  The kernel state carries across time blocks; a one-path
    block therefore reproduces ``simulate_exact`` on the same stream bit for
    bit.  The kernel returns X; q = X (1-t)^2 is formed only on the columns
    the peak pre-filter keeps for a level, by the same product
    ``simulate_exact`` uses.  X at a stop and at a cap node is read from the
    kernel's X, never back from q.

    The caller holds ``walk.lock``, and the walk lets it go only while the
    kernel fills variates: the compaction, the per-step recursion, the cap
    record and the level scan make many small numpy calls that each take the
    interpreter lock, so workers stepping at once would trade it at every
    call, where under the run's lock one worker steps while the others fill.

    Returns the block's cap record: X at each cap node, shape (caps, paths)
    by block-local path, written while the path's pair is still drawing and
    0 after, when every level has stopped the path before the cap.
    """
    m = stop - start
    pairs = (m + 1) // 2
    levels = walk.levels
    gen = _path_generator(walk.seed, start // _BLOCK_PATHS)
    # nodes 1 .. n_steps - 1 can stop a path; the pinned node never does
    last = walk.n_steps - 1
    caps = walk.caps.tolist()
    next_cap = 0

    at_start = walk.q0 >= levels * walk.tau[0]
    walk.node[at_start, start:stop] = 0
    walk.x_stop[at_start, start:stop] = walk.x0
    # an odd block's last column is a path B, never read
    x_cap = np.zeros((len(caps), 2 * pairs))
    rows = np.arange(pairs)  # block-local pair index of each active row
    state = np.full((2, pairs), walk.start)  # kernel state of paths A and B at the current node
    open_ = np.empty((levels.size, 2, pairs), dtype=bool)  # (levels, path A or B, rows)
    open_[:] = ~at_start[:, None, None]
    if m % 2:
        open_[:, 1, -1] = False  # an odd block's last pair has no path B
    # one buffer serves every time block, so draws never fault in fresh pages
    buf = np.empty(walk.width * pairs * min(_BLOCK_STEPS, last))
    for j0 in range(0, last, _BLOCK_STEPS):
        keep = open_.any(axis=(0, 1))
        if not keep.all():
            keep = np.flatnonzero(keep)
            if keep.size == 0:
                break
            # take: twice as fast as a fancy index on the column axis
            rows, state, open_ = rows[keep], state.take(keep, axis=1), open_.take(keep, axis=2)
        j1 = min(j0 + _BLOCK_STEPS, last)
        xk = walk.step(gen, state, j0, j1, buf)
        while next_cap < len(caps) and caps[next_cap] <= j1:
            x_cap[next_cap, 2 * rows], x_cap[next_cap, 2 * rows + 1] = xk[caps[next_cap] - j0 - 1]
            next_cap += 1
        # columns: path A of every row, then path B of every row
        x = xk.reshape(j1 - j0, -1)
        flat_open = open_.reshape(levels.size, -1)
        bound = walk.tau[j0 + 1 : j1 + 1, None]
        scale = walk.tau2[j0 + 1 : j1 + 1, None]
        # q/(1-t) = X (1-t) and 1-t only falls along the block, so the path's
        # largest X times 1-t at the block's first node bounds q/(1-t): only
        # paths with peak >= z can hit level z, and q is formed on those alone
        peak = x.max(axis=0)
        peak *= walk.tau[j0 + 1]
        for l, z in enumerate(levels):
            cand = np.flatnonzero(flat_open[l] & (peak >= z * _PEAK_SLACK))
            if cand.size == 0:
                continue
            mask = x[:, cand] * scale >= z * bound
            hit = np.flatnonzero(mask.any(axis=0))
            first = np.argmax(mask[:, hit], axis=0)
            cand = cand[hit]
            side, row = np.divmod(cand, rows.size)
            path = start + 2 * rows[row] + side
            # one level's row of each record: a 1-d scatter
            walk.node[l][path] = first + (j0 + 1)
            walk.x_stop[l][path] = x[first, cand]
            flat_open[l, cand] = False
    return x_cap


def _simulate_levels(config: SimConfig, levels: np.ndarray, candidate: int | None = None) -> _Walk:
    """The run's ``_Walk``, with every path's stopping record and each level's control moments.

    One walk serves every path block, so all levels share the paths (common
    random numbers).  With a ``candidate`` level, the paired moments compare
    every other level against it.  The path blocks run on one thread pool of
    ``worker_count`` threads, one thread included, and their moments are
    added in block order, so the sums are the same bits for any worker
    count.  A worker holds ``walk.lock`` for a whole block but its variate
    fills (``_run_chunk_exact``).
    """
    walk = _Walk(config, levels, candidate)
    n = config.n_paths
    bounds = [(b, min(b + _BLOCK_PATHS, n)) for b in range(0, n, _BLOCK_PATHS)]

    def run(block):
        # the block's cap record lives only until its moments are taken
        with walk.lock:
            return _block_moments(walk, *block, _run_chunk_exact(walk, *block))

    with ThreadPoolExecutor(max_workers=worker_count(len(bounds))) as ex:
        for own, paired in ex.map(run, bounds):
            np.add(walk.own, own, out=walk.own)
            np.add(walk.paired, paired, out=walk.paired)
    return walk


def _block_means(walk: _Walk, l: int, start: int, a: int, b: int, x_cap):
    """Pair means of level ``l``'s controls and of its payoffs over the paths start + [a, b).

    The controls have shape (2 caps, groups).  Control c reads S and X at
    min(tau, c): at the stop wherever tau <= c, at the cap (X from the
    block's record ``x_cap``) otherwise.  Rows are M1 = X - alpha S - X0 at
    each cap, then M2 = X^2 - (2 alpha + 4) S X + alpha (alpha + 2) S^2 - X0^2
    at each cap.  ``a`` is even and local to the block, as is ``x_cap``.
    """
    node = walk.node[l, start + a : start + b]
    at_stop = node <= walk.caps[:, None]
    x = np.where(at_stop, walk.x_stop[l, start + a : start + b], x_cap[:, a:b])
    s = np.where(at_stop, walk.elapsed[node], walk.elapsed[walk.caps, None])
    alpha, x0 = walk.alpha, walk.x0
    controls = np.empty((2,) + x.shape)
    np.subtract(x, alpha * s + x0, out=controls[0])
    # X (X - (2 alpha + 4) S) + alpha (alpha + 2) S^2 - X0^2
    np.multiply(x, x - (2.0 * alpha + 4.0) * s, out=controls[1])
    controls[1] += alpha * (alpha + 2.0) * s * s - x0 * x0
    payoffs = walk.payoffs(l, start + a, start + b)
    return _group_means(controls.reshape(-1, b - a)), _group_means(payoffs)


def _block_moments(walk: _Walk, start: int, stop: int, x_cap):
    """The own and the paired moment matrices of the block [start, stop), one per level.

    The paths are taken ``_FIT_PATHS`` at a time, and each slice builds every
    level's controls and payoff pair means once.  Entry l of ``own`` sums
    (1, controls, payoff) products over level l's pair means; with a
    candidate level, entry l of ``paired`` does the same for the candidate's
    payoff less level l's against the difference of their controls.  No more
    than one slice's controls per level are ever held.
    """
    own, paired = np.zeros_like(walk.own), np.zeros_like(walk.paired)
    cand = walk.candidate
    for a in range(0, stop - start, _FIT_PATHS):
        b = min(a + _FIT_PATHS, stop - start)
        means = [_block_means(walk, l, start, a, b, x_cap) for l in range(len(own))]
        for l, (c, y) in enumerate(means):
            own[l] += _cross_products(c, y)
            if cand is not None and l != cand:
                c_cand, y_cand = means[cand]
                paired[l] += _cross_products(c_cand - c, y_cand - y)
    return own, paired


def _group_means(values: np.ndarray) -> np.ndarray:
    """Means of the antithetic pairs (2i, 2i + 1) along the last axis.

    An odd last value is a group of one.
    """
    n = values.shape[-1]
    even = n - n % 2
    groups = values[..., 0:even:2] + values[..., 1:even:2]
    groups *= 0.5
    if n % 2:
        groups = np.concatenate((groups, values[..., even:]), axis=-1)
    return groups


def _cross_products(controls: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sum over groups of w w^T, w = (1, controls, y) a column per group.

    Taken ``_PRODUCT_GROUPS`` columns at a time: 34 x 34 x 128 multiply-adds
    stay under OpenBLAS's threading threshold (2^18), and a threaded product
    this small cost 10-40x the single-threaded one in CPU.
    """
    w = np.empty((controls.shape[0] + 2, y.size))
    w[0] = 1.0
    w[1:-1] = controls
    w[-1] = y
    total = 0.0
    for i in range(0, y.size, _PRODUCT_GROUPS):
        part = w[:, i : i + _PRODUCT_GROUPS]
        total = total + part @ part.T
    return total


def _cv_fit(moments: np.ndarray) -> tuple[float, float, int] | None:
    """Intercept, stderr and rank of the regression whose moment matrix is ``moments``.

    ``moments`` sums w w^T over the groups, w = (1, c_1 .. c_k, y).
    Goodnight's sweep operator solves it in place: the pivot on the constant
    centres the moments, a pivot on each control in turn solves the centred
    normal equations, and the corners then hold the intercept and the
    residual sum of squares.  A control whose pivot has fallen to 1e-12 of
    its diagonal is collinear with the controls before it (or vanishes) and
    is left out, which sets the rank.  The stderr is the residual standard
    deviation on groups - 1 - rank degrees of freedom over sqrt(groups).
    None, for the plain estimate, when k = 0, there are at most 4 (k + 1)
    groups or no control varies.
    """
    k = moments.shape[0] - 2
    groups = moments[0, 0]
    if k == 0 or groups <= 4 * (k + 1):
        return None
    a = moments.copy()
    rank = 0
    for j in range(k + 1):
        pivot = a[j, j]
        if j:
            if not pivot > 1e-12 * moments[j, j]:
                continue
            rank += 1
        # a stays symmetric, so row j doubles as column j
        col = a[j] / pivot
        a -= a[:, j, None] * col
        a[j] = col
        a[:, j] = col
        a[j, j] = -1.0 / pivot
    if rank == 0:
        return None
    se = math.sqrt(max(float(a[-1, -1]), 0.0) / (groups - 1 - rank) / groups)
    return float(a[0, -1]), se, rank


def _estimate(
    values: np.ndarray, moments: np.ndarray
) -> tuple[tuple[float, float, int], tuple[float, float]]:
    """The control-variate (mean, stderr, rank) and the plain (mean, stderr) of per-path ``values``.

    Where the regression does not apply, the first is the plain estimate with rank 0.
    """
    groups = _group_means(values)
    plain_se = float(np.std(groups, ddof=1) / math.sqrt(groups.size)) if groups.size > 1 else math.nan
    plain = (float(np.mean(values)), plain_se)
    return _cv_fit(moments) or plain + (0,), plain


def _aggregate(payoffs: np.ndarray, stopped: np.ndarray, moments: np.ndarray) -> MCResult:
    (mean, stderr, controls), (plain_mean, plain_stderr) = _estimate(payoffs, moments)
    n_paths = payoffs.size
    warning = "n_paths below 100; interval estimate unreliable" if n_paths < 100 else None
    return MCResult(
        mean=mean,
        stderr=stderr,
        n_paths=n_paths,
        ci95=(mean - 1.96 * stderr, mean + 1.96 * stderr),
        stop_fraction=float(np.mean(stopped)),
        plain_mean=plain_mean,
        plain_stderr=plain_stderr,
        controls=controls,
        warning=warning,
    )


def mc_estimate(config: SimConfig, policy: ThresholdPolicy) -> MCResult:
    """Mean payoff of the threshold policy over n_paths paths in antithetic pairs.

    The estimate uses the stopped-martingale control variates; the plain
    estimate rides along in ``plain_mean`` and ``plain_stderr``.
    """
    walk = _simulate_levels(config, np.array([policy.Z]))
    return _aggregate(walk.payoffs(0), walk.stopped(0), walk.own[0])


def policy_sweep(
    config: SimConfig,
    multipliers: list[float] | tuple[float, ...],
    Z: float | None = None,
) -> SweepTable:
    """Evaluate thresholds m * Z on one shared path ensemble.

    Common random numbers make the per-multiplier comparison paired; rows
    carry the paired difference statistics against the m = 1 row when it is
    present, regressed on the difference of the two levels' controls and
    taken over antithetic pair means.  With the optimal Z the m = 1 row
    should have the maximal mean up to confidence-interval overlap.
    """
    mult = [
        _require("multiplier", m, 0.0, math.inf, open_lo=True, open_hi=True) for m in multipliers
    ]
    if not mult:
        raise ValueError("multipliers must not be empty")
    if Z is None:
        from .boundary import find_Z

        Z = find_Z(config.params).value
    Z = _require("Z", Z, 0.0, math.inf, open_lo=True, open_hi=True)
    levels = np.array([m * Z for m in mult])
    candidate = mult.index(1.0) if 1.0 in mult else None
    walk = _simulate_levels(config, levels, candidate)
    base = walk.payoffs(candidate) if candidate is not None else None

    rows = []
    for i, m in enumerate(mult):
        payoffs = walk.payoffs(i)
        pm = ps = None
        if candidate is not None and i != candidate:
            (pm, ps, _), _ = _estimate(base - payoffs, walk.paired[i])
        rows.append(
            SweepRow(
                multiplier=m,
                Z_level=float(levels[i]),
                result=_aggregate(payoffs, walk.stopped(i), walk.own[i]),
                paired_mean_vs_candidate=pm,
                paired_stderr_vs_candidate=ps,
            )
        )
    return SweepTable(base_Z=float(Z), rows=tuple(rows))
