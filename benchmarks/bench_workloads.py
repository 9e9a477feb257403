"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop driven by one client: an op starts only after
the previous one has returned.  Ops come in cycles, and cycle ``i`` is a pure
function of (seed, i), so a seed replays the same inputs and the program sees
nothing but those inputs.  An op is one unit that passes or fails.

Every check compares with a reference that does not come from the package's
own series, or applies the acceptance gate's own rule unchanged:

* solve-grid: ``Z`` and ``U*`` against Kummer's function in mpmath at 30
  digits, a nonnegative boundary margin, continuity of ``U*`` across the
  boundary and the gate's smooth-fit tolerance.
* oracle-check: each criterion's own verdict.
* mc-exact: the gate's ``max(3 se, 1%)`` rule against a closed-form target,
  on all of a case's paths in the run together; each sweep also needs the
  gate's paired dominance.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np
from scipy.optimize import brentq
from scipy.special import hyp1f1

import besselstop.acceptance as acceptance
import besselstop.boundary as boundary
import besselstop.simulate as simulate
import besselstop.value as value
from besselstop import (
    AccuracyError,
    LatticeError,
    ModelParams,
    NoRootError,
    RangeError,
    TruncationError,
)

# Typed numeric failures count as a failed op; anything else is a defect in the
# run itself and stops it.
TYPED_ERRORS = (TruncationError, LatticeError, AccuracyError, NoRootError, RangeError)


@dataclass
class OpRecord:
    case: str  # the kind of op: "pair", a criterion, or a Monte Carlo case
    wall_s: float
    cpu_s: float  # user + system time of every thread in the process
    work: float
    norm_s: float = 0.0  # cpu_s at a nominal machine speed, set by the timed loop
    ok: bool = True
    detail: str = ""
    mean: float = 0.0  # Monte Carlo: the checked estimate
    se: float = 0.0  # Monte Carlo: its stderr
    stop_fraction: float = 0.0
    elapsed_s: float = 0.0  # acceptance: the criterion's own timing
    output: object = None  # kept for checks made after the timed loop

    def fail(self, reason: str) -> None:
        self.ok = False
        self.detail = f"{self.detail}; {reason}" if self.detail else reason


@dataclass(frozen=True)
class Op:
    case: str
    compute: Callable[[], object]
    check: Callable[[object, OpRecord], None]
    work: float


def execute(op: Op) -> OpRecord:
    """Time ``op.compute``; the check runs after the clocks stop."""
    start, cpu = time.perf_counter(), time.process_time()
    try:
        out = op.compute()
    except TYPED_ERRORS as exc:
        rec = OpRecord(op.case, time.perf_counter() - start, time.process_time() - cpu, 0.0)
        rec.fail(f"{type(exc).__name__}: {exc}")
        return rec
    rec = OpRecord(op.case, time.perf_counter() - start, time.process_time() - cpu, op.work)
    op.check(out, rec)
    return rec


class Workload:
    name = ""
    unit = ""  # what one unit of work is, for the throughput metric
    aliases: dict[str, str] = {}  # end-to-end metric -> what it measures here
    trace_cycles = 1  # cycles in the traced run; fixed so counts repeat
    min_cycles = 1  # cycles an untraced run completes even past its time

    def __init__(self, seed: int):
        self.seed = seed

    def first_pair(self) -> tuple[float, float]:
        raise NotImplementedError

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def verdict_s(self, records: list[OpRecord], clock: str) -> float:
        """Time on ``clock`` (an OpRecord field) to one cycle's verdict at its stated accuracy."""
        return sum(getattr(r, clock) for r in records)

    def finish(self, records: list[OpRecord]) -> None:
        """Checks that need references too costly to build inside the loop."""


# --------------------------------------------------------------------------
# solve-grid


MESH_TIMES = (0.0, 0.3, 0.6, 0.9)
MESH_POINTS = 1025
# (t, q as a fraction of the boundary Z (1 - t)); the last point is in the
# stopping region.
SCALAR_POINTS = ((0.0, 0.0), (0.0, 0.5), (0.5, 0.25), (0.8, 1.5))
FIT_TIMES = (0.0, 0.5)
LOG_RANGE = (math.log(0.25), math.log(10.0))

Z_TOL = 1e-8  # acceptance criteria 2 and 3
VALUE_RTOL = 1e-9  # criterion 6 compares the series value with quadrature to 1e-9
FIT_TOL = 1e-9  # criterion 9
CONTINUITY_RTOL = 1e-12


@dataclass(frozen=True)
class SolveOutput:
    alpha: float
    n: float
    Z: float
    points: tuple[tuple[float, float], ...]
    u: tuple[float, ...]
    v: tuple[float, ...]


def solve_pair(alpha: float, n: float) -> tuple[SolveOutput, float, list, list]:
    params = ModelParams(alpha, n)
    sol = value.build_candidate(params)
    margin = boundary.boundary_margin(params)
    mesh = []
    for t in MESH_TIMES:
        zq = sol.Z * (1.0 - t)
        # the grid spans both regions; the last two points straddle the boundary
        q = np.append(np.linspace(0.0, 2.0 * zq, MESH_POINTS), [np.nextafter(zq, 0.0), zq])
        mesh.append(value.U_star(sol, t, q))
    points = tuple((t, f * sol.Z * (1.0 - t)) for t, f in SCALAR_POINTS)
    u = tuple(value.U_star(sol, t, q) for t, q in points)
    v = tuple(value.V_star(sol, t, math.sqrt(q)) for t, q in points)
    fits = [value.smooth_fit_residual(sol, t) for t in FIT_TIMES]
    return SolveOutput(alpha, n, sol.Z, points, u, v), margin, mesh, fits


def check_solve(out, rec: OpRecord) -> None:
    solved, margin, mesh, fits = out
    rec.detail = f"(alpha, n) = ({solved.alpha!r}, {solved.n!r})"
    if not margin >= 0.0:
        rec.fail(f"boundary margin {margin:.3e} < 0")
    for t, row in zip(MESH_TIMES, mesh):
        below, at = row[-2], row[-1]
        if not abs(below - at) <= CONTINUITY_RTOL * max(1.0, abs(at)):
            rec.fail(f"U* jumps by {below - at:.3e} across the boundary at t={t}")
    worst_fit = max(fits)
    if not worst_fit <= FIT_TOL:
        rec.fail(f"smooth-fit residual {worst_fit:.3e} > {FIT_TOL:g}")
    rec.output = solved


@functools.lru_cache(maxsize=None)
def kummer_reference(alpha: float, n: float) -> tuple[object, object]:
    """Z and E1 from psi(y) = 1F1(n/2; alpha/2; y/2), at 30 digits.

    The smooth-fit function is F(z) = (n/alpha) z 1F1(n/2+1; alpha/2+1; z/2)
    - n psi(z).  A double-precision root from scipy's hyp1f1 seeds mpmath's
    secant iteration, so nothing here touches the package's series.
    """

    def f(z):
        return n / alpha * z * hyp1f1(0.5 * n + 1.0, 0.5 * alpha + 1.0, 0.5 * z) - n * hyp1f1(
            0.5 * n, 0.5 * alpha, 0.5 * z
        )

    hi = 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
    guess = brentq(f, 0.0, hi, xtol=1e-15)
    with mpmath.workdps(30):
        A, N = mpmath.mpf(alpha), mpmath.mpf(n)

        def F(z):
            return N / A * z * mpmath.hyp1f1(N / 2 + 1, A / 2 + 1, z / 2) - N * mpmath.hyp1f1(
                N / 2, A / 2, z / 2
            )

        # two starts a hair apart: the secant steps converge from double precision at once
        Z = mpmath.findroot(F, (mpmath.mpf(guess), mpmath.mpf(guess) * (1 + mpmath.mpf(1e-10))))
        E1 = Z ** (N / 2) / mpmath.hyp1f1(N / 2, A / 2, Z / 2)
    return Z, E1


def kummer_value(alpha: float, n: float, t: float, q: float) -> float:
    Z, E1 = kummer_reference(alpha, n)
    with mpmath.workdps(30):
        N, tau, qm = mpmath.mpf(n), 1 - mpmath.mpf(t), mpmath.mpf(q)
        if qm >= Z * tau:
            return float(qm ** (N / 2))
        return float(E1 * tau ** (N / 2) * mpmath.hyp1f1(N / 2, mpmath.mpf(alpha) / 2, qm / (2 * tau)))


class SolveGrid(Workload):
    name = "solve-grid"
    unit = "pairs"
    aliases = {
        "throughput_per_cpu_s": "solve_pairs_per_s",
        "op_cpu_p50_ms": "solve_pair_p50_ms",
        "op_cpu_p90_ms": "solve_pair_p90_ms",
        "verdict_cpu_s": "one 64-pair cycle",
    }
    trace_cycles = 8
    pairs_per_cycle = 64

    def __init__(self, seed: int):
        super().__init__(seed)
        self._rng = np.random.default_rng(seed)
        self._pairs: list[tuple[float, float]] = []
        self._seen: set[tuple[float, float]] = set()

    def _pair(self, index: int) -> tuple[float, float]:
        # One sequential stream per seed; a pair never repeats within a run.
        while len(self._pairs) <= index:
            a, n = np.exp(self._rng.uniform(*LOG_RANGE, size=2))
            pair = (float(a), float(n))
            if pair not in self._seen:
                self._seen.add(pair)
                self._pairs.append(pair)
        return self._pairs[index]

    def first_pair(self):
        return self._pair(0)

    def cycle(self, index):
        base = index * self.pairs_per_cycle
        ops = []
        for i in range(base, base + self.pairs_per_cycle):
            a, n = self._pair(i)
            ops.append(Op("pair", functools.partial(solve_pair, a, n), check_solve, 1.0))
        return ops

    def finish(self, records):
        for rec in records:
            out = rec.output
            if out is None:
                continue
            a, n = out.alpha, out.n
            Z_ref, _ = kummer_reference(a, n)
            gap = abs(out.Z - float(Z_ref))
            if not gap <= Z_TOL:
                rec.fail(f"|Z - Z_kummer| = {gap:.3e} > {Z_TOL:g}")
            for (t, q), u, v in zip(out.points, out.u, out.v):
                ref = kummer_value(a, n, t, q)
                for label, got in (("U*", u), ("V*", v)):
                    rel = abs(got - ref) / abs(ref) if ref else abs(got)
                    if not rel <= VALUE_RTOL:
                        rec.fail(f"{label}({t:g}, {q:.6g}) off the Kummer value by {rel:.3e}")
            rec.output = None


# --------------------------------------------------------------------------
# oracle-check

CRITERIA = (1, 2, 3, 4, 5, 6, 9, 10)


def run_criterion(index: int):
    prefix = f"criterion_{index}_"
    name = next(attr for attr in vars(acceptance) if attr.startswith(prefix))
    return getattr(acceptance, name)()


def check_criterion(out, rec: OpRecord) -> None:
    rec.elapsed_s = out.elapsed
    if not out.ok:
        rec.fail(out.line())


class OracleCheck(Workload):
    name = "oracle-check"
    unit = "criteria"
    aliases = {
        "throughput_per_cpu_s": "criteria per second",
        "op_cpu_p50_ms": "per criterion",
        "op_cpu_p90_ms": "per criterion",
        "verdict_cpu_s": "oracle_check_s",
    }

    def first_pair(self):
        return (3.0, 1.0)

    def cycle(self, index):
        # The criteria's inputs are fixed by the gate; the seed orders them.
        order = np.random.default_rng([self.seed, index]).permutation(CRITERIA)
        return [
            Op(f"c{k}", functools.partial(run_criterion, int(k)), check_criterion, 1.0)
            for k in order
        ]


# --------------------------------------------------------------------------
# mc-exact

MC_STEPS = 2000
SWEEP_MULTIPLIERS = (0.5, 0.75, 1.0, 1.5, 2.0)
SE_TARGET = 1e-3  # verdict_s scales each case to this standard error


@dataclass(frozen=True)
class McCase:
    name: str
    params: ModelParams
    z: float
    target: float
    sweep: bool = False


def run_case(case: McCase, n_paths: int, seed: int):
    config = simulate.SimConfig(
        params=case.params,
        n_paths=n_paths,
        n_steps=MC_STEPS,
        seed=seed,
        scheme=simulate.SCHEME_EXACT,
    )
    if case.sweep:
        return simulate.policy_sweep(config, SWEEP_MULTIPLIERS, Z=case.z)
    return simulate.mc_estimate(config, simulate.ThresholdPolicy(case.z))


def check_case(case: McCase, out, rec: OpRecord) -> None:
    """Criterion 8 on a sweep; the estimate is kept for ``McExact.finish``."""
    if case.sweep:
        res = next(r.result for r in out.rows if r.multiplier == 1.0)
        for row in out.rows:
            # criterion 8: no alternative may beat the candidate by a paired stderr
            if row.multiplier != 1.0 and row.paired_mean_vs_candidate < -row.paired_stderr_vs_candidate:
                rec.fail(f"multiplier {row.multiplier:g} beats the candidate")
    else:
        res = out
    rec.mean = res.mean
    rec.se = res.stderr
    rec.stop_fraction = res.stop_fraction


def pooled_estimate(case: McCase, records: list[OpRecord]) -> tuple[float, float, int] | None:
    """Mean, stderr and op count of all of ``case``'s paths in ``records`` together.

    Every op runs the same number of paths on its own seed, so the pooled mean
    is the mean of the op means and its variance is the sum of theirs over k^2.
    Ops that raised carry no estimate and are left out.
    """
    recs = [r for r in records if r.case == case.name and r.se > 0.0]
    if not recs:
        return None
    k = len(recs)
    return statistics.fmean(r.mean for r in recs), math.sqrt(sum(r.se * r.se for r in recs)) / k, k


def case_seed(seed: int, cycle: int, case: int) -> int:
    return int(np.random.SeedSequence([seed, cycle, case]).generate_state(1, np.uint64)[0])


class McExact(Workload):
    name = "mc-exact"
    unit = "paths"
    aliases = {
        "throughput_per_cpu_s": f"mc_paths_per_s at {MC_STEPS} steps",
        "op_cpu_p50_ms": "per case",
        "op_cpu_p90_ms": "per case",
        "verdict_cpu_s": "mc_time_to_se_s: sum over cases of time * (stderr / 1e-3)^2",
    }
    n_paths = 8192  # per op
    # Criterion 7 is checked on a case's paths pooled over the run.  Per op, at
    # 8192 paths, the 3-se term sets the tolerance and an unbiased case fails
    # about one op in 300, which over hundreds of runs flags correct code.  From
    # three ops of a case on, the 1% term sets it (1% of every target here is
    # more than 2.4 stderr of one op): the same absolute tolerance the gate
    # applies at 200k paths, and never wider than one op's.
    min_cycles = 3
    trace_cycles = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        exc = value.build_excursion()
        z31 = exc.C * exc.C
        t31 = 2.0 * exc.C * math.exp(-0.5 * z31)
        self.cases = [
            McCase("a3n1", ModelParams(3, 1), z31, t31),
            McCase("a1n1", ModelParams(1, 1), 1.0, math.exp(-0.5)),
            McCase("sweep_a3n1", ModelParams(3, 1), z31, t31, sweep=True),
        ]

    def first_pair(self):
        p = self.cases[0].params
        return (p.alpha, p.n)

    def cycle(self, index):
        return [
            Op(
                case.name,
                functools.partial(run_case, case, self.n_paths, case_seed(self.seed, index, j)),
                functools.partial(check_case, case),
                float(self.n_paths),
            )
            for j, case in enumerate(self.cases)
        ]

    def verdict_s(self, records, clock):
        return sum(getattr(r, clock) * (r.se / SE_TARGET) ** 2 for r in records)

    def finish(self, records):
        for case in self.cases:
            est = pooled_estimate(case, records)
            if est is None:
                continue
            mean, se, k = est
            gap = mean - case.target
            tol = max(3.0 * se, 0.01 * case.target)  # criterion 7, unchanged
            if abs(gap) <= tol:
                continue
            reason = (
                f"{k} ops pooled: mean {mean:.6f} vs target {case.target:.6f}: "
                f"gap {gap:+.3e} ({gap / se:+.1f} se) > tol {tol:.3e}"
            )
            for rec in records:
                if rec.case == case.name:
                    rec.fail(reason)


WORKLOADS = {w.name: w for w in (SolveGrid, OracleCheck, McExact)}
MC_CASES = ("a3n1", "a1n1", "sweep_a3n1")
