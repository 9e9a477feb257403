#!/usr/bin/env python3
"""besselstop benchmark: one seeded, closed-loop workload per invocation.

Run from the repository root:

    python3 benchmarks/run.py --workload solve-grid --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory; without it the
script exits with status 2 and prints no result.  Metric names, units and
workloads come from ``BENCHMARK.json`` at the root.

``--trace 0`` runs cycles of the workload until ``--seconds`` have passed and
reports the end-to-end metrics, in CPU time scaled to a nominal machine speed
(see ``SpeedProbe``).  ``--trace 1`` runs a fixed number of cycles,
each op once untraced and once with every public layer function wrapped, and
reports the per-layer metrics, the tracing overhead and, where the workload
simulates, the single-thread Monte Carlo baseline.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from besselstop import ModelParams, build_candidate; "
    "build_candidate(ModelParams(float(sys.argv[2]), float(sys.argv[3])))"
)
TEMP_BYTES_PATHS = 2048  # one single-worker chunk of the Monte Carlo engine
CLI_REPEATS = 5
PROBE_EVERY_S = 0.5
PROBE_NOMINAL_S = 0.010  # CPU time of one probe loop at the speed times are quoted at


def pin_threads() -> int:
    """Give the simulator one worker per CPU and keep BLAS single-threaded.

    Must run before numpy is imported; the setup subprocesses inherit it.
    """
    nproc = len(os.sched_getaffinity(0))
    os.environ["BESSELSTOP_THREADS"] = str(nproc)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return nproc


def measure_setup(pair: tuple[float, float]) -> float:
    """Median CPU time of a fresh interpreter that imports the package and solves ``pair``."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), repr(pair[0]), repr(pair[1])]

    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def once() -> float:
        before = children_cpu()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        return children_cpu() - before

    # the median discounts the one start that compiles bytecode after a checkout
    return statistics.median(once() for _ in range(SETUP_REPEATS))


def probe_loop() -> float:
    """Fixed pure-Python arithmetic that shares no code with the package."""
    acc = 0.0
    for i in range(1, 60001):
        acc += math.sqrt(i) / i
    return acc


class SpeedProbe:
    """CPU time of ``probe_loop``, sampled between ops, as a gauge of machine speed.

    The same code took from 7 to 11 ms of CPU from one minute to the next on
    the shared 2-vCPU machine this benchmark was built on, and the package's
    ops moved with it, within a run as well as between runs.  So each op's CPU
    time is scaled by the probes nearest it (``normalise``), i.e. quoted at the
    speed where one probe loop takes 10 ms.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf
        self._taken: list[tuple[object, int]] = []  # (record, samples taken when it ended)

    def sample(self) -> None:
        if time.perf_counter() - self._last < PROBE_EVERY_S:
            return
        start = time.process_time()
        probe_loop()
        self.samples.append(time.process_time() - start)
        self._last = time.perf_counter()

    def taken(self, rec) -> None:
        self._taken.append((rec, len(self.samples)))

    def normalise(self) -> None:
        """Set ``norm_s`` of every op: its CPU time over the median of the two
        probe samples before it and the one after it, times ``PROBE_NOMINAL_S``.

        On ten runs each of solve-grid and oracle-check, this local scaling
        roughly halved the spread between runs of every time metric, compared
        with one scale per run.
        """
        for rec, n in self._taken:
            rec.norm_s = rec.cpu_s * PROBE_NOMINAL_S / statistics.median(self.samples[max(0, n - 2) : n + 1])

    def scale(self) -> float:
        """The run's median scale, for the report."""
        return PROBE_NOMINAL_S / statistics.median(self.samples)


def run_cycles(workload, execute, seconds: float, probe: SpeedProbe):
    """Closed loop: whole cycles until ``seconds`` have passed, and at least
    ``workload.min_cycles`` of them.

    The probe runs between ops, outside every op's timing.
    """
    done = []
    start = time.perf_counter()
    index = 0
    while True:
        recs = []
        for op in workload.cycle(index):
            probe.sample()
            recs.append(execute(op))
            probe.taken(recs[-1])
        done.append(recs)
        index += 1
        if index >= workload.min_cycles and time.perf_counter() - start >= seconds:
            probe.normalise()
            return done


def run_traced(workload, execute, tracer):
    """The first ``workload.trace_cycles`` cycles, each op untraced and then traced.

    Running the two back to back keeps the machine-speed drift between them
    small, so their difference is the tracing overhead.
    """
    untraced, traced = [], []
    for index in range(workload.trace_cycles):
        plain, wrapped = [], []
        for op in workload.cycle(index):
            plain.append(execute(op))
            tracer.install()
            try:
                wrapped.append(execute(op))
            finally:
                tracer.uninstall()
        untraced.append(plain)
        traced.append(wrapped)
    return untraced, traced


def _p90(values: list[float]) -> float:
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=10, method="inclusive")[8]


def timings(workload, cycles, clock: str) -> dict[str, float]:
    """Throughput, op percentiles and mean verdict time on ``clock`` ("cpu_s" or "wall_s").

    Percentiles are taken per kind of op (``OpRecord.case``) and combined by
    geometric mean, so a workload whose cycle mixes ops of very different cost
    reports the typical op rather than whichever kind the pooled median lands on.
    """
    by_kind: dict[str, list[float]] = {}
    for recs in cycles:
        for r in recs:
            by_kind.setdefault(r.case, []).append(getattr(r, clock))
    work = sum(r.work for recs in cycles for r in recs)
    return {
        "throughput": work / sum(sum(v) for v in by_kind.values()),
        "p50_ms": statistics.geometric_mean(statistics.median(v) for v in by_kind.values()) * 1e3,
        "p90_ms": statistics.geometric_mean(_p90(v) for v in by_kind.values()) * 1e3,
        # mean, not median: CPU speed flips between fast and slow phases within
        # a run, and a median over cycles picks one phase
        "verdict_s": statistics.fmean(workload.verdict_s(recs, clock) for recs in cycles),
    }


def end_to_end(workload, cycles, setup_s: float) -> dict[str, float]:
    cpu = timings(workload, cycles, "norm_s")
    return {
        "setup_s": setup_s,  # import-bound; the probe does not track it, so unscaled
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_cpu_s": cpu["throughput"],
        "op_cpu_p50_ms": cpu["p50_ms"],
        "op_cpu_p90_ms": cpu["p90_ms"],
        "verdict_cpu_s": cpu["verdict_s"],
    }


def _median_wall(fn, repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def cli_overhead(pair: tuple[float, float]) -> float:
    """Extra wall time of ``cli.run`` over the library calls it makes.

    One ``value`` and one small ``simulate`` command, each against the same
    work done through the library directly; medians of a few repeats.
    """
    from besselstop import ModelParams, boundary, cli, simulate, value

    a, n = pair

    def lib_value():
        sol = value.build_candidate(ModelParams(a, n))
        value.U_star(sol, 0.0, 0.0)
        value.boundary_q(sol, 0.0)
        value.boundary_x(sol, 0.0)

    sim_args = dict(paths=512, steps=200, seed=1)

    def lib_simulate():
        params = ModelParams(3.0, 1.0)
        z = boundary.find_Z(params).value
        config = simulate.SimConfig(
            params=params, n_paths=sim_args["paths"], n_steps=sim_args["steps"], seed=sim_args["seed"]
        )
        simulate.mc_estimate(config, simulate.ThresholdPolicy(z))

    cli_value = lambda: cli.run(cli.RunConfig(command="value", alpha=a, n=n))  # noqa: E731
    cli_simulate = lambda: cli.run(  # noqa: E731
        cli.RunConfig(command="simulate", alpha=3.0, n=1.0, **sim_args)
    )
    return (_median_wall(cli_value, CLI_REPEATS) - _median_wall(lib_value, CLI_REPEATS)) + (
        _median_wall(cli_simulate, CLI_REPEATS) - _median_wall(lib_simulate, CLI_REPEATS)
    )


def mc_baselines(workload, untraced, workers: int) -> dict[str, float]:
    """Single-thread throughput and per-chunk temporaries of the workload's first case.

    The single-thread run repeats the untraced run's first op (same seed, same
    paths) with one worker.  Temporaries are the tracemalloc peak of one
    2048-path chunk on one worker, times the worker count.
    """
    import tracemalloc

    from bench_workloads import case_seed, run_case

    case = workload.cases[0]
    multi = next(r for r in untraced[0] if r.case == case.name)
    pinned = os.environ["BESSELSTOP_THREADS"]
    os.environ["BESSELSTOP_THREADS"] = "1"
    try:
        seed = case_seed(workload.seed, 0, 0)
        start = time.perf_counter()
        run_case(case, workload.n_paths, seed)
        single = workload.n_paths / (time.perf_counter() - start)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_case(case, TEMP_BYTES_PATHS, seed)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    finally:
        os.environ["BESSELSTOP_THREADS"] = pinned
    multi_rate = workload.n_paths / multi.wall_s
    return {
        "simulate.single_thread_paths_per_s": single,
        "simulate.thread_scaling_eff": multi_rate / (workers * single),
        "simulate.temp_bytes_computed": float(peak * workers),
    }


def per_layer(tr, workload, traced, overhead_s: float, untraced_s: float, extras) -> dict[str, float]:
    from bench_workloads import CRITERIA, MC_CASES, pooled_estimate

    records = [r for recs in traced for r in recs]
    calls = tr.calls
    busy = tr.busy_s
    count = tr.count

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0.0 else 0.0

    def case_mean(case: str, field: str) -> float:
        vals = [getattr(r, field) for r in records if r.case == case]
        return statistics.fmean(vals) if vals else 0.0

    K = tr.samples.get("series.K", [])
    sim_busy = busy("simulate.mc_estimate") + busy("simulate.policy_sweep")
    m = {
        "series.build_coefficients.busy_s": busy("series.build_coefficients"),
        "series.build_coefficients.calls": calls["series.build_coefficients"],
        "series.K.max": max(K, default=0),
        "series.K.mean": statistics.fmean(K) if K else 0.0,
        "boundary.find_Z.busy_s": busy("boundary.find_Z"),
        "boundary.find_Z.calls": calls["boundary.find_Z"],
        "boundary.find_Z.iterations": count("boundary.find_Z.iterations"),
        "boundary.find_Z.residual.max": count("boundary.find_Z.residual.max"),
        "boundary.boundary_margin.busy_s": busy("boundary.boundary_margin"),
        "value.build_candidate.busy_s": busy("value.build_candidate"),
        "value.U_star.vector.busy_s": busy("value.U_star.vector"),
        "value.U_star.points_per_s": rate(count("value.U_star.points"), busy("value.U_star.vector")),
        "value.U_star.scalar.busy_s": busy("value.U_star.scalar"),
        "value.U_star.scalar.calls": calls["value.U_star.scalar"],
        "oracles.Z_from_ode.busy_s": busy("oracles.Z_from_ode"),
        "oracles.ode_shoot.busy_s": busy("oracles.ode_shoot"),
        "oracles.ode_shoot.rk4_steps": count("oracles.ode_shoot.rk4_steps"),
        "oracles.ode_residual.max": count("oracles.ode_residual.max"),
        "oracles.dp_value.busy_s": busy("oracles.dp_value"),
        "oracles.dp_value.cells": count("oracles.dp_value.cells"),
        "oracles.dp_value.cells_per_s": rate(count("oracles.dp_value.cells"), busy("oracles.dp_value")),
        "oracles.dp_value.rel_gap.max": count("oracles.dp_value.rel_gap.max"),
        "verify.run_iteration_checks.busy_s": busy("verify.run_iteration_checks"),
        "verify.run_shape_checks.busy_s": busy("verify.run_shape_checks"),
        "verify.checks": count("verify.checks"),
        "acceptance.criteria_failed": sum(
            1 for r in records if r.case in {f"c{k}" for k in CRITERIA} and not r.ok
        ),
        "simulate.mc_estimate.busy_s": busy("simulate.mc_estimate"),
        "simulate.policy_sweep.busy_s": busy("simulate.policy_sweep"),
        "simulate.path_steps": count("simulate.path_steps"),
        "simulate.path_steps_per_s": rate(count("simulate.path_steps"), sim_busy),
        "simulate.normals_drawn": count("simulate.normals_drawn"),
        "simulate.streams_created": count("simulate.streams_created"),
        "simulate.temp_bytes_computed": 0.0,
        "simulate.workers": count("simulate.workers"),
        "simulate.single_thread_paths_per_s": 0.0,
        "simulate.thread_scaling_eff": 0.0,
        "cli.overhead_s": 0.0,
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_s / untraced_s,
    }
    for k in CRITERIA:
        m[f"acceptance.c{k}.elapsed_s"] = sum(r.elapsed_s for r in records if r.case == f"c{k}")
    cases = {case.name: case for case in getattr(workload, "cases", ())}
    for name in MC_CASES:
        est = pooled_estimate(cases[name], records) if name in cases else None
        # signed, over the case's pooled paths, as criterion 7 is checked
        m[f"simulate.gap_se.{name}"] = (est[0] - cases[name].target) / est[1] if est else 0.0
        m[f"simulate.stop_fraction.{name}"] = case_mean(name, "stop_fraction")
    m.update(extras)
    return m


def git_revision() -> str | None:
    """HEAD of the checkout's own .git, if there is one; never looks above ROOT."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, nproc: int, workers: int) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "workers": workers,
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "machine": platform.machine(),
    }


def report(workload, metrics: dict, units: dict, cycles, probe: SpeedProbe | None) -> None:
    records = [r for recs in cycles for r in recs]
    failed = [r for r in records if not r.ok]
    print(f"workload {workload.name}: {len(records)} ops attempted, {len(failed)} failed")
    for name, val in metrics.items():
        alias = workload.aliases.get(name, "") if probe is not None else ""
        note = f"  ({alias})" if alias else ""
        print(f"  {name:42s} {val:>16.6g} {units[name]}{note}")
    if probe is not None:
        print(
            f"  speed probe: median {statistics.median(probe.samples) * 1e3:.4g} ms "
            f"over {len(probe.samples)} samples, median scale {probe.scale():.4g}"
        )
        for clock in ("cpu_s", "wall_s"):
            t = timings(workload, cycles, clock)
            print(
                f"  unscaled {clock[:-2]}: {t['throughput']:.6g} {workload.unit}/s, "
                f"op p50 {t['p50_ms']:.6g} ms, p90 {t['p90_ms']:.6g} ms, verdict {t['verdict_s']:.6g} s"
            )
    for rec in failed[:10]:
        print(f"  FAILED {rec.case}: {rec.detail}")
    if len(failed) > 10:
        print(f"  ... and {len(failed) - 10} more failed ops")


def main(argv: list[str] | None = None) -> int:
    if not MANIFEST.is_file():
        print(f"benchmark: {MANIFEST.name} not found at the repository root", file=sys.stderr)
        return 2
    manifest = json.loads(MANIFEST.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(manifest["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0.0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "besselstop" / "__init__.py").is_file():
        print(f"benchmark: no besselstop package under {SRC}", file=sys.stderr)
        return 2

    nproc = pin_threads()
    sys.path.insert(0, str(SRC))
    from bench_trace import Tracer
    from bench_workloads import WORKLOADS, McExact, execute
    from besselstop import ModelParams, simulate, value

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = None if args.trace else measure_setup(workload.first_pair())
    # the process's own first solve, so lazy imports are not charged to op one
    value.build_candidate(ModelParams(*workload.first_pair()))

    workers = simulate.worker_count(nproc)
    probe = None
    if args.trace:
        tracer = Tracer()
        untraced, cycles = run_traced(workload, execute, tracer)
        untraced_s = sum(r.cpu_s for recs in untraced for r in recs)
        traced_s = sum(r.cpu_s for recs in cycles for r in recs)
        extras = {"cli.overhead_s": cli_overhead(workload.first_pair())}
        if isinstance(workload, McExact):
            extras.update(mc_baselines(workload, untraced, workers))
        metrics = per_layer(tracer, workload, cycles, traced_s - untraced_s, untraced_s, extras)
        wanted = manifest["per_layer"]
    else:
        probe = SpeedProbe()
        cycles = run_cycles(workload, execute, args.seconds, probe)
        metrics = end_to_end(workload, cycles, setup_s)
        wanted = manifest["end_to_end"]

    records = [r for recs in cycles for r in recs]
    workload.finish(records)
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics disagree with {MANIFEST.name}: {sorted(set(metrics) ^ set(units))}")
    metrics = {name: metrics[name] for name in units}
    report(workload, metrics, units, cycles, probe)
    env = environment(args, nproc, workers)
    env["speed_scale"] = probe.scale() if probe is not None else None
    print(json.dumps({"env": env}, sort_keys=True))
    failed = sum(1 for r in records if not r.ok)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
