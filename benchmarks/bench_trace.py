"""Layer tracing for the benchmark's traced run.

The tracer replaces every public function of the package's layer modules with
a timing wrapper, in every ``besselstop`` namespace that holds a reference to
it, so calls from one layer into another are timed as well as the
benchmark's own calls.  A layer's busy time includes the layers it calls.
Private helpers, such as the Monte Carlo chunk stages, are not wrapped; exact
counts stand in for them.

The Monte Carlo layer's numpy handle is swapped for a proxy that counts the
RNG streams it creates and the variates it draws, so those counts are taken
where the work happens rather than derived from the configuration.

Nothing is patched until ``install`` runs, and ``uninstall`` restores every
original, so untraced measurements never pass through a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("series", "boundary", "value", "oracles", "simulate", "verify", "acceptance", "cli")

# Generator methods that produce variates; anything else passes through uncounted.
# Beyond the normals drawn today, the list covers the draws an exact sampler for
# fractional dimension would use (noncentral chi-square, or a Poisson-gamma mix).
_DRAWS = frozenset(
    {"standard_normal", "normal", "chisquare", "noncentral_chisquare", "standard_gamma", "gamma", "poisson"}
)


class _CountingGenerator:
    """Forwards to a numpy Generator, counting every variate it returns."""

    def __init__(self, gen: np.random.Generator, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name not in _DRAWS:
            return attr

        def draw(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._tracer.add("simulate.normals_drawn", int(np.size(out)))
            return out

        return draw


class _CountingRandom:
    """Stands in for ``numpy.random``: counts each Generator built (one RNG stream)."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(np.random, name)

    def Generator(self, bit_generator):
        self._tracer.add("simulate.streams_created", 1)
        return _CountingGenerator(np.random.Generator(bit_generator), self._tracer)

    def default_rng(self, *args, **kwargs):  # the other way to build a stream
        self._tracer.add("simulate.streams_created", 1)
        return _CountingGenerator(np.random.default_rng(*args, **kwargs), self._tracer)


class _CountingNumpy:
    """Stands in for ``numpy`` inside the simulate module; only ``random`` differs."""

    def __init__(self, tracer: "Tracer"):
        self.random = _CountingRandom(tracer)

    def __getattr__(self, name):
        return getattr(np, name)


def _config_arg(args, kwargs):
    return kwargs["config"] if "config" in kwargs else args[0]


def _hook_build_coefficients(tr, out, args, kwargs):
    tr.sample("series.K", out.K)


def _hook_find_Z(tr, out, args, kwargs):
    tr.add("boundary.find_Z.iterations", out.iterations)
    tr.maximum("boundary.find_Z.residual.max", abs(out.residual))


def _hook_ode_shoot(tr, out, args, kwargs):
    # RK4 runs from node 2 to the last node; the first two come from the series.
    tr.add("oracles.ode_shoot.rk4_steps", out.grid.size - 3)


def _hook_ode_residual(tr, out, args, kwargs):
    tr.maximum("oracles.ode_residual.max", float(np.max(out)))


def _hook_dp_value(tr, out, args, kwargs):
    t_rows, q_cols = out.value.shape
    tr.add("oracles.dp_value.cells", (t_rows - 1) * q_cols)
    params = kwargs["params"] if "params" in kwargs else args[0]
    t0 = kwargs.get("t0", args[4] if len(args) > 4 else 0.0)
    sol = tr.original("value.build_candidate")(params)
    target = tr.original("value.U_star")(sol, t0, 0.0)
    tr.maximum("oracles.dp_value.rel_gap.max", abs(out.value_at_origin - target) / target)


def _hook_report(tr, out, args, kwargs):
    tr.add("verify.checks", out.n_total)


def _hook_simulation(tr, out, args, kwargs):
    config = _config_arg(args, kwargs)
    tr.add("simulate.path_steps", config.n_paths * config.n_steps)
    workers = tr.original("simulate.worker_count")(max(1, config.n_paths // 256))
    tr.maximum("simulate.workers", workers)


_HOOKS = {
    "series.build_coefficients": _hook_build_coefficients,
    "boundary.find_Z": _hook_find_Z,
    "oracles.ode_shoot": _hook_ode_shoot,
    "oracles.ode_residual": _hook_ode_residual,
    "oracles.dp_value": _hook_dp_value,
    "verify.run_iteration_checks": _hook_report,
    "verify.run_shape_checks": _hook_report,
    "simulate.mc_estimate": _hook_simulation,
    "simulate.policy_sweep": _hook_simulation,
}


def _u_star_span(args, kwargs):
    q = kwargs["q"] if "q" in kwargs else args[2]
    if np.ndim(q) == 0:
        return "value.U_star.scalar", 0
    return "value.U_star.vector", int(np.size(q))


class Tracer:
    """Busy wall time, calls and counts per layer function, kept in memory."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # -- recording -----------------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, -math.inf), value)

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def _span_done(self, name: str, busy: float) -> None:
        with self._lock:
            self.busy[name] += busy
            self.calls[name] += 1

    def original(self, name: str):
        """The unwrapped function behind span ``name``, for the hooks' own calls."""
        return self._originals[name]

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if name == "value.U_star":
                span, points = _u_star_span(args, kwargs)
                if points:
                    tracer.add("value.U_star.points", points)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._span_done(span, time.perf_counter() - start)
            if hook is not None:
                hook(tracer, out, args, kwargs)
            return out

        return traced

    def install(self) -> None:
        """Wrap every public layer function wherever the package refers to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"besselstop.{layer}") for layer in LAYERS]
        namespaces = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "besselstop" or key.startswith("besselstop."))
        ]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._originals[name] = obj
                wrappers[id(obj)] = self._wrap(name, obj)  # originals stay alive, so ids are unique
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapped = wrappers.get(id(obj))
                if wrapped is not None:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrapped)
        simulate = sys.modules["besselstop.simulate"]
        self._patched.append((simulate, "np", simulate.np))
        simulate.np = _CountingNumpy(self)

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def busy_s(self, name: str) -> float:
        return self.busy.get(name, 0.0)

    def count(self, name: str) -> float:
        return self.counts.get(name, 0.0)
