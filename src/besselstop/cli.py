"""Command-line interface: reproducible runs with JSON/CSV result envelopes.

One table, ``COMMANDS``, gives each subcommand its help text, the flags it
reads and its handler, ``(config, params) -> (results, csv_rows)``, which
imports the layers it runs when it runs: ``coeffs`` loads neither numpy nor
scipy, and ``value`` no scipy.

Every invocation echoes its full parsed configuration (including defaults and
the seed) into the output, so any published number can be regenerated from
the artifact alone.  JSON numbers use shortest round-trip serialization, and
an undefined quantity (a NaN or infinite float, such as the standard error of
a one-pair run) is ``null``; CSV uses 10 significant digits with a period
decimal separator regardless of locale, and writes it ``nan``.

Exit codes: 0 success, 1 numeric failure (machine-readable error payload on
stdout), 2 usage error.  A ``ValueError`` from the library is an argument it
rejected, so it is a usage error too, and so is an ``--out`` path that cannot
be written; that path is refused before the command runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

from . import __version__
from .boundary import NoRootError, find_C_excursion, find_Z
from .series import ModelParams, _require, _require_int, build_coefficients
from .value import CandidateSolution, U_star, boundary_q, boundary_x, build_candidate


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation; echoed verbatim into every output artifact.

    These defaults are the command line's: the parser leaves out every flag
    that is not given.
    """

    command: str
    alpha: float = 3.0
    n: float = 1.0
    t0: float = 0.0
    q0: float = 0.0
    tol: float = 1e-10
    paths: int = 200_000
    steps: int = 2000
    seed: int = 20240601
    multipliers: tuple[float, ...] = (0.5, 0.75, 1.0, 1.5, 2.0)
    out_format: str = "json"
    out_path: str | None = None
    t_points: int = 101
    q_steps: int = 4000
    q_max: float | None = None
    eps: float = 1e-14
    ymax: float | None = None
    r_max: int = 60
    inv_steps: int = 12
    criteria: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ResultEnvelope:
    tool_version: str
    config: dict
    results: object
    timing: float


class UsageError(ValueError):
    pass


# every flag once, as add_argument keywords; COMMANDS names the flags each
# command reads, and "--format" and "--out" go on every command
_FLAGS = {
    "--alpha": dict(type=float, help=f"bridge dimension (default {RunConfig.alpha:g})"),
    "--n": dict(type=float, help=f"payoff exponent (default {RunConfig.n:g})"),
    "--tol": dict(type=float, help=f"root tolerance (default {RunConfig.tol:g})"),
    **{flag: dict(type=float) for flag in ("--t0", "--q0")},
    **{flag: dict(type=int) for flag in ("--paths", "--steps", "--seed", "--r-max", "--inv-steps")},
    "--multipliers": dict(help="comma-separated threshold multipliers"),
    "--t-points": dict(type=int, help="rows in the CSV boundary curve"),
    "--eps": dict(type=float, help="relative tail tolerance"),
    "--ymax": dict(type=float, help="validated range (default automatic)"),
    "--q-steps": dict(type=int, help=f"lattice cells (default {RunConfig.q_steps})"),
    "--q-max": dict(type=float, help="lattice top in y = q/(1-t), above Z (default 6 Z)"),
    "--criteria": dict(help="comma-separated criterion indices (default all)"),
    "--format": dict(dest="out_format", choices=("json", "csv")),
    "--out": dict(dest="out_path", help="output path (default stdout)"),
}


def _fmt10(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def emit_boundary_curve(sol: CandidateSolution, t_points: int) -> list[list]:
    """CSV rows (t, z_q, x_boundary, value_at_zero) on an even time grid.

    Includes the pinned t = 1 row where the boundary and the value at the
    origin are both zero.
    """
    _require_int("t_points", t_points, 2)
    grid = [i / (t_points - 1) for i in range(t_points)]
    return [["t", "z_q", "x_boundary", "value_at_zero"]] + [
        [t, boundary_q(sol, t), boundary_x(sol, t), U_star(sol, t, 0.0)] for t in grid
    ]


def _mc_fields(res) -> dict:
    """The seven estimate fields of an ``MCResult``, in payload order."""
    return {
        "mean": res.mean,
        "stderr": res.stderr,
        "plain_mean": res.plain_mean,
        "plain_stderr": res.plain_stderr,
        "controls": res.controls,
        "ci95": list(res.ci95),
        "stop_fraction": res.stop_fraction,
    }


def _boundary(config: RunConfig, params: ModelParams):
    from .oracles import kummer_Z

    root = find_Z(params, tol=config.tol)
    try:
        kummer = kummer_Z(params)
    except NoRootError:  # M past float range; the series Z still stands
        kummer = None
    is_excursion = params == ModelParams(3, 1)
    results = {
        "Z": root.value,
        "C": find_C_excursion(min(config.tol, 1e-8)).value if is_excursion else None,
        "margin": root.value - 0.5 * (params.alpha + params.n - 2.0),
        "kummer_Z": kummer,
        "residual": root.residual,
        "iterations": root.iterations,
        "method": root.method,
    }
    if config.out_format != "csv":
        return results, None
    return results, emit_boundary_curve(build_candidate(params), config.t_points)


def _coeffs(config: RunConfig, params: ModelParams):
    table = build_coefficients(params, ymax=config.ymax, eps=config.eps)
    results = {"K": table.K, "eps": table.eps, "ymax": table.ymax, "coeffs": list(table.A)}
    if config.out_format != "csv":
        return results, None
    return results, [["k", "A_k"]] + [[k, c] for k, c in enumerate(table.A)]


def _value(config: RunConfig, params: ModelParams):
    _require("t0", config.t0, 0.0, 1.0)
    _require("q0", config.q0, 0.0, math.inf, open_hi=True)
    try:
        payoff = config.q0 ** (params.n / 2.0)
    except OverflowError:  # U_star would read the same power as inf
        raise UsageError(
            f"--q0 {config.q0:g}: its payoff q0^(n/2) at n = {params.n:g} leaves float range"
        ) from None
    sol = build_candidate(params, tol=config.tol)
    zq = boundary_q(sol, config.t0)
    return {
        "U": U_star(sol, config.t0, config.q0),
        "Z": sol.Z,
        "E1": sol.E1,
        "boundary_q": zq,
        "boundary_x": boundary_x(sol, config.t0),
        "payoff": payoff,
        "region": "stopping" if config.q0 >= zq else "continuation",
    }, None


def _simulation(config: RunConfig, params: ModelParams):
    """The ``SimConfig`` of a ``simulate`` or ``sweep`` run and its level Z."""
    from .simulate import SimConfig

    sim = SimConfig(params, config.t0, config.q0, n_paths=config.paths, n_steps=config.steps,
                    seed=config.seed)
    return sim, find_Z(params, tol=config.tol).value


def _simulate(config: RunConfig, params: ModelParams):
    from .simulate import ThresholdPolicy, mc_estimate

    sim, z = _simulation(config, params)
    res = mc_estimate(sim, ThresholdPolicy(z))
    head = {"Z": z, "scheme": sim.scheme}
    return {**head, **_mc_fields(res), "n_paths": res.n_paths, "warning": res.warning}, None


def _sweep(config: RunConfig, params: ModelParams):
    from .simulate import policy_sweep

    sim, z = _simulation(config, params)
    table = policy_sweep(sim, list(config.multipliers), Z=z)
    rows = [
        {
            "multiplier": r.multiplier,
            "Z_level": r.Z_level,
            **_mc_fields(r.result),
            "candidate": r.multiplier == 1.0,
            "paired_mean_vs_candidate": r.paired_mean_vs_candidate,
            "paired_stderr_vs_candidate": r.paired_stderr_vs_candidate,
        }
        for r in table.rows
    ]
    results = {"base_Z": table.base_Z, "argmax_multiplier": table.argmax_mean(), "rows": rows}
    if config.out_format != "csv":
        return results, None
    head = ["multiplier", "Z_level", "mean", "stderr"]
    return results, [head + ["ci_lo", "ci_hi", "stop_fraction", "candidate"]] + [
        [r[c] for c in head] + r["ci95"] + [r["stop_fraction"], r["candidate"]] for r in rows
    ]


def _dp_oracle(config: RunConfig, params: ModelParams):
    from .oracles import fd_value

    # one lattice on y = q/(1-t) carries every t0: U*(t0, 0) = (1-t0)^{n/2} u(0)
    tau = 1.0 - _require("t0", config.t0, 0.0, 1.0, open_hi=True)
    sol = build_candidate(params, tol=config.tol)
    lattice = fd_value(params, config.q_steps, config.q_max)
    value = tau ** (0.5 * params.n) * float(lattice.g[0])
    target = U_star(sol, config.t0, 0.0)
    return {
        "value_at_origin": value,
        "candidate_value": target,
        "rel_gap": value / target - 1.0,
        "q_steps": config.q_steps,
        "q_max": float(lattice.y[-1]),
        "Z_fd": lattice.Z_fd,
        "complementarity_residual": lattice.residual,
        "boundary_estimate_t0": lattice.Z_fd * tau,
        "boundary_scale_Z": sol.Z,
    }, None


def _ode_oracle(config: RunConfig, params: ModelParams):
    from .oracles import Z_from_ode

    z_series = find_Z(params, tol=config.tol).value
    z_ode, sol = Z_from_ode(params)
    return {
        "Z_ode": z_ode,
        "Z_series": z_series,
        "abs_gap": abs(z_ode - z_series),
        "max_residual": sol.residual,
        "ymax": float(sol.grid[-1]),
        "step": sol.step,
    }, None


def _verify_appendix(config: RunConfig, params: ModelParams):
    from .verify import run_iteration_checks

    return run_iteration_checks(steps=config.inv_steps, r_max=config.r_max).to_dict(), None


def _verify_lemmas(config: RunConfig, params: ModelParams):
    from .verify import SHAPE_CASES, run_shape_checks

    extra = () if params in SHAPE_CASES else (params,)
    return run_shape_checks(SHAPE_CASES + extra).to_dict(), None


def _acceptance(config: RunConfig, params: ModelParams):
    from .acceptance import run_acceptance

    rows = run_acceptance(indices=config.criteria)
    return {"all_passed": all(r.ok for r in rows), "criteria": [asdict(r) for r in rows]}, None


class Command(NamedTuple):
    """One subcommand: its help text, its handler and the flags it reads."""

    help: str
    handler: Callable[[RunConfig, ModelParams], tuple[object, list[list] | None]]
    flags: tuple[str, ...]


_PAIR = ("--alpha", "--n")
_SOLVE = (*_PAIR, "--tol")
_PATHS = ("--t0", "--q0", "--paths", "--steps", "--seed")

COMMANDS = {
    "boundary": Command(
        "boundary scale Z, margin, excursion constant", _boundary, (*_SOLVE, "--t-points")
    ),
    "coeffs": Command("series coefficient table", _coeffs, (*_PAIR, "--eps", "--ymax")),
    "value": Command("candidate value at (t0, q0)", _value, (*_SOLVE, "--t0", "--q0")),
    "simulate": Command("Monte Carlo estimate", _simulate, (*_SOLVE, *_PATHS)),
    "sweep": Command("threshold sweep", _sweep, (*_SOLVE, *_PATHS, "--multipliers")),
    "dp-oracle": Command(
        "one-sweep lattice value on y = q/(1-t)", _dp_oracle,
        (*_SOLVE, "--t0", "--q-steps", "--q-max"),
    ),
    "ode-oracle": Command("shooting-method boundary vs series", _ode_oracle, _SOLVE),
    "verify-appendix": Command(
        "series identity and bound checks", _verify_appendix, ("--r-max", "--inv-steps")
    ),
    "verify-lemmas": Command("shape checks of the candidate solution", _verify_lemmas, _PAIR),
    "acceptance": Command("full acceptance battery", _acceptance, ("--criteria",)),
}


def run(config: RunConfig) -> tuple[ResultEnvelope, list[list] | None]:
    """Run one command; returns the envelope and optional CSV table."""
    start = time.perf_counter()
    params = ModelParams(config.alpha, config.n)
    results, csv_rows = COMMANDS[config.command].handler(config, params)
    timing = time.perf_counter() - start
    return ResultEnvelope(__version__, asdict(config), results, timing), csv_rows


def _flatten_for_csv(obj: object, prefix: str = "") -> list[list]:
    """[key, value] rows of the leaves of nested dicts and lists, in order."""
    if isinstance(obj, dict):
        items = [(f"{prefix}.{k}" if prefix else str(k), v) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        items = [(f"{prefix}[{i}]", v) for i, v in enumerate(obj)]
    else:
        return [[prefix, obj]]
    return [row for key, v in items for row in _flatten_for_csv(v, key)]


def _json(obj: object) -> str:
    """``obj`` as indented JSON, each NaN or infinite float as ``null``: JSON has no such number."""

    def finite(v):
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v

    return json.dumps(finite(obj), indent=2, allow_nan=False)


def _render(envelope: ResultEnvelope, csv_rows, config: RunConfig) -> str:
    if config.out_format == "json":
        return _json(asdict(envelope)) + "\n"
    if csv_rows is None:
        csv_rows = [["key", "value"]] + _flatten_for_csv(envelope.results)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in csv_rows:
        writer.writerow([_fmt10(v) for v in row])
    return buf.getvalue()


def build_parser() -> argparse.ArgumentParser:
    """Parser whose namespace holds the subcommand and only the flags given.

    Each subcommand takes the flags ``COMMANDS`` names for it, plus
    ``--format`` and ``--out``.  It leaves an absent flag out of the
    namespace (``argparse.SUPPRESS``), so ``RunConfig`` alone supplies the
    defaults.
    """
    parser = argparse.ArgumentParser(
        prog="besselstop",
        description="Stopping boundaries and value functions for squared Bessel bridges",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for flag in (*command.flags, "--format", "--out"):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _split(flag: str, text: str, kind) -> tuple:
    """A comma-separated flag value as a tuple of ``kind``, blank tokens dropped."""
    try:
        return tuple(kind(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"bad {flag} list {text!r}") from None


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    kwargs = dict(vars(ns))
    for name, value in kwargs.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if "multipliers" in kwargs:
        mult = kwargs["multipliers"] = _split("--multipliers", kwargs["multipliers"], float)
        if not mult or not all(0.0 < m < math.inf for m in mult):
            raise UsageError("multipliers must be positive and finite")
    if "criteria" in kwargs:
        # an empty selection stays empty, and run_acceptance refuses it
        kwargs["criteria"] = _split("--criteria", kwargs["criteria"], int)
    return RunConfig(**kwargs)


def _check_out(path: str) -> None:
    """Raise UsageError unless ``path`` opens for writing; a file made to check is removed."""
    import os

    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise UsageError(f"cannot write --out: {exc}") from None
    if not existed:
        os.remove(path)


def _usage_error(message) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        config = _config_from_args(ns)
        if config.out_path:
            _check_out(config.out_path)  # before the run, which may take minutes
        envelope, csv_rows = run(config)
    except ValueError as exc:  # UsageError, or an argument the library rejected
        return _usage_error(exc)
    except Exception as exc:
        # numeric failure: machine-readable payload
        payload = {
            "tool_version": __version__,
            "config": asdict(config),
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        print(_json(payload))
        return 1

    text = _render(envelope, csv_rows, config)
    if config.out_path:
        try:  # the path can still vanish during the run
            with open(config.out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return _usage_error(f"cannot write --out: {exc}")
    else:
        sys.stdout.write(text)
    if config.command == "acceptance" and not envelope.results["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
