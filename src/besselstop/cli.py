"""Command-line interface: reproducible runs with JSON/CSV result envelopes.

Every invocation echoes its full parsed configuration (including defaults and
the seed) into the output, so any published number can be regenerated from
the artifact alone.  JSON numbers use shortest round-trip serialization; CSV
uses 10 significant digits with a period decimal separator regardless of
locale.

Exit codes: 0 success, 1 numeric failure (machine-readable error payload on
stdout), 2 usage error.  A ``ValueError`` from the library is an argument it
rejected, so it is a usage error too.
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

from . import __version__
from .boundary import NoRootError, find_C_excursion, find_Z
from .oracles import Z_from_ode, fd_value, kummer_Z
from .series import ModelParams, _require, build_coefficients
from .simulate import (
    SimConfig,
    SweepTable,
    ThresholdPolicy,
    mc_estimate,
    policy_sweep,
)
from .value import CandidateSolution, U_star, boundary_q, boundary_x, build_candidate
from .verify import SHAPE_CASES, run_iteration_checks, run_shape_checks

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
    _require("t_points", t_points, 2)
    rows = [["t", "z_q", "x_boundary", "value_at_zero"]]
    n = sol.params.n
    for i in range(t_points):
        t = i / (t_points - 1)
        zq = boundary_q(sol, t)
        xb = boundary_x(sol, t)
        v0 = 0.0 if t == 1.0 else sol.E1 * (1.0 - t) ** (n / 2.0)
        rows.append([t, zq, xb, v0])
    return rows


def _sweep_rows_payload(table: SweepTable) -> dict:
    return {
        "base_Z": table.base_Z,
        "argmax_multiplier": table.argmax_mean(),
        "rows": [
            {
                "multiplier": r.multiplier,
                "Z_level": r.Z_level,
                "mean": r.result.mean,
                "stderr": r.result.stderr,
                "plain_mean": r.result.plain_mean,
                "plain_stderr": r.result.plain_stderr,
                "controls": r.result.controls,
                "ci95": list(r.result.ci95),
                "stop_fraction": r.result.stop_fraction,
                "candidate": r.multiplier == 1.0,
                "paired_mean_vs_candidate": r.paired_mean_vs_candidate,
                "paired_stderr_vs_candidate": r.paired_stderr_vs_candidate,
            }
            for r in table.rows
        ],
    }


def _mc_payload(res, z: float, scheme: str) -> dict:
    return {
        "Z": z,
        "scheme": scheme,
        "mean": res.mean,
        "stderr": res.stderr,
        "plain_mean": res.plain_mean,
        "plain_stderr": res.plain_stderr,
        "controls": res.controls,
        "ci95": list(res.ci95),
        "stop_fraction": res.stop_fraction,
        "n_paths": res.n_paths,
        "warning": res.warning,
    }


def run(config: RunConfig) -> tuple[ResultEnvelope, list[list] | None]:
    """Dispatch one command; returns the envelope and optional CSV table."""
    start = time.perf_counter()
    csv_rows = None
    cmd = config.command
    params = ModelParams(config.alpha, config.n)

    if cmd == "boundary":
        root = find_Z(params, tol=config.tol)
        is_excursion = params == ModelParams(3, 1)
        try:
            kummer = kummer_Z(params)
        except NoRootError:  # M past float range; the series Z still stands
            kummer = None
        results = {
            "Z": root.value,
            "C": find_C_excursion(min(config.tol, 1e-8)).value if is_excursion else None,
            "margin": root.value - 0.5 * (params.alpha + params.n - 2.0),
            "kummer_Z": kummer,
            "residual": root.residual,
            "iterations": root.iterations,
            "method": root.method,
        }
        if config.out_format == "csv":
            csv_rows = emit_boundary_curve(build_candidate(params), config.t_points)

    elif cmd == "coeffs":
        table = build_coefficients(params, ymax=config.ymax, eps=config.eps)
        results = {
            "K": table.K,
            "eps": table.eps,
            "ymax": table.ymax,
            "coeffs": list(table.A),
        }
        if config.out_format == "csv":
            csv_rows = [["k", "A_k"]] + [[k, c] for k, c in enumerate(table.A)]

    elif cmd == "value":
        _require("t0", config.t0, 0.0, 1.0)
        _require("q0", config.q0, 0.0, math.inf, open_hi=True)
        sol = build_candidate(params, tol=config.tol)
        zq = boundary_q(sol, config.t0)
        results = {
            "U": U_star(sol, config.t0, config.q0),
            "Z": sol.Z,
            "E1": sol.E1,
            "boundary_q": zq,
            "boundary_x": boundary_x(sol, config.t0),
            "payoff": config.q0 ** (params.n / 2.0),
            "region": "stopping" if config.q0 >= zq else "continuation",
        }

    elif cmd in ("simulate", "sweep"):
        sim = SimConfig(
            params=params,
            t0=config.t0,
            q0=config.q0,
            n_paths=config.paths,
            n_steps=config.steps,
            seed=config.seed,
        )
        z = find_Z(params, tol=config.tol).value
        if cmd == "simulate":
            res = mc_estimate(sim, ThresholdPolicy(z))
            results = _mc_payload(res, z, sim.scheme)
        else:
            table = policy_sweep(sim, list(config.multipliers), Z=z)
            results = _sweep_rows_payload(table)
            if config.out_format == "csv":
                cols = ["multiplier", "Z_level", "mean", "stderr", "ci_lo", "ci_hi"]
                cols += ["stop_fraction", "candidate"]
                flat = [dict(r, ci_lo=r["ci95"][0], ci_hi=r["ci95"][1]) for r in results["rows"]]
                csv_rows = [cols] + [[r[c] for c in cols] for r in flat]

    elif cmd == "dp-oracle":
        # one lattice on y = q/(1-t) carries every t0: U*(t0, 0) = (1-t0)^{n/2} u(0)
        tau = 1.0 - _require("t0", config.t0, 0.0, 1.0, open_hi=True)
        sol = build_candidate(params, tol=config.tol)
        lattice = fd_value(params, config.q_steps, config.q_max)
        value = tau ** (0.5 * params.n) * float(lattice.g[0])
        target = U_star(sol, config.t0, 0.0)
        results = {
            "value_at_origin": value,
            "candidate_value": target,
            "rel_gap": value / target - 1.0,
            "q_steps": config.q_steps,
            "q_max": float(lattice.y[-1]),
            "Z_fd": lattice.Z_fd,
            "complementarity_residual": lattice.residual,
            "boundary_estimate_t0": lattice.Z_fd * tau,
            "boundary_scale_Z": sol.Z,
        }

    elif cmd == "ode-oracle":
        z_series = find_Z(params, tol=config.tol).value
        z_ode, sol = Z_from_ode(params)
        results = {
            "Z_ode": z_ode,
            "Z_series": z_series,
            "abs_gap": abs(z_ode - z_series),
            "max_residual": sol.residual,
            "ymax": float(sol.grid[-1]),
            "step": sol.step,
        }

    elif cmd == "verify-appendix":
        report = run_iteration_checks(steps=config.inv_steps, r_max=config.r_max)
        results = report.to_dict()

    elif cmd == "verify-lemmas":
        extra = () if params in SHAPE_CASES else (params,)
        report = run_shape_checks(SHAPE_CASES + extra)
        results = report.to_dict()

    elif cmd == "acceptance":
        from .acceptance import run_acceptance

        rows = run_acceptance(indices=config.criteria)
        results = {
            "all_passed": all(r.ok for r in rows),
            "criteria": [asdict(r) for r in rows],
        }

    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown command {cmd!r}")

    envelope = ResultEnvelope(
        tool_version=__version__,
        config=asdict(config),
        results=results,
        timing=time.perf_counter() - start,
    )
    return envelope, csv_rows


def _flatten_for_csv(results: object) -> list[list]:
    rows = [["key", "value"]]

    def walk(prefix: str, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(f"{prefix}[{i}]", v)
        else:
            rows.append([prefix, obj])

    walk("", results)
    return rows


def _write_output(envelope: ResultEnvelope, csv_rows, config: RunConfig) -> None:
    if config.out_format == "json":
        text = json.dumps(asdict(envelope), indent=2) + "\n"
    else:
        rows = csv_rows if csv_rows is not None else _flatten_for_csv(envelope.results)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in rows:
            writer.writerow([_fmt10(v) for v in row])
        text = buf.getvalue()
    if config.out_path:
        with open(config.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    """Parser whose namespace holds the subcommand and only the flags given.

    Every subcommand leaves an absent flag out of the namespace
    (``argparse.SUPPRESS``), so ``RunConfig`` alone supplies the defaults.
    """
    parser = argparse.ArgumentParser(
        prog="besselstop",
        description="Stopping boundaries and value functions for squared Bessel bridges",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, label: str, model=True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=label, argument_default=argparse.SUPPRESS)
        if model:
            p.add_argument("--alpha", type=float, help=f"bridge dimension (default {RunConfig.alpha:g})")
            p.add_argument("--n", type=float, help=f"payoff exponent (default {RunConfig.n:g})")
        p.add_argument("--tol", type=float, help=f"root tolerance (default {RunConfig.tol:g})")
        p.add_argument("--format", dest="out_format", choices=("json", "csv"))
        p.add_argument("--out", dest="out_path", help="output path (default stdout)")
        return p

    p = command("boundary", "boundary scale Z, margin, excursion constant")
    p.add_argument("--t-points", type=int, help="rows in the CSV boundary curve")

    p = command("coeffs", "series coefficient table")
    p.add_argument("--eps", type=float, help="relative tail tolerance")
    p.add_argument("--ymax", type=float, help="validated range (default automatic)")

    p = command("value", "candidate value at (t0, q0)")
    p.add_argument("--t0", type=float)
    p.add_argument("--q0", type=float)

    for name, label in (("simulate", "Monte Carlo estimate"), ("sweep", "threshold sweep")):
        p = command(name, label)
        p.add_argument("--t0", type=float)
        p.add_argument("--q0", type=float)
        p.add_argument("--paths", type=int)
        p.add_argument("--steps", type=int)
        p.add_argument("--seed", type=int)
        if name == "sweep":
            p.add_argument("--multipliers", help="comma-separated threshold multipliers")

    p = command("dp-oracle", "one-sweep lattice value on y = q/(1-t)")
    p.add_argument("--t0", type=float)
    p.add_argument("--q-steps", type=int, help=f"lattice cells (default {RunConfig.q_steps})")
    p.add_argument("--q-max", type=float, help="lattice top in y = q/(1-t), above Z (default 6 Z)")

    command("ode-oracle", "shooting-method boundary vs series")

    p = command("verify-appendix", "series identity and bound checks", model=False)
    p.add_argument("--r-max", type=int)
    p.add_argument("--inv-steps", type=int)

    command("verify-lemmas", "shape checks of the candidate solution")

    p = command("acceptance", "full acceptance battery", model=False)
    p.add_argument("--criteria", help="comma-separated criterion indices (default all)")
    return parser


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    kwargs = dict(vars(ns))
    for name, value in kwargs.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if "multipliers" in kwargs:
        text = kwargs["multipliers"]
        try:
            mult = tuple(float(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise UsageError(f"bad multiplier list {text!r}") from None
        if not mult or not all(0.0 < m < math.inf for m in mult):
            raise UsageError("multipliers must be positive and finite")
        kwargs["multipliers"] = mult
    criteria = kwargs.pop("criteria", None)
    if criteria:
        try:
            kwargs["criteria"] = tuple(int(tok) for tok in criteria.split(","))
        except ValueError:
            raise UsageError(f"bad criteria list {criteria!r}") from None
    return RunConfig(**kwargs)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        config = _config_from_args(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    try:
        envelope, csv_rows = run(config)
    except Exception as exc:
        if isinstance(exc, ValueError):
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        # numeric failure: machine-readable payload
        payload = {
            "tool_version": __version__,
            "config": asdict(config),
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        print(json.dumps(payload, indent=2))
        return 1

    _write_output(envelope, csv_rows, config)
    if config.command == "acceptance" and not envelope.results["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
