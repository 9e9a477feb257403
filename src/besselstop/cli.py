"""Command-line interface: reproducible runs with JSON/CSV result envelopes.

Every invocation echoes its full parsed configuration (including defaults and
the seed) into the output, so any published number can be regenerated from
the artifact alone.  JSON numbers use shortest round-trip serialization; CSV
uses 10 significant digits with a period decimal separator regardless of
locale.

Exit codes: 0 success, 1 numeric failure (machine-readable error payload on
stdout), 2 usage error.
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
from .boundary import closed_form_Z, find_C_excursion, find_Z
from .oracles import Z_from_ode, dp_value, ode_residual
from .series import ModelParams, build_coefficients
from .simulate import (
    SimConfig,
    SweepTable,
    ThresholdPolicy,
    mc_estimate,
    policy_sweep,
)
from .value import CandidateSolution, U_star, boundary_q, boundary_x, build_candidate
from .verify import run_iteration_checks, run_shape_checks

COMMANDS = (
    "boundary",
    "coeffs",
    "value",
    "simulate",
    "sweep",
    "dp-oracle",
    "ode-oracle",
    "verify-appendix",
    "verify-lemmas",
    "acceptance",
)

DEFAULT_TOL = 1e-10
DEFAULT_PATHS = 200_000
DEFAULT_STEPS = 2000
DEFAULT_SEED = 20240601
DEFAULT_MULTIPLIERS = (0.5, 0.75, 1.0, 1.5, 2.0)


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation; echoed verbatim into every output artifact."""

    command: str
    alpha: float = 3.0
    n: float = 1.0
    t0: float = 0.0
    q0: float = 0.0
    tol: float = DEFAULT_TOL
    paths: int = DEFAULT_PATHS
    steps: int = DEFAULT_STEPS
    seed: int = DEFAULT_SEED
    multipliers: tuple[float, ...] = DEFAULT_MULTIPLIERS
    out_format: str = "json"
    out_path: str | None = None
    t_points: int = 101
    t_steps: int = 4000
    q_steps: int = 800
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

    def to_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "config": self.config,
            "results": self.results,
            "timing": self.timing,
        }


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
    if t_points < 2:
        raise UsageError("t_points must be at least 2")
    rows = [["t", "z_q", "x_boundary", "value_at_zero"]]
    n = sol.params.n
    for i in range(t_points):
        t = i / (t_points - 1)
        zq = boundary_q(sol, t)
        xb = boundary_x(sol, t)
        v0 = 0.0 if t == 1.0 else sol.E1 * (1.0 - t) ** (n / 2.0)
        rows.append([t, zq, xb, v0])
    return rows


def emit_sweep_table(table: SweepTable) -> list[list]:
    """CSV rows per multiplier; the m = 1 row carries candidate=true."""
    rows = [
        [
            "multiplier",
            "Z_level",
            "mean",
            "stderr",
            "ci_lo",
            "ci_hi",
            "stop_fraction",
            "candidate",
        ]
    ]
    for r in table.rows:
        rows.append(
            [
                r.multiplier,
                r.Z_level,
                r.result.mean,
                r.result.stderr,
                r.result.ci95[0],
                r.result.ci95[1],
                r.result.stop_fraction,
                r.multiplier == 1.0,
            ]
        )
    return rows


def _params(config: RunConfig) -> ModelParams:
    try:
        return ModelParams(config.alpha, config.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


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

    if cmd == "boundary":
        params = _params(config)
        root = find_Z(params, tol=config.tol)
        is_excursion = math.isclose(params.alpha, 3.0) and math.isclose(params.n, 1.0)
        results = {
            "Z": root.value,
            "C": find_C_excursion(min(config.tol, 1e-8)).value if is_excursion else None,
            "margin": root.value - 0.5 * (params.alpha + params.n - 2.0),
            "closed_form_Z": closed_form_Z(params),
            "residual": root.residual,
            "iterations": root.iterations,
            "method": root.method,
        }
        if config.out_format == "csv":
            csv_rows = emit_boundary_curve(build_candidate(params), config.t_points)

    elif cmd == "coeffs":
        params = _params(config)
        table = build_coefficients(params, ymax=config.ymax, eps=config.eps)
        results = {
            "K": table.K,
            "eps": table.eps,
            "ymax": table.ymax,
            "coeffs": [float(c) for c in table.coeffs],
        }
        if config.out_format == "csv":
            csv_rows = [["k", "A_k"]] + [[k, float(c)] for k, c in enumerate(table.coeffs)]

    elif cmd == "value":
        params = _params(config)
        if not (0.0 <= config.t0 <= 1.0):
            raise UsageError("t0 must lie in [0, 1]")
        if config.q0 < 0.0:
            raise UsageError("q0 must be nonnegative")
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
        params = _params(config)
        try:
            sim = SimConfig(
                params=params,
                t0=config.t0,
                q0=config.q0,
                n_paths=config.paths,
                n_steps=config.steps,
                seed=config.seed,
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        z = find_Z(params, tol=config.tol).value
        if cmd == "simulate":
            res = mc_estimate(sim, ThresholdPolicy(z))
            results = _mc_payload(res, z, sim.scheme)
        else:
            table = policy_sweep(sim, list(config.multipliers), Z=z)
            results = _sweep_rows_payload(table)
            if config.out_format == "csv":
                csv_rows = emit_sweep_table(table)

    elif cmd == "dp-oracle":
        params = _params(config)
        sol = build_candidate(params, tol=config.tol)
        q_max = config.q_max if config.q_max is not None else 6.0 * sol.Z
        lattice = dp_value(params, config.t_steps, q_max, config.q_steps, t0=config.t0)
        target = U_star(sol, config.t0, 0.0)
        results = {
            "value_at_origin": lattice.value_at_origin,
            "candidate_value": target,
            "rel_gap": abs(lattice.value_at_origin - target) / target,
            "t_steps": config.t_steps,
            "q_steps": config.q_steps,
            "q_max": q_max,
            "boundary_estimate_t0": float(lattice.boundary_estimate[0]),
            "boundary_scale_Z": sol.Z,
        }

    elif cmd == "ode-oracle":
        params = _params(config)
        z_series = find_Z(params, tol=config.tol).value
        z_ode, sol = Z_from_ode(params)
        results = {
            "Z_ode": z_ode,
            "Z_series": z_series,
            "abs_gap": abs(z_ode - z_series),
            "max_residual": float(max(ode_residual(sol))),
            "ymax": float(sol.grid[-1]),
            "step": sol.step,
        }

    elif cmd == "verify-appendix":
        report = run_iteration_checks(steps=config.inv_steps, r_max=config.r_max)
        results = report.to_dict()

    elif cmd == "verify-lemmas":
        extra = ()
        if config.alpha != 3.0 or config.n != 1.0:
            extra = (_params(config),)
        base: tuple[ModelParams, ...] = (
            ModelParams(3, 1),
            ModelParams(1, 1),
            ModelParams(2, 2),
        )
        report = run_shape_checks(base + extra)
        results = report.to_dict()

    elif cmd == "acceptance":
        from .acceptance import run_acceptance

        rows = run_acceptance(indices=config.criteria)
        results = {
            "all_passed": all(r.ok for r in rows),
            "criteria": [
                {
                    "index": r.index,
                    "name": r.name,
                    "passed": r.passed,
                    "within_budget": r.within_budget,
                    "elapsed": r.elapsed,
                    "budget": r.budget,
                    "detail": r.detail,
                }
                for r in rows
            ],
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
        text = json.dumps(envelope.to_dict(), indent=2) + "\n"
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
    parser = argparse.ArgumentParser(
        prog="besselstop",
        description="Stopping boundaries and value functions for squared Bessel bridges",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, model=True):
        if model:
            p.add_argument("--alpha", type=float, default=3.0, help="bridge dimension (default 3)")
            p.add_argument("--n", type=float, default=1.0, help="payoff exponent (default 1)")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="root tolerance (default 1e-10)")
        p.add_argument("--format", dest="out_format", choices=("json", "csv"), default="json")
        p.add_argument("--out", dest="out_path", default=None, help="output path (default stdout)")

    p = sub.add_parser("boundary", help="boundary scale Z, margin, excursion constant")
    common(p)
    p.add_argument("--t-points", type=int, default=101, help="rows in the CSV boundary curve")

    p = sub.add_parser("coeffs", help="series coefficient table")
    common(p)
    p.add_argument("--eps", type=float, default=1e-14, help="relative tail tolerance")
    p.add_argument("--ymax", type=float, default=None, help="validated range (default automatic)")

    p = sub.add_parser("value", help="candidate value at (t0, q0)")
    common(p)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--q0", type=float, default=0.0)

    for name, label in (("simulate", "Monte Carlo estimate"), ("sweep", "threshold sweep")):
        p = sub.add_parser(name, help=label)
        common(p)
        p.add_argument("--t0", type=float, default=0.0)
        p.add_argument("--q0", type=float, default=0.0)
        p.add_argument("--paths", type=int, default=DEFAULT_PATHS)
        p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if name == "sweep":
            p.add_argument("--multipliers", type=str, default="0.5,0.75,1,1.5,2",
                           help="comma-separated threshold multipliers")

    p = sub.add_parser("dp-oracle", help="backward-induction lattice value")
    common(p)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t-steps", type=int, default=4000)
    p.add_argument("--q-steps", type=int, default=800)
    p.add_argument("--q-max", type=float, default=None)

    p = sub.add_parser("ode-oracle", help="shooting-method boundary vs series")
    common(p)

    p = sub.add_parser("verify-appendix", help="series identity and bound checks")
    common(p, model=False)
    p.add_argument("--r-max", type=int, default=60)
    p.add_argument("--inv-steps", type=int, default=12)

    p = sub.add_parser("verify-lemmas", help="shape checks of the candidate solution")
    common(p)

    p = sub.add_parser("acceptance", help="full acceptance battery")
    common(p, model=False)
    p.add_argument("--criteria", type=str, default=None,
                   help="comma-separated criterion indices (default all)")
    return parser


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    kwargs = {"command": ns.command}
    for name in (
        "alpha", "n", "t0", "q0", "tol", "paths", "steps", "seed",
        "out_format", "out_path", "t_points", "t_steps",
        "q_steps", "q_max", "eps", "ymax", "r_max", "inv_steps",
    ):
        if hasattr(ns, name):
            kwargs[name] = getattr(ns, name)
    if hasattr(ns, "multipliers"):
        try:
            mult = tuple(float(tok) for tok in ns.multipliers.split(",") if tok.strip())
        except ValueError:
            raise UsageError(f"bad multiplier list {ns.multipliers!r}") from None
        if not mult or any(m <= 0.0 for m in mult):
            raise UsageError("multipliers must be positive")
        kwargs["multipliers"] = mult
    if getattr(ns, "criteria", None):
        try:
            kwargs["criteria"] = tuple(int(tok) for tok in ns.criteria.split(","))
        except ValueError:
            raise UsageError(f"bad criteria list {ns.criteria!r}") from None
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
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric failure: machine-readable payload
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
