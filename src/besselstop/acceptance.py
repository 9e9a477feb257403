"""Acceptance gate: the fixed battery of checks a release must pass.

Each criterion pins a tolerance and a wall-clock budget.  Reference values
are either recomputed on the spot from an independent construction (the
erfi closed form of ``build_excursion``, exact rationals) or, for the
excursion threshold, a 30-digit root computed once with mpmath.

A criterion is a function ``criterion_<index>_<topic>`` returning
``(passed, detail)``; ``@_criterion(name, budget)`` times it into a
``CriterionResult`` and reads its index from its name, the one place the
index is written.  ``ALL_CRITERIA`` lists the criteria in index order.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .boundary import boundary_margin, find_C_excursion, find_Z
from .oracles import Z_from_ode, fd_value
from .series import ModelParams, ode_residual_series, psi_eval
from .simulate import SimConfig, SweepTable, ThresholdPolicy, mc_estimate, policy_sweep
from .value import U_star, build_candidate, build_excursion, smooth_fit_residual
from .verify import PARAMETER_GRID, run_iteration_checks, run_shape_checks

# Root of h(c) = 2 int_0^c e^{t^2/2} dt - c e^{c^2/2} in (1, 2), from mpmath at
# 50 digits with int_0^c e^{t^2/2} dt = sqrt(pi/2) erfi(c/sqrt 2).
REFERENCE_C = 1.50339537647078180456434151335

MC_PATHS = 200_000
MC_STEPS = 2000
MC_SEED = 20240601
SWEEP_MULTIPLIERS = (0.5, 0.75, 1.0, 1.5, 2.0)
FD_CELLS = 4000


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    within_budget: bool
    elapsed: float
    budget: float
    detail: str

    @property
    def ok(self) -> bool:
        return self.passed and self.within_budget

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] {self.index:2d} {self.name}: {self.detail} "
            f"({self.elapsed:.2f}s / budget {self.budget:.0f}s)"
        )


def _criterion(name: str, budget: float):
    """Time ``body``, named ``criterion_<index>_...``, into a ``CriterionResult`` of that index.

    The index, also the criterion's ``index`` attribute, is what ``run_acceptance`` selects on.
    """

    def make(body):
        index = int(body.__name__.split("_")[1])

        @functools.wraps(body)
        def criterion() -> CriterionResult:
            start = time.perf_counter()
            passed, detail = body()
            elapsed = time.perf_counter() - start
            return CriterionResult(index, name, passed, elapsed < budget, elapsed, budget, detail)

        criterion.index = index
        return criterion

    return make


@_criterion("excursion constant", 1.0)
def criterion_1_excursion_constant():
    root = find_C_excursion(1e-8)
    err = abs(root.value - REFERENCE_C)
    # The chord polish leaves the root within a few ulp (2.2e-16 each);
    # 1e-14 allows for erfi and exp differing by some ulp across libms.
    return err <= 1e-14, f"C={root.value:.10f} |C-ref|={err:.2e} (tol 1e-14)"


@_criterion("series/excursion consistency", 1.0)
def criterion_2_series_excursion_consistency():
    """Z(3,1) = C^2: two roots from the series and from erfi read 4.4e-16 (2 ulp)
    apart, and 1e-14 leaves about 20x for libm differences."""
    C = find_C_excursion(1e-10).value
    Z = find_Z(ModelParams(3, 1), tol=1e-12).value
    err = abs(Z - C * C)
    return err <= 1e-14, f"Z(3,1)={Z:.12f} C^2={C * C:.12f} |diff|={err:.2e} (tol 1e-14)"


@_criterion("closed-form roots", 1.0)
def criterion_3_closed_form_roots():
    """Z(n, n) = n on the diagonal: Z(1,1) reads exactly 1 and the worst root
    8.9e-16 (1 ulp of 5), so 1e-14 is about 11 ulp."""
    diagonal = (0.5, 1.0, 2.0, 3.0, 5.0)
    errs = {n: abs(find_Z(ModelParams(n, n), tol=1e-12).value - n) for n in diagonal}
    worst = max(errs.values())
    ok = all(err <= 1e-14 for err in errs.values())
    return ok, f"|Z(1,1)-1|={errs[1.0]:.2e}, worst diagonal {worst:.2e} (tol 1e-14)"


@_criterion("boundary margin grid", 5.0)
def criterion_4_margin_grid():
    worst = math.inf
    for a in PARAMETER_GRID:
        for n in PARAMETER_GRID:
            worst = min(worst, boundary_margin(ModelParams(a, n)))
    return worst >= 0.0, f"min margin over 81 pairs = {worst:.6f} (needs >= 0)"


@_criterion("ODE oracle agreement", 30.0)
def criterion_5_ode_oracle():
    """RK4 shooting on 25 pairs: the root gap reads 4.05e-12, so 5e-11 is 12x it;
    the residual reads 3.57e-9, within 3x of 1e-8, until a finer step lowers it."""
    grid = (0.5, 1.0, 2.0, 3.0, 5.0)
    worst_gap = 0.0
    worst_res = 0.0
    for a in grid:
        for n in grid:
            params = ModelParams(a, n)
            z_series = find_Z(params).value
            z_ode, sol = Z_from_ode(params)
            worst_gap = max(worst_gap, abs(z_ode - z_series))
            worst_res = max(worst_res, sol.residual)
    ok = worst_gap <= 5e-11 and worst_res <= 1e-8
    gaps = f"max |Z_ode-Z|={worst_gap:.2e} (tol 5e-11)"
    return ok, f"{gaps}, max residual={worst_res:.2e} (tol 1e-8)"


@_criterion("lattice oracle", 120.0)
def criterion_6_lattice_oracle():
    """``fd_value`` against U*(0, 0) and Z: 4.3e-7 to 9.0e-6 above U* at FD_CELLS
    (1.7e-6 to 2.5e-5 at half), Z_fd dy/3 off and residual 1e-16.  A gap below
    0, over 3e-5 (3x the worst) or not shrinking, Z_fd a cell off or a residual
    over 1e-12 means the lattice or the series moved."""
    exc = build_excursion()
    lines = []
    ok = True
    res = 0.0
    for a, n in ((3, 1), (2, 2), (1, 1), (0.1, 0.1)):
        params = ModelParams(a, n)
        sol = build_candidate(params)
        target = U_star(sol, 0.0, 0.0)
        if (a, n) == (3, 1) and abs(target - exc.B) > 1e-9:
            return False, "series value at the origin disagrees with the erfi closed form"
        fine, half = fd_value(params, FD_CELLS), fd_value(params, FD_CELLS // 2)
        rel, rel_half = (lat.g[0] / target - 1.0 for lat in (fine, half))
        dz = abs(fine.Z_fd - sol.Z) / fine.y[1]
        res = max(res, fine.residual, half.residual)
        ok = ok and 0.0 <= rel <= 3e-5 and rel < rel_half and dz <= 1.0 and res <= 1e-12
        lines.append(f"({a:g},{n:g}) rel={rel:+.2e} half={rel_half:+.2e} dZ={dz:.2f}dy")
    need = "0 <= rel <= 3e-5, rel < half, dZ = |Z_fd-Z| <= dy, residual <= 1e-12"
    return ok, "; ".join(lines) + f"; residual={res:.1e} (need {need})"


def _mc_config(params: ModelParams) -> SimConfig:
    return SimConfig(params=params, n_paths=MC_PATHS, n_steps=MC_STEPS, seed=MC_SEED)


@functools.lru_cache(maxsize=1)
def _shared_sweep(config: SimConfig, multipliers: tuple[float, ...]) -> SweepTable:
    """``policy_sweep`` at find_Z's level, memoised in one slot keyed by its config.

    Criterion 8 reads the whole table and criterion 7 its m = 1 row, so the
    two share one walk of MC_PATHS paths, whichever runs first.
    """
    return policy_sweep(config, multipliers)


@_criterion("Monte Carlo headline", 120.0)
def criterion_7_monte_carlo_headline():
    """U*(0, 0) against Monte Carlo at (3,1) and (1,1).  The (3,1) case is the
    m = 1 row of criterion 8's sweep, at the level find_Z(3,1), which is C^2 to
    4.4e-16 (criterion 2); (1,1) is a run of its own."""
    exc = build_excursion()
    lines = []
    ok = True
    sweep = _shared_sweep(_mc_config(ModelParams(3, 1)), SWEEP_MULTIPLIERS)
    res11 = mc_estimate(_mc_config(ModelParams(1, 1)), ThresholdPolicy(1.0))
    cases = (
        (ModelParams(3, 1), next(r.result for r in sweep.rows if r.multiplier == 1.0), exc.B),
        (ModelParams(1, 1), res11, math.exp(-0.5)),
    )
    for params, res, target in cases:
        gap = abs(res.mean - target)
        tol = max(3.0 * res.stderr, 0.01 * target)
        ok = ok and gap <= tol
        lines.append(
            f"({params.alpha:g},{params.n:g}) mean={res.mean:.6f} "
            f"target={target:.6f} gap={gap:.2e} tol={tol:.2e} "
            f"[{(res.mean - target) / res.stderr:+.2f} se, plain "
            f"{(res.plain_mean - target) / res.plain_stderr:+.2f} plain se]"
        )
    return ok, "; ".join(lines)


@_criterion("empirical optimality sweep", 300.0)
def criterion_8_empirical_optimality():
    table = _shared_sweep(_mc_config(ModelParams(3, 1)), SWEEP_MULTIPLIERS)
    ok = True
    worst = math.inf
    for row in table.rows:
        if row.multiplier == 1.0:
            continue
        # paired mean of (candidate - alternative); negative beyond one
        # paired stderr would mean the alternative beat the candidate
        slack = row.paired_mean_vs_candidate + row.paired_stderr_vs_candidate
        worst = min(worst, slack)
        ok = ok and row.paired_mean_vs_candidate >= -row.paired_stderr_vs_candidate
    return ok, f"min paired slack={worst:.2e} (needs >= 0); argmax m={table.argmax_mean():g}"


@_criterion("value shape suite", 30.0)
def criterion_9_shape_suite():
    """Shape checks and, on 81 pairs, the payoff gap (-2.27e-13 read, -1e-12
    bound), smooth fit (7.28e-12, 1e-10) and series residual (7.19e-13, 1e-11)."""
    rep = run_shape_checks()
    ok = rep.all_passed

    worst_major = math.inf
    worst_fit = 0.0
    worst_res = 0.0
    for a in PARAMETER_GRID:
        for n in PARAMETER_GRID:
            params = ModelParams(a, n)
            sol = build_candidate(params)
            z = np.linspace(0.0, sol.Z, 2000)
            gap = sol.E1 * psi_eval(sol.table, z) - z ** (0.5 * n)
            worst_major = min(worst_major, float(gap.min()))
            for t in (0.0, 0.3, 0.6, 0.9):
                worst_fit = max(worst_fit, smooth_fit_residual(sol, t))
            y = np.linspace(0.0, 2.0 * sol.Z, 1000)
            res = np.abs(ode_residual_series(sol.table, y)) / (1.0 + psi_eval(sol.table, y))
            worst_res = max(worst_res, float(res.max()))
    ok = ok and worst_major >= -1e-12 and worst_fit <= 1e-10 and worst_res <= 1e-11
    return ok, (
        f"shape checks {rep.summary}; min payoff gap={worst_major:.2e}; "
        f"max smooth fit={worst_fit:.2e} (tol 1e-10); "
        f"max series residual={worst_res:.2e} (tol 1e-11)"
    )


@_criterion("series identity suite", 30.0)
def criterion_10_iteration_suite():
    rep = run_iteration_checks(steps=12, r_max=60)
    fails = [c.name for c in rep.failures()]
    detail = f"iteration checks {rep.summary}"
    if fails:
        detail += "; failed: " + ", ".join(fails[:5])
    return rep.all_passed, detail


ALL_CRITERIA = (
    criterion_1_excursion_constant,
    criterion_2_series_excursion_consistency,
    criterion_3_closed_form_roots,
    criterion_4_margin_grid,
    criterion_5_ode_oracle,
    criterion_6_lattice_oracle,
    criterion_7_monte_carlo_headline,
    criterion_8_empirical_optimality,
    criterion_9_shape_suite,
    criterion_10_iteration_suite,
)


def run_acceptance(indices: tuple[int, ...] | None = None) -> list[CriterionResult]:
    """Run the selected criteria (all by default), one progress line each.

    Progress goes to stderr so stdout stays parseable for the envelope.  An
    empty selection or an index outside 1..10 raises ValueError, so no
    selection passes unrun.
    """
    import sys

    valid = range(1, len(ALL_CRITERIA) + 1)
    if indices is not None and (not indices or any(i not in valid for i in indices)):
        raise ValueError(f"criteria must be indices in 1..{len(ALL_CRITERIA)}, got {indices}")
    results = []
    for fn in ALL_CRITERIA:
        if indices is not None and fn.index not in indices:
            continue
        row = fn()
        print(row.line(), file=sys.stderr, flush=True)
        results.append(row)
    return results
