"""The power-series solution and its smooth-fit root across parameter values.

The coefficients follow the one-term recursion
A_{k+1} = (2k+n) A_k / (2 (k+1) (2k+alpha)); the boundary scale Z is the
unique positive root of F(z) = sum (2k-n) A_k z^k.  For alpha = n the series
collapses to exp(y/2) and Z = n exactly, a handy sanity anchor.  The series
is Kummer's function M(n/2, alpha/2, y/2), so scipy's hyp1f1 gives Z without
the series for every pair; its root prints next to the series root.
"""

import numpy as np

from besselstop import (
    ModelParams,
    boundary_margin,
    build_coefficients,
    find_Z,
    kummer_Z,
    psi_eval,
)

table = build_coefficients(ModelParams(3, 1))
print(f"(3,1): K = {table.K} coefficients on [0, {table.ymax:g}]")
print("first few:", ", ".join(f"{c:.6g}" for c in table.A[:5]))

table11 = build_coefficients(ModelParams(1, 1), ymax=10.0)
y = np.linspace(0.0, 10.0, 5)
print("\nalpha = n = 1 collapses to exp(y/2):")
for yi in y:
    print(f"  psi({yi:4.1f}) = {psi_eval(table11, yi):.12f}   exp = {np.exp(yi / 2):.12f}")

print("\n alpha     n        Z           Kummer Z      margin over (a+n-2)/2")
for a, n in ((1, 1), (2, 2), (3, 1), (5, 1), (0.5, 4), (7, 2), (10, 10)):
    params = ModelParams(a, n)
    z = find_Z(params).value
    kummer = kummer_Z(params)
    print(f"{a:6.1f} {n:6.1f} {z:12.8f}   {kummer:12.8f}   {boundary_margin(params):12.8f}")

print("\nThe margin column is nonnegative everywhere, which is what makes the")
print("threshold rule optimal: the payoff drift is then nonpositive on the")
print("whole stopping region.")
