"""Two oracles that never touch the series root: ODE shooting and a lattice.

The shooting oracle integrates the self-similar ODE with RK4 and reads the
boundary scale off a sign change.  The lattice solves the stopping problem in
y = q/(1-t), where U*(t, q) = (1-t)^{n/2} u(y), by one Brennan-Schwartz sweep
over a finite-difference grid.  Both land on the series answers to their
stated accuracy.
"""

import numpy as np

from besselstop import (
    ModelParams,
    U_star,
    Z_from_ode,
    build_candidate,
    fd_value,
    find_Z,
    ode_residual,
    ode_shoot,
)

print("shooting vs series root:")
print(" alpha    n      Z (series)     Z (ode)        |gap|")
for a, n in ((1, 1), (3, 1), (2, 5), (5, 2)):
    params = ModelParams(a, n)
    zs = find_Z(params).value
    zo, _ = Z_from_ode(params)
    print(f"{a:5.1f} {n:5.1f}  {zs:.10f}  {zo:.10f}  {abs(zs - zo):.2e}")

sol = ode_shoot(ModelParams(3, 1), 6.0, 1e-3)
print(f"\nmax normalized ODE residual on the grid: {float(np.max(ode_residual(sol))):.2e}")

print("\nlattice vs candidate value at the origin (4000 cells on [0, 6 Z]):")
for a, n in ((3, 1), (2, 2), (1, 1), (0.1, 0.1)):
    params = ModelParams(a, n)
    cand = build_candidate(params)
    target = U_star(cand, 0.0, 0.0)
    lat = fd_value(params, 4000)
    rel = lat.g[0] / target - 1.0
    print(
        f"  ({a},{n}): lattice {lat.g[0]:.8f}  series {target:.8f}"
        f"  rel gap {rel:+.2e}  Z_fd {lat.Z_fd:.4f} vs Z {cand.Z:.4f}"
        f"  residual {lat.residual:.1e}"
    )

print("\nOne lattice serves every t0: at t0 = 0.5 the value is 0.5^{n/2} g(0).")
params = ModelParams(3, 1)
lat = fd_value(params, 4000)
print(f"  (3,1): {0.5**0.5 * lat.g[0]:.8f}  series {U_star(build_candidate(params), 0.5, 0.0):.8f}")
print("\nHalving dy cuts the gap about 4x at (3,1); the acceptance battery runs")
print("4000 and 2000 cells and asks for 0 <= gap <= 3e-5, shrinking with refinement.")
