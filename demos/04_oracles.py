"""Two oracles that never touch the series root: ODE shooting and a lattice.

The shooting oracle integrates the self-similar ODE with RK4 and reads the
boundary scale off a sign change; the lattice solves the discrete stopping
problem by backward induction with a moment-matched trinomial transition.
Both land on the series answers to their stated accuracy.
"""

import numpy as np

from besselstop import (
    ModelParams,
    U_star,
    Z_from_ode,
    build_candidate,
    dp_value,
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

print("\nlattice vs candidate value at the origin (t_steps=800, q_steps=400):")
for a, n in ((3, 1), (2, 2), (1, 1)):
    params = ModelParams(a, n)
    cand = build_candidate(params)
    target = U_star(cand, 0.0, 0.0)
    lat = dp_value(params, t_steps=800, q_max=6.0 * cand.Z, q_steps=400)
    rel = abs(lat.value_at_origin - target) / target
    print(
        f"  ({a},{n}): lattice {lat.value_at_origin:.6f}  series {target:.6f}"
        f"  rel gap {rel:.4%}  boundary[t=0] {lat.boundary_estimate[0]:.4f} vs Z {cand.Z:.4f}"
    )

print("\nRefining the lattice halves the gap roughly linearly; the acceptance")
print("battery runs the reference resolution (4000 x 800) and asks for 2%.")
