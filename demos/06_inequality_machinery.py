"""The series-identity machinery behind the boundary lower bound.

The bound Z >= (alpha + n - 2)/2 reduces to a sign claim about a weighted
series that is invariant under an index-shift map; iterating the map makes
both linear coefficients negative, which settles the sign.  This demo shows
the invariance numerically, the coefficient iterations with their closed
polynomial rows, and the final negativity across a parameter grid.
"""

from fractions import Fraction

from besselstop import (
    DELTA_FORM,
    GAMMA_FORM,
    H_value,
    LambdaParams,
    ModelParams,
    delta_polynomials,
    iterate_DB,
    lambda_eval,
    lambda_iterate_invariance,
    run_iteration_checks,
    tilde_map,
)

p = LambdaParams(D=1.0, B=-1.0, Delta=0.0, n=1.0, gamma=2.0)
print(f"series value at (D,B,Delta)=(1,-1,0), n=1, shift=2: {lambda_eval(p):.10f}")
D, B, Delta = tilde_map(p.D, p.B, p.Delta, p.n, p.gamma)
print(f"after one index shift: (D,B,Delta)=({D:g},{B:g},{Delta:g}), "
      f"value {lambda_eval(LambdaParams(D=D, B=B, Delta=Delta, n=1.0, gamma=2.0)):.10f}")

rep = lambda_iterate_invariance(p, steps=10)
print(f"invariance over 10 shifts: {rep.summary} checks passed, "
      f"worst drift {max(c.margin for c in rep.checks):.2e}")

print("\ncoefficient iteration (n=1, shift=2): D turns negative quickly")
for st in iterate_DB(GAMMA_FORM, (1.0, 2.0), 4):
    print(f"  r={st.r}: D={st.D_r:10.1f}  B={st.B_r:10.1f}")

print("\nzero-dimension iteration vs closed polynomial rows (exact rationals):")
d = Fraction(7, 3)
states = iterate_DB(DELTA_FORM, (0.0, float(d)), 7)
for j in (2, 4, 7):
    Dj, Bj = delta_polynomials(d, j)
    print(f"  j={j}: polynomial D={float(Dj):14.4f}  iteration D={states[j].D_r:14.4f}")

print("\nsign of the scaled smooth-fit value on a small grid (negative = bound holds):")
for a in (1.0, 3.0, 7.0):
    row = []
    for n in (1.0, 2.0, 6.0):
        if a + n > 2.0:
            row.append(f"H({a:g},{n:g})={H_value(ModelParams(a, n)):+.3f}")
    print("  " + "   ".join(row))

full = run_iteration_checks()
print(f"\nfull battery (the gate's criterion 10): {full.summary} checks passed")
