"""Solving systems: exact eliminants, all complex zeros, count checks.

A bivariate system is solved through the exact integer eliminant
Res_x(f1, f2): its roots are the y coordinates, back-substitution
recovers x, and the count of zeros (with multiplicity) must equal the
mixed volume of the Newton polytopes whenever the system is not
exceptional.  For dense degree-d pairs that number is exactly d^2.
"""

import numpy as np

from polytorus import (
    IntPolynomial,
    classify_exceptional,
    eliminant_bivariate,
    roots_univariate,
    sample_bernoulli_system,
    solve_bivariate,
)

# A hand-checkable system: circle meets hyperbola in four rational points.
f1 = IntPolynomial.from_dict(2, {(2, 0): 1, (0, 2): 1, (0, 0): -5})
f2 = IntPolynomial.from_dict(2, {(1, 1): 1, (0, 0): -2})
print("eliminant in y:", eliminant_bivariate(f1, f2, "x"), "= (y^2-1)(y^2-4)")
cycle, diag = solve_bivariate(f1, f2)
for p in cycle.points:
    print(f"  zero ({p.coords[0]:.6g}, {p.coords[1]:.6g}) "
          f"mult={p.mult} residual={p.residual:.1e}")

# A sampled degree-5 system: 25 isolated zeros, cross-validated by
# eliminating the other variable as well.
system = sample_bernoulli_system(n=2, d=5, seed=11, trial=4)
report = classify_exceptional(system)
cycle, diag = solve_bivariate(*system.polys)
print(f"\nd=5 sample: found {diag.count_found} zeros "
      f"(expected {diag.count_expected}), max residual {diag.max_residual:.1e}, "
      f"cross-check mismatches {diag.cross_check_mismatches}")
# Outside the exceptional set the count must equal the mixed volume.
print("exceptional:", report.exceptional,
      "| count check passes:", diag.count_found == diag.count_expected)

# Univariate root finding scales to high degree: simultaneous iteration,
# with an exact split of the roots at the origin.
d = 300
f = sample_bernoulli_system(n=1, d=d, seed=3, trial=0).polys[0]
coeffs = [f.coeff((k,)) for k in range(d + 1)]
res = roots_univariate(coeffs)
mods = np.abs(res.roots)
print(f"\ndegree-{d} random sign polynomial: {len(res.roots)} roots, "
      f"median |root| = {np.median(mods):.4f}, "
      f"all converged = {bool(res.converged.all())}")
print("the roots hug the unit circle:",
      f"{np.mean((mods > 0.9) & (mods < 1.1)):.1%} within 10% of |z|=1")
