"""Sampling random sign systems and classifying the degenerate ones.

A sampled system is "exceptional" when a facet directional resultant
vanishes (the directed polynomials on some face of the support share a
root) or when the system has a common zero with a vanishing coordinate.
Both conditions are decided exactly over the integers, so the verdict
carries no numerical doubt.  Degenerate systems are rare, with
probability O(1/d), and every degree-1 system is degenerate.
"""

from collections import Counter

from polytorus import (
    IntPolynomial,
    classify_exceptional,
    enumerate_d1,
    sample_bernoulli_system,
)
from polytorus.resultants import system_facet_normals

# Reproducible sampling: the coefficient signs are a pure function of
# (seed, trial, polynomial index, exponent rank).
system = sample_bernoulli_system(n=2, d=4, seed=7, trial=0)
print("sampled f1 =", system.polys[0])

report = classify_exceptional(system)
print("\nexceptional:", report.exceptional)
for entry in report.entries:
    print(f"  directional resultant at v={entry.normal}: {entry.value}")
print("  zero-coordinate flags:", report.zero_coordinate_flags)

# Only the facet normals of the Minkowski sum of the supports carry a
# directional resultant; any other direction has the trivial Res_v = 1.
print("(1,1) is a facet normal:", (1, 1) in system_facet_normals(system.polys))

# A handmade degenerate pair: two parallel lines.  The directed
# polynomials on the hypotenuse face coincide, so their resultant is 0.
f1 = IntPolynomial.from_dict(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
f2 = IntPolynomial.from_dict(2, {(0, 0): -1, (1, 0): 1, (0, 1): 1})
print("\nparallel lines report:", classify_exceptional((f1, f2)).to_dict())

# Exceptional rates fall with the degree.  At d=1 the rate is exactly 1:
# the three 2x2 sign determinants cannot all be nonzero at once.
rows, fraction = enumerate_d1()
print(f"\nall {len(rows)} degree-1 systems classified; "
      f"exceptional fraction = {fraction}")
print("reasons:", dict(Counter(r.reason for r in rows)))

for d in (2, 4, 8):
    exc = sum(
        classify_exceptional(sample_bernoulli_system(2, d, 123, t)).exceptional
        for t in range(100)
    )
    print(f"d={d}: {exc}/100 sampled systems exceptional")
