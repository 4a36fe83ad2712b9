"""Exact lattice geometry: hulls, Minkowski sums, and mixed volumes.

The mixed volume of the Newton polytopes is the number a generic
polynomial system will realize as its count of torus zeros, so getting
these quantities exactly (no floats anywhere) is the foundation of
everything else in the package.
"""

from fractions import Fraction

from polytorus import (
    IntPolynomial,
    convex_hull,
    directed_polynomial,
    facet_normals,
    minkowski_sum,
    mixed_volume,
    simplex_points,
    volume,
)

# The support of a dense degree-d polynomial in n variables is the set of
# lattice points of the dilated standard simplex d*Sigma_n.
d = 3
simplex = convex_hull(simplex_points(2, d))
print(f"{d}*Sigma_2 has vertices {simplex.vertices}")
print(f"volume = {volume(simplex)} (= d^2/2)")

# Mixed volume via the polarization formula.  For equal bodies it
# collapses to n! times the volume, which for the simplex gives d^n: the
# Bezout number shows up as lattice geometry.
print(f"MV(Q, Q) = {mixed_volume([simplex, simplex])} (= d^2 = {d**2})")

# A genuinely mixed example: a triangle against a diagonal segment.  The
# polarization formula needs only volumes of sums.
triangle = convex_hull([(0, 0), (2, 0), (0, 2)])
segment = convex_hull([(0, 0), (1, 1)])
summed = minkowski_sum(triangle, segment)
print("\ntriangle + segment vertices:", summed.vertices)
print(
    "MV(triangle, segment) =",
    mixed_volume([triangle, segment]),
    "= Vol(T+S) - Vol(T) - Vol(S) =",
    volume(summed), "-", volume(triangle), "-", volume(segment),
)

# Inward facet normals: the facet with normal v is where <q, v> is least.
# The simplex has n+1 facets; the interesting one for random systems is
# the hypotenuse with normal (-1, -1).  Restricting the full polynomial
# to a facet leaves one term per lattice point on it.
full = IntPolynomial.from_dict(2, {p: 1 for p in simplex_points(2, d)})
print("\nfacet normals of 3*Sigma_2:", facet_normals(simplex))
for v in facet_normals(simplex):
    g = directed_polynomial(full, v)
    print(f"  v={v}: {len(g.terms)} lattice points on the facet")

# Everything stays rational.  A degenerate (flat) hull keeps only its two
# end points and has area 0, yet two flat hulls that are not parallel
# still have a positive mixed volume: |det| of their directions.
flat = convex_hull([(0, 0), (1, 1), (3, 3)])
other = convex_hull([(0, 0), (2, -1)])
print("\nflat hull vertices:", flat.vertices, "rank", flat.rank, "area", volume(flat))
print("MV(flat, other) =", mixed_volume([flat, other]), "(= |det((3,3),(2,-1))| = 9)")
rect = convex_hull([(x, y) for x in range(2) for y in range(4)])
print("rectangle area:", volume(rect), "of type", type(volume(rect)).__name__)
assert volume(flat) == 0
assert mixed_volume([flat, other]) == 9
assert volume(rect) == Fraction(3)
