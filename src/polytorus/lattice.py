"""Exact convex geometry over the integer lattice.

Polytopes are convex hulls of finite integer point sets in dimension 1
or 2, the dimensions the exact pipeline handles.  Everything here is
computed with exact integer (or Fraction) arithmetic: hulls by monotone
chain, areas by the shoelace formula, mixed volumes by the polarization
formula

    MV_n(Q_1, ..., Q_n) = sum_{S nonempty subset of {1..n}}
                          (-1)^(n - |S|) Vol_n(sum_{i in S} Q_i).

Facet normals point inward: the facet with normal v is where <q, v>
takes its minimum over the polytope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

Vec = tuple  # integer coordinate tuples


class GeometryError(ValueError):
    """Invalid geometric input (empty set, mixed dimensions, zero vector...)."""


def primitive_vector(v: Vec) -> Vec:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    if all(x == 0 for x in v):
        raise GeometryError("zero vector has no primitive form")
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v)


def _check_points(points):
    pts = [tuple(int(c) for c in p) for p in points]
    if not pts:
        raise GeometryError("point set must be nonempty")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise GeometryError("points have mixed dimensions")
    if n not in (1, 2):
        raise GeometryError(f"ambient dimension {n} unsupported (need 1 or 2)")
    return n, sorted(set(pts))


@dataclass(frozen=True)
class LatticePolytope:
    """Convex hull of finitely many integer points.

    `vertices` is the exact, sorted vertex set of the hull.  Instances are
    immutable and safe to share across threads.
    """

    dim: int
    vertices: tuple

    @property
    def rank(self) -> int:
        """Dimension of the affine hull: a hull keeps strict turns only, so
        one point has 1 vertex and a segment 2."""
        return min(len(self.vertices) - 1, self.dim)

    @cached_property
    def cycle(self) -> tuple:
        """Vertices in counterclockwise order (dimension 2), or the two
        endpoints (dimension 1)."""
        return tuple(_hull2_cycle(self.vertices)) if self.dim == 2 else self.vertices

    def is_full_dimensional(self) -> bool:
        return self.rank == self.dim


# ---------------------------------------------------------------------------
# hulls


def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull2_cycle(pts):
    """Counterclockwise vertex cycle of the 2d hull (strict turns only)."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def convex_hull(points) -> LatticePolytope:
    """Exact convex hull of a finite integer point set (dimension 1 or 2)."""
    n, pts = _check_points(points)
    if n == 1:
        verts = sorted({pts[0], pts[-1]})
    else:
        verts = sorted(_hull2_cycle(pts))
    return LatticePolytope(n, tuple(verts))


@lru_cache(maxsize=256)
def minkowski_sum(p: LatticePolytope, q: LatticePolytope) -> LatticePolytope:
    """Hull of pairwise vertex sums; cached, as the polytopes are immutable
    and every system of one support sums the same hulls."""
    if p.dim != q.dim:
        raise GeometryError("Minkowski sum needs equal ambient dimensions")
    sums = {
        tuple(a + b for a, b in zip(u, v))
        for u in p.vertices
        for v in q.vertices
    }
    return convex_hull(sums)


# ---------------------------------------------------------------------------
# volumes


def volume(p: LatticePolytope) -> Fraction:
    """Lebesgue volume of the hull, exact; 0 for lower-dimensional hulls."""
    if p.rank < p.dim:
        return Fraction(0)
    if p.dim == 1:
        return Fraction(p.vertices[-1][0] - p.vertices[0][0])
    cycle = p.cycle
    s = 0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        s += a[0] * b[1] - b[0] * a[1]
    return Fraction(abs(s), 2)


def mixed_volume(qs) -> Fraction:
    """Mixed volume of n polytopes in dimension n via polarization.

    Exact rational; an integer whenever the inputs are lattice polytopes.
    """
    qs = list(qs)
    if not qs:
        raise GeometryError("mixed volume of an empty family")
    n = qs[0].dim
    if len(qs) != n:
        raise GeometryError(
            f"mixed volume in dimension {n} needs exactly {n} polytopes, got {len(qs)}"
        )
    if any(q.dim != n for q in qs):
        raise GeometryError("mixed volume arguments have mixed dimensions")
    total = Fraction(0)
    for k in range(1, n + 1):
        sign = (-1) ** (n - k)
        for subset in itertools.combinations(range(n), k):
            acc = qs[subset[0]]
            for j in subset[1:]:
                acc = minkowski_sum(acc, qs[j])
            total += sign * volume(acc)
    return total


# ---------------------------------------------------------------------------
# facets


def facet_normals(p: LatticePolytope):
    """Primitive inward normals, one per facet, in lexicographic order."""
    if not p.is_full_dimensional():
        raise GeometryError("facet normals need a full-dimensional polytope")
    if p.dim == 1:
        return [(-1,), (1,)]
    cycle = p.cycle
    normals = set()
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        t = _sub(b, a)
        normals.add(primitive_vector((-t[1], t[0])))
    return sorted(normals)


def simplex_points(n: int, d: int):
    """All lattice points of d*Sigma_n (exponents J >= 0 with |J| <= d), lex order."""
    if n < 1 or d < 0:
        raise GeometryError("simplex needs n >= 1 and d >= 0")
    out = []

    def rec(prefix, remaining, k):
        if k == n:
            out.append(tuple(prefix))
            return
        for j in range(remaining + 1):
            rec(prefix + [j], remaining - j, k + 1)

    rec([], d, 0)
    return sorted(out)
