"""Exact convex geometry over the integer lattice.

Polytopes are convex hulls of finite integer point sets in dimension 1
or 2, the dimensions the exact pipeline handles.  Everything here is
computed with exact integer (or Fraction) arithmetic: hulls by monotone
chain, areas by the shoelace formula, mixed volumes by the polarization
formula

    MV_n(Q_1, ..., Q_n) = sum_{S nonempty subset of {1..n}}
                          (-1)^(n - |S|) Vol_n(sum_{i in S} Q_i).

Support functions use the min convention, s_Q(v) = min_{q in Q} <q, v>,
so facet normals returned by this module point inward.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

Vec = tuple  # integer coordinate tuples


class GeometryError(ValueError):
    """Invalid geometric input (empty set, mixed dimensions, zero vector...)."""


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


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


def affine_rank(points) -> int:
    """Dimension of the affine hull of an integer point set."""
    pts = [tuple(p) for p in points]
    base = pts[0]
    vecs = [tuple(c - b for c, b in zip(p, base)) for p in pts[1:]]
    # integer Gaussian elimination, dimension <= 2 so this stays tiny
    rank = 0
    rows = [list(v) for v in vecs if any(v)]
    ncols = len(base)
    col = 0
    while rows and col < ncols:
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rank += 1
        rows.remove(pivot)
        rows = [
            [pivot[col] * r[j] - r[col] * pivot[j] for j in range(ncols)]
            for r in rows
        ]
        rows = [r for r in rows if any(r)]
        col += 1
    return rank


@dataclass(frozen=True)
class Face:
    """Face of a polytope in a given inward direction.

    normal is primitive; every generator q of the parent satisfies
    <q, normal> >= support_value with equality exactly on `points`.
    """

    normal: Vec
    support_value: int
    points: tuple


@dataclass(frozen=True)
class LatticePolytope:
    """Convex hull of finitely many integer points.

    `points` are the (deduplicated, sorted) generators given at
    construction; `vertices` is the exact vertex set of their hull.
    Instances are immutable and safe to share across threads.
    """

    dim: int
    points: tuple
    vertices: tuple

    @cached_property
    def rank(self) -> int:
        return affine_rank(self.vertices)

    def is_full_dimensional(self) -> bool:
        return self.rank == self.dim

    def translate(self, b: Vec) -> "LatticePolytope":
        b = tuple(b)
        move = lambda p: tuple(c + o for c, o in zip(p, b))
        return LatticePolytope(
            self.dim,
            tuple(sorted(move(p) for p in self.points)),
            tuple(sorted(move(v) for v in self.vertices)),
        )


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
    return LatticePolytope(n, tuple(pts), tuple(verts))


def minkowski_sum(p: LatticePolytope, q: LatticePolytope) -> LatticePolytope:
    """Hull of pairwise vertex sums."""
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
    cycle = _hull2_cycle(p.vertices)
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
# support machinery


def support_value(p: LatticePolytope, v) -> int:
    """min over the polytope of <q, v> (attained at a vertex)."""
    v = tuple(int(c) for c in v)
    if len(v) != p.dim:
        raise GeometryError("direction dimension mismatch")
    if all(c == 0 for c in v):
        raise GeometryError("support direction must be nonzero")
    return min(_dot(q, v) for q in p.vertices)


def face(p: LatticePolytope, v) -> Face:
    """Generators achieving the minimum of <., v>; normal stored primitive."""
    v = tuple(int(c) for c in v)
    s = support_value(p, v)
    pts = tuple(q for q in p.points if _dot(q, v) == s)
    prim = primitive_vector(v)
    return Face(normal=prim, support_value=min(_dot(q, prim) for q in pts), points=pts)


def facet_normals(p: LatticePolytope):
    """Primitive inward normals, one per facet, in lexicographic order."""
    if not p.is_full_dimensional():
        raise GeometryError("facet normals need a full-dimensional polytope")
    if p.dim == 1:
        return [(-1,), (1,)]
    cycle = _hull2_cycle(p.vertices)
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


def standard_simplex(n: int, d: int, all_points: bool = True) -> LatticePolytope:
    """The dilated standard simplex d*Sigma_n as a polytope.

    With all_points=True the generators are every lattice point (the support
    of a dense degree-d polynomial); otherwise just the n+1 corners.
    """
    if all_points:
        return convex_hull(simplex_points(n, d))
    corners = [tuple([0] * n)]
    for m in range(n):
        e = [0] * n
        e[m] = d
        corners.append(tuple(e))
    return convex_hull(corners)
