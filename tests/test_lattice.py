import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytorus.lattice import (
    GeometryError,
    convex_hull,
    facet_normals,
    minkowski_sum,
    mixed_volume,
    simplex_points,
    volume,
)


def standard_simplex(n, d):
    """d * Sigma_n, the Newton polytope of a dense degree-d polynomial."""
    return convex_hull(simplex_points(n, d))


def translate(q, b):
    return convex_hull([tuple(c + o for c, o in zip(p, b)) for p in q.vertices])


def test_hull_simplex_generators():
    p = convex_hull([(0, 0), (1, 0), (0, 1), (0, 0)])
    assert set(p.vertices) == {(0, 0), (1, 0), (0, 1)}


def test_hull_collinear_is_segment():
    p = convex_hull([(0, 0), (2, 0), (1, 0)])
    assert set(p.vertices) == {(0, 0), (2, 0)}


def test_hull_interval_1d():
    pts = [(k,) for k in range(5)]
    p = convex_hull(pts)
    assert set(p.vertices) == {(0,), (4,)}


def test_hull_errors():
    with pytest.raises(GeometryError):
        convex_hull([])
    with pytest.raises(GeometryError):
        convex_hull([(0, 0), (1,)])
    with pytest.raises(GeometryError):
        convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_minkowski_scaling_identity():
    s = standard_simplex(2, 1)
    p = minkowski_sum(s, s)
    assert set(p.vertices) == {(0, 0), (2, 0), (0, 2)}


def test_minkowski_rectangle():
    sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    seg = convex_hull([(0, 0), (1, 0)])
    p = minkowski_sum(sq, seg)
    assert set(p.vertices) == {(0, 0), (2, 0), (0, 1), (2, 1)}


def test_minkowski_point_translation():
    tri = convex_hull([(0, 0), (2, 1), (1, 3)])
    pt = convex_hull([(5, -2)])
    moved = minkowski_sum(tri, pt)
    assert set(moved.vertices) == {(5, -2), (7, -1), (6, 1)}


def test_volume_examples():
    assert volume(standard_simplex(2, 3)) == Fraction(9, 2)
    assert volume(convex_hull([(0, 0), (1, 0)])) == 0
    assert volume(convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])) == 1


def test_mixed_volume_examples():
    s3 = standard_simplex(2, 3)
    assert mixed_volume([s3, s3]) == 9
    sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    seg = convex_hull([(0, 0), (1, 0)])
    assert mixed_volume([sq, seg]) == 1  # Vol(Q1+Q2)-Vol(Q1)-Vol(Q2) = 2-1-0
    tri = convex_hull([(0, 0), (2, 0), (0, 2)])
    diag = convex_hull([(0, 0), (1, 1)])
    assert mixed_volume([tri, diag]) == 4


def test_mixed_volume_count_error():
    s = standard_simplex(2, 1)
    with pytest.raises(GeometryError):
        mixed_volume([s])


def test_facet_normals_simplex():
    assert set(facet_normals(standard_simplex(2, 5))) == {(1, 0), (0, 1), (-1, -1)}
    sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert set(facet_normals(sq)) == {(1, 0), (0, 1), (-1, 0), (0, -1)}


def test_facet_normals_need_full_dimension():
    seg = convex_hull([(0, 0), (2, 0)])
    with pytest.raises(GeometryError):
        facet_normals(seg)


def test_facet_normals_count_simplex():
    for n, d in [(1, 3), (2, 4)]:
        s = standard_simplex(n, d)
        assert len(facet_normals(s)) == n + 1


def test_simplex_points_count():
    from math import comb

    for n, d in [(1, 4), (2, 3), (3, 2)]:
        assert len(simplex_points(n, d)) == comb(n + d, n)


def _random_polytope(rng, n, lo=0, hi=5, npts=4):
    pts = [tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(npts)]
    return convex_hull(pts)


@pytest.mark.parametrize("n", [2])
def test_mixed_volume_symmetry(n):
    rng = random.Random(123 + n)
    for _ in range(6):
        qs = [_random_polytope(rng, n) for _ in range(n)]
        base = mixed_volume(qs)
        rng.shuffle(qs)
        assert mixed_volume(qs) == base


def test_mixed_volume_multilinearity():
    rng = random.Random(5)
    for _ in range(6):
        q1 = _random_polytope(rng, 2, npts=3)
        q1b = _random_polytope(rng, 2, npts=3)
        q2 = _random_polytope(rng, 2, npts=3)
        left = mixed_volume([minkowski_sum(q1, q1b), q2])
        assert left == mixed_volume([q1, q2]) + mixed_volume([q1b, q2])


@pytest.mark.parametrize("n", [1, 2])
def test_mixed_volume_diagonal_is_factorial_volume(n):
    import math

    rng = random.Random(17 + n)
    for _ in range(4):
        q = _random_polytope(rng, n, npts=n + 2)
        assert mixed_volume([q] * n) == math.factorial(n) * volume(q)


def test_translation_invariance():
    rng = random.Random(99)
    for _ in range(5):
        q1 = _random_polytope(rng, 2)
        q2 = _random_polytope(rng, 2)
        t1 = translate(q1, (3, -7))
        t2 = translate(q2, (-2, 11))
        assert volume(t1) == volume(q1)
        assert mixed_volume([t1, t2]) == mixed_volume([q1, q2])


@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        min_size=3,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_facet_support_inequality(points):
    p = convex_hull(points)
    if not p.is_full_dimensional():
        return
    for v in facet_normals(p):
        dots = [sum(a * b for a, b in zip(q, v)) for q in p.vertices]
        s = min(dots)
        assert all(sum(a * b for a, b in zip(q, v)) >= s for q in points)
        assert dots.count(s) == 2  # an edge of the hull, not a vertex


def _affine_rank_oracle(points):
    """Dimension of the affine hull by integer Gaussian elimination, the
    general routine that `LatticePolytope.rank` replaced."""
    pts = [tuple(p) for p in points]
    base = pts[0]
    rows = [[c - b for c, b in zip(p, base)] for p in pts[1:]]
    rows = [r for r in rows if any(r)]
    rank = 0
    for col in range(len(base)):
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is None:
            continue
        rank += 1
        rows.remove(pivot)
        rows = [[pivot[col] * r[j] - r[col] * pivot[j] for j in range(len(base))]
                for r in rows]
        rows = [r for r in rows if any(r)]
    return rank


_coord = st.integers(-4, 4)
_point_sets = st.one_of(
    st.lists(st.tuples(_coord), min_size=1, max_size=8),
    st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8),
    st.builds(lambda p, k: [p] * k, st.tuples(_coord, _coord), st.integers(1, 4)),
    st.builds(
        lambda b, u, ts: [(b[0] + t * u[0], b[1] + t * u[1]) for t in ts],
        st.tuples(_coord, _coord),
        st.tuples(_coord, _coord),
        st.lists(_coord, min_size=1, max_size=6),
    ),
)


@given(_point_sets)
@settings(max_examples=200, deadline=None)
def test_rank_equals_affine_elimination(points):
    p = convex_hull(points)
    assert p.rank == _affine_rank_oracle(points)
