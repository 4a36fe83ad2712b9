import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytorus.lattice import (
    GeometryError,
    convex_hull,
    face,
    facet_normals,
    minkowski_sum,
    mixed_volume,
    simplex_points,
    standard_simplex,
    support_value,
    volume,
)


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


def test_support_value_examples():
    s = standard_simplex(2, 1)
    assert support_value(s, (1, 0)) == 0
    assert support_value(s, (-1, -1)) == -1
    pt = convex_hull([(5, 5)])
    assert support_value(pt, (2, 3)) == 25
    with pytest.raises(GeometryError):
        support_value(s, (0, 0))


def test_face_examples():
    d = 4
    s = standard_simplex(2, d)
    f = face(s, (1, 0))
    assert set(f.points) == {(0, t) for t in range(d + 1)}
    f2 = face(s, (-1, -1))
    assert set(f2.points) == {(j, d - j) for j in range(d + 1)}
    sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    f3 = face(sq, (1, 1))
    assert set(f3.points) == {(0, 0)}


def test_face_normal_is_primitive():
    s = standard_simplex(2, 3)
    f = face(s, (2, 2))
    assert f.normal == (1, 1)
    assert all(
        sum(a * b for a, b in zip(p, f.normal)) == f.support_value for p in f.points
    )


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
        t1 = q1.translate((3, -7))
        t2 = q2.translate((-2, 11))
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
        s = support_value(p, v)
        dots = [sum(a * b for a, b in zip(q, v)) for q in p.points]
        assert all(x >= s for x in dots)
        assert s in dots


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        min_size=1,
        max_size=10,
    ),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
@settings(max_examples=60, deadline=None)
def test_face_points_subset(points, v):
    if all(c == 0 for c in v):
        return
    p = convex_hull(points)
    f = face(p, v)
    assert set(f.points) <= set(p.points)
