import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytorus.lattice import face
from polytorus.polynomials import (
    IntPolynomial,
    PolynomialError,
    coefficient_signs,
    directed_polynomial,
    evaluate,
    homogenize,
    newton_polytope,
    sample_bernoulli_system,
    sup_norm_upper,
    support,
    system_from_dict,
    system_to_dict,
    univariate_coeffs,
)


def poly(nvars, coeffs):
    return IntPolynomial.from_dict(nvars, coeffs)


# ---------------------------------------------------------------------------
# sampling


def test_sample_support_sizes():
    s = sample_bernoulli_system(1, 2, 11, 0)
    assert len(s.polys[0].terms) == 3
    s = sample_bernoulli_system(2, 3, 11, 0)
    for f in s.polys:
        assert len(f.terms) == 10  # C(5, 2)
        assert all(c in (-1, 1) for _, c in f.terms)


def test_sample_determinism():
    a = sample_bernoulli_system(2, 4, 7, 3)
    b = sample_bernoulli_system(2, 4, 7, 3)
    assert a == b
    c = sample_bernoulli_system(2, 4, 7, 4)
    assert a != c


def test_sample_rejects_bad_input():
    with pytest.raises(PolynomialError):
        sample_bernoulli_system(0, 3, 1, 0)
    with pytest.raises(PolynomialError):
        sample_bernoulli_system(1, 0, 1, 0)


def test_sign_balance():
    total = 0
    ndraws = 100_000
    signs = coefficient_signs(123, 0, 0, ndraws)
    total = sum(signs)
    # mean within 4 sigma of 0
    assert abs(total) <= 4 * math.sqrt(ndraws)


def test_streams_differ_across_polys_and_trials():
    a = coefficient_signs(5, 0, 0, 256)
    b = coefficient_signs(5, 0, 1, 256)
    c = coefficient_signs(5, 1, 0, 256)
    assert a != b and a != c


# ---------------------------------------------------------------------------
# evaluation / support / homogenization


def test_evaluate_examples():
    f = poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    assert evaluate(f, (1, 1)) == 3
    g = poly(1, {(2,): 1, (0,): -1})
    assert evaluate(g, (1j,)) == -2
    n, d = 2, 3
    s = sample_bernoulli_system(n, d, 1, 0)
    allones = poly(n, {e: 1 for e in support(s.polys[0])})
    assert evaluate(allones, (1, 1)) == math.comb(n + d, n)


def test_evaluate_dimension_mismatch():
    f = poly(2, {(1, 0): 1})
    with pytest.raises(PolynomialError):
        evaluate(f, (1,))


def test_support_examples():
    f = poly(2, {(0, 0): 1, (1, 1): 1})
    assert set(support(f)) == {(0, 0), (1, 1)}
    s = sample_bernoulli_system(2, 3, 2, 0)
    assert len(support(s.polys[0])) == 10
    g = poly(1, {(3,): 1})
    assert support(g) == ((3,),)
    with pytest.raises(PolynomialError):
        support(poly(1, {}))


def test_homogenize_examples():
    f = poly(1, {(0,): 1, (1,): 1})
    h = homogenize(f, 1)
    assert h.coeff_map == {(1, 0): 1, (0, 1): 1}
    f2 = poly(2, {(0, 0): 1, (1, 0): 1, (0, 2): 1})
    h2 = homogenize(f2, 2)
    assert h2.coeff_map == {(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 2): 1}
    with pytest.raises(PolynomialError):
        homogenize(f2, 1)


@given(st.integers(0, 2**32), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_homogenize_identity_random(seed, d):
    s = sample_bernoulli_system(2, d, seed, 0)
    f = s.polys[0]
    h = homogenize(f, d)
    rng = random.Random(seed)
    x = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2))
    lhs = evaluate(h, (1,) + x)
    rhs = evaluate(f, x)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# directed polynomials


def test_directed_univariate_faces():
    f = poly(1, {(0,): 3, (1,): -2, (4,): 5})
    g, b = directed_polynomial(f, (1,))
    assert b == (0,) and g.nvars == 0 and g.coeff(()) == 3
    g, b = directed_polynomial(f, (-1,))
    assert b == (4,) and g.coeff(()) == 5


def test_directed_full_system_supports():
    n, d = 2, 5
    s = sample_bernoulli_system(n, d, 31, 2)
    f = s.polys[0]
    g, b = directed_polynomial(f, (1, 0))
    assert b == (0, 0)
    assert set(e for (e,), _ in g.terms) == set(range(d + 1))
    assert all(c in (-1, 1) for _, c in g.terms)
    g2, b2 = directed_polynomial(f, (-1, -1))
    assert b2 == (d, 0)  # the translation used for the all-negative direction
    assert len(g2.terms) == d + 1
    # directed coefficients match the face coefficients of f
    for (e,), c in g2.terms:
        assert f.coeff((d - e, e)) == c


def test_directed_support_matches_face():
    rng = random.Random(3)
    for _ in range(20):
        pts = {
            (rng.randint(0, 4), rng.randint(0, 4)): rng.choice([-2, -1, 1, 2])
            for _ in range(rng.randint(2, 7))
        }
        f = poly(2, pts)
        v = (0, 0)
        while all(c == 0 for c in v):
            v = (rng.randint(-2, 2), rng.randint(-2, 2))
        g = math.gcd(abs(v[0]), abs(v[1]))
        v = (v[0] // g, v[1] // g)
        gpoly, b = directed_polynomial(f, v)
        want = face(newton_polytope(f), v)
        got_size = len(gpoly.terms)
        assert got_size == len([p for p in want.points if p in dict(f.terms)])


def test_directed_rejects_nonprimitive():
    f = poly(2, {(0, 0): 1, (1, 0): 1})
    with pytest.raises(PolynomialError):
        directed_polynomial(f, (2, 2))


def test_directed_counts_for_bernoulli():
    n, d = 2, 4
    s = sample_bernoulli_system(n, d, 8, 0)
    for m, v in enumerate([(1, 0), (0, 1)]):
        for f in s.polys:
            g, _ = directed_polynomial(f, v)
            assert len(g.terms) == math.comb(n - 1 + d, n - 1)
            assert all(c in (-1, 1) for _, c in g.terms)


# ---------------------------------------------------------------------------
# sup norms


def test_sup_norm_upper_examples():
    s = sample_bernoulli_system(2, 4, 1, 0)
    assert sup_norm_upper(s.polys[0]) == math.comb(6, 2)
    assert sup_norm_upper(poly(1, {(2,): 3})) == 3
    assert sup_norm_upper(poly(1, {(0,): 1, (1,): -1})) == 2


# ---------------------------------------------------------------------------
# JSON round trip


def test_system_json_roundtrip():
    s = sample_bernoulli_system(2, 3, 77, 5)
    obj = system_to_dict(s.polys, s.n, s.d, s.seed, s.trial)
    n, d, seed, trial, polys = system_from_dict(obj)
    assert (n, d, seed, trial) == (2, 3, 77, 5)
    assert polys == s.polys
