import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytorus.polynomials import (
    IntPolynomial,
    PolynomialError,
    coefficient_signs,
    directed_polynomial,
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
    # seed and trial are 64-bit words: outside [0, 2**64) is refused, not wrapped
    for seed, trial in [(-1, 0), (2**64, 0), (1, -1), (1, 2**64)]:
        with pytest.raises(PolynomialError):
            sample_bernoulli_system(1, 3, seed, trial)
    assert sample_bernoulli_system(1, 3, 2**64 - 1, 2**64 - 1).trial == 2**64 - 1


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
# support


def test_support_examples():
    f = poly(2, {(0, 0): 1, (1, 1): 1})
    assert set(support(f)) == {(0, 0), (1, 1)}
    s = sample_bernoulli_system(2, 3, 2, 0)
    assert len(support(s.polys[0])) == 10
    g = poly(1, {(3,): 1})
    assert support(g) == ((3,),)
    with pytest.raises(PolynomialError):
        support(poly(1, {}))


# ---------------------------------------------------------------------------
# directed polynomials


def test_directed_rejects_univariate():
    # the n = 1 classifier reads the end coefficients itself
    f = poly(1, {(0,): 3, (1,): -2, (4,): 5})
    for v in [(1,), (-1,)]:
        with pytest.raises(PolynomialError):
            directed_polynomial(f, v)


def test_directed_full_system_supports():
    n, d = 2, 5
    s = sample_bernoulli_system(n, d, 31, 2)
    f = s.polys[0]
    g = directed_polynomial(f, (1, 0))
    assert set(e for (e,), _ in g.terms) == set(range(d + 1))
    assert all(c in (-1, 1) for _, c in g.terms)
    g2 = directed_polynomial(f, (-1, -1))
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
        gpoly = directed_polynomial(f, v)
        dots = [e[0] * v[0] + e[1] * v[1] for e, _ in f.terms]
        assert len(gpoly.terms) == dots.count(min(dots))


def _oracle_directed_polynomial(f, v):
    """The per-term Python loop that `directed_polynomial` replaced: face
    points translated by the colex-minimal one, b."""
    v = tuple(int(c) for c in v)
    n = f.nvars
    s = min(sum(e * c for e, c in zip(exp, v)) for exp, _ in f.terms)
    face_terms = [
        (exp, c) for exp, c in f.terms if sum(e * c2 for e, c2 in zip(exp, v)) == s
    ]
    b = min((exp for exp, _ in face_terms), key=lambda exp: exp[::-1])

    def coords_for(diff):
        if v == tuple(-1 for _ in range(n)):
            return diff[1:]
        units = [tuple(1 if k == m else 0 for k in range(n)) for m in range(n)]
        if v in units:
            m = units.index(v)
            return diff[:m] + diff[m + 1 :]
        u = (-v[1], v[0])
        if u[0] != 0:
            t, r = divmod(diff[0], u[0])
        else:
            t, r = divmod(diff[1], u[1])
        assert not r and (t * u[0], t * u[1]) == diff
        return (t,)

    raw = {}
    for exp, c in face_terms:
        diff = tuple(e - bb for e, bb in zip(exp, b))
        raw[coords_for(diff)] = c
    mins = tuple(min(t[k] for t in raw) for k in range(n - 1))
    shifted = {tuple(t[k] - mins[k] for k in range(n - 1)): c for t, c in raw.items()}
    return IntPolynomial.from_dict(n - 1, shifted)


def test_directed_equals_per_term_oracle():
    rng = random.Random(11)
    dirs = [
        (a, b)
        for a in range(-3, 4)
        for b in range(-3, 4)
        if math.gcd(a, b) == 1
    ]
    for _ in range(200):
        pts = {(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(1, 12))}
        f = poly(2, {p: rng.choice([-2, -1, 1, 3]) for p in pts})
        for v in dirs:
            got, want = directed_polynomial(f, v), _oracle_directed_polynomial(f, v)
            assert got == want
            assert all(type(x) is int for e, c in got.terms for x in (*e, c))


def test_directed_rejects_nonprimitive():
    f = poly(2, {(0, 0): 1, (1, 0): 1})
    with pytest.raises(PolynomialError):
        directed_polynomial(f, (2, 2))


def test_directed_counts_for_bernoulli():
    n, d = 2, 4
    s = sample_bernoulli_system(n, d, 8, 0)
    for m, v in enumerate([(1, 0), (0, 1)]):
        for f in s.polys:
            g = directed_polynomial(f, v)
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
