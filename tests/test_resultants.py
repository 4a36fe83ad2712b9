import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylvester_oracle import _interpolate_integers, det_bareiss, sylvester_matrix

import polytorus.resultants as res
from polytorus.polynomials import IntPolynomial, sample_bernoulli_system
from polytorus.resultants import (
    _SQFREE_PRIME,
    ComputationError,
    DegenerateSystemError,
    ResultantError,
    UnsupportedDimensionError,
    _crt_primes,
    _formal_resultant,
    _primes,
    classify_exceptional,
    eliminant_bivariate,
    poly_derivative,
    poly_divexact,
    poly_gcd,
    poly_primitive,
    resultant_univariate,
    roots_structure,
    squarefree_decomposition,
    system_facet_normals,
    trim,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def poly(nvars, coeffs):
    return IntPolynomial.from_dict(nvars, coeffs)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def random_poly(rng, deg, lo=-9, hi=9):
    cs = [rng.randint(lo, hi) for _ in range(deg)]
    lead = 0
    while lead == 0:
        lead = rng.randint(lo, hi)
    return cs + [lead]


# ---------------------------------------------------------------------------
# Sylvester matrix and univariate resultants


def test_sylvester_examples():
    assert sylvester_matrix([-2, 1], [-3, 1]) == [[1, -2], [1, -3]]
    m = sylvester_matrix([-1, 0, 1], [-1, 1])
    assert len(m) == 3 and det_bareiss(m) == 0
    assert det_bareiss(sylvester_matrix([0, 1], [0, 1])) == 0
    with pytest.raises(ResultantError):
        sylvester_matrix([2], [5])


def test_resultant_examples():
    assert resultant_univariate([-2, 1], [-3, 1]) == -1
    assert resultant_univariate([-1, 0, 1], [-1, 1]) == 0
    assert resultant_univariate([1, 0, 1], [-1, 0, 1]) == 4


def test_resultant_constants():
    assert resultant_univariate([5], [1, 2, 3]) == 25
    assert resultant_univariate([1, 2, 3], [5]) == 25
    assert resultant_univariate([7], [3]) == 1
    with pytest.raises(ResultantError):
        resultant_univariate([], [])
    assert resultant_univariate([], [1, 1]) == 0
    assert resultant_univariate([], [4]) == 1


def test_resultant_gcd_oracle_planted():
    # criterion-1 style: zero iff a common factor was planted
    rng = random.Random(42)
    for k in range(1000):
        plant = k % 2 == 0
        f = random_poly(rng, rng.randint(1, 4))
        g = random_poly(rng, rng.randint(1, 4))
        if plant:
            common = random_poly(rng, rng.randint(1, 3))
            f = poly_mul(f, common)
            g = poly_mul(g, common)
            assert resultant_univariate(f, g) == 0
        else:
            res = resultant_univariate(f, g)
            gcd = poly_gcd(f, g)
            assert (res == 0) == (len(gcd) > 1)


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(1)
    for _ in range(300):
        f = random_poly(rng, rng.randint(1, 8))
        g = random_poly(rng, rng.randint(1, 8))
        assert resultant_univariate(f, g) == det_bareiss(sylvester_matrix(f, g))


@st.composite
def formal_pairs(draw):
    """(c1, c2, m1, m2): coefficient lists at formal degrees m1, m2 <= 8
    whose leading coefficients vanish on either side, both or neither."""
    m1 = draw(st.integers(0, 8))
    m2 = draw(st.integers(0 if m1 else 1, 8))
    c1 = draw(st.lists(st.integers(-9, 9), min_size=m1 + 1, max_size=m1 + 1))
    c2 = draw(st.lists(st.integers(-9, 9), min_size=m2 + 1, max_size=m2 + 1))
    short = draw(st.sampled_from(["c1", "c2", "both", "neither"]))
    for c, m, side in ((c1, m1, "c1"), (c2, m2, "c2")):
        if short in (side, "both"):
            k = draw(st.integers(-1, m - 1))  # actual degree; -1 is zero
            c[k + 1 :] = [0] * (m - k)
        elif c[m] == 0:
            c[m] = 1
    return c1, c2, m1, m2


@settings(max_examples=400, deadline=None)
@given(formal_pairs())
def test_formal_resultant_matches_sylvester_determinant(case):
    c1, c2, m1, m2 = case
    assert _formal_resultant(c1, c2, m1, m2) == det_bareiss(
        sylvester_matrix(c1, c2, m1, m2)
    )


def test_swap_sign_law():
    rng = random.Random(2)
    for _ in range(500):
        f = random_poly(rng, rng.randint(1, 6))
        g = random_poly(rng, rng.randint(1, 6))
        df, dg = len(f) - 1, len(g) - 1
        assert resultant_univariate(f, g) == (-1) ** (df * dg) * resultant_univariate(
            g, f
        )


def test_multiplicativity():
    rng = random.Random(3)
    for _ in range(500):
        f = random_poly(rng, rng.randint(1, 5), -5, 5)
        g = random_poly(rng, rng.randint(1, 5), -5, 5)
        h = random_poly(rng, rng.randint(1, 5), -5, 5)
        assert resultant_univariate(f, poly_mul(g, h)) == resultant_univariate(
            f, g
        ) * resultant_univariate(f, h)


def test_numeric_product_formula():
    # |Res(f,g)| = |lc f|^deg g * prod |g(alpha_i)| over numpy roots of f
    rng = random.Random(4)
    for _ in range(50):
        f = random_poly(rng, rng.randint(2, 12), -4, 4)
        g = random_poly(rng, rng.randint(1, 6), -4, 4)
        res = resultant_univariate(f, g)
        roots = np.roots(f[::-1])
        prod = abs(f[-1]) ** (len(g) - 1)
        for a in roots:
            prod *= abs(np.polyval(g[::-1], a))
        if prod > 1e-6:
            assert abs(res) == pytest.approx(prod, rel=1e-6)


# ---------------------------------------------------------------------------
# integer polynomial utilities


def test_poly_gcd_and_divexact():
    a = poly_mul([1, 2], [3, 0, 1])
    b = poly_mul([1, 2], [-1, 1])
    g = poly_gcd(a, b)
    assert g == [1, 2]
    assert poly_divexact(a, g) == [3, 0, 1]
    with pytest.raises(ComputationError):
        poly_divexact([1, 1, 1], [1, 2])


def test_squarefree_decomposition():
    # (x-1)^2 (x+2)^3 x
    f = [1]
    for factor, k in ((([-1, 1]), 2), (([2, 1]), 3), (([0, 1]), 1)):
        for _ in range(k):
            f = poly_mul(f, factor)
    parts = dict()
    for fac, mult in squarefree_decomposition(f):
        parts[mult] = fac
    assert poly_primitive(parts[2]) == [-1, 1]
    assert poly_primitive(parts[3]) == [2, 1]
    assert poly_primitive(parts[1]) == [0, 1]


def test_roots_structure_fast_path():
    sq = poly_mul([-1, 1], [-1, 1])
    assert roots_structure([-1, 0, 1]) == [([-1, 0, 1], 1)]
    assert roots_structure(sq) == [([-1, 1], 2)]
    assert roots_structure([5]) == []


def test_certificate_int64_bound():
    # every a - c*b of the modular Euclid must stay inside int64
    assert (_SQFREE_PRIME - 1) ** 2 + _SQFREE_PRIME < 2**63


def test_certificate_rejects_square_factors():
    rng = random.Random(11)
    for _ in range(200):
        p = random_poly(rng, rng.randint(1, 12), -99, 99)
        q = random_poly(rng, rng.randint(1, 6), -99, 99)
        assert res._certify_squarefree(poly_mul(p, poly_mul(q, q))) is False


def _gcd_degree_mod(a, b, p):
    """Degree of gcd(a, b) over F_p, or None when a leading coefficient
    vanishes modulo p: Euclid on int64 vectors, the divisor made monic at
    every step.  An independent single-polynomial certificate, kept as
    the oracle of the fraction-free remainder sequence."""
    am = np.array([c % p for c in a], dtype=np.int64)
    bm = np.array([c % p for c in b], dtype=np.int64)
    if not am.size or am[-1] == 0 or not bm.size or bm[-1] == 0:
        return None
    while True:
        while bm.size and bm[-1] == 0:
            bm = bm[:-1]
        if not bm.size:
            return am.size - 1
        if am.size < bm.size:
            am, bm = bm, am
            continue
        bm = bm * pow(int(bm[-1]), p - 2, p) % p
        db = bm.size - 1
        for k in range(am.size - bm.size, -1, -1):
            c = am[db + k]
            if c:
                am[k : k + db + 1] = (am[k : k + db + 1] - c * bm) % p
        am, bm = bm, am[:db]


def _oracle_certified(p) -> bool:
    p = trim(p)
    if len(p) <= 2:
        return len(p) == 2
    return _gcd_degree_mod(p, poly_derivative(p), _SQFREE_PRIME) == 0


def test_batched_certificate_agrees_with_yun_on_planted_pairs():
    # p q, p2 q^2 and p2 q of many degrees, many of them sharing a degree,
    # square-free or not, each certified alone
    rng = random.Random(17)
    batch, square_free = [], []
    for _ in range(60):
        q = random_poly(rng, rng.randint(1, 4), -99, 99)
        p = random_poly(rng, rng.randint(1, 8), -99, 99)
        p2 = random_poly(rng, len(p) - 1 + len(q) - 1, -99, 99)
        for f in (poly_mul(p, q), poly_mul(p2, poly_mul(q, q)), poly_mul(p2, q)):
            batch.append(f)
            square_free.append(poly_gcd(f, poly_derivative(f)) == [1])
    assert len({len(f) for f in batch}) < len(batch) // 4  # many share a degree
    verdicts = [res._certify_squarefree(f) for f in batch]
    assert sum(verdicts) >= 100
    assert not any(v and not sf for v, sf in zip(verdicts, square_free))
    assert verdicts == [_oracle_certified(f) for f in batch]
    assert [roots_structure(f) for f in batch] == [squarefree_decomposition(f) for f in batch]


def test_certificate_unusable_prime_falls_back_to_yun(monkeypatch):
    # the prime divides the leading coefficient: "maybe", then exact Yun,
    # for that polynomial only
    squarefree = [1, 3, 0, 5 * _SQFREE_PRIME]
    squared = poly_mul(poly_mul([-1, 1], [-1, 1]), [1, _SQFREE_PRIME])
    plain = [1, 3, 0, 5]
    polys = (squarefree, squared, plain)
    assert [res._certify_squarefree(f) for f in polys] == [False, False, True]
    yun = []
    monkeypatch.setattr(
        res, "squarefree_decomposition", lambda f: yun.append(f) or squarefree_decomposition(f)
    )
    assert [roots_structure(f) for f in polys] == [
        [(squarefree, 1)],
        [([1, _SQFREE_PRIME], 1), ([-1, 1], 2)],
        [(plain, 1)],
    ]
    assert yun == [squarefree, squared]


def test_certificate_is_a_proof_on_the_default_suite():
    # every eliminant the n=2 default suite solves at d <= 6, with the
    # verdicts of the single-polynomial oracle
    cfg = json.load(open(CONFIG_DIR / "default_suite_n2.json"))
    certified = 0
    for d in (4, 6):
        assert d in cfg["degrees"]
        for t in range(cfg["trials_per_degree"]):
            s = sample_bernoulli_system(2, d, cfg["master_seed"], t)
            pair = [eliminant_bivariate(*s.polys, axis) for axis in "xy"]
            verdicts = [res._certify_squarefree(r) for r in pair]
            assert verdicts == [_oracle_certified(r) for r in pair]
            for r, ok in zip(pair, verdicts):
                if ok:
                    certified += 1
                    assert poly_gcd(r, poly_derivative(r)) == [1]
    assert certified >= 700


# ---------------------------------------------------------------------------
# bivariate eliminant


def test_eliminant_circle_hyperbola():
    f1 = poly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -5})
    f2 = poly(2, {(1, 1): 1, (0, 0): -2})
    r = eliminant_bivariate(f1, f2, "x")
    assert r == [4, 0, -5, 0, 1]  # (y^2-1)(y^2-4)


def test_eliminant_linear():
    f1 = poly(2, {(1, 0): 1, (0, 1): -1})
    f2 = poly(2, {(1, 0): 1, (0, 1): 1})
    r = eliminant_bivariate(f1, f2, "x")
    assert len(r) == 2 and r[0] == 0 and r[1] != 0


def test_eliminant_shared_factor_is_zero():
    f1 = poly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -5})
    assert eliminant_bivariate(f1, f1, "x") == []


def test_eliminant_degree_and_roots_match_solver():
    s = sample_bernoulli_system(2, 4, 123, 1)
    rep = classify_exceptional(s)
    assert not rep.exceptional
    r = eliminant_bivariate(s.polys[0], s.polys[1], "x")
    assert len(r) - 1 == 16
    from polytorus.solver import roots_univariate, solve_bivariate

    cycle, _ = solve_bivariate(*s.polys)
    ys = sorted(
        (complex(p.coords[1]) for p in cycle.points for _ in range(p.mult)),
        key=lambda z: (z.real, z.imag),
    )
    roots = list(roots_univariate(r).roots)
    assert len(ys) == len(roots) == 16
    for a in ys:  # nearest root: conjugate pairs tie in the real part
        b = roots.pop(int(np.argmin([abs(a - b) for b in roots])))
        assert abs(a - b) <= 1e-7 * (1 + abs(a))


def test_eliminant_degenerate_leading_coefficient():
    # lc_x(f1) = y vanishes at the node y=0; formal Sylvester keeps it exact
    f1 = poly(2, {(1, 1): 1, (0, 0): 1})  # x*y + 1
    f2 = poly(2, {(1, 0): 1, (0, 1): 1})  # x + y
    r = eliminant_bivariate(f1, f2, "x")
    # Res_x = 1*(y) ... direct: x = -y, requirement -y^2+1 = 0 -> roots +-1
    roots = np.roots(r[::-1])
    assert sorted(np.round(roots.real, 8)) == [-1.0, 1.0]


def _sylvester_in_x_at(f1, f2, y):
    """det of the formal-degree Sylvester matrix of f1, f2 in x at the
    given y: the oracle value of Res_x there."""
    def coeffs(f):
        out = [0] * (max(a for (a, _), _ in f.terms) + 1)
        for (a, b), c in f.terms:
            out[a] += c * y**b
        return out

    c1, c2 = coeffs(f1), coeffs(f2)
    return det_bareiss(sylvester_matrix(c1, c2, len(c1) - 1, len(c2) - 1))


# non-full systems in which a leading row in x is a multiple of y, so it
# vanishes at the node y = 0, which every interpolation range contains
SHORT_NODE_SYSTEMS = {
    "f1-short": ({(2, 1): 1, (1, 0): 1, (0, 0): 1}, {(2, 0): 1, (1, 1): 1, (0, 0): -1}),
    "f2-short": ({(2, 0): 1, (1, 1): 1, (0, 0): -1}, {(2, 1): 1, (1, 0): 1, (0, 0): 1}),
    "both-short": ({(2, 1): 1, (0, 0): 1}, {(3, 1): -1, (1, 0): 1, (0, 1): 1}),
    "f1-zero-row": ({(1, 1): 1, (0, 1): 1}, {(2, 0): 1, (0, 1): 1, (0, 0): 1}),
    "f2-constant-in-x": ({(2, 1): 1, (1, 0): 1, (0, 0): 1}, {(0, 2): 1, (0, 0): -2}),
    "f2-vanishing-constant": ({(2, 1): 1, (1, 0): 1, (0, 0): 1}, {(0, 1): 1}),
    "f1-constant-in-x": ({(0, 1): 1, (0, 0): 3}, {(3, 1): 1, (1, 0): 2, (0, 0): 1}),
}


@pytest.mark.parametrize("name", sorted(SHORT_NODE_SYSTEMS))
def test_eliminant_at_short_nodes_matches_sylvester_oracle(name, monkeypatch):
    import polytorus.resultants as res

    short = []
    def spy(c1, c2, m1, m2):
        short.append(c1[m1] == 0 or c2[m2] == 0)
        return _formal_resultant(c1, c2, m1, m2)

    monkeypatch.setattr(res, "_formal_resultant", spy)
    f1, f2 = (poly(2, c) for c in SHORT_NODE_SYSTEMS[name])
    r = eliminant_bivariate(f1, f2, "x")
    assert any(short), "no node has a vanishing leading coefficient"
    assert r  # isolated zeros: the eliminant is not identically zero
    for y in range(-8, 9):  # more points than deg r + 1: pins every coefficient
        value = sum(c * y**i for i, c in enumerate(r))
        assert value == _sylvester_in_x_at(f1, f2, y)


def _node_problem(f1, f2, axis):
    """(rows1, rows2, m1, m2, lo, count): the coefficient rows in the
    eliminated variable and the interpolation nodes the package uses."""
    var = "xy".index(axis)
    rows = []
    for f in (f1, f2):
        m = max(e[var] for e, _ in f.terms)
        w = max(e[1 - var] for e, _ in f.terms)
        r = [[0] * (w + 1) for _ in range(m + 1)]
        for e, c in f.terms:
            r[e[var]][e[1 - var]] = c
        rows.append(r)
    m1, m2 = len(rows[0]) - 1, len(rows[1]) - 1
    e1, e2 = (max(len(trim(r)) - 1 for r in rs) for rs in rows)
    bound = min(f1.degree * f2.degree, m2 * max(e1, 0) + m1 * max(e2, 0))
    return rows[0], rows[1], m1, m2, -(bound // 2), bound + 1


def _at(rows, y):
    return [sum(c * y**i for i, c in enumerate(r)) for r in rows]


def _big_int_eliminant(f1, f2, axis):
    """The eliminant oracle: the exact `_formal_resultant` at every node
    and big-int interpolation."""
    rows1, rows2, m1, m2, lo, count = _node_problem(f1, f2, axis)
    values = [_formal_resultant(_at(rows1, y), _at(rows2, y), m1, m2)
              for y in range(lo, lo + count)]
    return _interpolate_integers(lo, values)


@pytest.mark.parametrize("d", [4, 5, 6, 7, 8, 9, 10, 11, 12, 16])
def test_eliminant_matches_big_int_oracle(d):
    # default-suite systems (its master seed) on both axes; the sequence
    # over Z[y] is abnormal for some of them, which the oracle does not see
    cfg = json.load(open(CONFIG_DIR / "default_suite_n2.json"))
    for t in range(1 if d == 16 else 3):
        s = sample_bernoulli_system(2, d, cfg["master_seed"], t)
        for axis in "xy":
            assert eliminant_bivariate(*s.polys, axis) == _big_int_eliminant(
                *s.polys, axis
            )


def _random_system(rng, d, bits):
    """Two full bivariate polynomials of degree d with random coefficients
    of exactly `bits` bits and random signs."""
    def one():
        top = 1 << (bits - 1)
        return poly(2, {(i, j): rng.choice((-1, 1)) * (top | rng.getrandbits(bits - 1))
                        for i in range(d + 1) for j in range(d + 1 - i)})

    return one(), one()


@pytest.mark.parametrize("bits", [40, 100, 200])
@pytest.mark.parametrize("d", [3, 5])
def test_eliminant_of_large_coefficients_matches_big_int_oracle(d, bits):
    # coefficients far past int64: they are reduced in Python first, and
    # the prime list grows as far as the Hadamard bound needs
    rng = random.Random(1000 * d + bits)
    for _ in range(2):
        f1, f2 = _random_system(rng, d, bits)
        for axis in "xy":
            r = eliminant_bivariate(f1, f2, axis)
            assert r == _big_int_eliminant(f1, f2, axis)
            assert max(abs(c) for c in r).bit_length() > 2 * d * bits


@pytest.mark.parametrize("d1, d2", [(1, 2), (1, 3), (3, 1), (2, 5), (3, 5), (5, 2)])
def test_eliminant_of_unequal_degrees_matches_big_int_oracle(d1, d2):
    # odd m1 m2 with m1 < m2: the sequence starts from f2, with a sign
    rng = random.Random(10 * d1 + d2)
    for _ in range(3):
        f1, f2 = (poly(2, {(i, j): rng.randint(-3, 3) or 1
                           for i in range(d + 1) for j in range(d + 1 - i)})
                  for d in (d1, d2))
        for axis in "xy":
            assert eliminant_bivariate(f1, f2, axis) == _big_int_eliminant(f1, f2, axis)


def test_primes_are_the_largest_below_2_31_in_order():
    import sympy

    primes = _primes(120)
    expected = [sympy.prevprime(1 << 31)]
    while len(expected) < 120:
        expected.append(sympy.prevprime(expected[-1]))
    assert primes == expected
    assert primes[0] == _SQFREE_PRIME == (1 << 31) - 1
    assert all(sympy.isprime(q) for q in _primes(len(res._PRIMES)))
    # strong pseudoprimes to base 2 (the first five, and one to the bases
    # 2, 3, 5, 7 below 4,759,123,141), Carmichael numbers, small numbers
    for n in (2047, 3277, 4033, 4681, 8321, 3215031751, 561, 1105, 41041,
              *range(100), *range(2**31 - 3000, 2**31 + 3000)):
        assert res._is_prime(n) == sympy.isprime(n), n


def test_crt_primes_are_the_fewest_over_the_bound():
    for bound_sq in (1, 2**61, 2**62, 2**200, 3**900):
        primes = _crt_primes(bound_sq)
        assert primes == _primes(len(primes))
        modulus = math.prod(primes)
        assert modulus**2 > bound_sq >= (modulus // primes[-1]) ** 2


def _euclid_degrees(c1, c2, m1, m2):
    """Degrees of the remainders of Euclid over Q on c1, c2 (the higher
    formal degree first), or None where a formal degree is short."""
    if len(trim(c1)) - 1 != m1 or len(trim(c2)) - 1 != m2:
        return None
    a, b = [Fraction(c) for c in c1], [Fraction(c) for c in c2]
    if m1 < m2:
        a, b = b, a
    degrees = []
    while len(b) > 1:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            for j, c in enumerate(b):
                a[len(a) - len(b) + j] -= q * c
            a.pop()
        a, b = b, trim(a)
        degrees.append(len(b) - 1)
    return degrees


# f2 = x y + 2 is short at y = 0 and f1 = (x + 2)(y + 1) vanishes at
# y = -1: pairs flagged there must not steer the common degree
FALLBACK_SYSTEMS = {
    **SHORT_NODE_SYSTEMS,
    "linear-short": ({(0, 0): 2, (0, 1): 2, (1, 1): 1, (1, 0): 1},
                     {(0, 0): 2, (1, 1): 1}),
}


@pytest.mark.parametrize("scale", [1, 2**100 + 1])
@pytest.mark.parametrize("name", sorted(FALLBACK_SYSTEMS))
def test_only_nodes_off_the_common_degrees_take_exact_resultants(
    name, scale, monkeypatch
):
    # the exact fallback runs once per node (not per prime; 100-bit
    # coefficients need several primes), at exactly the nodes whose
    # sequence over Q is short or leaves the lexicographically highest
    # degree sequence, which the int64 sequence follows
    f1, f2 = (poly(2, {e: scale * c for e, c in sys.items()})
              for sys in FALLBACK_SYSTEMS[name])
    rows1, rows2, m1, m2, lo, count = _node_problem(f1, f2, "x")
    at_node = {(tuple(_at(rows1, y)), tuple(_at(rows2, y))): y
               for y in range(lo, lo + count + 1)}
    seqs = {y: _euclid_degrees(*map(list, key), m1, m2) for key, y in at_node.items()
            if y < lo + count}
    generic = max(q for q in seqs.values() if q is not None)
    calls = []

    def spy(c1, c2, m1, m2):
        calls.append(at_node[tuple(c1), tuple(c2)])
        return _formal_resultant(c1, c2, m1, m2)

    monkeypatch.setattr(res, "_formal_resultant", spy)
    r = eliminant_bivariate(f1, f2, "x")
    monkeypatch.undo()
    assert r == _big_int_eliminant(f1, f2, "x")
    assert calls[-1] == lo + count  # the check node
    assert sorted(calls[:-1]) == [y for y, q in sorted(seqs.items()) if q != generic]


def test_corrupted_residue_fails_the_check_node(monkeypatch):
    s = sample_bernoulli_system(2, 5, 1, 0)
    original = res._resultants_mod

    def corrupt(*args):
        values = original(*args)
        values[-1, 3] = (values[-1, 3] + 1) % args[-1][-1]
        return values

    monkeypatch.setattr(res, "_resultants_mod", corrupt)
    for axis in "xy":
        with pytest.raises(ComputationError, match="check node"):
            eliminant_bivariate(*s.polys, axis)


def test_one_prime_short_of_the_bound_fails_the_check_node(monkeypatch):
    # Res_x(C x + C y, C x - C) = -C^2 (1 + y) with C^2 just above the
    # product of k primes; 4 s1 s2 = 16 C^4 asks for k + 1, and k are too few
    k = 3
    c = math.isqrt(math.prod(_primes(k))) + 1
    f1 = poly(2, {(1, 0): c, (0, 1): c})
    f2 = poly(2, {(1, 0): c, (0, 0): -c})
    assert eliminant_bivariate(f1, f2, "x") == [-c * c, -c * c]
    assert len(res._crt_primes(16 * c**4)) == k + 1
    original = res._crt_primes
    monkeypatch.setattr(res, "_crt_primes", lambda bound_sq: original(bound_sq)[:-1])
    with pytest.raises(ComputationError, match="check node"):
        eliminant_bivariate(f1, f2, "x")


def test_interpolation_round_trip():
    rng = random.Random(7)
    for deg in (0, 1, 2, 17, 64, 200):
        for lo in (-(deg // 2), 0, -deg - 3, 5):
            coeffs = [rng.randint(-(2**120), 2**120) for _ in range(deg + 1)]
            values = [sum(c * x**i for i, c in enumerate(coeffs))
                      for x in range(lo, lo + deg + 1)]
            assert _interpolate_integers(lo, values) == trim(coeffs)


def test_interpolation_rejects_non_integer_coefficients():
    # y(y-1)/2 is integer-valued at every integer, with coefficients 1/2
    with pytest.raises(ComputationError):
        _interpolate_integers(0, [0, 0, 1])


def test_interpolation_of_at_most_one_value():
    assert _interpolate_integers(-3, [5]) == [5]
    assert _interpolate_integers(4, [0]) == []
    with pytest.raises(IndexError):  # no node, no polynomial
        _interpolate_integers(0, [])


def _interpolate_mod(values, lo: int, primes) -> np.ndarray:
    """(K, P): the Newton-form interpolation that the inverse Vandermonde
    matrix replaced.  K - 1 rounds of forward differences leave
    Delta^k p(lo) in row k; times 1/k! these are the Newton coefficients
    on the nodes lo + k, and Horner's rule acc <- acc * (y - lo - k) + c_k,
    run from the top row down, expands the Newton form.  Both loops
    reduce modulo p only when the next round could overflow int64."""
    p = np.array(primes, dtype=np.int64)
    top = max(primes)
    c = values.T.copy()
    count = len(c)
    size = top
    for k in range(1, count):
        if 2 * size >= res._INT64_LIMIT:
            c[k - 1 :] %= p
            size = top
        c[k:] = c[k:] - c[k - 1 : -1]
        size *= 2
    c = c % p * res._inverse_factorials(tuple(primes), count) % p
    size = top
    for k in range(count - 2, -1, -1):
        grow = 1 + abs(lo + k)
        if size * grow >= res._INT64_LIMIT:
            c[k:] %= p
            size = top
        c[k:-1] -= (lo + k) * c[k + 1 :]
        size *= grow
    return c % p


@pytest.mark.parametrize("count", [1, 2, 17, 37, 101, 145, 257])
def test_inverse_vandermonde_equals_newton_form(count):
    # random residues, and the largest ones, which make the int64 product
    # sums largest
    rng = np.random.default_rng(count)
    for k in range(1, 6):
        primes = _primes(k)
        for lo in (-(count // 2), 3 - count):
            for values in (
                np.array([rng.integers(0, q, count) for q in primes], dtype=np.int64),
                np.array([[q - 1] * count for q in primes], dtype=np.int64),
            ):
                got = res._interpolate(values, lo, primes)
                assert np.array_equal(got, _interpolate_mod(values, lo, primes))
            high, low = res._inverse_vandermonde(lo, count, tuple(primes))
            assert high.max() < 2**15 and low.max() < 2**16
            assert not (high.flags.writeable or low.flags.writeable)


def test_inverse_vandermonde_rejects_int64_overflow():
    # count products below 2^47 plus the shifted high part below 2^47
    # reach 2^63 at 2^16 - 1 nodes
    with pytest.raises(ComputationError, match="overflow int64"):
        res._inverse_vandermonde(0, 2**16 - 1, tuple(_primes(1)))


def test_inverse_vandermonde_is_built_once_per_nodes_and_primes():
    # full supports of one degree share their nodes and primes: the first
    # eliminant builds the matrix, every later one of that degree reuses it
    res._inverse_vandermonde.cache_clear()
    for trial in range(3):
        for axis in "xy":
            eliminant_bivariate(*sample_bernoulli_system(2, 6, 1, trial).polys, axis)
    info = res._inverse_vandermonde.cache_info()
    assert (info.misses, info.hits) == (1, 5)


# ---------------------------------------------------------------------------
# directional resultants and the classifier


def _res_v(system):
    return {e.normal: e.value for e in classify_exceptional(system).entries}


def test_directional_univariate():
    s = sample_bernoulli_system(1, 6, 5, 0)
    f = s.polys[0]
    assert _res_v(s) == {(1,): f.coeff((0,)), (-1,): f.coeff((6,))}
    assert f.coeff((0,)) in (-1, 1)


def test_directional_equal_directed_pair_vanishes():
    f1 = poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    f2 = poly(2, {(0, 0): -1, (1, 0): 1, (0, 1): 1})
    assert _res_v((f1, f2))[(-1, -1)] == 0


def test_directional_non_facet_is_one():
    # eta's product runs over the facet normals only: a direction that is
    # not one (here (1, 1) and (2, -1)) has Res_v = 1 and adds nothing
    s = sample_bernoulli_system(2, 3, 5, 0)
    normals = system_facet_normals(s.polys)
    assert (1, 1) not in normals and (2, -1) not in normals
    res_v = classify_exceptional(s).to_dict()["res_v"]
    assert set(res_v) == {",".join(map(str, v)) for v in normals}


def test_classify_rejects_high_dim():
    s3 = sample_bernoulli_system(3, 2, 5, 0)
    with pytest.raises(UnsupportedDimensionError):
        classify_exceptional(s3)


@pytest.mark.parametrize(
    "f1, f2, common",
    [
        ({(1, 0): 1}, {(1, 1): 1}, True),  # both restrictions empty
        ({(1, 0): 1}, {(0, 0): 1, (0, 1): 1}, True),  # empty, nonconstant
        ({(1, 0): 1}, {(0, 0): 1, (1, 0): 1}, False),  # empty, constant
        ({(0, 0): 2, (1, 0): 1}, {(0, 0): 1, (0, 1): 1}, False),  # constant
        ({(0, 0): 1, (0, 1): 1}, {(0, 0): 2, (0, 1): 3, (0, 2): 1}, True),
        ({(0, 0): 1, (0, 1): 1}, {(0, 0): 2, (0, 1): 1, (1, 1): 1}, False),
    ],
)
def test_common_root_on_axis(f1, f2, common):
    swap = lambda f: {(e[1], e[0]): c for e, c in f.items()}
    for a, b in ((f1, f2), (f2, f1)):
        polys = (poly(2, a), poly(2, b))
        assert res._common_root_on_axis(polys, 0, resultant_univariate) == common
        polys = (poly(2, swap(a)), poly(2, swap(b)))
        assert res._common_root_on_axis(polys, 1, resultant_univariate) == common


def test_classify_computes_each_resultant_once(monkeypatch):
    # on a full support the facets (1, 0) and (0, 1) restrict the system
    # as x = 0 and y = 0 do: five resultants asked for, three distinct
    calls = []
    original = res.resultant_univariate
    monkeypatch.setattr(
        res, "resultant_univariate", lambda f, g: calls.append((f, g)) or original(f, g)
    )
    system = sample_bernoulli_system(2, 4, 1, 0)
    report = classify_exceptional(system)
    assert len(calls) == len(set(calls)) == 3
    monkeypatch.undo()
    assert classify_exceptional(system) == report


def test_classify_univariate_never_exceptional():
    for t in range(20):
        s = sample_bernoulli_system(1, 9, 77, t)
        rep = classify_exceptional(s)
        assert not rep.exceptional
        assert all(e.value in (-1, 1) for e in rep.entries)


def test_classify_parallel_lines():
    f1 = poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    f2 = poly(2, {(0, 0): -1, (1, 0): 1, (0, 1): 1})
    rep = classify_exceptional((f1, f2))
    assert rep.exceptional
    assert any(e.is_zero for e in rep.entries)


def test_classify_zero_coordinate_solution():
    f1 = poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    f2 = poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1})
    rep = classify_exceptional((f1, f2))
    assert rep.exceptional
    assert any(rep.zero_coordinate_flags)


def test_classify_symmetry():
    # invariance under swapping the polynomials and the variables
    rng = random.Random(31)
    for _ in range(30):
        s = sample_bernoulli_system(2, 3, rng.randint(0, 10**6), 0)
        f1, f2 = s.polys
        rep = classify_exceptional((f1, f2))
        assert classify_exceptional((f2, f1)).exceptional == rep.exceptional
        swap = lambda f: IntPolynomial.from_dict(
            2, {(e[1], e[0]): c for e, c in f.terms}
        )
        rep_sw = classify_exceptional((swap(f1), swap(f2)))
        assert rep_sw.exceptional == rep.exceptional


def test_classify_degenerate_sum():
    f1 = poly(2, {(0, 0): 1, (1, 0): 1})
    f2 = poly(2, {(0, 0): 1, (2, 0): 1})
    with pytest.raises(DegenerateSystemError):
        classify_exceptional((f1, f2))


def test_report_serialization():
    s = sample_bernoulli_system(2, 2, 3, 1)
    rep = classify_exceptional(s)
    d = rep.to_dict()
    assert set(d) == {"res_v", "zero_coord", "exceptional"}
    assert set(d["res_v"]) == {"-1,-1", "0,1", "1,0"}
    assert all(isinstance(v, str) for v in d["res_v"].values())
