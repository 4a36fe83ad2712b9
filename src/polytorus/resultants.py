"""Exact resultants over arbitrary-precision integers.

Univariate polynomials are plain low-to-high coefficient lists of Python
ints (no trailing zeros).  The resultant of two such polynomials is the
determinant of the classical Sylvester matrix, rows of the first
polynomial on top, computed with a subresultant polynomial remainder
sequence (no fractions, no coefficient blowup); tests pin it against a
fraction-free Bareiss determinant of the matrix itself.

Bivariate eliminants Res_x(f1, f2)(y) are computed modulo primes just
below 2^31 and lifted by the Chinese remainder theorem (Collins' modular
resultant).  The coefficient rows, reduced modulo each prime, are
evaluated at consecutive integer nodes, and one Euclidean remainder
sequence on int64 arrays takes the resultant at every (prime, node) pair
at once.  A pair whose leading coefficient vanishes at the sequence's
common degree (a formal degree short at that node) takes the exact
formal-degree resultant of its node instead.  The inverse Vandermonde
matrix of the nodes modulo each prime, built once per (nodes, primes) and
cached, times the node values, and the symmetric CRT residue give the
coefficients.
The primes are the fewest whose product M satisfies M^2 > 4 s1^m2 s2^m1,
the Hadamard bound of the Sylvester matrix on |y| = 1, which by Cauchy
bounds every coefficient.  The exactness self-check is a check node one
past the interpolation range, where the eliminant must equal the exact
big-int resultant.

Square-free structure, the solver's fallback where its inclusion disks
touch, is certified one polynomial at a time by the same remainder
sequence modulo 2^31 - 1; a "maybe" falls back to exact Yun
decomposition.

On top of these sits the exceptional-set classifier.  At each facet
normal of the Minkowski sum of the supports it takes the directional
resultant (faces of the supports translated into the orthogonal lattice
line); a system is exceptional when one of these vanishes or when it has
a common zero with some vanishing coordinate.  A resultant asked for
twice within one system is computed once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import facet_normals, minkowski_sum
from .polynomials import (
    BernoulliSystem,
    IntPolynomial,
    directed_polynomial,
    restrict_to_zero,
    univariate_coeffs,
)


class ResultantError(ValueError):
    """Invalid resultant input (both polynomials zero, both constant...)."""


class UnsupportedDimensionError(NotImplementedError):
    """Exact directional machinery is implemented for n in {1, 2} only."""


class DegenerateSystemError(ValueError):
    """Supports whose Minkowski sum is lower-dimensional; no facet data."""


class ComputationError(ArithmeticError):
    """An exactness self-check failed (should never happen)."""


def trim(coeffs) -> list:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def degree(coeffs) -> int:
    return len(trim(coeffs)) - 1


# ---------------------------------------------------------------------------
# subresultant PRS resultant


def _pseudo_rem(a, b):
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a  mod  b, over Z."""
    da, db = len(a) - 1, len(b) - 1
    lc = b[-1]
    e = da - db + 1
    r = list(a)
    while r and len(r) - 1 >= db:
        c = r[-1]
        r = [lc * x for x in r]
        shift = len(r) - 1 - db
        for j in range(db + 1):
            r[shift + j] -= c * b[j]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
        e -= 1
    if e > 0:
        scale = lc**e
        r = [scale * x for x in r]
    return r


def _exact_div(a, d):
    q, r = divmod(a, d)
    if r:
        raise ComputationError("subresultant division was not exact")
    return q


def _subresultant_steps(a, b):
    """The subresultant remainder sequence of a and b, deg a >= deg b >= 1.

    One step pseudo-divides, then divides the remainder exactly by
    g * h^delta, which keeps the coefficients small without fractions.
    Yields (a, b, h) after each step: a is the divisor just used, b the
    reduced remainder and h the updated scale.  Stops after the step
    whose remainder is zero or constant.
    """
    g = 1
    h = 1
    while True:
        d = (len(a) - 1) - (len(b) - 1)
        r = _pseudo_rem(a, b)
        a = b
        denom = g * h**d
        b = [_exact_div(x, denom) for x in r]
        g = a[-1]
        if d == 1:
            h = g
        elif d > 1:
            h = _exact_div(g**d, h ** (d - 1))
        yield a, b, h
        if len(b) <= 1:
            return


def _resultant_prs(a, b) -> int:
    """Resultant of two nonconstant integer polynomials, Sylvester sign."""
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) & 1 and (len(b) - 1) & 1:
            sign = -sign
    da = len(a) - 1
    for a, b, h in _subresultant_steps(a, b):
        db = len(a) - 1  # the step divided degree da by degree db
        if da & 1 and db & 1:
            sign = -sign
        da = db
    if not b:
        return 0  # nontrivial gcd, resultant vanishes
    if da == 0:
        return sign * b[0]
    return sign * _exact_div(b[0] ** da, h ** (da - 1))


def resultant_univariate(f, g) -> int:
    """Exact resultant; sign matches the Sylvester determinant, f on top.

    Constants are allowed: Res(c, g) = c^deg(g).  A zero polynomial
    against a nonconstant one gives 0 (a common root always exists);
    against a nonzero constant it gives 1 (no root at all).
    """
    tf, tg = trim(f), trim(g)
    if not tf and not tg:
        raise ResultantError("resultant of two zero polynomials")
    if not tf:
        return 0 if len(tg) > 1 else 1
    if not tg:
        return 0 if len(tf) > 1 else 1
    if len(tf) == 1:
        return tf[0] ** (len(tg) - 1)
    if len(tg) == 1:
        return tg[0] ** (len(tf) - 1)
    return _resultant_prs(tf, tg)


# ---------------------------------------------------------------------------
# integer polynomial utilities: gcd and square-free structure


def poly_derivative(p):
    return trim([i * c for i, c in enumerate(p)][1:])


def poly_content(p) -> int:
    from math import gcd as _gcd

    g = 0
    for c in p:
        g = _gcd(g, abs(c))
    return g or 1


def poly_primitive(p):
    """Content-free copy with positive leading coefficient."""
    p = trim(p)
    if not p:
        return []
    g = poly_content(p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def poly_divexact(a, b):
    """Quotient a / b over Z; raises if the division is not exact."""
    a = trim(a)
    b = trim(b)
    if not b:
        raise ComputationError("division by the zero polynomial")
    if not a:
        return []
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        raise ComputationError("inexact polynomial division")
    rem = list(a)
    q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c, r = divmod(rem[db + k], b[-1])
        if r:
            raise ComputationError("inexact polynomial division")
        q[k] = c
        if c:
            for j in range(db + 1):
                rem[k + j] -= c * b[j]
    if any(rem):
        raise ComputationError("inexact polynomial division")
    return trim(q)


def poly_gcd(a, b):
    """Primitive gcd over Z via the subresultant remainder sequence."""
    a = poly_primitive(a)
    b = poly_primitive(b)
    if not a:
        return b
    if not b:
        return a
    if len(a) - 1 < len(b) - 1:
        a, b = b, a
    if len(b) == 1:
        return [1]
    for a, b, _ in _subresultant_steps(a, b):
        pass
    return [1] if b else poly_primitive(a)


_PRIMES = []  # the primes below 2^31, largest first, extended on demand


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 7 and 61: exact below 4,759,123,141."""
    if n < 2:
        return False
    for a in (2, 7, 61):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes(count: int) -> list:
    """The `count` largest primes below 2^31, largest first."""
    n = _PRIMES[-1] if _PRIMES else 1 << 31
    while len(_PRIMES) < count:
        n -= 1
        if _is_prime(n):
            _PRIMES.append(n)
    return _PRIMES[:count]


# the certificate's prime is the largest, 2^31 - 1; below any of them a
# product of two residues, or the difference of two products, fits int64
_SQFREE_PRIME = _primes(1)[0]


def _euclid_mod(a, b, pv):
    """Fraction-free Euclidean remainder sequence of the columns of a and b.

    a and b are (deg + 1, columns) int64 arrays of residues modulo pv (a
    scalar or one modulus per column), of formal degrees deg a >= deg b.
    Each step is fraction-free: deg a - deg b + 1 updates
    a <- lc(b) a - c x^k b give prem = lc(b)^(deg a - deg b + 1) a mod b.
    Its degree is the highest one nonzero in any column.  A column whose
    own coefficient there vanishes, or whose a or b leads with zero (a
    leading coefficient short, or the modulus dividing it), leaves the
    common degree sequence: it is zeroed and reported as lost, for the
    caller to resolve.

    Returns (steps, last, lost): `steps` holds (lc(b), deg a, deg b,
    deg prem) of every step with a nonzero remainder; `last` is the final
    constant remainder, or None when a remainder vanished in every column
    (a common factor of degree deg b in each column kept); `lost` is a
    boolean mask of the columns.
    """
    da, db = len(a) - 1, len(b) - 1
    lost = (a[da] == 0) | (b[db] == 0)
    b = np.where(lost, 0, b)
    steps = []
    while db > 0:
        lcb = b[db]
        r = a
        for k in range(da - db, -1, -1):
            t = r[: db + k] * lcb
            t[k:] -= r[db + k] * b[:db]
            r = t % pv
        dr = db - 1
        while dr >= 0 and not r[dr].any():
            dr -= 1
        if dr < 0:
            return steps, None, lost
        steps.append((lcb, da, db, dr))
        r = r[: dr + 1]
        if not r[dr].all():
            drop = r[dr] == 0
            lost |= drop
            r = np.where(drop, 0, r)
        a, b, da, db = b, r, db, dr
    return steps, b[0], lost


def _certify_squarefree(p) -> bool:
    """True only with proof that the integer polynomial p is square-free:
    gcd(p, p') is constant modulo 2^31 - 1, which keeps the leading
    coefficient.  False means "maybe not".

    p is the one column of a `_euclid_mod` run; a column that leaves the
    degree sequence (the prime divides a leading coefficient) stays
    uncertified.
    """
    if len(p) <= 2:
        return len(p) == 2
    q = _SQFREE_PRIME
    a = np.array([[c % q] for c in p], dtype=np.int64)
    b = (a[1:] * np.arange(1, len(p))[:, None]) % q
    _, last, lost = _euclid_mod(a, b, q)
    return last is not None and not lost[0]


def squarefree_decomposition(p):
    """Yun decomposition over Z: [(primitive factor, multiplicity), ...]
    with p = content * prod factor^multiplicity, factors pairwise coprime
    and square-free."""
    a = poly_primitive(p)
    if len(a) - 1 < 1:
        return []
    da = poly_derivative(a)
    g = poly_gcd(a, da)
    if len(g) == 1:
        return [(a, 1)]
    out = []
    c = poly_divexact(a, g)
    d = _poly_sub(poly_divexact(da, g), poly_derivative(c))
    i = 1
    while True:
        pk = poly_gcd(c, d)
        if len(pk) > 1:
            out.append((pk, i))
        c = poly_divexact(c, pk)
        if len(c) == 1:
            break
        d = _poly_sub(poly_divexact(d, pk), poly_derivative(c))
        i += 1
    total = sum(k * (len(f) - 1) for f, k in out)
    if total != len(a) - 1:
        raise ComputationError("square-free decomposition lost degree")
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return trim(out)


def roots_structure(p):
    """[(square-free primitive polynomial, multiplicity), ...] of an
    integer polynomial.  The modular certificate (`_certify_squarefree`)
    proves most polynomials square-free; only one it leaves uncertified
    takes the exact Yun decomposition, which can take seconds at degree
    ~150."""
    p = poly_primitive(p)
    return [(p, 1)] if _certify_squarefree(p) else squarefree_decomposition(p)


# ---------------------------------------------------------------------------
# bivariate eliminant: node resultants modulo word-size primes, then CRT

_INT64_LIMIT = 1 << 63  # reductions mod p are deferred while values stay below


def _coeff_rows(f: IntPolynomial, var: int):
    """Coefficients of f as a polynomial in x_var over Z[other variable].

    Returns a list indexed by the x_var exponent; each entry is a dense
    low-to-high coefficient list in the other variable.
    """
    other = 1 - var
    m = max(exp[var] for exp, _ in f.terms)
    e = max(exp[other] for exp, _ in f.terms)
    rows = [[0] * (e + 1) for _ in range(m + 1)]
    for exp, c in f.terms:
        rows[exp[var]][exp[other]] = c
    return [trim(row) for row in rows]


def _eval_int(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _formal_resultant(c1, c2, m1: int, m2: int) -> int:
    """Sylvester determinant of c1, c2 at formal degrees m1, m2, not both 0.

    Where a leading coefficient vanishes, the formal-degree identity
    scales the resultant of the actual degrees: deg c1 = k < m1 gives
    (-1)^((m1-k) m2) lc(c2)^(m1-k) Res(c1, c2), deg c2 = k < m2 gives
    lc(c1)^(m2-k) Res(c1, c2), and both short give 0.
    """
    if m2 == 0:
        return c2[0] ** m1  # the matrix is c2[0] times the identity
    if m1 == 0:
        return c1[0] ** m2
    t1, t2 = trim(c1), trim(c2)
    k1, k2 = len(t1) - 1, len(t2) - 1
    if k1 < 0 or k2 < 0 or (k1 < m1 and k2 < m2):
        return 0  # a zero row, or a zero first column
    if k1 < m1:
        sign = -1 if (m1 - k1) * m2 & 1 else 1
        return sign * t2[-1] ** (m1 - k1) * resultant_univariate(t1, t2)
    return t1[-1] ** (m2 - k2) * resultant_univariate(t1, t2)


def _node_resultant(rows1, rows2, node: int) -> int:
    """The exact `_formal_resultant` of two coefficient rows (as from
    `_coeff_rows`) at one integer node of the other variable."""
    return _formal_resultant(
        [_eval_int(row, node) for row in rows1],
        [_eval_int(row, node) for row in rows2],
        len(rows1) - 1,
        len(rows2) - 1,
    )


def _crt_primes(bound_sq: int) -> list:
    """The fewest of `_primes` whose product M satisfies M^2 > bound_sq."""
    primes, modulus = [], 1
    while modulus * modulus <= bound_sq:
        primes = _primes(len(primes) + 1)
        modulus *= primes[-1]
    return primes


def _pow_mod(x, e: int, p):
    """x^e mod p elementwise, for one exponent e >= 0."""
    out = np.ones_like(x)
    while e:
        if e & 1:
            out = out * x % p
        e >>= 1
        if e:
            x = x * x % p
    return out


def _inverse_mod(x, primes):
    """1/x modulo each prime, for a (P, K) array with no zero entry.

    Montgomery's batch inversion: prefix and suffix products along each
    row by doubling scans, then one Fermat inverse x^(p-2) of the row's
    product: 1/x_k = (prod_{j<k} x_j)(prod_{j>k} x_j) / prod_j x_j.
    """
    p = np.array(primes, dtype=np.int64)[:, None]
    left, right = x.copy(), x.copy()
    step = 1
    while step < x.shape[1]:
        left[:, step:] = left[:, step:] * left[:, :-step] % p
        right[:, :-step] = right[:, :-step] * right[:, step:] % p
        step *= 2
    total = [[pow(int(t), q - 2, q)] for t, q in zip(left[:, -1], primes)]
    out = np.array(total, dtype=np.int64).repeat(x.shape[1], axis=1)
    out[:, 1:] = out[:, 1:] * left[:, :-1] % p
    out[:, :-1] = out[:, :-1] * right[:, 1:] % p
    return out


def _resultants_mod(rows1, rows2, lo: int, count: int, primes) -> np.ndarray:
    """(P, count) int64: the formal-degree Sylvester resultant of the two
    coefficient rows at the nodes lo, ..., lo + count - 1, modulo each
    of the P primes.

    The rows are reduced modulo each prime in Python and evaluated at
    every node by Horner's rule on int64.  Then one fraction-free
    remainder sequence (`_euclid_mod`) runs on all (prime, node) pairs at
    once, a polynomial being a (degree + 1, pairs) array, and the powers
    of lc(b) that relate each pseudo-remainder to the resultant go into a
    numerator and a denominator, inverted once at the end.  A pair the
    sequence loses (a leading coefficient short at its node, or a prime
    dividing it) takes the exact `_formal_resultant` of its node, once
    per node.
    """
    m1, m2 = len(rows1) - 1, len(rows2) - 1
    rows = rows1 + rows2
    width = max(len(row) for row in rows)
    p = np.array(primes, dtype=np.int64)
    top = max(primes)
    flat = [c for row in rows for c in row + [0] * (width - len(row))]
    coef = np.array([[c % q for c in flat] for q in primes], dtype=np.int64)
    coef = coef.reshape(len(primes), len(rows), width).T  # (width, rows, primes)
    nodes = lo + np.arange(count, dtype=np.int64)
    reach = max(-lo, lo + count - 1)
    ev = np.zeros((len(rows), len(primes), count), dtype=np.int64)
    size = 0  # bounds |ev|; reduce only when the next step could overflow
    for j in range(width - 1, -1, -1):
        if size * reach + top >= _INT64_LIMIT:
            ev %= p[:, None]
            size = top
        ev = ev * nodes + coef[j, :, :, None]
        size = size * reach + top
    ev = (ev % p[:, None]).reshape(len(rows), -1)  # pair i * count + k
    pv = np.repeat(p, count)
    # Res(a, b) = (-1)^(deg a deg b) Res(b, a): the higher degree first
    a, b, negate = ev[: m1 + 1], ev[m1 + 1 :], False
    if m1 < m2:
        a, b, negate = b, a, bool(m1 * m2 & 1)
    steps, last, short = _euclid_mod(a, b, pv)
    num = np.ones_like(pv)
    den = np.ones_like(pv)
    for lcb, da, db, dr in steps:
        # Res(a, b) = (-1)^(da db) lc(b)^(da-dr-(da-db+1) db) Res(b, prem)
        negate ^= bool(da * db & 1)
        e = da - dr - (da - db + 1) * db
        if e >= 0:
            num = num * _pow_mod(lcb, e, pv) % pv
        else:
            den = den * _pow_mod(lcb, -e, pv) % pv
    if last is None:
        num[:] = 0  # the remainder vanishes at every node: a common factor
    else:  # Res(a, c) = c^deg(a), a the last divisor
        num = num * _pow_mod(last, steps[-1][2] if steps else len(a) - 1, pv) % pv
    den[short] = 1  # their nodes are taken exactly below
    values = num * _inverse_mod(den.reshape(len(primes), count), primes).ravel() % pv
    if negate:
        values = (pv - values) % pv
    values = values.reshape(len(primes), count)
    for k in np.flatnonzero(short.reshape(len(primes), count).any(axis=0)):
        exact = _node_resultant(rows1, rows2, lo + int(k))
        values[:, k] = [exact % q for q in primes]
    return values


def _inverse_factorials(primes: tuple, count: int) -> np.ndarray:
    """(count, P) int64: 1/k! modulo each prime, for k < count < p."""
    out = []
    for q in primes:
        fact = 1
        for k in range(2, count):
            fact = fact * k % q
        inv = pow(fact, q - 2, q)  # 1/(count-1)!
        row = [0] * count
        for k in range(count - 1, -1, -1):
            row[k] = inv
            inv = inv * k % q  # 1/(k-1)! = k/k!
        out.append(row)
    return np.array(out, dtype=np.int64).T


@functools.lru_cache(maxsize=16)
def _inverse_vandermonde(lo: int, count: int, primes: tuple):
    """(high, low), two read-only (P, count, count) int64 arrays: the
    inverse of the Vandermonde matrix V[k, j] = (lo + k)^j modulo each
    prime, split as 2^16 high + low with high < 2^15 and low < 2^16.

    Column k is the Lagrange basis polynomial of node x_k = lo + k:
    W(y) / (y - x_k), W = prod_i (y - x_i), by synthetic division for all
    k at once, times 1 / prod_{i != k} (x_k - x_i), which is
    (-1)^(count-1-k) / (k! (count-1-k)!).  O(count^2) per prime.
    """
    # a product sum of `_interpolate`: count products below 2^47, plus the
    # reduced high part shifted by 16 bits, must fit int64
    if (count + 1) << 47 >= _INT64_LIMIT:
        raise ComputationError(f"{count} interpolation nodes overflow int64")
    p = np.array(primes, dtype=np.int64)[:, None]
    nodes = (lo + np.arange(count, dtype=np.int64)) % p  # (P, count)
    w = np.zeros((len(primes), count + 1), dtype=np.int64)
    w[:, 0] = 1
    for i in range(count):  # w <- w (y - x_i)
        w[:, 1:] = (w[:, :-1] - nodes[:, i, None] * w[:, 1:]) % p
        w[:, 0] = -nodes[:, i] * w[:, 0] % p[:, 0]
    inv = np.empty((len(primes), count, count), dtype=np.int64)  # [prime, j, k]
    q = np.ones_like(nodes)  # the top coefficient of W / (y - x_k), each k
    inv[:, count - 1] = q
    for j in range(count - 1, 0, -1):
        q = (w[:, j, None] + nodes * q) % p
        inv[:, j - 1] = q
    fact = _inverse_factorials(primes, count).T  # (P, count): 1/k!
    den = fact * fact[:, ::-1] % p
    odd = (count - 1 - np.arange(count)) % 2 == 1
    den[:, odd] = (p - den[:, odd]) % p
    inv = inv * den[:, None, :] % p[:, None]
    high, low = inv >> 16, inv & 0xFFFF
    high.flags.writeable = low.flags.writeable = False  # cached for every caller
    return high, low


def _interpolate(values, lo: int, primes) -> np.ndarray:
    """(K, P) int64: low-to-high coefficients, modulo each prime, of the
    polynomial of degree < K through (lo + k, values[:, k]): the cached
    inverse Vandermonde matrix (`_inverse_vandermonde`) times the (P, K)
    residues, as two exact int64 matrix products (integer matmul uses no
    BLAS)."""
    high, low = _inverse_vandermonde(lo, values.shape[1], tuple(primes))
    p = np.array(primes, dtype=np.int64)[:, None, None]
    v = values[:, :, None]
    c = (np.matmul(high, v) % p << 16) + np.matmul(low, v)
    return (c % p)[:, :, 0].T


def _crt_symmetric(residues, primes) -> list:
    """Per row of the (K, P) residues, the integer in (-M/2, M/2) with
    those residues, M the product of the primes."""
    modulus = math.prod(primes)
    # e_i is 1 modulo the i-th prime and 0 modulo the others
    basis = [modulus // q * pow(modulus // q, -1, q) for q in primes]
    half = modulus // 2
    out = []
    for row in residues.tolist():
        x = sum(r * e for r, e in zip(row, basis)) % modulus
        out.append(x - modulus if x > half else x)
    return out


def eliminant_bivariate(f1: IntPolynomial, f2: IntPolynomial, eliminate) -> list:
    """Res_{x_k}(f1, f2) as an exact integer polynomial in the other variable.

    `eliminate` is "x"/0 or "y"/1.  The formal-size Sylvester determinant,
    which matches the polynomial determinant evaluated at a node also
    where a leading coefficient vanishes there, is taken at consecutive
    integer nodes modulo enough primes (`_resultants_mod`), interpolated
    modulo each and lifted by CRT.  The check node one past the nodes
    must agree with the exact resultant there, or ComputationError is
    raised.  The interpolation matrix depends only on the nodes and the
    primes, so eliminants of one degree and support share it.  Returns []
    when the eliminant is identically zero (shared factor / non-isolated
    zeros).
    """
    var = {"x": 0, "y": 1, 0: 0, 1: 1}.get(eliminate)
    if var is None:
        raise ResultantError(f"unknown elimination axis {eliminate!r}")
    for f in (f1, f2):
        if f.nvars != 2:
            raise ResultantError("eliminant needs two-variable polynomials")
        if f.is_zero:
            raise ResultantError("eliminant of the zero polynomial")
    rows1 = _coeff_rows(f1, var)
    rows2 = _coeff_rows(f2, var)
    m1, m2 = len(rows1) - 1, len(rows2) - 1
    if m1 == 0 and m2 == 0:
        return [1]  # neither involves the variable; empty Sylvester matrix
    e1 = max(degree(r) for r in rows1)
    e2 = max(degree(r) for r in rows2)
    bound = min(f1.degree * f2.degree, m2 * max(e1, 0) + m1 * max(e2, 0))
    lo, count = -(bound // 2), bound + 1
    # on |y| = 1 a Sylvester row of f_i has squared norm at most
    # s_i = sum (sum |c|)^2 over its rows; by Hadamard and Cauchy every
    # coefficient is at most sqrt(s1^m2 s2^m1) < M/2
    s1, s2 = (sum(sum(map(abs, row)) ** 2 for row in rows)
              for rows in (rows1, rows2))
    primes = _crt_primes(4 * s1**m2 * s2**m1)
    values = _resultants_mod(rows1, rows2, lo, count, primes)
    r = trim(_crt_symmetric(_interpolate(values, lo, primes), primes))
    node = lo + count
    if _eval_int(r, node) != _node_resultant(rows1, rows2, node):
        raise ComputationError(
            f"eliminant disagrees with the exact resultant at its check node {node}"
        )
    return r


# ---------------------------------------------------------------------------
# directional resultants and the exceptional classifier


def _system_polys(system):
    if isinstance(system, BernoulliSystem):
        return system.polys
    return tuple(system)


def system_facet_normals(polys):
    """Inward facet normals of the Minkowski sum of the support hulls."""
    acc = polys[0].newton_polytope
    for f in polys[1:]:
        acc = minkowski_sum(acc, f.newton_polytope)
    if not acc.is_full_dimensional():
        raise DegenerateSystemError(
            "Minkowski sum of supports is lower-dimensional; "
            "directional machinery needs a full-dimensional sum"
        )
    return facet_normals(acc)


def _facet_resultant(polys, v, resultant) -> int:
    """Resultant of the two directed polynomials at a facet normal v (n=2)."""
    g1, g2 = (tuple(univariate_coeffs(directed_polynomial(f, v))) for f in polys)
    return resultant(g1, g2)


@dataclass(frozen=True)
class DirectionalEntry:
    normal: tuple
    value: int

    @property
    def is_zero(self) -> bool:
        return self.value == 0


@dataclass(frozen=True)
class DirectionalReport:
    """Facet directional resultants plus the exceptional-set verdict.

    exceptional == (some facet resultant vanishes) or (some coordinate
    hyperplane carries a common zero).
    """

    entries: tuple
    zero_coordinate_flags: tuple
    exceptional: bool

    def to_dict(self) -> dict:
        return {
            "res_v": {
                ",".join(str(c) for c in e.normal): str(e.value)
                for e in self.entries
            },
            "zero_coord": list(self.zero_coordinate_flags),
            "exceptional": self.exceptional,
        }


def _common_root_on_axis(polys, axis: int, resultant) -> bool:
    """Does the system restricted to x_axis = 0 have a common zero?"""
    r1, r2 = (tuple(restrict_to_zero(f, axis)) for f in polys)
    if not r1 and not r2:
        return True
    return resultant(r1, r2) == 0


def classify_exceptional(system) -> DirectionalReport:
    """Exact membership test for the exceptional set.

    Computes every facet directional resultant and, per coordinate, the
    common-zero test on the coordinate hyperplane; the system is
    exceptional when any of these degenerates.  A resultant asked for
    twice, keyed by its coefficient tuples, is computed once: on a full
    support the facets (1, 0) and (0, 1) restrict f as x = 0 and y = 0 do.
    """
    polys = _system_polys(system)
    n = polys[0].nvars
    if n not in (1, 2):
        raise UnsupportedDimensionError(
            f"classifier implemented for n in {{1, 2}}, got n={n}"
        )
    if n == 1:
        f = polys[0]
        exps = [e for (e,), _ in f.terms]
        entries = []
        if min(exps) < max(exps):
            entries = [
                DirectionalEntry((-1,), f.coeff((max(exps),))),
                DirectionalEntry((1,), f.coeff((min(exps),))),
            ]
        zero_flags = (f.coeff((0,)) == 0,)
    else:
        resultant = functools.cache(resultant_univariate)
        entries = [
            DirectionalEntry(v, _facet_resultant(polys, v, resultant))
            for v in system_facet_normals(polys)
        ]
        zero_flags = tuple(_common_root_on_axis(polys, ax, resultant) for ax in range(2))
    exceptional = any(e.is_zero for e in entries) or any(zero_flags)
    return DirectionalReport(
        entries=tuple(entries),
        zero_coordinate_flags=zero_flags,
        exceptional=exceptional,
    )
