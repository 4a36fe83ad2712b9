"""Exact resultants over arbitrary-precision integers.

Univariate polynomials are plain low-to-high coefficient lists of Python
ints (no trailing zeros).  The resultant of two such polynomials is the
determinant of the classical Sylvester matrix, rows of the first
polynomial on top; the fast path computes it with a subresultant
polynomial remainder sequence (no fractions, no coefficient blowup), the
slow path with fraction-free Bareiss elimination on the matrix itself.
Both routes are exact; tests pin them against each other.

Bivariate eliminants Res_x(f1, f2)(y) are recovered by evaluating the
resultant at enough consecutive integer values of y and interpolating
with exact finite differences; the interpolation asserts integrality of
every coefficient as a self-check.

On top of these sit the directional resultants of a system (faces of the
supports translated into the orthogonal lattice line) and the
exceptional-set classifier: a system is exceptional when a facet
directional resultant vanishes or when it has a common zero with some
vanishing coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import convex_hull, facet_normals, minkowski_sum, primitive_vector
from .polynomials import (
    BernoulliSystem,
    IntPolynomial,
    directed_polynomial,
    restrict_to_zero,
    support,
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
# Sylvester matrix and Bareiss determinant


def sylvester_matrix(f, g, formal_deg_f=None, formal_deg_g=None):
    """Classical Sylvester matrix, rows of f first, coefficients high to low.

    Formal degrees may exceed the actual ones; the extra top coefficients
    are stored as zeros.  This matches homogenized behavior at nodes where
    leading coefficients vanish.
    """
    f = list(f)
    g = list(g)
    m = degree(f) if formal_deg_f is None else formal_deg_f
    n = degree(g) if formal_deg_g is None else formal_deg_g
    if m < 0 or n < 0:
        raise ResultantError("Sylvester matrix of the zero polynomial")
    if m == 0 and n == 0:
        raise ResultantError("Sylvester matrix needs a nonconstant polynomial")
    if degree(f) > m or degree(g) > n:
        raise ResultantError("formal degree below actual degree")
    size = m + n
    frow = [(f[m - j] if m - j < len(f) else 0) for j in range(m + 1)]
    grow = [(g[n - j] if n - j < len(g) else 0) for j in range(n + 1)]
    rows = []
    for i in range(n):
        rows.append([0] * i + frow + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + grow + [0] * (size - n - 1 - i))
    return rows


def det_bareiss(matrix) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q, r = divmod(num, prev)
                if r:
                    raise ComputationError("Bareiss division was not exact")
                m[i][j] = q
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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
    """Exact resultant; sign matches det(sylvester_matrix(f, g)).

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


_SQFREE_PRIME = (1 << 61) - 1  # Mersenne prime, used for the fast certificate


def _gcd_degree_mod(a, b, p) -> int:
    """Degree of gcd(a, b) over F_p, or None when the reduction is unusable."""
    am = [c % p for c in a]
    bm = [c % p for c in b]
    if not am or am[-1] == 0 or not bm or bm[-1] == 0:
        return None
    while True:
        while bm and bm[-1] == 0:
            bm.pop()
        if not bm:
            return len(am) - 1
        inv = pow(bm[-1], p - 2, p)
        da, db = len(am) - 1, len(bm) - 1
        if da < db:
            am, bm = bm, am
            continue
        for k in range(da - db, -1, -1):
            c = am[db + k] * inv % p
            if c:
                for j in range(db + 1):
                    am[k + j] = (am[k + j] - c * bm[j]) % p
        am, bm = bm, [c for c in am[: db]]


def is_squarefree_certified(p) -> bool:
    """True only with proof: gcd(p, p') is constant modulo a prime whose
    reduction keeps the leading coefficient.  False means "maybe not"."""
    p = trim(p)
    if len(p) <= 2:
        return len(p) == 2
    dp = poly_derivative(p)
    deg = _gcd_degree_mod(p, dp, _SQFREE_PRIME)
    return deg == 0


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
    """[(square-free integer polynomial, multiplicity), ...] for root
    finding: the certified square-free fast path avoids the exact gcd."""
    p = poly_primitive(p)
    if is_squarefree_certified(p):
        return [(p, 1)]
    return squarefree_decomposition(p)


# ---------------------------------------------------------------------------
# bivariate eliminant by evaluation / interpolation


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


def _interpolate_integers(lo: int, values) -> list:
    """The unique integer polynomial through (lo+i, values[i]).

    Newton forward differences on consecutive integer nodes; the final
    division by D! must be exact, anything else is a bug upstream.
    """
    dmax = len(values) - 1
    diffs = [values[0]]
    row = list(values)
    for _ in range(dmax):
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        diffs.append(row[0])
    fact = 1
    for k in range(2, dmax + 1):
        fact *= k
    acc = [0] * (dmax + 1)
    basis = [1]
    scale = fact  # fact / k!, updated as k grows
    for k in range(dmax + 1):
        if diffs[k]:
            mult = diffs[k] * scale
            for j, bc in enumerate(basis):
                acc[j] += mult * bc
        root = lo + k
        basis = [0] + basis
        for j in range(len(basis) - 1):
            basis[j] -= root * basis[j + 1]
        scale //= k + 1
    out = []
    for a in acc:
        q, r = divmod(a, fact)
        if r:
            raise ComputationError("eliminant interpolation gave a non-integer")
        out.append(q)
    return trim(out)


def eliminant_bivariate(f1: IntPolynomial, f2: IntPolynomial, eliminate) -> list:
    """Res_{x_k}(f1, f2) as an exact integer polynomial in the other variable.

    `eliminate` is "x"/0 or "y"/1.  Evaluation at consecutive integer
    nodes plus exact interpolation; at nodes where a leading coefficient
    vanishes the formal-size Sylvester determinant is used, which matches
    the polynomial determinant evaluated there.  Returns [] when the
    eliminant is identically zero (shared factor / non-isolated zeros).
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
    lo = -(bound // 2)
    values = []
    for k in range(lo, lo + bound + 1):
        c1 = [_eval_int(r, k) for r in rows1]
        c2 = [_eval_int(r, k) for r in rows2]
        if c1[m1] != 0 and c2[m2] != 0:
            values.append(resultant_univariate(c1, c2))
        else:
            values.append(det_bareiss(sylvester_matrix(c1, c2, m1, m2)))
    return _interpolate_integers(lo, values)


# ---------------------------------------------------------------------------
# directional resultants and the exceptional classifier


def _system_polys(system):
    if isinstance(system, BernoulliSystem):
        return system.polys
    return tuple(system)


def _support_hulls(polys):
    return [convex_hull(support(f)) for f in polys]


def system_facet_normals(polys):
    """Inward facet normals of the Minkowski sum of the support hulls."""
    hulls = _support_hulls(polys)
    acc = hulls[0]
    for h in hulls[1:]:
        acc = minkowski_sum(acc, h)
    if not acc.is_full_dimensional():
        raise DegenerateSystemError(
            "Minkowski sum of supports is lower-dimensional; "
            "directional machinery needs a full-dimensional sum"
        )
    return facet_normals(acc)


def directional_resultant(system, v) -> int:
    """Exact directional resultant of the system at direction v.

    n=1: the face coefficient (constant term for v=+1, leading for v=-1).
    n=2: the Sylvester resultant of the two directed univariate
    polynomials after face translation.  Directions that are not facet
    normals of the Minkowski sum of the supports give 1.
    """
    polys = _system_polys(system)
    n = polys[0].nvars
    if n not in (1, 2):
        raise UnsupportedDimensionError(
            f"exact directional resultants implemented for n in {{1, 2}}, got n={n}"
        )
    v = tuple(int(c) for c in v)
    if n == 1:
        exps = [e for (e,), _ in polys[0].terms]
        if min(exps) == max(exps):
            return 1  # single monomial, no facets
        if v == (1,):
            return polys[0].coeff((min(exps),))
        if v == (-1,):
            return polys[0].coeff((max(exps),))
        raise ResultantError(f"direction {v} is not primitive")
    if primitive_vector(v) != v:
        raise ResultantError(f"direction {v} is not primitive")
    if v not in system_facet_normals(polys):
        return 1
    return _facet_resultant(polys, v)


def _facet_resultant(polys, v) -> int:
    """Resultant of the two directed polynomials at a facet normal v (n=2)."""
    g1, _ = directed_polynomial(polys[0], v)
    g2, _ = directed_polynomial(polys[1], v)
    return resultant_univariate(univariate_coeffs(g1), univariate_coeffs(g2))


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

    system_label: str
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


def _common_root_on_axis(polys, axis: int) -> bool:
    """Does the system restricted to x_axis = 0 have a common zero?"""
    r1 = restrict_to_zero(polys[0], axis)
    r2 = restrict_to_zero(polys[1], axis)
    z1, z2 = not r1, not r2
    if z1 and z2:
        return True
    if z1:
        return degree(r2) >= 1  # any root of the other polynomial works
    if z2:
        return degree(r1) >= 1
    if degree(r1) == 0 or degree(r2) == 0:
        return False  # a nonzero constant never vanishes
    return resultant_univariate(r1, r2) == 0


def classify_exceptional(system, label: str = "") -> DirectionalReport:
    """Exact membership test for the exceptional set.

    Computes every facet directional resultant and, per coordinate, the
    common-zero test on the coordinate hyperplane; the system is
    exceptional when any of these degenerates.
    """
    polys = _system_polys(system)
    n = polys[0].nvars
    if n not in (1, 2):
        raise UnsupportedDimensionError(
            f"classifier implemented for n in {{1, 2}}, got n={n}"
        )
    if not label and isinstance(system, BernoulliSystem):
        label = f"n{system.n}-d{system.d}-s{system.seed}-t{system.trial}"
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
        entries = [
            DirectionalEntry(v, _facet_resultant(polys, v))
            for v in system_facet_normals(polys)
        ]
        zero_flags = tuple(_common_root_on_axis(polys, ax) for ax in range(2))
    exceptional = any(e.is_zero for e in entries) or any(zero_flags)
    return DirectionalReport(
        system_label=label,
        entries=tuple(entries),
        zero_coordinate_flags=zero_flags,
        exceptional=exceptional,
    )
