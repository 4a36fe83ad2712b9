"""Exact multivariate integer polynomials and the random sign sampler.

A polynomial is a finite map from exponent tuples to nonzero Python ints.
Coefficients never leave exact arithmetic until a numeric consumer asks
for floats.  The sampler draws full-support systems whose coefficients
are +1/-1 with probability 1/2 each, from a counter-based hash stream so
that a draw is a pure function of (seed, trial, polynomial index,
exponent rank) regardless of iteration order or threading.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property
from math import comb

from .lattice import convex_hull, primitive_vector, simplex_points


class PolynomialError(ValueError):
    """Invalid polynomial input (dimension mismatch, zero polynomial...)."""


@dataclass(frozen=True)
class IntPolynomial:
    """Multivariate polynomial with exact integer coefficients.

    terms: sorted tuple of (exponent tuple, coefficient), coefficients
    nonzero, exponents componentwise >= 0.  `offset` records a Laurent
    translation: the represented monomial for stored exponent J is
    x^(J + offset).  Offsets stay out of supports and norms; they matter
    only when evaluating.
    """

    nvars: int
    terms: tuple
    offset: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.offset is None:
            object.__setattr__(self, "offset", (0,) * self.nvars)

    @classmethod
    def from_dict(cls, nvars: int, coeffs: dict, offset=None) -> "IntPolynomial":
        terms = []
        for exp, c in coeffs.items():
            exp = tuple(int(e) for e in exp)
            c = int(c)
            if len(exp) != nvars:
                raise PolynomialError("exponent arity does not match nvars")
            if any(e < 0 for e in exp):
                raise PolynomialError("negative exponents go in offset, not terms")
            if c != 0:
                terms.append((exp, c))
        terms.sort()
        off = tuple(int(o) for o in offset) if offset is not None else (0,) * nvars
        return cls(nvars, tuple(terms), off)

    @cached_property
    def coeff_map(self) -> dict:
        return dict(self.terms)

    def coeff(self, exp) -> int:
        return self.coeff_map.get(tuple(exp), 0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @cached_property
    def degree(self) -> int:
        """Max total degree over stored terms (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for exp, c in self.terms:
            mon = "".join(
                f"x{i+1}^{e}" if e > 1 else (f"x{i+1}" if e == 1 else "")
                for i, e in enumerate(exp)
            )
            bits.append(f"{c:+d}{mon}" if mon else f"{c:+d}")
        s = " ".join(bits)
        if any(self.offset):
            s += f"  (offset {self.offset})"
        return s


def support(f: IntPolynomial):
    """Exponent tuples of the nonzero terms (offset excluded)."""
    if f.is_zero:
        raise PolynomialError("the zero polynomial has no support")
    return tuple(e for e, _ in f.terms)


def newton_polytope(f: IntPolynomial):
    return convex_hull(support(f))


def evaluate(f: IntPolynomial, point) -> complex:
    """Evaluate at a complex point, Horner in the trailing variable."""
    point = tuple(complex(z) for z in point)
    if len(point) != f.nvars:
        raise PolynomialError(
            f"point dimension {len(point)} does not match nvars {f.nvars}"
        )
    if f.is_zero:
        return 0j

    def rec(terms, coords):
        if not coords:
            return complex(terms[()])
        z = coords[-1]
        layers = {}
        for exp, c in terms.items():
            layers.setdefault(exp[-1], {})[exp[:-1]] = c
        val = 0j
        for k in range(max(layers), -1, -1):
            val *= z
            if k in layers:
                val += rec(layers[k], coords[:-1])
        return val

    val = rec(dict(f.terms), point)
    for z, o in zip(point, f.offset):
        if o:
            if z == 0:
                raise PolynomialError("Laurent offset cannot be evaluated at 0")
            val *= z**o
    return val


def homogenize(f: IntPolynomial, d: int) -> IntPolynomial:
    """Degree-d homogenization: term x^J maps to t0^(d-|J|) x^J.

    The result has nvars+1 variables with t0 first; substituting t0=1
    recovers f.
    """
    if f.is_zero:
        raise PolynomialError("cannot homogenize the zero polynomial")
    if any(f.offset):
        raise PolynomialError("cannot homogenize a Laurent-translated polynomial")
    if f.degree > d:
        raise PolynomialError(f"degree {f.degree} exceeds homogenization degree {d}")
    terms = {}
    for exp, c in f.terms:
        terms[(d - sum(exp),) + exp] = c
    return IntPolynomial.from_dict(f.nvars + 1, terms)


def directed_polynomial(f: IntPolynomial, v):
    """Restrict f to the face of its support in direction v.

    Returns (g, b): b is the canonical translation point (the colex-minimal
    face point, which for full supports reproduces the translations 0 for
    coordinate directions and (d,0,...,0) for the all-negative direction)
    and g is the face polynomial re-expressed in integer coordinates of
    the hyperplane orthogonal to v, with exponents normalized to start at
    0 (any remaining shift is recorded in g.offset).  For v = e_m the
    coordinate m is dropped; for v = -(1,...,1) the coordinates are
    y_i = x_{i+1}/x_1.
    """
    if f.is_zero:
        raise PolynomialError("directed polynomial of the zero polynomial")
    v = tuple(int(c) for c in v)
    if len(v) != f.nvars:
        raise PolynomialError("direction dimension mismatch")
    if primitive_vector(v) != v:
        raise PolynomialError(f"direction {v} is not primitive")
    n = f.nvars
    s = min(sum(e * c for e, c in zip(exp, v)) for exp, _ in f.terms)
    face_terms = [
        (exp, c) for exp, c in f.terms if sum(e * c2 for e, c2 in zip(exp, v)) == s
    ]
    b = min((exp for exp, _ in face_terms), key=lambda exp: exp[::-1])

    if n == 1:
        (exp, c) = face_terms[0]
        return IntPolynomial.from_dict(0, {(): c}), b

    def coords_for(diff):
        if v == tuple(-1 for _ in range(n)):
            return diff[1:]
        units = [tuple(1 if k == m else 0 for k in range(n)) for m in range(n)]
        if v in units:
            m = units.index(v)
            return diff[:m] + diff[m + 1 :]
        if n == 2:
            u = (-v[1], v[0])
            if u[0] != 0:
                t, r = divmod(diff[0], u[0])
            else:
                t, r = divmod(diff[1], u[1])
            if r or (t * u[0], t * u[1]) != diff:
                raise PolynomialError("face point outside the orthogonal lattice line")
            return (t,)
        raise PolynomialError(
            "general directions are only supported in dimension <= 2"
        )

    raw = {}
    for exp, c in face_terms:
        diff = tuple(e - bb for e, bb in zip(exp, b))
        raw[coords_for(diff)] = c
    mins = tuple(min(t[k] for t in raw) for k in range(n - 1))
    shifted = {tuple(t[k] - mins[k] for k in range(n - 1)): c for t, c in raw.items()}
    return IntPolynomial.from_dict(n - 1, shifted, offset=mins), b


def univariate_coeffs(f: IntPolynomial):
    """Dense low-to-high coefficient list of a 1-variable polynomial."""
    if f.nvars != 1:
        raise PolynomialError("not univariate")
    if f.is_zero:
        return []
    top = max(e[0] for e, _ in f.terms)
    out = [0] * (top + 1)
    for (e,), c in f.terms:
        out[e] = c
    return out


def restrict_to_zero(f: IntPolynomial, axis: int) -> list:
    """Coefficients of f with x_axis set to 0, as a univariate list (n=2).

    May be empty (f divisible by x_axis) or a constant.
    """
    if f.nvars != 2:
        raise PolynomialError("restriction helper expects two variables")
    other = 1 - axis
    out = {}
    for exp, c in f.terms:
        if exp[axis] == 0:
            out[exp[other]] = c
    if not out:
        return []
    coeffs = [0] * (max(out) + 1)
    for k, c in out.items():
        coeffs[k] = c
    return coeffs


# ---------------------------------------------------------------------------
# sup norm bound on the unit torus


def sup_norm_upper(f: IntPolynomial) -> int:
    """sum |a_J|, a certified upper bound for the sup norm on the torus."""
    return sum(abs(c) for _, c in f.terms)


# ---------------------------------------------------------------------------
# random sign systems


@dataclass(frozen=True)
class BernoulliSystem:
    """Full-support system of n polynomials of degree d with +-1 coefficients."""

    n: int
    d: int
    seed: int
    trial: int
    polys: tuple

    @property
    def expected_count(self) -> int:
        return self.d**self.n


_STREAM_PERSON = b"pt-coeff-stream"


def _sign_block(seed: int, trial: int, poly_index: int, block: int) -> bytes:
    msg = struct.pack("<QQQQ", seed & (2**64 - 1), trial, poly_index, block)
    return hashlib.blake2b(msg, digest_size=64, person=_STREAM_PERSON).digest()


def coefficient_signs(seed: int, trial: int, poly_index: int, count: int):
    """First `count` signs of the coefficient stream for one polynomial."""
    out = []
    block = -1
    digest = b""
    for rank in range(count):
        if rank % 512 == 0:
            block += 1
            digest = _sign_block(seed, trial, poly_index, block)
        bit = (digest[(rank % 512) // 8] >> (rank % 8)) & 1
        out.append(1 if bit else -1)
    return out


def sample_bernoulli_system(n: int, d: int, seed: int, trial: int) -> BernoulliSystem:
    """Draw a full system; deterministic in (n, d, seed, trial)."""
    if n < 1 or d < 1:
        raise PolynomialError("need n >= 1 and d >= 1")
    if trial < 0:
        raise PolynomialError("trial index must be nonnegative")
    pts = simplex_points(n, d)
    assert len(pts) == comb(n + d, n)
    polys = []
    for i in range(n):
        signs = coefficient_signs(seed, trial, i, len(pts))
        polys.append(IntPolynomial.from_dict(n, dict(zip(pts, signs))))
    return BernoulliSystem(n=n, d=d, seed=seed, trial=trial, polys=tuple(polys))


# ---------------------------------------------------------------------------
# system JSON (schema shared with the CLI)


def system_to_dict(polys, n: int, d: int, seed=None, trial=None) -> dict:
    return {
        "n": n,
        "d": d,
        "seed": seed,
        "trial": trial,
        "polys": [
            [[list(exp), c] for exp, c in p.terms] for p in polys
        ],
    }


def system_from_dict(obj: dict):
    """Returns (n, d, seed, trial, polys).  Inverse of system_to_dict.

    The input is taken as written: a coefficient or exponent that is not
    an integer, a polynomial count other than n, a polynomial of total
    degree below 1, or a d other than the largest total degree raises
    PolynomialError instead of being coerced.
    """
    try:
        n, d, rows_list = obj["n"], obj["d"], obj["polys"]
        if type(n) is not int or type(d) is not int:  # bool is not taken
            raise PolynomialError("n and d must be integers")
        if n < 1:
            raise PolynomialError(f"system file has n={n}; need n >= 1")
        if len(rows_list) != n:
            raise PolynomialError(
                f"system file has {len(rows_list)} polynomials for n={n}"
            )
        polys = []
        for rows in rows_list:
            coeffs = {}
            for exp, c in rows:
                if not all(type(v) is int for v in (c, *exp)):
                    raise PolynomialError(
                        f"non-integer term {[exp, c]!r} in system file"
                    )
                coeffs[tuple(exp)] = c
            polys.append(IntPolynomial.from_dict(n, coeffs))
    except PolynomialError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise PolynomialError(f"malformed system file: {exc!r}") from exc
    degrees = [f.degree for f in polys]
    if min(degrees) < 1:
        raise PolynomialError(
            f"system file has a polynomial of total degree {min(degrees)}; "
            "need degree >= 1"
        )
    if max(degrees) != d:
        raise PolynomialError(
            f"system file says d={d}, but its largest total degree is {max(degrees)}"
        )
    return n, d, obj.get("seed"), obj.get("trial"), tuple(polys)


def bernoulli_system_to_dict(system: BernoulliSystem) -> dict:
    return system_to_dict(
        system.polys, system.n, system.d, seed=system.seed, trial=system.trial
    )
