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
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .lattice import convex_hull, primitive_vector, simplex_points


class PolynomialError(ValueError):
    """Invalid polynomial input (dimension mismatch, zero polynomial...)."""


@dataclass(frozen=True)
class IntPolynomial:
    """Multivariate polynomial with exact integer coefficients.

    terms: sorted tuple of (exponent tuple, coefficient), coefficients
    nonzero, exponents componentwise >= 0.
    """

    nvars: int
    terms: tuple

    @classmethod
    def from_dict(cls, nvars: int, coeffs: dict) -> "IntPolynomial":
        terms = []
        for exp, c in coeffs.items():
            exp = tuple(int(e) for e in exp)
            c = int(c)
            if len(exp) != nvars:
                raise PolynomialError("exponent arity does not match nvars")
            if any(e < 0 for e in exp):
                raise PolynomialError("exponents must be nonnegative")
            if c != 0:
                terms.append((exp, c))
        terms.sort()
        return cls(nvars, tuple(terms))

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

    @cached_property
    def exponents(self) -> np.ndarray:
        """(terms, nvars) int64 array of the stored exponents, in term order."""
        exps = np.array([e for e, _ in self.terms], dtype=np.int64)
        return exps.reshape(len(self.terms), self.nvars)

    @cached_property
    def newton_polytope(self):
        """Convex hull of the support, built once per support."""
        return _support_hull(support(self))


@lru_cache(maxsize=256)
def _support_hull(points: tuple):
    """The hull of one support, shared by every polynomial that has it."""
    return convex_hull(points)


def support(f: IntPolynomial):
    """Exponent tuples of the nonzero terms."""
    if f.is_zero:
        raise PolynomialError("the zero polynomial has no support")
    return tuple(e for e, _ in f.terms)


def directed_polynomial(f: IntPolynomial, v):
    """Restrict the two-variable f to the face of its support in direction
    v, re-expressed in the integer coordinate of the lattice line
    orthogonal to v, with exponents shifted to start at 0.

    For v = e_m the coordinate m is dropped; for v = (-1, -1) the
    coordinate is y = x_2 / x_1.
    """
    if f.is_zero:
        raise PolynomialError("directed polynomial of the zero polynomial")
    if f.nvars != 2:
        raise PolynomialError("directed polynomials need two variables")
    v = tuple(int(c) for c in v)
    if len(v) != 2:
        raise PolynomialError("direction dimension mismatch")
    if primitive_vector(v) != v:
        raise PolynomialError(f"direction {v} is not primitive")
    dots = f.exponents @ np.array(v, dtype=np.int64)
    face = np.flatnonzero(dots == dots.min())
    diff = f.exponents[face] - f.exponents[face[0]]
    if v == (-1, -1):
        coords = diff[:, 1:]
    elif v in ((1, 0), (0, 1)):
        coords = diff[:, [v.index(0)]]
    else:
        u = np.array((-v[1], v[0]), dtype=np.int64)
        k = 0 if u[0] != 0 else 1
        t, r = np.divmod(diff[:, k], u[k])
        if r.any() or (np.outer(t, u) != diff).any():
            raise PolynomialError("face point outside the orthogonal lattice line")
        coords = t[:, None]
    mins = coords.min(axis=0)
    exps = map(tuple, (coords - mins).tolist())
    terms = sorted(zip(exps, (f.terms[i][1] for i in face)))
    return IntPolynomial(1, tuple(terms))


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


_STREAM_PERSON = b"pt-coeff-stream"


def _sign_block(seed: int, trial: int, poly_index: int, block: int) -> bytes:
    msg = struct.pack("<QQQQ", seed, trial, poly_index, block)
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
    """Draw a full system; deterministic in (n, d, seed, trial) in [0, 2**64)."""
    if n < 1 or d < 1:
        raise PolynomialError("need n >= 1 and d >= 1")
    if not (0 <= seed < 2**64 and 0 <= trial < 2**64):
        raise PolynomialError(f"seed {seed} and trial {trial} must lie in [0, 2**64)")
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
