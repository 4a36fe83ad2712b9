"""Numerical root finding for the exact kernels.

Univariate roots come from Aberth-Ehrlich simultaneous iteration started
on a circle of radius (|a_0/a_d|)^(1/deg) with a deterministic angular
perturbation, followed by a short Newton polish.  Bivariate systems are
solved through the exact eliminant: its roots give one coordinate, the
other is recovered by back-substitution into the input polynomials with
scaled residual filtering, and the whole solution multiset is
cross-checked against the eliminant of the opposite variable.

Output ordering is normalized (lexicographic by real/imaginary parts) so
results do not depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .lattice import mixed_volume
from .polynomials import IntPolynomial, newton_polytope, sup_norm_upper
from .resultants import eliminant_bivariate, roots_structure, trim


class SolverError(RuntimeError):
    pass


class NonIsolatedError(SolverError):
    """The eliminant vanished identically: shared factor, zeros not isolated."""


ABERTH_MAX_SWEEPS = 200
ABERTH_TOL = 1e-13
NEWTON_POLISH_STEPS = 3
CLUSTER_RADIUS = 1e-7
RESIDUAL_TOL = 1e-6


# ---------------------------------------------------------------------------
# big-int coefficients -> floats


def scaled_float_coeffs(coeffs) -> np.ndarray:
    """Binary-scale integer coefficients into double range.

    Dividing every coefficient by the same power of two does not move the
    roots; bit lengths near d^2 log d would otherwise overflow doubles.
    """
    ints = [int(c) for c in coeffs]
    bits = max((abs(c).bit_length() for c in ints), default=0)
    shift = max(bits - 500, 0)

    def conv(c: int) -> float:
        if c == 0:
            return 0.0
        sign = -1.0 if c < 0 else 1.0
        a = abs(c)
        b = a.bit_length()
        if b <= 64:
            return sign * math.ldexp(float(a), -shift)
        return sign * math.ldexp(float(a >> (b - 64)), (b - 64) - shift)

    return np.array([conv(c) for c in ints], dtype=float)


# ---------------------------------------------------------------------------
# Aberth-Ehrlich


def _horner_with_derivative(coeff_rows: np.ndarray, z: np.ndarray):
    deg = coeff_rows.shape[1] - 1
    p = np.repeat(coeff_rows[:, deg][:, None], z.shape[1], axis=1).astype(complex)
    dp = np.zeros_like(z)
    for j in range(deg - 1, -1, -1):
        dp = dp * z + p
        p = p * z + coeff_rows[:, j][:, None]
    return p, dp


def _newton_ratio(coeff_rows: np.ndarray, z: np.ndarray):
    """w = p(z)/p'(z), overflow-safe on both sides of the unit circle.

    Outside the unit disk the ratio is taken through the reversed
    polynomial q(u) = u^deg p(1/u): the z^deg factors cancel in
    w = z q(u) / (deg q(u) - u q'(u)), so a degree-100 polynomial at
    |z| ~ 1e4 stays in range.  Returns (w, p_inside) where p_inside is
    the direct value for |z| <= 1 (for convergence bookkeeping).
    """
    deg = coeff_rows.shape[1] - 1
    p, dp = _horner_with_derivative(coeff_rows, z)
    dp = np.where(dp == 0, 1e-300, dp)
    w = p / dp
    outside = np.abs(z) > 1.0
    if outside.any():
        u = np.where(outside, 1.0 / np.where(z == 0, 1.0, z), 0.0)
        q, dq = _horner_with_derivative(coeff_rows[:, ::-1], u)
        denom = deg * q - u * dq
        denom = np.where(denom == 0, 1e-300, denom)
        w_out = z * q / denom
        w = np.where(outside, w_out, w)
    return w, p


def _pairwise_inverse_sum(z: np.ndarray) -> np.ndarray:
    """S_k = sum_{j != k} 1/(z_k - z_j), chunked to bound memory."""
    rows, deg = z.shape
    if deg <= 768:
        diff = z[:, :, None] - z[:, None, :]
        idx = np.arange(deg)
        diff[:, idx, idx] = np.inf
        return (1.0 / diff).sum(axis=2)
    out = np.empty_like(z)
    step = 256
    for a in range(0, deg, step):
        b = min(a + step, deg)
        diff = z[:, a:b, None] - z[:, None, :]
        for k in range(a, b):
            diff[:, k - a, k] = np.inf
        out[:, a:b] = (1.0 / diff).sum(axis=2)
    return out


def _aberth_batch(coeff_rows: np.ndarray):
    """All roots of each row polynomial (equal formal degree, lc nonzero).

    Returns (roots, converged, sweeps); non-converged roots are flagged,
    never silently dropped.
    """
    rows, width = coeff_rows.shape
    deg = width - 1
    if deg < 1 or rows == 0:
        return (
            np.zeros((rows, max(deg, 0)), dtype=complex),
            np.zeros((rows, max(deg, 0)), dtype=bool),
            0,
        )
    lc = np.abs(coeff_rows[:, -1])
    c0 = np.abs(coeff_rows[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.where(c0 > 0, (c0 / lc) ** (1.0 / deg), 1.0)
    radius = np.clip(radius, 1e-3, 1e3)
    k = np.arange(deg)
    jitter = ((k * 2654435761) % 997) / 997.0 - 0.5
    angles = 2 * np.pi * (k + 0.3618) / deg + 1e-3 * jitter
    z = radius[:, None] * np.exp(1j * angles)[None, :]

    active = np.ones((rows, deg), dtype=bool)
    sweeps = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while sweeps < ABERTH_MAX_SWEEPS and active.any():
            sweeps += 1
            w, _ = _newton_ratio(coeff_rows, z)
            s = _pairwise_inverse_sum(z)
            denom = 1.0 - w * s
            denom = np.where(denom == 0, 1e-300, denom)
            corr = w / denom
            bad = ~np.isfinite(corr)
            if bad.any():  # last-resort rescue, should not trigger anymore
                corr = np.where(bad, 0.5 * z, corr)
            done = np.abs(corr) <= ABERTH_TOL * (1.0 + np.abs(z))
            z = np.where(active, z - corr, z)
            active &= ~done
        converged = ~active
        for _ in range(NEWTON_POLISH_STEPS):
            step, _ = _newton_ratio(coeff_rows, z)
            ok = np.isfinite(step) & (np.abs(step) <= 1e-2 * (1.0 + np.abs(z)))
            z = z - np.where(ok, step, 0.0)
    return z, converged, sweeps


@dataclass(frozen=True)
class RootsResult:
    roots: np.ndarray
    converged: np.ndarray
    sweeps: int


def roots_univariate(coeffs) -> RootsResult:
    """All complex roots of a univariate integer/float polynomial.

    Roots at the origin (trailing zero coefficients) are split off
    exactly; the rest go through scaled Aberth iteration.  Practical up
    to degree ~2000 (the pairwise correction is O(d^2) per sweep).
    """
    cs = list(coeffs)
    exact = all(isinstance(c, int) for c in cs)
    cs = trim(cs) if exact else _trim_float(cs)
    deg = len(cs) - 1
    if deg < 1:
        raise SolverError("root finding needs degree >= 1")
    nzero = 0
    while cs and cs[0] == 0:
        cs.pop(0)
        nzero += 1
    if len(cs) <= 1:
        roots = np.zeros(nzero, dtype=complex)
        return RootsResult(roots, np.ones(nzero, dtype=bool), 0)
    if exact:
        row = scaled_float_coeffs(cs).astype(complex)[None, :]
    else:
        row = np.array(cs, dtype=complex)[None, :]
    z, conv, sweeps = _aberth_batch(row)
    roots = np.concatenate([z[0], np.zeros(nzero, dtype=complex)])
    converged = np.concatenate([conv[0], np.ones(nzero, dtype=bool)])
    order = np.lexsort((roots.imag, roots.real))
    return RootsResult(roots=roots[order], converged=converged[order], sweeps=sweeps)


def _trim_float(cs):
    out = list(cs)
    while out and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# zero cycles


@dataclass(frozen=True)
class CyclePoint:
    coords: tuple
    mult: int
    residual: float


@dataclass(frozen=True)
class ZeroCycle:
    """Finite multiset of solution points with multiplicities."""

    dim: int
    points: tuple
    residual_threshold: float

    @cached_property
    def degree(self) -> int:
        return sum(p.mult for p in self.points)

    def coords_array(self) -> np.ndarray:
        """(degree, dim) complex array with multiplicity expansion."""
        rows = []
        for p in self.points:
            rows.extend([p.coords] * p.mult)
        return np.array(rows, dtype=complex).reshape(self.degree, self.dim)

    def to_dict(self, diagnostics=None) -> dict:
        out = {
            "n": self.dim,
            "points": [
                {
                    "coords": [[z.real, z.imag] for z in p.coords],
                    "mult": p.mult,
                    "residual": p.residual,
                }
                for p in self.points
            ],
        }
        if diagnostics is not None:
            out["diagnostics"] = diagnostics.to_dict()
        return out


def cluster_values(values, mults, radius=CLUSTER_RADIUS):
    """Merge complex values closer than radius*max(1,|.|); keeps total mult.

    Union-find over a sliding real-part window; representatives are
    multiplicity-weighted centroids, output sorted by (re, im).
    """
    n = len(values)
    if n == 0:
        return []
    vals = np.asarray(values, dtype=complex)
    ms = list(mults)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    ms = [ms[i] for i in order]
    window = radius * max(1.0, float(np.max(np.abs(vals))))
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        j = i + 1
        while j < n and vals[j].real - vals[i].real <= window:
            if abs(vals[i] - vals[j]) <= radius * max(
                1.0, abs(vals[i]), abs(vals[j])
            ):
                parent[find(j)] = find(i)
            j += 1
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    merged = []
    for idxs in groups.values():
        total = sum(ms[i] for i in idxs)
        center = sum(vals[i] * ms[i] for i in idxs) / total
        merged.append((complex(center), total))
    merged.sort(key=lambda t: (t[0].real, t[0].imag))
    return merged


@dataclass(frozen=True)
class SolveDiagnostics:
    eliminant_degree: int
    iterations: int
    max_residual: float
    clustering_radius: float
    residual_threshold: float
    count_expected: int
    count_found: int
    dropped: int = 0
    cross_check_mismatches: int = 0
    warnings: tuple = field(default_factory=tuple)

    @property
    def count_mismatch(self) -> bool:
        return self.cross_check_mismatches > 0

    def to_dict(self) -> dict:
        return {**asdict(self), "warnings": list(self.warnings)}


def _poly_rows_at(f: IntPolynomial, var: int, value: complex) -> np.ndarray:
    """Coefficients of f(., value) as a dense complex vector in x_var."""
    other = 1 - var
    m = max(exp[var] for exp, _ in f.terms)
    by_power = {}
    for exp, c in f.terms:
        by_power.setdefault(exp[var], {})[exp[other]] = c
    out = np.zeros(m + 1, dtype=complex)
    for k, sub in by_power.items():
        top = max(sub)
        acc = 0j
        for e in range(top, -1, -1):
            acc = acc * value + sub.get(e, 0)
        out[k] = acc
    return out


def _scaled_residual(polys, sups, degs, x: complex, y: complex) -> float:
    """max_i |f_i(x, y)| / (sup_i * s^deg_i) with s = max(1, |x|, |y|).

    Evaluated as sum a_J (x/s)^j1 (y/s)^j2 s^(|J|-deg): every term is
    bounded by |a_J|, so far-out points cannot overflow.
    """
    s = max(1.0, abs(x), abs(y))
    xs, ys = x / s, y / s
    worst = 0.0
    for f, sup, d in zip(polys, sups, degs):
        val = 0j
        for exp, c in f.terms:
            val += c * xs ** exp[0] * ys ** exp[1] * s ** (sum(exp) - d)
        worst = max(worst, abs(val) / sup)
    return worst


def solve_univariate_cycle(f: IntPolynomial):
    """ZeroCycle of a one-variable polynomial plus diagnostics."""
    if f.nvars != 1:
        raise SolverError("expected a univariate polynomial")
    coeffs = [0] * (f.degree + 1)
    for (e,), c in f.terms:
        coeffs[e] = c
    res = roots_univariate(coeffs)
    deg = f.degree
    scaled = scaled_float_coeffs(coeffs)
    norm1 = float(np.sum(np.abs(scaled)))  # scale-free with the values below
    clustered = cluster_values(list(res.roots), [1] * len(res.roots))
    pts = []
    worst = 0.0
    for z, m in clustered:
        # |f(z)| / (norm * max(1,|z|)^deg): for |z| > 1 this equals
        # |rev(f)(1/z)| / norm, which never overflows
        val = 0.0j
        if abs(z) <= 1.0:
            for c in scaled[::-1]:
                val = val * z + c
        else:
            u = 1.0 / z
            for c in scaled:
                val = val * u + c
        r = abs(val) / norm1
        worst = max(worst, r)
        pts.append(CyclePoint(coords=(z,), mult=m, residual=r))
    pts.sort(key=lambda p: (p.coords[0].real, p.coords[0].imag))
    cycle = ZeroCycle(dim=1, points=tuple(pts), residual_threshold=RESIDUAL_TOL)
    diag = SolveDiagnostics(
        eliminant_degree=deg,
        iterations=res.sweeps,
        max_residual=worst,
        clustering_radius=CLUSTER_RADIUS,
        residual_threshold=RESIDUAL_TOL,
        count_expected=deg,
        count_found=cycle.degree,
        warnings=tuple(
            f"root {i} unconverged" for i in np.nonzero(~res.converged)[0]
        ),
    )
    return cycle, diag


def _candidate_pools(f: IntPolynomial, ys):
    """Roots of f(., y) for every y in ys; batched when no degree drops.

    A row loses x-degree only when its leading value is exactly zero (the
    leading x-coefficient of an exact input vanished at y); wide dynamic
    range alone is not degeneracy, Aberth copes with it and the residual
    filter polices the results.
    """
    rows = np.stack([_poly_rows_at(f, 0, y) for y in ys])
    healthy = rows[:, -1] != 0
    pools = [[] for _ in ys]
    sweeps = 0
    if healthy.any():
        z, _, sw = _aberth_batch(rows[healthy])
        sweeps += sw
        for pool_idx, roots in zip(np.nonzero(healthy)[0], z):
            pools[pool_idx] = list(roots)
    for i in np.nonzero(~healthy)[0]:
        row = _trim_float(list(rows[i]))
        if len(row) >= 2:
            z, _, sw = _aberth_batch(np.array(row, dtype=complex)[None, :])
            sweeps += sw
            pools[i] = list(z[0])
    return pools, sweeps


def solve_bivariate(f1: IntPolynomial, f2: IntPolynomial):
    """All isolated solutions of f1 = f2 = 0 as a ZeroCycle.

    Eliminates x for the y coordinates, back-substitutes for x, filters by
    scaled residuals on both polynomials, clusters multiplicities, and
    cross-validates against the y-elimination.  Raises NonIsolatedError on
    an identically zero eliminant.  Mismatches between the two
    eliminations are counted in the diagnostics, never dropped silently.

    Desk scale: total degrees up to ~12 per input (eliminant degree 144);
    beyond that the exact interpolation cost dominates.
    """
    ry = eliminant_bivariate(f1, f2, "x")  # polynomial in y
    if not ry:
        raise NonIsolatedError("zero eliminant: the system has a shared factor")
    rx = eliminant_bivariate(f1, f2, "y")  # polynomial in x, for cross-check
    expected = int(mixed_volume([newton_polytope(f1), newton_polytope(f2)]))
    warnings = []
    if len(ry) == 1:
        diag = SolveDiagnostics(
            eliminant_degree=0,
            iterations=0,
            max_residual=0.0,
            clustering_radius=CLUSTER_RADIUS,
            residual_threshold=RESIDUAL_TOL,
            count_expected=expected,
            count_found=0,
        )
        return ZeroCycle(2, (), RESIDUAL_TOL), diag

    # exact multiplicity structure first: Aberth only ever sees simple roots
    clusters = []
    elim_sweeps = 0
    for factor, mult in roots_structure(ry):
        fres = roots_univariate(factor)
        elim_sweeps += fres.sweeps
        if not fres.converged.all():
            warnings.append(
                f"{int((~fres.converged).sum())} eliminant roots unconverged"
            )
        clusters.extend((complex(z), mult) for z in fres.roots)
    clusters.sort(key=lambda t: (t[0].real, t[0].imag))
    ys = [y for y, _ in clusters]
    sups = [float(sup_norm_upper(f1)), float(sup_norm_upper(f2))]
    degs = [f1.degree, f2.degree]
    polys = (f1, f2)

    pools1, sw1 = _candidate_pools(f1, ys)
    iterations = elim_sweeps + sw1
    pools2 = None  # computed lazily; f1 roots almost always suffice

    points = []
    dropped = 0
    for idx, (ystar, mult) in enumerate(clusters):
        pool = list(pools1[idx])
        for attempt in range(2):
            cands = cluster_values(pool, [1] * len(pool))
            scored = sorted(
                (
                    (_scaled_residual(polys, sups, degs, x, ystar), x)
                    for x, _ in cands
                ),
                key=lambda t: t[0],
            )
            passing = [(r, x) for r, x in scored if r <= RESIDUAL_TOL]
            if passing or attempt == 1:
                break
            if pools2 is None:
                pools2, sw2 = _candidate_pools(f2, ys)
                iterations += sw2
            pool = pool + list(pools2[idx])
        if not passing:
            dropped += mult
            warnings.append(
                f"no candidate above y={ystar:.6g} passed the residual filter"
            )
            continue
        take = passing[:mult]
        if len(take) == mult:
            for r, x in take:
                points.append(CyclePoint((x, ystar), 1, r))
        else:
            # fewer distinct x's than the eliminant multiplicity: stack the
            # remainder on the best candidate (tangency / collision case)
            extra = mult - len(take)
            r0, x0 = take[0]
            points.append(CyclePoint((x0, ystar), 1 + extra, r0))
            for r, x in take[1:]:
                points.append(CyclePoint((x, ystar), 1, r))

    points.sort(
        key=lambda p: (
            p.coords[0].real,
            p.coords[0].imag,
            p.coords[1].real,
            p.coords[1].imag,
        )
    )
    max_residual = max((p.residual for p in points), default=0.0)

    # cross-validation: emitted x coordinates against the y-elimination
    mismatches = 0
    if len(rx) > 1:
        expected_x = []
        for factor, mult in roots_structure(rx):
            fres = roots_univariate(factor)
            expected_x.extend(list(fres.roots) * mult)
        got_x = []
        for p in points:
            got_x.extend([p.coords[0]] * p.mult)
        tol = max(1e-5, 100 * CLUSTER_RADIUS)
        mismatches = _unmatched_count(expected_x, got_x, tol)
    elif points:
        mismatches = len(points)  # y-elimination says no solutions at all

    cycle = ZeroCycle(dim=2, points=tuple(points), residual_threshold=RESIDUAL_TOL)
    diag = SolveDiagnostics(
        eliminant_degree=len(ry) - 1,
        iterations=iterations,
        max_residual=max_residual,
        clustering_radius=CLUSTER_RADIUS,
        residual_threshold=RESIDUAL_TOL,
        count_expected=expected,
        count_found=cycle.degree,
        dropped=dropped,
        cross_check_mismatches=mismatches,
        warnings=tuple(warnings),
    )
    return cycle, diag


def _unmatched_count(expected, got, tol) -> int:
    """How many of `expected` lack a distinct partner in `got` within
    tol*(1+|value|), greedy nearest matching, plus any count imbalance."""
    if not expected and not got:
        return 0
    mism = abs(len(expected) - len(got))
    if not expected or not got:
        return max(mism, len(expected), len(got))
    gv = np.asarray(got, dtype=complex)
    used = np.zeros(len(got), dtype=bool)
    for a in expected:
        d = np.abs(gv - a)
        d[used] = np.inf
        j = int(np.argmin(d))
        if d[j] <= tol * (1.0 + abs(a)):
            used[j] = True
        else:
            mism += 1
    return mism
