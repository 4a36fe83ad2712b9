"""Numerical root finding for the exact kernels.

Univariate roots come from Aberth-Ehrlich simultaneous iteration.  Up to
degree EIG_START_MAX_DEGREE it starts from the eigenvalues of the
companion matrix, when they are finite and pairwise distinct (a zero is
fine, as a_0 != 0); otherwise, and at higher degree, from the circles of
the Newton polygon of log|a_j|, one per edge, with a deterministic angular
perturbation (`_start_points`).  Each sweep evaluates the points that have
not stopped, on their side of the unit circle, by a factored power table
against a coefficient layout built once per run, and corrects them by
S_k = sum_j 1/(z_k - z_j) over all points: a
stopped point is frozen but stays in every S_k.  A root stops when its
correction is below ABERTH_TOL or its value is at the rounding floor of
the power sum (`_aberth_batch`); a root flagged unconverged met neither
test.  `_root_multisets` turns those roots into distinct roots with
exact multiplicities, for n = 1 and both eliminants at n = 2: pairwise
disjoint Newton inclusion disks prove them simple, and only where the
disks touch does the exact square-free structure decide.  Bivariate
systems are solved through both exact eliminants, without
back-substitution: the roots of Res_x (the y coordinates) and of Res_y
(the x coordinates) are paired by their scaled residual and polished by
2x2 Newton steps; one overflow-safe evaluator of p(x, y) / s^deg,
s = max(1, |x|, |y|) (`_scaled_values`), gives the pair scores, the Newton
steps and the residuals.  `dropped` counts y roots left unpaired,
`cross_check_mismatches` x multiplicity left unpaired, and `iterations`
the Aberth sweeps of both eliminants.

Output ordering is normalized (lexicographic by real/imaginary parts) so
results do not depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .lattice import mixed_volume
from .polynomials import IntPolynomial, sup_norm_upper, univariate_coeffs
from .resultants import (
    UnsupportedDimensionError,
    eliminant_bivariate,
    poly_primitive,
    roots_structure,
    trim,
)


class SolverError(RuntimeError):
    pass


class NonIsolatedError(SolverError):
    """The eliminant vanished identically: shared factor, zeros not isolated."""


ABERTH_MAX_SWEEPS = 200
ABERTH_TOL = 1e-13
# eigenvalue starts up to this degree; LAPACK's dhseqr switches to blocked
# QR, whose rounding may depend on the BLAS thread count, at order 75
EIG_START_MAX_DEGREE = 64
UNIT_ROUNDOFF = 2.0**-53
ROUNDING_FLOOR = 4 * UNIT_ROUNDOFF  # C * u of the rounding-floor stop
DISK_SLACK = 1e-12  # covers rounding of radii and centre distances (~20 u)
NEWTON_PAIR_STEPS = 2
JACOBIAN_FLOOR = 1e-8  # |det J| relative to its two products: singular
RESIDUAL_TOL = 1e-6
OUT_OF_RANGE = "the coefficients are out of double range"


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


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """x^0..x^(n-1) along a new last axis, from one cumprod."""
    out = np.ones(x.shape + (n,), dtype=complex)
    out[..., 1:] = x[..., None]
    return np.cumprod(out, axis=-1, out=out)


def _layout(coeff_rows: np.ndarray) -> np.ndarray:
    """The (rows, 1, 4 m, m) coefficient layout of `_eval_one_side` for the
    (rows, deg+1) coefficients, lowest power first, m = isqrt(deg) + 1:
    per row, [a, reversed a, the derivative of each], each zero-padded to
    m^2 and cut into m blocks of m.  Built once per polynomial."""
    rows, width = coeff_rows.shape
    m = math.isqrt(width - 1) + 1
    coeffs = np.zeros((rows, 1, 4, m * m), dtype=complex)
    coeffs[:, 0, 0, :width] = coeff_rows
    coeffs[:, 0, 1, :width] = coeff_rows[:, ::-1]
    coeffs[:, 0, 2:, : width - 1] = coeffs[:, 0, :2, 1:width] * np.arange(1, width)
    return coeffs.reshape(rows, 1, 4 * m, m)


def _eval_one_side(layout: np.ndarray, z: np.ndarray):
    """(outside, v, value, derivative) on each point's side of the unit circle.

    `layout` is the `_layout` of (rows, deg+1) coefficients; `z` is
    (rows, npts).  Points with |z| <= 1 are evaluated at v = z, the others
    on the reversed polynomial u^deg p(1/u) at v = 1/z, so |v| <= 1 and no
    power overflows.  As v^(i m + j) = (v^m)^i v^j with m^2 >= deg+1, the
    rows [a, reversed a, the derivative of each] meet the powers v^j, then
    (v^m)^i, in two matrix-vector products per point; no points x degree
    table is formed, and no BLAS gemm, whose rounding depends on the
    thread count, is used.
    """
    m = layout.shape[-1]
    outside = np.abs(z) > 1.0
    v = np.where(outside, 1.0 / np.where(outside, z, 1.0), z)
    low = _powers(v, m)
    inner = np.matvec(layout, low)
    step = low[..., -1] * v
    del low  # the two power tables are never alive together
    out = np.matvec(inner.reshape(z.shape + (4, m)), _powers(step, m))
    p = np.where(outside, out[..., 1], out[..., 0])
    dp = np.where(outside, out[..., 3], out[..., 2])
    return outside, v, p, dp


def _newton_ratio(layout: np.ndarray, deg: int, z: np.ndarray):
    """(w, p): w = p(z)/p'(z), overflow-safe on both sides of the unit
    circle, and p the value on the point's side (`_eval_one_side` of the
    degree-`deg` polynomials whose `_layout` is given).

    Outside the unit disk the ratio is taken through the reversed
    polynomial q(u) = u^deg p(1/u): the z^deg factors cancel in
    w = z q(u) / (deg q(u) - u q'(u)), so a degree-100 polynomial at
    |z| ~ 1e4 stays in range; there p is q(1/z).
    """
    outside, v, p, dp = _eval_one_side(layout, z)
    num = np.where(outside, z * p, p)
    den = np.where(outside, deg * p - v * dp, dp)
    return num / np.where(den == 0, 1e-300, den), p


def _at_rounding_floor(abs_layout, norm1, z, p, cand):
    """Which points of `cand` have |p| <= ROUNDING_FLOOR * e, where
    e = sum_j |a_j| |v|^j is the error scale of the power sum that gave p
    (v = z or 1/z, a reversed outside): `_eval_one_side` of the `_layout`
    of |a| at |z|, nonnegative terms rounded within a relative 4 (deg + 1) u.

    e <= ||a||_1, so |p| <= ROUNDING_FLOOR * ||a||_1 pre-filters for free
    and e is formed for the few points that pass it.
    """
    absp = np.abs(p)
    cand = cand & (absp <= ROUNDING_FLOOR * norm1[:, None])
    for r in np.flatnonzero(cand.any(axis=1)):
        k = np.flatnonzero(cand[r])
        _, _, e, _ = _eval_one_side(abs_layout[r : r + 1], np.abs(z[r, k])[None, :])
        cand[r, k] = absp[r, k] <= ROUNDING_FLOOR * e[0].real
    return cand


def _pairwise_inverse_sum(z: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """S_k = sum_{j != k} 1/(z_k - z_j) over all points z_j, for each k in
    `idx`, in blocks of 256 rows of k, written into one 256 x len(z) buffer
    per call."""
    out = np.empty(len(idx), dtype=complex)
    buf = np.empty((min(len(idx), 256), len(z)), dtype=complex)
    for a in range(0, len(idx), 256):
        rows = idx[a : a + 256]
        diff = buf[: len(rows)]
        np.subtract(z[rows, None], z, out=diff)
        diff[np.arange(len(rows)), rows] = np.inf
        np.divide(1.0, diff, out=diff)
        diff.sum(axis=1, out=out[a : a + 256])
    return out


def _polygon_start(coeffs: np.ndarray) -> np.ndarray:
    """Starting points on the circles of the Newton polygon (Bini, Numer.
    Algorithms 13, 1996), for coefficients lowest power first, a_0 and
    a_d nonzero.

    The upper hull of (j, log|a_j|) over the nonzero a_j, walked once in
    Python floats, gives each edge i0 -> i1 its i1 - i0 points, at radius
    (|a_i0| / |a_i1|)^(1/(i1 - i0)) and angles
    2 pi (k + 0.3618) / (i1 - i0) + 2 pi i0 / deg, plus a deterministic
    perturbation.  So roots of very different moduli start near their own
    circles; a polygon of one edge is the circle of radius
    (|a_0/a_d|)^(1/deg).
    """
    deg = len(coeffs) - 1
    mag = np.abs(coeffs).tolist()
    hull = []  # (j, log|a_j|), collinear points dropped
    for j, a in enumerate(mag):
        if not a:
            continue
        log = math.log(a)
        while len(hull) > 1:
            (j0, l0), (j1, l1) = hull[-2:]
            if (l1 - l0) * (j - j0) > (log - l0) * (j1 - j0):
                break  # hull[-1] lies above the chord to (j, log)
            hull.pop()
        hull.append((j, log))
    ends = [j for j, _ in hull]
    n = np.diff(ends)
    radius = [(mag[i0] / mag[i1]) ** (1.0 / (i1 - i0)) for i0, i1 in zip(ends, ends[1:])]
    first = np.repeat(ends[:-1], n)  # each point's edge starts there
    k = np.arange(deg)
    jitter = ((k * 2654435761) % 997) / 997.0 - 0.5
    angles = 2 * np.pi * (k - first + 0.3618) / np.repeat(n, n) + 2 * np.pi * first / deg
    return np.repeat(radius, n) * np.exp(1j * (angles + 1e-3 * jitter))


def _start_points(coeffs: np.ndarray) -> np.ndarray:
    """Aberth's starting points for the roots of one polynomial, lowest
    power first, a_0 and lc nonzero.

    Up to degree EIG_START_MAX_DEGREE: the eigenvalues of the companion
    matrix, which are backward stable (Edelman & Murakami, Math. Comp. 64,
    1995), so Aberth then stops within a few sweeps.  Starts that are not
    finite and pairwise distinct would stall or fool the iteration; they,
    and higher degrees, take the Newton polygon's circles (`_polygon_start`).
    """
    deg = len(coeffs) - 1
    if deg <= EIG_START_MAX_DEGREE:
        a = coeffs.real  # integer coefficients, scaled
        companion = np.eye(deg, k=-1)
        with np.errstate(all="ignore"):
            companion[:, -1] = -a[:-1] / a[-1]
            try:
                z = np.linalg.eigvals(companion).astype(complex)
            except np.linalg.LinAlgError:  # a non-finite entry, or no convergence
                z = np.zeros(deg, dtype=complex)
        if np.isfinite(z).all() and len(np.unique(z)) == deg:
            return z
    return _polygon_start(coeffs)


def _aberth_batch(coeffs: np.ndarray):
    """All roots of one polynomial, lowest power first, a_0 and lc
    nonzero, from the starting points of `_start_points`.

    A point stops when its Aberth correction is below ABERTH_TOL
    (relative), or when |p| is within ROUNDING_FLOOR of the error scale
    sum_j |a_j| |v|^j of its evaluation (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1 and 5.1; MPSolve's stopping rule): p is then
    rounding noise, and an ill-conditioned root, whose correction wanders
    at noise level, is as accurate as doubles allow.  Each sweep evaluates
    and corrects only the active points `idx`; a stopped point is frozen
    but stays in every S_k, so each active point's sum is the one of the
    full-set iteration.  The coefficient layouts of a and of |a| are built
    once per run.  Returns (roots, converged, sweeps); a root that
    stopped by neither rule within ABERTH_MAX_SWEEPS is flagged, never
    silently dropped.  Raises SolverError on starting points that are not
    finite.
    """
    deg = len(coeffs) - 1
    if deg < 1:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=bool), 0
    row = coeffs[None, :]
    z = _start_points(coeffs)
    if not np.isfinite(z).all():
        raise SolverError(f"{OUT_OF_RANGE}: Aberth's starting points are not finite")
    abs_row = np.abs(row)
    norm1 = abs_row.sum(axis=1)
    idx = np.arange(deg)  # the active points
    sweeps = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        layout, abs_layout = _layout(row), _layout(abs_row)
        while sweeps < ABERTH_MAX_SWEEPS and idx.size:
            sweeps += 1
            za = z[idx]
            (w,), p = _newton_ratio(layout, deg, za[None])
            denom = 1.0 - w * _pairwise_inverse_sum(z, idx)
            corr = w / np.where(denom == 0, 1e-300, denom)
            bad = ~np.isfinite(corr)
            if bad.any():  # last-resort rescue, should not trigger anymore
                corr = np.where(bad, 0.5 * za, corr)
            done = np.abs(corr) <= ABERTH_TOL * (1.0 + np.abs(za))
            done |= _at_rounding_floor(abs_layout, norm1, za[None], p, ~done[None])[0]
            z[idx] = za - corr
            idx = idx[~done]
    converged = np.ones(deg, dtype=bool)
    converged[idx] = False
    return z, converged, sweeps


@dataclass(frozen=True)
class RootsResult:
    roots: np.ndarray
    converged: np.ndarray
    sweeps: int
    coeffs: np.ndarray  # what Aberth ran on: zero roots split off, scaled


def roots_univariate(coeffs) -> RootsResult:
    """All complex roots of a univariate integer polynomial.

    Roots at the origin (trailing zero coefficients) are split off
    exactly; the rest go through scaled Aberth iteration.  Practical up
    to degree ~2000 (the pairwise correction is O(active * d) per sweep).
    Raises SolverError on a coefficient that is not an integer, and when
    the coefficients are out of double range: scaling zeroes an end
    coefficient, or the starting points or the roots are not finite.
    """
    cs = list(coeffs)
    if not all(isinstance(c, int) for c in cs):
        raise SolverError("root finding needs integer coefficients")
    cs = trim(cs)
    deg = len(cs) - 1
    if deg < 1:
        raise SolverError("root finding needs degree >= 1")
    nzero = 0
    while cs and cs[0] == 0:
        cs.pop(0)
        nzero += 1
    scaled = scaled_float_coeffs(cs)
    if not (scaled[0] and scaled[-1]):
        raise SolverError(f"{OUT_OF_RANGE}: scaling zeroes an end coefficient")
    if len(cs) <= 1:
        roots = np.zeros(nzero, dtype=complex)
        return RootsResult(roots, np.ones(nzero, dtype=bool), 0, scaled)
    z, conv, sweeps = _aberth_batch(scaled.astype(complex))
    if not np.isfinite(z).all():
        raise SolverError(f"{OUT_OF_RANGE}: the roots are not finite")
    roots = np.concatenate([z, np.zeros(nzero, dtype=complex)])
    converged = np.concatenate([conv, np.ones(nzero, dtype=bool)])
    order = np.lexsort((roots.imag, roots.real))
    return RootsResult(roots[order], converged[order], sweeps, scaled)


# ---------------------------------------------------------------------------
# distinct roots with exact multiplicities


def _inclusion_radii(coeffs: np.ndarray, z: np.ndarray):
    """(r, p) at the points z: p the value on each point's side of the
    unit circle (`_eval_one_side`), r a radius such that |zeta - z| <= r
    provably holds a root of the integer polynomial that `coeffs`, lowest
    power first with a_0 != 0, rounds.  Exact zeros of z, roots split off
    before, get r = p = 0.

    r is Newton's deg |p|+ / |p'|-, or inf where |p'|- <= 0.  p and p'
    are within (4 deg + 8) u e and (4 deg + 8) u e', where
    e = sum_j |a_j| |v|^j and e' = sum_j j |a_j| |v|^(j-1) are the power
    sum of |a| at |z| on the point's side, taken in the same
    `_eval_one_side` call as p and p': the
    power sum's 4 (deg + 1) u, the coefficient rounding and, to second
    order, that of e and e'; underflow adds 4 (deg + 1)^2 2^-1074.  Outside
    the unit circle, v = fl(1/z) is 1/z' for a z' within 8 u |z| of z
    (complex division rounds within about 5 u), r gains that 8 u |z|, and
    p/p' = z' q(v) / (deg q(v) - v q'(v)) with q(v) = v^deg p(1/v), whose
    denominator is formed within 10 u (deg |q| + |v| |q'|).
    """
    deg, u = len(coeffs) - 1, UNIT_ROUNDOFF
    rows = _layout(np.stack([coeffs, np.abs(coeffs)]))
    outside, v, (p, e), (dp, de) = _eval_one_side(rows, np.stack([z, np.abs(z)]))
    outside, v, e, de = outside[0], v[0], e.real, de.real
    tiny = 4 * (deg + 1) ** 2 * 2.0**-1074
    pe, dpe = (4 * deg + 8) * u * e + tiny, (4 * deg + 8) * u * de + tiny
    ap, adp, av, az = np.abs(p), np.abs(dp), np.abs(v), np.abs(z)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        den = np.abs(deg * p - v * dp) - deg * pe - av * dpe
        den = np.where(outside, den - 10 * u * (deg * ap + av * adp), adp - dpe)
        r = deg * np.where(outside, az, 1.0) * (ap + pe) / np.where(den > 0, den, 0.0)
    r += np.where(outside, 8 * u * az, 0.0)
    zero = z == 0
    return np.where(zero, 0.0, r), np.where(zero, 0, p)


def _disjoint(z: np.ndarray, r: np.ndarray) -> bool:
    """Whether the disks |zeta - z_k| <= r_k are pairwise apart by more
    than (1 + DISK_SLACK) (r_i + r_j).  In real-part order only pairs k
    apart whose real parts differ by at most 2 max r can meet, for
    k = 1, 2, ... up to the first k without one."""
    reach = (1 + DISK_SLACK) * r
    if not (np.isfinite(z).all() and np.isfinite(reach).all()):
        return False
    order = np.argsort(z.real, kind="stable")
    z, reach = z[order], reach[order]
    for k in range(1, len(z)):
        i = np.flatnonzero(z.real[k:] - z.real[:-k] <= 2 * reach.max())
        if not i.size:
            break
        if not (np.abs(z[i + k] - z[i]) > reach[i] + reach[i + k]).all():
            return False
    return True


def _root_multisets(named):
    """Distinct roots with exact multiplicities of each (name, integer
    coefficients) pair, for n = 1 and both eliminants at n = 2.

    Aberth runs on the primitive polynomial (`roots_univariate`), whose
    exact zero roots merge into one.  If every root converged and the
    inclusion disks of the others (`_inclusion_radii`) are pairwise
    disjoint, each disk holds exactly one root: all are simple.  The rest
    take one batched `roots_structure`, with a warning: proven
    square-free, a polynomial keeps its roots; split by Yun, it is solved
    factor by factor.

    Returns ([(roots, multiplicities, residuals)] per polynomial, Aberth
    sweeps, isolation radius, warnings).  A residual is |p(z)| / ||a||_1
    on the root's side of the unit circle; the isolation radius is the
    largest disk radius relative to max(1, |z|), or None unless the disks
    proved every polynomial.
    """
    found, failed, sweeps, radius, warnings = [], [], 0, 0.0, []
    for name, coeffs in named:
        prim = poly_primitive(coeffs)
        res = roots_univariate(prim)
        nzero = next(i for i, c in enumerate(prim) if c)
        zero = res.roots == 0
        keep = ~zero
        keep[np.flatnonzero(zero)[:1]] = True
        roots, mults = res.roots[keep], np.where(zero, nzero, 1)[keep]
        scaled = res.coeffs
        r, p = _inclusion_radii(scaled, roots)
        sweeps += res.sweeps
        if res.converged.all() and zero.sum() == nzero and _disjoint(roots, r):
            radius = max(radius, float(np.max(r / np.maximum(np.abs(roots), 1.0))))
        else:
            failed.append(len(found))
            warnings.append(
                f"the inclusion disks of {name} did not isolate its roots: "
                "multiplicities from its exact square-free structure"
            )
        found.append([roots, mults, p, res.converged, name, prim, scaled])
    structures = roots_structure(*(found[k][5] for k in failed)) if failed else []
    for k, structure in zip(failed, structures):
        if structure == [(found[k][5], 1)]:
            continue  # proven square-free: the roots stay
        runs = [roots_univariate(f) for f, _ in structure]
        sweeps += sum(res.sweeps for res in runs)
        roots = np.concatenate([res.roots for res in runs])
        mults = np.repeat([m for _, m in structure], [len(res.roots) for res in runs])
        converged = np.concatenate([res.converged for res in runs])
        found[k][:4] = roots, mults, _inclusion_radii(found[k][6], roots)[1], converged
    out = []
    for roots, mults, p, converged, name, _, scaled in found:
        if not converged.all():
            warnings.append(f"{int((~converged).sum())} roots of {name} unconverged")
        out.append((roots, mults, np.abs(p) / np.abs(scaled).sum()))
    return out, sweeps, None if failed else radius, warnings


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


@dataclass(frozen=True)
class SolveDiagnostics:
    eliminant_degree: int
    iterations: int
    max_residual: float
    isolation_radius: float | None  # None where the disks proved nothing
    residual_threshold: float
    count_expected: int
    count_found: int
    dropped: int = 0
    cross_check_mismatches: int = 0
    warnings: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {**asdict(self), "warnings": list(self.warnings)}


def solve_univariate_cycle(f: IntPolynomial):
    """ZeroCycle of a one-variable polynomial plus diagnostics: its
    distinct roots with exact multiplicities and scaled residuals
    (`_root_multisets`)."""
    if f.nvars != 1:
        raise SolverError("expected a univariate polynomial")
    coeffs = univariate_coeffs(f)
    [(roots, mults, resid)], sweeps, radius, warnings = _root_multisets([("f", coeffs)])
    pts = [
        CyclePoint((complex(roots[i]),), int(mults[i]), float(resid[i]))
        for i in np.lexsort((roots.imag, roots.real))
    ]
    cycle = ZeroCycle(dim=1, points=tuple(pts), residual_threshold=RESIDUAL_TOL)
    diag = SolveDiagnostics(
        eliminant_degree=f.degree,
        iterations=sweeps,
        max_residual=float(np.max(resid, initial=0.0)),
        isolation_radius=radius,
        residual_threshold=RESIDUAL_TOL,
        count_expected=f.degree,
        count_found=cycle.degree,
        warnings=tuple(warnings),
    )
    return cycle, diag


def _dense_coeffs(f: IntPolynomial, deg: int) -> np.ndarray:
    """(3, deg+1, deg+1): f, df/dx and df/dy as arrays [a, b] of the
    coefficients of x^a y^b, zero-padded to a total degree deg >= f's."""
    out = np.zeros((3, deg + 1, deg + 1))
    for (a, b), c in f.terms:
        out[0, a, b] = float(c)
    up = np.arange(1, deg + 1)
    out[1, :-1] = out[0, 1:] * up[:, None]
    out[2, :, :-1] = out[0, :, 1:] * up
    return out


def _horner(h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_a h[:, a] z^a by Horner's rule, h[:, a] broadcasting against z."""
    out = np.zeros((len(h),) + z.shape, dtype=complex)
    out += h[:, -1]
    for a in range(h.shape[1] - 2, -1, -1):
        out *= z
        out += h[:, a]
    return out


def _scaled_values(coeffs: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """p(x, y) / s^deg, s = max(1, |x|, |y|), for each p of the stack
    `coeffs` of (deg+1, deg+1) arrays, [a, b] the coefficient of x^a y^b
    and zero where a + b > deg, over the broadcast of x and y; y has the
    broadcast's number of dimensions.

    Per y, the coefficient of x^a over sy^(deg-a), sy = max(1, |y|), is
    h_a = sum_b c_ab (y/sy)^b (1/sy)^(deg-a-b), one einsum: without
    `optimize` it takes no BLAS, whose rounding would depend on the thread
    count.  Then p / s^deg = (sy/s)^deg sum_a h_a z^a, z = x/sy, by
    Horner's rule.  Up to |z|^deg = 2^600 neither the sum nor its factor
    leaves the double range, and the scaled rounding error is that of
    terms bounded by |h_a| <= sum_b |c_ab|; farther out the sum runs on
    the reversed side, (z/|z|)^deg sum_a h_a z^(a-deg).
    """
    deg = coeffs.shape[-1] - 1
    sy = np.maximum(np.abs(y), 1.0)
    e = np.arange(deg + 1)
    inv = _powers(1.0 / sy, deg + 1)[..., np.maximum(deg - e[:, None] - e, 0)]
    h = np.einsum("rab,...b,...ab->ra...", coeffs, _powers(y / sy, deg + 1), inv)
    z = x / sy
    far = np.abs(z) > 2.0 ** (600 / deg)
    out = _horner(h, np.where(far, 0.0, z)) * (sy / np.maximum(np.abs(x), sy)) ** deg
    if far.any():
        z = z[far]
        h = np.broadcast_to(h, h.shape[:2] + far.shape)[:, :, far]
        out[:, far] = _horner(h[:, ::-1], 1.0 / z) * (z / np.abs(z)) ** deg
    return out


def _pair_scores(values, sups, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(len(ys), len(xs)) matrix of max_i |f_i(x_j, y_k)| / (sup_i * s^deg_i),
    s = max(1, |x_j|, |y_k|), from `_scaled_values` of each f_i's value row
    at its own degree: the scaled residual of every pairing that f1 passes,
    and f1's failing score at the others.  `_greedy_pairs` reads only the
    scores <= RESIDUAL_TOL, so f2 is evaluated only at the pairs whose f1
    score is.
    """
    scores = np.abs(_scaled_values(values[0], xs, ys[:, None])[0]) / sups[0]
    k, j = np.nonzero(scores <= RESIDUAL_TOL)
    f2 = np.abs(_scaled_values(values[1], xs[j], ys[k])[0]) / sups[1]
    scores[k, j] = np.maximum(scores[k, j], f2)
    return scores


def _greedy_pairs(scores: np.ndarray, ymults, xmults):
    """Pair y roots with x roots, best score first.

    Each y root k takes up to ymults[k] distinct x roots, each x root j
    serves at most xmults[j] y roots, and only scores <= RESIDUAL_TOL
    count.  A y root that finds fewer distinct partners than its
    multiplicity (a tangential zero, or a multiple root shared by both
    eliminants) stacks the rest on its partners that have multiplicity
    left, best first, and only then on its best one.  Returns
    ({(k, j): mult}, the x capacities left over, negative where stacking
    overdrew one).
    """
    need = np.array(ymults, dtype=int)
    cap = np.array(xmults, dtype=int)
    passing = np.flatnonzero(scores <= RESIDUAL_TOL)
    pairs, best = {}, {}
    for flat in passing[np.argsort(scores.flat[passing], kind="stable")]:
        k, j = divmod(int(flat), len(cap))
        if need[k] and cap[j]:
            pairs[k, j] = 1
            best.setdefault(k, j)
            need[k] -= 1
            cap[j] -= 1
    for k, j in list(pairs):
        take = int(min(need[k], cap[j]))
        pairs[k, j] += take
        need[k] -= take
        cap[j] -= take
    for k, j in best.items():
        pairs[k, j] += int(need[k])
        cap[j] -= need[k]
    return pairs, cap


def _newton_2x2(coeffs: np.ndarray, x: np.ndarray, y: np.ndarray):
    """NEWTON_PAIR_STEPS Newton steps on (f1, f2) from the points (x, y),
    `coeffs` the stacked `_dense_coeffs` of f1 and f2 at one degree.

    Each step is one `_scaled_values` call on the six rows; the factor
    s^-deg common to each polynomial's value and partials cancels in the
    step and in the JACOBIAN_FLOOR test.  A point whose Jacobian is
    singular up to JACOBIAN_FLOOR (a tangential zero) or whose step is not
    small stays where it is.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(NEWTON_PAIR_STEPS):
            f, fx, fy, g, gx, gy = _scaled_values(coeffs, x, y)
            a, b = fx * gy, fy * gx
            det = a - b
            dx = (f * gy - g * fy) / det
            dy = (fx * g - gx * f) / det
            ok = np.abs(det) > JACOBIAN_FLOOR * (np.abs(a) + np.abs(b))
            ok &= np.isfinite(dx) & np.isfinite(dy)
            ok &= np.abs(dx) <= 1e-2 * (1.0 + np.abs(x))
            ok &= np.abs(dy) <= 1e-2 * (1.0 + np.abs(y))
            x = x - np.where(ok, dx, 0.0)
            y = y - np.where(ok, dy, 0.0)
    return x, y


def solve_bivariate(f1: IntPolynomial, f2: IntPolynomial):
    """All isolated solutions of f1 = f2 = 0 as a ZeroCycle.

    The roots of Res_x (the y coordinates) and of Res_y (the x
    coordinates), with their exact multiplicities, are paired by the
    scaled residual on both polynomials, best first, and polished by
    Newton steps on (f1, f2); there is no back-substitution.  A y root
    with no x partner under RESIDUAL_TOL counts in `dropped`, x
    multiplicity left unpaired (or overdrawn by stacking) in
    `cross_check_mismatches`; the scaled evaluator cannot overflow, so
    far-out zeros are paired too.  Raises NonIsolatedError when either
    eliminant vanishes identically, and SolverError when coefficients are
    out of double range.

    Desk scale: total degrees up to ~16 per input (eliminant degree 256).
    At d = 4 to 12 the eliminants, taken modulo word-size primes and
    interpolated by a cached matrix, are about 30% of a solve, Aberth
    30-45%, and the inclusion disks and the pairing (mostly f1 at all d^4
    root pairs) the rest; the square-free certificate runs on the few
    eliminants whose disks touch.
    """
    ry = eliminant_bivariate(f1, f2, "x")  # polynomial in y
    rx = eliminant_bivariate(f1, f2, "y")  # polynomial in x
    if not ry or not rx:
        raise NonIsolatedError("zero eliminant: the system has a shared factor")
    expected = int(mixed_volume([f1.newton_polytope, f2.newton_polytope]))
    if len(ry) == 1:
        diag = SolveDiagnostics(
            eliminant_degree=0,
            iterations=0,
            max_residual=0.0,
            isolation_radius=None,
            residual_threshold=RESIDUAL_TOL,
            count_expected=expected,
            count_found=0,
        )
        return ZeroCycle(2, (), RESIDUAL_TOL), diag

    ((ys, ymults, _), (xs, xmults, _)), sweeps, radius, warnings = _root_multisets(
        [("Res_x", ry), ("Res_y", rx)]
    )
    try:
        sups = [float(sup_norm_upper(f1)), float(sup_norm_upper(f2))]
    except OverflowError:
        raise SolverError(f"{OUT_OF_RANGE}: sum |c_J| of f1 or f2 is past it") from None
    polys = (f1, f2)
    coeffs = [_dense_coeffs(f, max(f1.degree, f2.degree)) for f in polys]
    values = [c[:1, : f.degree + 1, : f.degree + 1] for c, f in zip(coeffs, polys)]
    pairs, cap = _greedy_pairs(_pair_scores(values, sups, xs, ys), ymults, xmults)

    paired = {k for k, _ in pairs}
    dropped = 0
    for k in range(len(ys)):
        if k not in paired:
            dropped += int(ymults[k])
            warnings.append(f"y={ys[k]:.6g} has no x partner under the residual filter")
    ks = np.array([k for k, _ in pairs], dtype=int)
    js = np.array([j for _, j in pairs], dtype=int)
    x, y = _newton_2x2(np.concatenate(coeffs), xs[js], ys[ks])
    resid = np.maximum(
        *(np.abs(_scaled_values(c, x, y)[0]) / sup for c, sup in zip(values, sups))
    )
    mults = list(pairs.values())
    points = [
        CyclePoint((complex(x[i]), complex(y[i])), mults[i], float(resid[i]))
        for i in np.lexsort((y.imag, y.real, x.imag, x.real))
    ]

    cycle = ZeroCycle(dim=2, points=tuple(points), residual_threshold=RESIDUAL_TOL)
    diag = SolveDiagnostics(
        eliminant_degree=len(ry) - 1,
        iterations=sweeps,
        max_residual=max((p.residual for p in points), default=0.0),
        isolation_radius=radius,
        residual_threshold=RESIDUAL_TOL,
        count_expected=expected,
        count_found=cycle.degree,
        dropped=dropped,
        cross_check_mismatches=int(np.abs(cap).sum()),
        warnings=tuple(warnings),
    )
    return cycle, diag


def solve_system(polys):
    """(ZeroCycle, SolveDiagnostics) of n = 1 or n = 2 polynomials in as
    many variables; raises UnsupportedDimensionError for n >= 3."""
    if len(polys) == 1:
        return solve_univariate_cycle(polys[0])
    if len(polys) == 2:
        return solve_bivariate(*polys)
    raise UnsupportedDimensionError("solving is implemented for n in {1, 2}")
