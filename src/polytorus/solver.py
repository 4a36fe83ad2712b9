"""Numerical root finding for the exact kernels.

Univariate roots come from Aberth-Ehrlich simultaneous iteration.  Up to
degree EIG_START_MAX_DEGREE it starts from the eigenvalues of the
companion matrix, when they are finite, nonzero and pairwise distinct;
otherwise, and at higher degree, from a circle of radius
(|a_0/a_d|)^(1/deg) with a deterministic angular perturbation
(`_start_points`).  Each sweep evaluates the points that have not
stopped, on their side of the unit circle, by a factored power table,
and corrects them by S_k = sum_j 1/(z_k - z_j) over all points: a
stopped point is frozen but stays in every S_k.  A root stops when its
correction is below ABERTH_TOL or its value is at the rounding floor of
the power sum (`_aberth_batch`); a root flagged unconverged met neither
test.  Bivariate systems are solved through both
exact eliminants, without back-substitution: the roots of Res_x (the y
coordinates) and of Res_y (the x coordinates) are paired by their scaled
residual and polished by 2x2 Newton steps.  `dropped` counts y roots left
unpaired, `cross_check_mismatches` x multiplicity left unpaired, and
`iterations` the Aberth sweeps of both eliminants.

Output ordering is normalized (lexicographic by real/imaginary parts) so
results do not depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .lattice import mixed_volume
from .polynomials import IntPolynomial, sup_norm_upper
from .resultants import eliminant_bivariate, roots_structure, trim


class SolverError(RuntimeError):
    pass


class NonIsolatedError(SolverError):
    """The eliminant vanished identically: shared factor, zeros not isolated."""


ABERTH_MAX_SWEEPS = 200
ABERTH_TOL = 1e-13
# eigenvalue starts up to this degree; LAPACK's dhseqr switches to blocked
# QR, whose rounding may depend on the BLAS thread count, at order 75
EIG_START_MAX_DEGREE = 64
ROUNDING_FLOOR = 4 * 2.0**-53  # C * u of the rounding-floor stop
NEWTON_PAIR_STEPS = 2
JACOBIAN_FLOOR = 1e-8  # |det J| relative to its two products: singular
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


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """x^0..x^(n-1) along a new last axis, from one cumprod."""
    out = np.ones(x.shape + (n,), dtype=complex)
    out[..., 1:] = x[..., None]
    return np.cumprod(out, axis=-1, out=out)


def _eval_one_side(coeff_rows: np.ndarray, z: np.ndarray):
    """(outside, v, value, derivative) on each point's side of the unit circle.

    `coeff_rows` is (rows, deg+1), lowest power first; `z` is (rows, npts).
    Points with |z| <= 1 are evaluated at v = z, the others on the reversed
    polynomial u^deg p(1/u) at v = 1/z, so |v| <= 1 and no power overflows.
    As v^(i m + j) = (v^m)^i v^j with m^2 >= deg+1, the rows [a, reversed a,
    the derivative of each] meet the powers v^j, then (v^m)^i, in two
    matrix-vector products per point; no points x degree table is formed,
    and no BLAS gemm, whose rounding depends on the thread count, is used.
    """
    rows, width = coeff_rows.shape
    outside = np.abs(z) > 1.0
    v = np.where(outside, 1.0 / np.where(outside, z, 1.0), z)
    m = math.isqrt(width - 1) + 1
    coeffs = np.zeros((rows, 1, 4, m * m), dtype=complex)
    coeffs[:, 0, 0, :width] = coeff_rows
    coeffs[:, 0, 1, :width] = coeff_rows[:, ::-1]
    coeffs[:, 0, 2:, : width - 1] = coeffs[:, 0, :2, 1:width] * np.arange(1, width)
    low = _powers(v, m)
    inner = np.matvec(coeffs.reshape(rows, 1, 4 * m, m), low)
    step = low[..., -1] * v
    del low  # the two power tables are never alive together
    out = np.matvec(inner.reshape(z.shape + (4, m)), _powers(step, m))
    p = np.where(outside, out[..., 1], out[..., 0])
    dp = np.where(outside, out[..., 3], out[..., 2])
    return outside, v, p, dp


def _newton_ratio(coeff_rows: np.ndarray, z: np.ndarray):
    """(w, p): w = p(z)/p'(z), overflow-safe on both sides of the unit
    circle, and p the value on the point's side (`_eval_one_side`).

    Outside the unit disk the ratio is taken through the reversed
    polynomial q(u) = u^deg p(1/u): the z^deg factors cancel in
    w = z q(u) / (deg q(u) - u q'(u)), so a degree-100 polynomial at
    |z| ~ 1e4 stays in range; there p is q(1/z).
    """
    deg = coeff_rows.shape[1] - 1
    outside, v, p, dp = _eval_one_side(coeff_rows, z)
    num = np.where(outside, z * p, p)
    den = np.where(outside, deg * p - v * dp, dp)
    return num / np.where(den == 0, 1e-300, den), p


def _at_rounding_floor(abs_rows, norm1, z, p, cand):
    """Which points of `cand` have |p| <= ROUNDING_FLOOR * e, where
    e = sum_j |a_j| |v|^j on the point's side (v = z or 1/z, |v| <= 1) is
    the error scale of the power sum that gave p (`_eval_one_side`).

    e <= ||a||_1, so |p| <= ROUNDING_FLOOR * ||a||_1 pre-filters for free
    and e is formed for the few points that pass it.
    """
    absp = np.abs(p)
    cand = cand & (absp <= ROUNDING_FLOOR * norm1[:, None])
    if cand.any():
        r, k = np.nonzero(cand)
        av = np.abs(z[r, k])
        outside = av > 1.0
        av = np.where(outside, 1.0 / np.where(outside, av, 1.0), av)
        a = np.where(outside[:, None], abs_rows[r, ::-1], abs_rows[r])
        e = (a * av[:, None] ** np.arange(abs_rows.shape[1])).sum(axis=1)
        cand[r, k] = absp[r, k] <= ROUNDING_FLOOR * e
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


def _start_points(coeffs: np.ndarray) -> np.ndarray:
    """Aberth's starting points for the roots of one polynomial, lowest
    power first, lc nonzero.

    Up to degree EIG_START_MAX_DEGREE: the eigenvalues of the companion
    matrix, which are backward stable (Edelman & Murakami, Math. Comp. 64,
    1995), so Aberth then stops within a few sweeps.  Starts that are not
    finite, nonzero and pairwise distinct would stall or fool the
    iteration; they, and higher degrees, take a circle of radius
    (|a_0/a_d|)^(1/deg), clipped to [1e-3, 1e3], with a deterministic
    angular perturbation.
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
        if np.isfinite(z).all() and z.all() and len(np.unique(z)) == deg:
            return z
    c0, lc = np.abs(coeffs[:1]), np.abs(coeffs[-1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.where(c0 > 0, (c0 / lc) ** (1.0 / deg), 1.0)
    k = np.arange(deg)
    jitter = ((k * 2654435761) % 997) / 997.0 - 0.5
    angles = 2 * np.pi * (k + 0.3618) / deg + 1e-3 * jitter
    return np.clip(radius, 1e-3, 1e3) * np.exp(1j * angles)


def _aberth_batch(coeffs: np.ndarray):
    """All roots of one polynomial, lowest power first, lc nonzero, from
    the starting points of `_start_points`.

    A point stops when its Aberth correction is below ABERTH_TOL
    (relative), or when |p| is within ROUNDING_FLOOR of the error scale
    sum_j |a_j| |v|^j of its evaluation (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1 and 5.1; MPSolve's stopping rule): p is then
    rounding noise, and an ill-conditioned root, whose correction wanders
    at noise level, is as accurate as doubles allow.  Each sweep evaluates
    and corrects only the active points `idx`; a stopped point is frozen
    but stays in every S_k, so each active point's sum is the one of the
    full-set iteration.  Returns (roots, converged, sweeps); a root that
    stopped by neither rule within ABERTH_MAX_SWEEPS is flagged, never
    silently dropped.
    """
    deg = len(coeffs) - 1
    if deg < 1:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=bool), 0
    row = coeffs[None, :]
    z = _start_points(coeffs)
    abs_row = np.abs(row)
    norm1 = abs_row.sum(axis=1)
    idx = np.arange(deg)  # the active points
    sweeps = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while sweeps < ABERTH_MAX_SWEEPS and idx.size:
            sweeps += 1
            za = z[idx]
            (w,), p = _newton_ratio(row, za[None])
            denom = 1.0 - w * _pairwise_inverse_sum(z, idx)
            corr = w / np.where(denom == 0, 1e-300, denom)
            bad = ~np.isfinite(corr)
            if bad.any():  # last-resort rescue, should not trigger anymore
                corr = np.where(bad, 0.5 * za, corr)
            done = np.abs(corr) <= ABERTH_TOL * (1.0 + np.abs(za))
            done |= _at_rounding_floor(abs_row, norm1, za[None], p, ~done[None])[0]
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


def roots_univariate(coeffs) -> RootsResult:
    """All complex roots of a univariate integer polynomial.

    Roots at the origin (trailing zero coefficients) are split off
    exactly; the rest go through scaled Aberth iteration.  Practical up
    to degree ~2000 (the pairwise correction is O(active * d) per sweep).
    Raises SolverError on a coefficient that is not an integer.
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
    if len(cs) <= 1:
        roots = np.zeros(nzero, dtype=complex)
        return RootsResult(roots, np.ones(nzero, dtype=bool), 0)
    z, conv, sweeps = _aberth_batch(scaled_float_coeffs(cs).astype(complex))
    roots = np.concatenate([z, np.zeros(nzero, dtype=complex)])
    converged = np.concatenate([conv, np.ones(nzero, dtype=bool)])
    order = np.lexsort((roots.imag, roots.real))
    return RootsResult(roots=roots[order], converged=converged[order], sweeps=sweeps)


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
    clustering_radius: float | None  # None where nothing is clustered
    residual_threshold: float
    count_expected: int
    count_found: int
    dropped: int = 0
    cross_check_mismatches: int = 0
    warnings: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {**asdict(self), "warnings": list(self.warnings)}


def _term_columns(f: IntPolynomial):
    """(deg, coefficients as a (T, 1) column, x exponents, y exponents,
    deg - |J|) of f's T terms, the input of `_scaled_residuals`."""
    exps = np.array([exp for exp, _ in f.terms]).reshape(-1, 2)
    coeffs = np.array([[float(c)] for _, c in f.terms])
    return f.degree, coeffs, exps[:, 0], exps[:, 1], f.degree - exps.sum(axis=1)


def _scaled_residuals(columns, sups, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """max_i |f_i(x_k, y_k)| / (sup_i * s_k^deg_i), s_k = max(1, |x_k|, |y_k|).

    One value per point (x_k, y_k), from `_term_columns` of each f_i.
    Evaluated as sum a_J (x/s)^j1 (y/s)^j2 s^(|J|-deg): every term is
    bounded by |a_J|, so far-out points cannot overflow.  Real-part
    products and libm pow and hypot, not numpy's vectorized complex
    multiply and power, round each term as a scalar Python loop does.
    """
    s = np.hypot(x.real, x.imag)
    s = np.maximum(np.maximum(s, np.hypot(y.real, y.imag)), 1.0)
    xs, ys = np.empty_like(x), np.empty_like(x)
    xs.real, xs.imag = x.real / s, x.imag / s
    ys.real, ys.imag = y.real / s, y.imag / s
    e = np.arange(max(deg for deg, *_ in columns) + 1)[:, None]
    xpow, ypow, spow = xs**e, ys**e, np.float_power(s, -e)
    worst = np.zeros(x.shape)
    for (_, c, j1, j2, m), sup in zip(columns, sups):
        a, b, scale = c * xpow[j1], ypow[j2], spow[m]
        re = ((a.real * b.real - a.imag * b.imag) * scale).sum(axis=0)
        im = ((a.real * b.imag + a.imag * b.real) * scale).sum(axis=0)
        worst = np.maximum(worst, np.hypot(re, im) / sup)
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
    zs = np.array([z for z, _ in clustered], dtype=complex)
    # |f(z)| / (norm * max(1,|z|)^deg): for |z| > 1 this equals
    # |rev(f)(1/z)| / norm, which never overflows
    _, _, vals, _ = _eval_one_side(scaled[None, :], zs[None, :])
    resid = np.abs(vals[0]) / norm1
    pts = [
        CyclePoint(coords=(z,), mult=m, residual=float(r))
        for (z, m), r in zip(clustered, resid)
    ]
    worst = float(np.max(resid, initial=0.0))
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


def _eliminant_roots(structure, warnings):
    """(distinct roots, multiplicities, Aberth sweeps) of an eliminant
    from its exact square-free structure (`roots_structure`), so Aberth
    only ever sees simple roots."""
    roots, mults, sweeps = [], [], 0
    for factor, mult in structure:
        res = roots_univariate(factor)
        sweeps += res.sweeps
        if not res.converged.all():
            warnings.append(
                f"{int((~res.converged).sum())} eliminant roots unconverged"
            )
        roots.extend(res.roots)
        mults.extend([mult] * len(res.roots))
    return np.array(roots, dtype=complex), np.array(mults, dtype=int), sweeps


def _dense_coeffs(f: IntPolynomial) -> np.ndarray:
    """f's coefficients as a (deg+1, deg+1) array, [a, b] for x^a y^b."""
    out = np.zeros((f.degree + 1, f.degree + 1))
    for (a, b), c in f.terms:
        out[a, b] = float(c)
    return out


def _in_y(dense: np.ndarray, ypow: np.ndarray) -> np.ndarray:
    """(K, deg+1) table of g_a(y_k) = sum_b dense[a, b] y_k^b."""
    return (dense[None, :, :] * ypow[:, None, :]).sum(axis=2)


def _pair_scores(dense, sups, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(len(ys), len(xs)) matrix of max_i |f_i(x_j, y_k)| / (sup_i * s^deg_i),
    s = max(1, |x_j|, |y_k|): the scaled residual of every pairing.

    f_i(x_j, y_k) = sum_a g_a(y_k) x_j^a, a loop of deg+1 outer products;
    no matrix product (BLAS threads cost more than they save at this
    size) and no (terms x ys x xs) array.  Far-out points whose powers
    overflow score NaN and never pass.
    """
    s = np.maximum(np.maximum.outer(np.abs(ys), np.abs(xs)), 1.0)
    worst = np.zeros(s.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, sup in zip(dense, sups):
            deg = c.shape[0] - 1
            g = _in_y(c, np.vander(ys, deg + 1, increasing=True))
            xpow = np.vander(xs, deg + 1, increasing=True)
            val = np.zeros(s.shape, dtype=complex)
            for a in range(deg + 1):
                val += np.multiply.outer(g[:, a], xpow[:, a])
            worst = np.maximum(worst, np.abs(val) / (sup * s**deg))
    return worst


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


def _values_and_partials(dense: np.ndarray, x: np.ndarray, y: np.ndarray):
    """(f, df/dx, df/dy) at the points (x_k, y_k)."""
    deg = dense.shape[0] - 1
    up = np.arange(1, deg + 1)
    xpow = np.vander(x, deg + 1, increasing=True)
    ypow = np.vander(y, deg + 1, increasing=True)
    g = _in_y(dense, ypow)
    gy = _in_y(dense[:, 1:] * up, ypow[:, :-1])
    f = (xpow * g).sum(axis=1)
    fx = (xpow[:, :-1] * up * g[:, 1:]).sum(axis=1)
    fy = (xpow * gy).sum(axis=1)
    return f, fx, fy


def _newton_2x2(dense, x: np.ndarray, y: np.ndarray):
    """NEWTON_PAIR_STEPS Newton steps on (f1, f2) from the points (x, y).

    A point whose Jacobian is singular up to JACOBIAN_FLOOR (a tangential
    zero) or whose step is not small stays where it is.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(NEWTON_PAIR_STEPS):
            (f, fx, fy), (g, gx, gy) = (_values_and_partials(c, x, y) for c in dense)
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
    `cross_check_mismatches`.  Raises NonIsolatedError when either
    eliminant vanishes identically.

    Desk scale: total degrees up to ~16 per input (eliminant degree 256).
    At d = 4 to 12 the eliminants, taken modulo word-size primes, are
    about a quarter to a third of a solve, their square-free certificate
    an eighth, Aberth 30-40% and the pairing the rest.
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
            clustering_radius=None,
            residual_threshold=RESIDUAL_TOL,
            count_expected=expected,
            count_found=0,
        )
        return ZeroCycle(2, (), RESIDUAL_TOL), diag

    warnings = []
    ystructure, xstructure = roots_structure(ry, rx)
    ys, ymults, ysweeps = _eliminant_roots(ystructure, warnings)
    xs, xmults, xsweeps = _eliminant_roots(xstructure, warnings)
    sups = [float(sup_norm_upper(f1)), float(sup_norm_upper(f2))]
    dense = [_dense_coeffs(f1), _dense_coeffs(f2)]
    pairs, cap = _greedy_pairs(_pair_scores(dense, sups, xs, ys), ymults, xmults)

    paired = {k for k, _ in pairs}
    dropped = 0
    for k in range(len(ys)):
        if k not in paired:
            dropped += int(ymults[k])
            warnings.append(f"y={ys[k]:.6g} has no x partner under the residual filter")
    ks = np.array([k for k, _ in pairs], dtype=int)
    js = np.array([j for _, j in pairs], dtype=int)
    x, y = _newton_2x2(dense, xs[js], ys[ks])
    resid = _scaled_residuals([_term_columns(f1), _term_columns(f2)], sups, x, y)
    mults = list(pairs.values())
    points = [
        CyclePoint((complex(x[i]), complex(y[i])), mults[i], float(resid[i]))
        for i in np.lexsort((y.imag, y.real, x.imag, x.real))
    ]

    cycle = ZeroCycle(dim=2, points=tuple(points), residual_threshold=RESIDUAL_TOL)
    diag = SolveDiagnostics(
        eliminant_degree=len(ry) - 1,
        iterations=ysweeps + xsweeps,
        max_residual=max((p.residual for p in points), default=0.0),
        clustering_radius=None,
        residual_threshold=RESIDUAL_TOL,
        count_expected=expected,
        count_found=cycle.degree,
        dropped=dropped,
        cross_check_mismatches=int(np.abs(cap).sum()),
        warnings=tuple(warnings),
    )
    return cycle, diag
