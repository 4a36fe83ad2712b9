"""Equidistribution statistics for zero cycles on the torus.

Angle discrepancy follows the half-open box convention: boxes are
products of arcs (alpha_j, beta_j] with -pi <= alpha_j < beta_j <= pi and
arguments taken in (-pi, pi].  Wrap-around arcs are deliberately not part
of the family.  The exact mode computes the true supremum by enumerating
box boundaries at data arguments together with their open/closed limit
variants; grid mode restricts boundaries to an equispaced grid and is
therefore a certified lower bound of the supremum.  In 2d both modes run
one scan over the cuts next to occupied positions (`_scan_2d`).

The Erdos-Turan size of a system is

    eta = (1/D) sup_w log( prod_i ||f_i||^D_{w,i}
                           / prod_v |Res_v|^{|<v,w>|/2} )

with D the mixed volume of the supports, the product over inward facet
normals v of their Minkowski sum, and D_{w,i} the length of the
projection of the other support polytope onto the line orthogonal to w
(n=2) or 1 (n=1, where the formula collapses to the classical
Erdos-Turan quantity).  The supremum over w is exact: between
consecutive critical directions the objective is one sinusoid, maximized
in closed form on each arc (`_eta_sup_2d`).  Sup norms enter through the
certified upper estimate sum |a_J|, the only over-estimate in eta;
discrepancies are computed as under-estimates (or exact), so every bound
inequality verified downstream is implied by the corresponding theorem
and any violation is a genuine bug.

Polar boxes count the zeros of a cycle in a product of radial intervals
and arcs; the experiment harness turns these counts into box-probe
estimates of the expected zero measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import mixed_volume
from .polynomials import sup_norm_upper
from .resultants import DirectionalReport, _system_polys, classify_exceptional
from .solver import ZeroCycle


class DiscrepancyError(ValueError):
    pass


class ExactModeTooLarge(DiscrepancyError):
    """Exact 2d angle discrepancy is O(N^3) in time and O(N^2) in memory;
    use grid mode, O(min(N, G)^3), beyond EXACT_MODE_POINT_CAP points."""


EXACT_MODE_POINT_CAP = 400


def _log_abs_big(x) -> float:
    """log |x| for arbitrarily large integers."""
    x = abs(int(x))
    if x == 0:
        raise DiscrepancyError("log of zero")
    b = x.bit_length()
    if b <= 64:
        return math.log(x)
    return math.log(x >> (b - 64)) + (b - 64) * math.log(2.0)


def arguments(cycle: ZeroCycle) -> np.ndarray:
    """(degree, dim) arguments in (-pi, pi], multiplicity expanded."""
    coords = cycle.coords_array()
    args = np.angle(coords)
    # numpy maps -x - 0j to -pi; fold onto the (-pi, pi] convention
    args[args == -np.pi] = np.pi
    return args


# ---------------------------------------------------------------------------
# angle discrepancy


def _angle_exact_1d(args: np.ndarray) -> float:
    n = args.size
    vals, counts = np.unique(args, return_counts=True)
    cum = np.cumsum(counts)
    uni = (vals + np.pi) / (2 * np.pi)
    gmax = max(0.0, float(np.max(cum / n - uni)))
    gmin = min(0.0, float(np.min((cum - counts) / n - uni)))
    return gmax - gmin


def _angle_grid_1d(args: np.ndarray, grid: int) -> float:
    n = args.size
    edges = -np.pi + 2 * np.pi * np.arange(grid + 1) / grid
    counts = np.searchsorted(np.sort(args), edges, side="right")
    g = counts / n - (edges + np.pi) / (2 * np.pi)
    return float(np.max(g) - np.min(g))


CHUNK_FLOATS = 2**16  # per-array bound of the box scan; 512 KiB stays in cache


def argument_bins(args: np.ndarray, grid: int) -> np.ndarray:
    """Bin of each argument among `grid` equal arcs of (-pi, pi]; a point
    on a boundary belongs to the lower bin ((alpha, beta])."""
    idx = np.ceil((args + np.pi) * grid / (2 * np.pi)).astype(int) - 1
    return np.clip(idx, 0, grid - 1)


def _errors(mass_f, cuts_f, mass_g, cuts_g, c, f, g, extremum):
    """F[j] - extremum(G[0..j]), written into `f`, with the axis-2 cuts as
    rows: F = mass_f - c cuts_f and G = mass_g - c cuts_g (G in `g`).
    The prefix extremum is one `extremum(..., out=)` per row, vectorized
    across the pairs."""
    np.multiply.outer(cuts_f, c, out=f)
    np.subtract(mass_f, f, out=f)
    np.multiply.outer(cuts_g, c, out=g)
    np.subtract(mass_g, g, out=g)
    for k in range(1, g.shape[0]):
        extremum(g[k], g[k - 1], out=g[k])
    return np.subtract(f, g, out=f)


def _scan_2d(pos, width, start, end, norm1, norm2) -> float:
    """Sup of |box mass - box area| over the boxes cut next to the points.

    Per axis, with u the sorted unique positions (m of them), a cut pair
    (a, b), 0 <= a <= b <= m, selects the points of rank in [a, b).  A
    side with that content is between len_min = u[b-1] + width - u[a] (0
    when a == b) and len_max = hi[b] - lo[a], lo = (start, u + width) and
    hi = (u, end).  Exact mode passes the arguments with width 0 (sides
    pinched onto data points through limit variants), grid mode the
    occupied bins with width 1.  The area is (len_1/norm1) (len_2/norm2).
    For a fixed content mass - area peaks at len_min on both axes and
    area - mass at len_max on both, so each axis-1 pair takes one pass per
    sign.  A pass's error over axis-2 cuts i <= j is F[j] - G[i], with
    F = M[j] - c hi[j], G = M[i] - c lo[i], c = len_1/norm1 and M the
    pair's slab masses; a prefix extremum of G makes it O(1) per (pair,
    cut).  Chunks hold the axis-2 cuts as rows and the axis-1 pairs as
    columns, in three buffers of at most CHUNK_FLOATS floats.
    """
    n = pos.shape[0]
    (u1, r1), (u2, r2) = (np.unique(pos[:, j], return_inverse=True) for j in (0, 1))
    # cum[j, i] = mass of the points with rank r2 < j and r1 < i
    cum = np.zeros((u2.size + 1, u1.size + 1))
    np.add.at(cum, (r2 + 1, r1 + 1), 1.0)
    np.cumsum(cum, axis=0, out=cum)
    np.cumsum(cum, axis=1, out=cum)
    lo1 = np.concatenate(([start], u1 + width))
    hi1 = np.concatenate((u1, [end]))
    lo2 = np.concatenate(([start], u2 + width)) / norm2
    hi2 = np.concatenate((u2, [end])) / norm2
    a1, b1 = np.triu_indices(u1.size + 1)
    rows = cum.shape[0]
    step = max(1, CHUNK_FLOATS // rows)
    buffers = np.empty((3, rows * min(step, a1.size)))
    best = 0.0
    for s in range(0, a1.size, step):
        a, b = a1[s : s + step], b1[s : s + step]
        mass, f, g = buffers[:, : rows * a.size].reshape(3, rows, a.size)
        np.take(cum, b, axis=1, out=f, mode="clip")  # "clip": no buffered copy
        np.take(cum, a, axis=1, out=g, mode="clip")
        np.divide(np.subtract(f, g, out=mass), n, out=mass)
        # mass - area at len_min: F over cuts j >= 1 at lo, G over i < m at hi
        c = np.where(a < b, lo1[b] - hi1[a], 0.0) / norm1
        err = _errors(mass[1:], lo2[1:], mass[:-1], hi2[:-1], c, f[1:], g[:-1], np.minimum)
        best = max(best, float(err.max()))
        # area - mass at len_max, over cuts i <= j
        c = (hi1[b] - lo1[a]) / norm1
        err = _errors(mass, hi2, mass, lo2, c, f, g, np.maximum)
        best = max(best, -float(err.min()))
    return best


def angle_discrepancy(cycle: ZeroCycle, mode: str = "exact", grid: int = 64) -> float:
    """Sup over argument boxes of |empirical mass - Haar mass|.

    mode="exact" returns the true supremum (1d always, O(N log N); 2d in
    O(N^3) up to EXACT_MODE_POINT_CAP points).  mode="grid" restricts box
    boundaries to `grid` equispaced breakpoints per axis and certifies a
    lower bound; in 2d it costs O(m^3) with m <= min(N, grid) occupied
    bins per axis.
    """
    if cycle.degree < 1:
        raise DiscrepancyError("angle discrepancy of an empty cycle")
    args = arguments(cycle)
    if mode == "grid":
        if grid < 2:
            raise DiscrepancyError("grid must have at least 2 breakpoints")
        if cycle.dim == 1:
            return _angle_grid_1d(args[:, 0], grid)
        if cycle.dim == 2:
            return _scan_2d(argument_bins(args, grid), 1, 0, grid, grid, grid)
        raise DiscrepancyError("angle discrepancy implemented for n <= 2")
    if mode != "exact":
        raise DiscrepancyError(f"unknown mode {mode!r}")
    if cycle.dim == 1:
        return _angle_exact_1d(args[:, 0])
    if cycle.dim == 2:
        if args.shape[0] > EXACT_MODE_POINT_CAP:
            raise ExactModeTooLarge(
                f"{args.shape[0]} points exceed the exact-mode cap "
                f"{EXACT_MODE_POINT_CAP}; use mode='grid'"
            )
        return _scan_2d(args, 0, -np.pi, np.pi, 4 * np.pi**2, 1.0)
    raise DiscrepancyError("angle discrepancy implemented for n <= 2")


def radius_discrepancy(cycle: ZeroCycle, eps: float) -> float:
    """Mass fraction outside the shell 1-eps < |xi_j| < 1/(1-eps) (all j,
    strict on both sides)."""
    if cycle.degree < 1:
        raise DiscrepancyError("radius discrepancy of an empty cycle")
    if not 0 < eps < 1:
        raise DiscrepancyError("eps must lie in (0, 1)")
    lo = 1.0 - eps
    hi = 1.0 / lo
    inside = 0
    for p in cycle.points:
        mods = [abs(z) for z in p.coords]
        if all(lo < m < hi for m in mods):
            inside += p.mult
    return 1.0 - inside / cycle.degree


# ---------------------------------------------------------------------------
# Erdos-Turan size and the theorem bounds


@dataclass(frozen=True)
class EtaReport:
    eta: float
    w_argmax: tuple
    mixed_volume: int
    per_normal: tuple  # ((v, log|Res_v|), ...)
    dw_at_argmax: tuple
    sup_log_values: tuple
    eta_upper: float
    infinite: bool = False

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "w_argmax": list(self.w_argmax),
            "D": self.mixed_volume,
            "per_normal": [
                [",".join(str(c) for c in v), lv] for v, lv in self.per_normal
            ],
            "dw_at_argmax": list(self.dw_at_argmax),
            "eta_upper": self.eta_upper,
            "infinite": self.infinite,
        }


def _sup_logs(polys):
    """log of the certified sup-norm over-estimate sum |a_J| of each f_i."""
    return [_log_abs_big(sup_norm_upper(f)) for f in polys]


def _eta_bound(polys, logs, d_mv) -> float:
    degs = [f.degree for f in polys]
    if any(d < 1 for d in degs):
        raise DiscrepancyError("eta bound needs degrees >= 1")
    if d_mv < 1:
        raise DiscrepancyError("mixed volume of the supports must be >= 1")
    n = polys[0].nvars
    prod_d = 1
    for d in degs:
        prod_d *= d
    total = sum(lv / d for lv, d in zip(logs, degs))
    return float((n + math.sqrt(n)) * prod_d * total / d_mv)


def erdos_turan_size(
    system, report: DirectionalReport = None, d_mv: int = None
) -> EtaReport:
    """Erdos-Turan size of a system (n in {1, 2}).

    Directional resultants are taken from `report` and the mixed volume D
    of the supports from `d_mv` when given (at n = 2 the solver's
    count_expected), so a trial computes neither twice.  A vanishing
    facet resultant makes eta infinite, reported with the `infinite`
    marker.  At n = 2 the supremum over w is exact: on each arc between
    consecutive critical directions the objective is one sinusoid,
    maximized in closed form (`_eta_sup_2d`).  The only over-estimate is
    the sup norm, taken as sum |a_J|.
    """
    polys = _system_polys(system)
    n = polys[0].nvars
    if n not in (1, 2):
        raise DiscrepancyError("eta implemented for n in {1, 2}")
    if report is None:
        report = classify_exceptional(polys)
    logs = _sup_logs(polys)
    if d_mv is None:
        d_mv = int(mixed_volume([f.newton_polytope for f in polys]))
    upper = _eta_bound(polys, logs, d_mv)
    if any(e.value == 0 for e in report.entries):
        return EtaReport(
            eta=math.inf,
            w_argmax=(),
            mixed_volume=d_mv,
            per_normal=tuple((e.normal, -math.inf) for e in report.entries),
            dw_at_argmax=(),
            sup_log_values=tuple(logs),
            eta_upper=upper,
            infinite=True,
        )
    per_normal = tuple((e.normal, _log_abs_big(e.value)) for e in report.entries)

    if n == 1:
        # facet directions +-1, D_{w,i} = 1: the classical quantity
        res_term = sum(lv for _, lv in per_normal) / 2.0
        eta = (logs[0] - res_term) / d_mv
        return EtaReport(
            eta=float(eta),
            w_argmax=(1.0,),
            mixed_volume=d_mv,
            per_normal=per_normal,
            dw_at_argmax=(1.0,),
            sup_log_values=tuple(logs),
            eta_upper=upper,
        )

    t, value, dw = _eta_sup_2d(polys, logs, per_normal)
    return EtaReport(
        eta=value / d_mv,
        w_argmax=(math.cos(t), math.sin(t)),
        mixed_volume=d_mv,
        per_normal=per_normal,
        dw_at_argmax=dw,
        sup_log_values=tuple(logs),
        eta_upper=upper,
    )


def _eta_sup_2d(polys, logs, per_normal):
    """(theta, value, (D_{w,1}, D_{w,2})) at the maximum over w = (cos theta,
    sin theta) of the eta objective

        D_{w,1} log||f_1|| + D_{w,2} log||f_2|| - 1/2 sum_v |<v, w>| log|Res_v|,

    D_{w,i} the length of the other hull projected onto u = (-sin, cos).
    The objective is even in w, so theta ranges over [-pi/2, pi/2).  The
    projection's extreme vertices change only where w is parallel to a
    hull edge, and the sign of <v, w> only where w is orthogonal to v; on
    each arc between consecutive such critical angles the objective is one
    sinusoid A cos + B sin, with A and B read off the active vertices and
    signs at the arc's midpoint.  Its maximum on the arc is at an endpoint
    or, when atan2(B, A) lies inside, sqrt(A^2 + B^2).
    """
    cycles = [np.array(f.newton_polytope.cycle, dtype=float) for f in polys]
    normals = np.array([v for v, _ in per_normal], dtype=float).reshape(-1, 2)
    lvs = np.array([lv for _, lv in per_normal])
    edges = np.vstack([np.roll(c, -1, axis=0) - c for c in cycles])
    t_edge = np.arctan2(edges[:, 1], edges[:, 0])[np.any(edges != 0, axis=1)]
    t_normal = np.arctan2(normals[:, 1], normals[:, 0]) + np.pi / 2
    crit = np.concatenate((t_edge, t_normal))
    lo = np.unique(np.mod(crit + np.pi / 2, np.pi) - np.pi / 2)
    hi = np.append(lo[1:], lo[0] + np.pi)  # the last arc wraps across +-pi/2
    mid = 0.5 * (lo + hi)
    u = np.stack((-np.sin(mid), np.cos(mid)), axis=1)
    w = np.stack((np.cos(mid), np.sin(mid)), axis=1)
    # q_i = argmax - argmin of <u, p> over hull i, so D = <u, q> on the arc
    q = []
    for c in cycles:
        dots = u @ c.T
        q.append(c[dots.argmax(axis=1)] - c[dots.argmin(axis=1)])
    # D_{w,1} is the projection of the OTHER hull
    g = logs[0] * q[1] + logs[1] * q[0]
    h = 0.5 * (np.sign(w @ normals.T) * lvs) @ normals
    a = g[:, 1] - h[:, 0]
    b = -g[:, 0] - h[:, 1]
    offset = np.mod(np.arctan2(b, a) - lo, 2 * np.pi)
    inside = offset < hi - lo
    cand = np.stack((lo, hi, lo + offset), axis=1)
    vals = a[:, None] * np.cos(cand) + b[:, None] * np.sin(cand)
    vals[:, 2] = np.where(inside, np.hypot(a, b), -np.inf)
    k, j = np.unravel_index(np.argmax(vals), vals.shape)
    t = float(cand[k, j])
    ut = np.array((-math.sin(t), math.cos(t)))
    return t, float(vals[k, j]), (float(ut @ q[1][k]), float(ut @ q[0][k]))


def discrepancy_bounds(eta: float, n: int, eps: float):
    """(angle bound, radius bound) from the Erdos-Turan size.

    B_ang = 66 n 2^n (18 + log+(1/eta))^((2/3)(n-1)) eta^(1/3),
    B_rad = (2n/eps) eta; log+ t = max(log t, 0).  eta = 0 gives (0, 0);
    eta = inf is reported raw, not capped.
    """
    if not 0 < eps < 1:
        raise DiscrepancyError("eps must lie in (0, 1)")
    if eta < 0:
        raise DiscrepancyError("eta must be nonnegative")
    if eta == 0:
        return 0.0, 0.0
    if math.isinf(eta):
        return math.inf, math.inf
    logplus = max(math.log(1.0 / eta), 0.0)
    b_ang = 66 * n * 2**n * (18 + logplus) ** ((2.0 / 3.0) * (n - 1)) * eta ** (1.0 / 3.0)
    b_rad = (2.0 * n / eps) * eta
    return float(b_ang), float(b_rad)


# ---------------------------------------------------------------------------
# polar boxes


@dataclass(frozen=True)
class PolarBox:
    """Product of radial intervals (r1, r2) and arcs (alpha, beta] per
    coordinate; radial bounds strict, r2 may be infinite."""

    radial: tuple  # ((r1, r2), ...)
    angular: tuple  # ((alpha, beta), ...)

    def __post_init__(self):
        for r1, r2 in self.radial:
            if r1 < 0 or r2 <= r1:
                raise DiscrepancyError("need 0 <= r1 < r2")
        for a, b in self.angular:
            if not (-math.pi <= a < b <= math.pi):
                raise DiscrepancyError("need -pi <= alpha < beta <= pi")
        if len(self.radial) != len(self.angular):
            raise DiscrepancyError("radial/angular arities differ")

    @property
    def dim(self) -> int:
        return len(self.radial)

    def contains(self, coords) -> bool:
        for z, (r1, r2), (a, b) in zip(coords, self.radial, self.angular):
            m = abs(z)
            if not (r1 < m < r2):
                return False
            th = math.atan2(z.imag, z.real)
            if th == -math.pi:
                th = math.pi
            if not (a < th <= b):
                return False
        return True

    def haar_mass(self) -> float:
        """Haar measure of the box's torus trace: 0 unless every radial
        interval straddles 1."""
        if any(not (r1 < 1 < r2) for r1, r2 in self.radial):
            return 0.0
        mass = 1.0
        for a, b in self.angular:
            mass *= (b - a) / (2 * math.pi)
        return mass

    @classmethod
    def full(cls, dim: int) -> "PolarBox":
        return cls(
            radial=tuple((0.0, math.inf) for _ in range(dim)),
            angular=tuple((-math.pi, math.pi) for _ in range(dim)),
        )

    def to_dict(self) -> dict:
        return {
            "radial": [[r1, None if math.isinf(r2) else r2] for r1, r2 in self.radial],
            "angular": [list(ab) for ab in self.angular],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "PolarBox":
        """Bounds must be JSON numbers (false or "0.3" is refused, never
        coerced); an outer radius of null is open."""

        def bound(value):
            if type(value) not in (int, float):  # bool is not taken
                raise DiscrepancyError(f"box bound must be a number, got {value!r}")
            return float(value)

        radial = tuple(
            (bound(r1), math.inf if r2 is None else bound(r2))
            for r1, r2 in obj["radial"]
        )
        angular = tuple((bound(a), bound(b)) for a, b in obj["angular"])
        return cls(radial=radial, angular=angular)


def box_count(cycle: ZeroCycle, box: PolarBox) -> int:
    if box.dim != cycle.dim:
        raise DiscrepancyError("box dimension does not match the cycle")
    return sum(p.mult for p in cycle.points if box.contains(p.coords))
