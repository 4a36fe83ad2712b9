"""Equidistribution statistics for zero cycles on the torus.

Angle discrepancy follows the half-open box convention: boxes are
products of arcs (alpha_j, beta_j] with -pi <= alpha_j < beta_j <= pi and
arguments taken in (-pi, pi].  Wrap-around arcs are deliberately not part
of the family.  The exact mode computes the true supremum by enumerating
box boundaries at data arguments together with their open/closed limit
variants; grid mode restricts boundaries to an equispaced grid and is
therefore a certified lower bound of the supremum.

The Erdos-Turan size of a system is

    eta = (1/D) sup_w log( prod_i ||f_i||^D_{w,i}
                           / prod_v |Res_v|^{|<v,w>|/2} )

with D the mixed volume of the supports, the product over inward facet
normals v of their Minkowski sum, and D_{w,i} the length of the
projection of the other support polytope onto the line orthogonal to w
(n=2) or 1 (n=1, where the formula collapses to the classical
Erdos-Turan quantity).  Sup norms enter through the certified upper
estimate sum |a_J|, which makes eta an over-estimate; discrepancies are
computed as under-estimates (or exact), so every bound inequality
verified downstream is implied by the corresponding theorem and any
violation is a genuine bug.

Polar boxes count the zeros of a cycle in a product of radial intervals
and arcs; the experiment harness turns these counts into box-probe
estimates of the expected zero measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import mixed_volume
from .polynomials import newton_polytope, sup_norm_upper
from .resultants import DirectionalReport, classify_exceptional
from .solver import ZeroCycle


class DiscrepancyError(ValueError):
    pass


class ExactModeTooLarge(DiscrepancyError):
    """Exact 2d angle discrepancy is O(N^3) in time; use grid mode beyond
    EXACT_MODE_POINT_CAP points."""


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


def _arguments(cycle: ZeroCycle) -> np.ndarray:
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


def _box_scan(cum, n, a1, b1, c1, ends2) -> float:
    """Sup of |box mass - c * side_2| over axis-1 cut pairs and axis-2 cuts.

    `cum` holds the 2d cumulative masses; pair p selects the axis-1 slab
    between cuts a1[p] and b1[p], whose cumulative masses along axis 2
    are M = cum[b1[p]] - cum[a1[p]].  `c1` lists per-pair scale arrays,
    one per axis-1 length variant, with Haar mass c * side_2.  Each entry
    (b_cols, hi, a_cols, lo) of `ends2` is an axis-2 length variant: over
    index pairs i <= j, side_2 = hi[j] - lo[i] and the slab mass of the
    box is M[b_cols][j] - M[a_cols][i].  The error splits into
    F[j] - G[i] with F = M[b_cols] - c hi and G = M[a_cols] - c lo, so its
    largest modulus over i <= j is the larger of max(F - cummin G) and
    max(cummax G - F): O(1) per (pair, cut) instead of O(cuts).  Pairs go
    in chunks, so every array allocated here holds at most CHUNK_FLOATS
    floats.
    """
    best = 0.0
    rows = max(1, CHUNK_FLOATS // cum.shape[1])
    for start in range(0, a1.size, rows):
        sl = slice(start, start + rows)
        mass = (cum[b1[sl]] - cum[a1[sl]]) / n
        for c in c1:
            c = c[sl, None]
            for b_cols, hi, a_cols, lo in ends2:
                f = mass[:, b_cols] - c * hi
                g = mass[:, a_cols] - c * lo
                best = max(
                    best,
                    float((f - np.minimum.accumulate(g, axis=1)).max()),
                    float((np.maximum.accumulate(g, axis=1) - f).max()),
                )
    return best


def _cum_counts(r1, r2, m1, m2, mults) -> np.ndarray:
    """cum[i, j] = mass of the points with rank r1 < i and r2 < j."""
    hist = np.zeros((m1 + 1, m2 + 1))
    np.add.at(hist, (r1 + 1, r2 + 1), mults)
    return hist.cumsum(axis=0).cumsum(axis=1)


def _angle_exact_2d(args: np.ndarray, mults: np.ndarray) -> float:
    """Exact 2d supremum, O(N^3).

    Per axis, with u the sorted unique arguments (m of them), a cut pair
    (a, b), 0 <= a <= b <= m, selects the points of rank in [a, b).  The
    realizable side lengths for that content range between
    len_min = u[b-1] - u[a] (both boundaries pinched onto data points via
    limit variants; 0 when a == b) and len_max = hi[b] - lo[a] with
    lo = (-pi, u...) and hi = (u..., pi).  The supremum is attained at one
    of the four length combinations.
    """
    n = int(mults.sum())
    u1 = np.unique(args[:, 0])
    u2 = np.unique(args[:, 1])
    m1, m2 = u1.size, u2.size
    cum = _cum_counts(
        np.searchsorted(u1, args[:, 0]), np.searchsorted(u2, args[:, 1]), m1, m2, mults
    )
    a1, b1 = np.nonzero(np.triu(np.ones((m1 + 1, m1 + 1), dtype=bool)))
    lo1 = np.concatenate(([-np.pi], u1))
    hi1 = np.concatenate((u1, [np.pi]))
    min1 = np.zeros(a1.size)
    inner = a1 < b1
    min1[inner] = u1[b1[inner] - 1] - u1[a1[inner]]
    four_pi2 = 4 * np.pi**2
    c1 = [min1 / four_pi2, (hi1[b1] - lo1[a1]) / four_pi2]
    lo2 = np.concatenate(([-np.pi], u2))
    hi2 = np.concatenate((u2, [np.pi]))
    ends2 = [
        (slice(None), hi2, slice(None), lo2),  # len_max over a <= b
        (slice(1, None), u2, slice(None, -1), u2),  # len_min: b - 1 >= a
    ]
    return _box_scan(cum, n, a1, b1, c1, ends2)


def _angle_grid_2d(args: np.ndarray, mults: np.ndarray, grid: int) -> float:
    n = int(mults.sum())
    # points exactly on a boundary belong to the lower bin ((alpha, beta])
    idx = np.ceil((args + np.pi) * grid / (2 * np.pi)).astype(int) - 1
    idx = np.clip(idx, 0, grid - 1)
    cum = _cum_counts(idx[:, 0], idx[:, 1], grid, grid, mults)
    a1, b1 = np.nonzero(np.triu(np.ones((grid + 1, grid + 1), dtype=bool), 1))
    edges = np.arange(grid + 1) / grid
    ends2 = [(slice(None), edges, slice(None), edges)]
    return _box_scan(cum, n, a1, b1, [(b1 - a1) / grid], ends2)


def angle_discrepancy(cycle: ZeroCycle, mode: str = "exact", grid: int = 64) -> float:
    """Sup over argument boxes of |empirical mass - Haar mass|.

    mode="exact" returns the true supremum (1d always, O(N log N); 2d in
    O(N^3) up to EXACT_MODE_POINT_CAP points).  mode="grid" restricts box
    boundaries to `grid` equispaced breakpoints per axis, costs O(G^3) in
    2d and certifies a lower bound.
    """
    if cycle.degree < 1:
        raise DiscrepancyError("angle discrepancy of an empty cycle")
    args = _arguments(cycle)
    if mode == "grid":
        if grid < 2:
            raise DiscrepancyError("grid must have at least 2 breakpoints")
        if cycle.dim == 1:
            return _angle_grid_1d(args[:, 0], grid)
        if cycle.dim == 2:
            mults = np.ones(args.shape[0])
            return _angle_grid_2d(args, mults, grid)
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
        mults = np.ones(args.shape[0])
        return _angle_exact_2d(args, mults)
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


ETA_ANGLES = 4096  # equispaced directions w added to the critical ones


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


def eta_upper_bound(polys) -> float:
    """The (n + sqrt n) (prod d_i) sum_i log||f_i|| / d_i bound over D."""
    polys = tuple(polys.polys) if hasattr(polys, "polys") else tuple(polys)
    d_mv = mixed_volume([newton_polytope(f) for f in polys])
    return _eta_bound(polys, _sup_logs(polys), d_mv)


def erdos_turan_size(system, report: DirectionalReport = None) -> EtaReport:
    """Erdos-Turan size of a system (n in {1, 2}).

    Directional resultants are taken from `report` when given (so a
    classification pass is not repeated).  A vanishing facet resultant
    makes eta infinite, reported with the `infinite` marker.
    """
    polys = tuple(system.polys) if hasattr(system, "polys") else tuple(system)
    n = polys[0].nvars
    if n not in (1, 2):
        raise DiscrepancyError("eta implemented for n in {1, 2}")
    if report is None:
        report = classify_exceptional(polys)
    logs = _sup_logs(polys)
    hulls = [newton_polytope(f) for f in polys]
    d_mv = int(mixed_volume(hulls))
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

    verts = [np.array(h.vertices, dtype=float) for h in hulls]
    thetas = [np.linspace(-np.pi, np.pi, ETA_ANGLES, endpoint=False)]
    for v in verts:
        cyc = np.vstack([v, v[:1]])
        edges = np.diff(cyc, axis=0)
        for ex, ey in edges:
            if ex or ey:
                t = math.atan2(ey, ex)
                thetas.append(np.array([t, t + np.pi]))
    for (vx, vy), _ in per_normal:
        t = math.atan2(vy, vx)
        thetas.append(np.array([t + np.pi / 2, t - np.pi / 2]))
    theta = np.unique(np.concatenate(thetas))
    w = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    u = np.stack([-np.sin(theta), np.cos(theta)], axis=1)

    proj_len = []
    for v in verts:
        dots = u @ v.T
        proj_len.append(dots.max(axis=1) - dots.min(axis=1))
    # D_{w,1} multiplies log||f_1|| and is the projection of the OTHER hull
    objective = proj_len[1] * logs[0] + proj_len[0] * logs[1]
    for (vx, vy), lv in per_normal:
        objective = objective - 0.5 * np.abs(w @ np.array([vx, vy])) * lv
    k = int(np.argmax(objective))
    eta = float(objective[k] / d_mv)
    return EtaReport(
        eta=eta,
        w_argmax=(float(w[k, 0]), float(w[k, 1])),
        mixed_volume=d_mv,
        per_normal=per_normal,
        dw_at_argmax=(float(proj_len[1][k]), float(proj_len[0][k])),
        sup_log_values=tuple(logs),
        eta_upper=upper,
    )


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
        radial = tuple(
            (float(r1), math.inf if r2 is None else float(r2))
            for r1, r2 in obj["radial"]
        )
        angular = tuple((float(a), float(b)) for a, b in obj["angular"])
        return cls(radial=radial, angular=angular)


def box_count(cycle: ZeroCycle, box: PolarBox) -> int:
    if box.dim != cycle.dim:
        raise DiscrepancyError("box dimension does not match the cycle")
    return sum(p.mult for p in cycle.points if box.contains(p.coords))
