import cmath
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytorus.discrepancy import (
    CHUNK_FLOATS,
    EXACT_MODE_POINT_CAP,
    DiscrepancyError,
    ExactModeTooLarge,
    PolarBox,
    angle_discrepancy,
    arguments,
    box_count,
    discrepancy_bounds,
    erdos_turan_size,
    radius_discrepancy,
)
from polytorus.lattice import convex_hull
from polytorus.polynomials import (
    IntPolynomial,
    sample_bernoulli_system,
    sup_norm_upper,
    support,
)
from polytorus.resultants import classify_exceptional
from polytorus.solver import CyclePoint, ZeroCycle, solve_bivariate

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def cycle_from_points(points, dim=1):
    pts = tuple(
        CyclePoint(coords=tuple(map(complex, p)), mult=1, residual=0.0)
        for p in points
    )
    return ZeroCycle(dim=dim, points=pts, residual_threshold=1e-6)


def poly(nvars, coeffs):
    return IntPolynomial.from_dict(nvars, coeffs)


# ---------------------------------------------------------------------------
# angle discrepancy


def test_angle_roots_of_unity():
    pts = [(cmath.exp(2j * math.pi * k / 4),) for k in range(4)]
    assert angle_discrepancy(cycle_from_points(pts)) == pytest.approx(0.25)


def test_angle_two_points():
    assert angle_discrepancy(cycle_from_points([(1,), (-1,)])) == pytest.approx(0.5)


def test_angle_single_ray_saturates():
    n = 10
    z = cycle_from_points([(1,)] * n)
    val = angle_discrepancy(z)
    assert val >= 1 - 1 / n
    assert val == pytest.approx(1.0)


def test_angle_empty_cycle_rejected():
    with pytest.raises(DiscrepancyError):
        angle_discrepancy(ZeroCycle(1, (), 1e-6))


def _brute_force_1d(args, trials=20000, rng=None):
    rng = rng or random.Random(0)
    n = len(args)
    best = 0.0
    srt = sorted(args)
    for _ in range(trials):
        a, b = sorted((rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)))
        if a == b:
            continue
        count = sum(1 for t in srt if a < t <= b)
        best = max(best, abs(count / n - (b - a) / (2 * math.pi)))
    return best


@given(st.lists(st.floats(-math.pi + 1e-9, math.pi), min_size=1, max_size=12))
@settings(max_examples=25, deadline=None)
def test_angle_exact_1d_dominates_random_boxes(angles):
    pts = [(cmath.exp(1j * t),) for t in angles]
    exact = angle_discrepancy(cycle_from_points(pts))
    brute = _brute_force_1d(angles, trials=4000)
    assert exact >= brute - 1e-12
    assert exact <= 1.0 + 1e-12


@given(
    st.lists(st.floats(-math.pi + 1e-9, math.pi), min_size=1, max_size=40),
    st.sampled_from([8, 16, 32]),
)
@settings(max_examples=30, deadline=None)
def test_angle_grid_below_exact_1d(angles, grid):
    pts = [(cmath.exp(1j * t),) for t in angles]
    c = cycle_from_points(pts)
    assert angle_discrepancy(c, "grid", grid) <= angle_discrepancy(c) + 1e-12


@given(st.lists(st.floats(-math.pi + 1e-9, math.pi), min_size=1, max_size=30))
@settings(max_examples=25, deadline=None)
def test_angle_grid_doubling_monotone(angles):
    pts = [(cmath.exp(1j * t),) for t in angles]
    c = cycle_from_points(pts)
    g = angle_discrepancy(c, "grid", 16)
    g2 = angle_discrepancy(c, "grid", 32)
    assert g2 >= g - 1e-12


def test_angle_exact_2d_single_point():
    c = cycle_from_points([(1, 1)], dim=2)
    assert angle_discrepancy(c) == pytest.approx(1.0)


def _closure_options(cands):
    # all boundary pairs with open/closed inclusion variants realizable as
    # limits of half-open boxes; the degenerate [t, t] needs both closed
    opts = []
    for i, lo in enumerate(cands):
        for hi in cands[i:]:
            for lo_in in (False, True):
                for hi_in in (True, False):
                    if lo == hi and not (lo_in and hi_in):
                        continue
                    opts.append((lo, hi, lo_in, hi_in))
    return opts


def _brute_closure_sup(argrows):
    n = len(argrows)
    dim = len(argrows[0])
    axes = [
        sorted({-math.pi, math.pi} | {a[j] for a in argrows}) for j in range(dim)
    ]
    best = 0.0
    if dim == 1:
        for lo, hi, li, hi_in in _closure_options(axes[0]):
            cnt = sum(
                1
                for (a,) in argrows
                if (a > lo or (li and a == lo)) and (a < hi or (hi_in and a == hi))
            )
            best = max(best, abs(cnt / n - (hi - lo) / (2 * math.pi)))
        return best
    for lo1, hi1, li1, hin1 in _closure_options(axes[0]):
        sel = [
            (a[0] > lo1 or (li1 and a[0] == lo1))
            and (a[0] < hi1 or (hin1 and a[0] == hi1))
            for a in argrows
        ]
        v1 = (hi1 - lo1) / (2 * math.pi)
        for lo2, hi2, li2, hin2 in _closure_options(axes[1]):
            cnt = sum(
                1
                for s, a in zip(sel, argrows)
                if s
                and (a[1] > lo2 or (li2 and a[1] == lo2))
                and (a[1] < hi2 or (hin2 and a[1] == hi2))
            )
            v2 = (hi2 - lo2) / (2 * math.pi)
            best = max(best, abs(cnt / n - v1 * v2))
    return best


def _canonical_args(pts):
    rows = []
    for p in pts:
        row = []
        for z in p:
            t = cmath.phase(complex(z))
            row.append(math.pi if t == -math.pi else t)
        rows.append(row)
    return rows


def test_angle_exact_1d_equals_closure_brute_force():
    rng = random.Random(41)
    for _ in range(30):
        args = [
            rng.choice([rng.uniform(-3.14, 3.14), 0.0, 1.0, math.pi])
            for _ in range(rng.randint(1, 8))
        ]
        pts = [(cmath.exp(1j * t),) for t in args]
        c = cycle_from_points(pts)
        mine = angle_discrepancy(c)
        brute = _brute_closure_sup(_canonical_args(pts))
        assert mine == pytest.approx(brute, abs=1e-12)


def test_angle_exact_2d_equals_closure_brute_force():
    rng = random.Random(99)
    for _ in range(15):
        pts = []
        for _ in range(rng.randint(1, 5)):
            t1 = rng.choice([rng.uniform(-3, 3), 0.0, math.pi / 2, math.pi])
            t2 = rng.choice([rng.uniform(-3, 3), t1, -1.0])
            pts.append((cmath.exp(1j * t1), cmath.exp(1j * t2)))
        c = cycle_from_points(pts, dim=2)
        mine = angle_discrepancy(c)
        brute = _brute_closure_sup(_canonical_args(pts))
        assert mine == pytest.approx(brute, abs=1e-12)


def test_angle_exact_2d_matches_brute_force():
    rng = random.Random(7)
    pts = [
        (cmath.exp(1j * rng.uniform(-3, 3)), cmath.exp(1j * rng.uniform(-3, 3)))
        for _ in range(6)
    ]
    c = cycle_from_points(pts, dim=2)
    exact = angle_discrepancy(c)
    # random literal boxes never exceed the supremum
    args = [(cmath.phase(a), cmath.phase(b)) for a, b in pts]
    best = 0.0
    for _ in range(20000):
        a1, b1 = sorted((rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)))
        a2, b2 = sorted((rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)))
        if a1 == b1 or a2 == b2:
            continue
        count = sum(1 for t1, t2 in args if a1 < t1 <= b1 and a2 < t2 <= b2)
        vol = (b1 - a1) * (b2 - a2) / (4 * math.pi**2)
        best = max(best, abs(count / len(args) - vol))
    assert exact >= best - 1e-12
    grid = angle_discrepancy(c, "grid", 64)
    assert grid <= exact + 1e-12


def test_angle_exact_2d_cap():
    pts = [(1, 1)] * (EXACT_MODE_POINT_CAP + 1)
    c = cycle_from_points(pts, dim=2)
    with pytest.raises(ExactModeTooLarge):
        angle_discrepancy(c)


def test_angle_exact_2d_accepts_cap():
    c = cycle_from_points([(1, 1)] * EXACT_MODE_POINT_CAP, dim=2)
    # all mass on one point: a box pinched onto it has mass 1 and area 0
    assert angle_discrepancy(c) == pytest.approx(1.0)


# Reference kernels: every pair of axis-1 cuts against every pair of
# axis-2 cuts, O(N^4) and O(G^4).  The scan in polytorus must agree.


def _quartic_axis_cuts(vals):
    u = np.unique(vals)
    m = u.size
    a_idx, b_idx = np.nonzero(np.triu(np.ones((m + 1, m + 1), dtype=bool)))
    lo = np.concatenate(([-np.pi], u))
    hi = np.concatenate((u, [np.pi]))
    len_max = hi[b_idx] - lo[a_idx]
    len_min = np.zeros_like(len_max)
    inner = a_idx < b_idx
    len_min[inner] = u[b_idx[inner] - 1] - u[a_idx[inner]]
    return u, a_idx, b_idx, len_min, len_max


def _quartic_exact_2d(args):
    n = args.shape[0]
    u1, a1, b1, min1, max1 = _quartic_axis_cuts(args[:, 0])
    u2, a2, b2, min2, max2 = _quartic_axis_cuts(args[:, 1])
    hist = np.zeros((u1.size + 1, u2.size + 1))
    r1 = np.searchsorted(u1, args[:, 0])
    r2 = np.searchsorted(u2, args[:, 1])
    np.add.at(hist, (r1 + 1, r2 + 1), 1)
    cum = hist.cumsum(axis=0).cumsum(axis=1)
    marg = cum[b1, :] - cum[a1, :]
    e = (marg[:, b2] - marg[:, a2]) / n
    best = 0.0
    for l1 in (min1, max1):
        for l2 in (min2, max2):
            vol = np.outer(l1, l2) / (4 * np.pi**2)
            best = max(best, float(np.abs(e - vol).max()))
    return best


def _quartic_grid_2d(args, grid):
    n = args.shape[0]
    idx = np.ceil((args + np.pi) * grid / (2 * np.pi)).astype(int) - 1
    idx = np.clip(idx, 0, grid - 1)
    hist = np.zeros((grid + 1, grid + 1))
    np.add.at(hist, (idx[:, 0] + 1, idx[:, 1] + 1), 1)
    cum = hist.cumsum(axis=0).cumsum(axis=1)
    a_idx, b_idx = np.nonzero(np.triu(np.ones((grid + 1, grid + 1), dtype=bool), 1))
    widths = (b_idx - a_idx) / grid
    marg = cum[b_idx, :] - cum[a_idx, :]
    e = (marg[:, b_idx] - marg[:, a_idx]) / n
    return float(np.abs(e - np.outer(widths, widths)).max())


def _oracle_inputs(seed, count):
    """Random argument pairs with ties, points at +-pi and diagonals."""
    rng = random.Random(seed)
    specials = [0.0, 1.0, -2.0, math.pi, -math.pi]
    for _ in range(count):
        pts = []
        for _ in range(rng.randint(1, 40)):
            t1 = rng.choice([rng.uniform(-math.pi, math.pi)] * 3 + specials)
            t2 = rng.choice([rng.uniform(-math.pi, math.pi)] * 2 + [t1] + specials)
            # complex(-1, -0.0) has argument -pi, folded onto pi
            pts.append(tuple(complex(-1.0, -0.0) if t == -math.pi else cmath.exp(1j * t)
                             for t in (t1, t2)))
        yield pts


def test_angle_exact_2d_matches_quartic_reference():
    for pts in _oracle_inputs(2024, 60):
        args = np.array(_canonical_args(pts))
        mine = angle_discrepancy(cycle_from_points(pts, dim=2))
        assert mine == pytest.approx(_quartic_exact_2d(args), abs=1e-12)


def test_angle_grid_2d_matches_quartic_reference():
    rng = random.Random(5)
    for pts in _oracle_inputs(77, 60):
        grid = rng.choice([2, 3, 8, 16, 33])
        args = np.array(_canonical_args(pts))
        mine = angle_discrepancy(cycle_from_points(pts, dim=2), "grid", grid)
        assert mine == pytest.approx(_quartic_grid_2d(args, grid), abs=1e-12)


# The all-edges scan that the occupied-cut scan replaced, kept as an
# oracle: per axis-1 pair it tries both signs with both length variants on
# each axis (eight prefix scans), and grid mode cuts at every grid edge.

ORACLE_CHUNK_FLOATS = 2**16
GRIDS = (2, 3, 8, 16, 33, 64, 100)


def _oracle_box_scan(cum, n, a1, b1, c1, ends2) -> float:
    best = 0.0
    rows = max(1, ORACLE_CHUNK_FLOATS // cum.shape[1])
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


def _oracle_cum_counts(r1, r2, m1, m2) -> np.ndarray:
    hist = np.zeros((m1 + 1, m2 + 1))
    np.add.at(hist, (r1 + 1, r2 + 1), 1.0)
    return hist.cumsum(axis=0).cumsum(axis=1)


def _oracle_exact_2d(args) -> float:
    n = args.shape[0]
    u1 = np.unique(args[:, 0])
    u2 = np.unique(args[:, 1])
    m1, m2 = u1.size, u2.size
    cum = _oracle_cum_counts(
        np.searchsorted(u1, args[:, 0]), np.searchsorted(u2, args[:, 1]), m1, m2
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
    return _oracle_box_scan(cum, n, a1, b1, c1, ends2)


def _oracle_grid_2d(args, grid) -> float:
    n = args.shape[0]
    idx = np.ceil((args + np.pi) * grid / (2 * np.pi)).astype(int) - 1
    idx = np.clip(idx, 0, grid - 1)
    cum = _oracle_cum_counts(idx[:, 0], idx[:, 1], grid, grid)
    a1, b1 = np.nonzero(np.triu(np.ones((grid + 1, grid + 1), dtype=bool), 1))
    edges = np.arange(grid + 1) / grid
    ends2 = [(slice(None), edges, slice(None), edges)]
    return _oracle_box_scan(cum, n, a1, b1, [(b1 - a1) / grid], ends2)


def _suite_cycles():
    """Zero cycles of the first trials of each degree of the default n=2 suite."""
    cfg = json.loads((CONFIG_DIR / "default_suite_n2.json").read_text())
    cycles = []
    for d in cfg["degrees"]:
        for trial in range(4):
            system = sample_bernoulli_system(2, d, cfg["master_seed"], trial)
            if not classify_exceptional(system).exceptional:
                cycles.append(solve_bivariate(*system.polys)[0])
    return cycles


def _oracle_cycles():
    return [cycle_from_points(pts, dim=2) for pts in _oracle_inputs(31, 50)] + _suite_cycles()


def test_angle_grid_2d_equals_all_edges_oracle():
    # the same float expressions at the boxes that can be optimal: equal bits
    for cycle in _oracle_cycles():
        args = arguments(cycle)
        for grid in GRIDS:
            assert angle_discrepancy(cycle, "grid", grid) == _oracle_grid_2d(args, grid)


def test_angle_exact_2d_matches_all_edges_oracle():
    # a dropped mixed length combination can tie the kept one up to rounding
    for cycle in _oracle_cycles():
        want = _oracle_exact_2d(arguments(cycle))
        assert abs(angle_discrepancy(cycle) - want) <= 2.2e-16 * want


def test_angle_nested_grids_between_coarse_and_exact():
    # a grid-G box is a grid-Gk box and a box of the exact family
    for cycle in _oracle_cycles():
        exact = angle_discrepancy(cycle)
        for grid in (2, 3, 8, 33):
            coarse = angle_discrepancy(cycle, "grid", grid)
            for k in (2, 3, 5):
                fine = angle_discrepancy(cycle, "grid", grid * k)
                assert coarse <= fine <= exact


def test_angle_exact_2d_scan_memory_is_chunked():
    # at the point cap, with all arguments distinct, the scan holds the
    # (m+1)^2 cumulative counts and the (m+1)(m+2)/2 cut pairs; every other
    # array stays within CHUNK_FLOATS floats, three of them at a time
    rng = np.random.default_rng(4)
    n = EXACT_MODE_POINT_CAP
    pts = np.exp(1j * rng.uniform(-np.pi, np.pi, (n, 2)))
    cycle = cycle_from_points(pts.tolist(), dim=2)
    pairs = (n + 1) * (n + 2) // 2
    base = 8 * (n + 1) ** 2 + 2 * 8 * pairs
    tracemalloc.start()
    try:
        angle_discrepancy(cycle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= base + 3 * 8 * CHUNK_FLOATS + 2**18


def test_angle_2d_near_uniform_grid_is_small():
    k = 6
    pts = [
        (cmath.exp(2j * math.pi * a / k), cmath.exp(2j * math.pi * b / k))
        for a in range(k)
        for b in range(k)
    ]
    c = cycle_from_points(pts, dim=2)
    assert angle_discrepancy(c) <= 0.31  # 1/k on each axis, products stack


# ---------------------------------------------------------------------------
# radius discrepancy


def test_radius_examples():
    torus = cycle_from_points([(cmath.exp(1j),), (1,), (-1j,)])
    assert radius_discrepancy(torus, 0.3) == 0.0
    z = cycle_from_points([(2,), (1,)])
    assert radius_discrepancy(z, 0.5) == pytest.approx(0.5)  # |2| < 2 fails strictly
    z2 = cycle_from_points([(0.5,)])
    assert radius_discrepancy(z2, 0.4) == 1.0


def test_radius_requires_eps_in_range():
    z = cycle_from_points([(1,)])
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DiscrepancyError):
            radius_discrepancy(z, bad)


def test_radius_all_coordinates_must_pass():
    z = cycle_from_points([(1, 3)], dim=2)
    assert radius_discrepancy(z, 0.5) == 1.0


@given(st.lists(st.floats(0.2, 3.0), min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_radius_monotone_in_eps(mods):
    z = cycle_from_points([(m,) for m in mods])
    vals = [radius_discrepancy(z, e) for e in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# Erdos-Turan size


def test_eta_geometric_series():
    d = 9
    f = poly(1, {(k,): 1 for k in range(d + 1)})
    rep = erdos_turan_size((f,))
    assert rep.eta == pytest.approx(math.log(d + 1) / d, rel=1e-12)


def test_eta_binomial_free():
    d = 7
    f = poly(1, {(0,): 1, (d,): 1})
    rep = erdos_turan_size((f,))
    assert rep.eta == pytest.approx(math.log(2) / d, rel=1e-12)


def test_eta_bernoulli_upper():
    for t in range(10):
        s = sample_bernoulli_system(1, 40, 5, t)
        rep = erdos_turan_size(s)
        assert rep.eta <= math.log(41) / 40 + 1e-12


def test_eta_infinite_marker():
    f1 = poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    f2 = poly(2, {(0, 0): -1, (1, 0): 1, (0, 1): 1})
    rep = erdos_turan_size((f1, f2))
    assert rep.infinite and math.isinf(rep.eta)


def test_eta_upper_bound_formula():
    d = 4
    s = sample_bernoulli_system(2, d, 3, 0)
    got = erdos_turan_size(s).eta_upper
    want = (1 / 16) * (4 * (2 + math.sqrt(2)) * 2 * math.log(15))
    assert got == pytest.approx(want, rel=1e-12)
    f = sample_bernoulli_system(1, 10, 3, 0).polys[0]
    got1 = erdos_turan_size((f,)).eta_upper
    assert got1 == pytest.approx(2 * math.log(sup_norm_upper(f)) / 10, rel=1e-12)


@given(st.integers(0, 2**32), st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_eta_below_its_bound(seed, d):
    s = sample_bernoulli_system(2, d, seed, 0)
    from polytorus.resultants import classify_exceptional

    rep = classify_exceptional(s)
    er = erdos_turan_size(s, report=rep)
    if not math.isinf(er.eta):
        assert er.eta <= er.eta_upper + 1e-12
        assert er.eta >= 0.0


def test_eta_uses_report_directly():
    from polytorus.resultants import classify_exceptional

    s = sample_bernoulli_system(2, 3, 9, 0)
    rep = classify_exceptional(s)
    a = erdos_turan_size(s, report=rep)
    b = erdos_turan_size(s)
    assert a.eta == b.eta


# The 4096-direction maximisation that the per-arc closed form replaced,
# kept verbatim as an oracle (only the direction count is a parameter, and
# the logs and D come from the exact report).  Its "edges" are differences
# of consecutive sorted vertices, as they were.


def _oracle_objective(verts, logs, per_normal, theta):
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
    return objective


def _oracle_verts(polys):
    return [np.array(convex_hull(support(f)).vertices, dtype=float) for f in polys]


def _oracle_eta_sampled(polys, rep, angles=4096):
    verts = _oracle_verts(polys)
    thetas = [np.linspace(-np.pi, np.pi, angles, endpoint=False)]
    for v in verts:
        cyc = np.vstack([v, v[:1]])
        edges = np.diff(cyc, axis=0)
        for ex, ey in edges:
            if ex or ey:
                t = math.atan2(ey, ex)
                thetas.append(np.array([t, t + np.pi]))
    for (vx, vy), _ in rep.per_normal:
        t = math.atan2(vy, vx)
        thetas.append(np.array([t + np.pi / 2, t - np.pi / 2]))
    theta = np.unique(np.concatenate(thetas))
    objective = _oracle_objective(verts, rep.sup_log_values, rep.per_normal, theta)
    return float(objective.max() / rep.mixed_volume)


def _dense_eta_sampled(polys, rep, angles=2**20, chunk=2**16):
    """The objective's maximum over `angles` equispaced directions, with
    the directions along the fast axis."""
    verts = _oracle_verts(polys)
    logs = rep.sup_log_values
    best = -math.inf
    for a in range(0, angles, chunk):
        theta = -np.pi + 2 * np.pi * np.arange(a, a + chunk) / angles
        c, s = np.cos(theta), np.sin(theta)
        obj = np.zeros(chunk)
        for i, v in enumerate(verts):  # <u, p> for every vertex p of hull i
            dots = np.outer(v[:, 1], c) - np.outer(v[:, 0], s)
            obj += logs[1 - i] * (dots.max(axis=0) - dots.min(axis=0))
        for (vx, vy), lv in rep.per_normal:
            obj -= 0.5 * lv * np.abs(vx * c + vy * s)
        best = max(best, float(obj.max()))
    return best / rep.mixed_volume


@pytest.fixture(scope="module")
def seed1_eta_reports():
    """(system, exact EtaReport) for the non-exceptional seed-1 systems of
    n2-low-grid (d = 4, 6: 40 trials) and n2-high-grid (d = 10, 12: 16)."""
    out = []
    for d, trials in ((4, 40), (6, 40), (10, 16), (12, 16)):
        for t in range(trials):
            s = sample_bernoulli_system(2, d, 1, t)
            report = classify_exceptional(s)
            if not report.exceptional:
                out.append((s, erdos_turan_size(s, report=report)))
    return out


def test_eta_exact_never_below_sampled_oracle(seed1_eta_reports):
    gains = []
    for s, rep in seed1_eta_reports:
        sampled = _oracle_eta_sampled(s.polys, rep)
        assert rep.eta >= sampled * (1 - 1e-15)
        gains.append(rep.eta / sampled - 1)
    assert len(gains) > 90
    # sampling misses interior maxima by up to (pi/4096)^2 / 2 relative
    assert 1e-7 < max(gains) <= (math.pi / 4096) ** 2 / 2


def test_eta_dense_sampling_never_exceeds_exact(seed1_eta_reports):
    for s, rep in seed1_eta_reports[::4]:
        assert _dense_eta_sampled(s.polys, rep) <= rep.eta * (1 + 1e-15)


def test_eta_maximum_strictly_inside_an_arc():
    # d = 1 triangles: on the arc 0 < theta < pi/2 the objective is
    # A cos + B sin with A = L1 + L2 - (l_diag + l_x)/2 and
    # B = L1 + L2 - (l_diag + l_y)/2 (l_x: the facet normal (1, 0)), and
    # |Res| = 1, 5, 2 at (-1,-1), (0,1), (1,0) put atan2(B, A) at 0.22 pi
    f1 = poly(2, {(0, 0): 3, (1, 0): 1, (0, 1): 1})
    f2 = poly(2, {(0, 0): 1, (1, 0): 2, (0, 1): 1})
    rep = erdos_turan_size((f1, f2))
    assert dict(rep.per_normal) == pytest.approx(
        {(-1, -1): 0.0, (0, 1): math.log(5), (1, 0): math.log(2)}
    )
    a = math.log(20) - math.log(2) / 2
    b = math.log(20) - math.log(5) / 2
    assert rep.mixed_volume == 1
    assert rep.eta == pytest.approx(math.hypot(a, b), rel=1e-15)
    theta = math.atan2(rep.w_argmax[1], rep.w_argmax[0]) % math.pi
    assert theta == pytest.approx(math.atan2(b, a), abs=1e-12)
    critical = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi)
    assert min(abs(theta - c) for c in critical) > 0.05
    assert rep.eta > _oracle_eta_sampled((f1, f2), rep) * (1 + 1e-9)


def test_eta_argmax_is_a_unit_direction_attaining_eta(seed1_eta_reports):
    for s, rep in seed1_eta_reports:
        w = np.array(rep.w_argmax)
        assert np.hypot(*w) == pytest.approx(1.0, abs=1e-15)
        theta = np.array([math.atan2(w[1], w[0])])
        verts = _oracle_verts(s.polys)
        at_w = _oracle_objective(verts, rep.sup_log_values, rep.per_normal, theta)
        assert at_w[0] / rep.mixed_volume == pytest.approx(rep.eta, rel=1e-12)
        u = np.array([-w[1], w[0]])
        lengths = [np.ptp(v @ u) for v in verts]
        assert rep.dw_at_argmax == pytest.approx((lengths[1], lengths[0]), rel=1e-12)


# ---------------------------------------------------------------------------
# theorem bounds


def test_bounds_examples():
    b_ang, _ = discrepancy_bounds(math.exp(-18), 1, 0.5)
    assert b_ang == pytest.approx(132 * math.exp(-6), rel=1e-12)
    _, b_rad = discrepancy_bounds(0.01, 2, 0.1)
    assert b_rad == pytest.approx(0.4, rel=1e-12)
    assert discrepancy_bounds(0.0, 2, 0.1) == (0.0, 0.0)
    assert discrepancy_bounds(math.inf, 2, 0.1) == (math.inf, math.inf)


def test_bounds_reject_bad_input():
    with pytest.raises(DiscrepancyError):
        discrepancy_bounds(0.1, 1, 0.0)
    with pytest.raises(DiscrepancyError):
        discrepancy_bounds(-0.1, 1, 0.5)


def test_bound_exponent_vanishes_for_n1():
    # (2/3)(n-1) = 0: the log+ factor drops out entirely
    a, _ = discrepancy_bounds(0.008, 1, 0.5)
    assert a == pytest.approx(132 * 0.008 ** (1 / 3), rel=1e-12)


# ---------------------------------------------------------------------------
# polar boxes and box counts


def test_box_validation():
    with pytest.raises(DiscrepancyError):
        PolarBox(radial=((1.0, 0.5),), angular=((-1.0, 1.0),))
    with pytest.raises(DiscrepancyError):
        PolarBox(radial=((0.0, 1.0),), angular=((2.0, 1.0),))


def test_box_haar_values():
    full = PolarBox.full(2)
    assert full.haar_mass() == pytest.approx(1.0)
    away = PolarBox(radial=((0.0, 0.3), (0.0, 0.3)), angular=full.angular)
    assert away.haar_mass() == 0.0
    half_quarter = PolarBox(
        radial=((0.5, 2.0), (0.5, 2.0)),
        angular=((0.0, math.pi), (0.0, math.pi / 2)),
    )
    assert half_quarter.haar_mass() == pytest.approx(1 / 8)


def test_box_count_membership():
    c = cycle_from_points([(1, 1), (0.1, 1), (1, 0.1)], dim=2)
    shell = PolarBox(
        radial=((0.5, 2.0), (0.5, 2.0)),
        angular=((-math.pi, math.pi), (-math.pi, math.pi)),
    )
    assert box_count(c, shell) == 1


def test_box_count_additive_over_disjoint_boxes():
    rng = random.Random(3)
    pts = [(cmath.exp(1j * rng.uniform(-3, 3)),) for _ in range(10)]
    c = cycle_from_points(pts)
    left = PolarBox(radial=((0.0, 2.0),), angular=((-math.pi, 0.0),))
    right = PolarBox(radial=((0.0, 2.0),), angular=((0.0, math.pi),))
    whole = PolarBox(radial=((0.0, 2.0),), angular=((-math.pi, math.pi),))
    assert box_count(c, left) + box_count(c, right) == box_count(c, whole) == 10
