import math
import os
import random
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytorus import resultants, solver
from polytorus.lattice import convex_hull, mixed_volume
from polytorus.polynomials import (
    IntPolynomial,
    sample_bernoulli_system,
    sup_norm_upper,
)
from polytorus.resultants import (
    classify_exceptional,
    eliminant_bivariate,
    roots_structure,
)
from polytorus.solver import (
    RESIDUAL_TOL,
    NonIsolatedError,
    SolverError,
    roots_univariate,
    solve_bivariate,
    solve_univariate_cycle,
)


def poly(nvars, coeffs):
    return IntPolynomial.from_dict(nvars, coeffs)


# ---------------------------------------------------------------------------
# univariate roots


def test_roots_of_unity():
    d = 12
    res = roots_univariate([-1] + [0] * (d - 1) + [1])
    assert len(res.roots) == d
    assert max(abs(z**d - 1) for z in res.roots) < 1e-10


def test_cubic_integer_roots():
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    res = roots_univariate([-6, 11, -6, 1])
    got = sorted(z.real for z in res.roots)
    assert np.allclose(got, [1, 2, 3], atol=1e-9)
    assert max(abs(z.imag) for z in res.roots) < 1e-9


def test_zero_roots_split_exactly():
    # x^2 (x-5)
    res = roots_univariate([0, 0, -5, 1])
    zeros = [z for z in res.roots if z == 0]
    assert len(zeros) == 2
    assert any(abs(z - 5) < 1e-9 for z in res.roots)


def test_degree_200_bernoulli_residuals():
    d = 200
    f = sample_bernoulli_system(1, d, 2024, 0).polys[0]
    coeffs = [f.coeff((k,)) for k in range(d + 1)]
    res = roots_univariate(coeffs)
    assert len(res.roots) == d
    assert res.converged.all()
    worst = 0.0
    for z in res.roots:
        if abs(z) <= 1:
            val = np.polyval(coeffs[::-1], z)
        else:
            val = np.polyval(coeffs, 1 / z)  # |f(z)| / |z|^d
        worst = max(worst, abs(val))
    assert worst <= 1e-8 * sum(abs(c) for c in coeffs)


def test_roots_requires_degree():
    with pytest.raises(SolverError):
        roots_univariate([3])


def test_roots_reject_coefficients_past_double_range():
    # (x - 10^100)^12: scaling into double range zeroes the leading 1
    coeffs = [math.comb(12, k) * (-(10**100)) ** (12 - k) for k in range(13)]
    with pytest.raises(SolverError, match="scaling zeroes an end coefficient"):
        roots_univariate(coeffs)
    # x^2 - 10^400: the roots +-10^200 are past the double range
    with pytest.raises(SolverError, match="starting points are not finite"):
        roots_univariate([-(10**400), 0, 1])


@pytest.mark.parametrize("coeffs", [[1.0, 0, 1], [1, 0, np.int64(1)], [1, 0.5, 1]])
def test_roots_require_integer_coefficients(coeffs):
    with pytest.raises(SolverError, match="integer"):
        roots_univariate(coeffs)


@given(st.integers(0, 2**32), st.integers(2, 60))
@settings(max_examples=30, deadline=None)
def test_vieta_sum(seed, d):
    f = sample_bernoulli_system(1, d, seed, 0).polys[0]
    coeffs = [f.coeff((k,)) for k in range(d + 1)]
    res = roots_univariate(coeffs)
    total = complex(np.sum(res.roots))
    expect = -coeffs[d - 1] / coeffs[d]
    assert abs(total - expect) <= 1e-8 * d


@given(st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_conjugation_symmetry(seed):
    f = sample_bernoulli_system(1, 30, seed, 0).polys[0]
    coeffs = [f.coeff((k,)) for k in range(31)]
    res = roots_univariate(coeffs)
    roots = list(res.roots)
    for z in roots:
        assert any(abs(np.conj(z) - w) < 1e-7 * max(1, abs(z)) for w in roots)


def _reference_error_bound(abs_coeffs, z):
    """sum_j |a_j| |v|^j on the side of the unit circle where z lies."""
    if abs(z) > 1.0:
        z, abs_coeffs = 1.0 / z, abs_coeffs[::-1]
    return sum(a * abs(z) ** j for j, a in enumerate(abs_coeffs))


def test_floor_stop_ends_ill_conditioned_batch(monkeypatch):
    # Res_y of this d=10 trial is square-free of degree 100; stopped by
    # the Aberth correction alone, from the circle, it ran all 200 sweeps
    # and left 2 roots flagged unconverged
    s = sample_bernoulli_system(2, 10, 1, 13)
    ((factor, mult),) = roots_structure(eliminant_bivariate(*s.polys, "y"))
    assert (mult, len(factor) - 1) == (1, 100)
    calls = []
    floor_test = solver._at_rounding_floor

    def spy(abs_layout, norm1, z, p, cand):
        got = floor_test(abs_layout, norm1, z, p, cand)
        calls.append((z.copy(), p.copy(), cand.copy(), got.copy()))
        return got

    monkeypatch.setattr(solver, "_at_rounding_floor", spy)
    res = roots_univariate(factor)
    assert res.sweeps < solver.ABERTH_MAX_SWEEPS
    assert res.converged.all()
    abs_coeffs = np.abs(solver.scaled_float_coeffs(factor))
    stopped = 0
    for z, p, cand, got in calls:
        assert not (got & ~cand).any()
        for r, k in zip(*np.nonzero(cand)):
            bound = _reference_error_bound(abs_coeffs, z[r, k])
            assert got[r, k] == (abs(p[r, k]) <= 4 * 2.0**-53 * bound)
        stopped += int(got.sum())
    assert stopped > 0


@pytest.mark.parametrize("deg", [1, 5, 30])
def test_rounding_floor_predicate_matches_scalar_bound(deg):
    rng = np.random.default_rng(deg)
    abs_rows = np.abs(rng.standard_normal((3, deg + 1))) * 10.0 ** rng.uniform(
        -3, 3, (3, deg + 1)
    )
    z = np.stack([_far_candidates(rng, 8) for _ in range(3)])
    bound = np.array(
        [[_reference_error_bound(a, zk) for zk in row] for a, row in zip(abs_rows, z)]
    )
    side = rng.choice([0.99, 1.01], z.shape)  # just under or just over
    p = side * 4 * 2.0**-53 * bound * np.exp(1j * rng.uniform(0, 6, z.shape))
    cand = rng.random(z.shape) < 0.8
    got = solver._at_rounding_floor(solver._layout(abs_rows), abs_rows.sum(axis=1), z, p, cand)
    assert np.array_equal(got, cand & (side < 1))


def test_floor_stop_keeps_well_conditioned_roots(monkeypatch):
    d = 64
    coeffs = [-1] + [0] * (d - 1) + [1]
    res = roots_univariate(coeffs)
    assert res.converged.all()
    exact = np.exp(2j * np.pi * np.arange(d) / d)
    assert all(np.min(np.abs(exact - z)) <= 1e-13 for z in res.roots)
    monkeypatch.setattr(
        solver, "_at_rounding_floor", lambda abs_layout, norm1, z, p, cand: cand & False
    )
    tol_only = roots_univariate(coeffs)
    assert np.max(np.abs(res.roots - tol_only.roots)) <= 1e-13


# ---------------------------------------------------------------------------
# bivariate solving


def test_circle_hyperbola_solutions():
    f1 = poly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -5})
    f2 = poly(2, {(1, 1): 1, (0, 0): -2})
    cycle, diag = solve_bivariate(f1, f2)
    assert cycle.degree == 4
    got = sorted(
        (round(p.coords[0].real, 6), round(p.coords[1].real, 6))
        for p in cycle.points
    )
    assert got == [(-2.0, -1.0), (-1.0, -2.0), (1.0, 2.0), (2.0, 1.0)]
    assert diag.count_expected == 4
    assert diag.cross_check_mismatches == 0


def test_two_lines_single_solution():
    f1 = poly(2, {(1, 0): 1, (0, 1): -1})
    f2 = poly(2, {(1, 0): 1, (0, 1): 1})
    cycle, _ = solve_bivariate(f1, f2)
    assert cycle.degree == 1
    (p,) = cycle.points
    assert abs(p.coords[0]) < 1e-9 and abs(p.coords[1]) < 1e-9


def test_shared_factor_raises():
    f1 = poly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -5})
    with pytest.raises(NonIsolatedError):
        solve_bivariate(f1, f1)


def test_shared_factor_in_y_raises():
    # (y-1)x and (y-1)(x+1): Res_x = (y-1)^2 is not zero, but Res_y is
    f1 = poly(2, {(1, 1): 1, (1, 0): -1})
    f2 = poly(2, {(1, 1): 1, (0, 1): 1, (1, 0): -1, (0, 0): -1})
    with pytest.raises(NonIsolatedError):
        solve_bivariate(f1, f2)


def test_bernoulli_d4_count():
    # first non-exceptional sampled system has exactly 16 isolated zeros
    t = 0
    while True:
        s = sample_bernoulli_system(2, 4, 99, t)
        if not classify_exceptional(s).exceptional:
            break
        t += 1
    cycle, diag = solve_bivariate(*s.polys)
    assert cycle.degree == 16
    assert diag.count_found == diag.count_expected == 16


def test_multiplicity_shared_y_coordinate():
    # trial whose eliminant is divisible by (y+1)^4: four zeros above y=-1
    s = sample_bernoulli_system(2, 4, 1, 16)
    assert not classify_exceptional(s).exceptional
    cycle, diag = solve_bivariate(*s.polys)
    assert cycle.degree == 16
    assert diag.dropped == 0
    near = [p for p in cycle.points if abs(p.coords[1] + 1) < 1e-8]
    assert sum(p.mult for p in near) == 4


def test_tangential_double_point_multiplicity():
    # parabola y = x^2 against its tangent y = 2x - 1: double point at (1, 1)
    f1 = poly(2, {(0, 1): 1, (2, 0): -1})
    f2 = poly(2, {(0, 1): 1, (1, 0): -2, (0, 0): 1})
    cycle, diag = solve_bivariate(f1, f2)
    assert diag.count_expected == 2
    assert cycle.degree == 2
    (p,) = cycle.points
    assert p.mult == 2
    assert abs(p.coords[0] - 1) < 1e-8 and abs(p.coords[1] - 1) < 1e-8


def _swap(f):
    return poly(2, {(b, a): c for (a, b), c in f.terms})


def test_multiplicity_shared_x_coordinate():
    # the variable swap of the shared-y trial: four zeros above x = -1, so
    # one x root of multiplicity 4 pairs with four distinct y roots
    s = sample_bernoulli_system(2, 4, 1, 16)
    cycle, diag = solve_bivariate(*(_swap(f) for f in s.polys))
    assert cycle.degree == 16
    assert diag.dropped == 0 and diag.cross_check_mismatches == 0
    near = [p for p in cycle.points if abs(p.coords[0] + 1) < 1e-8]
    assert sum(p.mult for p in near) == 4
    assert len(near) == 4


def test_collisions_on_both_axes_pair_every_combination():
    # (x-1)(x-2) = (y-1)(y-2) = 0: both eliminants are squares, and each
    # double y root must take two distinct x roots, not one twice
    f1 = poly(2, {(2, 0): 1, (1, 0): -3, (0, 0): 2})
    f2 = poly(2, {(0, 2): 1, (0, 1): -3, (0, 0): 2})
    cycle, diag = solve_bivariate(f1, f2)
    got = sorted(
        (round(p.coords[0].real, 9), round(p.coords[1].real, 9), p.mult)
        for p in cycle.points
    )
    assert got == [(1.0, 1.0, 1), (1.0, 2.0, 1), (2.0, 1.0, 1), (2.0, 2.0, 1)]
    assert diag.dropped == 0 and diag.cross_check_mismatches == 0


def test_stacked_multiplicity_lands_where_both_eliminants_agree():
    # zeros (-1,-1), (-1,1), (1,-1) of total multiplicity 4: Res_x is
    # (y-1)(y+1)^3 and Res_y is (x^2-1)^2, so only (1,-1) can be double
    s = sample_bernoulli_system(2, 2, 1, 85)
    assert not classify_exceptional(s).exceptional
    cycle, diag = solve_bivariate(*s.polys)
    got = sorted(
        (round(p.coords[0].real, 9), round(p.coords[1].real, 9), p.mult)
        for p in cycle.points
    )
    assert got == [(-1.0, -1.0, 1), (-1.0, 1.0, 1), (1.0, -1.0, 2)]
    assert diag.dropped == 0 and diag.cross_check_mismatches == 0


@pytest.mark.parametrize("d,seed", [(4, 2), (5, 3), (6, 4), (7, 5), (8, 6)])
def test_swapped_variables_give_swapped_points(d, seed):
    t = 0
    while classify_exceptional(sample_bernoulli_system(2, d, seed, t)).exceptional:
        t += 1
    polys = sample_bernoulli_system(2, d, seed, t).polys
    cycle, diag = solve_bivariate(*polys)
    swapped, sdiag = solve_bivariate(*(_swap(f) for f in polys))
    assert sdiag.count_found == diag.count_found == d * d
    left = list(swapped.points)
    for p in cycle.points:
        want = np.array(p.coords[::-1])
        gaps = [
            np.max(np.abs(np.array(q.coords) - want) / np.maximum(1, np.abs(want)))
            for q in left
        ]
        q = left.pop(int(np.argmin(gaps)))
        assert min(gaps) <= 1e-9 and q.mult == p.mult
    assert not left


def test_zeros_at_infinity_are_counted_not_paired():
    # xy = 1 and xy = 2 share no finite zero; both eliminants vanish at 0
    f1 = poly(2, {(1, 1): 1, (0, 0): -1})
    f2 = poly(2, {(1, 1): 1, (0, 0): -2})
    cycle, diag = solve_bivariate(f1, f2)
    assert cycle.degree == 0
    assert diag.dropped == 1 and diag.cross_check_mismatches == 1


@pytest.mark.parametrize("swap", [False, True])
def test_far_out_zeros_are_paired(swap):
    # x = 10^30, y^12 = 1: twelve isolated zeros whose x is far past
    # 10^(308/12), where an unscaled x^12 overflows
    terms = [{(1, 0): 1, (0, 0): -(10**30)}, {(0, 12): 1, (0, 0): -1}]
    if swap:
        terms = [{(b, a): c for (a, b), c in t.items()} for t in terms]
    cycle, diag = solve_bivariate(*(poly(2, t) for t in terms))
    assert diag.count_found == diag.count_expected == 12
    assert diag.dropped == diag.cross_check_mismatches == 0
    assert diag.max_residual <= RESIDUAL_TOL
    pts = cycle.coords_array()[:, ::-1] if swap else cycle.coords_array()
    assert np.allclose(pts[:, 0], 1e30, rtol=1e-15, atol=0)
    assert np.allclose(pts[:, 1] ** 12, 1.0, rtol=0, atol=1e-12)


def test_greedy_pairs_respects_x_multiplicity():
    # y1's best x is already taken by y0; it must fall back to its second
    scores = np.array([[0.0, 1e-9], [1e-10, 1e-8]])
    pairs, left = solver._greedy_pairs(scores, [1, 1], [1, 1])
    assert pairs == {(0, 0): 1, (1, 1): 1} and list(left) == [0, 0]
    # a double y root with one passing x stacks on it, overdrawing a simple
    # x root; a y root with no passing x is left out
    scores = np.array([[0.0, 1.0], [1.0, 1.0]])
    pairs, left = solver._greedy_pairs(scores, [2, 1], [1, 1])
    assert pairs == {(0, 0): 2} and list(left) == [-1, 1]


def test_newton_2x2_converges_from_perturbed_zeros():
    f1 = poly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -5})
    f2 = poly(2, {(1, 1): 1, (0, 0): -2})
    coeffs = np.concatenate([solver._dense_coeffs(f, 2) for f in (f1, f2)])
    x = np.array([1.0, 2.0, -1.0, -2.0]) * (1 + 1e-6) + 1e-7j
    y = np.array([2.0, 1.0, -2.0, -1.0]) * (1 - 1e-6)
    x, y = solver._newton_2x2(coeffs, x, y)
    assert np.max(np.abs(x - [1, 2, -1, -2])) <= 1e-12
    assert np.max(np.abs(y - [2, 1, -2, -1])) <= 1e-12


def test_residual_threshold_respected():
    s = sample_bernoulli_system(2, 6, 5, 3)
    assert not classify_exceptional(s).exceptional
    cycle, diag = solve_bivariate(*s.polys)
    assert all(p.residual <= cycle.residual_threshold for p in cycle.points)
    assert diag.max_residual <= diag.residual_threshold


def test_solution_order_is_normalized():
    s = sample_bernoulli_system(2, 5, 11, 4)
    assert not classify_exceptional(s).exceptional
    a, _ = solve_bivariate(*s.polys)
    b, _ = solve_bivariate(*s.polys)
    assert a.points == b.points
    keys = [
        (p.coords[0].real, p.coords[0].imag, p.coords[1].real, p.coords[1].imag)
        for p in a.points
    ]
    assert keys == sorted(keys)


def test_bivariate_conjugation_symmetry():
    s = sample_bernoulli_system(2, 5, 21, 2)
    assert not classify_exceptional(s).exceptional
    cycle, _ = solve_bivariate(*s.polys)
    pts = cycle.coords_array()
    for row in pts:
        conj = np.conj(row)
        assert any(
            np.all(np.abs(conj - other) < 1e-6 * np.maximum(1, np.abs(other)))
            for other in pts
        )


def test_cycle_json_schema():
    f1 = poly(2, {(1, 0): 1, (0, 1): -1})
    f2 = poly(2, {(1, 0): 1, (0, 1): 1})
    cycle, diag = solve_bivariate(f1, f2)
    d = cycle.to_dict(diag)
    assert d["n"] == 2
    assert d["points"][0].keys() == {"coords", "mult", "residual"}
    assert len(d["points"][0]["coords"][0]) == 2
    assert "count_found" in d["diagnostics"]


def test_univariate_cycle():
    f = sample_bernoulli_system(1, 50, 31, 0).polys[0]
    cycle, diag = solve_univariate_cycle(f)
    assert cycle.degree == 50
    assert diag.count_found == 50
    assert diag.max_residual < 1e-10


def test_mixed_support_bkk_pair():
    # triangle 2*Sigma_2 against the diagonal segment: 4 torus solutions
    rng = random.Random(12)
    tri_pts = [(i, j) for i in range(3) for j in range(3) if i + j <= 2]
    while True:
        f1 = poly(2, {e: rng.randint(-9, 9) for e in tri_pts})
        f2 = poly(2, {(0, 0): rng.randint(1, 9), (1, 1): rng.randint(1, 9)})
        if f1.is_zero or len(f1.terms) < 3:
            continue
        hulls = [f1.newton_polytope, f2.newton_polytope]
        if mixed_volume(hulls) != 4:
            continue
        rep = classify_exceptional((f1, f2))
        if rep.exceptional:
            continue
        break
    cycle, diag = solve_bivariate(f1, f2)
    assert cycle.degree == 4 == diag.count_expected


# ---------------------------------------------------------------------------
# evaluation kernels against scalar references


def _reference_scaled_residual(polys, sups, x, y):
    """The residual filter as a scalar loop over terms, one (x, y) pair."""
    x, y = complex(x), complex(y)
    s = max(1.0, abs(x), abs(y))
    xs, ys = x / s, y / s
    worst = 0.0
    for f, sup in zip(polys, sups):
        val = 0j
        for exp, c in f.terms:
            val += c * xs ** exp[0] * ys ** exp[1] * s ** (sum(exp) - f.degree)
        worst = max(worst, abs(val) / sup)
    return worst


def _horner(rows, at):
    """(p, p') of each row polynomial at the points `at`, by Horner's rule."""
    deg = rows.shape[1] - 1
    p = np.repeat(rows[:, deg][:, None], at.shape[1], axis=1).astype(complex)
    dp = np.zeros_like(at)
    for j in range(deg - 1, -1, -1):
        dp = dp * at + p
        p = p * at + rows[:, j][:, None]
    return p, dp


def _reference_newton_ratio(coeff_rows, z):
    """(p/p', value) by two full Horner passes, direct at z and reversed
    at 1/z, selected per point afterwards."""
    deg = coeff_rows.shape[1] - 1
    p, dp = _horner(coeff_rows, z)
    w = p / np.where(dp == 0, 1e-300, dp)
    outside = np.abs(z) > 1.0
    u = np.where(outside, 1.0 / np.where(z == 0, 1.0, z), 0.0)
    q, dq = _horner(coeff_rows[:, ::-1], u)
    denom = deg * q - u * dq
    w_out = z * q / np.where(denom == 0, 1e-300, denom)
    return np.where(outside, w_out, w), np.where(outside, q, p)


def _dyadic(x):
    """(m, k) with the double x = m / 2**k exactly."""
    m, den = float(x).as_integer_ratio()
    return m, den.bit_length() - 1


def _exact_power_sum(coeffs, v):
    """(value, derivative) of sum_j a_j v^j in exact arithmetic, as
    ((re_num, im_num), (re_num, im_num), log2 of the common denominator).

    Every double is m / 2**k, so with V = v 2**K and A_j = a_j 2**Ka
    Gaussian integers, Horner's rule on P_j = P_{j+1} V + A_j 2**(K(deg-j))
    and D_j = D_{j+1} V + P_{j+1} 2**K is exact, and the value and the
    derivative are P_0 and D_0 over 2**(K deg + Ka).
    """
    deg = len(coeffs) - 1
    K = max(_dyadic(v.real)[1], _dyadic(v.imag)[1], 0)
    Ka = max(max(_dyadic(c.real)[1], _dyadic(c.imag)[1]) for c in coeffs)

    def scaled(x, k):
        m, e = _dyadic(x)
        return m << (k - e)

    vr, vi = scaled(v.real, K), scaled(v.imag, K)
    pr, pi = scaled(coeffs[deg].real, Ka), scaled(coeffs[deg].imag, Ka)
    dr = di = 0
    for j in range(deg - 1, -1, -1):
        dr, di = dr * vr - di * vi + (pr << K), dr * vi + di * vr + (pi << K)
        shift = K * (deg - j)
        ar, ai = scaled(coeffs[j].real, Ka), scaled(coeffs[j].imag, Ka)
        pr, pi = pr * vr - pi * vi + (ar << shift), pr * vi + pi * vr + (ai << shift)
    return (pr, pi), (dr, di), K * deg + Ka


def _error_against_exact(computed, exact, log2_den):
    """|computed - exact| for a double and an exact (re, im) numerator over
    2**log2_den, rounded once."""
    parts = []
    for c, num in zip((computed.real, computed.imag), exact):
        m, k = _dyadic(c)
        parts.append(((m << log2_den) - (num << k)) / (1 << (log2_den + k)))
    return math.hypot(*parts)


def _far_candidates(rng, k, spread=8):
    """k complex points with moduli from 10^-spread to 10^spread, plus the
    unit circle."""
    mod = 10.0 ** rng.uniform(-spread, spread, k)
    pts = mod * np.exp(1j * rng.uniform(-np.pi, np.pi, k))
    return np.concatenate([pts, [1.0, -1.0, 1j, 0.0]])


def _reference_scaled_derivatives(f, x, y):
    """(f, df/dx, df/dy) / s^deg as a scalar loop over terms, one (x, y)
    pair: c_J (x/s)^a (y/s)^b s^(a+b-deg), a c_J (x/s)^(a-1) (y/s)^b
    s^(a+b-1-deg) and likewise in y."""
    x, y = complex(x), complex(y)
    s = max(1.0, abs(x), abs(y))
    xs, ys = x / s, y / s
    val = fx = fy = 0j
    for (a, b), c in f.terms:
        val += c * xs**a * ys**b * s ** (a + b - f.degree)
        scale = s ** (a + b - 1 - f.degree)
        if a:
            fx += a * c * xs ** (a - 1) * ys**b * scale
        if b:
            fy += b * c * xs**a * ys ** (b - 1) * scale
    return val, fx, fy


def test_residual_kernel_matches_scalar_loop():
    """The scaled evaluator against the scalar loops, at points with moduli
    from 1e-40 to 1e40 (so both sides of its Horner sum run) and on a
    grid of them.  The residual and the complex value are compared
    relative to sup = sum |c_J|.  The partials' coefficients a c_J and
    b c_J sum to at most deg * sup in modulus, so they are compared
    relative to that, at the same 1e-15."""
    rng = np.random.default_rng(5)
    for seed in range(50):
        d = 1 + seed % 12
        polys = sample_bernoulli_system(2, d, seed, 0).polys
        sups = [float(sup_norm_upper(f)) for f in polys]
        rows = [solver._dense_coeffs(f, d) for f in polys]
        for _ in range(3):
            xs = _far_candidates(rng, 12, 40)
            ys = rng.permutation(_far_candidates(rng, 12, 40))
            values = [solver._scaled_values(c, xs, ys) for c in rows]
            got = np.maximum(*(np.abs(v[0]) / sup for v, sup in zip(values, sups)))
            want = [
                _reference_scaled_residual(polys, sups, x, y) for x, y in zip(xs, ys)
            ]
            assert np.max(np.abs(got - want)) <= 1e-15
            for f, (val, fx, fy), sup in zip(polys, values, sups):
                ref = np.array(
                    [_reference_scaled_derivatives(f, x, y) for x, y in zip(xs, ys)]
                )
                assert np.max(np.abs(val - ref[:, 0])) <= 1e-15 * sup
                assert np.max(np.abs(fx - ref[:, 1])) <= 1e-15 * d * sup
                assert np.max(np.abs(fy - ref[:, 2])) <= 1e-15 * d * sup
        # on the grid of every pair, as the pair scores take it
        grid = solver._scaled_values(rows[0][:1], xs[:6], ys[:6, None])[0]
        for k in range(6):
            for j in range(6):
                want = _reference_scaled_residual(polys[:1], sups[:1], xs[j], ys[k])
                assert abs(abs(grid[k, j]) / sups[0] - want) <= 1e-15


@pytest.mark.parametrize("rows,deg", [(1, 1), (1, 12), (3, 7), (5, 40)])
def test_one_pass_newton_ratio_equals_two_pass(rows, deg):
    """One evaluation per point, on its side of the unit circle, against
    the exact value of both sides, selected per point afterwards.

    The term a_n v^n, n = i m + j, meets j - 1 complex products in v^j,
    i m - 1 in (v^m)^i, one with a_n and one with (v^m)^i: n products, each
    with relative error at most sqrt(2) gamma_2 ~ 2 sqrt(2) u (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.6).  The two sums of
    m terms add gamma_(2m) (3.1), and m <= sqrt(deg) + 1.  So
    |p - sum a_j v^j| <= (2 sqrt(2) deg + 2 m) u E <= 4 (deg+1) u E with
    E = sum |a_j| |v|^j.  The derivative coefficients (j+1) a_{j+1} are
    rounded once more and run to deg-1, so the same factor bounds p'
    against E' = sum j |a_j| |v|^(j-1).
    """
    rng = np.random.default_rng(rows * 100 + deg)
    coeff_rows = rng.standard_normal((rows, deg + 1)) + 1j * rng.standard_normal(
        (rows, deg + 1)
    )
    z = np.stack([_far_candidates(rng, 2 * deg) for _ in range(rows)])
    z[:, 0] = 10.0 ** rng.uniform(-3, 3, rows)  # near the iteration's range
    layout = solver._layout(coeff_rows)
    outside, v, p, dp = solver._eval_one_side(layout, z)
    assert np.array_equal(outside, np.abs(z) > 1.0)
    assert np.all(np.abs(v) <= 1.0)
    w, p_ratio = solver._newton_ratio(layout, deg, z)
    assert np.array_equal(p_ratio, p)
    u = 2.0**-53
    j = np.arange(deg + 1)
    for r in range(rows):
        for k in range(z.shape[1]):
            a = coeff_rows[r, ::-1] if outside[r, k] else coeff_rows[r]
            value, deriv, log2_den = _exact_power_sum(list(a), v[r, k])
            av = abs(v[r, k]) ** j
            scale = np.abs(a) @ av
            dscale = (j[1:] * np.abs(a[1:])) @ av[:-1]
            assert _error_against_exact(p[r, k], value, log2_den) <= (
                4 * (deg + 1) * u * scale
            )
            assert _error_against_exact(dp[r, k], deriv, log2_den) <= (
                4 * (deg + 1) * u * dscale
            )
    # the Newton ratio is formed from these on the point's side
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num = np.where(outside, z * p, p)
        den = np.where(outside, deg * p - v * dp, dp)
        assert np.array_equal(w, num / np.where(den == 0, 1e-300, den))


def test_degree_800_kernels_match_references():
    """The pairwise sum runs in blocks of 256 active points: all 800 points
    make four blocks, the last one short, and a scattered subset of 300
    makes two.  Every sum still runs over all 800 points, so each active
    row equals the unblocked reference bit for bit.  The evaluation at this
    degree matches Horner's rule within both error bounds."""
    rng = np.random.default_rng(29)
    deg = 800
    coeff_rows = rng.standard_normal((1, deg + 1)) + 1j * rng.standard_normal(
        (1, deg + 1)
    )
    z = (10.0 ** rng.uniform(-0.3, 0.3, (1, deg))) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, (1, deg))
    )
    diff = z[0, :, None] - z[0, None, :]
    diff[np.arange(deg), np.arange(deg)] = np.inf
    ref = (1.0 / diff).sum(axis=1)
    for idx in (np.arange(deg), np.sort(rng.choice(deg, 300, replace=False))):
        assert np.array_equal(solver._pairwise_inverse_sum(z[0], idx), ref[idx])

    outside, v, p, dp = solver._eval_one_side(solver._layout(coeff_rows), z)
    p_in, dp_in = _horner(coeff_rows, v)
    p_out, dp_out = _horner(coeff_rows[:, ::-1], v)
    side = np.where(outside[0, :, None], coeff_rows[:, ::-1], coeff_rows)
    j = np.arange(deg + 1)
    av = np.abs(v[0, :, None]) ** j
    scale = (np.abs(side) * av).sum(axis=1)
    dscale = (j[1:] * np.abs(side[:, 1:]) * av[:, :-1]).sum(axis=1)
    # 4 (deg+1) u for the factored power sum (see above), 2 sqrt(2) + 1 < 4
    # per Horner step for the reference
    tol = 8 * (deg + 1) * 2.0**-53
    assert np.all(np.abs(p - np.where(outside, p_out, p_in))[0] <= tol * scale)
    assert np.all(np.abs(dp - np.where(outside, dp_out, dp_in))[0] <= tol * dscale)


def test_roots_of_unity_degree_1000():
    # 1000 active points make four blocks of the pairwise sum, the last
    # one short, until fewer than 769 are left
    d = 1000
    res = roots_univariate([-1] + [0] * (d - 1) + [1])
    assert res.converged.all()
    k = np.round(np.angle(res.roots) * d / (2 * np.pi)).astype(int) % d
    assert sorted(k) == list(range(d))
    assert np.max(np.abs(res.roots - np.exp(2j * np.pi * k / d))) <= 1e-12


def _circle_start(coeffs):
    """The circle of radius (|a_0/a_d|)^(1/deg), clipped to [1e-3, 1e3],
    with a deterministic angular perturbation."""
    deg = len(coeffs) - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        c0, lc = np.abs(coeffs[:1]), np.abs(coeffs[-1:])
        radius = np.where(c0 > 0, (c0 / lc) ** (1.0 / deg), 1.0)
    k = np.arange(deg)
    jitter = ((k * 2654435761) % 997) / 997.0 - 0.5
    angles = 2 * np.pi * (k + 0.3618) / deg + 1e-3 * jitter
    return np.clip(radius, 1e-3, 1e3) * np.exp(1j * angles)


def _full_set_aberth(coeffs, start=None):
    """The Aberth loop that evaluates every point and forms every S_k each
    sweep, then keeps the corrections of the active points only, from
    `start` or else from `_circle_start`.  Returns (roots, converged,
    sweeps, active points per sweep, rescue sweeps)."""
    coeff_rows = coeffs[None, :]
    rows, width = coeff_rows.shape
    deg = width - 1
    k = np.arange(deg)
    z = (_circle_start(coeffs) if start is None else start)[None, :]

    abs_rows = np.abs(coeff_rows)
    norm1 = abs_rows.sum(axis=1)
    active = np.ones((rows, deg), dtype=bool)
    sweeps, counts, rescues = 0, [], 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        layout, abs_layout = solver._layout(coeff_rows), solver._layout(abs_rows)
        while sweeps < solver.ABERTH_MAX_SWEEPS and active.any():
            sweeps += 1
            counts.append(int(active.sum()))
            w, p = solver._newton_ratio(layout, deg, z)
            diff = z[:, :, None] - z[:, None, :]
            diff[:, k, k] = np.inf
            s = (1.0 / diff).sum(axis=2)
            denom = 1.0 - w * s
            denom = np.where(denom == 0, 1e-300, denom)
            corr = w / denom
            bad = ~np.isfinite(corr)
            if (bad & active).any():
                rescues += 1
            if bad.any():
                corr = np.where(bad, 0.5 * z, corr)
            done = np.abs(corr) <= solver.ABERTH_TOL * (1.0 + np.abs(z))
            done |= solver._at_rounding_floor(abs_layout, norm1, z, p, active & ~done)
            z = np.where(active, z - corr, z)
            active &= ~done
    return z[0], ~active[0], sweeps, counts, rescues


def _blockwise_inverse_sum(z, idx):
    """S_k in blocks of 256 rows, each block and its reciprocal freshly
    allocated: the loop that `_pairwise_inverse_sum` replaced."""
    blocks = []
    for a in range(0, len(idx), 256):
        rows = idx[a : a + 256]
        diff = z[rows, None] - z
        diff[np.arange(len(rows)), rows] = np.inf
        blocks.append((1.0 / diff).sum(axis=1))
    return np.concatenate(blocks)


@pytest.mark.parametrize("deg", [3, 100, 256, 600])
def test_pairwise_inverse_sum_equals_fresh_blocks(deg):
    rng = np.random.default_rng(deg)
    z = 10.0 ** rng.uniform(-0.1, 0.1, deg)
    z = z * np.exp(1j * rng.uniform(-np.pi, np.pi, deg))
    for idx in (np.arange(deg), np.sort(rng.choice(deg, deg // 3 + 1, replace=False))):
        assert np.array_equal(
            solver._pairwise_inverse_sum(z, idx), _blockwise_inverse_sum(z, idx)
        )


def _n1_suite_coeffs(d, trial):
    f = sample_bernoulli_system(1, d, 1, trial).polys[0]
    return solver.scaled_float_coeffs([f.coeff((k,)) for k in range(d + 1)]).astype(
        complex
    )


def _from_terms(deg, terms):
    coeffs = np.zeros(deg + 1, dtype=complex)
    for j, a in terms.items():
        coeffs[j] = a
    return coeffs


_ABERTH_CASES = {
    **{
        f"n1-suite d={d} trial {t}": _n1_suite_coeffs(d, t)
        for d in (100, 200, 400)
        for t in range(3)
    },
    # 1000 active points make four blocks of the pairwise sum, the last short
    "z^1000 - 1": _from_terms(1000, {0: -1, 1000: 1}),
    # roots of moduli 1e-20 and 1e20: from one circle, 10 were still
    # moving at the sweep cap; the Newton polygon starts each on its own
    "1 + 1e200 z^10 + z^20": _from_terms(20, {0: 1, 10: 1e200, 20: 1}),
    # the evaluation overflows: non-finite corrections take the rescue
    "sum z^j + 1e308 z^20": _from_terms(40, {j: 1 for j in range(41)} | {20: 1e308}),
}


@pytest.mark.parametrize("case", list(_ABERTH_CASES))
def test_active_set_aberth_matches_full_set_loop(case):
    """Stopped points stay frozen in every S_k, so the active-set sweep
    forms each active point's correction from the same summands, in the
    same order, as the full-set loop from the same start: the roots, their
    flags and the sweep count are the same bits."""
    coeffs = _ABERTH_CASES[case]
    z, converged, sweeps = solver._aberth_batch(coeffs)
    start = solver._start_points(coeffs)
    ref_z, ref_converged, ref_sweeps, _, rescues = _full_set_aberth(coeffs, start)
    assert np.array_equal(z, ref_z)
    assert np.array_equal(converged, ref_converged)
    assert sweeps == ref_sweeps
    if case.startswith("1 + 1e200"):
        # z^10 = -10^(+-200) (1 + O(10^-400)): 10^(+-20) times the 10th
        # roots of -1.  The correction test ABERTH_TOL (1 + |z|) is
        # absolute below |z| = 1, so the roots of modulus 1e-20 stop after
        # one correction, within 1e-2 relative; the others within 1e-13
        assert converged.all() and sweeps < 10
        unit = np.exp(1j * np.pi * (2 * np.arange(10) + 1) / 10)
        for scale, tol in ((1e20, 1e-13), (1e-20, 1e-2)):
            near = z[np.abs(np.abs(z) / scale - 1) < 0.5]
            assert len(near) == 10
            err = np.abs(near[:, None] / scale - unit[None, :])
            assert sorted(err.argmin(axis=1)) == list(range(10))
            assert err.min(axis=1).max() <= tol
    if case.startswith("sum z^j"):
        assert rescues > 0


@pytest.mark.parametrize(
    "case", [c for c in _ABERTH_CASES if c.startswith("n1-suite")] + ["z^1000 - 1"]
)
def test_one_edge_newton_polygon_is_the_circle(case):
    # the coefficients of a +-1 polynomial share one modulus, and z^1000 - 1
    # has two terms: the polygon is one edge, and its start is the circle
    coeffs = _ABERTH_CASES[case]
    assert len(coeffs) - 1 > solver.EIG_START_MAX_DEGREE
    assert np.array_equal(solver._start_points(coeffs), _circle_start(coeffs))


@pytest.mark.parametrize("case", ["1 + 1e200 z^10 + z^20", "sum z^j + 1e308 z^20"])
def test_degenerate_eigenvalue_starts_take_the_newton_polygon(case):
    # below the crossover, but the companion eigenvalues hold repeated
    # exact zeros (11 distinct of 20 for 1e200, whose 10 zeros would
    # "converge" to 0 in one sweep; 21 of 40 for 1e308): the guard starts
    # on the Newton polygon
    coeffs = _ABERTH_CASES[case]
    deg = len(coeffs) - 1
    assert deg <= solver.EIG_START_MAX_DEGREE
    companion = np.eye(deg, k=-1)
    companion[:, -1] = -coeffs.real[:-1] / coeffs.real[-1]
    eig = np.linalg.eigvals(companion)
    assert not eig.all() and len(np.unique(eig)) < deg
    assert np.array_equal(solver._start_points(coeffs), solver._polygon_start(coeffs))


@pytest.mark.parametrize(
    "k, lead", [(200, 1), (320, 10**320)], ids=["1+1e200z+z^2", "1e-320+z+z^2"]
)
def test_single_zero_eigenvalue_start_keeps_tiny_roots(k, lead):
    # 1 + 10^200 z + z^2 and 10^-320 + z + z^2 (times 10^320): one
    # companion eigenvalue is an exact zero.  Aberth evaluates p(0) = a_0
    # there and finds the tiny root in one sweep; from the circle, the
    # absolute stopping rule flagged it converged far away (1.5e-70i for
    # -10^-200, 0 for -10^-320).  -10^-320 is subnormal: a double holds it
    # only to within 2^-1074.  The tiny root is -10^-k (1 + O(10^-k))
    res = roots_univariate([1, 10**k, lead])
    assert res.converged.all() and res.sweeps == 1
    exact = -(10.0**-k)
    tiny = min(res.roots, key=abs)
    assert abs(tiny - exact) <= 1e-13 * abs(exact) + 2.0**-1074


def _eliminant_factor(d, trial, axis):
    s = sample_bernoulli_system(2, d, 1, trial)
    ((factor, _), *_) = roots_structure(eliminant_bivariate(*s.polys, axis))
    return solver.scaled_float_coeffs(factor).astype(complex)


@pytest.mark.parametrize("d, trial", [(4, 1), (6, 1), (8, 2), (8, 4)])
def test_eigenvalue_starts_stop_within_three_sweeps(d, trial):
    # Res_x and Res_y of full systems: degree d^2 <= EIG_START_MAX_DEGREE
    for axis in "xy":
        coeffs = _eliminant_factor(d, trial, axis)
        assert len(coeffs) - 1 == d * d <= solver.EIG_START_MAX_DEGREE
        start = solver._start_points(coeffs)
        assert not np.array_equal(start, _circle_start(coeffs))
        z, converged, sweeps = solver._aberth_batch(coeffs)
        assert converged.all() and 1 <= sweeps <= 3
        ref_z, ref_converged, ref_sweeps, _, _ = _full_set_aberth(coeffs, start)
        assert np.array_equal(z, ref_z) and np.array_equal(converged, ref_converged)
        assert sweeps == ref_sweeps


@pytest.mark.parametrize("d", [10, 12])
def test_above_the_crossover_aberth_starts_on_the_newton_polygon(d):
    # trial 0's Res_y, of degree 100 and 144: 12 and 15 sweeps from the
    # Newton polygon, 18 and 21 from the circle
    coeffs = _eliminant_factor(d, 0, "y")
    assert len(coeffs) - 1 == d * d > solver.EIG_START_MAX_DEGREE
    start = solver._start_points(coeffs)
    assert np.array_equal(start, solver._polygon_start(coeffs))
    z, converged, sweeps = solver._aberth_batch(coeffs)
    ref_z, ref_converged, ref_sweeps, _, _ = _full_set_aberth(coeffs, start)
    assert np.array_equal(z, ref_z)
    assert np.array_equal(converged, ref_converged)
    assert sweeps == ref_sweeps < _full_set_aberth(coeffs)[2]


@pytest.mark.parametrize("d", [100, 400])
def test_sweeps_evaluate_only_active_points(monkeypatch, d):
    # each sweep evaluates and sums over the points still active, not the
    # degree, and nothing is evaluated after the last sweep
    cases = [_n1_suite_coeffs(d, t) for t in range(3)]
    ref_counts = [_full_set_aberth(coeffs)[3] for coeffs in cases]
    evaluated, summed = [], []
    newton_ratio, pairwise = solver._newton_ratio, solver._pairwise_inverse_sum

    def count_ratio(layout, deg, z):
        evaluated.append(z.shape[1])
        return newton_ratio(layout, deg, z)

    def count_pairwise(z, idx):
        summed.append(len(idx))
        return pairwise(z, idx)

    monkeypatch.setattr(solver, "_newton_ratio", count_ratio)
    monkeypatch.setattr(solver, "_pairwise_inverse_sum", count_pairwise)
    total = full = 0
    for coeffs, ref in zip(cases, ref_counts):
        evaluated.clear()
        summed.clear()
        _, _, sweeps = solver._aberth_batch(coeffs)
        counts = list(evaluated)
        assert len(counts) == sweeps
        assert counts == summed == ref
        assert counts[0] == d and counts == sorted(counts, reverse=True)
        total += sum(counts)
        full += sweeps * d
    assert total <= 0.7 * full


def test_evaluation_memory_within_pairwise_sum():
    # the factored power table takes O(points * sqrt(degree)) memory, so at
    # degree 2000, every point active, one evaluation needs no more than
    # the pairwise sum
    rng = np.random.default_rng(3)
    deg = 2000
    coeff_rows = rng.standard_normal((1, deg + 1)).astype(complex)
    z = (10.0 ** rng.uniform(-0.1, 0.1, (1, deg))) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, (1, deg))
    )
    peaks = []
    for call in (
        lambda: solver._eval_one_side(solver._layout(coeff_rows), z),
        lambda: solver._pairwise_inverse_sum(z[0], np.arange(deg)),
    ):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def _digests_under_blas_threads(script):
    """The distinct outputs of `script` run with 1 and with 2 BLAS threads."""
    src = os.path.dirname(os.path.dirname(solver.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src}
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
        run = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.add(run.stdout)
    return digests


def test_evaluation_does_not_depend_on_blas_threads():
    # a threaded BLAS gemm splits the work by thread count and rounds
    # differently; the records must not depend on the machine's cores
    script = (
        "import hashlib, numpy as np\n"
        "from polytorus import solver\n"
        "rng = np.random.default_rng(7)\n"
        "a = rng.standard_normal((1, 2001)) + 1j * rng.standard_normal((1, 2001))\n"
        "z = 10.0 ** rng.uniform(-0.2, 0.2, (1, 2000))\n"
        "z = z * np.exp(7j * rng.random((1, 2000)))\n"
        "_, _, p, dp = solver._eval_one_side(solver._layout(a), z)\n"
        "print(hashlib.sha256(p.tobytes() + dp.tobytes()).hexdigest())\n"
    )
    assert len(_digests_under_blas_threads(script)) == 1


def test_scaled_evaluator_does_not_depend_on_blas_threads():
    # the values and partials of a d = 12 pair, on the grid of 144 x 144
    # root pairs that the scores take and at the 144 points of the Newton
    # steps, some far out so both sides of the Horner sum run
    script = (
        "import hashlib, numpy as np\n"
        "from polytorus import solver\n"
        "from polytorus.polynomials import sample_bernoulli_system\n"
        "polys = sample_bernoulli_system(2, 12, 1, 0).polys\n"
        "rows = np.concatenate([solver._dense_coeffs(f, 12) for f in polys])\n"
        "rng = np.random.default_rng(7)\n"
        "x, y = 10.0 ** rng.uniform(-30, 30, (2, 144)) * np.exp(7j * rng.random(144))\n"
        "grid = solver._scaled_values(rows, x, y[:, None])\n"
        "pts = solver._scaled_values(rows, x, y)\n"
        "print(hashlib.sha256(grid.tobytes() + pts.tobytes()).hexdigest())\n"
    )
    assert len(_digests_under_blas_threads(script)) == 1


@pytest.mark.parametrize("d,seed", [(4, 3), (5, 11), (6, 5), (7, 2), (8, 1)])
def test_solve_bivariate_matches_reference_kernels(monkeypatch, d, seed):
    """The power-sum evaluation against Horner's rule: the same sweeps and
    multiplicities, and every zero within 1e-12 relative of its reference
    (the two evaluations round differently, so the last bits of a root may
    move).  Every residual matches the scalar loop at the returned zero."""
    t = 0
    while classify_exceptional(sample_bernoulli_system(2, d, seed, t)).exceptional:
        t += 1
    polys = sample_bernoulli_system(2, d, seed, t).polys
    cycle, diag = solve_bivariate(*polys)
    sups = [float(sup_norm_upper(f)) for f in polys]
    want = [_reference_scaled_residual(polys, sups, *p.coords) for p in cycle.points]
    assert max(abs(p.residual - w) for p, w in zip(cycle.points, want)) <= 1e-15
    assert abs(diag.max_residual - max(want)) <= 1e-15

    monkeypatch.setattr(
        solver,
        "_newton_ratio",
        lambda layout, deg, z: _reference_newton_ratio(
            layout.reshape(len(layout), 4, -1)[:, 0, : deg + 1], z
        ),
    )
    ref_cycle, ref_diag = solve_bivariate(*polys)
    assert diag.iterations == ref_diag.iterations
    assert len(cycle.points) == len(ref_cycle.points)
    ref = np.array([p.coords for p in ref_cycle.points])
    matched = set()
    for p in cycle.points:
        dist = np.max(np.abs(ref - np.array(p.coords)), axis=1)
        i = int(np.argmin(dist))
        assert dist[i] <= 1e-12 * max(1.0, *(abs(c) for c in p.coords))
        assert p.mult == ref_cycle.points[i].mult
        matched.add(i)
    assert len(matched) == len(ref_cycle.points)


def test_univariate_residuals_match_scalar_horner():
    f = sample_bernoulli_system(1, 120, 8, 0).polys[0]
    cycle, diag = solve_univariate_cycle(f)
    scaled = solver.scaled_float_coeffs([f.coeff((k,)) for k in range(121)])
    norm1 = float(np.sum(np.abs(scaled)))
    for p in cycle.points:
        (z,) = p.coords
        val = 0j
        for c in scaled[::-1] if abs(z) <= 1.0 else scaled:
            val = val * (z if abs(z) <= 1.0 else 1.0 / z) + c
        assert abs(p.residual - abs(val) / norm1) <= 1e-15
    assert diag.max_residual == max(p.residual for p in cycle.points)


# ---------------------------------------------------------------------------
# distinct roots with exact multiplicities


def _eliminant(d, trial, axis):
    return eliminant_bivariate(*sample_bernoulli_system(2, d, 1, trial).polys, axis)


def test_repeated_root_takes_yun_factors():
    # 1 - z - z^2 + z^3 = (1 - z)^2 (1 + z): Aberth's two roots near 1
    # fail the disks, the certificate fails, and Yun's linear factors give
    # both roots exactly
    f = poly(1, {(0,): 1, (1,): -1, (2,): -1, (3,): 1})
    cycle, diag = solve_univariate_cycle(f)
    assert [(p.coords, p.mult) for p in cycle.points] == [((-1,), 1), ((1,), 2)]
    assert diag.count_found == 3 and diag.isolation_radius is None
    assert any("did not isolate" in w for w in diag.warnings)


def test_touching_disks_take_the_certificate_not_yun(monkeypatch):
    # seed 1, d = 12, trial 4: Res_y is square-free, but its rigorous
    # disks touch; the certificate proves it, so the roots Aberth found
    # stay and Yun, which took seconds on it, never runs
    ry = _eliminant(12, 4, "y")
    res = roots_univariate(ry)
    scaled = solver.scaled_float_coeffs(ry)
    assert res.converged.all()
    radii, _ = solver._inclusion_radii(scaled, res.roots)
    assert not solver._disjoint(res.roots, radii)

    def no_yun(p):
        raise AssertionError("Yun ran")

    monkeypatch.setattr(resultants, "squarefree_decomposition", no_yun)
    [(roots, mults, _)], sweeps, radius, warns = solver._root_multisets([("Res_y", ry)])
    assert np.array_equal(roots, res.roots)
    assert (mults == 1).all() and sweeps == res.sweeps
    assert radius is None and len(warns) == 1


def test_split_eliminant_is_solved_factor_by_factor():
    # seed 1, d = 4, trial 0: Res_x has a double factor; the disks catch
    # it and Yun returns a degree-14 simple factor and a linear double one
    rx = _eliminant(4, 0, "x")
    assert [(len(f) - 1, m) for f, m in roots_structure(rx)] == [(14, 1), (1, 2)]
    [(_, mults, _)], sweeps, radius, _ = solver._root_multisets([("Res_x", rx)])
    assert sorted(mults.tolist()) == [1] * 14 + [2]
    assert radius is None
    whole = roots_univariate(resultants.poly_primitive(rx)).sweeps
    parts = sum(roots_univariate(f).sweeps for f, _ in roots_structure(rx))
    assert sweeps == whole + parts


@pytest.mark.parametrize(
    "seed, d, trial, falls_back",
    [(7, 6, 33, ("x", "y")), (1, 4, 0, ("x",)), (7, 6, 0, ())],
    ids=["both", "Res_x-only", "none"],
)
def test_fallback_runs_once_per_polynomial_whose_disks_touch(monkeypatch, seed, d,
                                                              trial, falls_back):
    # the square-free structure is taken one polynomial at a time, at the
    # polynomial whose disks failed, and never for one they isolate
    s = sample_bernoulli_system(2, d, seed, trial)
    assert not classify_exceptional(s).exceptional
    calls = []
    monkeypatch.setattr(solver, "roots_structure",
                        lambda p: calls.append(p) or roots_structure(p))
    cycle, diag = solve_bivariate(*s.polys)
    assert diag.count_found == d * d
    assert calls == [resultants.poly_primitive(eliminant_bivariate(*s.polys, axis))
                     for axis in falls_back]
    assert len(diag.warnings) == len(falls_back)
    assert all(w.startswith(f"the inclusion disks of Res_{axis} ")
               for w, axis in zip(diag.warnings, falls_back))
    assert (diag.isolation_radius is None) == bool(falls_back)


def _true_roots(coeffs):
    """All roots of an integer polynomial to 50 digits: mpmath's
    Durand-Kerner from numpy's companion eigenvalues."""
    start = np.roots(solver.scaled_float_coeffs(coeffs)[::-1])
    with mpmath.workdps(50):
        roots, err = mpmath.polyroots(
            coeffs[::-1], maxsteps=100, error=True,
            roots_init=[mpmath.mpc(complex(z)) for z in start],
        )
    assert err < 1e-40
    return roots


def _product(*factors):
    out = [1]
    for f in factors:
        out = [
            sum(out[i] * f[k - i] for i in range(len(out)) if 0 <= k - i < len(f))
            for k in range(len(out) + len(f) - 1)
        ]
    return out


# roots 1, -2, 10^6 and +-10^5 i: far outside the unit circle the radius
# is taken on the reversed polynomial
_FAR_ROOTS = _product([-1, 1], [2, 1], [-(10**6), 1], [10**10, 0, 1])


@pytest.mark.parametrize("case", ["far roots", "n=1 d=30"])
def test_inclusion_radius_bounds_the_exact_newton_radius(case):
    # at any point, roots or not, r >= deg |p(z) / p'(z)| in exact arithmetic
    coeffs = _FAR_ROOTS if case == "far roots" else [
        sample_bernoulli_system(1, 30, 4, 0).polys[0].coeff((k,)) for k in range(31)
    ]
    rng = np.random.default_rng(5)
    z = 10.0 ** rng.uniform(-3, 7, 200) * np.exp(1j * rng.uniform(-np.pi, np.pi, 200))
    z = np.concatenate([z, roots_univariate(coeffs).roots])
    radii, _ = solver._inclusion_radii(solver.scaled_float_coeffs(coeffs), z)
    deg = len(coeffs) - 1
    with mpmath.workdps(60):
        for zk, r in zip(z, radii):
            at = mpmath.mpc(complex(zk))
            p = mpmath.polyval(coeffs[::-1], at, derivative=True)
            assert r >= deg * abs(p[0] / p[1])


def _assert_one_root_per_disk(coeffs, roots):
    radii, _ = solver._inclusion_radii(solver.scaled_float_coeffs(coeffs), roots)
    truth = _true_roots(coeffs)
    with mpmath.workdps(50):
        inside = [
            [abs(t - mpmath.mpc(complex(z))) <= r for z, r in zip(roots, radii)]
            for t in truth
        ]
    assert all(sum(row) == 1 for row in inside)  # each true root in one disk
    assert all(sum(col) == 1 for col in zip(*inside))  # each disk holds one


def test_inclusion_disks_hold_one_true_root_each():
    """Every root that the disks prove simple has exactly one true root in
    its disk, on every eliminant of a small n = 2 suite and at n = 1, d = 100;
    a polynomial they do not prove carries a warning and the exact
    multiplicities of its square-free decomposition.  Roots far outside
    the unit circle test the radius taken on the reversed polynomial."""
    f = sample_bernoulli_system(1, 100, 1, 0).polys[0]
    n1 = [f.coeff((k,)) for k in range(101)]
    named = [("n1", n1), ("far roots", _FAR_ROOTS)]
    for d, trial in [(4, t) for t in range(6)] + [(6, t) for t in range(2)]:
        s = sample_bernoulli_system(2, d, 1, trial)
        if not classify_exceptional(s).exceptional:
            for axis in "xy":
                res = eliminant_bivariate(*s.polys, axis)
                named.append((f"d{d} trial {trial} Res_{axis}", res))
    proven = 0
    for name, coeffs in named:
        [(roots, mults, _)], _, radius, warns = solver._root_multisets([(name, coeffs)])
        prim = resultants.poly_primitive(coeffs)
        if radius is None:
            assert any(name in w for w in warns)
            exact = resultants.squarefree_decomposition(prim)
            assert sorted(mults.tolist()) == sorted(m for f, m in exact for _ in f[1:])
            continue
        proven += 1
        assert (mults == 1).all() and len(roots) == len(prim) - 1
        _assert_one_root_per_disk(prim, roots)
    assert proven >= len(named) - 1  # d = 4, trial 0 has a double factor
