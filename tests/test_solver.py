import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytorus.lattice import convex_hull, mixed_volume
from polytorus.polynomials import (
    IntPolynomial,
    newton_polytope,
    sample_bernoulli_system,
    sup_norm_upper,
)
from polytorus.resultants import classify_exceptional
from polytorus.solver import (
    NonIsolatedError,
    SolverError,
    cluster_values,
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


def test_cluster_values_merges_and_keeps_mass():
    vals = [1.0 + 0j, 1.0 + 1e-9j, 2.0 + 0j, 2.0 + 1e-9j, 5.0 + 0j]
    merged = cluster_values(vals, [1] * 5, radius=1e-7)
    assert sum(m for _, m in merged) == 5
    assert len(merged) == 3


def test_cluster_values_nonadjacent_under_real_sort():
    # equal real parts with interleaved imaginary parts still merge
    vals = [0.0 - 0.1j, 0.0 + 0.1j, 1e-9 - 0.1j]
    merged = cluster_values(vals, [1, 1, 1], radius=1e-7)
    assert len(merged) == 2


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
        hulls = [newton_polytope(f1), newton_polytope(f2)]
        if mixed_volume(hulls) != 4:
            continue
        rep = classify_exceptional((f1, f2))
        if rep.exceptional:
            continue
        break
    cycle, diag = solve_bivariate(f1, f2)
    assert cycle.degree == 4 == diag.count_expected
