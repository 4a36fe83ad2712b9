"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line with the measured
values (run pytest with -s to see them live; -v shows one line per
criterion either way).  The default Monte Carlo suites come from the
checked-in configs and are shared session-wide by the fixtures.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest

from polytorus.discrepancy import erdos_turan_size
from polytorus.experiment import ExperimentConfig, enumerate_d1, run_experiment
from polytorus.lattice import convex_hull, mixed_volume
from polytorus.polynomials import (
    IntPolynomial,
    sample_bernoulli_system,
    sup_norm_upper,
)
from polytorus.resultants import (
    classify_exceptional,
    poly_gcd,
    resultant_univariate,
    trim,
)
from polytorus.solver import NonIsolatedError, solve_bivariate


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def random_poly(rng, deg, lo=-9, hi=9):
    cs = [rng.randint(lo, hi) for _ in range(deg)]
    lead = 0
    while lead == 0:
        lead = rng.randint(lo, hi)
    return cs + [lead]


def test_criterion_1_exact_kernel_oracles():
    """Resultant vanishing <=> planted gcd; swap and product identities."""
    t0 = time.perf_counter()
    rng = random.Random(1001)
    failures = 0
    for k in range(1000):
        f = random_poly(rng, rng.randint(1, 4))
        g = random_poly(rng, rng.randint(1, 4))
        if k % 2 == 0:
            common = random_poly(rng, rng.randint(1, 3))
            fp, gp = poly_mul(f, common), poly_mul(g, common)
            if resultant_univariate(fp, gp) != 0:
                failures += 1
        else:
            res = resultant_univariate(f, g)
            has_factor = len(poly_gcd(f, g)) > 1
            if (res == 0) != has_factor:
                failures += 1
    for _ in range(500):
        f = random_poly(rng, rng.randint(1, 5), -5, 5)
        g = random_poly(rng, rng.randint(1, 5), -5, 5)
        h = random_poly(rng, rng.randint(1, 5), -5, 5)
        df, dg = len(f) - 1, len(g) - 1
        if resultant_univariate(f, g) != (-1) ** (df * dg) * resultant_univariate(g, f):
            failures += 1
        if resultant_univariate(f, poly_mul(g, h)) != resultant_univariate(
            f, g
        ) * resultant_univariate(f, h):
            failures += 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion-1 exact-kernel-oracles",
        failures == 0 and elapsed < 10.0,
        f"failures={failures} elapsed={elapsed:.2f}s (limit 10s)",
    )


def test_criterion_2_mixed_volume_bkk():
    """Solver counts equal mixed volumes on random sparse-support pairs."""
    t0 = time.perf_counter()
    rng = random.Random(2002)

    def random_support_poly():
        npts = rng.randint(3, 6)
        pts = {
            (rng.randint(0, 4), rng.randint(0, 4)) for _ in range(npts)
        }
        coeffs = {e: rng.randint(-9, 9) for e in pts}
        coeffs = {e: c for e, c in coeffs.items() if c != 0}
        if not coeffs:
            return None
        return IntPolynomial.from_dict(2, coeffs)

    checked = 0
    failures = []
    # the worked pair: triangle 2*Sigma_2 against the diagonal segment
    tri_pts = [(i, j) for i in range(3) for j in range(3) if i + j <= 2]
    while checked < 1:
        f1 = IntPolynomial.from_dict(2, {e: rng.randint(-9, 9) for e in tri_pts})
        f2 = IntPolynomial.from_dict(
            2, {(0, 0): rng.randint(1, 9), (1, 1): rng.randint(1, 9)}
        )
        if f1.is_zero or mixed_volume(
            [f1.newton_polytope, f2.newton_polytope]
        ) != 4:
            continue
        try:
            rep = classify_exceptional((f1, f2))
        except Exception:
            continue
        if rep.exceptional:
            continue
        cycle, diag = solve_bivariate(f1, f2)
        if cycle.degree != 4:
            failures.append(("worked pair", 4, cycle.degree))
        checked += 1
    while checked < 20:
        f1 = random_support_poly()
        f2 = random_support_poly()
        if f1 is None or f2 is None:
            continue
        hulls = [f1.newton_polytope, f2.newton_polytope]
        try:
            mv = int(mixed_volume(hulls))
        except Exception:
            continue
        if mv < 1:
            continue
        try:
            rep = classify_exceptional((f1, f2))
        except Exception:
            continue
        if rep.exceptional:
            continue
        try:
            cycle, diag = solve_bivariate(f1, f2)
        except NonIsolatedError:
            continue
        if cycle.degree != mv:
            failures.append((checked, mv, cycle.degree))
        checked += 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion-2 mixed-volume-bkk",
        not failures and elapsed < 30.0,
        f"pairs={checked} failures={failures} elapsed={elapsed:.2f}s (limit 30s)",
    )


def test_criterion_3_isolated_count_hard_assertion(suite_n2):
    """Every non-exceptional n=2 trial yields exactly d^2 zeros; rates."""
    recs = suite_n2.result.records
    bad = [
        (r.d, r.trial, r.count_found)
        for r in recs
        if not r.exceptional and r.count_found != r.d**2
    ]
    rows = suite_n2.result.summary.per_degree
    rates = {row.d: row.exceptional_rate for row in rows}
    endpoint_ok = rates[10] <= rates[4]
    threshold_ok = rates[10] <= 0.5
    runtime_ok = suite_n2.elapsed < 900.0
    solved = [r for r in recs if not r.exceptional]
    cross_rate = sum(1 for r in solved if r.count_mismatches) / len(solved)
    report(
        "criterion-3 exact-zero-count",
        not bad and endpoint_ok and threshold_ok and runtime_ok
        and cross_rate <= 0.001,
        f"count_mismatches={bad[:3]} rates={rates} "
        f"cross_check_disagreement_rate={cross_rate:.4f} (<=0.001) "
        f"elapsed={suite_n2.elapsed:.0f}s (limit 900s)",
    )


def test_criterion_4_univariate_convergence_trend(suite_n1):
    """Mean exact angle discrepancy decreasing; frozen d=400 thresholds."""
    rows = {row.d: row for row in suite_n1.result.summary.per_degree}
    means = [rows[d].mean_delta_ang for d in (100, 200, 400)]
    decreasing = means[0] > means[1] > means[2]
    ang_ok = means[2] <= 0.08
    rad400 = rows[400].mean_delta_rad["0.1"]
    rad_ok = rad400 <= 0.05
    runtime_ok = suite_n1.elapsed < 300.0
    report(
        "criterion-4 univariate-convergence",
        decreasing and ang_ok and rad_ok and runtime_ok,
        f"mean_delta_ang={[round(m, 5) for m in means]} (<=0.08 at 400) "
        f"mean_delta_rad(0.1)@400={rad400:.5f} (<=0.05) "
        f"elapsed={suite_n1.elapsed:.0f}s (limit 300s)",
    )


def test_criterion_5_bound_inequalities(suite_n1, suite_n2):
    """Zero violations of the discrepancy and eta bounds over all trials."""
    violations = []
    for run in (suite_n1, suite_n2):
        for r in run.result.records:
            if r.exceptional:
                continue
            if r.violations:
                violations.append((r.n, r.d, r.trial, r.violations))
            if r.eta > r.eta_upper:
                violations.append((r.n, r.d, r.trial, "eta above bound"))
            if r.delta_ang > r.b_ang:
                violations.append((r.n, r.d, r.trial, "delta_ang above bound"))
            for eps, val in r.delta_rad.items():
                if val > r.b_rad[eps]:
                    violations.append((r.n, r.d, r.trial, f"delta_rad({eps})"))
    total = sum(len(run.result.records) for run in (suite_n1, suite_n2))
    report(
        "criterion-5 bound-inequalities",
        not violations,
        f"trials={total} violations={violations[:3]}",
    )


def test_criterion_6_eta_closed_form():
    """General-path eta equals the classical closed form for n=1."""
    rng = random.Random(66)
    worst = 0.0
    for _ in range(100):
        d = rng.randint(2, 500)
        s = sample_bernoulli_system(1, d, rng.randint(0, 2**32), 0)
        f = s.polys[0]
        rep = erdos_turan_size(s)
        a0 = abs(f.coeff((0,)))
        ad = abs(f.coeff((d,)))
        closed = (
            math.log(sup_norm_upper(f)) - 0.5 * math.log(a0 * ad)
        ) / d
        worst = max(worst, abs(rep.eta - closed))
    report(
        "criterion-6 eta-closed-form",
        worst <= 1e-12,
        f"max |general - closed| = {worst:.2e} (tol 1e-12)",
    )


def test_criterion_7_enumerate_d1():
    """Classifier agrees with the exact linear-algebra oracle on all 64."""
    rows, fraction = enumerate_d1()  # raises on any disagreement
    agree = all(r.oracle_exceptional == r.classifier_exceptional for r in rows)
    report(
        "criterion-7 enumerate-d1",
        len(rows) == 64 and agree,
        f"patterns={len(rows)} exceptional_fraction={fraction} (ground truth)",
    )


def test_criterion_8_expected_measure_probe(suite_n2):
    """Off-torus box estimates vanish with d; the full box is an identity."""
    rows = suite_n2.result.summary.per_degree
    away = [row.box_estimates[0] for row in rows]
    haar0 = rows[0].box_haar[0]
    nonincreasing = all(a >= b for a, b in zip(away, away[1:]))
    last_ok = away[-1] <= 0.02
    identity_ok = True
    for row in rows:
        recs = [r for r in suite_n2.result.records if r.d == row.d]
        want = sum(
            r.count_found if not r.exceptional else 0 for r in recs
        ) / (len(recs) * row.d**2)
        if abs(row.box_estimates[1] - want) > 1e-12:
            identity_ok = False
    report(
        "criterion-8 expected-measure-probe",
        nonincreasing and last_ok and identity_ok and haar0 == 0.0,
        f"away_box_estimates={away} (last <= 0.02) full_box_identity={identity_ok}",
    )


def test_criterion_9_determinism(suite_n1, suite_n2, tmp_path):
    """Byte-identical reruns; the parallelism hint changes only timings."""

    def rerun(base_cfg, out_dir, parallelism):
        cfg = ExperimentConfig.from_dict(
            {**base_cfg.to_dict(), "out_dir": str(out_dir), "parallelism": parallelism}
        )
        run_experiment(cfg)
        return cfg

    def sorted_jsonl(path):
        return b"\n".join(sorted(path.read_bytes().splitlines()))

    identical = True
    detail = []
    cfg2 = rerun(suite_n2.config, tmp_path / "n2-again", 1)
    cfg2p = rerun(suite_n2.config, tmp_path / "n2-par", 2)
    for d in suite_n2.config.degrees:
        name = f"trials_n2_d{d}.jsonl"
        base = sorted_jsonl(Path(suite_n2.out_dir) / name)
        again = sorted_jsonl(tmp_path / "n2-again" / name)
        par = sorted_jsonl(tmp_path / "n2-par" / name)
        if base != again:
            identical = False
            detail.append(f"n2 d={d} rerun differs")
        if base != par:
            identical = False
            detail.append(f"n2 d={d} parallel differs")
    cfg1p = rerun(suite_n1.config, tmp_path / "n1-par", 2)
    for d in suite_n1.config.degrees:
        name = f"trials_n1_d{d}.jsonl"
        base = sorted_jsonl(Path(suite_n1.out_dir) / name)
        par = sorted_jsonl(tmp_path / "n1-par" / name)
        if base != par:
            identical = False
            detail.append(f"n1 d={d} parallel differs")
    report(
        "criterion-9 determinism",
        identical,
        "byte-identical sorted JSONL across reruns and parallelism "
        + ("" if identical else "; ".join(detail)),
    )
