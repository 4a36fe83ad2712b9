"""Correctness checks of a suite's records, computed apart from polytorus.

The systems are re-drawn here from the documented coefficient stream
(BLAKE2b, personalised "pt-coeff-stream"), and every number a record
claims is recomputed from them or from the solver's zeros with numpy,
scipy and sympy:

- the exceptional verdict, the zero-coordinate flags and |res_v| against
  sympy resultants of f(0,y), f(x,0) and the top-degree forms (n=2), or
  against the extreme coefficients (n=1);
- count_found == d^n and no violations on every non-exceptional trial;
- every zero's residual max_i |f_i(z)| / (sum|a_J| max(1,|z_j|)^d) <= 1e-6,
  and at n=1 a one-to-one match with `numpy.roots` within 1e-8;
- delta_rad and the box-probe counts recounted from the zeros;
- b_ang, b_rad and eta_upper recomputed from the paper's formulas, and
  delta <= bound, eta <= eta_upper;
- delta_ang against a maximum over every box of the G x G grid: equal in
  grid mode, and at most the exact value in exact mode.

`check_suite` returns the failures of each trial; a trial with any
failure counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

GRID = 64
RESIDUAL_TOL = 1e-6
ROOT_MATCH_TOL = 1e-8
FLOAT_TOL = 1e-12
EDGE_TOL = 1e-9


# ---------------------------------------------------------------------------
# inputs


def sample_terms(n: int, d: int, seed: int, trial: int):
    """The n polynomials of trial `trial`: lists of (exponent, +-1) over
    the lattice points of d*simplex in lexicographic order."""
    if n == 1:
        points = [(j,) for j in range(d + 1)]
    else:
        points = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    polys = []
    for index in range(n):
        signs = []
        for block in range((len(points) + 511) // 512):
            msg = struct.pack("<QQQQ", seed & (2**64 - 1), trial, index, block)
            digest = hashlib.blake2b(msg, digest_size=64, person=b"pt-coeff-stream").digest()
            signs.extend(1 if (byte >> bit) & 1 else -1 for byte in digest for bit in range(8))
        polys.append(list(zip(points, signs)))
    return polys


# ---------------------------------------------------------------------------
# exact classification


def _resultant(a, b) -> int:
    """Sylvester resultant of two integer coefficient lists (low to high)."""
    from sympy import ZZ, Poly, Symbol

    t = Symbol("t")
    return int(Poly(a[::-1], t, domain=ZZ).resultant(Poly(b[::-1], t, domain=ZZ)))


def _face(terms, d: int, face: str):
    """Coefficients (low to high) of f(0,y), f(x,0) or the degree-d form."""
    out = [0] * (d + 1)
    for (i, j), c in terms:
        if face == "x=0" and i == 0:
            out[j] = c
        elif face == "y=0" and j == 0:
            out[i] = c
        elif face == "top" and i + j == d:
            out[i] = c
    return out


def expected_classification(polys, d: int):
    """(|res_v| by normal key, zero-coordinate flags, exceptional)."""
    if len(polys) == 1:
        coeffs = dict(polys[0])
        res = {"-1": abs(coeffs[(d,)]), "1": abs(coeffs[(0,)])}
        zero = [coeffs[(0,)] == 0]
    else:
        f, g = polys
        r = {face: abs(_resultant(_face(f, d, face), _face(g, d, face))) for face in ("x=0", "y=0", "top")}
        # inward normal (1,0) selects the face x=0, (0,1) the face y=0
        res = {"1,0": r["x=0"], "0,1": r["y=0"], "-1,-1": r["top"]}
        # f(0,y) and g(0,y) have degree d, so they share a root iff their
        # resultant vanishes
        zero = [r["x=0"] == 0, r["y=0"] == 0]
    return res, zero, any(v == 0 for v in res.values()) or any(zero)


# ---------------------------------------------------------------------------
# statistics of the zeros


def scaled_residuals(polys, d: int, points: np.ndarray) -> np.ndarray:
    """max_i |f_i(z)| / (sum|a_J| * max(1, |z_1|, ..., |z_n|)^d) per row z."""
    s = np.maximum(1.0, np.abs(points).max(axis=1))
    scaled = points / s[:, None]
    worst = np.zeros(points.shape[0])
    for terms in polys:
        exps = np.array([e for e, _ in terms])
        coeffs = np.array([c for _, c in terms], dtype=float)
        mono = np.prod(scaled[:, None, :] ** exps[None, :, :], axis=2)
        mono *= s[:, None] ** (exps.sum(axis=1)[None, :] - d)
        worst = np.maximum(worst, np.abs(mono @ coeffs) / np.abs(coeffs).sum())
    return worst


def grid_discrepancy(args: np.ndarray, grid: int = GRID):
    """max over all boxes with sides (edge_a, edge_b] of the G-point grid
    of |empirical mass - Haar mass|; args is (N, dim) in (-pi, pi].

    A solver zero that is real up to rounding has an argument just above
    the edge 0 or -pi, and which side of the edge it falls on is decided
    by rounding, not by the zero.  Arguments at most EDGE_TOL above an edge
    are put on it; returns (value, count of such points).  Moving one point
    across an edge changes the value by at most 1/N.
    """
    n_pts, dim = args.shape
    edges = -np.pi + 2 * np.pi * np.arange(grid + 1) / grid
    cell = np.searchsorted(edges, args, side="left")  # edges[c-1] < arg <= edges[c]
    near = args - edges[cell - 1] <= EDGE_TOL
    cell = np.where(near, cell - 1, cell)
    cell[cell == 0] = grid  # an argument put on -pi is pi
    ambiguous = int(near.any(axis=1).sum())
    a, b = np.triu_indices(grid + 1, 1)
    width = (b - a) / grid
    if dim == 1:
        cum = np.cumsum(np.bincount(cell[:, 0], minlength=grid + 1))  # points in cells <= k
        return float(np.abs((cum[b] - cum[a]) / n_pts - width).max()), ambiguous
    hist = np.zeros((grid + 1, grid + 1))
    np.add.at(hist, (cell[:, 0], cell[:, 1]), 1)
    cum = hist.cumsum(axis=0).cumsum(axis=1)
    best = 0.0
    for lo in range(0, a.size, 256):
        a1, b1 = a[lo : lo + 256], b[lo : lo + 256]
        slab = cum[b1] - cum[a1]  # points with first cell in (a1, b1]
        err = (slab[:, b] - slab[:, a]) / n_pts - np.outer(width[lo : lo + 256], width)
        best = max(best, float(np.abs(err).max()))
    return best, ambiguous


def _in_probe(points: np.ndarray, probe: dict) -> np.ndarray:
    inside = np.ones(points.shape[0], dtype=bool)
    args = _arguments(points)
    for j, ((r1, r2), (lo, hi)) in enumerate(zip(probe["radial"], probe["angular"])):
        mod = np.abs(points[:, j])
        inside &= (r1 < mod) & (mod < (math.inf if r2 is None else r2))
        inside &= (lo < args[:, j]) & (args[:, j] <= hi)
    return inside


def _arguments(points: np.ndarray) -> np.ndarray:
    args = np.angle(points)
    args[args == -np.pi] = np.pi
    return args


def _bounds(eta: float, n: int, eps: float):
    """The paper's B_ang = 66 n 2^n (18 + log+(1/eta))^(2(n-1)/3) eta^(1/3)
    and B_rad = (2n/eps) eta."""
    logplus = max(math.log(1.0 / eta), 0.0) if eta > 0 else 0.0
    b_ang = 66 * n * 2**n * (18 + logplus) ** (2.0 * (n - 1) / 3.0) * eta ** (1.0 / 3.0)
    return b_ang, 2.0 * n / eps * eta


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# one trial


def check_trial(record: dict, cfg: dict, cycle=None, program_system=None) -> list:
    """Failures of one trial record.  `cycle` is the solver's zero cycle
    (None for exceptional trials); `program_system` the BernoulliSystem
    the program sampled, compared with the stream re-drawn here."""
    n, d = cfg["n"], record["d"]
    fails = []

    def expect(cond, msg):
        if not cond:
            fails.append(msg)

    polys = sample_terms(n, d, cfg["master_seed"], record["trial"])
    if program_system is not None:
        expect(
            [list(p.terms) for p in program_system.polys] == [sorted(t) for t in polys],
            "sampled system differs from the coefficient stream",
        )
    expect(record["n"] == n and record["seed"] == cfg["master_seed"], "n or seed field wrong")
    res, zero, exceptional = expected_classification(polys, d)
    got_res = {k: abs(int(v)) for k, v in record["res_v"].items()}
    expect(got_res == res, f"|res_v| {got_res} != resultants {res}")
    expect(record["zero_coord"] == zero, f"zero_coord {record['zero_coord']} != {zero}")
    expect(record["exceptional"] == exceptional, f"exceptional should be {exceptional}")
    expect(record["count_expected"] == d**n, "count_expected != d^n")
    expect(record["violations"] == [], f"violations {record['violations']}")
    if record["exceptional"]:
        expect(record["count_found"] is None and record["delta_ang"] is None, "exceptional trial has measured fields")
        expect(record["convention_delta"] == 1.0, "exceptional convention_delta != 1")
        return fails
    expect(record["count_found"] == d**n, f"count_found {record['count_found']} != d^n = {d ** n}")
    if cycle is None or cycle.degree != d**n:
        fails.append("no zero cycle of degree d^n")
        return fails

    points = cycle.coords_array()
    residual = scaled_residuals(polys, d, points).max()
    expect(residual <= RESIDUAL_TOL, f"scaled residual {residual:.3g} > {RESIDUAL_TOL}")
    if n == 1:
        from scipy.optimize import linear_sum_assignment

        coeffs = dict(polys[0])
        ref = np.roots([coeffs[(k,)] for k in range(d, -1, -1)])
        dist = np.abs(ref[:, None] - points[None, :, 0])
        rows, cols = linear_sum_assignment(dist)
        worst = dist[rows, cols].max()
        expect(worst <= ROOT_MATCH_TOL, f"zeros differ from numpy.roots by {worst:.3g}")

    mods = np.abs(points)
    for eps in cfg["epsilons"]:
        key = repr(eps)
        inside = np.all((1 - eps < mods) & (mods < 1 / (1 - eps)), axis=1).sum()
        delta_rad = record["delta_rad"][key]
        expect(abs(delta_rad - (1 - inside / d**n)) <= FLOAT_TOL, f"delta_rad[{key}] != recount")
        b_ang, b_rad = _bounds(record["eta"], n, eps)
        expect(_close(record["b_ang"], b_ang, FLOAT_TOL), "b_ang != formula")
        expect(_close(record["b_rad"][key], b_rad, FLOAT_TOL), f"b_rad[{key}] != formula")
        expect(delta_rad <= record["b_rad"][key], f"delta_rad[{key}] exceeds its bound")
    counts = [int(_in_probe(points, probe).sum()) for probe in cfg["box_probes"]]
    expect(record["box_counts"] == counts, f"box_counts {record['box_counts']} != {counts}")

    eta_upper = (n + math.sqrt(n)) * n * math.log(math.comb(n + d, n)) / d
    expect(_close(record["eta_upper"], eta_upper, 1e-9), "eta_upper != formula")
    expect(record["eta"] <= record["eta_upper"], "eta exceeds eta_upper")
    expect(record["delta_ang"] <= record["b_ang"], "delta_ang exceeds b_ang")
    expect(record["convention_delta"] == record["delta_ang"], "convention_delta != delta_ang")

    grid_value, on_edge = grid_discrepancy(_arguments(points), GRID)
    if cfg["angle_mode"] == "grid":
        expect(record["delta_ang_mode"] == f"grid({GRID})", "delta_ang_mode wrong")
        slack = FLOAT_TOL + on_edge / d**n
        expect(abs(record["delta_ang"] - grid_value) <= slack, f"grid delta_ang {record['delta_ang']} != {grid_value}")
    else:
        # a box of the exact family matches each grid box that has a point
        # put on an edge up to a width of EDGE_TOL
        expect(record["delta_ang_mode"] == "exact", "delta_ang_mode wrong")
        expect(record["delta_ang"] >= grid_value - EDGE_TOL, f"exact delta_ang below the grid value {grid_value}")
    return fails


# ---------------------------------------------------------------------------
# a whole suite


def lines_by_trial(data: bytes) -> dict:
    """JSONL lines by trial key (d, trial)."""
    out = {}
    for line in data.splitlines():
        rec = json.loads(line)
        out[(rec["d"], rec["trial"])] = line
    return out


def check_suite(cfg: dict, untraced: bytes, traced, systems: dict, cycles: dict) -> dict:
    """Failures per trial key (d, trial) for every trial of the suite.

    `untraced` and `traced` are the JSONL the two passes wrote (`traced`
    is None when there was no traced pass); a trial missing from either,
    or whose lines differ, fails.  `systems` and `cycles` map a trial key
    to the program's sampled system and zero cycle.
    """
    lines = lines_by_trial(untraced)
    traced_lines = None if traced is None else lines_by_trial(traced)
    failures = {}
    for d in cfg["degrees"]:
        for t in range(cfg["trials_per_degree"]):
            key = (d, t)
            if key not in lines:
                failures[key] = ["no untraced record"]
                continue
            try:
                fails = check_trial(json.loads(lines[key]), cfg, cycles.get(key), systems.get(key))
            except (KeyError, TypeError, ValueError) as exc:  # a record missing or mistyping a field
                fails = [f"malformed record: {type(exc).__name__}: {exc}"]
            if traced_lines is not None and traced_lines.get(key) != lines[key]:
                fails.append("traced record differs from the untraced one")
            failures[key] = fails
    return failures
