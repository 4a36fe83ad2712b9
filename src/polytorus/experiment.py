"""Reproducible Monte Carlo harness.

A trial is a pure function of (masterSeed, d, trialId): sample the
system, classify it exactly, and when it is not exceptional solve it and
measure discrepancies, eta and the theorem bounds (`measure_system`,
which `polytorus analyze` calls too).  Exceptional trials keep null
measured fields and carry the convention value 1 separately.  Violations
of the Theorem-backed inequalities (angle/radius bounds, the eta upper
bound, or a non-exceptional solution count different from the mixed
volume, d^n for a full system) abort the run with a diagnostic dump:
those are impossibilities, not tolerances.

Records serialize to JSONL, one file per degree, one compact line per
trial, appended as trials complete; with sequential execution the files
come out sorted by trial and reruns are byte-identical.  Runtimes are
kept out of the records (a rerun must be byte-identical while timings
may differ) and written to a sidecar CSV.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields
from itertools import repeat

import numpy as np

from .discrepancy import (
    PolarBox,
    angle_discrepancy,
    argument_bins,
    arguments,
    box_count,
    discrepancy_bounds,
    erdos_turan_size,
    radius_discrepancy,
    EXACT_MODE_POINT_CAP,
)
from .polynomials import IntPolynomial, sample_bernoulli_system, system_to_dict
from .resultants import classify_exceptional
from .solver import solve_system


class ConfigError(ValueError):
    pass


class BoundViolationError(RuntimeError):
    """A theorem-backed inequality failed; carries the offending system."""

    def __init__(self, message: str, record: dict, system: dict):
        super().__init__(message)
        self.record = record
        self.system = system

    def __reduce__(self):  # survives pickling across process pools
        return (BoundViolationError, (self.args[0], self.record, self.system))


class ClassifierMismatchError(RuntimeError):
    """enumerate_d1 oracle and resultant classifier disagreed."""


MODULI_BIN_RANGE = (0.05, 20.0)


def _json_int(value, name: str) -> int:
    if type(value) is not int:  # bool is not taken
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _json_float(value, name: str) -> float:
    if type(value) not in (int, float):  # bool is not taken
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    degrees: tuple
    trials_per_degree: int
    master_seed: int = 1
    epsilons: tuple = (0.1, 0.2)
    angle_mode: str = "exact"
    grid_size: int = 64
    box_probes: tuple = ()
    out_dir: str = None  # type: ignore[assignment]
    parallelism: int = 1
    histogram_bins: int = 64

    def validate(self):
        if self.n not in (1, 2):
            raise ConfigError("n must be 1 or 2")
        if not self.degrees:
            raise ConfigError("degree list must be nonempty")
        if list(self.degrees) != sorted(set(self.degrees)):
            raise ConfigError("degrees must be strictly ascending")
        if any(d < 1 for d in self.degrees):
            raise ConfigError("degrees must be >= 1")
        if self.trials_per_degree < 1:
            raise ConfigError("trials_per_degree must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must lie in [0, 2**64)")
        if not self.epsilons or any(not 0 < e < 1 for e in self.epsilons):
            raise ConfigError("epsilons must be a nonempty list in (0, 1)")
        if self.angle_mode not in ("exact", "grid"):
            raise ConfigError("angle_mode must be 'exact' or 'grid'")
        if self.angle_mode == "grid" and self.grid_size < 2:
            raise ConfigError("grid_size must be >= 2")
        if (
            self.angle_mode == "exact"
            and self.n == 2
            and max(self.degrees) ** 2 > EXACT_MODE_POINT_CAP
        ):
            raise ConfigError(
                "exact angle mode at n=2 is capped at "
                f"{EXACT_MODE_POINT_CAP} points; use angle_mode='grid'"
            )
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        if self.out_dir is not None and type(self.out_dir) is not str:
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        if self.histogram_bins < 2:
            raise ConfigError("histogram_bins must be >= 2")
        for b in self.box_probes:
            if b.dim != self.n:
                raise ConfigError("box probe dimension does not match n")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "degrees": list(self.degrees),
            "trials_per_degree": self.trials_per_degree,
            "master_seed": self.master_seed,
            "epsilons": list(self.epsilons),
            "angle_mode": self.angle_mode,
            "grid_size": self.grid_size,
            "box_probes": [b.to_dict() for b in self.box_probes],
            "out_dir": self.out_dir,
            "parallelism": self.parallelism,
            "histogram_bins": self.histogram_bins,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        """Build and validate a config from its JSON object.

        Counts, degrees and seeds must be JSON integers and epsilons JSON
        numbers: 10.9 or true is refused, never coerced.  A key that is
        not a field is refused too, not ignored.
        """
        try:
            unknown = sorted(map(str, set(obj) - {f.name for f in fields(cls)}))
            if unknown:
                raise ConfigError(f"unknown keys: {', '.join(unknown)}")
            cfg = cls(
                n=_json_int(obj["n"], "n"),
                degrees=tuple(_json_int(d, "degrees") for d in obj["degrees"]),
                trials_per_degree=_json_int(
                    obj["trials_per_degree"], "trials_per_degree"
                ),
                master_seed=_json_int(obj.get("master_seed", 1), "master_seed"),
                epsilons=tuple(
                    _json_float(e, "epsilons") for e in obj.get("epsilons", (0.1, 0.2))
                ),
                angle_mode=obj.get("angle_mode", "exact"),
                grid_size=_json_int(obj.get("grid_size", 64), "grid_size"),
                box_probes=tuple(
                    PolarBox.from_dict(b) for b in obj.get("box_probes", ())
                ),
                out_dir=obj.get("out_dir"),
                parallelism=_json_int(obj.get("parallelism", 1), "parallelism"),
                histogram_bins=_json_int(
                    obj.get("histogram_bins", 64), "histogram_bins"
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc
        cfg.validate()
        return cfg

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class TrialRecord:
    n: int
    d: int
    trial: int
    seed: int
    exceptional: bool
    res_v: dict
    zero_coord: list
    count_expected: int
    count_found: int = None  # type: ignore[assignment]
    delta_ang: float = None  # type: ignore[assignment]
    delta_ang_mode: str = ""
    delta_rad: dict = None  # type: ignore[assignment]
    convention_delta: float = None  # type: ignore[assignment]
    eta: float = None  # type: ignore[assignment]
    eta_upper: float = None  # type: ignore[assignment]
    b_ang: float = None  # type: ignore[assignment]
    b_rad: dict = None  # type: ignore[assignment]
    box_counts: list = None  # type: ignore[assignment]
    max_residual: float = None  # type: ignore[assignment]
    count_mismatches: int = 0
    dropped: int = 0
    violations: list = field(default_factory=list)

    @classmethod
    def classified(cls, n: int, d: int, seed, trial, report) -> "TrialRecord":
        """The record of a classified system, before any measurement."""
        rdict = report.to_dict()
        return cls(n=n, d=d, trial=trial, seed=seed, exceptional=report.exceptional,
                   res_v=rdict["res_v"], zero_coord=rdict["zero_coord"],
                   count_expected=d**n)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TrialRecord":
        return cls(**obj)


def _histogram_edges(bins: int):
    arg_edges = -math.pi + 2 * math.pi * np.arange(bins + 1) / bins
    lo, hi = MODULI_BIN_RANGE
    mod_edges = np.exp(np.linspace(math.log(lo), math.log(hi), bins + 1))
    return arg_edges, mod_edges


def measure_system(polys, report, record: TrialRecord, timings: dict, *,
                   epsilons, angle_mode: str, grid_size: int, box_probes=()):
    """Solve a classified, non-exceptional system and fill `record`.

    Fills the measured fields of `record` and the solve, angle and eta
    phases of `timings`, and returns (cycle, diagnostics, eta report).
    Raises BoundViolationError when the count found falls short of the
    mixed volume (d^n for a full system) or a theorem bound is violated.
    """
    n = len(polys)

    def violation(message):
        system = system_to_dict(polys, n, record.d, record.seed, record.trial)
        return BoundViolationError(message, record.to_json_dict(), system)

    t0 = time.perf_counter()
    cycle, diag = solve_system(polys)
    timings["solve"] = time.perf_counter() - t0

    record.count_expected = diag.count_expected
    record.count_found = diag.count_found
    record.max_residual = diag.max_residual
    record.count_mismatches = diag.cross_check_mismatches
    record.dropped = diag.dropped
    if diag.count_found != diag.count_expected:
        raise violation(
            f"non-exceptional system produced {diag.count_found} zeros, "
            f"expected its mixed volume {diag.count_expected}"
        )

    t0 = time.perf_counter()
    record.delta_ang = angle_discrepancy(cycle, angle_mode, grid_size)
    record.delta_ang_mode = f"grid({grid_size})" if angle_mode == "grid" else "exact"
    timings["angle"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # at n = 2 the solver's count is the mixed volume of the supports
    eta_rep = erdos_turan_size(
        polys, report=report, d_mv=diag.count_expected if n == 2 else None
    )
    timings["eta"] = time.perf_counter() - t0

    record.convention_delta = record.delta_ang
    record.b_rad = {}
    record.delta_rad = {repr(e): radius_discrepancy(cycle, e) for e in epsilons}
    record.eta = eta_rep.eta
    record.eta_upper = eta_rep.eta_upper
    violations = []
    if eta_rep.eta > eta_rep.eta_upper:
        violations.append(
            f"eta {eta_rep.eta} exceeds its upper bound {eta_rep.eta_upper}"
        )
    for e in epsilons:
        b_ang, b_rad = discrepancy_bounds(eta_rep.eta, n, e)
        record.b_ang = b_ang
        record.b_rad[repr(e)] = b_rad
        if record.delta_rad[repr(e)] > b_rad:
            violations.append(
                f"delta_rad({e}) = {record.delta_rad[repr(e)]} exceeds bound {b_rad}"
            )
    if record.delta_ang > record.b_ang:
        violations.append(
            f"delta_ang = {record.delta_ang} exceeds bound {record.b_ang}"
        )
    record.violations = violations
    record.box_counts = [box_count(cycle, b) for b in box_probes]
    if violations:
        raise violation("; ".join(violations))
    return cycle, diag, eta_rep


def run_trial(config: ExperimentConfig, d: int, trial: int):
    """One pure trial.  Returns (record, timings, arg_hist, mod_hist)."""
    n, seed, bins = config.n, config.master_seed, config.histogram_bins
    timings = {}
    t0 = time.perf_counter()
    system = sample_bernoulli_system(n, d, seed, trial)
    timings["sample"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = classify_exceptional(system)
    timings["classify"] = time.perf_counter() - t0

    record = TrialRecord.classified(n, d, seed, trial, report)
    arg_hist = np.zeros(bins, dtype=np.int64)
    mod_hist = np.zeros(bins + 2, dtype=np.int64)  # under/overflow bins at ends

    if report.exceptional:
        record.convention_delta = 1.0
        timings.update(dict.fromkeys(("solve", "angle", "eta", "analyze"), 0.0))
        return record, timings, arg_hist, mod_hist

    t0 = time.perf_counter()
    cycle, _, _ = measure_system(
        system.polys, report, record, timings, epsilons=config.epsilons,
        angle_mode=config.angle_mode, grid_size=config.grid_size,
        box_probes=config.box_probes,
    )
    _, mod_edges = _histogram_edges(bins)
    np.add.at(arg_hist, argument_bins(arguments(cycle), bins).ravel(), 1)
    mods = np.abs(cycle.coords_array()).ravel()
    np.add.at(mod_hist, np.searchsorted(mod_edges, mods, side="left"), 1)
    # the rest of the measurement: radii, bounds, box counts, histograms
    timings["analyze"] = time.perf_counter() - t0 - sum(
        timings[k] for k in ("solve", "angle", "eta")
    )
    return record, timings, arg_hist, mod_hist


def _trial_results(config: ExperimentConfig, d: int):
    """Results of the trials of degree d in trial order, each yielded as
    soon as it is ready."""
    jobs = (repeat(config), repeat(d), range(config.trials_per_degree))
    if config.parallelism > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~15 ms to import

        with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
            yield from pool.map(run_trial, *jobs, chunksize=8)
    else:
        yield from map(run_trial, *jobs)


@dataclass
class DegreeSummary:
    d: int
    trials: int
    exceptional: int
    mean_delta_ang: float = None  # type: ignore[assignment]
    median_delta_ang: float = None  # type: ignore[assignment]
    mean_delta_ang_convention: float = None  # type: ignore[assignment]
    mean_delta_rad: dict = field(default_factory=dict)
    mean_eta: float = None  # type: ignore[assignment]
    violations: int = 0
    count_mismatches: int = 0
    box_estimates: list = field(default_factory=list)
    box_haar: list = field(default_factory=list)
    arg_hist: list = field(default_factory=list)
    mod_hist: list = field(default_factory=list)

    @property
    def exceptional_rate(self) -> float:
        return self.exceptional / self.trials

    def to_dict(self) -> dict:
        out = asdict(self)
        out["exceptional_rate"] = self.exceptional_rate
        # flatness sanity for the argument histogram (max bin over min bin)
        if self.arg_hist and min(self.arg_hist) > 0:
            out["arg_hist_flatness"] = max(self.arg_hist) / min(self.arg_hist)
        else:
            out["arg_hist_flatness"] = None
        return out


@dataclass
class SummaryTable:
    config: ExperimentConfig
    per_degree: list
    verdicts: dict
    fitted_rate_constant: float

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "per_degree": [s.to_dict() for s in self.per_degree],
            "verdicts": self.verdicts,
            "fitted_rate_constant": self.fitted_rate_constant,
        }


def aggregate(config: ExperimentConfig, records, hists) -> SummaryTable:
    """Order-independent aggregation (records may arrive shuffled)."""
    by_d = {}
    for rec in records:
        by_d.setdefault(rec.d, []).append(rec)
    rows = []
    for d in config.degrees:
        recs = sorted(by_d.get(d, []), key=lambda r: r.trial)
        measured = [r for r in recs if not r.exceptional]
        row = DegreeSummary(d=d, trials=len(recs), exceptional=len(recs) - len(measured))
        if measured:
            das = [r.delta_ang for r in measured]
            row.mean_delta_ang = float(np.mean(das))
            row.median_delta_ang = float(np.median(das))
            row.mean_delta_ang_convention = float(
                (sum(das) + row.exceptional * 1.0) / len(recs)
            )
            for e in config.epsilons:
                row.mean_delta_rad[repr(e)] = float(
                    np.mean([r.delta_rad[repr(e)] for r in measured])
                )
            row.mean_eta = float(np.mean([r.eta for r in measured]))
        elif recs:
            row.mean_delta_ang_convention = 1.0
        row.violations = sum(len(r.violations) for r in recs)
        row.count_mismatches = sum(
            1 for r in measured if r.count_mismatches
        )
        nprobes = len(config.box_probes)
        if nprobes:
            totals = [0] * nprobes
            for r in measured:
                for i, c in enumerate(r.box_counts):
                    totals[i] += c
            denom = len(recs) * d**config.n
            row.box_estimates = [t / denom for t in totals]
            row.box_haar = [b.haar_mass() for b in config.box_probes]
        ah, mh = hists.get(d, (None, None))
        if ah is not None:
            row.arg_hist = [int(x) for x in ah]
            row.mod_hist = [int(x) for x in mh]
        rows.append(row)
    rates = [r.exceptional_rate for r in rows]
    verdicts = {
        "exceptional_rate_nonincreasing": all(
            a >= b for a, b in zip(rates, rates[1:])
        ),
        "mean_delta_ang_decreasing": all(
            a is not None and b is not None and a > b
            for a, b in zip(
                [r.mean_delta_ang for r in rows], [r.mean_delta_ang for r in rows][1:]
            )
        ),
        "zero_violations": all(r.violations == 0 for r in rows),
    }
    denom = sum(1.0 / d**2 for d in config.degrees)
    fitted = sum(r.exceptional_rate / r.d for r in rows) / denom if denom else 0.0
    return SummaryTable(
        config=config, per_degree=rows, verdicts=verdicts, fitted_rate_constant=fitted
    )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list
    summary: SummaryTable
    timings: list  # (d, trial, phase dict)


def _record_line(rec: TrialRecord) -> str:
    return json.dumps(rec.to_json_dict(), sort_keys=True, separators=(",", ":"))


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    config.validate()
    out_dir = config.out_dir
    files = {}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        for d in config.degrees:
            path = os.path.join(out_dir, f"trials_n{config.n}_d{d}.jsonl")
            files[d] = open(path, "w", encoding="utf-8")
    records = []
    timings = []
    hists = {}
    try:
        for d in config.degrees:
            arg_total = None
            mod_total = None
            for rec, tms, ah, mh in _trial_results(config, d):
                records.append(rec)
                timings.append((d, rec.trial, tms))
                arg_total = ah if arg_total is None else arg_total + ah
                mod_total = mh if mod_total is None else mod_total + mh
                if out_dir:
                    files[d].write(_record_line(rec) + "\n")
                    files[d].flush()
            hists[d] = (arg_total, mod_total)
    finally:
        for fh in files.values():
            fh.close()
    records.sort(key=lambda r: (r.d, r.trial))
    summary = aggregate(config, records, hists)
    if out_dir:
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary.to_dict(), fh, sort_keys=True, indent=1)
        with open(os.path.join(out_dir, "timings.csv"), "w", encoding="utf-8") as fh:
            w = csv.writer(fh)
            phases = ("sample", "classify", "solve", "angle", "eta", "analyze")
            w.writerow(["d", "trial", *phases])
            for d, t, tms in timings:
                w.writerow([d, t] + [f"{tms.get(k, 0.0):.6f}" for k in phases])
    return ExperimentResult(
        config=config, records=records, summary=summary, timings=timings
    )


# ---------------------------------------------------------------------------
# exhaustive d=1 table


def _d1_oracle(a1, b1, c1, a2, b2, c2):
    """Exact linear algebra for f_i = a_i + b_i x + c_i y.

    Returns (exceptional, reason).  det = 0 means parallel or coincident
    lines (the (-1,-1)-directional pair is degenerate); otherwise Cramer
    gives the unique solution and a vanishing coordinate is exceptional.
    """
    det = b1 * c2 - b2 * c1
    if det == 0:
        return True, "directional"
    x_num = a2 * c1 - a1 * c2
    y_num = a1 * b2 - a2 * b1
    if x_num == 0 or y_num == 0:
        return True, "zero-coordinate"
    return False, "regular"


@dataclass(frozen=True)
class D1Row:
    signs: tuple  # (a1, b1, c1, a2, b2, c2)
    oracle_exceptional: bool
    classifier_exceptional: bool
    reason: str


def enumerate_d1():
    """Classify all 64 (n=2, d=1) sign systems two independent ways.

    Returns (rows, exceptional_fraction); raises ClassifierMismatchError
    if the exact linear-algebra oracle and the resultant classifier ever
    disagree.
    """
    rows = []
    for mask in range(64):
        signs = tuple(1 if (mask >> k) & 1 else -1 for k in range(6))
        a1, b1, c1, a2, b2, c2 = signs
        f1 = IntPolynomial.from_dict(2, {(0, 0): a1, (1, 0): b1, (0, 1): c1})
        f2 = IntPolynomial.from_dict(2, {(0, 0): a2, (1, 0): b2, (0, 1): c2})
        oracle, reason = _d1_oracle(*signs)
        report = classify_exceptional((f1, f2))
        if report.exceptional != oracle:
            raise ClassifierMismatchError(
                f"pattern {signs}: oracle says {oracle}, classifier says "
                f"{report.exceptional}"
            )
        rows.append(
            D1Row(
                signs=signs,
                oracle_exceptional=oracle,
                classifier_exceptional=report.exceptional,
                reason=reason,
            )
        )
    fraction = sum(r.oracle_exceptional for r in rows) / len(rows)
    return rows, fraction


# ---------------------------------------------------------------------------
# report emission


def emit_report(out_dir: str, fmt: str = "csv", histograms: bool = False):
    """Plot-ready files from a finished run directory.

    Reads summary.json; writes summary.csv (one row per degree, stable
    schema), boxprobes.csv, and optional histogram CSVs.  Returns the
    list of written paths.
    """
    spath = os.path.join(out_dir, "summary.json")
    with open(spath, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    written = []
    cfg = summary["config"]
    epsilons = cfg["epsilons"]
    if fmt == "json":
        path = os.path.join(out_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, sort_keys=True, indent=1)
        return [path]
    if fmt != "csv":
        raise ConfigError(f"unknown report format {fmt!r}")
    path = os.path.join(out_dir, "summary.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        header = ["d", "trials", "exceptional_rate", "mean_delta_ang"]
        header += [f"mean_delta_rad_eps{e}" for e in epsilons]
        header += ["mean_eta", "violations"]
        w.writerow(header)
        for row in summary["per_degree"]:
            out = [row["d"], row["trials"], row["exceptional_rate"], row["mean_delta_ang"]]
            out += [row["mean_delta_rad"].get(repr(e)) for e in epsilons]
            out += [row["mean_eta"], row["violations"]]
            w.writerow(out)
    written.append(path)
    if cfg["box_probes"]:
        path = os.path.join(out_dir, "boxprobes.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["box", "d", "estimate", "haar"])
            for row in summary["per_degree"]:
                for i, est in enumerate(row["box_estimates"]):
                    w.writerow([i, row["d"], est, row["box_haar"][i]])
        written.append(path)
    if histograms:
        bins = cfg["histogram_bins"]
        arg_edges, mod_edges = _histogram_edges(bins)
        path = os.path.join(out_dir, "histogram_args.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["d", "bin_lo", "bin_hi", "count"])
            for row in summary["per_degree"]:
                for k, c in enumerate(row["arg_hist"]):
                    w.writerow([row["d"], arg_edges[k], arg_edges[k + 1], c])
        written.append(path)
        path = os.path.join(out_dir, "histogram_moduli.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["d", "bin_lo", "bin_hi", "count"])
            for row in summary["per_degree"]:
                for k, c in enumerate(row["mod_hist"]):
                    lo = 0.0 if k == 0 else mod_edges[k - 1]
                    hi = math.inf if k == bins + 1 else mod_edges[k]
                    w.writerow([row["d"], lo, hi, c])
        written.append(path)
    return written


def load_records(out_dir: str, n: int, degrees):
    """TrialRecords back from the JSONL files of a finished run."""
    records = []
    for d in degrees:
        path = os.path.join(out_dir, f"trials_n{n}_d{d}.jsonl")
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                records.append(TrialRecord.from_json_dict(json.loads(line)))
    records.sort(key=lambda r: (r.d, r.trial))
    return records
