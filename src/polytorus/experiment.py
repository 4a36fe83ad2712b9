"""Reproducible Monte Carlo harness.

A trial is a pure function of (masterSeed, d, trialId): sample the
system, classify it exactly, and when it is not exceptional solve it and
measure discrepancies, eta and the theorem bounds.  Exceptional trials
keep null measured fields and carry the convention value 1 separately.
Violations of the Theorem-backed inequalities (angle/radius bounds, the
eta upper bound, or a non-exceptional solution count different from d^n)
abort the run with a diagnostic dump: those are impossibilities, not
tolerances.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .discrepancy import (
    PolarBox,
    angle_discrepancy,
    box_count,
    discrepancy_bounds,
    erdos_turan_size,
    radius_discrepancy,
    EXACT_MODE_POINT_CAP,
)
from .polynomials import (
    IntPolynomial,
    bernoulli_system_to_dict,
    sample_bernoulli_system,
)
from .resultants import classify_exceptional
from .solver import solve_bivariate, solve_univariate_cycle


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
        if any(not 0 < e < 1 for e in self.epsilons):
            raise ConfigError("epsilons must lie in (0, 1)")
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
        try:
            cfg = cls(
                n=int(obj["n"]),
                degrees=tuple(int(d) for d in obj["degrees"]),
                trials_per_degree=int(obj["trials_per_degree"]),
                master_seed=int(obj.get("master_seed", 1)),
                epsilons=tuple(float(e) for e in obj.get("epsilons", (0.1, 0.2))),
                angle_mode=obj.get("angle_mode", "exact"),
                grid_size=int(obj.get("grid_size", 64)),
                box_probes=tuple(
                    PolarBox.from_dict(b) for b in obj.get("box_probes", ())
                ),
                out_dir=obj.get("out_dir"),
                parallelism=int(obj.get("parallelism", 1)),
                histogram_bins=int(obj.get("histogram_bins", 64)),
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


def run_trial(
    n: int,
    d: int,
    trial: int,
    master_seed: int,
    epsilons,
    angle_mode: str,
    grid_size: int,
    box_probes,
    histogram_bins: int,
):
    """One pure trial.  Returns (record, timings, arg_hist, mod_hist)."""
    timings = {}
    t0 = time.perf_counter()
    system = sample_bernoulli_system(n, d, master_seed, trial)
    timings["sample"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = classify_exceptional(system)
    timings["classify"] = time.perf_counter() - t0

    rdict = report.to_dict()
    record = TrialRecord(
        n=n,
        d=d,
        trial=trial,
        seed=master_seed,
        exceptional=report.exceptional,
        res_v=rdict["res_v"],
        zero_coord=rdict["zero_coord"],
        count_expected=d**n,
    )
    bins = histogram_bins
    arg_hist = np.zeros(bins, dtype=np.int64)
    mod_hist = np.zeros(bins + 2, dtype=np.int64)  # under/overflow bins at ends

    if report.exceptional:
        record.convention_delta = 1.0
        timings["solve"] = 0.0
        timings["analyze"] = 0.0
        return record, timings, arg_hist, mod_hist

    t0 = time.perf_counter()
    if n == 1:
        cycle, diag = solve_univariate_cycle(system.polys[0])
    else:
        cycle, diag = solve_bivariate(system.polys[0], system.polys[1])
    timings["solve"] = time.perf_counter() - t0

    record.count_found = diag.count_found
    record.max_residual = diag.max_residual
    record.count_mismatches = diag.cross_check_mismatches
    record.dropped = diag.dropped
    if diag.count_found != d**n:
        raise BoundViolationError(
            f"non-exceptional system produced {diag.count_found} zeros, "
            f"expected d^n = {d ** n}",
            record.to_json_dict(),
            bernoulli_system_to_dict(system),
        )

    t0 = time.perf_counter()
    if angle_mode == "grid":
        record.delta_ang = angle_discrepancy(cycle, "grid", grid_size)
        record.delta_ang_mode = f"grid({grid_size})"
    else:
        record.delta_ang = angle_discrepancy(cycle, "exact")
        record.delta_ang_mode = "exact"
    record.convention_delta = record.delta_ang
    record.b_rad = {}
    record.delta_rad = {
        repr(e): radius_discrepancy(cycle, e) for e in epsilons
    }
    eta_rep = erdos_turan_size(system, report=report)
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

    args = np.angle(cycle.coords_array()).ravel()
    args[args == -np.pi] = np.pi
    _, mod_edges = _histogram_edges(bins)
    k = np.clip(
        np.ceil((args + np.pi) * bins / (2 * np.pi)).astype(int) - 1, 0, bins - 1
    )
    np.add.at(arg_hist, k, 1)
    mods = np.abs(cycle.coords_array()).ravel()
    mk = np.searchsorted(mod_edges, mods, side="left")
    np.add.at(mod_hist, mk, 1)
    timings["analyze"] = time.perf_counter() - t0

    if violations:
        raise BoundViolationError(
            "; ".join(violations),
            record.to_json_dict(),
            bernoulli_system_to_dict(system),
        )
    return record, timings, arg_hist, mod_hist


def _run_trial_tuple(args):
    return run_trial(*args)


def _trial_results(jobs, parallelism: int):
    """Trial results in job order, each yielded as soon as it is ready."""
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            yield from pool.map(_run_trial_tuple, jobs, chunksize=8)
    else:
        yield from map(_run_trial_tuple, jobs)


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
            jobs = [
                (
                    config.n,
                    d,
                    t,
                    config.master_seed,
                    tuple(config.epsilons),
                    config.angle_mode,
                    config.grid_size,
                    tuple(config.box_probes),
                    config.histogram_bins,
                )
                for t in range(config.trials_per_degree)
            ]
            for rec, tms, ah, mh in _trial_results(jobs, config.parallelism):
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
            w.writerow(["d", "trial", "sample", "classify", "solve", "analyze"])
            for d, t, tms in timings:
                w.writerow(
                    [d, t]
                    + [f"{tms.get(k, 0.0):.6f}" for k in ("sample", "classify", "solve", "analyze")]
                )
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
