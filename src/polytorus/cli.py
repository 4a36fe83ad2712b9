"""Command line interface.

Subcommands: sample, solve, classify, analyze, experiment, enumerate-d1,
report.  Systems are read from a JSON file argument when given, otherwise
sampled from --n/--d/--seed/--trial.  `analyze` measures a system through
the same function as an experiment trial, so it checks the zero count
and the theorem bounds as a trial does.  Exit codes: 0 success, 2 config
error, 3 bound violation (a theorem failed, or a zero count other than
the mixed volume) or hard failure (a failed exactness self-check, a
classifier mismatch, zeros that are not isolated, coefficients out of
double range), 4 I/O error.  A bound violation writes
violation_dump.json into the run directory of the experiment, or into
the current directory for `analyze` and for a run without one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .discrepancy import DiscrepancyError, ExactModeTooLarge
from .experiment import (
    BoundViolationError,
    ClassifierMismatchError,
    ConfigError,
    ExperimentConfig,
    TrialRecord,
    emit_report,
    enumerate_d1,
    measure_system,
    run_experiment,
)
from .polynomials import (
    PolynomialError,
    sample_bernoulli_system,
    system_from_dict,
    system_to_dict,
)
from .resultants import (
    ComputationError,
    DegenerateSystemError,
    UnsupportedDimensionError,
    classify_exceptional,
)
from .solver import SolverError, solve_system

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_IO = 4


def _load_system(args):
    """System from a JSON file when given, else a fresh sample."""
    if getattr(args, "system", None):
        with open(args.system, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        n, d, seed, trial, polys = system_from_dict(obj)
        return n, d, seed, trial, polys
    if args.n is None or args.d is None:
        raise ConfigError("need either a system file or --n and --d")
    system = sample_bernoulli_system(args.n, args.d, args.seed, args.trial)
    return system.n, system.d, system.seed, system.trial, system.polys


def _emit(obj, args):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_sample(args):
    system = sample_bernoulli_system(args.n, args.d, args.seed, args.trial)
    _emit(system_to_dict(system.polys, system.n, system.d, system.seed, system.trial), args)
    return EXIT_OK


def _cmd_classify(args):
    n, d, seed, trial, polys = _load_system(args)
    report = classify_exceptional(polys)
    _emit(report.to_dict(), args)
    return EXIT_OK


def _cmd_solve(args):
    n, d, seed, trial, polys = _load_system(args)
    cycle, diag = solve_system(polys)
    _emit(cycle.to_dict(diag), args)
    return EXIT_OK


def _cmd_analyze(args):
    n, d, seed, trial, polys = _load_system(args)
    report = classify_exceptional(polys)
    out = {"system": {"n": n, "d": d, "seed": seed, "trial": trial}}
    out["classification"] = report.to_dict()
    if report.exceptional:
        out["note"] = "exceptional system; discrepancies take the convention value 1"
    else:
        rec = TrialRecord.classified(n, d, seed, trial, report)
        cycle, diag, eta_rep = measure_system(
            polys, report, rec, {}, epsilons=args.eps, angle_mode=args.angle_mode,
            grid_size=args.grid,
        )
        out["cycle"] = cycle.to_dict(diag)
        out["delta_ang"] = rec.delta_ang
        out["delta_ang_mode"] = args.angle_mode
        out["delta_rad"] = rec.delta_rad
        out["eta"] = eta_rep.to_dict()
        out["bounds"] = {"b_ang": rec.b_ang, "b_rad": rec.b_rad}
    if args.format == "json" or args.out:
        _emit(out, args)
    else:
        cls = out["classification"]
        print(f"system n={n} d={d} seed={seed} trial={trial}")
        print(f"  exceptional: {cls['exceptional']}  res_v: {cls['res_v']}")
        if not report.exceptional:
            print(f"  zeros found: {out['cycle']['diagnostics']['count_found']} "
                  f"(expected {out['cycle']['diagnostics']['count_expected']})")
            print(f"  delta_ang [{out['delta_ang_mode']}]: {out['delta_ang']:.6f}")
            for k, v in out["delta_rad"].items():
                print(f"  delta_rad(eps={k}): {v:.6f}")
            print(f"  eta: {out['eta']['eta']:.6f} (upper bound {out['eta']['eta_upper']:.6f})")
    return EXIT_OK


def _cmd_experiment(args):
    if args.config:
        cfg = ExperimentConfig.from_json_file(args.config)
    else:
        if args.n is None or not args.d:
            raise ConfigError("experiment needs --config or --n and --d")
        cfg = ExperimentConfig.from_dict(
            {
                "n": args.n,
                "degrees": _degree_list(args.d),
                "trials_per_degree": args.trials,
                "master_seed": args.seed,
                "epsilons": args.eps,
                "angle_mode": args.angle_mode,
                "grid_size": args.grid,
            }
        )
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    if args.parallelism is not None:
        cfg = replace(cfg, parallelism=args.parallelism)
    cfg.validate()
    args.run_dir = cfg.out_dir  # where a violation dump goes
    result = run_experiment(cfg)
    for row in result.summary.per_degree:
        line = (
            f"d={row.d}: trials={row.trials} exceptional_rate={row.exceptional_rate:.4f}"
        )
        if row.mean_delta_ang is not None:
            line += f" mean_delta_ang={row.mean_delta_ang:.5f}"
        if row.mean_eta is not None:
            line += f" mean_eta={row.mean_eta:.5f}"
        print(line)
    print(f"fitted exceptional-rate constant c (rate ~ c/d): "
          f"{result.summary.fitted_rate_constant:.4f}")
    if cfg.out_dir:
        print(f"records written under {cfg.out_dir}")
    return EXIT_OK


def _cmd_enumerate_d1(args):
    rows, fraction = enumerate_d1()
    print(f"patterns: {len(rows)}  exceptional fraction: {fraction:.4f}")
    if args.out:
        import csv

        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["a1", "b1", "c1", "a2", "b2", "c2", "exceptional", "reason"])
            for r in rows:
                w.writerow(list(r.signs) + [r.oracle_exceptional, r.reason])
        print(f"table written to {args.out}")
    return EXIT_OK


def _cmd_report(args):
    files = emit_report(args.dir, fmt=args.format, histograms=args.histograms)
    for f in files:
        print(f)
    return EXIT_OK


def _degree_list(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"--d takes comma-separated integers, got {text!r}") from None


def _eps_list(text):
    return tuple(float(x) for x in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="polytorus", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_system_opts(sp, with_file=True):
        if with_file:
            sp.add_argument("system", nargs="?", help="system JSON file")
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--d", type=int, default=None)
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--trial", type=int, default=0)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("sample", help="draw a random sign system as JSON")
    add_system_opts(sp, with_file=False)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("classify", help="exact exceptional-set membership")
    add_system_opts(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("solve", help="all isolated zeros as a zero-cycle JSON")
    add_system_opts(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("analyze", help="classify, solve and measure one system")
    add_system_opts(sp)
    sp.add_argument("--eps", type=_eps_list, default=(0.1,))
    sp.add_argument("--angle-mode", choices=["exact", "grid"], default="exact")
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("experiment", help="run a Monte Carlo suite")
    sp.add_argument("--config", default=None, help="experiment config JSON")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--d", default=None, help="comma-separated degree list")
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--eps", type=_eps_list, default=(0.1, 0.2))
    sp.add_argument("--angle-mode", choices=["exact", "grid"], default="exact")
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--out", default=None)
    sp.add_argument("--parallelism", type=int, default=None)
    sp.set_defaults(func=_cmd_experiment)

    sp = sub.add_parser("enumerate-d1", help="exhaustive degree-1 classification table")
    sp.add_argument("--out", default=None, help="write the table as CSV")
    sp.set_defaults(func=_cmd_enumerate_d1)

    sp = sub.add_parser("report", help="emit plot-ready files from a run directory")
    sp.add_argument("dir")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--histograms", action="store_true")
    sp.set_defaults(func=_cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError,
        PolynomialError,
        DiscrepancyError,
        ExactModeTooLarge,
        UnsupportedDimensionError,
        DegenerateSystemError,
    ) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BoundViolationError as exc:
        print(f"BOUND VIOLATION (theorem failure): {exc}", file=sys.stderr)
        dump = {"message": str(exc), "record": exc.record, "system": exc.system}
        run_dir = getattr(args, "run_dir", None)
        path = os.path.join(run_dir or "", "violation_dump.json")
        try:
            if run_dir:
                os.makedirs(run_dir, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dump, fh, indent=2, sort_keys=True)
            print(f"diagnostic dump written to {path}", file=sys.stderr)
        except OSError:
            print(json.dumps(dump, sort_keys=True), file=sys.stderr)
        return EXIT_VIOLATION
    except (ClassifierMismatchError, ComputationError, SolverError) as exc:
        print(f"hard failure: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
