"""The polytorus benchmark: one workload, its untraced pass, a traced pass
with `--trace 1`, and the checks.

    python3 perfbench/run.py --workload n2-low-grid --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; polytorus is imported from its `src/`.

1. Set-up: SETUP_REPEATS fresh interpreters each import polytorus and
   validate the workload's config (`worker.py setup`); `setup_s` is the
   median time from spawning one to its `ready` line.
2. Untraced pass: `worker.py suite` runs whole `run_experiment` rounds for
   `--seconds` (at least one).  `suite_s` is the median round time and
   `peak_rss_mb` that process's peak resident memory.
3. With `--trace 1`, the traced pass: the same suite once more, in this
   process, with a span around every call into a layer (`spans.py`); the
   spans are written to `perfbench/out/spans-<workload>-s<seed>.jsonl`.
   With `--trace 0`, the sampler and solver are called again on each
   trial instead, for the zeros the checks need.
4. Checks (`checks.py`) on every trial, outside any timed region.

The last line of standard output is one JSON object: `correct`,
`attempted` and `failed` trials, and the end-to-end metrics (`--trace 0`)
or the per-layer metrics (`--trace 1`).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# the workloads are serial: keep numpy's BLAS to one thread, in this
# process and in the workers, which inherit the environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "suite_s": "s", "peak_rss_mb": "MB"}


def _worker_cmd(mode, args, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode]
    cmd += ["--workload", args.workload, "--seed", str(args.seed), *extra]
    if args.trials is not None:
        cmd += ["--trials", str(args.trials)]
    return cmd


def measure_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to its `ready` line."""
    t0 = time.perf_counter()
    with subprocess.Popen(_worker_cmd("setup", args), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up worker failed with exit code {code}")
    return elapsed


def untraced_pass(args, run_dir: str) -> dict:
    cmd = _worker_cmd("suite", args, "--seconds", str(args.seconds), "--out", run_dir)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"suite worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def solve_again(cfg: dict, untraced: bytes):
    """(systems, zero cycles) by trial key (d, trial), from the program's
    sampler and solver: the untraced pass keeps no zeros."""
    from polytorus import sample_bernoulli_system, solve_bivariate, solve_univariate_cycle

    solve = solve_univariate_cycle if cfg["n"] == 1 else solve_bivariate
    systems, cycles = {}, {}
    for (d, t), line in checks.lines_by_trial(untraced).items():
        system = systems[d, t] = sample_bernoulli_system(cfg["n"], d, cfg["master_seed"], t)
        if not json.loads(line).get("exceptional"):
            try:
                cycles[d, t], _ = solve(*system.polys)
            except Exception:  # a solver fault: the trial fails its checks
                pass
    return systems, cycles


def traced_pass(cfg: dict, tracer):
    """(wall seconds, error or None) of one traced run_experiment."""
    from polytorus import ExperimentConfig, run_experiment

    config = ExperimentConfig.from_dict(cfg)
    with tracer.installed():
        t0 = time.perf_counter()
        try:
            run_experiment(config)
            error = None
        except Exception as exc:  # a program fault: the trials it lost count as failed
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return elapsed, error


def _check_source():
    if not os.path.isfile(os.path.join(SRC, "polytorus", "__init__.py")):
        raise SystemExit(f"perfbench: no polytorus sources in {SRC}")
    sys.path.insert(0, SRC)
    import polytorus

    if os.path.dirname(os.path.dirname(os.path.abspath(polytorus.__file__))) != SRC:
        raise SystemExit(f"perfbench: polytorus imported from {polytorus.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, help="trials per degree (smoke test only)")
    args = parser.parse_args(argv)
    _check_source()

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}"
    run_dir = os.path.join(OUT, f"run-{tag}-{os.getpid()}")
    try:
        setup = [measure_setup(args) for _ in range(SETUP_REPEATS)]
        worker = untraced_pass(args, os.path.join(run_dir, "untraced"))
        rounds = worker["rounds"]
        cfg = workloads.config_dict(args.workload, args.seed, os.path.join(run_dir, "traced"), args.trials)
        untraced = workloads.jsonl_bytes(os.path.join(run_dir, "untraced", "round0"), cfg)
        if args.trace:
            tracer = spans.Tracer()
            traced_s, traced_error = traced_pass(cfg, tracer)
            tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl"))
            traced = workloads.jsonl_bytes(os.path.join(run_dir, "traced"), cfg)
            systems, cycles = tracer.systems, tracer.cycles
        else:
            traced, traced_error = None, None
            systems, cycles = solve_again(cfg, untraced)
        failures = checks.check_suite(cfg, untraced, traced, systems, cycles)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    trials = len(failures)
    failed = sum(1 for fails in failures.values() if fails)
    for (d, t), fails in sorted(failures.items()):
        for msg in fails:
            print(f"FAIL d={d} trial={t}: {msg}")
    for error in (worker["error"], traced_error):
        if error:
            print(f"FAIL run_experiment raised {error}")
    # every untraced round must reproduce round 0 byte for byte
    rounds_agree = bool(rounds) and all(r["sha256"] == rounds[0]["sha256"] for r in rounds)
    if not rounds_agree:
        print("FAIL the untraced rounds differ, or none finished")
        failed = trials
    n_rounds = max(len(rounds), 1)
    suite_s = statistics.median(r["suite_s"] for r in rounds) if rounds else 0.0
    correct = rounds_agree and not (worker["error"] or traced_error or any(failures.values()))

    if args.trace:
        values = tracer.metrics()
        # the traced pass is its process's first suite, like untraced round 0
        values["trace.overhead_s"] = traced_s - (rounds[0]["suite_s"] if rounds else 0.0)
        values["experiment.records_bytes"] = rounds[0]["bytes"] if rounds else 0
        units = spans.METRIC_UNITS
    else:
        values = {"setup_s": statistics.median(setup), "suite_s": suite_s, "peak_rss_mb": worker["peak_rss_mb"]}
        units = END_TO_END_UNITS
    print(f"workload {args.workload} seed {args.seed}: {trials} trials x {n_rounds} untraced rounds, "
          f"{failed * n_rounds} failed")
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": trials * n_rounds,
        "failed": failed * n_rounds,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
