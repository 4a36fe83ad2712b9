"""Child process of the benchmark: a set-up probe, or the untraced suite.

    python3 perfbench/worker.py setup --workload W --seed S
    python3 perfbench/worker.py suite --workload W --seed S --seconds T --out DIR

Both modes import polytorus from the checkout's `src/`, validate the
workload's `ExperimentConfig` and print `ready`; the parent times a fresh
interpreter up to that line as `setup_s`.  `suite` then runs whole
untraced `run_experiment` rounds, each into `DIR/round<k>`, until the next
round would overrun T seconds (at least one round), and prints one JSON
line: the round times, the SHA-256 and size of each round's JSONL, and
the process's peak resident memory.  It imports nothing but polytorus and
the workload table, so that memory is the suite's own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "suite"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out")
    parser.add_argument("--trials", type=int)
    args = parser.parse_args(argv)

    from polytorus import ExperimentConfig, run_experiment

    ExperimentConfig.from_dict(workloads.config_dict(args.workload, args.seed, trials=args.trials))
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    rounds = []
    error = None
    start = time.perf_counter()
    while True:
        run_dir = os.path.join(args.out, f"round{len(rounds)}")
        cfg = workloads.config_dict(args.workload, args.seed, out_dir=run_dir, trials=args.trials)
        config = ExperimentConfig.from_dict(cfg)
        t0 = time.perf_counter()
        try:
            run_experiment(config)
        except Exception as exc:  # a program fault: report it, the parent counts the failures
            error = f"{type(exc).__name__}: {exc}"
            break
        elapsed = time.perf_counter() - t0
        data = workloads.jsonl_bytes(run_dir, cfg)
        rounds.append(
            {"suite_s": elapsed, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        )
        if len(rounds) > 1:
            shutil.rmtree(run_dir)  # the parent checks round 0 and compares digests
        if time.perf_counter() - start + elapsed > args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"rounds": rounds, "error": error, "peak_rss_mb": peak_kb / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
