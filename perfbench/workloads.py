"""Workload definitions of the polytorus benchmark.

The settings live here, not in `configs/`, so that an edit to the
checked-in suites does not change what the benchmark measures.  Each
workload is one serial `run_experiment` suite; the master seed comes from
the benchmark's `--seed` argument.

Trial counts are sized so that four workloads times 22 runs, each
running the suite untraced for 10 s, then solving it again for the
checks, finish within an hour on a 2-core machine.  The n=2 suites take
7-18 s, one untraced round, because their trial times vary from input to
input and fewer trials would let the seed move `suite_s`; on
`n2-high-grid` a trial whose eliminant roots do not all converge runs
all 200 Aberth sweeps, so that suite is the largest.  `n1-suite` varies
little with the seed, so its suite is small (~2.7 s) and the untraced
pass reports the median of three or more rounds, which also leaves out
the first round's warm-up.
"""

from __future__ import annotations

import math
import os

_FULL_ARC = [-math.pi, math.pi]

# the two box probes of configs/default_suite_n{1,2}.json: the punctured
# disk of radius 0.3 (its Haar mass is 0) and the whole plane (mass 1)
_PROBES_N1 = [
    {"radial": [[0.0, 0.3]], "angular": [_FULL_ARC]},
    {"radial": [[0.0, None]], "angular": [_FULL_ARC]},
]
_PROBES_N2 = [
    {"radial": [[0.0, 0.3], [0.0, 0.3]], "angular": [_FULL_ARC, _FULL_ARC]},
    {"radial": [[0.0, None], [0.0, None]], "angular": [_FULL_ARC, _FULL_ARC]},
]

_COMMON = {
    "epsilons": [0.1, 0.2],
    "grid_size": 64,
    "parallelism": 1,
    "histogram_bins": 64,
}

WORKLOADS = {
    # the univariate Aberth solve is ~95% of a trial: the 1-d path of
    # `solver` alone; n=2 code does not run here
    "n1-suite": {
        "n": 1,
        "degrees": [100, 200, 400],
        "trials_per_degree": 10,
        "angle_mode": "exact",
        "box_probes": _PROBES_N1,
    },
    # the grid angle discrepancy is ~80% of a trial; the classifier's
    # early exit runs on the 8-19% exceptional trials
    "n2-low-grid": {
        "n": 2,
        "degrees": [4, 6],
        "trials_per_degree": 40,
        "angle_mode": "grid",
        "box_probes": _PROBES_N2,
    },
    # solve_bivariate (eliminants, roots, back-substitution) is 75-85%
    # of a trial; the grid angle cost stays flat
    "n2-high-grid": {
        "n": 2,
        "degrees": [10, 12],
        "trials_per_degree": 16,
        "angle_mode": "grid",
        "box_probes": _PROBES_N2,
    },
    # the O(N^4) exact 2-d angle supremum is 66-79% of a trial; no other
    # workload runs it
    "n2-exact": {
        "n": 2,
        "degrees": [8, 10],
        "trials_per_degree": 7,
        "angle_mode": "exact",
        "box_probes": _PROBES_N2,
    },
}


def config_dict(name: str, seed: int, out_dir: str = None, trials: int = None) -> dict:
    """The `ExperimentConfig.from_dict` input of workload `name`.

    `trials` overrides the trials per degree (the smoke test uses it).
    """
    cfg = {**_COMMON, **WORKLOADS[name], "master_seed": seed, "out_dir": out_dir}
    if trials is not None:
        cfg["trials_per_degree"] = trials
    return cfg


def jsonl_bytes(run_dir: str, cfg: dict) -> bytes:
    """The JSONL files `run_experiment` wrote for `cfg`, concatenated in
    degree order; a file that is missing contributes nothing."""
    data = b""
    for d in cfg["degrees"]:
        path = os.path.join(run_dir, f"trials_n{cfg['n']}_d{d}.jsonl")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data += fh.read()
    return data
