"""Smoke test of the benchmark: python3 -m pytest perfbench/test_smoke.py

Runs every workload at one trial per degree in both trace modes, checks
that each metric BENCHMARK.json names is reported, and shows that the
checks catch a record or a zero altered on purpose.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run(root, workload, trace, trials=1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--trials", str(trials)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(spans.METRIC_UNITS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "n2-low-grid", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _first_measured_trial(workload, tmp_path):
    """(record dict, cycle, system, cfg) of the first non-exceptional trial
    of a one-trial-per-degree suite, run under the tracer."""
    from polytorus import ExperimentConfig, run_experiment

    cfg = workloads.config_dict(workload, 1, out_dir=str(tmp_path), trials=1)
    tracer = spans.Tracer()
    with tracer.installed():
        result = run_experiment(ExperimentConfig.from_dict(cfg))
    for rec in result.records:
        if not rec.exceptional:
            record = json.loads(json.dumps(rec.to_json_dict()))
            return record, tracer.cycles[rec.d, rec.trial], tracer.systems[rec.d, rec.trial], cfg
    raise AssertionError("no measured trial")


def _shift_zero(cycle):
    first = cycle.points[0]
    moved = dataclasses.replace(first, coords=(first.coords[0] + 1e-3,) + first.coords[1:])
    return dataclasses.replace(cycle, points=(moved,) + cycle.points[1:])


CORRUPTIONS = {
    "count_found": lambda r: r.update(count_found=r["count_found"] + 1),
    "res_v": lambda r: r["res_v"].update({k: str(int(v) + 1) for k, v in list(r["res_v"].items())[:1]}),
    "exceptional": lambda r: r.update(exceptional=True),
    "zero_coord": lambda r: r.update(zero_coord=[not z for z in r["zero_coord"]]),
    "delta_ang": lambda r: r.update(delta_ang=r["delta_ang"] * 0.5),
    "delta_rad": lambda r: r["delta_rad"].update({"0.1": r["delta_rad"]["0.1"] + 0.25}),
    "b_rad": lambda r: r["b_rad"].update({"0.2": r["b_rad"]["0.2"] * 1.01}),
    "eta_upper": lambda r: r.update(eta_upper=r["eta_upper"] * 1.01),
    "box_counts": lambda r: r.update(box_counts=[c + 1 for c in r["box_counts"]]),
    "violations": lambda r: r.update(violations=["delta_ang exceeds bound"]),
}


@pytest.mark.parametrize("workload", ["n1-suite", "n2-low-grid", "n2-exact"])
def test_checks_catch_altered_records(workload, tmp_path):
    record, cycle, system, cfg = _first_measured_trial(workload, tmp_path)
    assert checks.check_trial(record, cfg, cycle, system) == []
    for name, corrupt in CORRUPTIONS.items():
        bad = copy.deepcopy(record)
        corrupt(bad)
        assert checks.check_trial(bad, cfg, cycle, system), f"{name} altered, checks passed"
    assert checks.check_trial(record, cfg, _shift_zero(cycle), system), "moved zero passed"
    from polytorus import sample_bernoulli_system

    other = sample_bernoulli_system(cfg["n"], record["d"], cfg["master_seed"], record["trial"] + 1)
    assert checks.check_trial(record, cfg, cycle, other), "another trial's system passed"


def test_malformed_record_fails_its_trial(tmp_path):
    record, cycle, system, cfg = _first_measured_trial("n2-low-grid", tmp_path)
    del record["eta"]
    line = json.dumps(record).encode() + b"\n"
    key = (record["d"], record["trial"])
    failures = checks.check_suite(cfg, line, line, {key: system}, {key: cycle})
    assert failures[key][0].startswith("malformed record")
