import json
import math
import os
import random
import subprocess
import sys

import pytest

import polytorus.experiment as experiment
import polytorus.polynomials as polynomials
from polytorus.polynomials import sample_bernoulli_system
from polytorus.discrepancy import EXACT_MODE_POINT_CAP, PolarBox
from polytorus.experiment import (
    ConfigError,
    ExperimentConfig,
    TrialRecord,
    aggregate,
    emit_report,
    enumerate_d1,
    load_records,
    run_experiment,
    run_trial,
)


def tiny_config(tmp_path, **over):
    base = {
        "n": 2,
        "degrees": [2, 3],
        "trials_per_degree": 6,
        "master_seed": 5,
        "epsilons": [0.1],
        "angle_mode": "grid",
        "grid_size": 16,
        "box_probes": [
            {"radial": [[0.0, 0.3], [0.0, 0.3]],
             "angular": [[-math.pi, math.pi], [-math.pi, math.pi]]},
            {"radial": [[0.0, None], [0.0, None]],
             "angular": [[-math.pi, math.pi], [-math.pi, math.pi]]},
        ],
        "out_dir": str(tmp_path / "run"),
        "parallelism": 1,
        "histogram_bins": 16,
    }
    base.update(over)
    return ExperimentConfig.from_dict(base)


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        tiny_config(tmp_path, degrees=[])
    with pytest.raises(ConfigError):
        tiny_config(tmp_path, degrees=[3, 2])
    with pytest.raises(ConfigError):
        tiny_config(tmp_path, trials_per_degree=0)
    with pytest.raises(ConfigError):
        tiny_config(tmp_path, epsilons=[1.5])
    with pytest.raises(ConfigError):
        tiny_config(tmp_path, angle_mode="fancy")
    with pytest.raises(ConfigError):
        tiny_config(tmp_path, n=3)
    with pytest.raises(ConfigError):
        tiny_config(tmp_path, angle_mode="exact", degrees=[21])


@pytest.mark.parametrize(
    "over",
    [
        {"n": 2.0},
        {"degrees": [2, 10.9]},
        {"degrees": [True, 3]},
        {"trials_per_degree": 2.7},
        {"master_seed": 1.5},
        {"master_seed": True},
        {"master_seed": -5},
        {"master_seed": 2**64},
        {"grid_size": 16.0},
        {"parallelism": True},
        {"histogram_bins": "16"},
        {"epsilons": [True]},
        {"epsilons": ["0.1"]},
    ],
)
def test_config_rejects_values_it_would_coerce(tmp_path, over):
    with pytest.raises(ConfigError):
        tiny_config(tmp_path, **over)


def test_config_exact_mode_cap_allows_d20(tmp_path):
    cfg = tiny_config(tmp_path, angle_mode="exact", degrees=[20])
    assert max(cfg.degrees) ** 2 == EXACT_MODE_POINT_CAP


# ---------------------------------------------------------------------------
# trial records


def test_trial_record_fields_exceptional_vs_not(tmp_path):
    cfg = tiny_config(tmp_path)
    found = {True: None, False: None}
    t = 0
    while (found[True] is None or found[False] is None) and t < 200:
        rec, _, _, _ = run_trial(cfg, 2, t)
        if found[rec.exceptional] is None:
            found[rec.exceptional] = rec
        t += 1
    exc, reg = found[True], found[False]
    assert exc is not None and reg is not None
    assert exc.convention_delta == 1.0
    assert exc.delta_ang is None and exc.eta is None and exc.count_found is None
    assert exc.delta_rad is None and exc.box_counts is None
    assert reg.count_found == reg.count_expected == 4
    assert reg.violations == []
    assert 0 <= reg.delta_ang <= 1
    assert reg.eta <= reg.eta_upper
    assert len(reg.box_counts) == 2


def test_record_json_roundtrip(tmp_path):
    cfg = tiny_config(tmp_path, n=1, degrees=[20], master_seed=9,
                      angle_mode="exact", box_probes=[])
    rec, _, _, _ = run_trial(cfg, 20, 0)
    obj = json.loads(json.dumps(rec.to_json_dict()))
    back = TrialRecord.from_json_dict(obj)
    assert back == rec


# ---------------------------------------------------------------------------
# experiment runs


def test_run_experiment_files_and_determinism(tmp_path):
    cfg1 = tiny_config(tmp_path, out_dir=str(tmp_path / "a"))
    cfg2 = tiny_config(tmp_path, out_dir=str(tmp_path / "b"))
    r1 = run_experiment(cfg1)
    r2 = run_experiment(cfg2)
    for d in cfg1.degrees:
        fa = tmp_path / "a" / f"trials_n2_d{d}.jsonl"
        fb = tmp_path / "b" / f"trials_n2_d{d}.jsonl"
        assert fa.read_bytes() == fb.read_bytes()
    assert [r.to_json_dict() for r in r1.records] == [
        r.to_json_dict() for r in r2.records
    ]
    assert (tmp_path / "a" / "summary.json").exists()
    timings = (tmp_path / "a" / "timings.csv").read_text().splitlines()
    assert timings[0] == "d,trial,sample,classify,solve,angle,eta,analyze"
    assert len(timings) == 1 + len(r1.records)


def test_one_mixed_volume_per_solved_trial(tmp_path, monkeypatch, mixed_volume_calls):
    # the solver's count is the mixed volume, handed on to eta; an
    # exceptional trial stops before either
    per_trial = []
    original = experiment.run_trial

    def counted_trial(*args):
        before = len(mixed_volume_calls)
        out = original(*args)
        per_trial.append((out[0].exceptional, len(mixed_volume_calls) - before))
        return out

    monkeypatch.setattr(experiment, "run_trial", counted_trial)
    result = run_experiment(tiny_config(tmp_path))
    assert len(per_trial) == len(result.records) == 12
    assert {exc for exc, _ in per_trial} == {True, False}
    assert all(calls == (0 if exc else 1) for exc, calls in per_trial)


def test_support_hull_built_once_per_trial(tmp_path, monkeypatch):
    # the classifier, the solver and eta share each polynomial's hull, and
    # every trial of one degree shares the hull of its full support: it is
    # built once, in the first trial of the degree
    built = []
    original = polynomials.convex_hull

    def counted(points):
        built.append(tuple(points))
        return original(points)

    monkeypatch.setattr(polynomials, "convex_hull", counted)
    polynomials._support_hull.cache_clear()
    cfg = tiny_config(tmp_path, degrees=[2, 4], box_probes=[])
    seen = set()
    for d, t in [(2, 0), (2, 2), (4, 0), (4, 1)]:
        built.clear()
        rec, _, _, _ = run_trial(cfg, d, t)
        seen.add(rec.exceptional)
        full = tuple(sorted(e for e, _ in sample_bernoulli_system(2, d, 5, t).polys[0].terms))
        assert [tuple(sorted(b)) for b in built] == ([full] if t == 0 else [])
    assert seen == {True, False}
    polynomials._support_hull.cache_clear()


def test_import_leaves_the_process_pool_unloaded():
    # the serial suites never start a pool, so no interpreter pays its import
    src = os.path.dirname(os.path.dirname(experiment.__file__))
    script = "import sys, polytorus; print('concurrent.futures.process' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.strip() == "False"


def test_parallelism_changes_nothing_but_timing(tmp_path):
    cfg1 = tiny_config(tmp_path, out_dir=str(tmp_path / "seq"))
    cfg2 = tiny_config(tmp_path, out_dir=str(tmp_path / "par"), parallelism=2)
    run_experiment(cfg1)
    run_experiment(cfg2)
    for d in cfg1.degrees:
        fa = (tmp_path / "seq" / f"trials_n2_d{d}.jsonl").read_bytes()
        fb = (tmp_path / "par" / f"trials_n2_d{d}.jsonl").read_bytes()
        assert fa == fb


def test_records_do_not_depend_on_blas_threads(tmp_path):
    # a threaded BLAS splits its work by the thread count and may round
    # differently with it; the records must not depend on the machine's
    # cores, so a serial suite runs at one and at two BLAS threads
    script = (
        "import json, sys\n"
        "from polytorus.experiment import ExperimentConfig, run_experiment\n"
        "for cfg in json.loads(sys.argv[1]):\n"
        "    run_experiment(ExperimentConfig.from_dict(cfg))\n"
    )
    n1_probes = [
        {"radial": [[0.0, 0.3]], "angular": [[-math.pi, math.pi]]},
        {"radial": [[0.0, None]], "angular": [[-math.pi, math.pi]]},
    ]
    src = os.path.dirname(os.path.dirname(experiment.__file__))
    records = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"threads{threads}")
        suites = [
            tiny_config(
                tmp_path, n=1, degrees=[100, 300], trials_per_degree=2,
                angle_mode="exact", box_probes=n1_probes, out_dir=out,
            ),
            tiny_config(tmp_path, degrees=[10], trials_per_degree=2, out_dir=out),
            # eliminant factors of degree 16 and 64: eigenvalue starts, up
            # to the crossover
            tiny_config(tmp_path, degrees=[4, 8], trials_per_degree=3, out_dir=out),
        ]
        env = {**os.environ, "PYTHONPATH": src}
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
        subprocess.run(
            [sys.executable, "-c", script, json.dumps([c.to_dict() for c in suites])],
            env=env,
            check=True,
        )
        names = ["trials_n1_d100", "trials_n1_d300", "trials_n2_d10",
                 "trials_n2_d4", "trials_n2_d8"]
        records.append([
            (tmp_path / f"threads{threads}" / f"{name}.jsonl").read_bytes()
            for name in names
        ])
    assert [len(r.splitlines()) for r in records[0]] == [2, 2, 2, 3, 3]
    assert records[0] == records[1]


def test_aggregation_order_independent(tmp_path):
    cfg = tiny_config(tmp_path, out_dir=None)
    res = run_experiment(cfg)
    shuffled = list(res.records)
    random.Random(0).shuffle(shuffled)
    hists = {d: (None, None) for d in cfg.degrees}
    a = aggregate(cfg, res.records, hists)
    b = aggregate(cfg, shuffled, hists)
    for ra, rb in zip(a.per_degree, b.per_degree):
        ra.arg_hist = rb.arg_hist = []
        ra.mod_hist = rb.mod_hist = []
        assert ra == rb


def test_counts_match_for_nonexceptional(tmp_path):
    cfg = tiny_config(tmp_path, out_dir=None)
    res = run_experiment(cfg)
    for rec in res.records:
        if not rec.exceptional:
            assert rec.count_found == rec.d**2
            assert rec.violations == []


def test_full_box_identity(tmp_path):
    # estimate over the full polar box equals the exceptional-weighted mean
    cfg = tiny_config(tmp_path, out_dir=None)
    res = run_experiment(cfg)
    for row, d in zip(res.summary.per_degree, cfg.degrees):
        recs = [r for r in res.records if r.d == d]
        want = sum(
            (r.count_found or 0) if not r.exceptional else 0 for r in recs
        ) / (len(recs) * d**2)
        assert row.box_estimates[1] == pytest.approx(want, abs=1e-12)


def test_load_records_roundtrip(tmp_path):
    cfg = tiny_config(tmp_path)
    res = run_experiment(cfg)
    back = load_records(cfg.out_dir, 2, cfg.degrees)
    assert [r.to_json_dict() for r in back] == [
        r.to_json_dict() for r in res.records
    ]


# ---------------------------------------------------------------------------
# d=1 table


def test_enumerate_d1_agreement_and_fraction():
    rows, fraction = enumerate_d1()
    assert len(rows) == 64
    assert all(r.oracle_exceptional == r.classifier_exceptional for r in rows)
    # every degree-1 sign system degenerates: one of the three 2x2 sign
    # determinants always vanishes (their vanishing indicators multiply to 1)
    assert fraction == 1.0


def test_enumerate_d1_worked_examples():
    rows, _ = enumerate_d1()
    table = {r.signs: r for r in rows}
    # f1 = 1+x+y, f2 = -1+x+y: parallel lines
    assert table[(1, 1, 1, -1, 1, 1)].reason == "directional"
    # f1 = 1+x+y, f2 = 1+x-y: solution (-1, 0)
    assert table[(1, 1, 1, 1, 1, -1)].reason == "zero-coordinate"


# ---------------------------------------------------------------------------
# reports


def test_emit_report_csv_schema(tmp_path):
    cfg = tiny_config(tmp_path)
    run_experiment(cfg)
    files = emit_report(cfg.out_dir, fmt="csv", histograms=True)
    names = {os.path.basename(f) for f in files}
    assert names == {
        "summary.csv",
        "boxprobes.csv",
        "histogram_args.csv",
        "histogram_moduli.csv",
    }
    header = open(os.path.join(cfg.out_dir, "summary.csv")).readline().strip()
    assert header == (
        "d,trials,exceptional_rate,mean_delta_ang,"
        "mean_delta_rad_eps0.1,mean_eta,violations"
    )
    rows = open(os.path.join(cfg.out_dir, "summary.csv")).read().strip().splitlines()
    assert len(rows) == 1 + len(cfg.degrees)


def test_emit_report_json(tmp_path):
    cfg = tiny_config(tmp_path)
    run_experiment(cfg)
    files = emit_report(cfg.out_dir, fmt="json")
    assert files and files[0].endswith("report.json")
    obj = json.load(open(files[0]))
    assert "per_degree" in obj and "verdicts" in obj


def test_histogram_totals(tmp_path):
    cfg = tiny_config(tmp_path)
    res = run_experiment(cfg)
    for row, d in zip(res.summary.per_degree, cfg.degrees):
        solved = sum(
            1 for r in res.records if r.d == d and not r.exceptional
        )
        # each solved trial contributes d^2 zeros x 2 coordinates
        assert sum(row.arg_hist) == solved * d**2 * 2
        assert sum(row.mod_hist) == solved * d**2 * 2


def test_records_reach_disk_before_a_trial_fails(tmp_path, monkeypatch):
    real = experiment.run_trial

    def failing(config, d, trial):
        if trial == 3:
            raise RuntimeError("trial 3 fails")
        return real(config, d, trial)

    monkeypatch.setattr(experiment, "run_trial", failing)
    cfg = tiny_config(tmp_path, degrees=[2])
    with pytest.raises(RuntimeError, match="trial 3 fails"):
        run_experiment(cfg)
    lines = (tmp_path / "run" / "trials_n2_d2.jsonl").read_text().splitlines()
    assert [json.loads(line)["trial"] for line in lines] == [0, 1, 2]


def _perfbench_spans():
    """perfbench/spans.py, imported from its file as the benchmark does."""
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n, degree, trials", [(2, 4, 2), (1, 30, 1)])
def test_benchmark_tracer_sees_every_trial(tmp_path, n, degree, trials):
    # the benchmark's tracer keys systems and zero cycles by the (d, trial)
    # of each run_experiment call to run_trial(n, d, trial, ...), and
    # reads the solver's counters from the spanned calls; a run that
    # solved trials some other way would lose both
    over = {"n": n, "degrees": [degree], "trials_per_degree": trials}
    if n == 1:
        over["box_probes"] = [
            {"radial": [[0.0, 0.3]], "angular": [[-math.pi, math.pi]]},
            {"radial": [[0.0, None]], "angular": [[-math.pi, math.pi]]},
        ]
    cfg = tiny_config(tmp_path, **over)
    tracer = _perfbench_spans().Tracer()
    with tracer.installed():
        run_experiment(cfg)
    solved = {(r.d, r.trial) for r in load_records(cfg.out_dir, n, [degree]) if not r.exceptional}
    assert set(tracer.systems) == {(degree, t) for t in range(trials)}
    assert solved and set(tracer.cycles) == solved
    metrics = tracer.metrics()
    assert metrics["solver.aberth_sweeps"] > 0
    if n == 2:
        assert metrics["resultants.eliminant_degree"] > 0
