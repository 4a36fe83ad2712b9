import dataclasses
import json
import math

import pytest

import polytorus.discrepancy as discrepancy
import polytorus.solver as solver
from polytorus.cli import main
from polytorus.experiment import ExperimentConfig, run_trial
from polytorus.solver import RESIDUAL_TOL, ZeroCycle


def test_sample_writes_system(tmp_path, capsys):
    out = tmp_path / "sys.json"
    rc = main(["sample", "--n", "2", "--d", "3", "--seed", "7", "--trial", "1",
               "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 2 and obj["d"] == 3
    assert len(obj["polys"]) == 2
    assert len(obj["polys"][0]) == 10
    assert all(c in (-1, 1) for _, c in obj["polys"][0])


def test_classify_from_file_and_flags(tmp_path, capsys):
    out = tmp_path / "sys.json"
    main(["sample", "--n", "2", "--d", "2", "--seed", "3", "--out", str(out)])
    rc = main(["classify", str(out)])
    assert rc == 0
    from_file = json.loads(capsys.readouterr().out)
    rc = main(["classify", "--n", "2", "--d", "2", "--seed", "3", "--trial", "0"])
    assert rc == 0
    from_flags = json.loads(capsys.readouterr().out)
    assert from_file == from_flags
    assert set(from_file) == {"res_v", "zero_coord", "exceptional"}


def test_solve_outputs_cycle(tmp_path, capsys):
    rc = main(["solve", "--n", "1", "--d", "12", "--seed", "5"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["n"] == 1
    assert obj["diagnostics"]["count_found"] == 12
    assert 0 < obj["diagnostics"]["isolation_radius"] < 1e-6  # the disks proved all 12


def test_solve_bivariate_system_file_diagnostics(tmp_path, capsys):
    # x^2 + y^2 = 5, xy = 2: the four zeros (1, 2), (2, 1), (-1, -2), (-2, -1)
    path = tmp_path / "circle_hyperbola.json"
    path.write_text(json.dumps({"n": 2, "d": 2, "polys": [
        [[[2, 0], 1], [[0, 2], 1], [[0, 0], -5]],
        [[[1, 1], 1], [[0, 0], -2]],
    ]}))
    rc = main(["solve", str(path)])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    diag = obj["diagnostics"]
    assert 0 < diag["isolation_radius"] < 1e-6  # both eliminants isolated by the disks
    assert diag["eliminant_degree"] == diag["count_expected"] == 4
    assert diag["count_found"] == 4
    assert diag["dropped"] == diag["cross_check_mismatches"] == 0
    assert diag["warnings"] == []
    assert diag["iterations"] > 0
    assert diag["residual_threshold"] == RESIDUAL_TOL
    assert 0 <= diag["max_residual"] <= RESIDUAL_TOL
    zeros = sorted((round(x[0], 9), round(y[0], 9)) for x, y in
                   (p["coords"] for p in obj["points"]))
    assert zeros == [(-2, -1), (-1, -2), (1, 2), (2, 1)]
    assert all(p["mult"] == 1 for p in obj["points"])


def test_analyze_text_and_json(capsys):
    rc = main(["analyze", "--n", "1", "--d", "30", "--seed", "2", "--eps", "0.1,0.2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "delta_ang" in text
    rc = main(["analyze", "--n", "1", "--d", "30", "--seed", "2", "--format", "json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert "eta" in obj and "delta_rad" in obj


ANALYZE_TRIAL_3 = ["analyze", "--n", "2", "--d", "4", "--seed", "1", "--trial", "3"]


def test_analyze_eta_matches_the_trial_record(capsys, mixed_volume_calls):
    # analyze measures through the trial's own function: every field the
    # two share is the same value, and the mixed volume is computed once
    cfg = ExperimentConfig(n=2, degrees=(4,), trials_per_degree=4, epsilons=(0.1,),
                           angle_mode="grid", grid_size=64, histogram_bins=16)
    rec, _, _, _ = run_trial(cfg, 4, 3)
    assert not rec.exceptional
    mixed_volume_calls.clear()
    rc = main(ANALYZE_TRIAL_3 + ["--angle-mode", "grid", "--grid", "64", "--format", "json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    diag = out["cycle"]["diagnostics"]
    assert out["delta_ang"] == rec.delta_ang
    assert out["delta_rad"] == rec.delta_rad
    assert out["eta"]["eta"] == rec.eta
    assert out["eta"]["eta_upper"] == rec.eta_upper
    assert out["bounds"] == {"b_ang": rec.b_ang, "b_rad": rec.b_rad}
    assert diag["count_found"] == rec.count_found == 16
    assert diag["max_residual"] == rec.max_residual
    assert len(mixed_volume_calls) == 1


def test_analyze_checks_the_bounds(tmp_path, monkeypatch, capsys, patch_package):
    patch_package(discrepancy.discrepancy_bounds, lambda eta, n, eps: (0.0, 0.0))
    monkeypatch.chdir(tmp_path)
    rc = main(ANALYZE_TRIAL_3)
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("BOUND VIOLATION (theorem failure): ")
    assert "exceeds bound 0.0" in captured.err and "Traceback" not in captured.err
    dump = json.loads((tmp_path / "violation_dump.json").read_text())
    assert dump["record"]["trial"] == 3 and dump["record"]["violations"]
    assert dump["system"]["polys"] and dump["system"]["seed"] == 1


def test_analyze_checks_the_zero_count(tmp_path, monkeypatch, capsys, patch_package):
    original = solver.solve_bivariate

    def one_short(f1, f2):
        cycle, diag = original(f1, f2)
        cycle = ZeroCycle(cycle.dim, cycle.points[1:], cycle.residual_threshold)
        return cycle, dataclasses.replace(diag, count_found=cycle.degree)

    patch_package(original, one_short)
    monkeypatch.chdir(tmp_path)
    rc = main(ANALYZE_TRIAL_3)
    assert rc == 3
    err = capsys.readouterr().err
    assert "produced 15 zeros, expected its mixed volume 16" in err
    dump = json.loads((tmp_path / "violation_dump.json").read_text())
    assert dump["record"]["count_found"] == 15


def test_analyze_grid_of_a_million_bins(capsys):
    # the scan cuts at occupied bins only, so a 2^20 grid costs what the 36
    # zeros cost; its boxes contain the grid-64 ones and lie in the exact family
    flags = ["analyze", "--n", "2", "--d", "6", "--seed", "1", "--format", "json"]
    values = []
    for mode in (["grid", "--grid", "64"], ["grid", "--grid", "1048576"], ["exact"]):
        assert main(flags + ["--angle-mode", *mode]) == 0
        values.append(json.loads(capsys.readouterr().out)["delta_ang"])
    coarse, fine, exact = values
    assert coarse <= fine <= exact
    assert coarse < fine


def test_experiment_flags_and_report(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main([
        "experiment", "--n", "2", "--d", "2,3", "--trials", "4", "--seed", "9",
        "--angle-mode", "grid", "--grid", "16", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "trials_n2_d2.jsonl").exists()
    capsys.readouterr()
    rc = main(["report", str(out), "--format", "csv", "--histograms"])
    assert rc == 0
    listed = capsys.readouterr().out.strip().splitlines()
    assert any(p.endswith("summary.csv") for p in listed)


def test_experiment_config_file(tmp_path):
    cfg = {
        "n": 1,
        "degrees": [10],
        "trials_per_degree": 3,
        "master_seed": 2,
        "epsilons": [0.1],
        "angle_mode": "exact",
        "out_dir": str(tmp_path / "r"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["experiment", "--config", str(path)])
    assert rc == 0
    assert (tmp_path / "r" / "summary.json").exists()


def test_enumerate_d1_command(tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(["enumerate-d1", "--out", str(out)])
    assert rc == 0
    assert "exceptional fraction: 1.0000" in capsys.readouterr().out
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 65


def test_config_error_exit_code(capsys):
    rc = main(["experiment", "--n", "2", "--d", "3,2", "--trials", "1"])
    assert rc == 2
    rc = main(["experiment"])
    assert rc == 2
    # --parallelism 0 is refused, not run as 1
    rc = main(["experiment", "--n", "2", "--d", "2", "--trials", "1", "--parallelism", "0"])
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "1", "--d", "3", "--seed", str(2**64)],
        ["sample", "--n", "1", "--d", "3", "--seed", "-1"],
        ["sample", "--n", "1", "--d", "3", "--trial", str(2**64)],
        ["experiment", "--config", "{config}"],
    ],
    ids=["seed-2**64", "seed-minus-1", "trial-2**64", "master-seed-minus-5"],
)
def test_seed_and_trial_outside_64_bits_exit_2(tmp_path, capsys, argv):
    config = tmp_path / "neg_seed.json"
    config.write_text(
        json.dumps(
            {"n": 1, "degrees": [3], "trials_per_degree": 1, "master_seed": -5,
             "out_dir": str(tmp_path / "run")}
        )
    )
    rc = main([a.replace("{config}", str(config)) for a in argv])
    out, err = capsys.readouterr()
    assert rc == 2
    assert "config error:" in err and "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "over, named",
    [({"epsilons": []}, "epsilons"), ({"out_dir": 5}, "out_dir"),
     ({"out_dir": ""}, "out_dir"), ({"angle-mode": "grid"}, "unknown keys: angle-mode")],
    ids=["no-epsilons", "out-dir-not-a-string", "out-dir-empty", "unknown-key"],
)
def test_experiment_refuses_config_it_would_crash_on_or_ignore(tmp_path, monkeypatch,
                                                               capsys, over, named):
    # refused before any file is written: not a TypeError in the run, and
    # not a run that goes on in exact mode
    cfg = {"n": 2, "degrees": [2], "trials_per_degree": 1, "out_dir": "run", **over}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    rc = main(["experiment", "--config", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("config error:") and "Traceback" not in err
    assert named in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize(
    "argv",
    [["sample"], ["sample", "--n", "2"], ["sample", "--d", "3"], ["classify"], ["solve"],
     ["analyze"], ["experiment", "--n", "2"]],
    ids=["sample", "sample-no-d", "sample-no-n", "classify", "solve", "analyze",
         "experiment"],
)
def test_no_system_input_exits_2(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["sample", "--n", "1", "--d", "3"], ["classify", "--n", "1", "--d", "3"],
     ["solve", "--n", "1", "--d", "3"], ["analyze", "--n", "1", "--d", "3"],
     ["enumerate-d1"], ["experiment", "--config", "cfg.json"],
     ["experiment", "--config", "cfg-out.json"],
     ["experiment", "--n", "1", "--d", "3", "--trials", "1"]],
    ids=["sample", "classify", "solve", "analyze", "enumerate-d1",
         "experiment-config", "experiment-config-out-dir", "experiment-flags"],
)
def test_empty_out_path_exits_2(tmp_path, monkeypatch, capsys, argv):
    # refused before anything runs: not printed to stdout, not skipped,
    # and not a run that writes nothing or writes to the config's out_dir
    cfg = {"n": 1, "degrees": [3], "trials_per_degree": 1}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    (tmp_path / "cfg-out.json").write_text(json.dumps({**cfg, "out_dir": "run"}))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", ""])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "argument --out: an empty path names no file" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg-out.json", "cfg.json"]


def test_experiment_rejects_non_integer_inputs(tmp_path, capsys):
    rc = main(["experiment", "--n", "2", "--d", "4,x", "--trials", "1"])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err
    path = tmp_path / "floats.json"
    path.write_text(
        json.dumps(
            {"n": 1, "degrees": [10.9], "trials_per_degree": 2.7, "master_seed": 1.5}
        )
    )
    rc = main(["experiment", "--config", str(path)])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "trials_n1_d10.jsonl").exists()


@pytest.mark.parametrize(
    "probe",
    [
        {"radial": [[False, 0.3]], "angular": [[-3.0, 3.0]]},
        {"radial": [[0.0, "0.3"]], "angular": [[-3.0, 3.0]]},
        {"radial": [[0.0, None]], "angular": [["-3.14", 3.0]]},
        {"radial": [[0.0, None]], "angular": [[-3.0, True]]},
        {"radial": [[None, 0.3]], "angular": [[-3.0, 3.0]]},
    ],
)
def test_experiment_rejects_non_numeric_box_bounds(tmp_path, capsys, probe):
    cfg = {
        "n": 1,
        "degrees": [10],
        "trials_per_degree": 1,
        "box_probes": [probe],
        "out_dir": str(tmp_path / "r"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["experiment", "--config", str(path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "r").exists()


def test_io_error_exit_code(capsys):
    rc = main(["report", "/nonexistent-dir-xyz"])
    assert rc == 4


def test_non_isolated_exit_code(tmp_path, capsys):
    # a system sharing a factor has a zero eliminant: hard failure, exit 3
    sys_obj = {
        "n": 2,
        "d": 2,
        "seed": None,
        "trial": None,
        "polys": [
            [[[0, 0], -5], [[2, 0], 1], [[0, 2], 1]],
            [[[0, 0], -5], [[2, 0], 1], [[0, 2], 1]],
        ],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(sys_obj))
    rc = main(["solve", str(path)])
    assert rc == 3


@pytest.mark.parametrize(
    "system,reason",
    [
        # Res_y = (x - 10^100)^12: scaling into double range zeroes its x^12
        (
            {"n": 2, "d": 12, "polys": [
                [[[1, 0], 1], [[0, 0], -10**100]], [[[0, 12], 1], [[0, 0], -1]]]},
            "scaling zeroes an end coefficient",
        ),
        # x^2 - 10^400: the root 10^200 is past the double range
        (
            {"n": 1, "d": 2, "polys": [[[[2], 1], [[0], -10**400]]]},
            "starting points are not finite",
        ),
        # 10^400 (x + y - 1) = x - y = 0: the scaled residual's sum |c_J|
        (
            {"n": 2, "d": 1, "polys": [
                [[[1, 0], 10**400], [[0, 1], 10**400], [[0, 0], -10**400]],
                [[[1, 0], 1], [[0, 1], -1]]]},
            "sum |c_J| of f1 or f2 is past it",
        ),
    ],
)
def test_coefficients_past_double_range_exit_3(tmp_path, capsys, system, reason):
    path = tmp_path / "far.json"
    path.write_text(json.dumps(system))
    rc = main(["solve", str(path)])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("hard failure: the coefficients are out of double range")
    assert reason in captured.err and "Traceback" not in captured.err


def test_analyze_pairs_far_out_zeros(tmp_path, capsys):
    # x = 10^30, y^12 = 1: twelve isolated zeros, one coordinate far out
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"n": 2, "d": 12, "polys": [
        [[[1, 0], 1], [[0, 0], -10**30]], [[[0, 12], 1], [[0, 0], -1]]]}))
    rc = main(["analyze", str(path), "--format", "json"])
    assert rc == 0
    diag = json.loads(capsys.readouterr().out)["cycle"]["diagnostics"]
    assert diag["count_found"] == diag["count_expected"] == 12
    assert diag["dropped"] == diag["cross_check_mismatches"] == 0


def test_failed_exactness_self_check_exits_3(monkeypatch, capsys):
    # a corrupted residue makes the eliminant miss its check node: a hard
    # failure with one line on stderr, not a traceback
    import polytorus.resultants as res

    original = res._resultants_mod

    def corrupt(*args):
        values = original(*args)
        values[0, 0] = (values[0, 0] + 1) % args[-1][0]
        return values

    monkeypatch.setattr(res, "_resultants_mod", corrupt)
    rc = main(["solve", "--n", "2", "--d", "3", "--seed", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("hard failure: eliminant disagrees")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_classify_missing_args(capsys):
    rc = main(["classify"])
    assert rc == 2


@pytest.mark.parametrize(
    "polys",
    [
        [[[[0], 1.7], [[2], -1]]],  # non-integer coefficient
        [[[[0.5], 1], [[2], -1]]],  # non-integer exponent
        [[[[0], 1], [[2], -1]], [[[0], 1], [[1], 1]]],  # two polynomials for n=1
        [[[0], 1]],  # a term that is not an (exponent, coefficient) pair
    ],
)
def test_classify_rejects_bad_system_file(tmp_path, capsys, polys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "d": 2, "polys": polys}))
    rc = main(["classify", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


BAD_SYSTEMS = {
    # three polynomials in three variables: classify handles n <= 2 only
    "n3": {"n": 3, "d": 1, "polys": [
        [[[0, 0, 0], 1], [[1, 0, 0], 1]],
        [[[0, 0, 0], 1], [[0, 1, 0], -1]],
        [[[0, 0, 0], -1], [[0, 0, 1], 1]],
    ]},
    "constant-poly": {"n": 2, "d": 1, "polys": [
        [[[0, 0], 1]], [[[0, 0], 1], [[1, 0], 1]],
    ]},
    # the Minkowski sum of the supports is a segment: no facet data
    "flat-supports": {"n": 2, "d": 2, "polys": [
        [[[1, 0], 1]], [[[1, 0], 1], [[2, 0], 1]],
    ]},
    "degree-0": {"n": 1, "d": 0, "polys": [[[[0], 3]]]},
    "d-too-large": {"n": 1, "d": 7, "polys": [[[[0], 1], [[2], -1]]]},
    "n0": {"n": 0, "d": 1, "polys": []},
}


@pytest.mark.parametrize("command", ["classify", "analyze"])
@pytest.mark.parametrize("system", list(BAD_SYSTEMS.values()), ids=list(BAD_SYSTEMS))
def test_bad_system_file_exits_2(tmp_path, capsys, command, system):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(system))
    rc = main([command, str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_solve_n3_exits_2(tmp_path, capsys):
    path = tmp_path / "n3.json"
    path.write_text(json.dumps(BAD_SYSTEMS["n3"]))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: solving is implemented for n in {1, 2}\n"


def test_violation_dump_goes_to_run_dir(tmp_path, monkeypatch, capsys):
    import polytorus.cli as cli
    from polytorus.experiment import BoundViolationError

    def violate(cfg):
        raise BoundViolationError("delta_ang exceeds bound", {"trial": 3}, {"n": 2})

    monkeypatch.setattr(cli, "run_experiment", violate)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    run = tmp_path / "run"
    rc = main(["experiment", "--n", "2", "--d", "2", "--trials", "1",
               "--angle-mode", "grid", "--out", str(run)])
    assert rc == 3
    dump = json.loads((run / "violation_dump.json").read_text())
    assert dump["record"] == {"trial": 3}
    assert not (cwd / "violation_dump.json").exists()
    assert str(run) in capsys.readouterr().err
