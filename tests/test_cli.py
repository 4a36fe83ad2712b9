import json
import math

import pytest

from polytorus.cli import main


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


def test_analyze_text_and_json(capsys):
    rc = main(["analyze", "--n", "1", "--d", "30", "--seed", "2", "--eps", "0.1,0.2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "delta_ang" in text
    rc = main(["analyze", "--n", "1", "--d", "30", "--seed", "2", "--format", "json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert "eta" in obj and "delta_rad" in obj


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
