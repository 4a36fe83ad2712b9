import json
import os
import sys
import time
from pathlib import Path

import pytest

from polytorus import lattice
from polytorus.experiment import ExperimentConfig, run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class SuiteRun:
    def __init__(self, config, result, elapsed, out_dir):
        self.config = config
        self.result = result
        self.elapsed = elapsed
        self.out_dir = out_dir


def _run_default_suite(name, tmp_path_factory, tag):
    cfg_dict = json.load(open(CONFIG_DIR / name))
    out_dir = str(tmp_path_factory.mktemp(tag))
    cfg_dict["out_dir"] = out_dir
    cfg = ExperimentConfig.from_dict(cfg_dict)
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    return SuiteRun(cfg, result, elapsed, out_dir)


@pytest.fixture(scope="session")
def suite_n1(tmp_path_factory):
    return _run_default_suite("default_suite_n1.json", tmp_path_factory, "suite-n1")


@pytest.fixture(scope="session")
def suite_n2(tmp_path_factory):
    return _run_default_suite("default_suite_n2.json", tmp_path_factory, "suite-n2")


@pytest.fixture
def patch_package(monkeypatch):
    """patch(original, replacement) replaces `original` in every polytorus
    module that holds it, as a tracer spanning the package does."""

    def patch(original, replacement):
        for name, mod in list(sys.modules.items()):
            if name == "polytorus" or name.startswith("polytorus."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, replacement)

    return patch


@pytest.fixture
def mixed_volume_calls(patch_package):
    """A list that grows by one per `lattice.mixed_volume` call."""
    original = lattice.mixed_volume
    calls = []

    def counted(qs):
        calls.append(1)
        return original(qs)

    patch_package(original, counted)
    return calls
