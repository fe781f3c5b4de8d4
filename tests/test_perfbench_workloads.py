"""The benchmark's set-up and correctness gate still run on the package.

``perfbench/workloads.py`` builds each workload's families, runs one
experiment and gates its reports by the names it reaches in the package: the
gate observes a sweep's runs by patching ``experiments.run_experiment``. A
change that breaks one of those would fail only a benchmark run; this test
runs every workload once so that it fails here instead.
"""
import json
from pathlib import Path

import pytest

from fptrack import experiments

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


def test_every_declared_workload_is_defined(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_workload_sets_up_and_passes_its_gate(workloads, monkeypatch, tmp_path, name):
    w = workloads.WORKLOADS[name]
    assert workloads.setup_once(w, 5) > 0.0
    builds = []
    real = experiments.build_phase

    def counting(config):
        builds.append(config.seed)
        return real(config)

    monkeypatch.setattr(experiments, "build_phase", counting)
    outcome = workloads.run_once(w, 5, tmp_path)
    assert outcome.failures == []
    assert outcome.attempted == (12 if w.is_sweep else 1)
    assert len(builds) == outcome.attempted  # a sweep builds one family per run
    assert outcome.digest
