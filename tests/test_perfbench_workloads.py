"""The benchmark's set-up and correctness gate still run on the package.

``perfbench/workloads.py`` builds each workload's families, runs one
experiment and gates its reports by the names it reaches in the package: the
gate observes a sweep's runs by patching ``experiments.run_experiment``. A
change that breaks one of those would fail only a benchmark run; this test
runs every workload once so that it fails here instead, and checks its
output bytes against the digest recorded for seed 5.
"""
import json
from pathlib import Path

import pytest

from fptrack import experiments

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# sha256 of each workload's first output file at seed 5: a change that moves
# output bits fails here, not only in a benchmark comparison
DIGESTS = {
    "sweep-qp-feedback": "9d4f9b326c9e036d1f653f2e227b89832eda46fccc2dbdada67b635324fc8171",
    "async-affine-chain": "9eed59c05d64e49291e8211b4ea83a0ca6f5ba5a5d4a229a0dd299f3cf6e47ec",
    "async-loadflow-3area": "3ae39d9fd058362ffe63717f5fee069916c1e07fb2826917dfe6a12034baa51d",
}


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
    assert outcome.digest == DIGESTS[name]
