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


# Each workload's Lipschitz audit at seed 5, as computed before the self-map
# audit came to read the Lipschitz audit's sample: sharing it moved no bit.
LIPSCHITZ_AUDITS = {
    "sweep-qp-feedback": {"estimate": 0.33359352558255007, "declared": 0.3531580420953433,
                          "ok": True, "samples": 2000},
    "async-affine-chain": {"estimate": 0.5706184758856001, "declared": 0.6,
                           "ok": True, "samples": 2000},
    "async-loadflow-3area": {"estimate": 0.6534492333673317, "declared": 0.6828156813476308,
                             "ok": True, "samples": 2000},
}


@pytest.mark.parametrize("name", NAMES)
def test_workload_lipschitz_audit_keeps_its_bits(workloads, name):
    config = experiments.ExperimentConfig.from_dict(workloads.WORKLOADS[name].doc(5))
    family, graph = experiments.build_phase(config)
    audits = experiments.audit_phase(config, family, graph)
    assert audits["lipschitz"] == LIPSCHITZ_AUDITS[name]
    assert audits["self_map"] == {"ok": True, "samples": 4000}


def _report_bytes(report, prefix):
    experiments.write_report_files(report, str(prefix))
    return Path(f"{prefix}.csv").read_bytes(), Path(f"{prefix}.json").read_bytes()


@pytest.mark.parametrize("instance_seed,draws", [(1, [1]), (None, [5, 1005, 2005])])
def test_a_benchmark_sweep_draws_each_qp_instance_once(workloads, monkeypatch, tmp_path,
                                                      instance_seed, draws):
    seeds = []
    real = experiments.random_qp

    def counting(n_devices, seed):
        seeds.append(seed)
        return real(n_devices, seed)

    monkeypatch.setattr(experiments, "random_qp", counting)
    doc = workloads._qp_doc(5)
    doc["problem"]["instance_seed"] = instance_seed
    config = experiments.ExperimentConfig.from_dict(doc)
    values, n_seeds = workloads.SWEEP_VALUES, workloads.SWEEP_SEEDS
    result = experiments.sweep(config, workloads.SWEEP_PARAMETER, values, n_seeds=n_seeds)
    assert seeds == draws
    experiments.sweep(config, workloads.SWEEP_PARAMETER, values, n_seeds=n_seeds)
    assert seeds == draws * 2  # the next sweep draws its own
    for value, reports in zip(values, result.reports):
        for k, report in enumerate(reports):
            alone = experiments.run_experiment(experiments._config_with(
                config, workloads.SWEEP_PARAMETER, value, seed=5 + 1000 * k), write_files=False)
            assert (_report_bytes(report, tmp_path / "sweep")
                    == _report_bytes(alone, tmp_path / "alone"))
    assert len(seeds) == 2 * len(draws) + len(values) * n_seeds  # each run alone draws its own
