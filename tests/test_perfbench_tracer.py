"""The benchmark tracer still finds every name it wraps in the package.

The tracer in ``perfbench/`` patches functions and methods by name. A name
that the package deletes or renames would fail only a traced benchmark run;
this test runs one short traced experiment so that it fails here instead.
"""
from pathlib import Path

import pytest

from fptrack import experiments
from fptrack.core import MapFamily

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def traced_run(tracer, doc):
    """One traced experiment of ``doc``: its report, dependency graph and layer metrics."""
    config = experiments.ExperimentConfig.from_dict(doc)
    _, graph, _ = experiments.build_family(config)
    run, evaluate = experiments.run_experiment, MapFamily.evaluate
    with tracer.Tracer() as t:
        assert experiments.run_experiment is not run
        assert MapFamily.evaluate is not evaluate
        report = experiments.run_experiment(config, write_files=False)
    assert experiments.run_experiment is run
    assert MapFamily.evaluate is evaluate
    return report, graph, tracer.layer_metrics(t.spans, t.counts)


def test_traced_async_affine_chain_counts_ticks_and_log_rows(tracer):
    doc = {
        "problem": {"kind": "affine", "dim": 4, "contraction": 0.6, "coupling": "chain",
                    "drift": {"kind": "linear", "rate": 0.01}},
        "mode": "async", "norm": "linf", "horizon": 30, "seed": 5,
        "channel": {"kind": "iid_drop", "p": 0.2},
    }
    report, graph, metrics = traced_run(tracer, doc)
    assert report.certificates[experiments.ASYNC_TAIL_MAX_NORM] == "pass"
    # a tap run's ticks run inside run_async_tracker, not as step_async calls,
    # so the tracer's tick count reads 0 here; the log still holds 29 ticks
    assert metrics["async_sim.ticks"] == 0
    assert metrics["async_sim.log_rows"] == 29 * len(graph.edges)
    assert metrics["experiments.runs"] == 1


def test_traced_async_three_area_loadflow_counts_ticks_and_log_rows(tracer):
    # areas of several buses: multi-column blocks through the simulator and its stats
    doc = {
        "problem": {"kind": "loadflow", "network": "three-area", "noise_bound": 1e-4,
                    "injections": {"kind": "random_walk", "step": 0.01}},
        "mode": "async", "norm": "linf", "horizon": 40, "seed": 5,
        "channel": {"kind": "iid_drop", "p": 0.3},
    }
    report, graph, metrics = traced_run(tracer, doc)
    assert min(graph.block_sizes) > 1
    assert report.realized_max_stale > 0
    assert metrics["async_sim.ticks"] == 39
    assert metrics["async_sim.log_rows"] == 39 * len(graph.edges)
    assert metrics["problems.evaluate_calls"] >= 39  # every rows tick is an evaluate call
    assert metrics["experiments.runs"] == 1
