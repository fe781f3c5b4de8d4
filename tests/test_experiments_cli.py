"""Experiment runner and CLI: configs, reports, CSV determinism, exit codes."""
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fptrack
from fptrack import experiments, schema
from fptrack.core import SeriesTable
from fptrack.problems import qp as qp_module
from fptrack.cli import EXIT_AUDIT, EXIT_CERTIFICATE, EXIT_CONFIG, EXIT_OK, main
from fptrack.errors import ConfigError
from fptrack.experiments import (
    ASYNC_TAIL_L2_REFINED,
    ASYNC_TAIL_MAX_NORM,
    ExperimentConfig,
    PER_STEP,
    SYNC_TAIL,
    run_experiment,
    sweep,
    trace_csv_text,
    verify_bounds,
)


def affine_doc(**over):
    doc = {
        "problem": {"kind": "affine", "dim": 4, "contraction": 0.6,
                    "drift": {"kind": "linear", "rate": 0.05,
                              "start": [1.0, -0.5, 0.25, 0.0]}},
        "mode": "sync",
        "norm": "l2",
        "horizon": 800,
        "seed": 3,
    }
    doc.update(over)
    return doc


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict(affine_doc(extra=1))


def test_unknown_problem_key_rejected():
    doc = affine_doc()
    doc["problem"]["bogus"] = True
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict(doc)


def test_bad_mode_norm_horizon_seed_rejected():
    for patch in ({"mode": "turbo"}, {"norm": "l7"}, {"horizon": 0}, {"seed": -1},
                  {"transient_fraction": 1.0}, {"horizon": True}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(affine_doc(**patch))


def test_unknown_channel_kind_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(affine_doc(channel={"kind": "pigeon"}))


def test_norm_mismatch_with_declaration_rejected():
    # decomposed loadflow families declare their contraction in the max norm
    doc = {
        "problem": {"kind": "loadflow", "multiarea": True},
        "mode": "async", "norm": "l2",
        "channel": {"kind": "iid_drop", "p": 0.1},
        "horizon": 50, "seed": 1,
    }
    with pytest.raises(ConfigError, match="linf"):
        run_experiment(ExperimentConfig.from_dict(doc), write_files=False)


# ---------------------------------------------------------------------------
# reports and certificates
# ---------------------------------------------------------------------------


def test_sync_report_passes_and_is_recomputable():
    rep = run_experiment(ExperimentConfig.from_dict(affine_doc()), write_files=False)
    assert rep.certificates[SYNC_TAIL] == "pass"
    assert rep.certificates[PER_STEP] == "pass"
    assert verify_bounds(rep) == rep.certificates
    assert rep.audits_passed


def test_async_linf_report_has_max_norm_certificate():
    doc = affine_doc(mode="async", norm="linf",
                     channel={"kind": "periodic", "period": 3}, horizon=2000)
    rep = run_experiment(ExperimentConfig.from_dict(doc), write_files=False)
    assert rep.certificates[ASYNC_TAIL_MAX_NORM] == "pass"
    assert rep.certificates[SYNC_TAIL] == "not_applicable"
    assert rep.realized_max_delay == 2
    assert rep.running_max_delay[-1] == 2
    assert np.all(np.diff(rep.running_max_delay) >= 0)


def test_refined_bound_applicability_flips_with_contraction():
    base = affine_doc(mode="async", norm="l2",
                      channel={"kind": "fixed_delay", "delay": 2}, horizon=600)
    base["problem"]["coupling"] = "chain"
    base["problem"]["blockwise"] = True

    weak = json.loads(json.dumps(base))
    weak["problem"]["contraction"] = 0.4
    rep = run_experiment(ExperimentConfig.from_dict(weak), write_files=False)
    assert ASYNC_TAIL_L2_REFINED in rep.asymptotic_bounds
    assert rep.certificates[ASYNC_TAIL_L2_REFINED] == "pass"

    strong = json.loads(json.dumps(base))
    strong["problem"]["contraction"] = 0.75  # 0.75 * sqrt(3) >= 1 for dense stale rows
    rep2 = run_experiment(ExperimentConfig.from_dict(strong), write_files=False)
    assert rep2.certificates[ASYNC_TAIL_L2_REFINED] == "not_applicable"


@pytest.mark.parametrize("mode, norm", [("sync", "l2"), ("async", "linf")])
def test_large_states_certify_within_their_rounding(mode, norm):
    # a constant fixed point of norm about 4e9: every bound is 0 and the errors
    # are rounding (an ulp of 3e9 is 4.8e-7), far above an absolute 1e-9
    doc = {"problem": {"kind": "affine", "dim": 4, "contraction": 0.5, "coupling": "chain",
                       "drift": {"kind": "constant", "start": [1e9, -2e9, 3e9, 5e8]}},
           "mode": mode, "norm": norm, "horizon": 200, "seed": 1}
    rep = run_experiment(ExperimentConfig.from_dict(doc), write_files=False)
    assert set(rep.asymptotic_bounds.values()) == {0.0} and rep.tail_max > 1e-8
    assert rep.passed and rep.audits_passed, rep.certificates
    assert 1e-9 < rep.bound_slack < 1e-4
    assert verify_bounds(rep) == rep.certificates
    # verify_bounds reads the stored slack: an absolute 1e-9 fails these errors
    assert "fail" in verify_bounds(dataclasses.replace(rep, bound_slack=1e-9)).values()


def test_map_error_audit_of_large_states_passes_the_declared_noise(tmp_path):
    # outputs of norm about 1.4e9: the observed deviation of the adversarial
    # noise, 0.00282856, lies 1.3e-7 above its declared 0.00282843
    doc = {"problem": {"kind": "qp-gradient", "curvature": [1, 2], "box_lo": [-1e9, -1e9],
                       "box_hi": [1e9, 1e9], "step_size": 0.2, "noise_bound": 0.01,
                       "adversarial_noise": True,
                       "reference_signal": {"kind": "constant", "start": 1e9}},
           "mode": "sync", "norm": "l2", "horizon": 200, "seed": 1}
    assert main(["run", write_json(tmp_path / "c.json", doc)]) == EXIT_OK
    rep = run_experiment(ExperimentConfig.from_dict(doc), write_files=False)
    audit = rep.audits["map_error"]
    assert audit["ok"] and audit["observed"] > audit["bound"] + 1e-9


def test_transient_included_makes_certificate_fail_loudly():
    # a tail window covering the transient is an honest certificate failure
    doc = affine_doc(transient_fraction=0.0, horizon=40)
    rep = run_experiment(ExperimentConfig.from_dict(doc), write_files=False)
    assert rep.certificates[SYNC_TAIL] == "fail"
    assert not rep.passed
    assert rep.audits_passed


def test_declared_override_fails_audit():
    doc = affine_doc(declared_lipschitz_override=0.2)
    rep = run_experiment(ExperimentConfig.from_dict(doc), write_files=False)
    assert not rep.audits["lipschitz"]["ok"]
    assert not rep.audits_passed


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_dependency_graph_audit_runs_on_async_configs_only(mode):
    # the affine family has a graph in either mode; a sync run reads no blocks
    doc = affine_doc(mode=mode, norm="linf", horizon=60, audit_samples=20,
                     **({"channel": {"kind": "iid_drop", "p": 0.1}} if mode == "async" else {}))
    rep = run_experiment(ExperimentConfig.from_dict(doc), write_files=False)
    assert ("dependency_graph" in rep.audits) == (mode == "async")
    assert rep.audits_passed


@pytest.mark.parametrize("doc", [
    affine_doc(),
    {"problem": {"kind": "qp-gradient", "devices": 3, "instance_seed": 2,
                 "step_size": 0.3, "noise_bound": 0.01},
     "mode": "sync", "norm": "l2", "horizon": 60, "seed": 2},
    {"problem": {"kind": "loadflow", "multiarea": True, "noise_bound": 1e-4},
     "mode": "async", "norm": "linf", "channel": {"kind": "iid_drop", "p": 0.1},
     "horizon": 60, "seed": 1},
], ids=["affine", "qp-feedback-sync", "multiarea-async"])
def test_declared_override_reaches_bound_inputs_and_audit(doc):
    doc = dict(doc, declared_lipschitz_override=0.93, audit_samples=20)
    rep = run_experiment(ExperimentConfig.from_dict(doc), write_files=False)
    assert rep.bound_inputs["lipschitz"] == 0.93
    assert rep.audits["lipschitz"]["declared"] == 0.93
    noisy = doc["problem"].get("noise_bound", 0.0) > 0.0
    assert (rep.bound_inputs["map_error"] > 0.0) == noisy


def test_csv_trace_shape_and_determinism(tmp_path):
    doc = affine_doc(mode="async", norm="linf",
                     channel={"kind": "iid_drop", "p": 0.2}, horizon=300)
    rep1 = run_experiment(ExperimentConfig.from_dict(doc), write_files=False)
    rep2 = run_experiment(ExperimentConfig.from_dict(doc), write_files=False)
    text1, text2 = trace_csv_text(rep1), trace_csv_text(rep2)
    assert text1 == text2
    lines = text1.splitlines()
    assert lines[0] == ("t,error,per_iterate_bound,asymptotic_bound,"
                        "realized_Td_so_far,realized_Nd_so_far")
    assert len(lines) == 301
    assert lines[1].split(",")[0] == "1"


def row_by_row_csv_text(report):
    """The trace CSV with one f-string per row, as it was formatted before."""
    def f17(x):
        return "nan" if isinstance(x, float) and math.isnan(x) else format(float(x), ".17g")

    applicable = list(report.asymptotic_bounds.values())
    asymptotic = f17(min(applicable) if applicable else float("nan"))
    rows = zip(report.errors, report.per_step_bounds,
               report.running_max_delay.tolist(), report.running_max_stale.tolist())
    lines = [experiments.CSV_HEADER] + [
        f"{t},{f17(error)},{f17(bound)},{asymptotic},{delay},{stale}"
        for t, (error, bound, delay, stale) in enumerate(rows, start=1)
    ]
    return "\n".join(lines) + "\n"


def test_csv_trace_equals_the_row_by_row_text_on_every_kind_of_value():
    doc = affine_doc(mode="async", norm="linf", channel={"kind": "iid_drop", "p": 0.2},
                     horizon=40)
    report = run_experiment(ExperimentConfig.from_dict(doc), write_files=False)
    assert trace_csv_text(report) == row_by_row_csv_text(report)
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.5e-310,
                        1e16, 1e17 + 16, 0.1, 1.0 / 3.0, -2.0, 7.0])
    rng = np.random.default_rng(3)
    for asymptotic in ({}, {"a": 0.125}, {"a": np.inf, "b": 5e-324}):
        varied = dataclasses.replace(
            report, asymptotic_bounds=asymptotic,
            errors=rng.choice(special, 40), per_step_bounds=rng.choice(special, 40),
            running_max_delay=rng.integers(0, 10**12, 40),
            running_max_stale=rng.integers(0, 3, 40))
        assert np.signbit(varied.errors[np.isnan(varied.errors)]).any()
        assert trace_csv_text(varied) == row_by_row_csv_text(varied)
    assert trace_csv_text(dataclasses.replace(report, errors=report.errors[:1])) == (
        row_by_row_csv_text(dataclasses.replace(report, errors=report.errors[:1])))


def test_report_files_written_atomically(tmp_path):
    out = tmp_path / "exp" / "run"
    doc = affine_doc(output=str(out), horizon=50)
    run_experiment(ExperimentConfig.from_dict(doc))
    assert (tmp_path / "exp" / "run.csv").exists()
    report = json.loads((tmp_path / "exp" / "run.json").read_text())
    assert report["certificates"][SYNC_TAIL] == "pass"
    assert set(report["bound_inputs"]) == {
        "lipschitz", "map_error", "drift", "max_delay", "max_stale", "dim", "norm"
    }


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_fixed_delay_bound_column_increases():
    doc = affine_doc(mode="async", norm="linf", horizon=600,
                     channel={"kind": "fixed_delay", "delay": 0})
    cfg = ExperimentConfig.from_dict(doc)
    result = sweep(cfg, "fixed_delay", [0, 1, 2, 3])
    bounds_col = result.bounds
    assert all(b is not None for b in bounds_col)
    assert all(bounds_col[k + 1] > bounds_col[k] for k in range(3))


def test_sweep_rejects_unknown_parameter():
    cfg = ExperimentConfig.from_dict(affine_doc())
    with pytest.raises(ConfigError):
        sweep(cfg, "voltage", [1, 2])


def test_sweep_rejects_zero_seeds():
    cfg = ExperimentConfig.from_dict(affine_doc())
    with pytest.raises(ConfigError, match="seed"):
        sweep(cfg, "drift_rate", [0.01], n_seeds=0)


def test_sweep_seed_count_is_an_integer_not_truncated():
    cfg = ExperimentConfig.from_dict(affine_doc())
    with pytest.raises(ConfigError, match="n_seeds 1.5 is not an integer"):
        sweep(cfg, "drift_rate", [0.01], n_seeds=1.5)


def test_sweep_seeds_vary_only_run_randomness():
    doc = affine_doc(mode="async", norm="linf", horizon=300,
                     channel={"kind": "iid_drop", "p": 0.3})
    cfg = ExperimentConfig.from_dict(doc)
    result = sweep(cfg, "drop_probability", [0.3], n_seeds=4)
    tails = result.tail_errors_by_seed[0]
    assert len(set(tails)) > 1  # different seeds, different drop patterns


SWEEP_DOCS = {
    "qp-feedback-sync": {
        "problem": {"kind": "qp-gradient", "devices": 5, "instance_seed": 2, "step_size": 0.3,
                    "noise_bound": 0.01, "topology": "none",
                    "reference_signal": {"kind": "random_walk", "rate": 0.01}},
        "mode": "sync", "norm": "l2", "horizon": 40, "seed": 2, "audit_samples": 50},
    "qp-star-async": {
        "problem": {"kind": "qp-gradient", "devices": 5, "instance_seed": 9, "step_size": 0.15,
                    "noise_bound": 0.01, "topology": "star"},
        "mode": "async", "norm": "l2", "channel": {"kind": "iid_drop", "p": 0.1},
        "horizon": 40, "seed": 5, "audit_samples": 50},
    "multiarea-async": {
        "problem": {"kind": "loadflow", "network": "three-area", "noise_bound": 1e-4,
                    "injections": {"kind": "random_walk", "step": 0.01}},
        "mode": "async", "norm": "linf", "channel": {"kind": "iid_drop", "p": 0.3},
        "horizon": 40, "seed": 11, "audit_samples": 50},
    "affine-async": affine_doc(mode="async", norm="linf", horizon=60, audit_samples=50,
                               channel={"kind": "iid_drop", "p": 0.2}),
    "affine-sync": affine_doc(horizon=60, audit_samples=50),
    "qp-own-instance-sync": {  # no instance_seed: each seed draws its own instance
        "problem": {"kind": "qp-gradient", "devices": 5, "step_size": 0.3, "noise_bound": 0.01,
                    "topology": "none",
                    "reference_signal": {"kind": "random_walk", "rate": 0.01}},
        "mode": "sync", "norm": "l2", "horizon": 40, "seed": 4, "audit_samples": 50},
    "qp-inline-sync": {  # every run reads the one inline instance, with its seed's signals
        "problem": {"kind": "qp-gradient", "curvature": [1.0, 2.0, 1.5], "step_size": 0.3,
                    "noise_bound": 0.01, "topology": "none",
                    "reference_signal": {"kind": "random_walk", "rate": 0.01, "seed": None}},
        "mode": "sync", "norm": "l2", "horizon": 40, "seed": 6, "audit_samples": 50},
}
SWEEP_VALUES = {"drop_probability": [0.0, 0.3], "fixed_delay": [0, 2], "step_size": [0.1, 0.15],
                "noise_bound": [1e-4, 0.0], "drift_rate": [0.01, 0.02]}


def _report_bytes(report, prefix):
    experiments.write_report_files(report, str(prefix))
    return Path(f"{prefix}.csv").read_bytes(), Path(f"{prefix}.json").read_bytes()


@pytest.mark.parametrize("parameter", experiments.SWEEP_PARAMETERS)
@pytest.mark.parametrize("name", SWEEP_DOCS)
def test_sweep_reports_equal_their_runs_alone(tmp_path, name, parameter):
    cfg = ExperimentConfig.from_dict(SWEEP_DOCS[name])
    values = SWEEP_VALUES[parameter]
    try:
        alone = [[experiments._config_with(cfg, parameter, v, seed=cfg.seed + 1000 * k)
                  for k in range(2)] for v in values]
    except ConfigError:  # the parameter does not apply to this problem
        with pytest.raises(ConfigError):
            sweep(cfg, parameter, values, n_seeds=2)
        return
    result = sweep(cfg, parameter, values, n_seeds=2)
    for seed_reports, seed_configs in zip(result.reports, alone):
        for report, run_cfg in zip(seed_reports, seed_configs):
            alone_report = run_experiment(run_cfg, write_files=False)
            assert (_report_bytes(report, tmp_path / "sweep")
                    == _report_bytes(alone_report, tmp_path / "alone"))


@pytest.mark.parametrize("name,values,calls,references", [
    # noise changes only the inexact map; the seeds' bases stack into one solve
    ("qp-feedback-sync", [0.0, 0.01, 0.02, 0.05], 1, 3),
    ("qp-own-instance-sync", [0.0, 0.01, 0.02, 0.05], 1, 3),  # one call, each seed alone
    ("multiarea-async", [0.0, 1e-5, 5e-5, 1e-4], 12, 12),  # noise moves the base's box and factor
])
def test_noise_sweep_computes_each_reference_the_value_leaves_unchanged_once(
        monkeypatch, name, values, calls, references):
    series = []
    real = experiments.compute_fixed_point_series

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        series.append(len(out) if isinstance(out, list) else 1)
        return out

    monkeypatch.setattr(experiments, "compute_fixed_point_series", counting)
    result = sweep(ExperimentConfig.from_dict(SWEEP_DOCS[name]), "noise_bound", values, n_seeds=3)
    assert (len(series), sum(series)) == (calls, references)
    assert sum(map(len, result.reports)) == 12


@pytest.mark.parametrize("name,parameter,values", [
    ("qp-feedback-sync", "noise_bound", [0.0, 0.01, 0.02, 0.05]),  # noise is in the build key
    ("affine-async", "fixed_delay", [0, 1, 2]),                      # the channel is not
])
def test_sweep_builds_one_family_per_run(monkeypatch, name, parameter, values):
    # one build per distinct build key, by the first run that has it
    builds = 1 if parameter == "fixed_delay" else len(values)
    seeds = []
    real = experiments.build_phase

    def counting(config):
        seeds.append(config.seed)
        return real(config)

    monkeypatch.setattr(experiments, "build_phase", counting)
    cfg = ExperimentConfig.from_dict(SWEEP_DOCS[name])
    result = sweep(cfg, parameter, values, n_seeds=3)
    assert sum(map(len, result.reports)) == len(values) * 3
    assert seeds == [cfg.seed + 1000 * k for k in range(3)] * builds


# Fields outside each phase's memo key, each with a value the SWEEP_DOCS do not
# hold; a qp-gradient base also leaves out the fields only its inexact layer reads.
OUTSIDE_KEY = {
    "build": [("horizon", 57), ("audit_samples", 30), ("transient_fraction", 0.5),
              ("channel", {"kind": "fixed_delay", "delay": 3})],
    "audits": [("horizon", 57), ("transient_fraction", 0.5)],
    "iterates": [("audit_samples", 30), ("transient_fraction", 0.5)],
    "reference": [("audit_samples", 30), ("transient_fraction", 0.5)],
    "sample": [("horizon", 57), ("transient_fraction", 0.5)],
}
QP_INEXACT = [("noise_bound", 0.0), ("noise_bound", 0.05), ("adversarial_noise", True)]
PROBLEM_FIELDS = ("noise_bound", "adversarial_noise", "step_size")


def _with_field(doc, name, value):
    doc = json.loads(json.dumps(doc))
    (doc["problem"] if name in PROBLEM_FIELDS else doc)[name] = value
    return ExperimentConfig.from_dict(doc)


def _phase_bits(cfg, phase):
    """The output of ``phase`` run alone on ``cfg``, as comparable bytes and values."""
    family, graph = experiments.build_phase(cfg)
    if phase == "build":
        x, ts = fptrack.DomainSampler(family.domain, 0).draw(3), np.arange(1, 31)
        maps = [f.evaluate(x, t) for f in (family, family.base) for t in (1, 7, 30)]
        values = [family.lipschitz_at(ts), family.base.lipschitz_at(ts),
                  [family.lipschitz_sup, family.error_sup], family.domain.anchor()]
        edges = None if graph is None else graph.edges
        return [np.asarray(v).tobytes() for v in maps + values], edges
    if phase == "reference":
        ref = experiments.reference_phase(cfg, family)
        return ref.points.tobytes(), ref.residuals.tobytes(), ref.drifts.tobytes()
    if phase == "iterates":
        return experiments._run_phase(cfg, family, graph, None)[0].iterates.tobytes()
    names = ("lipschitz", "self_map") if phase == "sample" else ("map_error", "dependency_graph")
    return json.dumps(experiments.audit_phase(cfg, family, graph, names=names), sort_keys=True)


@pytest.mark.parametrize("name", SWEEP_DOCS)
def test_each_phase_key_holds_every_field_its_phase_reads(name):
    # a field outside a phase's key leaves the phase's output bit for bit, so runs
    # that share it by key read what they would compute; a field inside changes the key
    doc = SWEEP_DOCS[name]
    cfg = ExperimentConfig.from_dict(doc)
    qp = cfg.problem["kind"] == "qp-gradient"
    for phase, changes in OUTSIDE_KEY.items():
        if phase == "iterates" and cfg.mode != "sync":
            continue
        changes = changes + (QP_INEXACT if qp and phase in ("reference", "sample") else [])
        for field_name, value in changes:
            changed = _with_field(doc, field_name, value)
            assert changed.keys[phase] == cfg.keys[phase], (phase, field_name)
            assert _phase_bits(changed, phase) == _phase_bits(cfg, phase), (phase, field_name)
    inside = [("seed", 8), ("norm", "linf" if cfg.norm.is_l2 else "l2")]
    for field_name, value in inside + ([("step_size", 0.2)] if qp else []):
        changed = _with_field(doc, field_name, value)
        for phase in OUTSIDE_KEY:
            assert changed.keys[phase] != cfg.keys[phase], (phase, field_name)


@pytest.mark.parametrize("name,parameter,value", [("affine-async", "fixed_delay", 1),
                                                  ("qp-feedback-sync", "noise_bound", 0.01)])
def test_a_sweep_of_repeated_values_computes_each_phase_once_per_seed(monkeypatch, tmp_path,
                                                                     name, parameter, value):
    cfg = ExperimentConfig.from_dict(SWEEP_DOCS[name])
    calls = {}

    def count(owner, attr, rows=lambda *args: 1):
        real = getattr(owner, attr)

        def counting(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + rows(*args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)

    for attr in ("build_phase", "estimate_lipschitz", "verify_map_error",
                 "audit_dependency_graph"):
        count(experiments, attr)
    count(experiments, "compute_fixed_point_series",
          lambda family, *args: len(family) if isinstance(family, list) else 1)
    count(experiments, "run_lockstep_tracker", lambda families, *args: len(families))
    count(ExperimentConfig, "build_channel")
    result = sweep(cfg, parameter, [value, value], n_seeds=2)
    sync = cfg.mode == "sync"
    assert calls == {"build_phase": 2, "compute_fixed_point_series": 2, "estimate_lipschitz": 2,
                     **({"verify_map_error": 2, "run_lockstep_tracker": 2} if sync else
                        {"audit_dependency_graph": 2, "build_channel": 1})}
    monkeypatch.undo()
    for k in range(2):
        alone = run_experiment(experiments._config_with(cfg, parameter, value,
                                                        seed=cfg.seed + 1000 * k),
                               write_files=False)
        for reports in result.reports:
            assert (_report_bytes(reports[k], tmp_path / "sweep")
                    == _report_bytes(alone, tmp_path / "alone"))


@pytest.mark.parametrize("name,stacked", [("qp-feedback-sync", True),
                                           ("qp-own-instance-sync", False)])
def test_a_sync_qp_sweep_steps_its_runs_of_one_instance_in_one_call_per_time(monkeypatch,
                                                                            name, stacked):
    stacked_calls, reference_rows, evaluated, tracking = [], [], [], []
    real_step, real_evaluate = qp_module._StackedSteps.__call__, fptrack.MapFamily.evaluate
    real_lockstep = experiments.run_lockstep_tracker

    def counting_step(self, x, t, *runs):  # runs: a stacked reference solve's call
        if runs:
            reference_rows.append(len(x))
        else:
            stacked_calls.append((t, len(x)))
        return real_step(self, x, t, *runs)

    def counting_evaluate(self, x, t):
        if tracking:
            evaluated.append(t)
        return real_evaluate(self, x, t)

    def lockstep(*args):
        tracking.append(True)
        try:
            return real_lockstep(*args)
        finally:
            tracking.clear()

    monkeypatch.setattr(qp_module._StackedSteps, "__call__", counting_step)
    monkeypatch.setattr(fptrack.MapFamily, "evaluate", counting_evaluate)
    monkeypatch.setattr(experiments, "run_lockstep_tracker", lockstep)
    cfg = ExperimentConfig.from_dict(SWEEP_DOCS[name])
    result = sweep(cfg, "noise_bound", [0.0, 0.01, 0.02], n_seeds=2)
    assert sum(map(len, result.reports)) == 6
    steps = [(t, 6) for t in range(1, cfg.horizon)]
    assert (stacked_calls, len(evaluated)) == ((steps, 0) if stacked else ([], 6 * len(steps)))
    # the two seeds' shared references: one solve of both runs' rows, or one solve each
    assert reference_rows[:1] == ([2 * cfg.horizon] if stacked else [])


def escaping_builds(runs):
    """A ``build_phase`` whose run of drift rate v, given ``runs[v] = (at, point)``,
    leaves [-1, 1] at time ``at`` (never when None) and declares the fixed point
    ``point``; a run ``runs[v] = "fails"`` does not build."""
    def build(config):
        if runs[config.raw["problem"]["drift"]["rate"]] == "fails":
            raise ConfigError("this run's family does not build")
        at, point = runs[config.raw["problem"]["drift"]["rate"]]
        base = fptrack.MapFamily(1, fptrack.Domain.box([-1.0], [1.0]), lambda x, t: 0.5 * x, 0.5,
                                 fixed_point=lambda ts: np.array([point]))
        evaluate = fptrack.pointwise(lambda x, t: 0.5 * x + (3.0 if t == at else 0.0))
        return fptrack.InexactMapFamily(base, evaluate, 0.1), None

    return build


def first_error_of_the_runs_alone(cfg, values, n_seeds, parameter="drift_rate"):
    for v in values:
        for k in range(n_seeds):
            try:
                seed = cfg.seed + 1000 * k
                run_experiment(experiments._config_with(cfg, parameter, v, seed=seed),
                               write_files=False)
            except Exception as exc:
                return exc
    raise AssertionError("no run failed")


@pytest.mark.parametrize("values,runs,message", [
    ([0.01, 0.02, 0.03], {0.01: (None, 0.0), 0.02: (9, 0.0), 0.03: (3, 0.0)},
     "online iterate left the domain at time index 9"),  # a later run leaves earlier
    ([0.01, 0.02], {0.01: (None, 0.0), 0.02: (3, 2.0)},  # its reference fails first
     "fixed point at time index 1 lies outside the declared domain"),
    ([0.01, 0.02], {0.01: (9, 0.0), 0.02: "fails"},      # a later run does not build
     "online iterate left the domain at time index 9"),
    ([0.01, "fast"], {0.01: (9, 0.0)},                   # a later value is no number
     "online iterate left the domain at time index 9"),
], ids=["leaves-earlier", "reference-fails", "build-fails", "config-fails"])
def test_a_sync_sweep_raises_the_error_of_its_first_failing_run(monkeypatch, values, runs,
                                                                message):
    monkeypatch.setattr(experiments, "build_phase", escaping_builds(runs))
    cfg = ExperimentConfig.from_dict(affine_doc(horizon=20, audit_samples=20))
    expected = first_error_of_the_runs_alone(cfg, values, 2)
    with pytest.raises(type(expected)) as exc:
        sweep(cfg, "drift_rate", values, n_seeds=2)
    assert type(exc.value) is type(expected) and str(exc.value) == str(expected) == message


def test_a_stacked_qp_sweep_raises_the_error_of_its_first_failing_run(monkeypatch):
    # two runs measure a NaN output, one from t = 7 on and a later one from t = 5 on;
    # their bases keep the instance's signals, so each seed's shared reference holds
    real_build, real_step = experiments.build_phase, qp_module._StackedSteps.__call__
    cfg = ExperimentConfig.from_dict(SWEEP_DOCS["qp-feedback-sync"])
    nan_from = {(0.01, cfg.seed + 1000): 7, (0.02, cfg.seed): 5}
    stacked_calls = []

    def build(config):
        family, graph = real_build(config)
        start = nan_from.get((config.raw["problem"]["noise_bound"], config.seed))
        if start is None:
            return family, graph
        output = SeriesTable(lambda ts, last: np.where(ts >= start, np.nan, 0.0))
        step = dataclasses.replace(
            family.lockstep, qp=dataclasses.replace(family.lockstep.qp, output_signal=output))
        failing = fptrack.InexactMapFamily(family.base, step, family.error_sup, family.name)
        failing.lockstep = step
        return failing, graph

    def counting_step(self, x, t, *runs):  # runs: a stacked reference solve's call
        if not runs:
            stacked_calls.append(t)
        return real_step(self, x, t, *runs)

    monkeypatch.setattr(experiments, "build_phase", build)
    monkeypatch.setattr(qp_module._StackedSteps, "__call__", counting_step)
    values = [0.0, 0.01, 0.02, 0.05]
    expected = first_error_of_the_runs_alone(cfg, values, 2, "noise_bound")
    with pytest.raises(type(expected)) as exc:
        sweep(cfg, "noise_bound", values, n_seeds=2)
    assert stacked_calls == [1, 2, 3, 4, 5]  # the lockstep stops at the first leaving time
    assert type(exc.value) is type(expected) and str(exc.value) == str(expected)
    assert str(expected) == "online iterate left the domain at time index 7"


def test_a_stacked_qp_sweep_whose_seed_reference_fails_raises_the_error_of_its_runs_alone(
        monkeypatch):
    # the second seed's instance measures a NaN output from t = 4 on, so its reference
    # solve leaves the domain there; in the stacked solve that row's time index is 40 + 4
    real_build, real_reference = experiments.build_phase, experiments.compute_fixed_point_series
    cfg = ExperimentConfig.from_dict(SWEEP_DOCS["qp-feedback-sync"])
    stacked = []

    def build(config):
        family, graph = real_build(config)
        if config.seed != cfg.seed + 1000:
            return family, graph
        qp = dataclasses.replace(family.base.lockstep.qp, output_signal=SeriesTable(
            lambda ts, last: np.where(ts >= 4, np.nan, 0.0)))
        return qp_module.build_gradient_map(qp, family.base.lockstep.step_size), graph

    def reference(family, *args, **kwargs):
        if not isinstance(family, list):
            return real_reference(family, *args, **kwargs)
        try:
            return real_reference(family, *args, **kwargs)
        except Exception as exc:
            stacked.append(str(exc))
            raise

    monkeypatch.setattr(experiments, "build_phase", build)
    monkeypatch.setattr(experiments, "compute_fixed_point_series", reference)
    values = [0.0, 0.01, 0.02]
    expected = first_error_of_the_runs_alone(cfg, values, 2, "noise_bound")
    with pytest.raises(type(expected)) as exc:
        sweep(cfg, "noise_bound", values, n_seeds=2)
    assert stacked == ["iterate left the domain at time index 44 (iteration 0)"]
    assert type(exc.value) is type(expected) and str(exc.value) == str(expected)
    assert str(expected) == "iterate left the domain at time index 4 (iteration 0)"


def _containers(value):
    if isinstance(value, (dict, list)):
        yield value
        for item in (value.values() if isinstance(value, dict) else value):
            yield from _containers(item)


@pytest.mark.parametrize("name,parameter", [("affine-async", "fixed_delay"),
                                            ("qp-star-async", "noise_bound")])
def test_sweep_reports_do_not_share_audit_dicts(name, parameter):
    result = sweep(ExperimentConfig.from_dict(SWEEP_DOCS[name]), parameter,
                   SWEEP_VALUES[parameter], n_seeds=2)
    reports = [rep for seed_reports in result.reports for rep in seed_reports]
    owners = {}
    for i, rep in enumerate(reports):
        for container in _containers(rep.audits):
            assert owners.setdefault(id(container), i) == i
    before = [json.dumps(rep.audits, sort_keys=True) for rep in reports]
    assert reports[0].audits["lipschitz"]["ok"]
    reports[0].audits["lipschitz"]["ok"] = False
    assert [json.dumps(rep.audits, sort_keys=True) for rep in reports[1:]] == before[1:]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_run_ok(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", affine_doc(horizon=100))
    assert main(["run", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "tail_max" in out and "PASS" in out


def test_cli_async_loadflow_runs_where_only_the_areas_certify(tmp_path):
    # the whole network's injections reach past its self-map radius: the
    # reference is the batched solve of the stacked map
    network = {"buses": 2, "slack_voltage": 1.0, "injection_limit": [0.2, 0.05],
               "lines": [[0, 1, [0.003, 0.001]], [1, 2, [3.0, 0.9]]], "areas": [1, 2]}
    doc = {"problem": {"kind": "loadflow", "network": network, "noise_bound": 1e-4,
                       "injections": {"kind": "random_walk", "step": 0.01}},
           "mode": "async", "norm": "linf", "channel": {"kind": "iid_drop", "p": 0.3},
           "horizon": 200, "seed": 11, "audit_samples": 50}
    cfg = write_json(tmp_path / "c.json", doc)
    assert main(["run", cfg, "--output", str(tmp_path / "run")]) == EXIT_OK


def test_cli_run_writes_byte_identical_outputs(tmp_path):
    doc = affine_doc(horizon=120, mode="async", norm="linf",
                     channel={"kind": "iid_drop", "p": 0.15})
    cfg = write_json(tmp_path / "c.json", doc)
    assert main(["run", cfg, "--output", str(tmp_path / "a")]) == EXIT_OK
    assert main(["run", cfg, "--output", str(tmp_path / "b")]) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.fixture
def no_build(monkeypatch):
    """Fails a test that reaches ``build_phase``."""
    def refuse(config):
        raise AssertionError("build_phase ran")

    monkeypatch.setattr(experiments, "build_phase", refuse)


def test_cli_run_to_an_unwritable_output_exit_2(tmp_path, capsys, no_build):
    (tmp_path / "afile").write_text("")
    prefix = str(tmp_path / "afile" / "sub" / "run")
    by_option = write_json(tmp_path / "c.json", affine_doc(horizon=60))
    by_key = write_json(tmp_path / "o.json", affine_doc(horizon=60, output=prefix))
    assert main(["run", by_option, "--output", prefix]) == EXIT_CONFIG
    assert main(["run", by_key]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith(f"configuration error: cannot write {prefix}.csv") for line in err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "c.json", "o.json"]


def test_cli_run_to_a_directory_exit_2(tmp_path, capsys, no_build):
    (tmp_path / "run.json").mkdir()
    cfg = write_json(tmp_path / "c.json", affine_doc(horizon=60))
    assert main(["run", cfg, "--output", str(tmp_path / "run")]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"configuration error: cannot write {tmp_path}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "run.json"]


def test_cli_sweep_to_an_unwritable_output_exit_2(tmp_path, capsys, no_build):
    (tmp_path / "afile").write_text("")
    output = str(tmp_path / "afile" / "x.json")
    cfg = write_json(tmp_path / "c.json", affine_doc(mode="async", norm="linf", horizon=60,
                                                     channel={"kind": "fixed_delay", "delay": 0}))
    args = ["sweep", cfg, "--param", "fixed_delay", "--values", "0,1", "--output", output]
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"configuration error: cannot write {output}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "c.json"]


@pytest.mark.parametrize("case", ["config-key", "run-option", "sweep-option"])
def test_cli_empty_output_exit_2_and_write_nothing(case, tmp_path, capsys, monkeypatch,
                                                   no_build):
    monkeypatch.chdir(tmp_path)  # a file named by an empty prefix would land here
    doc = affine_doc(mode="async", norm="linf", horizon=60,
                     channel={"kind": "fixed_delay", "delay": 0})
    cfg = write_json(tmp_path / "c.json", dict(doc, output="") if case == "config-key" else doc)
    args = {"config-key": ["run", cfg],
            "run-option": ["run", cfg, "--output", ""],
            "sweep-option": ["sweep", cfg, "--param", "fixed_delay", "--values", "0,1",
                             "--output", ""]}[case]
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and "must be a non-empty string" in err[0], err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("problem, message", [
    ({"kind": "loadflow", "multiarea": False}, "asynchronous mode needs a block decomposition"),
    ({"kind": "qp-gradient", "step_size": 0.1, "topology": "none"},
     "asynchronous qp-gradient runs require the star topology"),
], ids=["loadflow-not-multiarea", "qp-without-topology"])
def test_cli_async_run_without_agents_exit_2(tmp_path, capsys, problem, message):
    cfg = write_json(tmp_path / "c.json", affine_doc(problem=problem, mode="async", norm="linf",
                                                     horizon=50))
    assert main(["run", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [f"configuration error: {message}"]


def drifting_doc(coupling="chain", horizon=300, **drift):
    """An async affine run of 8 agents under a fixed delay of 2 ticks."""
    problem = {"kind": "affine", "dim": 8, "contraction": 0.9, "coupling": coupling,
               "drift": drift or {"kind": "linear", "rate": 0.01}}
    return affine_doc(problem=problem, mode="async", norm="linf", horizon=horizon,
                      channel={"kind": "fixed_delay", "delay": 2})


@pytest.mark.parametrize("coupling", ["chain", "dense"])
def test_cli_run_far_from_the_origin_keeps_the_verdicts(tmp_path, capsys, coupling):
    # the reference's residual check scales with |x|: from 1e4 an absolute
    # 1e-12 failed the closed form at time index 1 (residual 1.8e-12)
    verdicts = []
    for start in (0.0, 1e4, 1e6):
        doc = drifting_doc(coupling, kind="linear", rate=0.01, start=[start] * 8)
        cfg = write_json(tmp_path / "c.json", doc)
        assert main(["run", cfg]) == EXIT_OK, start
        report = run_experiment(ExperimentConfig.from_dict(doc), write_files=False)
        verdicts.append((report.certificates, {n: a["ok"] for n, a in report.audits.items()}))
    capsys.readouterr()
    assert verdicts[1:] == verdicts[:1] * 2


@pytest.mark.parametrize("drift, horizon, time_index", [
    ({"kind": "linear", "rate": 1e308}, 20, 3),
    ({"kind": "random_walk", "rate": 1e308}, 20, 5),
    ({"kind": "linear", "rate": 1e306}, 2000, 181),
], ids=["linear", "random-walk", "linear-long"])
def test_cli_run_with_a_drift_that_overflows_exit_2_in_one_line(tmp_path, capsys, drift,
                                                                 horizon, time_index):
    cfg = write_json(tmp_path / "c.json", drifting_doc(horizon=horizon, **drift))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", cfg]) == EXIT_CONFIG
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        f"error: fixed point at time index {time_index} is not finite"]


def test_cli_run_on_a_box_side_too_wide_to_sample_exit_2_in_one_line(tmp_path, capsys):
    # side 0's width 2e308 overflows a float, so no uniform draw can cover it
    doc = {"problem": {"kind": "qp-gradient", "curvature": [1, 2], "box_lo": [-1e308, -1],
                       "box_hi": [1e308, 1], "step_size": 0.2},
           "mode": "sync", "norm": "l2", "horizon": 20, "seed": 1}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", write_json(tmp_path / "c.json", doc)]) == EXIT_CONFIG
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        "error: box side 0 [-1e+308, 1e+308] is wider than the largest float, "
        "so it cannot be sampled uniformly"]


@pytest.mark.parametrize("instance, message", [
    ({"box_lo": [1e308, -1], "box_hi": [1.5e308, 1]},
     "the l2 norm of a state in the box can exceed the largest float"),
    ({"curvature": [1e300, 2], "box_lo": [-1e10, -1], "box_hi": [1e10, 1]},
     "the objective gradient at device 0 can exceed the largest float over the box "
     "(side [-1e+10, 1e+10])"),
    ({"coupling": [1e200, 1]}, "the objective gradient at device 0 can exceed the largest "
                               "float over the box (side [-1, 1])"),
], ids=["state-norm", "gradient", "coupling"])
def test_cli_run_on_a_box_whose_gradient_or_norm_overflows_exit_2_in_one_line(
        tmp_path, capsys, instance, message):
    # each side is finite and samples uniformly, but the arithmetic over the box does not fit
    doc = {"problem": {"kind": "qp-gradient", "curvature": [1, 2], "step_size": 0.1, **instance},
           "mode": "sync", "norm": "l2", "horizon": 5, "seed": 1}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", write_json(tmp_path / "c.json", doc)]) == EXIT_CONFIG
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_cli_run_whose_drift_overflows_after_its_horizon_warns_about_nothing(tmp_path, capsys):
    # the tables fill ahead of the horizon, where the offsets b(t) are not finite
    doc = drifting_doc(horizon=2, kind="linear", rate=1e308)
    cfg = write_json(tmp_path / "c.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg]) == EXIT_OK
        report = run_experiment(ExperimentConfig.from_dict(doc), write_files=False)
    capsys.readouterr()
    assert np.isfinite(report.errors).all() and report.errors[-1] > 1e307


@pytest.mark.parametrize("values, message", [
    (",", "sweep needs at least one value"),
    ("a,0.1", "cannot parse sweep values 'a,0.1'"),
], ids=["none", "not-a-number"])
def test_cli_sweep_with_bad_values_exit_2(tmp_path, capsys, no_build, values, message):
    cfg = write_json(tmp_path / "c.json", affine_doc(horizon=50))
    assert main(["sweep", cfg, "--param", "noise_bound", "--values", values]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"configuration error: {message}"]
    assert captured.out == ""


def test_cli_config_error_exit_2(tmp_path):
    cfg = write_json(tmp_path / "bad.json", affine_doc(nonsense=1))
    assert main(["run", cfg]) == EXIT_CONFIG
    assert main(["run", str(tmp_path / "missing.json")]) == EXIT_CONFIG


@pytest.mark.parametrize("channel", [
    {"kind": "schedule_csv"},
    {"kind": "schedule_csv", "path": "no-such-schedule.csv"},
    {"kind": "fixed_delay", "delay": "x"},
    {"kind": "schedule_csv", "path": 3},
    "x",
    {"kind": []},
    {"kind": "periodic", "period": 1e300},
    {"kind": "iid_drop", "p": 0.1, "max_consecutive": 1e300},
    {"kind": "fixed_delay", "delay": 2.0},
])
def test_cli_bad_channel_exit_2(tmp_path, capsys, channel):
    cfg = write_json(tmp_path / "c.json", affine_doc(mode="async", norm="linf", channel=channel))
    assert main(["run", cfg]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_cli_schedule_naming_an_unknown_edge_exit_2(tmp_path, capsys):
    schedule = tmp_path / "schedule.csv"
    schedule.write_text("t,src,dst,delivered_stamp\n2,1,0,1\n3,5,7,2\n")
    doc = affine_doc(mode="async", norm="linf", horizon=50,
                     channel={"kind": "schedule_csv", "path": str(schedule)})
    cfg = write_json(tmp_path / "c.json", doc)
    assert main(["run", cfg]) == EXIT_CONFIG
    assert "edge (5, 7)" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "t,src,dst,delivered_stamp\n2,1,0,1\n3,1,0,x\n",
    "t,src,dst,delivered_stamp\n2,1,0,1.5\n",
    "t,src,dst,delivered_stamp,extra\n2,1,0,1,0\n",
    "t,src,dst,delivered_stamp\n2,1,0,1,0\n",
    "t,src,dst,delivered_stamp\n2,1,0,1\n3,1,0\n",
    "t,src,dst,delivered_stamp\n2,1,0,99999999999999999999\n",
], ids=["non-integer", "float", "extra-column", "extra-field", "missing-field", "overflow"])
def test_cli_malformed_schedule_exit_2(tmp_path, capsys, text):
    schedule = tmp_path / "schedule.csv"
    schedule.write_text(text)
    doc = affine_doc(mode="async", norm="linf", horizon=50,
                     channel={"kind": "schedule_csv", "path": str(schedule)})
    assert main(["run", write_json(tmp_path / "c.json", doc)]) == EXIT_CONFIG
    assert f"cannot read schedule {schedule}" in capsys.readouterr().err


@pytest.fixture
def opened(monkeypatch):
    """The paths that ``fptrack.async_sim`` opens, in order."""
    paths = []

    def counting_open(file, *args, **kwargs):
        paths.append(str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(fptrack.async_sim, "open", counting_open, raising=False)
    return paths


def test_schedule_csv_experiment_reads_its_file_once(tmp_path, opened):
    schedule = tmp_path / "schedule.csv"
    schedule.write_text("t,src,dst,delivered_stamp\n2,1,0,1\n3,0,1,2\n")
    doc = affine_doc(mode="async", norm="linf", horizon=50,
                     channel={"kind": "schedule_csv", "path": str(schedule)})
    report = run_experiment(ExperimentConfig.from_dict(doc), write_files=False)
    assert opened == [str(schedule)]
    assert report.realized_max_delay == 48  # stamp 1 held through tick 49


def test_schedule_csv_sweep_reads_its_file_once(tmp_path, opened):
    schedule = tmp_path / "schedule.csv"
    schedule.write_text("t,src,dst,delivered_stamp\n2,1,0,1\n3,0,1,2\n")
    doc = affine_doc(mode="async", norm="linf", horizon=50,
                     channel={"kind": "schedule_csv", "path": str(schedule)})
    config = ExperimentConfig.from_dict(doc)
    result = sweep(config, "drift_rate", [0.01, 0.02, 0.05], n_seeds=2)
    assert opened == [str(schedule)]
    assert [rep.realized_max_delay for row in result.reports for rep in row] == [48] * 6
    # a value that changes the channel builds its own
    result = sweep(config, "drop_probability", [0.0], n_seeds=1)
    assert result.reports[0][0].realized_max_delay == 0
    assert opened == [str(schedule)]


def test_logged_chain_run_replays_byte_identically(tmp_path):
    doc = {
        "problem": {"kind": "affine", "dim": 48, "contraction": 0.6, "coupling": "chain",
                    "drift": {"kind": "linear", "rate": 0.01}},
        "mode": "async", "norm": "linf",
        "channel": {"kind": "iid_drop", "p": 0.2, "max_consecutive": 5},
        "horizon": 400, "seed": 11,
    }
    logged = ExperimentConfig.from_dict(doc)
    family, graph = experiments.build_phase(logged)
    _, stats = fptrack.run_async_tracker(family, graph, logged.channel_model,
                                         family.domain.anchor(), logged.horizon, logged.norm,
                                         seed=logged.seed)
    schedule = tmp_path / "schedule.csv"
    fptrack.write_log_csv(schedule, stats.log)
    replay = dict(doc, channel={"kind": "schedule_csv", "path": str(schedule)})
    original = run_experiment(logged, write_files=False)
    replayed = run_experiment(ExperimentConfig.from_dict(replay), write_files=False)
    assert original.realized_max_delay == 5 and original.realized_max_stale == 2
    assert trace_csv_text(replayed) == trace_csv_text(original)
    assert replayed.certificates == original.certificates


AFFINE_PROBLEM = affine_doc()["problem"]
TWO_BUS_DOC = {"buses": 1, "slack_voltage": 1.0, "lines": [[0, 1, [0.05, 0.0]]],
               "injection_limit": [0.4]}


@pytest.mark.parametrize("problem", [
    dict(AFFINE_PROBLEM, drift={"kind": "piecewise", "fast_rate": 0.1, "fast_window": 5}),
    dict(AFFINE_PROBLEM, drift={"kind": "piecewise", "fast_rate": 0.1, "fast_window": [1]}),
    dict(AFFINE_PROBLEM, drift={"kind": "linear", "rate": "x"}),
    dict(AFFINE_PROBLEM, drift={"kind": "linear", "seed": "x"}),
    dict(AFFINE_PROBLEM, drift=5),
    dict(AFFINE_PROBLEM, dim="x"),
    dict(AFFINE_PROBLEM, contraction="x"),
    {"kind": "qp-gradient", "step_size": "x"},
    {"kind": "qp-gradient", "step_size": 0.3, "devices": "x"},
    {"kind": "loadflow", "network": "two-bus", "noise_bound": "x"},
    {"kind": "loadflow", "network": "two-bus", "radius": "x"},
    {"kind": "loadflow", "network": "two-bus", "injections": {"kind": "random_walk", "step": "x"}},
    dict(AFFINE_PROBLEM, drift={"kind": "linear", "rate": 0.05, "start": "x"}),
    dict(AFFINE_PROBLEM, drift={"kind": "linear", "rate": 0.05, "start": [1.0]}),
    {"kind": "qp-gradient", "step_size": 0.1,
     "reference_signal": {"kind": "constant", "start": [1.0, 2.0]}},
    {"kind": "loadflow", "network": dict(TWO_BUS_DOC, lines=[[0, 1, "x"]])},
    {"kind": "loadflow", "network": dict(TWO_BUS_DOC, buses="x")},
    {"kind": "loadflow", "network": dict(TWO_BUS_DOC, injection_limit=[0.4, 0.4])},
    {"kind": "loadflow", "network": dict(TWO_BUS_DOC, areas=[1, 2])},
    {"kind": "loadflow", "network": "two-bus", "injections": {"kind": "constant", "base": [[-0.1]]}},
    {"kind": "loadflow", "network": "two-bus",
     "injections": {"kind": "constant", "base": [[-0.1, 0.0], [-0.1, 0.0]]}},
    dict(AFFINE_PROBLEM, dim=-1),
    dict(AFFINE_PROBLEM, dim="4"),
    dict(AFFINE_PROBLEM, blockwise="false"),
    dict(AFFINE_PROBLEM, drift={"kind": "linear", "rate": 0.05, "fast_rate": 0.1}),
    {"kind": "qp-gradient", "step_size": 0.3, "devices": 0},
    {"kind": "qp-gradient", "step_size": 0.3, "instance_seed": -1},
    {"kind": "qp-gradient", "step_size": 0.3, "curvature": [1.0, 2.0], "coupling": [1.0]},
    {"kind": "loadflow", "network": "two-bus", "injections": None},
    {"kind": "loadflow", "network": "two-bus", "injections": {"kind": "ramp", "rate": True}},
    {"kind": "loadflow", "network": "two-bus", "injections": {"kind": "ramp", "rate": -1}},
    {"kind": "loadflow", "network": "two-bus", "injections": {"kind": "constant", "rate": 0.01}},
    {"kind": "qp-gradient", "step_size": 0.3, "coupling": [1.0] * 7},
    {"kind": "qp-gradient", "step_size": 0.3, "box_lo": [-2.0] * 7},
    {"kind": "qp-gradient", "step_size": 0.3, "box_hi": [2.0] * 7},
    {"kind": "qp-gradient", "step_size": 0.3, "tracking_weight": 2.0},
    {"kind": "qp-gradient", "step_size": 0.3, "regularization": 3.0},
    {"kind": "qp-gradient", "step_size": 0.3, "curvature": [1.0, 2.0], "devices": 2},
    {"kind": "qp-gradient", "step_size": 0.3, "curvature": [1.0, 2.0], "instance_seed": 4},
    dict(AFFINE_PROBLEM, drift={"kind": "constant", "rate": 0.05}),
    dict(AFFINE_PROBLEM, drift={"kind": "constant", "seed": 4}),
    {"kind": "qp-gradient", "step_size": 0.1,
     "reference_signal": {"kind": "constant", "start": 0.2, "rate": 0.01}},
    {"kind": "qp-gradient", "step_size": 0.1,
     "reference_signal": {"kind": "linear", "rate": 0.01, "seed": 4}},
    {"kind": "qp-gradient", "step_size": 0.1,
     "output_signal": {"kind": "piecewise", "rate": 0.01, "seed": 4,
                       "fast_rate": 0.1, "fast_window": [5, 9]}},
    {"kind": "loadflow", "network": "two-bus", "injections": {"kind": "constant", "step": 0.01}},
    {"kind": "loadflow", "network": "two-bus", "injections": {"kind": "constant", "seed": 4}},
    {"kind": "loadflow", "network": "two-bus", "injections": {"kind": "ramp", "step": 0.01}},
    {"kind": "loadflow", "network": "two-bus", "injections": {"kind": "ramp", "seed": 4}},
], ids=["fast-window-int", "fast-window-short", "drift-rate", "drift-seed", "drift-not-object",
        "affine-dim", "affine-contraction", "qp-step-size", "qp-devices",
        "loadflow-noise-bound", "loadflow-radius", "injection-step",
        "drift-start-text", "drift-start-short", "signal-start-list",
        "network-line-text", "network-buses-text", "network-limits-length",
        "network-areas-length", "injection-base-pair", "injection-base-length",
        "affine-dim-negative", "affine-dim-text-number", "affine-blockwise-text",
        "drift-fast-rate-not-piecewise", "qp-devices-zero", "qp-instance-seed-negative",
        "qp-coupling-length", "injections-null", "ramp-rate-bool", "ramp-rate-negative",
        "constant-rate", "random-qp-coupling", "random-qp-box-lo", "random-qp-box-hi",
        "random-qp-tracking-weight", "random-qp-regularization", "inline-qp-devices",
        "inline-qp-instance-seed", "constant-drift-rate", "constant-drift-seed",
        "constant-signal-rate", "linear-signal-seed", "piecewise-signal-seed",
        "constant-injection-step", "constant-injection-seed", "ramp-injection-step",
        "ramp-injection-seed"])
def test_cli_bad_problem_value_exit_2(tmp_path, capsys, problem):
    cfg = write_json(tmp_path / "c.json", affine_doc(problem=problem))
    assert main(["run", cfg]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, inline", [
    ("regularization", 3.0, False), ("coupling", [5.0] * 7, False),
    ("devices", 2, True), ("instance_seed", 4, True),
])
def test_qp_key_that_does_not_apply_is_named(key, value, inline):
    problem = {"kind": "qp-gradient", "step_size": 0.3, key: value}
    if inline:
        problem["curvature"] = [1.0, 2.0]
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_dict(affine_doc(problem=problem))
    problem[key] = None  # null reads as absent
    if key in ("regularization", "devices"):
        del problem[key]  # no null for a key with a default
    ExperimentConfig.from_dict(affine_doc(problem=problem))


def test_injection_ramp_rate_moves_the_loads():
    def run(injections):
        problem = {"kind": "loadflow", "network": "two-bus", "injections": injections}
        return run_experiment(ExperimentConfig.from_dict(affine_doc(problem=problem, horizon=60)),
                              write_files=False)

    constant = run({"kind": "constant", "load_fraction": 0.5})
    flat = run({"kind": "ramp", "load_fraction": 0.5})
    ramp = run({"kind": "ramp", "load_fraction": 0.5, "rate": 0.01})
    assert np.array_equal(flat.errors, constant.errors)
    assert not np.array_equal(ramp.errors, constant.errors)
    assert ramp.bound_inputs["drift"] > 0.0 == constant.bound_inputs["drift"]


def test_cli_certificate_failure_exit_3(tmp_path):
    cfg = write_json(tmp_path / "c.json", affine_doc(transient_fraction=0.0, horizon=40))
    assert main(["run", cfg]) == EXIT_CERTIFICATE


def test_cli_audit_failure_exit_4(tmp_path):
    cfg = write_json(tmp_path / "c.json", affine_doc(declared_lipschitz_override=0.2))
    assert main(["run", cfg]) == EXIT_AUDIT
    assert main(["audit", cfg]) == EXIT_AUDIT


def test_cli_audit_ok(tmp_path):
    cfg = write_json(tmp_path / "c.json", affine_doc())
    assert main(["audit", cfg]) == EXIT_OK


@pytest.mark.parametrize("doc", [
    affine_doc(audit_samples=60),
    {"problem": {"kind": "qp-gradient", "devices": 3, "instance_seed": 2, "step_size": 0.3},
     "mode": "sync", "norm": "l2", "horizon": 30, "seed": 2, "audit_samples": 60},
], ids=["affine", "qp-gradient"])
def test_cli_audit_checks_the_self_map_on_both_points_of_every_pair(tmp_path, capsys, doc):
    cfg = write_json(tmp_path / "c.json", doc)
    assert main(["audit", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "  [  OK] self_map: samples=120" in lines
    assert [line for line in lines if "lipschitz" in line][0].endswith("samples=60")


def _counted(family, rows):
    """An exact family with ``family``'s map that records the rows of each call."""
    def evaluate(x, t):
        rows.append(len(np.atleast_2d(x)))
        return family.evaluate(x, t)

    return fptrack.MapFamily(family.dim, family.domain, evaluate, lipschitz=family.lipschitz_sup,
                             declared_norm=family.declared_norm)


def test_the_lipschitz_and_self_map_audits_evaluate_one_sample_once():
    cfg = ExperimentConfig.from_dict(affine_doc(audit_samples=50))
    family, graph = experiments.build_phase(cfg)
    rows = []
    audits = experiments.audit_phase(cfg, _counted(family, rows), graph)
    assert rows == [50, 50]  # each point of the 50 pairs, once
    assert audits["self_map"] == {"ok": True, "samples": 100}
    assert audits["lipschitz"]["samples"] == 50
    assert audits == experiments.audit_phase(cfg, family, graph)


def test_a_map_that_leaves_part_of_its_box_fails_the_self_map_audit():
    cfg = ExperimentConfig.from_dict(affine_doc(audit_samples=50))
    # 0.5 x + 0.55 leaves the box [-1, 1]^4 where a coordinate exceeds 0.9
    family = fptrack.MapFamily(4, fptrack.Domain.box(-np.ones(4), np.ones(4)),
                               lambda x, t: 0.5 * x + 0.55, lipschitz=0.5)
    audits = experiments.audit_phase(cfg, family, None)
    assert audits["self_map"] == {"ok": False, "samples": 100}
    assert audits["lipschitz"]["ok"]


@pytest.mark.parametrize("name", ["qp-feedback-sync", "qp-star-async", "multiarea-async",
                                  "affine-async"])
def test_either_sampled_audit_alone_gives_its_dict_in_a_full_audit(name):
    cfg = ExperimentConfig.from_dict(SWEEP_DOCS[name])
    family, graph = experiments.build_phase(cfg)
    full = experiments.audit_phase(cfg, family, graph)
    for audit in ("self_map", "lipschitz"):
        assert experiments.audit_phase(cfg, family, graph, names=[audit]) == {audit: full[audit]}
    assert full["self_map"] == {"ok": True, "samples": 100}


def test_cli_audit_rejects_the_configs_run_rejects(tmp_path):
    # the QP family declares its contraction in l2: auditing it in linf
    # would fail the Lipschitz audit for a run that never happens
    cfg = write_json(tmp_path / "c.json", {
        "problem": {"kind": "qp-gradient", "devices": 3, "instance_seed": 2, "step_size": 0.3},
        "mode": "sync", "norm": "linf", "horizon": 30, "seed": 2, "audit_samples": 50})
    assert main(["run", cfg]) == EXIT_CONFIG
    assert main(["audit", cfg]) == EXIT_CONFIG


def test_cli_bounds_prints_all_formulas(tmp_path, capsys):
    inputs = write_json(tmp_path / "b.json", {
        "lipschitz": 0.4, "drift": 0.1, "max_delay": 2, "max_stale": 1,
        "dim": 4, "norm": "l2", "smoothness": 1.0, "regularization": 1.0,
    })
    assert main(["bounds", inputs]) == EXIT_OK
    out = capsys.readouterr().out
    assert "synchronous tail bound" in out
    assert "norm equivalence" in out
    assert "stale-count refined" in out
    assert "gradient step window" in out
    # spot-check one number against the formula
    assert format((0.1 * (1 + 0.4 * np.sqrt(2) * 2)) / (1 - 0.4 * np.sqrt(2)), ".17g") in out


@pytest.mark.parametrize("doc", [
    {"lipschitz": 0.4, "spin": 1},
    {"lipschitz": "x"},
    {"lipschitz": 0.5, "smoothness": "a"},
    {"lipschitz": 0.5, "dim": True},
], ids=["unknown-key", "lipschitz-text", "smoothness-text", "dim-bool"])
def test_cli_bounds_rejects_unknown_keys(tmp_path, doc):
    inputs = write_json(tmp_path / "b.json", doc)
    assert main(["bounds", inputs]) == EXIT_CONFIG


def test_cli_sweep_runs(tmp_path, capsys):
    doc = affine_doc(mode="async", norm="linf", horizon=200,
                     channel={"kind": "iid_drop", "p": 0.1})
    cfg = write_json(tmp_path / "c.json", doc)
    code = main(["sweep", cfg, "--param", "fixed_delay", "--values", "0,1,2",
                 "--seeds", "2", "--output", str(tmp_path / "s.json")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "value,median_tail_error,tightest_bound" in out
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["parameter"] == "fixed_delay"
    assert len(summary["median_tail_errors"]) == 3


@pytest.mark.parametrize("values", ["0.5,1.5", "1e300"])
def test_cli_sweep_rejects_delays_that_are_not_integers(tmp_path, capsys, values):
    doc = affine_doc(mode="async", norm="linf", horizon=60,
                     channel={"kind": "fixed_delay", "delay": 0})
    cfg = write_json(tmp_path / "c.json", doc)
    assert main(["sweep", cfg, "--param", "fixed_delay", "--values", values]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("param,values", [("drop_probability", "0,0.1"), ("fixed_delay", "0,1")])
def test_cli_sweep_rejects_channel_parameters_on_sync_configs(tmp_path, capsys, param, values):
    # a sync run reads no channel: each value would rerun the same run
    cfg = write_json(tmp_path / "c.json", affine_doc(horizon=60))
    assert main(["sweep", cfg, "--param", param, "--values", values]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("spoil,exit_code", [("certificate", EXIT_CERTIFICATE),
                                              ("audit", EXIT_AUDIT)])
def test_cli_sweep_fails_when_only_the_first_seed_fails(tmp_path, monkeypatch,
                                                        spoil, exit_code):
    doc = affine_doc(mode="async", norm="linf", horizon=120,
                     channel={"kind": "iid_drop", "p": 0.1})
    real_run = experiments.run_experiment

    def first_seed_fails(config, **kwargs):
        report = real_run(config, **kwargs)
        if config.seed == doc["seed"] and config.raw["channel"].get("delay") == 1:
            if spoil == "certificate":
                report.certificates[ASYNC_TAIL_MAX_NORM] = "fail"
            else:
                report.audits["lipschitz"]["ok"] = False
        return report

    monkeypatch.setattr(experiments, "run_experiment", first_seed_fails)
    cfg = write_json(tmp_path / "c.json", doc)
    args = ["sweep", cfg, "--param", "fixed_delay", "--values", "0,1,2", "--seeds", "3"]
    assert main(args) == exit_code
    monkeypatch.undo()
    assert main(args) == EXIT_OK


def test_console_entry_point_runs_in_subprocess(tmp_path):
    cfg = write_json(tmp_path / "c.json", affine_doc(horizon=60))
    # the child imports the same package as this test, installed or not
    package_root = str(Path(fptrack.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fptrack.cli", "run", str(cfg)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "tail_max" in proc.stdout


def test_load_qp_from_json_document():
    from fptrack.experiments import load_qp
    doc = {
        "curvature": [1.0, 2.0], "coupling": [0.5, -0.25],
        "tracking_weight": 0.8, "regularization": 0.1,
        "box_lo": [-1.0, -1.0], "box_hi": [1.0, 2.0],
        "output_signal": {"kind": "linear", "rate": 0.01, "start": 0.2},
    }
    qp = load_qp(doc)
    assert qp.n_devices == 2
    assert abs(qp.output_signal.at(3) - 0.22) < 1e-12
    assert qp.reference_signal.at(5) == 0.0
    with pytest.raises(ConfigError):
        load_qp({"curvature": [1.0], "coupling": [1.0], "box_lo": [0.0],
                 "box_hi": [1.0], "mystery": 3})
    for signal in ({"rate": 0.01}, {"kind": "linear", "speed": 0.01}):
        with pytest.raises(ConfigError, match="signal spec"):
            load_qp(dict(doc, reference_signal=signal))


def test_load_network_from_json_document():
    from fptrack.experiments import load_network
    doc = {
        "buses": 2, "slack_voltage": [1.0, 0.0],
        "lines": [[0, 1, [0.05, 0.01]], [1, 2, [0.04, 0.01]]],
        "injection_limit": [0.3, 0.3], "areas": [1, 2],
    }
    net = load_network(doc)
    assert net.n == 2
    assert net.lines[0][2] == complex(0.05, 0.01)
    with pytest.raises(ConfigError):
        load_network({"buses": 1, "slack_voltage": 1.0, "lines": [], "volts": 1,
                      "injection_limit": [0.1]})


def test_sweep_drop_probability_medians_nondecreasing():
    doc = affine_doc(mode="async", norm="linf", horizon=400,
                     channel={"kind": "iid_drop", "p": 0.0})
    cfg = ExperimentConfig.from_dict(doc)
    result = sweep(cfg, "drop_probability", [0.0, 0.1], n_seeds=6)
    assert result.tail_errors[1] >= result.tail_errors[0]
    assert result.monotone_nondecreasing


@pytest.mark.parametrize("value", [0.5, 0.9])
def test_drop_probability_sweep_keeps_max_consecutive(value):
    doc = affine_doc(mode="async", norm="linf", horizon=200,
                     channel={"kind": "iid_drop", "p": 0.1, "max_consecutive": 1})
    result = sweep(ExperimentConfig.from_dict(doc), "drop_probability", [value], n_seeds=4)
    assert [rep.realized_max_delay for rep in result.reports[0]] == [1] * 4
    free = sweep(ExperimentConfig.from_dict(dict(doc, channel={"kind": "iid_drop", "p": 0.1})),
                 "drop_probability", [value], n_seeds=4)
    assert max(rep.realized_max_delay for rep in free.reports[0]) > 1


def test_loadflow_base_given_explicitly_runs_as_the_default():
    def run(injections):
        problem = {"kind": "loadflow", "network": "three-area", "noise_bound": 1e-4,
                   "injections": injections}
        doc = {"problem": problem, "mode": "async", "norm": "linf", "horizon": 200, "seed": 5,
               "channel": {"kind": "iid_drop", "p": 0.3}, "audit_samples": 50}
        return run_experiment(ExperimentConfig.from_dict(doc), write_files=False)

    walk = {"kind": "random_walk", "step": 0.01}
    net = fptrack.problems.three_area_network()
    base = fptrack.problems.default_injections(net).base  # load_fraction 0.7, as by default
    given = run(dict(walk, base=[[float(b.real), float(b.imag)] for b in base]))
    default = run(walk)
    assert given.errors.tobytes() == default.errors.tobytes()
    assert given.certificates == default.certificates
    assert given.passed


def test_inline_qp_and_qp_document_share_defaults():
    from fptrack.experiments import load_qp
    doc = {"curvature": [1.0, 2.0]}
    cfg = ExperimentConfig.from_dict(affine_doc(problem={"kind": "qp-gradient",
                                                         "step_size": 0.1, **doc}))
    inline = cfg.build_problem()[2]["qp"]
    loaded = load_qp(doc)
    for name in ("curvature", "coupling", "box_lo", "box_hi"):
        assert np.array_equal(getattr(inline, name), getattr(loaded, name))
    assert (inline.tracking_weight, inline.regularization) == (1.0, 0.0)
    assert (loaded.tracking_weight, loaded.regularization) == (1.0, 0.0)
    assert np.array_equal(loaded.coupling, [1.0, 1.0])
    assert np.array_equal(loaded.box_lo, [-1.0, -1.0])


# ---------------------------------------------------------------------------
# size caps and the mutation fuzz
# ---------------------------------------------------------------------------


def _set(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize("path,cap,base", [
    (("horizon",), schema.MAX_HORIZON, affine_doc()),
    (("seed",), schema.MAX_SEED, affine_doc()),
    (("audit_samples",), schema.MAX_AUDIT_SAMPLES, affine_doc()),
    (("problem", "dim"), schema.MAX_DIM, affine_doc()),
    (("problem", "drift", "seed"), schema.MAX_SEED, affine_doc()),
    (("problem", "devices"), schema.MAX_DEVICES, affine_doc(problem={
        "kind": "qp-gradient", "step_size": 0.3})),
    (("problem", "instance_seed"), schema.MAX_SEED, affine_doc(problem={
        "kind": "qp-gradient", "step_size": 0.3})),
    (("problem", "network", "buses"), schema.MAX_BUSES, affine_doc(problem={
        "kind": "loadflow", "network": dict(TWO_BUS_DOC)})),
    (("channel", "delay"), schema.MAX_HORIZON, affine_doc(
        channel={"kind": "fixed_delay", "delay": 1})),
    (("channel", "period"), schema.MAX_HORIZON, affine_doc(
        channel={"kind": "periodic", "period": 2})),
    (("channel", "max_consecutive"), schema.MAX_HORIZON, affine_doc(
        channel={"kind": "iid_drop", "p": 0.1})),
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else None)
def test_size_above_its_cap_is_rejected_before_building(path, cap, base):
    # from_dict only reads the document, so the value is never allocated
    doc = _set(json.loads(json.dumps(base)), path, cap + 1)
    with pytest.raises(ConfigError, match=r"\[[01], %d\]" % cap):
        ExperimentConfig.from_dict(doc)


FUZZ_VALUES = [None, "x", "", -1, 0, True, 1e300, 2**70, -0.5, [], [1, "a"], {},
               {"a": 1}, float("nan")]


def fuzz_configs(out):
    common = {"horizon": 40, "audit_samples": 20, "output": str(out)}
    return [
        {"problem": {"kind": "affine", "dim": 4, "contraction": 0.6, "coupling": "chain",
                     "drift": {"kind": "linear", "rate": 0.01,
                               "start": [1.0, 0.0, -0.5, 0.25]}},
         "mode": "async", "norm": "linf",
         "channel": {"kind": "iid_drop", "p": 0.2, "max_consecutive": 3},
         "seed": 1, **common},
        {"problem": {"kind": "qp-gradient", "devices": 3, "instance_seed": 2,
                     "step_size": 0.3, "noise_bound": 0.01, "topology": "none",
                     "adversarial_noise": False,
                     "reference_signal": {"kind": "random_walk", "rate": 0.01}},
         "mode": "sync", "norm": "l2", "transient_fraction": 0.5, "seed": 2, **common},
        {"problem": {"kind": "loadflow", "network": "three-area", "noise_bound": 1e-4,
                     "injections": {"kind": "random_walk", "step": 0.001,
                                    "load_fraction": 0.7}},
         "mode": "async", "norm": "linf", "channel": {"kind": "periodic", "period": 2},
         "seed": 3, **common},
    ]


def key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def test_config_mutation_fuzz_exits_cleanly(tmp_path, monkeypatch, capsys):
    # Every key of three small valid configs, nested keys included, is set to
    # each odd value in turn. A run may pass, fail a certificate or an audit, or
    # reject the config; it must never end in a traceback.
    monkeypatch.chdir(tmp_path)  # relative outputs a mutation makes land here
    path = tmp_path / "c.json"
    crashes = []
    for base in fuzz_configs(tmp_path / "run"):
        assert main(["run", write_json(path, base)]) == EXIT_OK
        for keys in key_paths(base):
            for value in FUZZ_VALUES:
                doc = _set(json.loads(json.dumps(base)), keys, value)
                try:
                    code = main(["run", write_json(path, doc)])
                except Exception as exc:  # noqa: BLE001 - collect every crash
                    code = f"{type(exc).__name__}: {exc}"
                if code not in (EXIT_OK, EXIT_CONFIG, EXIT_CERTIFICATE, EXIT_AUDIT):
                    crashes.append((".".join(keys), value, code))
    capsys.readouterr()
    assert crashes == []
