"""Experiment runner and CLI: configs, reports, CSV determinism, exit codes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fptrack
from fptrack import experiments
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
                  {"transient_fraction": 1.0}):
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


def test_sweep_seeds_vary_only_run_randomness():
    doc = affine_doc(mode="async", norm="linf", horizon=300,
                     channel={"kind": "iid_drop", "p": 0.3})
    cfg = ExperimentConfig.from_dict(doc)
    result = sweep(cfg, "drop_probability", [0.3], n_seeds=4)
    tails = result.tail_errors_by_seed[0]
    assert len(set(tails)) > 1  # different seeds, different drop patterns


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


def test_cli_run_writes_byte_identical_outputs(tmp_path):
    doc = affine_doc(horizon=120, mode="async", norm="linf",
                     channel={"kind": "iid_drop", "p": 0.15})
    cfg = write_json(tmp_path / "c.json", doc)
    assert main(["run", cfg, "--output", str(tmp_path / "a")]) == EXIT_OK
    assert main(["run", cfg, "--output", str(tmp_path / "b")]) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_cli_config_error_exit_2(tmp_path):
    cfg = write_json(tmp_path / "bad.json", affine_doc(nonsense=1))
    assert main(["run", cfg]) == EXIT_CONFIG
    assert main(["run", str(tmp_path / "missing.json")]) == EXIT_CONFIG


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


def test_cli_bounds_rejects_unknown_keys(tmp_path):
    inputs = write_json(tmp_path / "b.json", {"lipschitz": 0.4, "spin": 1})
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


@pytest.mark.parametrize("spoil,exit_code", [("certificate", EXIT_CERTIFICATE),
                                              ("audit", EXIT_AUDIT)])
def test_cli_sweep_fails_when_only_the_first_seed_fails(tmp_path, monkeypatch,
                                                        spoil, exit_code):
    doc = affine_doc(mode="async", norm="linf", horizon=120,
                     channel={"kind": "iid_drop", "p": 0.1})
    real_run = experiments.run_experiment

    def first_seed_fails(config, write_files=True):
        report = real_run(config, write_files=write_files)
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
    assert abs(qp.output_signal.value(3) - 0.22) < 1e-12
    assert qp.reference_signal.value(5) == 0.0
    with pytest.raises(ConfigError):
        load_qp({"curvature": [1.0], "coupling": [1.0], "box_lo": [0.0],
                 "box_hi": [1.0], "mystery": 3})


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
