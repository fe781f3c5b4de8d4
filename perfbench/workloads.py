"""The benchmark's workloads: config documents, set-up, one experiment, the gate.

Each workload is a closed loop with one client: the benchmark starts the next
experiment only when the previous one has written its report files. An
experiment's inputs are a config document whose ``seed`` is derived from the
benchmark seed, so the same seed gives the same inputs and outputs.
"""
from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from fptrack import experiments
from fptrack.errors import FixedTrackError

SWEEP_PARAMETER = "noise_bound"
SWEEP_VALUES = (0.0, 0.01, 0.02, 0.05)
SWEEP_SEEDS = 3
SWEEP_SEED_STEP = 1000     # experiments.sweep runs seeds config.seed + 1000 * k
ITERATION_SEED_STEP = 1_000_000  # experiment i of a benchmark run uses seed + i * this


def _untraced(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    doc: Callable[[int], dict]   # seed -> config document of one experiment
    expected: tuple              # certificates that must read "pass"
    is_sweep: bool = False

    def setup_docs(self, seed: int) -> list:
        """One config document per tracking run the experiment performs."""
        doc = self.doc(seed)
        if not self.is_sweep:
            return [doc]
        docs = []
        for value in SWEEP_VALUES:
            for k in range(SWEEP_SEEDS):
                d = json.loads(json.dumps(doc))
                d["problem"][SWEEP_PARAMETER] = value
                d["seed"] = doc["seed"] + SWEEP_SEED_STEP * k
                docs.append(d)
        return docs


def _qp_doc(seed):
    return {
        "problem": {
            "kind": "qp-gradient", "devices": 7, "instance_seed": 1,
            "step_size": 0.3, "noise_bound": 0.0, "topology": "none",
            "reference_signal": {"kind": "random_walk", "rate": 0.01},
        },
        "mode": "sync", "norm": "l2", "horizon": 150, "seed": seed,
    }


def _affine_doc(seed):
    return {
        "problem": {
            "kind": "affine", "dim": 48, "contraction": 0.6, "coupling": "chain",
            "drift": {"kind": "linear", "rate": 0.01},
        },
        "mode": "async", "norm": "linf",
        "channel": {"kind": "iid_drop", "p": 0.2, "max_consecutive": 5},
        "horizon": 5000, "seed": seed,
    }


def _loadflow_doc(seed):
    return {
        "problem": {
            "kind": "loadflow", "network": "three-area", "noise_bound": 1e-4,
            "injections": {"kind": "random_walk", "step": 0.01},
        },
        "mode": "async", "norm": "linf",
        "channel": {"kind": "iid_drop", "p": 0.3},
        "horizon": 1500, "seed": seed,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-qp-feedback",
            "many short sync QP runs: reference solves and map evaluation dominate; "
            "async_sim is never entered",
            _qp_doc,
            (experiments.SYNC_TAIL, experiments.PER_STEP),
            is_sweep=True,
        ),
        Workload(
            "async-affine-chain",
            "cheap map, closed-form reference, 48 agents and 94 edges: "
            "time and memory go to the async simulator",
            _affine_doc,
            (experiments.ASYNC_TAIL_MAX_NORM,),
        ),
        Workload(
            "async-loadflow-3area",
            "3 agents with an expensive noisy map and an iterative reference: "
            "the simulator loop is a small share",
            _loadflow_doc,
            (experiments.ASYNC_TAIL_MAX_NORM,),
        ),
    )
}


def iteration_seed(seed: int, i: int) -> int:
    return int(seed) + i * ITERATION_SEED_STEP


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup_once(workload: Workload, seed: int) -> float:
    """Seconds from the config documents to built families with channels started."""
    start = time.perf_counter()
    for doc in workload.setup_docs(seed):
        config = experiments.ExperimentConfig.from_dict(doc)
        _, graph, _ = experiments.build_family(config)
        if config.mode == "async":
            config.build_channel().start(len(graph.edges), config.horizon, config.seed)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# One experiment
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    wall_s: float
    ticks: int
    attempted: int
    failures: list = field(default_factory=list)   # one entry per failed run
    digest: str = ""
    output_bytes: int = 0


@contextmanager
def observed_reports():
    """Collect every report ``run_experiment`` returns, including inside sweeps.

    ``experiments.sweep`` keeps only one report per value, so certificate
    failures of earlier seeds are visible only at this call boundary.
    """
    reports = []
    inner = experiments.run_experiment

    def observe(*args, **kwargs):
        report = inner(*args, **kwargs)
        reports.append(report)
        return report

    experiments.run_experiment = observe
    try:
        yield reports
    finally:
        experiments.run_experiment = inner


def _write_sweep_json(path: Path, result):
    """The summary ``fptrack sweep --output`` writes."""
    path.write_text(json.dumps(result.to_json_dict(), indent=2) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_once(workload: Workload, seed: int, out_dir: Path, tracer=None) -> Outcome:
    """One experiment: config document to report files on disk, then the gate.

    A ``tracer`` is installed around the timed region only, so the gate's
    own calls into the library leave no spans.
    """
    doc = workload.doc(seed)
    sweep_path = out_dir / "sweep.json"
    prefix = out_dir / "run"
    if not workload.is_sweep:
        doc["output"] = str(prefix)
    result = None
    error = None
    # The tracer must patch the library before the observer wraps it.
    tracing = tracer if tracer is not None else nullcontext()
    span = tracer.span if tracer is not None else _untraced
    with tracing, observed_reports() as reports:
        start = time.perf_counter()
        try:
            config = experiments.ExperimentConfig.from_dict(doc)
            if workload.is_sweep:
                result = experiments.sweep(config, SWEEP_PARAMETER, SWEEP_VALUES,
                                           n_seeds=SWEEP_SEEDS)
                span("experiments.sweep_output", _write_sweep_json, sweep_path, result)
            else:
                experiments.run_experiment(config)
        except FixedTrackError as exc:
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start

    ticks = sum(len(r.errors) - 1 for r in reports)
    reasons = [gate_failures(workload, r) for r in reports]
    if error is not None:
        failures = ["; ".join(r) for r in reasons if r] + [error]
        return Outcome(wall, ticks, len(reports) + 1, failures)
    if workload.is_sweep:
        paths = [sweep_path]
        output_failures = check_sweep_output(result, reports, sweep_path)
    else:
        paths = [Path(str(prefix) + ".csv"), Path(str(prefix) + ".json")]
        output_failures = check_run_output(reports[0], paths[0], paths[1])
    # A wrong output file spoils every run it summarizes.
    failures = ["; ".join(r + output_failures) for r in reasons if r or output_failures]
    return Outcome(
        wall, ticks, len(reports), failures,
        digest=_sha256(paths[0]),
        output_bytes=sum(p.stat().st_size for p in paths),
    )


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def gate_failures(workload: Workload, report) -> list:
    """Reasons one run fails the gate; empty when it passes.

    A run fails when any certificate fails, any audit is not ok, the
    certificates recomputed from the stored trace disagree with the report,
    or a certificate the workload expects to pass does not.
    """
    reasons = []
    failed = sorted(k for k, v in report.certificates.items() if v == "fail")
    if failed:
        reasons.append(f"certificates failed: {failed}")
    bad_audits = sorted(k for k, a in report.audits.items() if not a.get("ok", True))
    if bad_audits:
        reasons.append(f"audits not ok: {bad_audits}")
    if experiments.verify_bounds(report) != report.certificates:
        reasons.append("verify_bounds disagrees with the report's certificates")
    missing = [n for n in workload.expected if report.certificates.get(n) != "pass"]
    if missing:
        reasons.append(f"expected certificates not passed: {missing}")
    return reasons


def check_run_output(report, csv_path: Path, json_path: Path) -> list:
    """The files on disk must hold exactly this report."""
    problems = []
    if csv_path.read_text() != experiments.trace_csv_text(report):
        problems.append("trace CSV on disk differs from the report")
    if json.loads(json_path.read_text()).get("certificates") != report.certificates:
        problems.append("report JSON on disk has other certificates")
    return problems


def check_sweep_output(result, reports, path: Path) -> list:
    """The sweep JSON must summarize every observed run, in sweep order."""
    expected_runs = len(SWEEP_VALUES) * SWEEP_SEEDS
    if len(reports) != expected_runs:
        return [f"sweep ran {len(reports)} experiments, expected {expected_runs}"]
    doc = json.loads(path.read_text())
    if doc != json.loads(json.dumps(result.to_json_dict())):
        return ["sweep JSON on disk differs from the sweep result"]
    tails = np.array([r.tail_max for r in reports]).reshape(len(SWEEP_VALUES), SWEEP_SEEDS)
    if doc["tail_errors_by_seed"] != tails.tolist():
        return ["sweep JSON tail errors differ from the observed runs"]
    if doc["median_tail_errors"] != np.median(tails, axis=1).tolist():
        return ["sweep JSON median tail errors differ from the observed runs"]
    return []
