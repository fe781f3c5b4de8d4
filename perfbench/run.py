"""fptrack benchmark: run one workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload async-affine-chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
program under test is imported from ``src/`` of the same checkout; the
benchmark exits with status 2, printing no result, when it is missing.
See README.md for the workloads, the metrics and what each layer metric
should move.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads: the matrices are at most 48x48,
# so extra threads would only add scheduler noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_SETUPS = 5
MAX_SETUPS = 200
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 900
KERNEL_ITERATIONS = 1_000_000
REFERENCE_KERNEL_S = 0.040   # speed-kernel seconds that define one reference second

END_TO_END = {
    "wall_s": "s",
    "ticks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "core.reference_s": "s",
    "core.solve_calls": "count",
    "core.solve_evals": "count",
    "core.tracker.self_s": "s",
    "core.audit_s": "s",
    "problems.evaluate_calls": "count",
    "problems.evaluate_s": "s",
    "problems.build_s": "s",
    "async_sim.ticks": "count",
    "async_sim.agent_evals": "count",
    "async_sim.step_s": "s",
    "async_sim.channel_start_s": "s",
    "async_sim.log_rows": "count",
    "async_sim.log_bytes": "bytes",
    "async_sim.delay_stats_s": "s",
    "async_sim.graph_audit_s": "s",
    "bounds.per_step_s": "s",
    "bounds.closed_form_s": "s",
    "experiments.runs": "count",
    "experiments.run.self_s": "s",
    "experiments.output_s": "s",
    "experiments.output_bytes": "bytes",
    "experiments.self_s": "s",
    "core.self_s": "s",
    "problems.self_s": "s",
    "async_sim.self_s": "s",
    "bounds.self_s": "s",
    "trace.overhead_s": "s",
}
COUNT_METRICS = {k for k, u in PER_LAYER_UNITS.items() if u in ("count", "bytes")}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import fptrack from this checkout's src/ (never from elsewhere)."""
    if not (SRC / "fptrack" / "__init__.py").is_file():
        raise BenchmarkError(f"no fptrack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fptrack

    if Path(fptrack.__file__).resolve().parent != (SRC / "fptrack").resolve():
        raise BenchmarkError(f"imported fptrack from {fptrack.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads_runtime": _openblas_runtime_threads(),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def quartiles(values) -> dict:
    values = list(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed experiments with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, outcome):
        self.attempted += outcome.attempted
        self.failed += len(outcome.failures)
        self.reasons.extend(outcome.failures[: max(0, 5 - len(self.reasons))])


def speed_kernel() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's current speed.

    The loop does not touch fptrack, so a change to the program cannot move
    it; only the machine's state (other tenants, frequency) can.
    """
    start = time.perf_counter()
    total = 0
    for k in range(KERNEL_ITERATIONS):
        total += k
    return time.perf_counter() - start


def timed_run(workload, seed, seconds, out_dir) -> dict:
    """End-to-end metrics, tracing off: set-up samples, then the closed loop.

    Every sample is timed in units of the speed kernel run just before it and
    reported in reference seconds (README.md); each metric is the median.
    """
    from workloads import iteration_seed, run_once, setup_once

    setups, setup_kernels = [], []
    budget = min(3.0, seconds / 4)
    begin = time.perf_counter()
    while len(setups) < MIN_SETUPS or (
            time.perf_counter() - begin < budget and len(setups) < MAX_SETUPS):
        setup_kernels.append(speed_kernel())
        setups.append(setup_once(workload, seed))
        gc.collect()

    tally, walls, rates, kernels, first = Tally(), [], [], [], None
    begin = time.perf_counter()
    i = 0
    while i < MIN_ITERATIONS or time.perf_counter() - begin < seconds:
        kernels.append(speed_kernel())
        outcome = run_once(workload, iteration_seed(seed, i), out_dir)
        first = first or outcome
        tally.add(outcome)
        walls.append(outcome.wall_s)
        rates.append(outcome.ticks / outcome.wall_s)
        gc.collect()  # free this experiment's reference cycles before the next
        i += 1
    values = {
        "wall_s": REFERENCE_KERNEL_S * statistics.median(
            w / k for w, k in zip(walls, kernels)),
        "ticks_per_s": statistics.median(
            r * k for r, k in zip(rates, kernels)) / REFERENCE_KERNEL_S,
        "setup_s": REFERENCE_KERNEL_S * statistics.median(
            s / k for s, k in zip(setups, setup_kernels)),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
        "samples": {"wall_s": quartiles(walls), "ticks_per_s": quartiles(rates),
                    "setup_s": quartiles(setups), "kernel_s": quartiles(kernels),
                    "setup_kernel_s": quartiles(setup_kernels)},
        "tally": tally,
        "first": first,
    }


def traced_run(workload, seed, seconds, out_dir) -> dict:
    """Per-layer metrics: untraced and traced experiments in pairs, same inputs.

    Counts are those of the first traced experiment (seed = --seed), so they
    repeat exactly for a seed; times are medians over the traced experiments.
    The first traced experiment's spans are written out at the end.
    """
    from tracer import Tracer, layer_metrics, write_spans_csv
    from workloads import iteration_seed, run_once

    tally, per_iteration, overheads, first = Tally(), [], [], None
    first_spans = []
    begin = time.perf_counter()
    i = 0
    while i < MIN_TRACED_PAIRS or time.perf_counter() - begin < seconds:
        s = iteration_seed(seed, i)
        plain = run_once(workload, s, out_dir)
        gc.collect()
        tracer = Tracer()
        traced = run_once(workload, s, out_dir, tracer=tracer)
        if traced.digest != plain.digest:
            traced.failures = traced.failures or [
                "tracing changed the output"] * traced.attempted
        first = first or traced
        tally.add(plain)
        tally.add(traced)
        metrics = layer_metrics(tracer.spans, tracer.counts)
        metrics["experiments.output_bytes"] = traced.output_bytes
        per_iteration.append(metrics)
        overheads.append(traced.wall_s - plain.wall_s)
        if i == 0:
            first_spans = tracer.spans
        del tracer
        gc.collect()
        i += 1
    write_spans_csv(out_dir / f"spans-seed{seed}.csv", first_spans)
    values = {}
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead_s":
            values[name] = statistics.median(overheads)
        elif name in COUNT_METRICS:
            values[name] = per_iteration[0][name]
        else:
            values[name] = statistics.median(m[name] for m in per_iteration)
    return {
        "metrics": {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()},
        "samples": {"traced_pairs": len(per_iteration)},
        "tally": tally,
        "first": first,
    }


def run_workload(args) -> int:
    try:
        import_program()
        from workloads import WORKLOADS
    except (BenchmarkError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    run = (traced_run if args.trace else timed_run)(workload, args.seed, args.seconds, out_dir)
    tally, first = run["tally"], run["first"]
    correct = tally.failed == 0 and tally.attempted > 0
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "first_experiment": {"digest_sha256": first.digest,
                             "output_bytes": first.output_bytes, "ticks": first.ticks},
        "samples": run["samples"], "metrics": run["metrics"],
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted if tally.attempted else None,
        "failure_reasons": tally.reasons,
    }
    result_path = out_dir / f"result-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"output digest sha256={first.digest} bytes={first.output_bytes} "
          f"(first experiment, seed {args.seed})")
    for name, m in run["metrics"].items():
        spread = run["samples"].get(name)
        extra = (f"  (measured: median {spread['median']:.6g}, quartiles "
                 f"{spread['q1']:.6g}..{spread['q3']:.6g}, n={spread['n']})" if spread else "")
        print(f"{name} = {m['value']!r} {m['unit']}{extra}")
    print(f"error_rate = {record['error_rate']!r} ({tally.failed} of {tally.attempted} "
          f"experiments failed the gate)")
    for reason in tally.reasons:
        print(f"failure: {reason}")
    print(f"wrote {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": run["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    try:
        import_program()
        from workloads import WORKLOADS
    except (BenchmarkError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        print()
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
