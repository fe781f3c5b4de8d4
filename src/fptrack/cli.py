"""Command-line front end for the experiment runner.

Commands:

* ``run <config.json>``    -- one experiment; writes trace CSV + report JSON.
* ``sweep <config.json> --param NAME --values v1,v2,...`` -- rerun across a
  parameter (optionally multi-seed) and summarize tail errors.
* ``bounds <inputs.json>`` -- print every bound formula for given inputs.
* ``audit <config.json>``  -- assumption checks only (no tracking run).

Exit codes: 0 success, 2 configuration error, 3 certificate failure,
4 assumption-audit failure. Any certificate failure is loud by design.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bnd
from .errors import ConfigError, FixedTrackError
from .experiments import (
    ExperimentConfig,
    SWEEP_PARAMETERS,
    _atomic_write,
    _f17,
    audit_phase,
    build_phase,
    check_writable,
    run_experiment,
    sweep,
)
from .norms import Norm
from .schema import load_json, nonempty_text, read

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATE = 3
EXIT_AUDIT = 4


def _print_certificates(report):
    for name in sorted(report.certificates):
        status = report.certificates[name]
        line = f"  [{status.upper():>14}] {name}"
        if name in report.asymptotic_bounds:
            line += f"  bound={_f17(report.asymptotic_bounds[name])}"
        elif name in report.not_applicable:
            line += f"  ({report.not_applicable[name]})"
        print(line)


def _print_audits(audits):
    for name, a in sorted(audits.items()):
        print(f"  [{'OK' if a.get('ok', True) else 'FAIL':>4}] {name}: "
              + ", ".join(f"{k}={v}" for k, v in a.items() if k != "ok"))


def _exit_code(reports) -> int:
    """A failed audit outranks a failed certificate."""
    if not all(rep.audits_passed for rep in reports):
        return EXIT_AUDIT
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_CERTIFICATE


def cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.output is not None:
        config.output = nonempty_text(args.output, "--output")
    report = run_experiment(config)
    print(f"horizon={len(report.errors)} tail_max={_f17(report.tail_max)} "
          f"realized_max_delay={report.realized_max_delay} "
          f"realized_max_stale={report.realized_max_stale}")
    _print_certificates(report)
    _print_audits(report.audits)
    if config.output:
        print(f"wrote {config.output}.csv and {config.output}.json")
    return _exit_code([report])


def cmd_sweep(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse sweep values {args.values!r}") from exc
    if args.output is not None:
        check_writable(nonempty_text(args.output, "--output"))
    result = sweep(config, args.param, values, n_seeds=args.seeds)
    print(f"sweep over {args.param} ({args.seeds} seed(s) per value)")
    print("value,median_tail_error,tightest_bound")
    for v, tail, bound in zip(result.values, result.tail_errors, result.bounds):
        print(f"{_f17(v)},{_f17(tail)},{'' if bound is None else _f17(bound)}")
    print(f"median tail errors nondecreasing: {result.monotone_nondecreasing}")
    if args.output:
        _atomic_write(args.output, json.dumps(result.to_json_dict(), indent=2) + "\n")
        print(f"wrote {args.output}")
    return _exit_code([rep for seed_reports in result.reports for rep in seed_reports])


def cmd_bounds(args) -> int:
    values = read(load_json(args.inputs, "inputs"), "bound inputs")
    smoothness, regularization = values.pop("smoothness"), values.pop("regularization")
    inputs = bnd.BoundInputs(**dict(values, norm=Norm(values["norm"])))

    def show(label, fn):
        try:
            print(f"  {label}: {_f17(fn(inputs))}")
        except FixedTrackError as exc:
            print(f"  {label}: not applicable ({exc})")

    print(f"inputs: lipschitz={inputs.lipschitz} map_error={inputs.map_error} "
          f"drift={inputs.drift} max_delay={inputs.max_delay} "
          f"max_stale={inputs.max_stale} dim={inputs.dim} norm={inputs.norm.kind}")
    show("synchronous tail bound", bnd.tracking_bound_sync)
    show("asynchronous tail bound (max norm)", bnd.tracking_bound_async_inf)
    show("asynchronous tail bound (l2, norm equivalence)", bnd.tracking_bound_async_l2_equiv)
    show("asynchronous tail bound (l2, stale-count refined)", bnd.tracking_bound_async_l2_refined)
    if smoothness is not None:
        print(f"  min regularization for max_stale={inputs.max_stale}: "
              f"{_f17(bnd.min_regularization(smoothness, inputs.max_stale))}")
        if regularization is not None:
            window = bnd.gradient_step_window(smoothness, regularization, inputs.max_stale)
            if window is None:
                print("  gradient step window: empty")
            else:
                print(f"  gradient step window: [{_f17(window[0])}, {_f17(window[1])}]")
    return EXIT_OK


def cmd_audit(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    family, graph = build_phase(config)
    audits = audit_phase(config, family, graph)
    _print_audits(audits)
    ok = all(a.get("ok", True) for a in audits.values())
    return EXIT_OK if ok else EXIT_AUDIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fptrack",
        description="Track fixed points of time-varying contraction maps and "
                    "verify every tracking-error bound against the run.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None, help="output path prefix (CSV + JSON)")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="rerun an experiment across parameter values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMETERS)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--seeds", type=int, default=1)
    p_sweep.add_argument("--output", default=None, help="summary JSON path")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="print all bound formulas for given inputs")
    p_bounds.add_argument("inputs")
    p_bounds.set_defaults(fn=cmd_bounds)

    p_audit = sub.add_parser("audit", help="assumption audits only")
    p_audit.add_argument("config")
    p_audit.set_defaults(fn=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FixedTrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run_main():  # console-script entry point
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
