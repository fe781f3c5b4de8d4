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
    run_experiment,
    sweep,
)
from .norms import L2, LINF, Norm

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


def _print_audits(report):
    for name, a in sorted(report.audits.items()):
        print(f"  [{'OK' if a.get('ok', True) else 'FAIL':>4}] {name}: "
              + ", ".join(f"{k}={v}" for k, v in a.items() if k != "ok"))


def cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.output:
        config.output = args.output
    report = run_experiment(config)
    print(f"horizon={len(report.errors)} tail_max={_f17(report.tail_max)} "
          f"realized_max_delay={report.realized_max_delay} "
          f"realized_max_stale={report.realized_max_stale}")
    _print_certificates(report)
    _print_audits(report)
    if config.output:
        print(f"wrote {config.output}.csv and {config.output}.json")
    if not report.audits_passed:
        return EXIT_AUDIT
    if not report.passed:
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse sweep values {args.values!r}") from exc
    result = sweep(config, args.param, values, n_seeds=args.seeds)
    print(f"sweep over {args.param} ({args.seeds} seed(s) per value)")
    print("value,median_tail_error,tightest_bound")
    for v, tail, bound in zip(result.values, result.tail_errors, result.bounds):
        print(f"{_f17(v)},{_f17(tail)},{'' if bound is None else _f17(bound)}")
    print(f"median tail errors nondecreasing: {result.monotone_nondecreasing}")
    if args.output:
        _atomic_write(args.output, json.dumps(result.to_json_dict(), indent=2) + "\n")
        print(f"wrote {args.output}")
    reports = [rep for seed_reports in result.reports for rep in seed_reports]
    failed_certs = any(not rep.passed for rep in reports)
    failed_audits = any(not rep.audits_passed for rep in reports)
    if failed_audits:
        return EXIT_AUDIT
    if failed_certs:
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_bounds(args) -> int:
    try:
        with open(args.inputs) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read inputs {args.inputs}: {exc}") from exc
    known = {"lipschitz", "map_error", "drift", "max_delay", "max_stale", "dim", "norm",
             "smoothness", "regularization"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in bound inputs")
    if "lipschitz" not in doc:
        raise ConfigError("bound inputs require at least 'lipschitz'")
    norm_kind = doc.get("norm", L2)
    if norm_kind not in (L2, LINF):
        raise ConfigError(f"norm must be '{L2}' or '{LINF}'")
    inputs = bnd.BoundInputs(
        lipschitz=float(doc["lipschitz"]),
        map_error=float(doc.get("map_error", 0.0)),
        drift=float(doc.get("drift", 0.0)),
        max_delay=int(doc.get("max_delay", 0)),
        max_stale=int(doc.get("max_stale", 0)),
        dim=int(doc.get("dim", 1)),
        norm=Norm(norm_kind),
    )

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
    if "smoothness" in doc:
        m = float(doc["smoothness"])
        print(f"  min regularization for max_stale={inputs.max_stale}: "
              f"{_f17(bnd.min_regularization(m, inputs.max_stale))}")
        if "regularization" in doc:
            window = bnd.gradient_step_window(m, float(doc["regularization"]), inputs.max_stale)
            if window is None:
                print("  gradient step window: empty")
            else:
                print(f"  gradient step window: [{_f17(window[0])}, {_f17(window[1])}]")
    return EXIT_OK


def cmd_audit(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    from .experiments import _run_audits, build_family

    family, graph, _ = build_family(config)
    audits = _run_audits(config, family, graph)

    class _Shim:
        pass

    shim = _Shim()
    shim.audits = audits
    _print_audits(shim)
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
