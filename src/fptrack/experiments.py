"""Configuration-driven experiment runner with bound overlays and certificates.

An experiment builds one problem family, runs the synchronous or asynchronous
tracker, audits the family's declarations by sampling, evaluates every
applicable tracking bound, and checks the realized errors against them. The
report is JSON-serializable and the per-step trace is written as CSV with a
fixed header; reruns of the same config are byte-identical.

Certificate semantics: the "limsup" side of each asymptotic bound is
operationalized as the maximum error over the trailing part of the horizon
(after the configured transient); a bound whose preconditions fail is marked
not applicable, never failed.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from .async_sim import (
    FixedDelay,
    IidDrop,
    PeriodicDelivery,
    ZeroDelay,
    audit_dependency_graph,
    read_schedule_csv,
    run_async_tracker,
)
from .core import (
    estimate_lipschitz,
    map_error_bound_series,
    run_online_tracker,
    verify_map_error,
    verify_self_map,
)
from .domains import DomainSampler
from .errors import ConfigError, PreconditionError
from .norms import L2, LINF, Norm
from .problems import (
    DriftPath,
    build_affine_family,
    build_broadcast_system,
    build_feedback_gradient_map,
    build_gradient_map,
    build_multiarea_maps,
    default_injections,
    scalar_signal,
    three_area_network,
    two_bus_network,
    InjectionSeries,
    PowerNetwork,
    TimeVaryingQP,
    build_loadflow_map,
)

CSV_HEADER = "t,error,per_iterate_bound,asymptotic_bound,realized_Td_so_far,realized_Nd_so_far"

SYNC_TAIL = "sync_tail"
ASYNC_TAIL_MAX_NORM = "async_tail_max_norm"
ASYNC_TAIL_L2_EQUIV = "async_tail_l2_norm_equivalence"
ASYNC_TAIL_L2_REFINED = "async_tail_l2_stale_refined"
PER_STEP = "per_step_envelope"

_BOUND_SLACK = 1e-9


def _f17(x: float) -> str:
    """17-significant-digit decimal form; round-trips doubles exactly."""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


_TOP_KEYS = {
    "problem", "mode", "norm", "channel", "horizon", "transient_fraction",
    "seed", "output", "audit_samples", "declared_lipschitz_override",
}


def _require_keys(doc, allowed, required, where):
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = set(required) - set(doc)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _number(spec, key, default, where, cast=int):
    """``cast`` of ``spec[key]`` (``default`` when absent); ConfigError if it is no number."""
    try:
        return cast(spec.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} {key} must be a number, got {spec.get(key)!r}") from exc


def _path_spec(spec, where, seed, dim=None):
    """``(kind, keyword arguments)`` of a drift spec in R^dim, or of a scalar signal
    spec when ``dim`` is None; absent keys take defaults."""
    if spec is not None and not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object, got {spec!r}")
    spec = dict(spec or {"kind": "constant"})
    _require_keys(spec, {"kind", "rate", "seed", "start", "fast_rate", "fast_window"},
                  {"kind"}, where)
    kw = {"rate": _number(spec, "rate", 0.0, where, float),
          "seed": _number(spec, "seed", seed, where)}
    if dim is None:
        kw["start"] = _number(spec, "start", 0.0, where, float)
    elif spec.get("start") is not None:
        try:
            kw["start"] = np.asarray(spec["start"], dtype=float).reshape(dim)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where} start must be {dim} numbers, got {spec['start']!r}") from exc
    if spec["kind"] == "piecewise":
        kw["fast_rate"] = _number(spec, "fast_rate", 0.0, where, float)
        window = spec.get("fast_window", (1, 1))
        try:
            first, last = (int(w) for w in window)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where} fast_window must be two integers, got {window!r}") from exc
        kw["fast_window"] = (first, last)
    return spec["kind"], kw


def _signal(spec, seed):
    kind, kw = _path_spec(spec, "signal spec", seed)
    return scalar_signal(kind, **kw)


@dataclass
class ExperimentConfig:
    """Validated experiment description (raise ConfigError before computing)."""

    problem: dict
    mode: str
    norm: Norm
    channel: dict
    horizon: int
    transient_fraction: float
    seed: int
    output: str | None
    audit_samples: int
    declared_lipschitz_override: float | None
    raw: dict = field(repr=False, default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("configuration must be a JSON object")
        _require_keys(doc, _TOP_KEYS, {"problem", "mode", "horizon", "seed"}, "config")
        mode = doc["mode"]
        if mode not in ("sync", "async"):
            raise ConfigError(f"mode must be 'sync' or 'async', got {mode!r}")
        norm_kind = doc.get("norm", L2)
        if norm_kind not in (L2, LINF):
            raise ConfigError(f"norm must be '{L2}' or '{LINF}', got {norm_kind!r}")
        horizon = doc["horizon"]
        if not isinstance(horizon, int) or horizon < 1:
            raise ConfigError("horizon must be a positive integer")
        tf = doc.get("transient_fraction", 0.9)
        if not (0.0 <= tf < 1.0):
            raise ConfigError("transient_fraction must lie in [0, 1)")
        seed = doc["seed"]
        if not isinstance(seed, int) or seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        channel = doc.get("channel", {"kind": "none"})
        problem = doc["problem"]
        if not isinstance(problem, dict) or "kind" not in problem:
            raise ConfigError("problem must be an object with a 'kind'")
        if mode == "async" and problem.get("kind") == "qp-gradient" \
                and problem.get("topology", "star") != "star":
            raise ConfigError("asynchronous qp-gradient runs require the star topology")
        override = doc.get("declared_lipschitz_override")
        if override is not None and not (isinstance(override, (int, float)) and 0 < override < 1):
            raise ConfigError("declared_lipschitz_override must lie in (0, 1)")
        audit_samples = doc.get("audit_samples", 2000)
        if not isinstance(audit_samples, int) or audit_samples < 1:
            raise ConfigError("audit_samples must be a positive integer")
        cfg = cls(
            problem=problem,
            mode=mode,
            norm=Norm(norm_kind),
            channel=channel,
            horizon=horizon,
            transient_fraction=float(tf),
            seed=seed,
            output=doc.get("output"),
            audit_samples=audit_samples,
            declared_lipschitz_override=override,
            raw=doc,
        )
        cfg.validate_problem()
        cfg.build_channel()  # fail fast on bad channel configs
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(doc)

    # -- problem construction -------------------------------------------------

    def validate_problem(self):
        kind = self.problem["kind"]
        if kind == "affine":
            _require_keys(
                self.problem,
                {"kind", "dim", "contraction", "coupling", "blockwise", "drift"},
                {"kind", "dim", "contraction"},
                "affine problem",
            )
        elif kind == "qp-gradient":
            _require_keys(
                self.problem,
                {"kind", "devices", "instance_seed", "curvature", "coupling",
                 "tracking_weight", "regularization", "box_lo", "box_hi",
                 "step_size", "noise_bound", "topology", "output_signal",
                 "reference_signal", "adversarial_noise"},
                {"kind", "step_size"},
                "qp-gradient problem",
            )
        elif kind == "loadflow":
            _require_keys(
                self.problem,
                {"kind", "network", "injections", "noise_bound", "multiarea", "radius"},
                {"kind"},
                "loadflow problem",
            )
        else:
            raise ConfigError(f"unknown problem kind {kind!r}")

    def _drift(self, dim, spec):
        kind, kw = _path_spec(spec, "drift spec", self.seed, dim)
        return DriftPath(kind, dim, norm=self.norm, **kw)

    def build_problem(self):
        """Returns (family, graph_or_None, extras dict)."""
        kind = self.problem["kind"]
        p = self.problem
        if kind == "affine":
            dim = _number(p, "dim", None, "affine problem")
            drift = self._drift(dim, p.get("drift"))
            fam = build_affine_family(
                dim, self.norm, _number(p, "contraction", None, "affine problem", float), drift,
                seed=self.seed, coupling=p.get("coupling", "dense"),
                blockwise=bool(p.get("blockwise", False)),
            )
            return fam, fam.dependency_graph(), {}
        if kind == "qp-gradient":
            qp = self._build_qp(p)
            step = _number(p, "step_size", None, "qp-gradient problem", float)
            nb = _number(p, "noise_bound", 0.0, "qp-gradient problem", float)
            if self.mode == "async" or p.get("topology") == "star":
                fam, graph = build_broadcast_system(
                    qp, step, nb, seed=self.seed,
                    adversarial=bool(p.get("adversarial_noise", False)),
                )
                return fam, graph, {"qp": qp}
            if nb > 0.0:
                fam = build_feedback_gradient_map(
                    qp, step, nb, seed=self.seed, norm=self.norm,
                    adversarial=bool(p.get("adversarial_noise", False)),
                )
            else:
                fam = build_gradient_map(qp, step)
            return fam, None, {"qp": qp}
        return self._build_loadflow(p)

    def _build_qp(self, p) -> TimeVaryingQP:
        if "curvature" in p:
            n = len(p["curvature"])
            return TimeVaryingQP(
                curvature=p["curvature"],
                coupling=p.get("coupling", [1.0] * n),
                tracking_weight=_number(p, "tracking_weight", 1.0, "qp-gradient problem", float),
                regularization=_number(p, "regularization", 0.0, "qp-gradient problem", float),
                box_lo=p.get("box_lo", [-1.0] * n),
                box_hi=p.get("box_hi", [1.0] * n),
                output_signal=_signal(p.get("output_signal"), self.seed),
                reference_signal=_signal(p.get("reference_signal"), self.seed),
            )
        from .problems import random_qp

        qp = random_qp(_number(p, "devices", 7, "qp-gradient problem"),
                       seed=_number(p, "instance_seed", self.seed, "qp-gradient problem"))
        qp.output_signal = _signal(p.get("output_signal"), self.seed)
        qp.reference_signal = _signal(p.get("reference_signal"), self.seed)
        return qp

    def _build_loadflow(self, p):
        net_spec = p.get("network", "three-area")
        if net_spec == "three-area":
            net = three_area_network()
        elif net_spec == "two-bus":
            net = two_bus_network()
        elif isinstance(net_spec, dict):
            net = load_network(net_spec)
        else:
            raise ConfigError(f"unknown network {net_spec!r}")
        inj_spec = p.get("injections", {"kind": "constant"})
        _require_keys(inj_spec, {"kind", "load_fraction", "step", "seed", "base"},
                      {"kind"}, "injection spec")
        step = _number(inj_spec, "step", 0.0, "injection spec", float)
        inj_seed = _number(inj_spec, "seed", self.seed, "injection spec")
        if "base" in inj_spec:
            try:
                base = np.array([complex(re, im) for re, im in inj_spec["base"]])
                inj = InjectionSeries(inj_spec["kind"], base, net.injection_limit,
                                      step=step, seed=inj_seed)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad injection spec: {exc}") from exc
        else:
            inj = default_injections(
                net,
                load_fraction=_number(inj_spec, "load_fraction", 0.7, "injection spec", float),
                kind=inj_spec["kind"], step=step, seed=inj_seed,
            )
        nb = _number(p, "noise_bound", 0.0, "loadflow problem", float)
        if p.get("multiarea", self.mode == "async"):
            system = build_multiarea_maps(net, inj, nb, seed=self.seed)
            if not self.norm.is_linf:
                raise ConfigError("multiarea loadflow runs use the linf norm")
            return system.family, system.graph, {"system": system}
        radius = _number(p, "radius", 0.2, "loadflow problem", float)
        fam = build_loadflow_map(net, inj, radius=radius, norm=self.norm)
        return fam, None, {}

    def build_channel(self):
        spec = dict(self.channel or {"kind": "none"})
        kind = spec.get("kind", "none")
        allowed = {
            "none": {"kind"},
            "fixed_delay": {"kind", "delay"},
            "iid_drop": {"kind", "p", "max_consecutive"},
            "periodic": {"kind", "period"},
            "schedule_csv": {"kind", "path", "allow_nonmonotone", "declared_max_delay"},
        }
        if kind not in allowed:
            raise ConfigError(f"unknown channel kind {kind!r}")
        required = {"kind", "path"} if kind == "schedule_csv" else {"kind"}
        _require_keys(spec, allowed[kind], required, "channel spec")
        if kind == "none":
            return ZeroDelay()
        if kind == "fixed_delay":
            return FixedDelay(_number(spec, "delay", 0, "channel"))
        if kind == "iid_drop":
            return IidDrop(_number(spec, "p", 0.1, "channel", float),
                           _number(spec, "max_consecutive", 9, "channel"))
        if kind == "periodic":
            return PeriodicDelivery(_number(spec, "period", 1, "channel"))
        path = spec["path"]
        if not isinstance(path, str):
            raise ConfigError(f"schedule path must be a string, got {path!r}")
        cap = spec.get("declared_max_delay")
        if cap is not None:
            cap = _number(spec, "declared_max_delay", None, "channel")
        try:
            return read_schedule_csv(
                path,
                allow_nonmonotone=bool(spec.get("allow_nonmonotone", False)),
                declared_max_delay=cap,
            )
        except (OSError, ValueError, TypeError) as exc:
            raise ConfigError(f"cannot read schedule {path}: {exc}") from exc


def load_network(doc: dict) -> PowerNetwork:
    """Network from a JSON document: buses, lines with [re, im] impedances,
    per-bus injection limits, optional area assignment."""
    _require_keys(doc, {"buses", "slack_voltage", "lines", "injection_limit", "areas"},
                  {"buses", "slack_voltage", "lines", "injection_limit"}, "network")
    try:
        sv = doc["slack_voltage"]
        slack = complex(sv[0], sv[1]) if isinstance(sv, (list, tuple)) else complex(sv)
        lines = [(a, b, complex(z[0], z[1])) for a, b, z in doc["lines"]]
        return PowerNetwork(int(doc["buses"]), slack, lines, doc["injection_limit"],
                            areas=doc.get("areas"))
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad network document: {exc}") from exc


def load_qp(doc: dict) -> TimeVaryingQP:
    """QP instance from a JSON document (signals default to constants)."""
    _require_keys(doc, {"curvature", "coupling", "tracking_weight", "regularization",
                        "box_lo", "box_hi", "output_signal", "reference_signal"},
                  {"curvature", "coupling", "box_lo", "box_hi"}, "qp")
    return TimeVaryingQP(
        curvature=doc["curvature"],
        coupling=doc["coupling"],
        tracking_weight=float(doc.get("tracking_weight", 1.0)),
        regularization=float(doc.get("regularization", 0.0)),
        box_lo=doc["box_lo"],
        box_hi=doc["box_hi"],
        output_signal=_signal(doc.get("output_signal"), 0),
        reference_signal=_signal(doc.get("reference_signal"), 0),
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    """Everything needed to re-derive each certificate from the trace alone."""

    config: dict
    errors: np.ndarray
    per_step_bounds: np.ndarray
    bound_inputs: dict
    asymptotic_bounds: dict      # name -> value | None (not applicable)
    not_applicable: dict         # name -> reason, for bounds without a value
    certificates: dict           # name -> "pass" | "fail" | "not_applicable"
    tail_start: int
    tail_max: float
    realized_max_delay: int
    realized_max_stale: int
    running_max_delay: np.ndarray
    running_max_stale: np.ndarray
    audits: dict
    drift_series: np.ndarray

    @property
    def passed(self) -> bool:
        return all(v != "fail" for v in self.certificates.values())

    @property
    def audits_passed(self) -> bool:
        return all(a.get("ok", True) for a in self.audits.values())

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "bound_inputs": self.bound_inputs,
            "asymptotic_bounds": {k: v for k, v in self.asymptotic_bounds.items()},
            "not_applicable": self.not_applicable,
            "certificates": self.certificates,
            "tail_start": self.tail_start,
            "tail_max": self.tail_max,
            "realized_max_delay": self.realized_max_delay,
            "realized_max_stale": self.realized_max_stale,
            "audits": self.audits,
        }


def _applicable_bounds(mode, norm: Norm, inputs: bnd.BoundInputs):
    """Evaluate each asymptotic bound, recording values or the failing reason."""
    values, reasons = {}, {}

    def attempt(name, fn, condition=True, reason=""):
        if not condition:
            reasons[name] = reason
            return
        try:
            values[name] = fn(inputs)
        except PreconditionError as exc:
            reasons[name] = str(exc)

    attempt(SYNC_TAIL, bnd.tracking_bound_sync, condition=(mode == "sync"),
            reason="synchronous bound applies to synchronous runs only")
    if mode == "async":
        attempt(ASYNC_TAIL_MAX_NORM, bnd.tracking_bound_async_inf,
                condition=norm.is_linf, reason="requires the linf norm")
        attempt(ASYNC_TAIL_L2_EQUIV, bnd.tracking_bound_async_l2_equiv,
                condition=norm.is_l2, reason="requires the l2 norm")
        attempt(ASYNC_TAIL_L2_REFINED, bnd.tracking_bound_async_l2_refined,
                condition=norm.is_l2, reason="requires the l2 norm")
    return values, reasons


def build_family(config: ExperimentConfig):
    """Problem family + graph with the declared override (if any) applied.

    The override replaces the declared contraction factor, modeling a user
    supplying their own trusted constant; audits validate it against sampling.
    """
    family, graph, extras = config.build_problem()
    if config.declared_lipschitz_override is not None:
        base = getattr(family, "base", family)
        ov = float(config.declared_lipschitz_override)
        base._lipschitz = lambda t, c=ov: c
        base.lipschitz_sup = ov
    return family, graph, extras


def run_experiment(config: ExperimentConfig, write_files=True) -> ExperimentReport:
    """Build, run, audit, bound, certify; optionally write trace CSV + report JSON."""
    family, graph, extras = build_family(config)
    if config.norm.kind != family.declared_norm.kind:
        raise ConfigError(
            f"family declares its contraction in {family.declared_norm.kind}; "
            f"config asks for {config.norm.kind}"
        )
    horizon = config.horizon
    x0 = family.domain.anchor()
    if config.mode == "sync":
        trace = run_online_tracker(family, x0, horizon, config.norm)
        stats = None
    else:
        if graph is None:
            raise ConfigError("asynchronous mode needs a block decomposition")
        trace, stats = run_async_tracker(
            family, graph, config.build_channel(), x0, horizon, config.norm,
            seed=config.seed,
        )

    # Per-step bound envelope from declared constants and realized drift.
    lipschitz_series = np.array([family.lipschitz_at(t) for t in range(1, horizon)])
    error_series = map_error_bound_series(family, horizon)
    drifts = trace.reference.drifts
    per_step = bnd.per_step_bound_series(
        trace.errors[0], error_series, drifts, lipschitz_series, horizon - 1
    )

    inputs = bnd.BoundInputs(
        lipschitz=family.lipschitz_sup,
        map_error=family.error_sup,
        drift=trace.reference.drift_sup,
        max_delay=stats.max_delay if stats else 0,
        max_stale=stats.max_stale if stats else 0,
        dim=family.dim,
        norm=config.norm,
    )
    values, reasons = _applicable_bounds(config.mode, config.norm, inputs)

    tail_start = min(horizon - 1, int(np.floor(horizon * config.transient_fraction)))
    tail_max = float(trace.errors[tail_start:].max())
    certificates = {}
    for name, value in values.items():
        certificates[name] = "pass" if tail_max <= value + _BOUND_SLACK else "fail"
    for name in reasons:
        certificates[name] = "not_applicable"
    if config.mode == "sync":
        ok = bool(np.all(trace.errors <= per_step + _BOUND_SLACK))
        certificates[PER_STEP] = "pass" if ok else "fail"
    else:
        certificates[PER_STEP] = "not_applicable"
        reasons[PER_STEP] = "per-step envelope assumes synchronous updates"

    audits = _run_audits(config, family, graph)

    # Row k of the trace is the state at time k+1, produced at evaluation
    # tick k; "so far" statistics therefore cover ticks 1..k.
    running_delay = np.zeros(horizon, dtype=int)
    running_stale = np.zeros(horizon, dtype=int)
    if stats is not None:
        running_delay[1:] = np.maximum.accumulate(stats.delay_by_tick)
        running_stale[1:] = np.maximum.accumulate(stats.stale_by_tick)

    report = ExperimentReport(
        config=config.raw,
        errors=trace.errors,
        per_step_bounds=per_step,
        bound_inputs={
            "lipschitz": inputs.lipschitz,
            "map_error": inputs.map_error,
            "drift": inputs.drift,
            "max_delay": inputs.max_delay,
            "max_stale": inputs.max_stale,
            "dim": inputs.dim,
            "norm": config.norm.kind,
        },
        asymptotic_bounds=values,
        not_applicable=reasons,
        certificates=certificates,
        tail_start=tail_start,
        tail_max=tail_max,
        realized_max_delay=inputs.max_delay,
        realized_max_stale=inputs.max_stale,
        running_max_delay=running_delay,
        running_max_stale=running_stale,
        audits=audits,
        drift_series=drifts,
    )
    if write_files and config.output:
        write_report_files(report, config.output)
    return report


def _run_audits(config: ExperimentConfig, family, graph) -> dict:
    n = config.audit_samples
    norm = config.norm
    sampler = DomainSampler(family.domain, config.seed + 7919)
    base = getattr(family, "base", family)
    est = estimate_lipschitz(base, 1, sampler, n, norm)
    audits = {
        "lipschitz": {
            "estimate": est.value,
            "declared": family.lipschitz_sup,
            "ok": bool(est.value <= family.lipschitz_sup + _BOUND_SLACK),
            "samples": n,
        }
    }
    sm = verify_self_map(base, 1, DomainSampler(family.domain, config.seed + 104729), n)
    audits["self_map"] = {"ok": bool(sm.ok), "samples": n}
    if family.error_sup > 0.0:
        me = verify_map_error(
            family, 1, DomainSampler(family.domain, config.seed + 1299709),
            max(n // 10, 10), norm,
        )
        audits["map_error"] = {
            "observed": me.max_observed, "bound": me.bound, "ok": bool(me.ok),
            "samples": me.n_checked,
        }
    if graph is not None:
        ok, violations = audit_dependency_graph(family, graph, probe_count=8,
                                                seed=config.seed)
        audits["dependency_graph"] = {"ok": bool(ok), "violations": list(map(list, violations))}
    return audits


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-fptrack-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trace_csv_text(report: ExperimentReport) -> str:
    """The per-step trace table (fixed header, 17-digit floats)."""
    applicable = [v for v in report.asymptotic_bounds.values()]
    asymptotic = min(applicable) if applicable else float("nan")
    lines = [CSV_HEADER]
    n = len(report.errors)
    for k in range(n):
        lines.append(
            ",".join(
                [
                    str(k + 1),
                    _f17(report.errors[k]),
                    _f17(report.per_step_bounds[k]),
                    _f17(asymptotic),
                    str(int(report.running_max_delay[k])),
                    str(int(report.running_max_stale[k])),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_report_files(report: ExperimentReport, output_prefix: str):
    """Write <prefix>.csv (trace) and <prefix>.json (report) atomically."""
    _atomic_write(output_prefix + ".csv", trace_csv_text(report))
    _atomic_write(
        output_prefix + ".json",
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True, default=float) + "\n",
    )


def verify_bounds(report: ExperimentReport) -> dict:
    """Recompute each certificate from the stored trace and bound inputs."""
    out = {}
    inputs = bnd.BoundInputs(
        lipschitz=report.bound_inputs["lipschitz"],
        map_error=report.bound_inputs["map_error"],
        drift=report.bound_inputs["drift"],
        max_delay=report.bound_inputs["max_delay"],
        max_stale=report.bound_inputs["max_stale"],
        dim=report.bound_inputs["dim"],
        norm=Norm(report.bound_inputs["norm"]),
    )
    mode = report.config.get("mode", "sync")
    values, reasons = _applicable_bounds(mode, inputs.norm, inputs)
    tail_max = float(report.errors[report.tail_start:].max())
    for name, value in values.items():
        out[name] = "pass" if tail_max <= value + _BOUND_SLACK else "fail"
    for name in reasons:
        out[name] = "not_applicable"
    if mode == "sync":
        ok = bool(np.all(report.errors <= report.per_step_bounds + _BOUND_SLACK))
        out[PER_STEP] = "pass" if ok else "fail"
    else:
        out[PER_STEP] = "not_applicable"
    return out


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_PARAMETERS = ("drop_probability", "fixed_delay", "step_size", "noise_bound", "drift_rate")


def _config_with(config: ExperimentConfig, parameter: str, value, seed=None) -> ExperimentConfig:
    doc = json.loads(json.dumps(config.raw))  # deep copy
    if seed is not None:
        doc["seed"] = int(seed)
    doc.pop("output", None)
    if parameter == "drop_probability":
        doc["channel"] = {"kind": "iid_drop", "p": float(value),
                          **({"max_consecutive": config.channel.get("max_consecutive")}
                             if isinstance(config.channel, dict)
                             and config.channel.get("max_consecutive") is not None else {})}
        if float(value) == 0.0:
            doc["channel"] = {"kind": "none"}
    elif parameter == "fixed_delay":
        doc["channel"] = {"kind": "fixed_delay", "delay": int(value)}
    elif parameter == "step_size":
        doc["problem"]["step_size"] = float(value)
    elif parameter == "noise_bound":
        doc["problem"]["noise_bound"] = float(value)
    elif parameter == "drift_rate":
        drift = dict(doc["problem"].get("drift") or {"kind": "linear"})
        drift["rate"] = float(value)
        doc["problem"]["drift"] = drift
    else:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMETERS}")
    return ExperimentConfig.from_dict(doc)


@dataclass
class SweepResult:
    parameter: str
    values: list
    tail_errors: list          # median over seeds, one per value
    tail_errors_by_seed: list  # list of per-seed lists
    bounds: list               # tightest applicable asymptotic bound per value (or None)
    reports: list              # per value, the report of every seed in seed order
    monotone_nondecreasing: bool

    def to_json_dict(self):
        return {
            "parameter": self.parameter,
            "values": [float(v) for v in self.values],
            "median_tail_errors": [float(x) for x in self.tail_errors],
            "tail_errors_by_seed": [[float(x) for x in row] for row in self.tail_errors_by_seed],
            "bounds": [None if b is None else float(b) for b in self.bounds],
            "monotone_nondecreasing": self.monotone_nondecreasing,
        }


def sweep(config: ExperimentConfig, parameter: str, values, n_seeds=1) -> SweepResult:
    """Rerun the experiment across parameter values (and seeds); summarize tails.

    Seeds vary only the run randomness (channels, noise), not the instance.
    The summary reports per-value median tail errors and whether the medians
    are nondecreasing along the given value order. The result keeps the report
    of every run, so callers can check each seed's certificates and audits.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMETERS}")
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    if int(n_seeds) < 1:
        raise ConfigError("sweep needs at least one seed")
    tails, by_seed, bound_col, reports = [], [], [], []
    for v in values:
        seed_reports = [
            run_experiment(_config_with(config, parameter, v, seed=config.seed + 1000 * k),
                           write_files=False)
            for k in range(int(n_seeds))
        ]
        seed_tails = [rep.tail_max for rep in seed_reports]
        by_seed.append(seed_tails)
        tails.append(float(np.median(seed_tails)))
        # the bound column is read from the last seed's report
        applicable = list(seed_reports[-1].asymptotic_bounds.values())
        bound_col.append(min(applicable) if applicable else None)
        reports.append(seed_reports)
    mono = bool(np.all(np.diff(tails) >= -1e-12))
    return SweepResult(parameter, values, tails, by_seed, bound_col, reports, mono)
