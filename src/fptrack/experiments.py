"""Configuration-driven experiment runner with bound overlays and certificates.

An experiment runs in phases: it builds one problem family, computes the
reference fixed points, audits the family's declarations by sampling, runs
the synchronous or asynchronous tracker, evaluates every applicable tracking
bound and checks the realized errors against them, and reports. A sweep
computes the phases that a swept value leaves unchanged in the first run of
each seed. The report is JSON-serializable and the per-step trace is written
as CSV with a fixed header; reruns of the same config are byte-identical.

Certificate semantics: the "limsup" side of each asymptotic bound is
operationalized as the maximum error over the trailing part of the horizon
(after the configured transient); a bound whose preconditions fail is marked
not applicable, never failed.
"""
from __future__ import annotations

import copy
import errno
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from itertools import chain

import numpy as np

from . import bounds as bnd
from .async_sim import (
    ChannelModel,
    FixedDelay,
    IidDrop,
    PeriodicDelivery,
    ZeroDelay,
    audit_dependency_graph,
    read_schedule_csv,
    run_async_tracker,
)
from .core import (
    FixedPointSeries,
    _tracker_score,
    compute_fixed_point_series,
    estimate_lipschitz,
    map_error_bound_series,
    rounding_slack,
    run_lockstep_tracker,
    run_online_tracker,
    verify_map_error,
    verify_self_map,
)
from .domains import DomainSampler
from .errors import ConfigError, PreconditionError
from .norms import Norm
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
    random_qp,
)
from .schema import load_json, read

CSV_HEADER = "t,error,per_iterate_bound,asymptotic_bound,realized_Td_so_far,realized_Nd_so_far"

SYNC_TAIL = "sync_tail"
ASYNC_TAIL_MAX_NORM = "async_tail_max_norm"
ASYNC_TAIL_L2_EQUIV = "async_tail_l2_norm_equivalence"
ASYNC_TAIL_L2_REFINED = "async_tail_l2_stale_refined"
PER_STEP = "per_step_envelope"


def _f17(x: float) -> str:
    """17-significant-digit decimal form; round-trips doubles exactly (``nan``
    for either sign of NaN)."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


# Keys of a qp-gradient problem that only one form of its instance reads.
_RANDOM_QP_KEYS = {"devices", "instance_seed"}
_INLINE_QP_KEYS = {"coupling", "box_lo", "box_hi", "tracking_weight", "regularization"}


def _seeded(spec, seed):
    """Keyword arguments of a read spec: all but its kind, with an absent seed set
    when its kind reads one."""
    kw = {k: v for k, v in spec.items() if k != "kind"}
    if "seed" in kw and kw["seed"] is None:
        kw["seed"] = seed
    return kw


def _signal(spec, seed):
    return scalar_signal(spec["kind"], **_seeded(spec, seed))


@dataclass
class ExperimentConfig:
    """Values read from a config document (``problem`` and ``channel`` too, with
    defaults filled in); ``raw`` is the document exactly as given, and
    ``channel_model`` the channel its runs use, built once from ``channel``
    when not given (a sweep passes on a channel its value leaves unchanged)."""

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
    channel_model: ChannelModel | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.channel_model is None:
            self.channel_model = self.build_channel()

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return cls(**_config_values(doc), raw=doc)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(load_json(path, "config"))

    # -- problem construction -------------------------------------------------

    def build_problem(self):
        """Returns (family, graph_or_None, extras dict)."""
        p = self.problem
        if p["kind"] == "affine":
            dim, drift = p["dim"], _seeded(p["drift"], self.seed)
            if drift["start"] is not None and len(drift["start"]) != dim:
                raise ConfigError(f"drift spec start must be {dim} numbers, got {drift['start']}")
            fam = build_affine_family(
                dim, self.norm, p["contraction"],
                DriftPath(p["drift"]["kind"], dim, norm=self.norm, **drift),
                seed=self.seed, coupling=p["coupling"], blockwise=p["blockwise"],
            )
            return fam, fam.dependency_graph(), {}
        if p["kind"] == "qp-gradient":
            qp = self._build_qp(p)
            step, nb = p["step_size"], p["noise_bound"]
            if self.mode == "async" or p["topology"] == "star":
                fam, graph = build_broadcast_system(
                    qp, step, nb, seed=self.seed, adversarial=p["adversarial_noise"],
                )
                return fam, graph, {"qp": qp}
            if nb > 0.0:
                fam = build_feedback_gradient_map(
                    qp, step, nb, seed=self.seed, norm=self.norm,
                    adversarial=p["adversarial_noise"],
                )
            else:
                fam = build_gradient_map(qp, step)
            return fam, None, {"qp": qp}
        return self._build_loadflow(p)

    def _build_qp(self, p) -> TimeVaryingQP:
        if p["curvature"] is not None:
            return _qp(p, self.seed)
        seed = p["instance_seed"]
        qp = random_qp(p["devices"], seed=self.seed if seed is None else seed)
        qp.output_signal = _signal(p["output_signal"], self.seed)
        qp.reference_signal = _signal(p["reference_signal"], self.seed)
        return qp

    def _build_loadflow(self, p):
        if isinstance(p["network"], dict):
            net = _network(p["network"])
        else:
            net = {"three-area": three_area_network, "two-bus": two_bus_network}[p["network"]]()
        inj = _seeded(p["injections"], self.seed)
        kind, base, load_fraction = p["injections"]["kind"], inj.pop("base"), inj.pop("load_fraction")
        if base is None:
            series = default_injections(net, load_fraction=load_fraction, kind=kind, **inj)
        elif len(base) != net.n:
            raise ConfigError(f"injection spec base must have {net.n} entries, got {len(base)}")
        else:
            series = InjectionSeries(kind, base, net.injection_limit, **inj)
        multiarea = self.mode == "async" if p["multiarea"] is None else p["multiarea"]
        if multiarea:
            if not self.norm.is_linf:
                raise ConfigError("multiarea loadflow runs use the linf norm")
            system = build_multiarea_maps(net, series, p["noise_bound"], seed=self.seed)
            return system.family, system.graph, {"system": system}
        fam = build_loadflow_map(net, series, radius=p["radius"], norm=self.norm)
        return fam, None, {}

    def build_channel(self):
        spec = dict(self.channel)
        kind = spec.pop("kind")
        if kind != "schedule_csv":
            return _CHANNELS[kind](**spec)
        try:
            return read_schedule_csv(**spec)
        except (OSError, ValueError, TypeError) as exc:
            raise ConfigError(f"cannot read schedule {spec['path']}: {exc}") from exc


def _config_values(doc: dict) -> dict:
    """The checked values of a config document, the fields of its config."""
    values = read(doc, "config")
    p = values["problem"]
    if p["kind"] == "qp-gradient":
        if values["mode"] == "async" and p["topology"] == "none":
            raise ConfigError("asynchronous qp-gradient runs require the star topology")
        inline = p["curvature"] is not None
        given = {k for k, v in doc["problem"].items() if v is not None}
        unused = sorted(given & (_RANDOM_QP_KEYS if inline else _INLINE_QP_KEYS))
        if unused:
            form = "an inline instance (curvature given)" if inline else "a random instance"
            raise ConfigError(f"qp-gradient keys {unused} do not apply to {form}")
    return dict(values, norm=Norm(values["norm"]))


_CHANNELS = {"none": ZeroDelay, "fixed_delay": FixedDelay, "iid_drop": IidDrop,
             "periodic": PeriodicDelivery}


def _network(v) -> PowerNetwork:
    n = v["buses"]
    for key in ("injection_limit", "areas"):
        if v[key] is not None and len(v[key]) != n:
            raise ConfigError(f"network {key} must have {n} entries, got {len(v[key])}")
    return PowerNetwork(n, v["slack_voltage"], v["lines"], v["injection_limit"], areas=v["areas"])


def load_network(doc: dict) -> PowerNetwork:
    """Network from a JSON document: buses, lines with [re, im] impedances,
    per-bus injection limits, optional area assignment."""
    return _network(read(doc, "network"))


def _qp(v, seed) -> TimeVaryingQP:
    n = len(v["curvature"])
    lists = {}
    for key, fill in (("coupling", 1.0), ("box_lo", -1.0), ("box_hi", 1.0)):
        if v[key] is not None and len(v[key]) != n:
            raise ConfigError(f"qp {key} must have {n} entries, got {len(v[key])}")
        lists[key] = [fill] * n if v[key] is None else v[key]
    return TimeVaryingQP(
        curvature=v["curvature"],
        tracking_weight=v["tracking_weight"],
        regularization=v["regularization"],
        output_signal=_signal(v["output_signal"], seed),
        reference_signal=_signal(v["reference_signal"], seed),
        **lists,
    )


def load_qp(doc: dict) -> TimeVaryingQP:
    """QP instance from a JSON document (signals default to constants)."""
    return _qp(read(doc, "qp"), 0)


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
    bound_slack: float           # the rounding every certificate allows
    tail_start: int
    tail_max: float
    realized_max_delay: int
    realized_max_stale: int
    running_max_delay: np.ndarray
    running_max_stale: np.ndarray
    audits: dict

    @property
    def passed(self) -> bool:
        return all(v != "fail" for v in self.certificates.values())

    @property
    def audits_passed(self) -> bool:
        return all(a.get("ok", True) for a in self.audits.values())

    def to_json_dict(self) -> dict:
        """Every field except the per-step arrays, which the trace CSV holds."""
        return {k: v for k, v in vars(self).items() if not isinstance(v, np.ndarray)}


def _certify(mode, inputs: bnd.BoundInputs, errors, per_step, tail_start, slack):
    """Each asymptotic bound's value or the reason it does not apply, the tail
    maximum, and every certificate of a run's errors, each allowing ``slack``."""
    values, reasons = {}, {}
    checks = [(SYNC_TAIL, bnd.tracking_bound_sync, mode == "sync",
               "synchronous bound applies to synchronous runs only")]
    if mode == "async":
        checks += [
            (ASYNC_TAIL_MAX_NORM, bnd.tracking_bound_async_inf, inputs.norm.is_linf,
             "requires the linf norm"),
            (ASYNC_TAIL_L2_EQUIV, bnd.tracking_bound_async_l2_equiv, inputs.norm.is_l2,
             "requires the l2 norm"),
            (ASYNC_TAIL_L2_REFINED, bnd.tracking_bound_async_l2_refined, inputs.norm.is_l2,
             "requires the l2 norm"),
        ]
    for name, fn, applies, reason in checks:
        if not applies:
            reasons[name] = reason
            continue
        try:
            values[name] = fn(inputs)
        except PreconditionError as exc:
            reasons[name] = str(exc)
    tail_max = float(errors[tail_start:].max())
    certificates = {name: "pass" if tail_max <= value + slack else "fail"
                    for name, value in values.items()}
    certificates.update(dict.fromkeys(reasons, "not_applicable"))
    if mode == "sync":
        ok = bool(np.all(errors <= per_step + slack))
        certificates[PER_STEP] = "pass" if ok else "fail"
    else:
        certificates[PER_STEP] = "not_applicable"
        reasons[PER_STEP] = "per-step envelope assumes synchronous updates"
    return values, reasons, tail_max, certificates


def build_family(config: ExperimentConfig):
    """Problem family + graph with the declared override (if any) applied.

    The override replaces the returned family's declared contraction factor
    (its base keeps its own), modeling a user supplying their own trusted
    constant; audits validate it against sampling.
    """
    family, graph, extras = config.build_problem()
    if config.declared_lipschitz_override is not None:
        ov = config.declared_lipschitz_override
        family._lipschitz = lambda t, c=ov: np.full(np.shape(t), c)
        family.lipschitz_sup = ov
    return family, graph, extras


# ---------------------------------------------------------------------------
# Run phases: build, reference, audits, run, certify, report
# ---------------------------------------------------------------------------

AUDITS = ("lipschitz", "self_map", "map_error", "dependency_graph")


def build_phase(config: ExperimentConfig):
    """The family and graph a run tracks, checked against the config's norm and mode."""
    family, graph, _ = build_family(config)
    if config.norm.kind != family.declared_norm.kind:
        raise ConfigError(
            f"family declares its contraction in {family.declared_norm.kind}; "
            f"config asks for {config.norm.kind}"
        )
    if config.mode == "async" and graph is None:
        raise ConfigError("asynchronous mode needs a block decomposition")
    return family, graph


def reference_phase(config: ExperimentConfig, family) -> FixedPointSeries:
    """The fixed points of ``family.base`` at t = 1..horizon that a run is scored against."""
    return compute_fixed_point_series(family, config.horizon, norm=config.norm)


def audit_phase(config: ExperimentConfig, family, graph, names=AUDITS) -> dict:
    """The audits ``names`` that apply, by name, each a fresh dict.

    The Lipschitz and self-map audits sample ``family.base`` on the domain
    against the declared supremum; the map-error audit (inexact families)
    compares ``family`` with its base; the dependency audit probes ``family``
    against its graph, in async mode only, since a sync run reads no blocks.
    Each audit runs at t = 1 on its own seeded samples.
    """
    n, norm, audits = config.audit_samples, config.norm, {}
    if "lipschitz" in names:
        sampler = DomainSampler(family.domain, config.seed + 7919)
        est = estimate_lipschitz(family.base, 1, sampler, n, norm)
        audits["lipschitz"] = {
            "estimate": est.value,
            "declared": family.lipschitz_sup,
            "ok": bool(est.value <= family.lipschitz_sup + rounding_slack(norm)),
            "samples": n,
        }
    if "self_map" in names:
        sampler = DomainSampler(family.domain, config.seed + 104729)
        audits["self_map"] = {"ok": bool(verify_self_map(family.base, 1, sampler, n).ok),
                              "samples": n}
    if "map_error" in names and family.error_sup > 0.0:
        me = verify_map_error(
            family, 1, DomainSampler(family.domain, config.seed + 1299709),
            max(n // 10, 10), norm,
        )
        audits["map_error"] = {
            "observed": me.max_observed, "bound": me.bound, "ok": bool(me.ok),
            "samples": me.n_checked,
        }
    if "dependency_graph" in names and config.mode == "async":
        ok, violations = audit_dependency_graph(family, graph, probe_count=8,
                                                seed=config.seed)
        audits["dependency_graph"] = {"ok": bool(ok), "violations": list(map(list, violations))}
    return audits


def _run_phase(config: ExperimentConfig, family, graph, reference, iterates=None):
    """The tracker's trace and, for an asynchronous run, its delay statistics (else None).
    A sync run whose ``iterates`` are given (a sweep's lockstep) is scored, not run."""
    if iterates is not None:
        return _tracker_score(family, iterates, config.norm, reference), None
    x0 = family.domain.anchor()
    if config.mode == "sync":
        trace = run_online_tracker(family, x0, config.horizon, config.norm, reference=reference)
        return trace, None
    return run_async_tracker(family, graph, config.channel_model, x0, config.horizon,
                             config.norm, seed=config.seed, reference=reference)


def _certify_phase(config: ExperimentConfig, family, trace, stats) -> dict:
    """The report's bound fields: the per-step envelope from declared constants and
    realized drift, the bound inputs, every asymptotic bound and certificate, each
    allowing the rounding slack of the largest iterate or reference point."""
    horizon = config.horizon
    lipschitz_series = family.lipschitz_at(np.arange(1, horizon))
    error_series = map_error_bound_series(family, horizon)
    per_step = bnd.per_step_bound_series(
        trace.errors[0], error_series, trace.reference.drifts, lipschitz_series, horizon - 1
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
    tail_start = min(horizon - 1, int(np.floor(horizon * config.transient_fraction)))
    slack = rounding_slack(config.norm, trace.iterates, trace.reference.points)
    values, reasons, tail_max, certificates = _certify(
        config.mode, inputs, trace.errors, per_step, tail_start, slack)
    return dict(
        per_step_bounds=per_step,
        bound_inputs=dict(asdict(inputs), norm=config.norm.kind),
        asymptotic_bounds=values,
        not_applicable=reasons,
        certificates=certificates,
        bound_slack=slack,
        tail_start=tail_start,
        tail_max=tail_max,
        realized_max_delay=inputs.max_delay,
        realized_max_stale=inputs.max_stale,
    )


def _report_phase(config: ExperimentConfig, trace, stats, audits, bounds) -> ExperimentReport:
    # Row k of the trace is the state at time k+1, produced at evaluation
    # tick k; "so far" statistics therefore cover ticks 1..k.
    running_delay = np.zeros(config.horizon, dtype=int)
    running_stale = np.zeros(config.horizon, dtype=int)
    if stats is not None:
        running_delay[1:] = np.maximum.accumulate(stats.delay_by_tick)
        running_stale[1:] = np.maximum.accumulate(stats.stale_by_tick)
    return ExperimentReport(
        config=config.raw,
        errors=trace.errors,
        running_max_delay=running_delay,
        running_max_stale=running_stale,
        audits=audits,
        **bounds,
    )


def run_experiment(config: ExperimentConfig, write_files=True, shared=None) -> ExperimentReport:
    """One run in phases: build, reference, audits, run, certify, report.

    ``shared`` maps a phase name to the value the run reads instead of
    computing it. :func:`sweep` passes one dict per seed: ``"reference"``
    and audit names the seed's runs share, and in a sync sweep each run's
    own ``"build"`` (the ``(family, graph)`` pair of :func:`build_phase`)
    and ``"iterates"`` (its ``(horizon, dim)`` lockstep iterates, which the
    run scores instead of tracking), set before its call. This run computes
    each name bound to None and stores it there (an audit that does not
    apply stays None), and reads the rest. The report gets its
    own copy of each audit. Optionally writes the trace CSV and report JSON.
    """
    shared = {} if shared is None else shared
    if write_files and config.output:
        for suffix in (".csv", ".json"):
            check_writable(config.output + suffix)
    phases = {n: v for n, v in shared.items() if v is not None}
    if "build" not in phases:
        phases["build"] = build_phase(config)
    family, graph = phases["build"]
    if "reference" not in phases:
        phases["reference"] = reference_phase(config, family)
    phases.update(audit_phase(config, family, graph, [n for n in AUDITS if n not in phases]))
    shared.update({n: phases.get(n) for n in shared})
    audits = copy.deepcopy({n: phases[n] for n in AUDITS if n in phases})
    trace, stats = _run_phase(config, family, graph, phases["reference"], phases.get("iterates"))
    bounds = _certify_phase(config, family, trace, stats)
    report = _report_phase(config, trace, stats, audits, bounds)
    if write_files and config.output:
        write_report_files(report, config.output)
    return report


def _atomic_write(path, text):
    """Write ``text`` to ``path`` via a temporary file; an unwritable path is a ConfigError."""
    directory, tmp = os.path.dirname(os.path.abspath(path)), None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-fptrack-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def check_writable(path):
    """Raise the ConfigError :func:`_atomic_write` would raise for ``path``, before
    any work, and leave nothing behind: a temporary file is made and removed in
    the nearest directory above ``path`` that exists."""
    target = os.path.abspath(path)
    try:
        if os.path.isdir(target):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
        existing = os.path.dirname(target)
        while not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), existing)
        tempfile.TemporaryFile(dir=existing).close()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def trace_csv_text(report: ExperimentReport) -> str:
    """The per-step trace table (fixed header, 17-digit floats), formatted by
    one ``%`` over all rows: ``%.17g`` is ``format(x, ".17g")``."""
    applicable = list(report.asymptotic_bounds.values())
    asymptotic = _f17(min(applicable) if applicable else float("nan"))
    cells = tuple(chain.from_iterable(zip(
        range(1, len(report.errors) + 1), report.errors.tolist(), report.per_step_bounds.tolist(),
        report.running_max_delay.tolist(), report.running_max_stale.tolist())))
    row = f"%d,%.17g,%.17g,{asymptotic},%d,%d\n"
    return f"{CSV_HEADER}\n" + (row * (len(cells) // 5)) % cells


def write_report_files(report: ExperimentReport, output_prefix: str):
    """Write <prefix>.csv (trace) and <prefix>.json (report) atomically."""
    _atomic_write(output_prefix + ".csv", trace_csv_text(report))
    _atomic_write(
        output_prefix + ".json",
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True, default=float) + "\n",
    )


def verify_bounds(report: ExperimentReport) -> dict:
    """Recompute each certificate from the stored trace and bound inputs."""
    inputs = bnd.BoundInputs(**dict(report.bound_inputs, norm=Norm(report.bound_inputs["norm"])))
    return _certify(report.config.get("mode", "sync"), inputs, report.errors,
                    report.per_step_bounds, report.tail_start, report.bound_slack)[3]


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_PARAMETERS = ("drop_probability", "fixed_delay", "step_size", "noise_bound", "drift_rate")


def _config_with(config: ExperimentConfig, parameter: str, value, seed) -> ExperimentConfig:
    """The config with ``parameter`` set to ``value``, which goes into the document
    unconverted except a whole-number float delay; the document is checked as
    ``from_dict`` checks it. A channel the value leaves unchanged is
    ``config``'s, so a schedule is read once per sweep. A channel parameter on
    a sync config is an error: a sync run reads no channel."""
    if parameter in ("drop_probability", "fixed_delay") and config.mode == "sync":
        raise ConfigError(f"sweep parameter {parameter} needs an asynchronous config")
    doc = json.loads(json.dumps(config.raw))  # deep copy
    doc["seed"] = seed
    doc.pop("output", None)
    if parameter == "drop_probability":
        kept = doc.get("channel", {})
        doc["channel"] = {"kind": "iid_drop", "p": value}
        if "max_consecutive" in kept:
            doc["channel"]["max_consecutive"] = kept["max_consecutive"]
        if value == 0 and not isinstance(value, bool):
            doc["channel"] = {"kind": "none"}
    elif parameter == "fixed_delay":
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        doc["channel"] = {"kind": "fixed_delay", "delay": value}
    elif parameter in ("step_size", "noise_bound"):
        doc["problem"][parameter] = value
    else:  # drift_rate
        doc["problem"]["drift"] = {**doc["problem"].get("drift", {"kind": "linear"}), "rate": value}
    values = _config_values(doc)
    same = values["channel"] == config.channel
    return ExperimentConfig(**values, raw=doc, channel_model=config.channel_model if same else None)


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


# What a swept parameter leaves unchanged, keyed on the parameter and the problem
# kind: the phases a sweep computes once per seed (see ``sweep``). A pair that
# is not listed shares nothing.
_EVERY_PHASE = ("reference",) + AUDITS
SHARED_PHASES = {
    **{(parameter, kind): _EVERY_PHASE for parameter in ("drop_probability", "fixed_delay")
       for kind in ("affine", "qp-gradient", "loadflow")},
    ("noise_bound", "qp-gradient"): ("reference", "lipschitz", "self_map"),
}


def sweep(config: ExperimentConfig, parameter: str, values, n_seeds=1) -> SweepResult:
    """Rerun the experiment across parameter values (and seeds); summarize tails.

    Seeds vary only the run randomness (channels, noise), not the instance.
    The summary reports per-value median tail errors and whether the medians
    are nondecreasing along the given value order. The result keeps the report
    of every run, so callers can check each seed's certificates and audits.

    Each run is one ``run_experiment`` call, in sweep order (values, then
    seeds), and each report is the one its run gives alone, with audit dicts
    of its own. A phase that the swept value does not touch is computed once
    per seed, by that seed's run of the first value, and read by its other
    runs (``SHARED_PHASES``). The rules:

    - ``drop_probability`` and ``fixed_delay``, any problem kind: the
      reference and every audit. The value changes only the channel and
      the run. A sync config reads no channel, so these raise
      :class:`ConfigError` there.
    - ``noise_bound`` on ``qp-gradient``: the reference and the
      ``lipschitz`` and ``self_map`` audits, which read ``family.base``; the
      noise changes only the inexact map, which ``map_error`` and
      ``dependency_graph`` read, so those run per value.
    - ``noise_bound`` on ``loadflow``: nothing. The multi-area builder folds
      the noise bound into its base's self-map box and declared factor.
    - ``step_size`` and ``drift_rate``: nothing. The value changes the base
      map.

    A sync sweep tracks its runs in lockstep (:func:`_lockstep_runs`): it
    builds every run's family first, then advances all runs together, and
    each run reads its ``"build"`` and ``"iterates"`` from its seed's dict.
    An async sweep runs one run at a time.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMETERS}")
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    if int(n_seeds) < 1:
        raise ConfigError("sweep needs at least one seed")
    names = SHARED_PHASES.get((parameter, config.problem["kind"]), ())
    seeds = range(int(n_seeds))
    shared = {k: dict.fromkeys(names) for k in seeds}  # filled by each seed's first run
    order = [(v, k) for v in values for k in seeds]
    if config.mode == "sync":
        runs = _lockstep_runs(config, parameter, order)
    else:
        runs = ((_config_with(config, parameter, v, seed=config.seed + 1000 * k), {})
                for v, k in order)
    flat = []
    for (_, k), (run_config, own) in zip(order, runs):
        shared[k].update(own)
        flat.append(run_experiment(run_config, write_files=False, shared=shared[k]))
    reports = [flat[i:i + len(seeds)] for i in range(0, len(flat), len(seeds))]
    by_seed = [[rep.tail_max for rep in seed_reports] for seed_reports in reports]
    tails = [float(np.median(seed_tails)) for seed_tails in by_seed]
    # the bound column is read from the last seed's report
    bound_col = [min(rep[-1].asymptotic_bounds.values(), default=None) for rep in reports]
    mono = bool(np.all(np.diff(tails) >= -1e-12))
    return SweepResult(parameter, values, tails, by_seed, bound_col, reports, mono)


def _lockstep_runs(config: ExperimentConfig, parameter, order):
    """Each sync run's config and its phases ``"build"`` and ``"iterates"``, in
    ``order``, then the error of the first run whose config or build fails.

    Every run's config and family are built first, in order, then all runs
    are tracked by one :func:`~fptrack.core.run_lockstep_tracker`. A run
    whose row fails, or every run when the lockstep raises, gets no
    iterates and tracks alone in ``run_experiment``, which raises its error
    in the phase where the run alone raises it.
    """
    built, failure = [], None
    for v, k in order:
        try:
            run_config = _config_with(config, parameter, v, seed=config.seed + 1000 * k)
            built.append((run_config, build_phase(run_config)))
        except Exception as exc:  # raised after the runs before it, as a run alone would
            failure = exc
            break
    families = [family for _, (family, _) in built]
    try:
        tracked = run_lockstep_tracker(families, [f.domain.anchor() for f in families],
                                       config.horizon) if families else []
    except Exception:  # each run tracks alone
        tracked = [None] * len(built)
    for (run_config, build), iterates in zip(built, tracked):
        yield run_config, {"build": build,
                           "iterates": None if isinstance(iterates, Exception) else iterates}
    if failure is not None:
        raise failure
