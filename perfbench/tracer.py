"""Span tracer that wraps fptrack's public functions from outside the package.

Installing a :class:`Tracer` replaces each target function with a wrapper in
every loaded ``fptrack`` module that refers to it by name (so calls through
``from .core import solve_fixed_point`` and through a module's own globals are
both seen), and replaces target methods on their classes. ``uninstall``
restores the originals. Spans are kept in memory as
``(span_id, name, start, end, parent_id)`` tuples; self time is derived from
child coverage after the fact.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Span names. The prefix before the first dot is the layer.
RUN = "experiments.run_experiment"
SWEEP_OUTPUT = "experiments.sweep_output"
WRITE_REPORT = "experiments.write_report_files"
SOLVE = "core.solve_fixed_point"
REFERENCE = "core.compute_fixed_point_series"
TRACKER = "core.run_online_tracker"
AUDITS = ("core.estimate_lipschitz", "core.verify_self_map", "core.verify_map_error")
EVALUATE = "problems.evaluate"
STEP = "async_sim.step_async"
CHANNEL_START = "async_sim.channel_start"
DELAY_STATS = "async_sim.realized_delay_stats"
GRAPH_AUDIT = "async_sim.audit_dependency_graph"
PER_STEP = "bounds.per_step_bound_series"
CLOSED_FORM = (
    "bounds.tracking_bound_sync",
    "bounds.tracking_bound_async_inf",
    "bounds.tracking_bound_async_l2_equiv",
    "bounds.tracking_bound_async_l2_refined",
)

LAYERS = ("experiments", "core", "problems", "async_sim", "bounds")

# (module, function) pairs wrapped wherever they are referenced by name.
FUNCTION_TARGETS = (
    ("fptrack.experiments", "run_experiment"),
    ("fptrack.experiments", "build_family"),
    ("fptrack.experiments", "write_report_files"),
    ("fptrack.experiments", "trace_csv_text"),
    ("fptrack.experiments", "verify_bounds"),
    ("fptrack.experiments", "sweep"),
    ("fptrack.core", "solve_fixed_point"),
    ("fptrack.core", "compute_fixed_point_series"),
    ("fptrack.core", "run_online_tracker"),
    ("fptrack.core", "map_error_bound_series"),
    ("fptrack.core", "tracking_error"),
    ("fptrack.core", "estimate_lipschitz"),
    ("fptrack.core", "verify_self_map"),
    ("fptrack.core", "verify_map_error"),
    ("fptrack.problems.affine", "build_affine_family"),
    ("fptrack.problems.qp", "build_gradient_map"),
    ("fptrack.problems.qp", "build_feedback_gradient_map"),
    ("fptrack.problems.qp", "build_broadcast_system"),
    ("fptrack.problems.qp", "random_qp"),
    ("fptrack.problems.qp", "star_partition"),
    ("fptrack.problems.loadflow", "build_multiarea_maps"),
    ("fptrack.problems.loadflow", "build_loadflow_map"),
    ("fptrack.problems.loadflow", "default_injections"),
    ("fptrack.problems.loadflow", "three_area_network"),
    ("fptrack.problems.loadflow", "two_bus_network"),
    ("fptrack.problems._paths", "scalar_signal"),
    ("fptrack.async_sim", "run_async_tracker"),
    ("fptrack.async_sim", "step_async"),
    ("fptrack.async_sim", "realized_delay_stats"),
    ("fptrack.async_sim", "audit_dependency_graph"),
    ("fptrack.bounds", "per_step_bound_series"),
    ("fptrack.bounds", "tracking_bound_sync"),
    ("fptrack.bounds", "tracking_bound_async_inf"),
    ("fptrack.bounds", "tracking_bound_async_l2_equiv"),
    ("fptrack.bounds", "tracking_bound_async_l2_refined"),
)

# (module, class, method, span name); subclasses that override the method
# are wrapped too.
METHOD_TARGETS = (
    ("fptrack.experiments", "ExperimentConfig", "from_dict", "experiments.config_from_dict"),
    ("fptrack.core", "MapFamily", "evaluate", EVALUATE),
    ("fptrack.core", "InexactMapFamily", "evaluate", EVALUATE),
    ("fptrack.async_sim", "ChannelModel", "start", CHANNEL_START),
)


def _layer_name(module_name: str, attr: str) -> str:
    layer = module_name.split(".")[1]
    return f"{layer}.{attr}"


def _subclasses(cls):
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


class Tracer:
    """In-memory span recorder with install/uninstall patching."""

    def __init__(self):
        self.spans = []          # (span_id, name, start, end, parent_id)
        self.counts = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self._patches = []       # (owner, attr, original)

    # -- recording -----------------------------------------------------------
    def span(self, name, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "fptrack" or n.startswith("fptrack."))]
        for module_name, attr in FUNCTION_TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(_layer_name(module_name, attr), original,
                                 _AFTER_HOOKS.get(attr))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, method, name in METHOD_TARGETS:
            root = getattr(sys.modules[module_name], cls_name)
            for cls in _subclasses(root):
                if method in vars(cls):
                    original = vars(cls)[method]
                    self._patches.append((cls, method, original))
                    if isinstance(original, classmethod):
                        setattr(cls, method, classmethod(self._wrap(name, original.__func__)))
                    else:
                        setattr(cls, method, self._wrap(name, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _after_step(counts, args, kwargs, result):
    graph = args[3] if len(args) > 3 else kwargs["graph"]
    counts["async_sim.agent_evals"] += graph.n_agents


def _after_async_run(counts, args, kwargs, result):
    log = result[1].log
    counts["async_sim.log_rows"] += len(log)
    counts["async_sim.log_bytes"] += sum(
        a.nbytes for a in (log.times, log.src, log.dst, log.stamps)
    )


_AFTER_HOOKS = {"step_async": _after_step, "run_async_tracker": _after_async_run}


def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover."""
    covered = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid] for sid, _, start, end, _ in spans}


def layer_metrics(spans, counts) -> dict:
    """The per-layer metrics of one traced experiment (see README.md)."""
    names = {sid: name for sid, name, _, _, _ in spans}
    selfs = self_times(spans)

    def inclusive(*wanted, outermost=False):
        total = 0.0
        for _, name, start, end, parent in spans:
            if name in wanted and not (outermost and names.get(parent, "") in wanted):
                total += end - start
        return total

    def self_of(name):
        return sum((selfs[sid] for sid, n, _, _, _ in spans if n == name), 0.0)

    def count(name, parent=None):
        return sum(1 for _, n, _, _, p in spans
                   if n == name and (parent is None or names.get(p) == parent))

    evaluate_outer = [(s, e) for _, n, s, e, p in spans
                      if n == EVALUATE and names.get(p) != EVALUATE]
    builders = {n for n in names.values()
                if n.startswith("problems.") and n != EVALUATE}
    out = {
        "core.reference_s": inclusive(REFERENCE, outermost=True),
        "core.solve_calls": count(SOLVE),
        "core.solve_evals": count(EVALUATE, parent=SOLVE),
        "core.tracker.self_s": self_of(TRACKER),
        "core.audit_s": inclusive(*AUDITS, outermost=True),
        "problems.evaluate_calls": len(evaluate_outer),
        "problems.evaluate_s": sum((e - s for s, e in evaluate_outer), 0.0),
        "problems.build_s": inclusive(*builders, outermost=True),
        "async_sim.ticks": count(STEP),
        "async_sim.agent_evals": counts["async_sim.agent_evals"],
        "async_sim.step_s": inclusive(STEP),
        "async_sim.channel_start_s": inclusive(CHANNEL_START, outermost=True),
        "async_sim.log_rows": counts["async_sim.log_rows"],
        "async_sim.log_bytes": counts["async_sim.log_bytes"],
        "async_sim.delay_stats_s": inclusive(DELAY_STATS),
        "async_sim.graph_audit_s": inclusive(GRAPH_AUDIT),
        "bounds.per_step_s": inclusive(PER_STEP),
        "bounds.closed_form_s": inclusive(*CLOSED_FORM),
        "experiments.runs": count(RUN),
        "experiments.run.self_s": self_of(RUN),
        "experiments.output_s": inclusive(WRITE_REPORT, SWEEP_OUTPUT, outermost=True),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            (selfs[sid] for sid, n, _, _, _ in spans if n.split(".", 1)[0] == layer), 0.0
        )
    return out


def write_spans_csv(path, spans):
    """Write spans as span_id,name,start_s,end_s,parent_id (times from the first start)."""
    t0 = min((s[2] for s in spans), default=0.0)
    with open(path, "w") as fh:
        fh.write("span_id,name,start_s,end_s,parent_id\n")
        for sid, name, start, end, parent in sorted(spans):
            fh.write(f"{sid},{name},{start - t0!r},{end - t0!r},{parent}\n")
