"""Deterministic discrete-time simulator of asynchronous distributed iterations.

Agents own disjoint blocks of the state. At every tick each agent evaluates
its block of the (possibly inexact) map at a composite input: its own block is
always fresh, neighbor blocks come from the last copies delivered by per-edge
channels, and blocks of non-neighbors stay frozen at the initial state (the
dependency audit guarantees the map never reads them). Channels then deliver
or drop the newly computed blocks. All agents update within the same logical
tick; "delay" is measured in ticks, there is no wall-clock component.

An agent whose neighbor copies are all current is fresh: its composite input
agrees with the current state on every block its map reads, so all fresh
agents share one evaluation of the map at the current state, and a tick costs
one evaluation plus one per stale agent. This requires the map's block i not
to read the blocks of agents outside i's in-neighbors, which
:func:`audit_dependency_graph` checks.

Delivered copies are tracked by integer stamps: ``stamps[i, j] = s`` means
agent i currently holds agent j's block as of time s. Stamps never decrease
under the built-in channel policies (old packets cannot overwrite newer
ones); explicit schedules may opt out for stress tests.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .core import (
    TrackingTrace,
    compute_fixed_point_series,
    map_error_bound_series,
    seeded_stream,
    tracking_error,
)
from .domains import DomainSampler
from .errors import (
    DomainViolationError,
    PreconditionError,
    StaleBeyondCapError,
)
from .norms import Norm


class DependencyGraph:
    """Directed information-dependency structure of a block decomposition.

    An edge ``(j, i)`` means agent i's block update reads agent j's block.
    Self-edges are forbidden: an agent's own block is always fresh.
    """

    def __init__(self, block_sizes, edges):
        self.block_sizes = tuple(int(s) for s in block_sizes)
        if any(s <= 0 for s in self.block_sizes):
            raise PreconditionError("block sizes must be positive")
        self.n_agents = len(self.block_sizes)
        self.dim = sum(self.block_sizes)
        seen = set()
        for (j, i) in edges:
            j, i = int(j), int(i)
            if j == i:
                raise PreconditionError(f"self-edge ({j}, {i}) is not allowed")
            if not (0 <= j < self.n_agents and 0 <= i < self.n_agents):
                raise PreconditionError(f"edge ({j}, {i}) references unknown agents")
            seen.add((j, i))
        self.edges = tuple(sorted(seen))
        self.offsets = np.concatenate([[0], np.cumsum(self.block_sizes)])
        # column -> owning agent, used to assemble composite views quickly
        self.block_of_column = np.repeat(np.arange(self.n_agents), self.block_sizes)
        self.columns = np.arange(self.dim)
        self.edge_arrays = (
            np.array([j for (j, _) in self.edges], dtype=int),
            np.array([i for (_, i) in self.edges], dtype=int),
        )
        # flat positions in an (n_agents, n_agents) stamp matrix
        self.edge_index = self.edge_arrays[1] * self.n_agents + self.edge_arrays[0]
        self.diagonal_index = np.arange(self.n_agents) * (self.n_agents + 1)
        self._slices = tuple(
            slice(int(self.offsets[i]), int(self.offsets[i + 1]))
            for i in range(self.n_agents)
        )

    def block_slice(self, i) -> slice:
        return self._slices[i]

    def in_neighbors(self, i):
        return tuple(j for (j, k) in self.edges if k == i)

    def __repr__(self):
        return f"<DependencyGraph agents={self.n_agents} edges={len(self.edges)}>"


# ---------------------------------------------------------------------------
# Channel models
# ---------------------------------------------------------------------------


class ChannelModel:
    """Per-edge delivery policy; ``start`` binds it to a run's edges."""

    allows_nonmonotone = False

    def start(self, n_edges, horizon, seed):
        raise NotImplementedError

    def notes(self) -> dict:
        return {}


class _Runtime:
    """Vectorized per-tick stamp update for a group of edges.

    ``trusted`` marks runtimes whose stamps satisfy the range and
    monotonicity invariants by construction, skipping per-tick validation.
    """

    trusted = False

    def advance(self, prev: np.ndarray, new_time: int) -> np.ndarray:
        raise NotImplementedError


class ZeroDelay(ChannelModel):
    """Every block is delivered within the tick it is produced."""

    def start(self, n_edges, horizon, seed):
        return _ZeroDelayRuntime()


class _ZeroDelayRuntime(_Runtime):
    trusted = True

    def advance(self, prev, new_time):
        return np.full_like(prev, new_time)


class FixedDelay(ChannelModel):
    """Copies always lag by a constant number of ticks."""

    def __init__(self, delay):
        self.delay = int(delay)
        if self.delay < 0:
            raise PreconditionError("delay must be nonnegative")

    def start(self, n_edges, horizon, seed):
        return _FixedDelayRuntime(self.delay)


class _FixedDelayRuntime(_Runtime):
    trusted = True

    def __init__(self, delay):
        self.delay = delay

    def advance(self, prev, new_time):
        return np.full_like(prev, max(1, new_time - self.delay))


class PeriodicDelivery(ChannelModel):
    """Deliver only every ``period`` ticks, with a seeded phase per edge.

    Between deliveries the receiver keeps its old copy, so staleness sweeps
    0 .. period-1.
    """

    def __init__(self, period):
        self.period = int(period)
        if self.period < 1:
            raise PreconditionError("period must be at least 1")

    def start(self, n_edges, horizon, seed):
        phases = seeded_stream(seed, 101).integers(0, self.period, size=n_edges)
        return _PeriodicRuntime(self.period, phases)


class _PeriodicRuntime(_Runtime):
    trusted = True

    def __init__(self, period, phases):
        self.period = period
        self.phases = phases

    def advance(self, prev, new_time):
        # delivers when (new_time + phase) % period == 0
        deliver = self.phases == -new_time % self.period
        return np.where(deliver, new_time, prev)


class IidDrop(ChannelModel):
    """Drop each packet independently with probability p, capped in a row.

    Stochastic drops alone do not bound staleness, so after ``max_consecutive``
    drops on an edge the next delivery is forced; realized staleness therefore
    never exceeds ``max_consecutive`` ticks. A dropped packet leaves the
    receiver's copy and stamp unchanged.
    """

    def __init__(self, p, max_consecutive=9):
        self.p = float(p)
        if not (0.0 <= self.p < 1.0):
            raise PreconditionError("drop probability must lie in [0, 1)")
        self.max_consecutive = int(max_consecutive)
        if self.max_consecutive < 0:
            raise PreconditionError("max_consecutive must be nonnegative")

    def start(self, n_edges, horizon, seed):
        """Delivery table ``delivered[e, tau]`` for ticks ``tau = 2 .. horizon + 1``.

        Edge e reads its own stream ``seeded_stream(seed, 7, e)``: each tick
        that is not a forced delivery consumes one draw and drops the packet
        when the draw is below p. A forced delivery follows every
        ``max_consecutive``-th drop of a run and consumes no draw. The table
        is built from one bulk draw per edge (equal to the sequential draws),
        with the forced deliveries placed by cumulative sums.
        """
        delivered = np.ones((n_edges, horizon + 2), dtype=bool)
        if self.max_consecutive == 0:
            return _TableDeliveryRuntime(delivered)
        draw_index = np.arange(horizon)
        for e in range(n_edges):
            # At most one draw per tick, so `horizon` draws cover every tick.
            drop = seeded_stream(seed, 7, e).random(horizon) < self.p
            # Position of each draw in its run of drops (0 for a delivery draw).
            drops_so_far = np.cumsum(drop)
            run_pos = drops_so_far - np.maximum.accumulate(np.where(drop, 0, drops_so_far))
            forced_after = drop & (run_pos % self.max_consecutive == 0)
            # Tick offset of each draw: its index plus the forced deliveries before it.
            tick = np.cumsum(forced_after) - forced_after + draw_index
            delivered[e, 2 + tick[drop & (tick < horizon)]] = False
        return _TableDeliveryRuntime(delivered)

    def notes(self):
        return {"drop_probability": self.p, "drop_cap": self.max_consecutive}


class _TableDeliveryRuntime(_Runtime):
    trusted = True

    def __init__(self, delivered):
        self.delivered = delivered

    def advance(self, prev, new_time):
        return np.where(self.delivered[:, new_time], new_time, prev)


class ScheduleTable(ChannelModel):
    """Explicit stamp history, e.g. imported from CSV.

    ``table[(t, src, dst)]`` gives the stamp agent ``dst`` holds of ``src`` at
    tick t; missing entries keep the previous copy. Stamps must lie in
    ``1..t``. Non-monotone histories (old packets overwriting newer ones) are
    outside the default delivery model and must be enabled explicitly; a
    declared worst-case staleness is enforced when given.
    """

    def __init__(self, table, allow_nonmonotone=False, declared_max_delay=None):
        self.table = {(int(t), int(j), int(i)): int(s) for (t, j, i), s in table.items()}
        self.allows_nonmonotone = bool(allow_nonmonotone)
        self.declared_max_delay = (
            int(declared_max_delay) if declared_max_delay is not None else None
        )

    def start(self, n_edges, horizon, seed):
        return None  # replaced by a per-edge-aware runtime in _start_channels

    def notes(self):
        out = {"schedule": True}
        if self.declared_max_delay is not None:
            out["declared_max_delay"] = self.declared_max_delay
        return out


class _ScheduleRuntime(_Runtime):
    def __init__(self, model: ScheduleTable, edge_list):
        self.model = model
        self.edge_list = edge_list

    def advance(self, prev, new_time):
        out = prev.copy()
        for k, (j, i) in enumerate(self.edge_list):
            s = self.model.table.get((new_time, j, i))
            if s is None:
                continue
            if not (1 <= s <= new_time):
                raise PreconditionError(
                    f"scheduled stamp {s} for edge ({j}, {i}) at t={new_time} "
                    f"outside 1..{new_time}"
                )
            if self.model.declared_max_delay is not None and new_time - s > self.model.declared_max_delay:
                raise StaleBeyondCapError(
                    f"schedule exceeds declared staleness {self.model.declared_max_delay} "
                    f"on edge ({j}, {i}) at t={new_time}"
                )
            out[k] = s
        return out


class PerEdge(ChannelModel):
    """Assign a distinct channel model to selected edges (default elsewhere)."""

    def __init__(self, channel_map, default=None):
        self.channel_map = {(int(j), int(i)): m for (j, i), m in channel_map.items()}
        self.default = default if default is not None else ZeroDelay()

    def model_for(self, edge):
        return self.channel_map.get(edge, self.default)

    def start(self, n_edges, horizon, seed):
        return None  # handled edge-group-wise in _start_channels

    def notes(self):
        out = {}
        for m in list(self.channel_map.values()) + [self.default]:
            out.update(m.notes())
        return out


@dataclass
class _ChannelState:
    """Bound channels for one run: edge groups with their runtimes."""

    groups: list  # (index into the edge list, runtime, allows_nonmonotone)
    notes: dict


def _start_channels(model: ChannelModel, graph: DependencyGraph, horizon, seed) -> _ChannelState:
    edges = list(graph.edges)
    if isinstance(model, PerEdge):
        by_model = {}
        for k, e in enumerate(edges):
            by_model.setdefault(id(model.model_for(e)), (model.model_for(e), []))[1].append(k)
        groups = []
        for sub, idx in by_model.values():
            idx = np.asarray(idx, dtype=int)
            sub_edges = [edges[k] for k in idx]
            runtime = (
                _ScheduleRuntime(sub, sub_edges)
                if isinstance(sub, ScheduleTable)
                else sub.start(len(idx), horizon, seed)
            )
            groups.append((idx, runtime, sub.allows_nonmonotone))
        return _ChannelState(groups, model.notes())
    if isinstance(model, ScheduleTable):
        runtime = _ScheduleRuntime(model, edges)
    else:
        runtime = model.start(len(edges), horizon, seed)
    return _ChannelState([(slice(None), runtime, model.allows_nonmonotone)], model.notes())


# ---------------------------------------------------------------------------
# Delay accounting
# ---------------------------------------------------------------------------


@dataclass
class ChannelLog:
    """Stamps in effect at every evaluation tick, one row per (tick, edge)."""

    times: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    stamps: np.ndarray

    def __len__(self):
        return len(self.times)


@dataclass
class DelayStats:
    """Realized staleness statistics of one run.

    ``max_delay`` is the worst staleness (ticks) of any copy ever used;
    ``max_stale`` is the largest number of simultaneously outdated neighbor
    blocks at any agent at any tick.
    """

    max_delay: int
    max_stale: int
    log: ChannelLog
    notes: dict = field(default_factory=dict)


def realized_delay_stats(log: ChannelLog, graph: DependencyGraph, notes=None) -> DelayStats:
    """Exact staleness maxima recomputed from a complete channel log."""
    if len(log) == 0:
        return DelayStats(0, 0, log, dict(notes or {}))
    delays = log.times - log.stamps
    max_delay = int(delays.max())
    stale = delays > 0
    if np.any(stale):
        # count stale in-edges per (tick, receiving agent) group
        group = log.times.astype(np.int64) * graph.n_agents + log.dst
        max_stale = int(np.bincount(group[stale]).max())
    else:
        max_stale = 0
    return DelayStats(max_delay, max_stale, log, dict(notes or {}))


def write_log_csv(path, log: ChannelLog) -> None:
    """Export a channel log as t,src,dst,delivered_stamp rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "src", "dst", "delivered_stamp"])
        for k in range(len(log)):
            writer.writerow([int(log.times[k]), int(log.src[k]), int(log.dst[k]), int(log.stamps[k])])


def read_schedule_csv(path, allow_nonmonotone=False, declared_max_delay=None) -> ScheduleTable:
    """Import a stamp schedule written in the log CSV format."""
    table = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"t", "src", "dst", "delivered_stamp"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise PreconditionError(f"schedule CSV must have columns {sorted(expected)}")
        for row in reader:
            table[(int(row["t"]), int(row["src"]), int(row["dst"]))] = int(row["delivered_stamp"])
    return ScheduleTable(table, allow_nonmonotone=allow_nonmonotone,
                         declared_max_delay=declared_max_delay)


# ---------------------------------------------------------------------------
# The simulator
# ---------------------------------------------------------------------------


def step_async(history, stamps, family, graph: DependencyGraph, channels: _ChannelState, t,
               log_sink=None):
    """Advance the asynchronous iteration by one tick.

    ``history[k]`` holds the state at time k+1 for k < t; ``stamps`` holds the
    copies in effect at tick t. Returns ``(x_next, stamps_next)`` where
    ``x_next`` is the state at time t+1. All agents evaluate against tick-t
    information, so the result does not depend on agent order.

    An agent is fresh when every in-edge stamp equals t. Its composite input
    then agrees with the state x_t on every block the map reads for it, so
    all fresh agents take their blocks from one shared evaluation at x_t.
    This relies on the family honoring ``graph``: block i of the map must
    not read blocks of non-neighbors (``audit_dependency_graph`` checks it).
    Each stale agent evaluates the map at its own composite input. Every
    evaluation uses the family's scalar path on a freshly allocated vector,
    so a zero-delay tick is one evaluation at x_t, the synchronous step to
    the last bit.
    """
    prev = stamps.take(graph.edge_index)
    stale = np.zeros(graph.n_agents, dtype=bool)
    stale[graph.edge_arrays[1][prev != t]] = True
    stale_agents = stale.nonzero()[0]
    raw_eval = getattr(family, "_evaluate", family.evaluate)
    if len(stale_agents) < graph.n_agents:
        x_next = np.array(raw_eval(history[t - 1].copy(), t), dtype=float)
    else:
        x_next = np.empty(graph.dim)
    if len(stale_agents):
        # composite inputs of the stale agents, one row each
        copies = stamps.take(stale_agents, axis=0).take(graph.block_of_column, axis=1)
        views = history[copies - 1, graph.columns]
        for row, i in enumerate(stale_agents.tolist()):
            sl = graph.block_slice(i)
            # a fresh buffer, as the synchronous tracker passes: numpy kernels
            # may choose summation paths by buffer alignment
            x_next[sl] = raw_eval(views[row].copy(), t)[sl]
    if not family.domain.contains(x_next):
        raise DomainViolationError(f"asynchronous iterate left the domain at tick {t}")
    if log_sink is not None:
        log_sink.append(prev)
    new_time = t + 1
    stamps_next = stamps.copy()
    flat_next = stamps_next.reshape(-1)  # a view: the copy is C-contiguous
    flat_next[graph.diagonal_index] = new_time
    for idx, runtime, allows_nonmono in channels.groups:
        advanced = runtime.advance(prev[idx], new_time)
        if not runtime.trusted:
            advanced = np.asarray(advanced, dtype=int)
            if np.any(advanced > new_time) or np.any(advanced < 1):
                raise PreconditionError("channel produced a stamp outside 1..t+1")
            if not allows_nonmono and np.any(advanced < prev[idx]):
                raise PreconditionError(
                    "channel produced a non-monotone stamp outside the default model"
                )
        flat_next[graph.edge_index[idx]] = advanced
    return x_next, stamps_next


def run_async_tracker(family, graph: DependencyGraph, channels: ChannelModel, x0, horizon,
                      norm: Norm | None = None, seed=0, reference=None,
                      ref_tol=1e-12, ref_max_iter=100_000):
    """Run the asynchronous iteration and score it against reference fixed points.

    Returns ``(trace, stats)``: a :class:`~fptrack.core.TrackingTrace` whose
    metadata embeds the realized :class:`DelayStats`, and the stats themselves.
    Identical arguments (including ``seed``) reproduce the trace bitwise.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise PreconditionError("horizon must be at least 1")
    if graph.dim != family.dim:
        raise PreconditionError("graph blocks do not tile the family's state")
    norm = norm if norm is not None else Norm()
    x0 = np.asarray(x0, dtype=float).reshape(family.dim)
    if not family.domain.contains(x0):
        raise PreconditionError("initial point lies outside the declared domain")
    state = _start_channels(channels, graph, horizon, seed)
    history = np.empty((horizon, family.dim))
    history[0] = x0
    stamps = np.ones((graph.n_agents, graph.n_agents), dtype=int)
    log_rows = []
    for k in range(horizon - 1):
        t = k + 1
        x_next, stamps = step_async(history[: t], stamps, family, graph, state, t,
                                    log_sink=log_rows)
        history[t] = x_next
    n_edges = len(graph.edges)
    if log_rows and n_edges:
        src, dst = graph.edge_arrays
        ticks = np.arange(1, horizon)
        log = ChannelLog(
            np.repeat(ticks, n_edges),
            np.tile(src, horizon - 1),
            np.tile(dst, horizon - 1),
            np.concatenate(log_rows),
        )
    else:
        empty = np.zeros(0, dtype=int)
        log = ChannelLog(empty, empty, empty, empty)
    stats = realized_delay_stats(log, graph, notes=state.notes)
    if reference is None:
        reference = compute_fixed_point_series(
            family, horizon, norm=norm, tol=ref_tol, max_iter=ref_max_iter
        )
    errors = tracking_error(history, reference, norm)
    trace = TrackingTrace(
        history,
        reference,
        errors,
        norm,
        metadata={"map_error_bounds": map_error_bound_series(family, horizon),
                  "delay_stats": stats, "seed": int(seed)},
    )
    return trace, stats


# ---------------------------------------------------------------------------
# Dependency-graph audit
# ---------------------------------------------------------------------------


def audit_dependency_graph(family, graph: DependencyGraph, probe_count=32, seed=0,
                           times=(1,), rel_tol=1e-9):
    """Check that declared edges cover the map's actual block dependencies.

    Perturbing block j may change block i's output only when ``(j, i)`` is a
    declared edge or ``j == i``. Declared edges that carry no dependence are
    allowed. Returns ``(ok, violations)`` with violating ``(j, i)`` pairs.
    """
    sampler = DomainSampler(family.domain, int(seed) + 9173)
    rng = seeded_stream(seed, 55)
    violations = set()
    for t in times:
        for _ in range(int(probe_count)):
            x = sampler.draw_one()
            fx = family.evaluate(x, t)
            scale = 1e-6 * (1.0 + float(np.max(np.abs(x))))
            for j in range(graph.n_agents):
                sl = graph.block_slice(j)
                delta = rng.uniform(0.5, 1.0, size=sl.stop - sl.start) * scale
                x2 = x.copy()
                x2[sl] = x[sl] + delta
                if not family.domain.contains(x2):
                    x2[sl] = x[sl] - delta
                    if not family.domain.contains(x2):
                        continue
                diff = family.evaluate(x2, t) - fx
                thresh = rel_tol * (1.0 + float(np.max(np.abs(fx))))
                for i in range(graph.n_agents):
                    if i == j:
                        continue
                    if float(np.max(np.abs(diff[graph.block_slice(i)]))) > thresh:
                        if (j, i) not in graph.edges:
                            violations.add((j, i))
    return (len(violations) == 0), sorted(violations)
