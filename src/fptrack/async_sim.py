"""Deterministic discrete-time simulator of asynchronous distributed iterations.

Agents own disjoint blocks of the state. At every tick each agent evaluates
its block of the (possibly inexact) map at x_t with its outdated copies
patched in: the block of each in-neighbor whose last delivered copy is older
than t is read as of that copy's stamp, every other block at t. Channels then
deliver or drop the newly computed blocks. All agents update within the same
logical tick; "delay" is measured in ticks, there is no wall-clock component.

A map that is a sum of taps (the affine map, see
:class:`~fptrack.core.MapFamily`) is run as the paper writes it:
x_{t+1}[i] = sum_j A[i, j] x_{tau_ij(t)}[j] + b_i(t). Tap (i, j) reads entry
j as of the stamp of the in-edge from j's agent to i's, and at t within i's
own block or where the graph has no such edge. A run plans the history
offsets of every tap of a block of ticks in one vectorized pass over the
block's stamp-table rows, and reads the block's offsets b(t) as one slice of
the family's table (:func:`_tap_plans`). A tick is one take of ``(dim, P)``
entries, one ``einsum`` with the tap coefficients, one add of b(t) and one
domain check; the plan fixes the time and the shapes, so the tick checks
neither. A sparse affine family evaluates points and rows with that same
``einsum`` over the same taps, so its tick is its point call by
construction.

Any other map is run by rows. An agent whose in-neighbor copies are all
current is fresh: its input is x_t, so all fresh agents share one
evaluation of the map at x_t. A tick is one rows call of the family's
``evaluate`` on the rows it needs, one row per stale agent's input plus x_t
when any agent is fresh, and one flat take of each output column from the
row of the agent that owns it. Which agents are stale, where each row's
entries lie in the history and where each column lies in the rows call's
output depend only on the outdated (tick, edge) pairs of the stamp table
below: the entries whose stamp is older than their tick. A run finds them
once, in one vectorized pass over its stamp table, and plans its ticks from
them a block at a time (:func:`_tick_plans`).

Either way a block of plans holds at most 2^16 indices (``_PLAN_INDICES``;
the affine rows call sums at most as many taps at once). Built-in maps give
taps and rows the bits of a point call, so a tick equals per-agent point
evaluation bit for bit. The staleness bounds assume that block i of
the map reads no block outside i and its in-neighbors;
:func:`audit_dependency_graph` checks that graph.

Delivered copies are tracked by integer stamps. A run's channels produce one
table before the first tick: ``stamps[t, e] = s`` means that at tick t the
receiver of edge e holds the sender's block as of time s. The simulator reads
row t at tick t, and the run's channel log is that same table. Stamps never
decrease under the built-in channel policies (old packets cannot overwrite
newer ones); explicit schedules may opt out for stress tests.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import _integer, _tracker_score, _tracker_start, seeded_stream
from .domains import DomainSampler
from .errors import (
    DomainViolationError,
    PreconditionError,
    StaleBeyondCapError,
)
from .norms import Norm


def _int_rows(rows, width, message) -> np.ndarray:
    """``rows`` as an int64 ``(k, width)`` array, an empty sequence as no rows.
    Entries must be integers: a float would truncate."""
    rows = np.asarray(rows)
    if rows.size == 0:
        return rows.astype(np.int64).reshape(0, width)
    if rows.dtype.kind not in "iu":
        raise PreconditionError(f"{message}; got entries of type {rows.dtype}")
    if rows.ndim != 2 or rows.shape[1] != width:
        raise PreconditionError(message)
    return rows.astype(np.int64)


class DependencyGraph:
    """Directed information-dependency structure of a block decomposition.

    An edge ``(j, i)`` means agent i's block update reads agent j's block;
    ``edges`` is a sequence of such pairs or an ``(m, 2)`` int array.
    Self-edges are forbidden: an agent's own block is always fresh. The
    staleness bounds assume this graph; :func:`audit_dependency_graph`
    checks it.

    ``edge_arrays`` holds the senders and receivers of the distinct edges
    sorted by ``(j, i)``; a run's stamp table has one column per edge in that
    order (:meth:`edge_columns`). ``edges`` lists the same edges as int
    pairs, built on first read.
    """

    def __init__(self, block_sizes, edges):
        self.block_sizes = tuple(_integer(s, "block size") for s in block_sizes)
        if any(s <= 0 for s in self.block_sizes):
            raise PreconditionError("block sizes must be positive")
        self.n_agents = n = len(self.block_sizes)
        self.dim = sum(self.block_sizes)
        pairs = _int_rows(edges, 2, "edges must be (sender, receiver) pairs")
        j, i = pairs.T
        bad = (j == i) | (np.minimum(j, i) < 0) | (np.maximum(j, i) >= n)
        if bad.any():  # the first offending edge, in input order
            j, i = pairs[bad.argmax()].tolist()
            if j == i:
                raise PreconditionError(f"self-edge ({j}, {i}) is not allowed")
            raise PreconditionError(f"edge ({j}, {i}) references unknown agents")
        keys = np.sort(j * n + i)  # sorted by (j, i); np.unique adds 1.3 MB of RSS (numpy 2.4)
        self._keys = keys[np.diff(keys, prepend=-1) != 0]  # each distinct edge's key
        self.edge_arrays = np.divmod(self._keys, n)
        self.offsets = np.concatenate([[0], np.cumsum(self.block_sizes)])
        # column -> owning agent, used to assemble composite views quickly
        self.block_of_column = np.repeat(np.arange(self.n_agents), self.block_sizes)
        self.columns = np.arange(self.dim)

    @cached_property
    def edges(self):
        return tuple(zip(*(a.tolist() for a in self.edge_arrays)))

    def edge_columns(self, src, dst) -> np.ndarray:
        """The column of each edge ``(src[k], dst[k])`` in the edge order, or -1
        where the graph has no such edge. Its key ``src * n_agents + dst`` is
        looked up only when both ids are agents, so no other pair aliases it."""
        src, dst = np.asarray(src), np.asarray(dst)
        n = self.n_agents
        agents = (np.minimum(src, dst) >= 0) & (np.maximum(src, dst) < n)
        wanted = np.where(agents, src * n + dst, -1)
        column = np.searchsorted(self._keys, wanted)
        return np.where(np.searchsorted(self._keys, wanted, "right") > column, column, -1)

    def __repr__(self):
        return f"<DependencyGraph agents={self.n_agents} edges={len(self.edge_arrays[0])}>"


# ---------------------------------------------------------------------------
# Channel models
# ---------------------------------------------------------------------------


class ChannelModel:
    """Per-edge delivery policy; ``start`` builds a run's stamp table.

    ``start(n_edges, horizon, seed)`` returns an integer array of shape
    ``(horizon, n_edges)``: entry ``[t, e]`` is the stamp of the copy that
    edge e's receiver holds at tick t. Every agent starts from the initial
    state, so rows 0 and 1 hold stamp 1.
    """

    allows_nonmonotone = False
    declared_max_delay = None

    def start(self, n_edges, horizon, seed):
        raise NotImplementedError


def _lagging(lag, n_edges, horizon):
    """Stamp table of copies ``lag`` ticks old, never older than the initial copy."""
    ticks = np.arange(horizon)[:, None]
    return np.broadcast_to(np.maximum(ticks - lag, 1), (horizon, n_edges)).copy()


class ZeroDelay(ChannelModel):
    """Every block is delivered within the tick it is produced."""

    def start(self, n_edges, horizon, seed):
        return _lagging(0, n_edges, horizon)


class FixedDelay(ChannelModel):
    """Copies always lag by a constant number of ticks."""

    def __init__(self, delay):
        self.delay = _integer(delay, "delay")
        if self.delay < 0:
            raise PreconditionError("delay must be nonnegative")

    def start(self, n_edges, horizon, seed):
        return _lagging(self.delay, n_edges, horizon)


class PeriodicDelivery(ChannelModel):
    """Deliver only every ``period`` ticks, with a seeded phase per edge.

    Between deliveries the receiver keeps its old copy, so staleness sweeps
    0 .. period-1.
    """

    def __init__(self, period):
        self.period = _integer(period, "period")
        if self.period < 1:
            raise PreconditionError("period must be at least 1")

    def start(self, n_edges, horizon, seed):
        phases = seeded_stream(seed, 101).integers(0, self.period, size=n_edges)
        # edge e delivers at the ticks tau with (tau + phase) % period == 0
        ticks = np.arange(horizon)[:, None]
        return _lagging((ticks + phases) % self.period, n_edges, horizon)


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
        self.max_consecutive = _integer(max_consecutive, "max_consecutive")
        if self.max_consecutive < 0:
            raise PreconditionError("max_consecutive must be nonnegative")

    def start(self, n_edges, horizon, seed):
        """Stamp table; packets sent at ticks ``2 .. horizon - 1`` may drop.

        Edge e reads its own stream ``seeded_stream(seed, 7, e)``: each tick
        that is not a forced delivery consumes one draw and drops the packet
        when the draw is below p. A forced delivery follows every
        ``max_consecutive``-th drop of a run and consumes no draw. The table
        is built from one bulk draw per edge (equal to the sequential draws),
        with the forced deliveries placed by cumulative sums.
        """
        table = _lagging(0, n_edges, horizon)
        if self.max_consecutive == 0:
            return table
        cap = self.max_consecutive
        for e in range(n_edges):
            # Draw indices of the drops; at most one draw per tick, so `horizon`
            # draws cover every tick.
            k = np.flatnonzero(seeded_stream(seed, 7, e).random(horizon) < self.p)
            i = np.arange(len(k))
            # Each drop's position in its run of dropped ticks (from 0): a run of
            # consecutive drop draws restarts after every `cap` drops, where a
            # forced delivery is inserted.
            first = np.maximum.accumulate(np.where(np.diff(k, prepend=-2) != 1, i, 0))
            pos = (i - first) % cap
            forced_after = pos == cap - 1
            # Tick of each drop: its draw index plus the forced deliveries before it.
            tick = 2 + k + np.cumsum(forced_after) - forced_after
            n = np.searchsorted(tick, horizon)
            # A dropped packet keeps the copy sent before its run of dropped ticks.
            table[tick[:n], e] -= pos[:n] + 1
        return table


class ScheduleTable(ChannelModel):
    """Explicit stamp history: the rows of a log CSV (:func:`read_schedule_csv`).

    ``rows`` is a ``(k, 4)`` int array, or a sequence of 4-int rows, of
    ``t, src, dst, stamp``: at tick t agent ``dst`` holds ``src``'s block as
    of time ``stamp``. An edge keeps its previous copy at ticks without a row;
    when rows repeat a ``(t, src, dst)`` the last one wins, and rows outside
    the run's ticks are ignored. A row for an edge that the run's dependency
    graph lacks fails the run before its first tick. Stamps must lie in
    ``1..t``. Non-monotone histories (old packets overwriting newer ones) are
    outside the default delivery model and must be enabled explicitly; a
    declared worst-case staleness, when given, bounds every stamp in effect.
    """

    def __init__(self, rows, allow_nonmonotone=False, declared_max_delay=None):
        self.rows = _int_rows(rows, 4, "schedule rows must be (t, src, dst, stamp)")
        self.allows_nonmonotone = bool(allow_nonmonotone)
        self.declared_max_delay = (None if declared_max_delay is None
                                   else _integer(declared_max_delay, "declared_max_delay"))

    def stamps_for(self, columns, n_edges, horizon):
        """Stamp table over ``n_edges`` edges, row r setting column ``columns[r]``
        (none when negative); each entry holds until the edge's next one."""
        t, stamp = self.rows[:, 0], self.rows[:, 3]
        placed = np.flatnonzero((columns >= 0) & (t >= 1) & (t < horizon))
        flat = t[placed] * n_edges + columns[placed]  # each placed row's table entry
        order = np.argsort(flat, kind="stable")
        last = order[np.diff(flat[order], append=-1) != 0]  # each entry's last row
        given = np.ones((horizon, n_edges), dtype=int)
        since = np.zeros((horizon, n_edges), dtype=int)  # tick of the entry in effect
        given.flat[flat[last]] = stamp[placed[last]]
        since.flat[flat[last]] = t[placed[last]]
        np.maximum.accumulate(since, axis=0, out=since)
        return np.take_along_axis(given, since, axis=0)


class PerEdge(ChannelModel):
    """Assign a distinct channel model to selected edges (default elsewhere).

    A key naming an edge the run's dependency graph lacks fails the run
    before its first tick, as does a row of a schedule among the models.
    """

    def __init__(self, channel_map, default=None):
        self.channel_map = {(int(j), int(i)): m for (j, i), m in channel_map.items()}
        self.default = default if default is not None else ZeroDelay()


def _edge_columns(graph: DependencyGraph, pairs) -> np.ndarray:
    """Each ``(j, i)`` row's column in ``graph``'s edge order. Fails naming the
    smallest pair the graph lacks."""
    column = graph.edge_columns(*pairs.T)
    if (column < 0).any():
        unknown = pairs[column < 0]
        raise PreconditionError(
            f"channel names edge {tuple(unknown[np.lexsort(unknown.T[::-1])[0]].tolist())}, "
            f"which the dependency graph lacks ({graph.n_agents} agents, "
            f"{len(graph.edge_arrays[0])} edges)"
        )
    return column


def _start_channels(model: ChannelModel, graph: DependencyGraph, horizon, seed) -> np.ndarray:
    """The run's stamp table, one column per edge of ``graph`` in edge order.

    A ``PerEdge`` model's keys and its schedules' rows are checked against the
    graph together, so an unknown edge fails before any channel starts.
    """
    n_edges = len(graph.edge_arrays[0])
    if not isinstance(model, PerEdge):
        return _group_table(model, graph, np.arange(n_edges), horizon, seed)
    subs = [model.default, *model.channel_map.values()]
    keys = np.array(list(model.channel_map), dtype=np.int64).reshape(-1, 2)
    named = [keys, *(sub.rows[:, 1:3] for sub in subs if isinstance(sub, ScheduleTable))]
    first = {}  # each distinct model's first position in subs
    group = np.array([first.setdefault(id(sub), k) for k, sub in enumerate(subs)])
    owner = np.zeros(n_edges, dtype=np.intp)  # position in subs of each edge's model
    owner[_edge_columns(graph, np.concatenate(named))[: len(keys)]] = np.arange(1, len(subs))
    owner = group[owner]
    table = np.empty((horizon, n_edges), dtype=int)
    order = np.argsort(owner, kind="stable")  # edges grouped by model, in edge order
    for idx in np.split(order, np.flatnonzero(np.diff(owner[order])) + 1):
        if len(idx):
            table[:, idx] = _group_table(subs[owner[idx[0]]], graph, idx, horizon, seed)
    return table


def _group_table(model: ChannelModel, graph: DependencyGraph, idx, horizon, seed) -> np.ndarray:
    """One model's stamp table over the graph's edges ``idx``, checked against it."""
    if isinstance(model, ScheduleTable):
        local = np.full(len(graph.edge_arrays[0]), -1)  # a graph edge's column here
        local[idx] = np.arange(len(idx))
        columns = local[_edge_columns(graph, model.rows[:, 1:3])]
        table = model.stamps_for(columns, len(idx), horizon)
    else:
        table = np.asarray(model.start(len(idx), horizon, seed), dtype=int)
    if table.shape != (horizon, len(idx)):
        raise PreconditionError(
            f"stamp table has shape {table.shape}, expected {(horizon, len(idx))}"
        )

    def edge(k):
        return tuple(int(a[idx[k]]) for a in graph.edge_arrays)

    held = table[1:]
    ticks = np.arange(1, horizon)[:, None]
    outside = (held < 1) | (held > ticks)
    if outside.any():
        t, k = np.argwhere(outside)[0]
        raise PreconditionError(
            f"stamp {held[t, k]} for edge {edge(k)} at t={t + 1} outside 1..{t + 1}"
        )
    if not model.allows_nonmonotone:
        back = held[1:] < held[:-1]
        if back.any():
            t, k = np.argwhere(back)[0]
            raise PreconditionError(
                f"stamp for edge {edge(k)} decreases at t={t + 2}, "
                "outside the default delivery model"
            )
    if model.declared_max_delay is not None:
        over = ticks - held > model.declared_max_delay
        if over.any():
            t, k = np.argwhere(over)[0]
            raise StaleBeyondCapError(
                f"channel exceeds declared staleness {model.declared_max_delay} "
                f"on edge {edge(k)} at t={t + 1}"
            )
    return table


# ---------------------------------------------------------------------------
# Delay accounting
# ---------------------------------------------------------------------------


@dataclass
class ChannelLog:
    """Stamps in effect at every evaluation tick, one row per (tick, edge).

    ``table`` is the run's stamp table from tick 1 on: ``table[t - 1, e]`` is
    the stamp edge e's receiver reads at tick t. The flat columns ``times``,
    ``src``, ``dst`` and ``stamps`` list the entries tick-major, edges in
    graph order; ``stamps`` is a view of the table, the others are derived
    when read.
    """

    table: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray

    @property
    def times(self):
        return np.repeat(np.arange(1, len(self.table) + 1), len(self.edge_src))

    @property
    def src(self):
        return np.tile(self.edge_src, len(self.table))

    @property
    def dst(self):
        return np.tile(self.edge_dst, len(self.table))

    @property
    def stamps(self):
        return self.table.reshape(-1)

    def __len__(self):
        return self.table.size


@dataclass
class DelayStats:
    """Realized staleness statistics of one run.

    ``delay_by_tick[t - 1]`` is the worst staleness (ticks) of any copy used
    at tick t; ``stale_by_tick[t - 1]`` is the largest number of outdated
    neighbor blocks any agent holds at tick t. ``max_delay`` and
    ``max_stale`` are their maxima over the run.
    """

    delay_by_tick: np.ndarray
    stale_by_tick: np.ndarray
    log: ChannelLog

    @property
    def max_delay(self) -> int:
        return int(self.delay_by_tick.max(initial=0))

    @property
    def max_stale(self) -> int:
        return int(self.stale_by_tick.max(initial=0))


def _outdated(stamps, start):
    """Row and column indices of the copies older than their tick in ``stamps``,
    the stamp-table rows of ticks ``start, start + 1, ...``."""
    return (stamps < np.arange(start, start + len(stamps))[:, None]).nonzero()


def realized_delay_stats(log: ChannelLog, graph: DependencyGraph) -> DelayStats:
    """Exact per-tick staleness maxima recomputed from a complete channel log."""
    n_ticks, n = len(log.table), graph.n_agents
    # each tick's oldest copy; a tick without edges reads no copy older than itself
    oldest = log.table.min(axis=1, initial=n_ticks)
    delay_by_tick = np.maximum(np.arange(1, n_ticks + 1) - oldest, 0)
    k, edge = _outdated(log.table, 1)
    # outdated in-edges per (tick, receiving agent)
    stale = np.bincount(k * n + log.edge_dst[edge], minlength=n_ticks * n).reshape(n_ticks, n)
    return DelayStats(delay_by_tick, stale.max(axis=1, initial=0), log)


_LOG_COLUMNS = ("t", "src", "dst", "delivered_stamp")


def write_log_csv(path, log: ChannelLog) -> None:
    """Export a channel log as t,src,dst,delivered_stamp rows, the bytes of
    ``csv.writer``, from one string per edge and one per stamp (1..ticks)."""
    edges = [f",{j},{i}," for j, i in zip(log.edge_src.tolist(), log.edge_dst.tolist())]
    ends = [f"{s}\r\n" for s in range(len(log.table) + 1)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_LOG_COLUMNS) + "\r\n")
        for t, row in enumerate(log.table.tolist(), start=1):
            tick = str(t)
            fh.write("".join([tick + edge + ends[s] for edge, s in zip(edges, row)]))


def read_schedule_csv(path, allow_nonmonotone=False, declared_max_delay=None) -> ScheduleTable:
    """Import a stamp schedule written in the log CSV format, as its rows.

    The header names the columns t, src, dst and delivered_stamp, in any
    order. The rows are parsed by ``np.loadtxt`` in one pass and taken in
    that column order; a field that is not an integer, or a row with a field
    too many or too few, raises ``ValueError``.
    """
    with open(path) as fh:
        names, body = fh.readline().rstrip("\n").split(","), fh.read()
    if sorted(names) != sorted(_LOG_COLUMNS):
        raise PreconditionError(f"schedule CSV must have columns {sorted(_LOG_COLUMNS)}")
    rows = (np.loadtxt(io.StringIO(body), dtype=np.int64, delimiter=",", comments=None, ndmin=2)
            if body.strip() else np.empty((0, 4), dtype=np.int64))
    if rows.shape[1] != 4:
        raise ValueError(f"schedule CSV rows have {rows.shape[1]} fields, not 4")
    return ScheduleTable(rows[:, [names.index(name) for name in _LOG_COLUMNS]],
                         allow_nonmonotone=allow_nonmonotone,
                         declared_max_delay=declared_max_delay)


# ---------------------------------------------------------------------------
# The simulator
# ---------------------------------------------------------------------------


# Indices (gather offsets and column picks) that one block of planned ticks
# holds at most; a tick that needs more is planned alone. Blocks of twice this
# size ran no faster on the 48-agent chain and raised its peak RSS by 0.8 MB.
_PLAN_INDICES = 1 << 16


def _tick_plans(graph: DependencyGraph, stamps, start):
    """Plans of ticks ``start, start + 1, ...`` from their stamp-table rows
    ``stamps``, one list per block of at most ``_PLAN_INDICES`` indices (a tick
    that needs more is a block alone), all from one pass over ``stamps``.

    Tick t evaluates one row per stale agent (in agent order), then x_t when
    some agent is fresh: ``rows[k, i]`` marks agent i's row at tick
    ``start + k`` and ``rows[k, n_agents]`` the row of x_t.
    """
    n = graph.n_agents
    k, edge = _outdated(stamps, start)
    rows = np.zeros((len(stamps), n + 1), dtype=bool)
    rows[k, graph.edge_arrays[1][edge]] = True
    rows[:, n] = ~rows[:, :n].all(axis=1)
    size = (rows.sum(axis=1) + 1) * graph.dim  # a tick's offsets and pick
    before = np.concatenate(([0], np.cumsum(size)))  # indices of the ticks before each
    a = 0
    while a < len(stamps):
        b = max(a + 1, int(np.searchsorted(before, before[a] + _PLAN_INDICES, "right")) - 1)
        lo, hi = np.searchsorted(k, (a, b))
        yield _plan_block(graph, stamps[a:b], start + a, rows[a:b], k[lo:hi] - a, edge[lo:hi])
        a = b


def _plan_block(graph: DependencyGraph, stamps, start, rows, k, edge):
    """Plans ``(t, offsets, pick)`` of ticks ``start, start + 1, ...`` from
    their stamp-table rows, :func:`_tick_plans` rows and outdated pairs
    ``(k, edge)``, k counted from ``start``.

    ``offsets``, shape ``(rows, dim)``, holds the flat history offsets of each
    row's entries: a stale agent i reads x_t with block j of each outdated
    in-edge ``(j, i)`` as of its stamp; x_t reads every block at t.
    ``pick``, shape ``(dim,)``, is column c's flat index in the output of
    the tick's rows call: column c of its owner's row when the owner is
    stale, else of x_t's.
    """
    dim = graph.dim
    rank = np.cumsum(rows, axis=1) - 1  # each row's position within its tick
    n_rows = rank[:, -1] + 1
    first = np.cumsum(n_rows) - n_rows  # each tick's first row in the block
    # every row reads x_t, history row t - 1, except the copies patched in below
    tick = np.arange(start, start + len(stamps))
    offsets = np.repeat((tick - 1) * dim, n_rows)[:, None] + graph.columns
    # each outdated pair: the receiver's row reads the sender's block as of the stamp
    src, dst = (a[edge] for a in graph.edge_arrays)
    size = np.diff(graph.offsets)[src]
    column = _ragged_arange(graph.offsets[src], size)
    offsets.reshape(-1)[np.repeat((first[k] + rank[k, dst]) * dim, size) + column] = (
        np.repeat((stamps[k, edge] - 1) * dim, size) + column)
    row_of = np.where(rows[:, :-1], rank[:, :-1], rank[:, -1:]).take(graph.block_of_column, axis=1)
    pick = row_of * dim + graph.columns
    ends = np.cumsum(n_rows).tolist()
    return list(zip(tick.tolist(), [offsets[a:b] for a, b in zip([0, *ends], ends)], pick))


def _ragged_arange(starts, counts) -> np.ndarray:
    """``starts[m] + arange(counts[m])`` for every m, concatenated."""
    return np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def _tap_plans(family, graph: DependencyGraph, stamps, start):
    """Plans ``(t, (offsets, b))`` of ticks ``start, start + 1, ...`` for a
    family with taps, from their stamp-table rows ``stamps``, one iterator
    per block of at most ``_PLAN_INDICES`` offsets (a tick is
    ``family.nbr.size``); a tick's plan holds views of its block's arrays,
    made as the tick is reached.

    ``offsets[i, p]`` is the flat history offset of the entry that tap
    ``(i, p)`` reads, column ``j = nbr[i, p]``: ``(stamp - 1) * dim + j`` for
    the stamp of the in-edge from j's agent to i's, and x_t's
    ``(t - 1) * dim + j`` within i's own block or where the graph has no
    such edge. ``b`` is b(t), a row of the family's offset table.
    """
    nbr = family.nbr
    # -1 (own block, or no such edge) is the last column of a row: its tick
    edge = graph.edge_columns(graph.block_of_column[nbr], graph.block_of_column[:, None])
    size = max(1, _PLAN_INDICES // nbr.size)
    for a in range(0, len(stamps), size):
        yield _tap_block(family, edge, stamps[a:a + size], start + a)


def _tap_block(family, edge, stamps, start):
    """:func:`_tap_plans`' plans of ticks ``start, start + 1, ...``, whose
    stamp-table rows are ``stamps``; tap ``(i, p)`` reads column ``edge[i, p]``
    of a row followed by its tick."""
    stop = start + len(stamps)
    tick = np.arange(start, stop)
    held = np.concatenate((stamps, tick[:, None]), axis=1)
    offsets = (held[:, edge] - 1) * family.dim + family.nbr
    return zip(tick.tolist(), zip(offsets, family.offset.rows(start, stop)))


def _plans(family, graph: DependencyGraph, stamps, start):
    """The tick plans of ``family``: :func:`_tap_plans` for a family with taps,
    else :func:`_tick_plans`."""
    if family.nbr is not None:
        return _tap_plans(family, graph, stamps, start)
    return _tick_plans(graph, stamps, start)


def step_async(history, stamps, family, graph: DependencyGraph, t, plan=None):
    """Advance the asynchronous iteration by one tick; returns x_{t+1}.

    ``history[k]`` holds the state at time k+1 for k < t; ``stamps`` is row t
    of the run's stamp table, the copy each edge's receiver holds at tick t
    (edges in graph order). All agents evaluate against tick-t information,
    so the result does not depend on agent order.

    Agent i evaluates the map at x_t with block j of each in-edge ``(j, i)``
    whose stamp is older than t patched in as of that stamp. The tick's
    indices come from ``plan``, tick t's plan from
    :func:`_plans` of the same stamp table, or else from a plan of this tick
    alone. A taps plan ``(t, (offsets, b))`` (:func:`_tap_plans`) makes the
    tick one take of the ``(dim, P)`` entries the taps read, one ``einsum``
    with ``family.coef`` and one add of b(t). A rows plan
    ``(t, offsets, pick)`` (:func:`_tick_plans`) makes it one flat take of
    its rows from ``history`` (the stale agents' inputs, then x_t when any
    agent is fresh), one ``family.evaluate`` call on them and one flat take
    of ``pick``, column c from the row of the agent that owns it. Either way
    one domain check follows. As built-in taps and rows equal points bit for
    bit, a zero-delay tick is the synchronous step to the last bit.
    """
    if plan is None:
        (plan,) = next(_plans(family, graph, np.asarray(stamps)[None], t))
    if plan[0] != t:
        raise PreconditionError(f"tick {t} was given the plan of tick {plan[0]}")
    if len(plan) == 3:
        x_next = family.evaluate(history.take(plan[1]), t).take(plan[2])
    else:
        offsets, b = plan[1]
        x_next = np.einsum("ip,ip->i", history.take(offsets), family.coef)
        x_next += b
    if not family.domain.contains(x_next):
        raise DomainViolationError(f"asynchronous iterate left the domain at tick {t}")
    return x_next


def run_async_tracker(family, graph: DependencyGraph, channels: ChannelModel, x0, horizon,
                      norm: Norm | None = None, seed=0, reference=None):
    """Run the asynchronous iteration and score it against reference fixed points.

    Returns ``(trace, stats)``: a :class:`~fptrack.core.TrackingTrace` and the
    realized :class:`DelayStats`.
    Identical arguments (including ``seed``) reproduce the trace bitwise.
    """
    horizon, x0, norm = _tracker_start(family, x0, horizon, norm)
    if graph.dim != family.dim:
        raise PreconditionError("graph blocks do not tile the family's state")
    table = _start_channels(channels, graph, horizon, seed)
    history = np.empty((horizon, family.dim))
    history[0] = x0
    for block in _plans(family, graph, table[1:], 1):
        for plan in block:
            t = plan[0]
            history[t] = step_async(history, table[t], family, graph, t, plan)
        del block, plan  # free this block's indices before the next block is planned
    log = ChannelLog(table[1:], *graph.edge_arrays)
    stats = realized_delay_stats(log, graph)
    return _tracker_score(family, history, norm, reference), stats


# ---------------------------------------------------------------------------
# Dependency-graph audit
# ---------------------------------------------------------------------------


def audit_dependency_graph(family, graph: DependencyGraph, probe_count=32, seed=0):
    """Check that declared edges cover the map's actual block dependencies.

    Perturbing block j may change block i's output only when ``(j, i)`` is a
    declared edge or ``j == i``. Declared edges that carry no dependence are
    allowed. Each probe is one rows call at t = 1: a domain point and, for
    every agent j, the point with block j moved by about 1e-6 relative (up,
    or down when up leaves the domain; skipped when both do). Block i
    depends on j when its output moves by more than 1e-9 relative. Returns
    ``(ok, violations)`` with violating ``(j, i)`` pairs.
    """
    sampler = DomainSampler(family.domain, int(seed) + 9173)
    rng = seeded_stream(seed, 55)
    own_block = (graph.block_of_column, graph.columns)  # in row j, the columns of block j
    found = np.zeros((graph.n_agents, graph.n_agents), dtype=bool)
    for _ in range(int(probe_count)):
        x = sampler.draw_one()
        delta = rng.uniform(0.5, 1.0, size=graph.dim) * (1e-6 * (1.0 + float(np.max(np.abs(x)))))
        moved = np.tile(x, (graph.n_agents, 1))  # row j: x with block j moved
        moved[own_block] = x + delta
        down = (~family.domain.contains(moved))[graph.block_of_column]
        moved[own_block] = np.where(down, x - delta, x + delta)
        keep = family.domain.contains(moved)
        out = family.evaluate(np.vstack((x, moved[keep])), 1)
        thresh = 1e-9 * (1.0 + float(np.max(np.abs(out[0]))))
        block_change = np.maximum.reduceat(np.abs(out[1:] - out[0]), graph.offsets[:-1], axis=1)
        found[keep] |= block_change > thresh
    found[graph.edge_arrays] = False
    np.fill_diagonal(found, False)
    violations = [tuple(edge) for edge in np.argwhere(found).tolist()]
    return not violations, violations
