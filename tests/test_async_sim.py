"""Asynchronous simulator: channels, staleness accounting, reductions, audits."""
import csv
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fptrack as fp
from fptrack import (
    ChannelModel,
    DependencyGraph,
    FixedDelay,
    IidDrop,
    Norm,
    PeriodicDelivery,
    ScheduleTable,
    ZeroDelay,
)
from fptrack import async_sim
from fptrack.async_sim import (
    _start_channels,
    _tap_plans,
    _tick_plans,
    realized_delay_stats,
    step_async,
)
from fptrack.core import seeded_stream
from fptrack.errors import (
    DomainViolationError,
    NonConvergenceError,
    PreconditionError,
    StaleBeyondCapError,
)
from fptrack.problems import (
    AffineFamily,
    DriftPath,
    build_affine_family,
    build_broadcast_system,
    build_multiarea_maps,
    default_injections,
    random_qp,
    three_area_network,
)

L2, LINF = Norm(fp.L2), Norm(fp.LINF)


def small_affine(dim=3, contraction=0.5, seed=0, norm=None, coupling="dense"):
    norm = norm or L2
    drift = DriftPath("constant", dim, start=np.linspace(1.0, 2.0, dim), norm=norm)
    return build_affine_family(dim, norm, contraction, drift, seed=seed, coupling=coupling)


# ---------------------------------------------------------------------------
# DependencyGraph
# ---------------------------------------------------------------------------


def test_graph_rejects_self_edges():
    with pytest.raises(PreconditionError):
        DependencyGraph([1, 1], [(0, 0)])


def test_graph_rejects_unknown_agents():
    with pytest.raises(PreconditionError):
        DependencyGraph([1, 1], [(0, 2)])


@pytest.mark.parametrize("edges,message", [
    ([(0, 1), (3, 1), (1, 1)], r"edge \(3, 1\) references unknown agents"),
    ([(0, 1), (1, 1), (3, 1)], r"self-edge \(1, 1\) is not allowed"),
    ([(2, -1), (0, 0)], r"edge \(2, -1\) references unknown agents"),
    ([(4, 4)], r"self-edge \(4, 4\) is not allowed"),
    ([(0, 1, 2)], "pairs"),
])
def test_graph_names_the_first_offending_edge_in_input_order(edges, message):
    with pytest.raises(PreconditionError, match=message):
        DependencyGraph([1, 2, 1], edges)


def test_graph_edges_are_integers_not_truncated():
    for edges in ([(0.6, 1.2)], np.array([[0.0, 1.0]])):
        with pytest.raises(PreconditionError, match="pairs; got entries of type float64"):
            DependencyGraph([1, 1], edges)
    assert DependencyGraph([1, 1], np.array([[0, 1]], dtype=np.uint8)).edges == ((0, 1),)


def test_graph_block_sizes_are_integers_not_truncated():
    with pytest.raises(PreconditionError, match="block size 1.5 is not an integer"):
        DependencyGraph([1.5, 2.9], [(0, 1)])
    assert DependencyGraph(np.array([1, 2]), [(0, 1)]).block_sizes == (1, 2)


def test_a_declared_schedule_delay_is_an_integer_not_truncated():
    with pytest.raises(PreconditionError, match="declared_max_delay 1.5 is not an integer"):
        ScheduleTable([(2, 1, 0, 1)], declared_max_delay=1.5)
    assert ScheduleTable([(2, 1, 0, 1)], declared_max_delay=np.int64(1)).declared_max_delay == 1


def test_both_trackers_take_a_horizon_that_is_an_integer_not_truncated():
    fam = small_affine(dim=2, coupling="chain")
    graph = fam.dependency_graph()
    with pytest.raises(PreconditionError, match="horizon 3.9 is not an integer"):
        fp.run_online_tracker(fam, np.zeros(2), 3.9, LINF)
    with pytest.raises(PreconditionError, match="horizon 3.9 is not an integer"):
        fp.run_async_tracker(fam, graph, ZeroDelay(), np.zeros(2), 3.9, LINF)
    assert fp.run_online_tracker(fam, np.zeros(2), np.int64(3), LINF).horizon == 3
    assert fp.run_async_tracker(fam, graph, ZeroDelay(), np.zeros(2), np.int64(3),
                                LINF)[0].horizon == 3


def test_graph_edges_are_distinct_and_sorted_from_pairs_or_an_array():
    pairs = [(2, 0), (0, 1), (2, 0), (1, 2), (0, 2)]
    expected = ((0, 1), (0, 2), (1, 2), (2, 0))
    for edges in (pairs, tuple(pairs), np.array(pairs)):
        g = DependencyGraph([1, 2, 1], edges)
        assert g.edges == expected
        assert all(type(v) is int for edge in g.edges for v in edge)
        assert [list(a) for a in g.edge_arrays] == [[0, 0, 1, 2], [1, 2, 2, 0]]
    assert DependencyGraph([1, 1], []).edges == ()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(n=st.integers(1, 6),
       edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20),
       queries=st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), max_size=20))
@example(n=3, edges=[], queries=[(0, 1), (1, 0), (1, 1), (-1, 2), (5, 0)])
@example(n=3, edges=[(1, 2)], queries=[(1, 2), (0, 5), (2, -1), (2, 2), (-3, 2)])
def test_edge_columns_equal_a_dict_lookup_of_the_graph_edges(n, edges, queries):
    edges = [(j, i) for j, i in edges if j != i and max(j, i) < n]
    graph = DependencyGraph([1] * n, edges)
    column = {edge: k for k, edge in enumerate(graph.edges)}
    queries = queries + list(column)
    src, dst = np.array(queries, dtype=np.int64).reshape(-1, 2).T
    assert graph.edge_columns(src, dst).tolist() == [column.get(q, -1) for q in queries]


def test_graph_edge_pairs_are_built_on_first_read_and_no_run_reads_them():
    fam = small_affine(dim=4, coupling="chain")
    g = fam.dependency_graph()
    for channels in (ScheduleTable([(2, 1, 0, 1)]), IidDrop(0.3)):
        fp.run_async_tracker(fam, g, channels, np.zeros(4), 20, L2, seed=1)
    assert "edges" not in vars(g)
    assert g.edges == ((0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)) and g.edges is g.edges


def block_slice(graph, i):
    return slice(int(graph.offsets[i]), int(graph.offsets[i + 1]))


def in_neighbors(graph, i):
    return tuple(j for (j, k) in graph.edges if k == i)


def test_graph_block_layout():
    g = DependencyGraph([2, 3, 1], [(0, 1), (1, 2)])
    assert g.dim == 6
    assert block_slice(g, 1) == slice(2, 5)
    assert in_neighbors(g, 2) == (1,)
    assert list(g.block_of_column) == [0, 0, 1, 1, 1, 2]


# ---------------------------------------------------------------------------
# step semantics
# ---------------------------------------------------------------------------


def test_zero_delay_step_equals_synchronous_step_bitwise():
    fam = small_affine()
    g = fam.dependency_graph()
    x0 = np.array([0.2, -0.1, 0.4])
    sync = fp.run_online_tracker(fam, x0, 30, L2)
    tr, stats = fp.run_async_tracker(fam, g, ZeroDelay(), x0, 30, L2, seed=0)
    assert np.array_equal(sync.iterates, tr.iterates)
    assert stats.max_delay == 0 and stats.max_stale == 0


def test_both_trackers_name_the_time_their_iterate_leaves_the_domain():
    # on [-1, 1]^2 the map at t = 3 lands outside the box from any point in it
    fam = fp.MapFamily(
        dim=2,
        domain=fp.Domain.box([-1.0, -1.0], [1.0, 1.0]),
        evaluate=fp.pointwise(lambda x, t: 0.5 * x + (5.0 if t == 3 else 0.0)),
        lipschitz=0.5,
    )
    with pytest.raises(DomainViolationError, match="at time index 3$"):
        fp.run_online_tracker(fam, np.zeros(2), 10, LINF)
    graph = DependencyGraph([1, 1], [(0, 1), (1, 0)])
    for channels in (ZeroDelay(), FixedDelay(1)):
        with pytest.raises(DomainViolationError, match="at tick 3$"):
            fp.run_async_tracker(fam, graph, channels, np.zeros(2), 10, LINF)


def test_an_offset_that_is_not_finite_fails_the_tick_that_reads_it_without_warnings():
    # b(2) = (I - A) path(2) overflows, though path(2) = (1e308, 1e308) is finite
    A = np.array([[0.0, -0.9], [-0.9, 0.0]])
    path = DriftPath("linear", 2, rate=1e308, direction=[1.0, 1.0], norm=LINF)
    fam = AffineFamily(A, path, LINF, lipschitz=0.9)
    graph = fam.dependency_graph()
    reference = np.zeros((3, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isinf(fam.offset.at(2)).all() and np.isfinite(fam.offset.at(1)).all()
        with pytest.raises(NonConvergenceError, match="residual inf above tolerance at time index 2"):
            fp.compute_fixed_point_series(fam, 2, LINF)
        with pytest.raises(DomainViolationError, match="at time index 2$"):
            fp.run_online_tracker(fam, np.zeros(2), 3, LINF, reference=reference)
        for channels in (ZeroDelay(), FixedDelay(1)):
            with pytest.raises(DomainViolationError, match="at tick 2$"):
                fp.run_async_tracker(fam, graph, channels, np.zeros(2), 3, LINF,
                                     reference=reference)


def tap_family_leaving_at(first):
    """A two-agent tap family whose offsets b(t) are finite before tick ``first``
    and not at it, so that x_{first + 1} is the first iterate that is not finite."""
    path = DriftPath("linear", 2, rate=1e308 / (first - 1.5), direction=[1.0, 1.0], norm=LINF)
    fam = AffineFamily(np.array([[0.0, -0.9], [-0.9, 0.0]]), path, LINF, lipschitz=0.9)
    assert np.isfinite(fam.offset.rows(1, first)).all()
    assert not np.isfinite(fam.offset.at(first)).any()
    return fam


@pytest.mark.parametrize("channels", [ZeroDelay(), FixedDelay(1), IidDrop(0.5)])
@pytest.mark.parametrize("kind", ["taps", "rows"])
def test_a_domain_violation_names_its_first_tick_and_no_later_tick_runs(kind, channels,
                                                                        monkeypatch):
    ticks, inputs = [], []

    def recording_step(history, stamps, family, graph, t, plan=None):
        ticks.append(t)
        return step(history, stamps, family, graph, t, plan)

    step = async_sim.step_async
    monkeypatch.setattr(async_sim, "step_async", recording_step)
    graph = DependencyGraph([1, 1], [(0, 1), (1, 0)])
    if kind == "taps":
        # a tap run calls no step_async: each block of ticks runs whole and is
        # checked once, so later ticks of the block do run (on values that are
        # not finite, without warnings); the check names the first failing
        # tick whether it opens, splits or closes its block
        monkeypatch.setattr(async_sim, "_PLAN_INDICES", 10)
        block = 5
        for first in (block + 1, block + 3, 2 * block):
            fam = tap_family_leaving_at(first)
            assert async_sim._PLAN_INDICES // fam.nbr.size == block
            with pytest.raises(DomainViolationError, match=f"at tick {first}$"):
                fp.run_async_tracker(fam, graph, channels, np.zeros(2), 3 * block, LINF,
                                     seed=2, reference=np.zeros((3 * block, 2)))
        assert ticks == []
        return
    # on [-1, 1]^2 the map at t = 4 lands outside the box
    def evaluate(x, t):
        inputs.append(x.copy())
        return 0.5 * x + (5.0 if t == 4 else 0.0)

    fam = fp.MapFamily(2, fp.Domain.box([-1.0, -1.0], [1.0, 1.0]), fp.pointwise(evaluate),
                       lipschitz=0.5)
    first = 4
    with pytest.raises(DomainViolationError, match=f"at tick {first}$"):
        fp.run_async_tracker(fam, graph, channels, np.zeros(2), 12, LINF, seed=2,
                             reference=np.zeros((12, 2)))
    assert ticks == list(range(1, first + 1))
    assert all(fam.domain.contains(x) for x in inputs)  # no map ran outside its domain


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(coupling=st.sampled_from(["chain", "diagonal", "dense"]), dim=st.integers(2, 6),
       channel=st.sampled_from(["none", "fixed", "periodic", "iid", "schedule"]),
       horizon=st.integers(2, 40), block=st.integers(1, 7), seed=st.integers(0, 2 ** 16))
def test_a_tap_run_equals_a_loop_of_single_ticks_bitwise(coupling, dim, channel, horizon, block,
                                                         seed):
    fam = small_affine(dim=dim, coupling=coupling, seed=seed, norm=LINF, contraction=0.8)
    graph = fam.dependency_graph()
    rng = np.random.default_rng(seed)
    if channel == "schedule":  # any stamp in 1..t: old copies may overwrite newer ones
        channels = ScheduleTable([(t, j, i, int(rng.integers(1, t + 1)))
                                  for t in range(1, horizon) for j, i in graph.edges],
                                 allow_nonmonotone=True)
    else:
        channels = {"none": ZeroDelay(), "fixed": FixedDelay(2), "periodic": PeriodicDelivery(3),
                    "iid": IidDrop(0.4, max_consecutive=3)}[channel]
    x0 = rng.uniform(-1.0, 1.0, dim)
    with mock.patch.object(async_sim, "_PLAN_INDICES", block * fam.nbr.size):
        trace, _ = fp.run_async_tracker(fam, graph, channels, x0, horizon, LINF, seed=seed,
                                        reference=np.zeros((horizon, dim)))
    table = _start_channels(channels, graph, horizon, seed)
    history = np.empty((horizon, dim))
    history[0] = x0
    for t in range(1, horizon):
        before = history[:t].tobytes()
        history[t] = step_async(history[:t], table[t], fam, graph, t)
        assert history[:t].tobytes() == before  # a single tick writes no history row
    assert trace.iterates.tobytes() == history.tobytes()


@pytest.mark.parametrize("horizon, x0, blocks, message", [
    (0, [0.0, 0.0], [1, 1], "horizon must be at least 1"),
    (10, [0.0, 2.0], [1, 1], "initial point lies outside the declared domain"),
    (10, [0.0, 0.0], [1, 2], "graph blocks do not tile the family's state"),
])
def test_both_trackers_reject_a_run_they_cannot_start(horizon, x0, blocks, message):
    fam = fp.MapFamily(
        dim=2,
        domain=fp.Domain.box([-1.0, -1.0], [1.0, 1.0]),
        evaluate=fp.pointwise(lambda x, t: 0.5 * x),
        lipschitz=0.5,
    )
    if blocks == [1, 1]:  # the synchronous tracker reads no graph
        with pytest.raises(PreconditionError, match=message):
            fp.run_online_tracker(fam, x0, horizon, LINF)
    graph = DependencyGraph(blocks, [(0, 1), (1, 0)])
    with pytest.raises(PreconditionError, match=message):
        fp.run_async_tracker(fam, graph, ZeroDelay(), x0, horizon, LINF)


def test_async_tracker_names_both_shapes_of_an_initial_point_of_another_size():
    fam = small_affine(dim=3, coupling="chain")
    with pytest.raises(PreconditionError, match=r"shape \(4,\); expected \(3,\)"):
        fp.run_async_tracker(fam, fam.dependency_graph(), ZeroDelay(), np.zeros(4), 10, L2)


def test_fixed_delay_two_agent_hand_oracle():
    A = np.array([[0.3, 0.2], [0.1, 0.4]])
    path = DriftPath("constant", 2, start=[1.0, 2.0])
    fam = AffineFamily(A, path, L2, lipschitz=0.62)
    b = (np.eye(2) - A) @ np.array([1.0, 2.0])
    x0 = np.array([1.0, 0.0])
    tr, stats = fp.run_async_tracker(
        fam, fam.dependency_graph(), FixedDelay(1), x0, 4, L2, seed=0
    )
    # hand simulation of three ticks with one-tick-old neighbor copies
    x1 = x0
    x2 = A @ x1 + b
    v0 = np.array([x2[0], x1[1]])
    v1 = np.array([x1[0], x2[1]])
    x3 = np.array([A[0] @ v0 + b[0], A[1] @ v1 + b[1]])
    v0 = np.array([x3[0], x2[1]])
    v1 = np.array([x2[0], x3[1]])
    x4 = np.array([A[0] @ v0 + b[0], A[1] @ v1 + b[1]])
    assert np.allclose(tr.iterates, np.stack([x1, x2, x3, x4]), atol=1e-15)
    assert stats.max_delay == 1
    assert stats.max_stale == 1


def test_dropped_packet_keeps_copy_and_stamp():
    fam = small_affine(dim=2)
    g = fam.dependency_graph()
    # schedule: edge (0 -> 1) never delivers after t=1; edge (1 -> 0) always fresh
    channels = ScheduleTable([(t, 1, 0, t) for t in range(2, 6)])
    tr, stats = fp.run_async_tracker(fam, g, channels, np.zeros(2), 5, L2, seed=0)
    log = stats.log
    rows = (log.src == 0) & (log.dst == 1)
    assert np.all(log.stamps[rows] == 1)  # copy frozen at the initial state
    assert stats.max_delay == 3  # last evaluation tick is horizon - 1 = 4


def per_agent_step(history, stamps, family, graph, t):
    """x_{t+1} with every agent evaluating the map at its own composite input."""
    views = history[stamps[:, graph.block_of_column] - 1, np.arange(graph.dim)[None, :]]
    x_next = np.empty(graph.dim)
    for i in range(graph.n_agents):
        sl = block_slice(graph, i)
        x_next[sl] = family.evaluate(views[i].copy(), t)[sl]
    return x_next


def stamp_matrix(row, graph, t):
    """stamps[i, j]: agent i's copy of block j at tick t, given the table's row t."""
    stamps = np.ones((graph.n_agents, graph.n_agents), dtype=int)
    np.fill_diagonal(stamps, t)
    src, dst = graph.edge_arrays
    stamps[dst, src] = row
    return stamps


def stale_agent_count(stamps, graph, t):
    src, dst = graph.edge_arrays
    return len(set(dst[stamps[dst, src] != t].tolist()))


def mixed_tick_case(name):
    """A family, its graph, a horizon and the drops of a run with mixed ticks."""
    drops = IidDrop(0.3, max_consecutive=3)
    if name == "affine-chain":
        fam = small_affine(dim=12, coupling="chain", norm=LINF, contraction=0.6)
        return fam, fam.dependency_graph(), 150, drops
    if name == "affine-chain-48":  # the shape of the async-affine-chain benchmark
        drift = DriftPath("linear", 48, rate=0.01, seed=6, norm=LINF)
        fam = build_affine_family(48, LINF, 0.6, drift, seed=7, coupling="chain")
        return fam, fam.dependency_graph(), 240, IidDrop(0.2, max_consecutive=5)
    if name == "qp-broadcast":
        return (*build_broadcast_system(random_qp(5, seed=9), 0.15, 0.01, seed=11), 150, drops)
    net = three_area_network()
    system = build_multiarea_maps(net, default_injections(net, 0.7), 0.001, seed=1)
    return system.family, system.graph, 80, drops


@pytest.mark.parametrize("name", ["affine-chain", "affine-chain-48", "qp-broadcast",
                                  "three-area-loadflow"])
def test_mixed_fresh_and_stale_ticks_match_per_agent_evaluation_bitwise(name):
    family, graph, horizon, drops = mixed_tick_case(name)
    table = _start_channels(drops, graph, horizon, seed=4)
    history = np.empty((horizon, family.dim))
    history[0] = np.zeros(family.dim)
    mixed = 0
    for t in range(1, horizon):
        stamps = stamp_matrix(table[t], graph, t)
        stale = stale_agent_count(stamps, graph, t)
        mixed += 0 < stale < graph.n_agents
        expected = per_agent_step(history[:t], stamps, family, graph, t)
        x_next = step_async(history[:t], table[t], family, graph, t)
        assert x_next.tobytes() == expected.tobytes(), f"tick {t}"
        history[t] = x_next
    assert mixed >= horizon // 5


def patched_step(history, stamps, family, graph, t):
    """x_{t+1} with agent i evaluating the map at x_t with, for each in-edge
    ``(j, i)``, block j taken as of the edge's stamp in ``stamps`` (row t)."""
    x_next = np.empty(graph.dim)
    for i in range(graph.n_agents):
        view = history[t - 1].copy()
        for (j, k), s in zip(graph.edges, stamps.tolist()):
            if k == i:
                view[block_slice(graph, j)] = history[s - 1, block_slice(graph, j)]
        x_next[block_slice(graph, i)] = family.evaluate(view, t)[block_slice(graph, i)]
    return x_next


def test_audit_probe_count_is_a_positive_integer():
    fam = small_affine(dim=3, coupling="chain")
    graph = fam.dependency_graph()
    with pytest.raises(PreconditionError, match="probe_count 2.7 is not an integer"):
        fp.audit_dependency_graph(fam, graph, probe_count=2.7)
    with pytest.raises(PreconditionError, match="need at least one probe"):
        fp.audit_dependency_graph(fam, graph, probe_count=0)
    assert fp.audit_dependency_graph(fam, graph, probe_count=np.int64(2)) == (True, [])


def test_a_map_reading_non_neighbors_reads_them_at_t():
    # every block of the dense map reads every block; the graph is a chain of
    # blocks of 2, 1, 2 and 1 columns, so the map violates it
    fam = small_affine(dim=6, coupling="dense", norm=LINF, contraction=0.6)
    chain = [(i, i + 1) for i in range(3)] + [(i + 1, i) for i in range(3)]
    graph = DependencyGraph([2, 1, 2, 1], chain)
    assert not fp.audit_dependency_graph(fam, graph, probe_count=4, seed=0)[0]
    horizon, drops = 60, IidDrop(0.4, max_consecutive=3)
    table = _start_channels(drops, graph, horizon, seed=4)
    x0 = np.random.default_rng(8).uniform(-1.0, 1.0, fam.dim)
    trace, _ = fp.run_async_tracker(fam, graph, drops, x0, horizon, LINF, seed=4,
                                    reference=np.zeros((horizon, fam.dim)))
    x = trace.iterates
    for t in range(1, horizon):
        expected = patched_step(x[:t], table[t], fam, graph, t)
        assert x[t].tobytes() == expected.tobytes(), f"tick {t}"
    stale = [stale_agent_count(stamp_matrix(table[t], graph, t), graph, t)
             for t in range(1, horizon)]
    assert {0, graph.n_agents} < set(stale)  # fresh, mixed and all-stale ticks


def rows_counting_affine_chain():
    """The five-agent affine chain, with a map that records the rows of each call."""
    fam = small_affine(dim=5, coupling="chain")
    rows_per_call = []

    def counting_evaluate(x, t):
        rows_per_call.append(len(x))
        return fam.evaluate(x, t)

    counted = fp.MapFamily(fam.dim, fam.domain, counting_evaluate, lipschitz=fam.lipschitz_sup)
    return fam, counted, rows_per_call


def test_tick_evaluates_once_plus_once_per_stale_agent():
    fam, counted, rows_per_call = rows_counting_affine_chain()
    graph = fam.dependency_graph()
    src, dst = graph.edge_arrays
    t = 4
    history = np.random.default_rng(1).standard_normal((t, fam.dim))
    for k in range(graph.n_agents + 1):
        stamps = np.full((graph.n_agents, graph.n_agents), t)
        for i in range(k):  # agents 0..k-1 hold one outdated neighbor copy
            stamps[i, in_neighbors(graph, i)[0]] = t - 1
        assert stale_agent_count(stamps, graph, t) == k
        rows_per_call.clear()
        x_next = step_async(history, stamps[dst, src], counted, graph, t)
        assert rows_per_call == [k + 1 if k < graph.n_agents else k]
        expected = per_agent_step(history, stamps, fam, graph, t)
        assert x_next.tobytes() == expected.tobytes()


def test_tick_is_one_rows_call_with_a_row_per_stale_agent_and_one_for_x_t():
    # a whole run: one call per tick, its rows the tick's stale agents plus x_t if any is fresh
    fam, counted, rows_per_call = rows_counting_affine_chain()
    graph = fam.dependency_graph()
    horizon, channels = 60, IidDrop(0.5, max_consecutive=3)
    table = _start_channels(channels, graph, horizon, seed=2)
    fp.run_async_tracker(counted, graph, channels, np.zeros(fam.dim), horizon, L2, seed=2,
                         reference=fp.compute_fixed_point_series(fam, horizon, L2))
    stale = [stale_agent_count(stamp_matrix(table[t], graph, t), graph, t)
             for t in range(1, horizon)]
    assert rows_per_call == [k + (k < graph.n_agents) for k in stale]
    assert {0, 2, graph.n_agents} <= set(stale)  # all fresh, mixed and all stale ticks


# ---------------------------------------------------------------------------
# tick plans
# ---------------------------------------------------------------------------


def dense_copy_source(graph):
    """Agent i's copy of column c as an index into a tick's stamps followed by
    t; the extra row n_agents is x_t. The table the plan replaces."""
    n_edges = len(graph.edges)
    source = np.full((graph.n_agents + 1, graph.n_agents), n_edges)
    src, dst = graph.edge_arrays
    source[dst, src] = np.arange(n_edges)
    return source[:, graph.block_of_column]


def dense_tick_indices(graph, stamps, t):
    """A tick's gather offsets and column picks, from the dense table of every agent:
    column c's pick is its flat index in the rows call's output, row row_of[c]."""
    stale = np.zeros(graph.n_agents + 1, dtype=bool)
    stale[graph.edge_arrays[1][stamps != t]] = True
    stale[graph.n_agents] = True
    agents = stale.nonzero()[0]
    n_stale = len(agents) - 1
    if n_stale == graph.n_agents:
        agents = agents[:-1]
    held = (np.append(stamps, t) - 1) * graph.dim
    offsets = held.take(dense_copy_source(graph).take(agents, axis=0)) + graph.columns
    row_of = np.full(graph.n_agents + 1, n_stale)
    row_of[agents] = np.arange(len(agents))
    return offsets, row_of.take(graph.block_of_column) * graph.dim + graph.columns


def random_stamp_table(n_edges, horizon, rng):
    """Stamps anywhere in 1..t at tick t, non-monotone; a third of the entries current."""
    ticks = np.arange(horizon)[:, None]
    table = rng.integers(1, np.maximum(ticks, 1) + 1, size=(horizon, n_edges))
    current = rng.random((horizon, n_edges)) < 1 / 3
    return np.where(current, np.maximum(ticks, 1), table)


def test_plan_sources_match_the_dense_copy_source_table_on_random_graphs():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        sizes = rng.integers(1, 4, size=n).tolist()
        pairs = [(j, i) for j in range(n) for i in range(n) if j != i and rng.random() < 0.4]
        rng.shuffle(pairs)
        graph = DependencyGraph(sizes, pairs + pairs[: len(pairs) // 3])
        horizon = int(rng.integers(2, 14))
        table = random_stamp_table(len(graph.edges), horizon, rng)
        planned = [plan for block in _tick_plans(graph, table[1:], 1) for plan in block]
        start = int(rng.integers(1, horizon))  # plans of their own from a later tick
        planned += [plan for block in _tick_plans(graph, table[start:], start) for plan in block]
        assert [t for t, _, _ in planned] == [*range(1, horizon), *range(start, horizon)]
        for t, offsets, pick in planned:
            expected_offsets, expected_pick = dense_tick_indices(graph, table[t], t)
            assert np.array_equal(offsets, expected_offsets), (sizes, graph.edges, t)
            assert np.array_equal(pick, expected_pick), (sizes, graph.edges, t)


def plan_indices(block):
    return sum(offsets.size + pick.size for _, offsets, pick in block)


@pytest.mark.parametrize("name", ["affine-chain", "affine-chain-48", "qp-broadcast",
                                  "three-area-loadflow"])
def test_mixed_ticks_through_the_run_plans_match_per_agent_evaluation_bitwise(
        name, monkeypatch):
    family, graph, horizon, drops = mixed_tick_case(name)
    budget = 5 * (graph.n_agents + 1) * graph.dim  # at least five ticks a block
    monkeypatch.setattr(async_sim, "_PLAN_INDICES", budget)
    table = _start_channels(drops, graph, horizon, seed=4)
    # end the run inside the last full block, so that its final block is partial
    cut = list(_tick_plans(graph, table[1:], 1))[-2]
    horizon = cut[0][0] + len(cut) // 2 + 1
    table = table[:horizon]
    history = np.empty((horizon, family.dim))
    history[0] = np.zeros(family.dim)
    blocks = list(_tick_plans(graph, table[1:], 1))
    ticks = [plan[0] for block in blocks for plan in block]
    assert ticks == list(range(1, horizon))
    assert len(blocks) >= 4 and all(plan_indices(block) <= budget for block in blocks)
    assert blocks[-1][0][0] == cut[0][0] and len(blocks[-1]) < len(cut)
    for block in blocks:
        for plan in block:
            t = plan[0]
            expected = per_agent_step(history[:t], stamp_matrix(table[t], graph, t),
                                      family, graph, t)
            x_next = step_async(history, table[t], family, graph, t, plan)
            assert x_next.tobytes() == expected.tobytes(), f"tick {t}"
            history[t] = x_next
    trace, stats = fp.run_async_tracker(family, graph, drops, np.zeros(family.dim), horizon,
                                        seed=4, reference=np.zeros((horizon, family.dim)))
    assert np.array_equal(stats.log.table, table[1:])
    assert trace.iterates.tobytes() == history.tobytes()


def test_nonmonotone_schedule_replays_per_agent_evaluation_bitwise():
    fam = small_affine(dim=6, coupling="chain", norm=LINF, contraction=0.6)
    graph = fam.dependency_graph()
    rng = np.random.default_rng(3)
    horizon = 40
    table = random_stamp_table(len(graph.edges), horizon, rng)
    rows = [(t, j, i, table[t, k]) for t in range(1, horizon)
            for k, (j, i) in enumerate(graph.edges)]
    channels = ScheduleTable(rows, allow_nonmonotone=True)
    trace, stats = fp.run_async_tracker(fam, graph, channels, np.zeros(fam.dim), horizon, LINF)
    assert np.array_equal(stats.log.table, table[1:])
    assert (np.diff(table[1:], axis=0) < 0).any()  # old packets overwrite newer ones
    x = trace.iterates
    for t in range(1, horizon):
        expected = per_agent_step(x[:t], stamp_matrix(table[t], graph, t), fam, graph, t)
        assert x[t].tobytes() == expected.tobytes(), f"tick {t}"


def test_a_plan_serves_only_its_own_ticks():
    fam = small_affine(dim=3, coupling="chain")
    graph = fam.dependency_graph()
    table = _start_channels(IidDrop(0.5), graph, 12, seed=1)
    (block,) = _tick_plans(graph, table[4:8], 4)
    plan = block[1]
    history = np.zeros((12, 3))
    for t in (4, 6):
        with pytest.raises(PreconditionError, match=f"tick {t} was given the plan of tick 5"):
            step_async(history, table[t], fam, graph, t, plan)
    assert step_async(history, table[5], fam, graph, 5, plan).tobytes() == (
        step_async(history, table[5], fam, graph, 5).tobytes())


@pytest.mark.parametrize("family", ["taps", "rows"])
@pytest.mark.parametrize("stamps, t, message", [
    ([0, 0, 0, 0], 2, r"stamp 0 for edge \(0, 1\) at t=2 outside 1\.\.2$"),
    ([1, 2, 4, 1], 2, r"stamp 4 for edge \(1, 2\) at t=2 outside 1\.\.2$"),
    ([1, 1, 1], 2, r"stamps of tick 2 must be one integer per edge; got int\d+ of shape \(3,\)$"),
    ([1.0, 1.0, 1.0, 1.0], 2,
     r"stamps of tick 2 must be one integer per edge; got float64 of shape \(4,\)$"),
    ([1, 1, 1, 1], 0, r"tick 0 outside the history's ticks 1\.\.4$"),
    ([1, 1, 1, 1], 5, r"tick 5 outside the history's ticks 1\.\.4$"),
    ([1, 1, 1, 1], 2.0, "tick 2.0 is not an integer$"),
], ids=["stamp-0", "stamp-above-t", "short-row", "float-stamps", "tick-0", "tick-past-history",
        "float-tick"])
def test_a_tick_without_a_plan_checks_the_stamps_and_tick_it_is_given(family, stamps, t,
                                                                        message):
    fam = small_affine(dim=3, coupling="chain")
    graph = fam.dependency_graph()
    if family == "rows":
        fam = fp.MapFamily(fam.dim, fam.domain, fam.evaluate, lipschitz=fam.lipschitz_sup)
    history = np.zeros((4, 3))
    history[-1] = 1e6  # a stamp of 0 would read this row
    with pytest.raises(PreconditionError, match=message):
        step_async(history, np.array(stamps), fam, graph, t)
    assert step_async(history, np.array([1, 1, 1, 1]), fam, graph, 4).shape == (3,)


def test_a_2000_agent_chain_plans_every_all_stale_tick_alone():
    n = 2000
    chain = [(i, i + 1) for i in range(n - 1)] + [(i + 1, i) for i in range(n - 1)]
    graph = DependencyGraph([1] * n, chain)
    table = np.ones((4, len(graph.edges)), dtype=int)  # from tick 2 every copy is stale
    blocks = _tick_plans(graph, table[1:], 1)
    first = next(blocks)
    assert [plan[0] for plan in first] == [1]  # tick 1 is fresh; tick 2 would overflow
    assert plan_indices(first) == 2 * n <= async_sim._PLAN_INDICES
    for t in (2, 3):
        (plan,) = next(blocks)
        tick, offsets, pick = plan
        assert tick == t
        # agent c reads its own row, c, so column c is entry c * n + c of the output
        assert offsets.shape == (n, n) and np.array_equal(pick, np.arange(n) * (n + 1))
        del plan, offsets, pick
    assert next(blocks, None) is None


def test_a_run_finds_its_outdated_copies_once_for_all_its_blocks(monkeypatch):
    calls = []

    def counted(stamps, start):
        calls.append(len(stamps))
        return outdated(stamps, start)

    outdated = async_sim._outdated
    monkeypatch.setattr(async_sim, "_outdated", counted)
    monkeypatch.setattr(async_sim, "_PLAN_INDICES", 500)
    # an affine run plans its taps from the stamp table itself: the one pass
    # is realized_delay_stats'; a rows run makes one more for all its plans
    for name, passes in (("affine-chain-48", 1), ("qp-broadcast", 2)):
        family, graph, horizon, drops = mixed_tick_case(name)
        table = _start_channels(drops, graph, horizon, seed=4)
        plans = (_tick_plans(graph, table[1:], 1) if family.nbr is None
                 else _tap_plans(family, graph, table[1:], 1))
        assert len(list(plans)) >= 4
        calls.clear()
        fp.run_async_tracker(family, graph, drops, np.zeros(family.dim), horizon, seed=4,
                             reference=np.zeros((horizon, family.dim)))
        assert calls == [horizon - 1] * passes, name


# ---------------------------------------------------------------------------
# affine taps
# ---------------------------------------------------------------------------


def test_affine_taps_list_each_rows_nonzeros_ascending_padded_by_its_own_column():
    rng = np.random.default_rng(5)
    chain = small_affine(dim=7, coupling="chain")
    assert chain.nbr.shape == (7, 3)
    assert chain.nbr[0].tolist() == [0, 1, 0] and chain.nbr[3].tolist() == [2, 3, 4]
    assert chain.coef[0, 2] == 0.0 and chain.coef[3].tolist() == chain.A[3, 2:5].tolist()
    assert small_affine(dim=7, coupling="diagonal").nbr.tolist() == [[i] for i in range(7)]
    dense = small_affine(dim=7, coupling="dense")
    assert dense.nbr.tolist() == [list(range(7))] * 7 and np.array_equal(dense.coef, dense.A)
    A = chain.A.copy()
    A[2] = 0.0  # an all-zero row reads only its own column, with coefficient 0
    fam = AffineFamily(A, chain.path, L2, lipschitz=0.5)
    assert fam.nbr[2].tolist() == [2, 2, 2] and fam.coef[2].tolist() == [0.0, 0.0, 0.0]
    assert_ticks_points_and_rows_agree(fam, rng)
    # one row of three nonzeros apart, every other row diagonal: sparse taps
    A = np.diag(rng.uniform(0.1, 0.2, 8))
    A[0, [0, 2, 4]] = [0.3, -0.25, 0.2]
    fam = AffineFamily(A, DriftPath("linear", 8, rate=0.1, seed=3, norm=LINF), LINF,
                       lipschitz=0.75)
    assert fam.nbr.shape == (8, 3) and fam.nbr[0].tolist() == [0, 2, 4]
    assert fam.nbr[5].tolist() == [5, 5, 5] and fam.coef[5, 1:].tolist() == [0.0, 0.0]
    assert_ticks_points_and_rows_agree(fam, rng)


def assert_ticks_points_and_rows_agree(fam, rng):
    """The taps' sum, a zero-delay tick, a point call and a rows call give the same bits."""
    graph = fam.dependency_graph()
    xs = rng.standard_normal((4, fam.dim))
    for t in (1, 5):
        rows = fam.evaluate(xs, t)
        for x, row in zip(xs, rows):
            taps = np.einsum("ip,ip->i", x[fam.nbr], fam.coef) + fam.offset.at(t)
            history = np.vstack((np.zeros((t - 1, fam.dim)), x))  # x is x_t
            tick = step_async(history, np.full(len(graph.edge_arrays[0]), t), fam, graph, t)
            point = fam.evaluate(x, t)
            assert taps.tobytes() == tick.tobytes() == point.tobytes() == row.tobytes()


def test_affine_rows_hold_about_their_output_in_memory():
    # rows are summed a block of taps at a time: gathering all of them at
    # once would hold 20000 * 48 * 3 floats, and as many tiled coefficients
    fam = small_affine(dim=48, coupling="chain")
    xs = np.random.default_rng(2).standard_normal((20000, 48))
    fam.evaluate(xs[:1], 7)  # fills the offset table
    tracemalloc.start()
    try:
        out = fam.evaluate(xs, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes + 2 * 2 ** 20, peak


def drawn_pattern(kind, dim, rng):
    if kind == "chain":
        return np.abs(np.subtract.outer(np.arange(dim), np.arange(dim))) <= 1
    if kind == "dense":
        return np.ones((dim, dim), dtype=bool)
    mask = rng.random((dim, dim)) < rng.uniform(0.1, 0.7)
    if kind == "zero-row":
        mask[rng.integers(dim)] = False
    return mask


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(["zero-row", "chain", "dense", "random"]),
       sizes=st.lists(st.integers(1, 3), min_size=1, max_size=5),
       scalar=st.booleans(), lacking=st.floats(0.0, 0.5), extra=st.floats(0.0, 0.3),
       horizon=st.integers(2, 16), max_lag=st.integers(0, 4), seed=st.integers(0, 2 ** 16),
       n_rows=st.integers(0, 9), block=st.integers(1, 40))
def test_affine_ticks_match_the_per_agent_oracle_bitwise(kind, sizes, scalar, lacking, extra,
                                                         horizon, max_lag, seed, n_rows, block):
    rng = np.random.default_rng(seed)
    sizes = [1] * sum(sizes) if scalar else sizes
    dim = sum(sizes)
    A = np.where(drawn_pattern(kind, dim, rng), rng.uniform(-1.0, 1.0, (dim, dim)), 0.0)
    sums = np.abs(A).sum(axis=1, keepdims=True)
    A = 0.9 * A / np.where(sums > 0, sums, 1.0)
    path = DriftPath("linear", dim, rate=0.1, seed=seed, norm=LINF)
    fam = AffineFamily(A, path, LINF, lipschitz=0.9)
    # the graph drops some edges the map reads and declares some it does not
    owner = np.repeat(np.arange(len(sizes)), sizes)
    reads = np.zeros((len(sizes), len(sizes)), dtype=bool)
    reads[owner[:, None], owner[None, :]] = A != 0.0  # reads[i, j]: agent i reads j
    declared = (reads & (rng.random(reads.shape) >= lacking)) | (rng.random(reads.shape) < extra)
    np.fill_diagonal(declared, False)
    graph = DependencyGraph(sizes, np.argwhere(declared)[:, ::-1])
    # a monotone stamp table: each edge's copy lags at most max_lag ticks
    ticks = np.arange(horizon)[:, None]
    lag = rng.integers(0, max_lag + 1, size=(horizon, len(graph.edges)))
    table = np.maximum.accumulate(np.maximum(ticks - lag, 1), axis=0)
    rows = [(t, j, i, table[t, k]) for t in range(1, horizon)
            for k, (j, i) in enumerate(graph.edges)]
    x0 = rng.uniform(-1.0, 1.0, dim)
    trace, stats = fp.run_async_tracker(fam, graph, ScheduleTable(rows), x0, horizon, LINF,
                                        reference=np.zeros((horizon, dim)))
    assert np.array_equal(stats.log.table, table[1:])
    x = trace.iterates
    for t in range(1, horizon):
        expected = patched_step(x[:t], table[t], fam, graph, t)
        assert x[t].tobytes() == expected.tobytes(), f"tick {t}"
    sync = fp.run_online_tracker(fam, x0, horizon, LINF, reference=np.zeros((horizon, dim)))
    fresh, _ = fp.run_async_tracker(fam, graph, ZeroDelay(), x0, horizon, LINF,
                                    reference=np.zeros((horizon, dim)))
    assert fresh.iterates.tobytes() == sync.iterates.tobytes()
    # rows are their point calls, whether or not they cross a block of taps
    xs = rng.uniform(-1.0, 1.0, (n_rows, dim))
    ts = rng.integers(1, horizon + 1, n_rows)
    with mock.patch.object(async_sim, "_PLAN_INDICES", block):
        rows_at_t, rows_at_ts = fam.evaluate(xs, horizon), fam.evaluate(xs, ts)
    assert rows_at_t.shape == rows_at_ts.shape == (n_rows, dim)
    for x, t, row_at_t, row_at_ts in zip(xs, ts, rows_at_t, rows_at_ts):
        assert row_at_t.tobytes() == fam.evaluate(x, horizon).tobytes()
        assert row_at_ts.tobytes() == fam.evaluate(x, int(t)).tobytes()


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def sequential_drop_stamps(p, max_consecutive, n_edges, horizon, seed):
    """One scalar draw per tick that is not a forced delivery; a drop keeps the stamp."""
    stamps = np.ones((horizon, n_edges), dtype=int)
    for e in range(n_edges):
        rng = seeded_stream(seed, 7, e)
        run = 0
        for tau in range(2, horizon):
            if run >= max_consecutive or rng.random() >= p:
                run = 0
                stamps[tau, e] = tau
            else:
                stamps[tau, e] = stamps[tau - 1, e]
                run += 1
    return stamps


@pytest.mark.parametrize("p", [0.0, 0.2, 0.9])
@pytest.mark.parametrize("max_consecutive", [0, 1, 5])
@pytest.mark.parametrize("n_edges,horizon", [(1, 1), (3, 7), (4, 300)])
def test_iid_drop_table_matches_sequential_draws(p, max_consecutive, n_edges, horizon):
    for seed in (0, 17):
        table = IidDrop(p, max_consecutive).start(n_edges, horizon, seed)
        expected = sequential_drop_stamps(p, max_consecutive, n_edges, horizon, seed)
        assert table.dtype == expected.dtype
        assert np.array_equal(table, expected)


@pytest.mark.parametrize("make", [FixedDelay, PeriodicDelivery, lambda v: IidDrop(0.1, v)],
                         ids=["fixed_delay", "periodic", "iid_drop"])
def test_channel_integers_are_read_without_truncation(make):
    for value in (2.5, 2.7, np.float64(2.0)):
        with pytest.raises(PreconditionError, match="not an integer"):
            make(value)
    assert vars(make(np.int64(2))) == vars(make(2))


def test_iid_drop_cap_bounds_staleness_every_seed():
    fam = small_affine(dim=3, contraction=0.4)
    g = fam.dependency_graph()
    for seed in range(8):
        _, stats = fp.run_async_tracker(
            fam, g, IidDrop(0.7, max_consecutive=4), np.zeros(3), 400, L2, seed=seed
        )
        assert stats.max_delay <= 5  # cap + 1


def test_iid_drop_seeded_reruns_bitwise_identical():
    fam = small_affine(dim=3)
    g = fam.dependency_graph()
    tr1, st1 = fp.run_async_tracker(fam, g, IidDrop(0.4), np.zeros(3), 200, L2, seed=5)
    tr2, st2 = fp.run_async_tracker(fam, g, IidDrop(0.4), np.zeros(3), 200, L2, seed=5)
    assert np.array_equal(tr1.iterates, tr2.iterates)
    assert np.array_equal(st1.log.stamps, st2.log.stamps)
    tr3, _ = fp.run_async_tracker(fam, g, IidDrop(0.4), np.zeros(3), 200, L2, seed=6)
    assert not np.array_equal(tr1.iterates, tr3.iterates)


def test_periodic_delivery_staleness_sweeps_period():
    fam = small_affine(dim=2)
    g = fam.dependency_graph()
    _, stats = fp.run_async_tracker(fam, g, PeriodicDelivery(4), np.zeros(2), 200, L2, seed=1)
    delays = stats.log.times - stats.log.stamps
    assert stats.max_delay == 3
    assert set(np.unique(delays)) <= {0, 1, 2, 3}


def test_stamp_monotonicity_under_all_builtin_channels():
    fam = small_affine(dim=3)
    g = fam.dependency_graph()
    for channels in (ZeroDelay(), FixedDelay(2), PeriodicDelivery(3), IidDrop(0.5)):
        _, stats = fp.run_async_tracker(fam, g, channels, np.zeros(3), 120, L2, seed=2)
        log = stats.log
        for (j, i) in g.edges:
            rows = (log.src == j) & (log.dst == i)
            stamps = log.stamps[rows]
            assert np.all(np.diff(stamps) >= 0)
            assert np.all(stamps <= log.times[rows])


def test_schedule_nonmonotone_rejected_unless_flagged():
    fam = small_affine(dim=2)
    g = fam.dependency_graph()
    schedule = [(2, 1, 0, 2), (3, 1, 0, 1)]  # an old packet overwrites a newer one
    with pytest.raises(PreconditionError):
        fp.run_async_tracker(fam, g, ScheduleTable(schedule), np.zeros(2), 5, L2, seed=0)
    tr, stats = fp.run_async_tracker(
        fam, g, ScheduleTable(schedule, allow_nonmonotone=True), np.zeros(2), 5, L2, seed=0
    )
    rows = (stats.log.src == 1) & (stats.log.dst == 0)
    assert list(stats.log.stamps[rows]) == [1, 2, 1, 1]


def test_schedule_beyond_declared_staleness_raises():
    fam = small_affine(dim=2)
    g = fam.dependency_graph()
    channels = ScheduleTable([(5, 1, 0, 1)], declared_max_delay=2)
    with pytest.raises(StaleBeyondCapError):
        fp.run_async_tracker(fam, g, channels, np.zeros(2), 8, L2, seed=0)


def test_schedule_declared_staleness_bounds_copies_carried_forward():
    fam = small_affine(dim=2)
    g = fam.dependency_graph()
    # no entries: both copies stay at the initial state and reach staleness 8
    with pytest.raises(StaleBeyondCapError):
        fp.run_async_tracker(fam, g, ScheduleTable([], declared_max_delay=2),
                             np.zeros(2), 10, L2, seed=0)
    _, stats = fp.run_async_tracker(fam, g, ScheduleTable([], declared_max_delay=8),
                                    np.zeros(2), 10, L2, seed=0)
    assert stats.max_delay == 8


class TableChannel(ChannelModel):
    """A channel that returns a fixed stamp table, valid or not."""

    def __init__(self, rows):
        self.rows = rows

    def start(self, n_edges, horizon, seed):
        return np.repeat(np.array(self.rows)[:, None], n_edges, axis=1)


@pytest.mark.parametrize("channels,error", [
    (TableChannel([1, 1, 2]), PreconditionError),                 # too few ticks
    (TableChannel([1, 1, 0, 1, 1]), PreconditionError),           # below the initial stamp
    (TableChannel([1, 1, 3, 3, 4]), PreconditionError),           # a copy from the future
    (TableChannel([1, 1, 2, 1, 4]), PreconditionError),           # non-monotone
    (ScheduleTable([(3, 1, 0, 4)]), PreconditionError),           # a scheduled future copy
    (ScheduleTable([(1, 1, 0, 2)]), PreconditionError),           # ... at the first tick
    (ScheduleTable([(2, 1, 0, 2), (3, 1, 0, 1)]), PreconditionError),
    (ScheduleTable([], declared_max_delay=2), StaleBeyondCapError),
])
def test_invalid_stamp_tables_fail_before_the_first_tick(channels, error):
    fam = small_affine(dim=2)
    calls = []

    def counting_evaluate(x, t):
        calls.append(t)
        return fam.evaluate(x, t)

    counted = fp.MapFamily(fam.dim, fam.domain, counting_evaluate, lipschitz=fam.lipschitz_sup)
    with pytest.raises(error):
        fp.run_async_tracker(counted, fam.dependency_graph(), channels, np.zeros(2), 5, L2,
                             reference=fp.compute_fixed_point_series(fam, 5, L2))
    assert calls == []


def _capped(model, cap):
    model.declared_max_delay = cap
    return model


@pytest.mark.parametrize("channels,error,message", [
    (ScheduleTable([(3, 1, 2, 4)]), PreconditionError,
     r"stamp 4 for edge \(1, 2\) at t=3 outside 1..3"),
    (TableChannel([1, 1, 1, 4, 4, 5]), PreconditionError,
     r"stamp 4 for edge \(0, 1\) at t=3 outside 1..3"),
    (ScheduleTable([(2, 2, 1, 2), (3, 2, 1, 1)]), PreconditionError,
     r"stamp for edge \(2, 1\) decreases at t=3, outside the default delivery model"),
    (TableChannel([1, 1, 2, 1, 4, 5]), PreconditionError,
     r"stamp for edge \(0, 1\) decreases at t=3, outside the default delivery model"),
    (ScheduleTable([], declared_max_delay=2), StaleBeyondCapError,
     r"channel exceeds declared staleness 2 on edge \(0, 1\) at t=4"),
    (_capped(FixedDelay(3), 2), StaleBeyondCapError,
     r"channel exceeds declared staleness 2 on edge \(0, 1\) at t=4"),
], ids=["schedule-outside", "model-outside", "schedule-decreasing", "model-decreasing",
        "schedule-over-cap", "model-over-cap"])
def test_invalid_stamp_tables_name_the_edge_and_tick(channels, error, message):
    graph = DependencyGraph([1, 2, 1], [(0, 1), (1, 0), (1, 2), (2, 1)])
    with pytest.raises(error, match=f"^{message}$"):
        _start_channels(channels, graph, 6, 0)


def test_nonmonotone_table_accepted_when_the_model_allows_it():
    fam = small_affine(dim=2)
    channels = TableChannel([1, 1, 2, 1, 4])
    channels.allows_nonmonotone = True
    _, stats = fp.run_async_tracker(fam, fam.dependency_graph(), channels, np.zeros(2), 5, L2)
    assert list(stats.delay_by_tick) == [0, 0, 2, 0]


@pytest.mark.parametrize("rows,dtype", [([1.7] * 5, "float64"), ([1.0] * 5, "float64"),
                                        ([True] * 5, "bool")])
def test_a_model_table_that_is_not_integers_is_refused_not_truncated(rows, dtype):
    graph = DependencyGraph([1, 2, 1], [(0, 1), (1, 0), (1, 2), (2, 1)])
    with pytest.raises(PreconditionError,
                       match=f"^stamp table of TableChannel must hold integers; got {dtype}$"):
        _start_channels(TableChannel(rows), graph, 5, 0)


def test_an_int32_model_table_runs_as_its_int64_copy():
    fam = small_affine(dim=2)
    g = fam.dependency_graph()
    rows = [1, 1, 1, 3, 3, 5]
    narrow = TableChannel(np.array(rows, dtype=np.int32))
    table = _start_channels(narrow, g, 6, 0)
    assert table.dtype == np.int64
    assert np.array_equal(table, _start_channels(TableChannel(rows), g, 6, 0))
    trace, stats = fp.run_async_tracker(fam, g, narrow, np.zeros(2), 6, L2)
    wide, _ = fp.run_async_tracker(fam, g, TableChannel(rows), np.zeros(2), 6, L2)
    assert trace.iterates.tobytes() == wide.iterates.tobytes()
    assert list(stats.delay_by_tick) == [0, 1, 0, 1, 0]


@pytest.mark.parametrize("horizon,edges",[(1, [(0, 1), (1, 0)]), (40, [])])
def test_runs_without_log_entries_have_zero_staleness(horizon, edges):
    drift = DriftPath("constant", 2, start=[1.0, 2.0])
    fam = AffineFamily(np.diag([0.5, 0.4]), drift, L2, lipschitz=0.5)
    g = DependencyGraph([1, 1], edges)
    tr, stats = fp.run_async_tracker(fam, g, IidDrop(0.5, max_consecutive=3),
                                     np.zeros(2), horizon, L2, seed=1)
    assert len(stats.log) == 0 and len(stats.log.times) == 0
    assert stats.max_delay == 0 and stats.max_stale == 0
    assert list(stats.delay_by_tick) == list(stats.stale_by_tick) == [0] * (horizon - 1)
    assert np.array_equal(tr.iterates, fp.run_online_tracker(fam, np.zeros(2), horizon).iterates)


def test_per_edge_channel_assignment():
    """A per-edge mix of channels is a schedule: the left-to-right edges lag
    two ticks, the right-to-left edges are fresh."""
    fam = small_affine(dim=3, coupling="chain")
    g = fam.dependency_graph()
    channels = ScheduleTable([(t, j, i, max(t - 2, 1) if j < i else t)
                              for t in range(1, 100) for (j, i) in g.edges])
    _, stats = fp.run_async_tracker(fam, g, channels, np.zeros(3), 100, L2, seed=3)
    log = stats.log
    for (j, i) in g.edges:
        rows = (log.src == j) & (log.dst == i)
        delays = log.times[rows] - log.stamps[rows]
        assert delays.max() == (2 if j < i else 0)
    assert stats.max_stale == 1  # at most one stale neighbor per agent


def test_schedule_csv_roundtrip(tmp_path):
    fam = small_affine(dim=3)
    g = fam.dependency_graph()
    tr1, st1 = fp.run_async_tracker(fam, g, IidDrop(0.3), np.zeros(3), 60, L2, seed=9)
    path = tmp_path / "schedule.csv"
    fp.write_log_csv(path, st1.log)
    channels = fp.read_schedule_csv(path)
    tr2, st2 = fp.run_async_tracker(fam, g, channels, np.zeros(3), 60, L2, seed=0)
    assert np.array_equal(tr1.iterates, tr2.iterates)
    assert np.array_equal(st1.log.stamps, st2.log.stamps)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=6),
       edge_draw=st.integers(0, 2 ** 32), taps=st.booleans(),
       channel=st.sampled_from(["zero", "fixed", "periodic", "iid"]),
       param=st.integers(0, 5), p=st.floats(0.0, 0.9),
       horizon=st.integers(2, 40), seed=st.integers(0, 2 ** 16))
def test_every_channel_replays_from_its_log_csv_bitwise(sizes, edge_draw, taps, channel, param,
                                                        p, horizon, seed):
    """A logged run replayed through ``read_schedule_csv`` repeats its iterates
    and stamp table bit for bit, on the tap and on the rows path."""
    rng = np.random.default_rng(edge_draw)
    n, dim = len(sizes), sum(sizes)
    declared = rng.random((n, n)) < 0.5
    np.fill_diagonal(declared, False)
    graph = DependencyGraph(sizes, np.argwhere(declared))
    owner = np.repeat(np.arange(n), sizes)
    reads = declared.T | np.eye(n, dtype=bool)  # reads[i, j]: agent i reads j
    A = np.where(reads[owner[:, None], owner[None, :]], rng.uniform(-1.0, 1.0, (dim, dim)), 0.0)
    A = 0.9 * A / np.abs(A).sum(axis=1, keepdims=True)
    fam = AffineFamily(A, DriftPath("linear", dim, rate=0.1, seed=seed, norm=LINF), LINF,
                       lipschitz=0.9)
    if not taps:
        fam = fp.MapFamily(dim, fam.domain, fam.evaluate, lipschitz=0.9)
    channels = {"zero": ZeroDelay(), "fixed": FixedDelay(param),
                "periodic": PeriodicDelivery(param + 1),
                "iid": IidDrop(min(p, 0.8), max_consecutive=param)}[channel]
    x0 = rng.uniform(-1.0, 1.0, dim)
    tr1, st1 = fp.run_async_tracker(fam, graph, channels, x0, horizon, LINF, seed=seed)
    with tempfile.TemporaryDirectory() as folder:
        path = f"{folder}/log.csv"
        fp.write_log_csv(path, st1.log)
        replay = fp.read_schedule_csv(path)
    tr2, st2 = fp.run_async_tracker(fam, graph, replay, x0, horizon, LINF, seed=seed + 1)
    assert tr1.iterates.tobytes() == tr2.iterates.tobytes()
    assert st1.log.table.tobytes() == st2.log.table.tobytes()


@pytest.mark.parametrize("horizon,edges", [(150, [(0, 1), (1, 0), (1, 12), (12, 1)]),
                                           (2, [(0, 1)]), (30, [])])
def test_log_csv_bytes_equal_a_csv_writer_export(tmp_path, horizon, edges):
    graph = DependencyGraph([1] * 13, edges)
    table = _start_channels(IidDrop(0.6, max_consecutive=20), graph, horizon, seed=3)
    log = async_sim.ChannelLog(table[1:], *graph.edge_arrays)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t", "src", "dst", "delivered_stamp"))
        writer.writerows(zip(log.times.tolist(), log.src.tolist(), log.dst.tolist(),
                             log.stamps.tolist()))
    path = tmp_path / "log.csv"
    fp.write_log_csv(path, log)
    assert path.read_bytes() == reference.read_bytes()


def test_schedule_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(PreconditionError):
        fp.read_schedule_csv(path)


def chain_stamps(channels, horizon):
    """The stamp table ``channels`` give on the 3-agent chain."""
    return _start_channels(channels, small_affine(dim=3, coupling="chain").dependency_graph(),
                           horizon, 0)


def test_schedule_csv_accepts_columns_in_any_order(tmp_path):
    fam = small_affine(dim=3, coupling="chain")
    g = fam.dependency_graph()
    _, logged = fp.run_async_tracker(fam, g, IidDrop(0.4), np.zeros(3), 40, L2, seed=5)
    path = tmp_path / "schedule.csv"
    fp.write_log_csv(path, logged.log)
    fields = [line.split(",") for line in path.read_text().splitlines()]
    reordered = tmp_path / "reordered.csv"  # dst, delivered_stamp, t, src
    reordered.write_text("".join(f"{f[2]},{f[3]},{f[0]},{f[1]}\n" for f in fields))
    rows = fp.read_schedule_csv(reordered).rows
    assert np.array_equal(rows, fp.read_schedule_csv(path).rows)
    assert np.array_equal(rows[:, 3], logged.log.stamps)
    assert np.array_equal(chain_stamps(fp.read_schedule_csv(reordered), 40)[1:], logged.log.table)


def test_schedule_repeated_entry_last_row_wins(tmp_path):
    path = tmp_path / "schedule.csv"
    for stamps, expected in (((1, 2), 2), ((2, 1), 1)):
        path.write_text("t,src,dst,delivered_stamp\n" + "".join(
            f"3,1,0,{s}\n4,0,1,2\n" for s in stamps))
        schedule = fp.read_schedule_csv(path)
        assert schedule.rows.tolist() == [[3, 1, 0, stamps[0]], [4, 0, 1, 2],
                                          [3, 1, 0, stamps[1]], [4, 0, 1, 2]]
        table = chain_stamps(schedule, 6)
        column = [(0, 1), (1, 0), (1, 2), (2, 1)].index((1, 0))
        assert table[:, column].tolist() == [1, 1, 1, expected, expected, expected]


def test_per_edge_schedule_sets_only_its_own_edges():
    table = chain_stamps(ScheduleTable([(3, 1, 0, 3), (3, 0, 1, 2), (4, 2, 1, 4)]), 6)
    # columns (0, 1), (1, 0), (1, 2), (2, 1); no row names (1, 2)
    assert table.T.tolist() == [[1, 1, 1, 2, 2, 2], [1, 1, 1, 3, 3, 3],
                                [1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 4, 4]]


def test_schedule_csv_with_a_header_only_is_empty(tmp_path):
    path = tmp_path / "schedule.csv"
    for body in ("", "\n", "\n\n"):
        path.write_text("delivered_stamp,t,dst,src" + body)
        schedule = fp.read_schedule_csv(path)
        assert schedule.rows.shape == (0, 4)
        assert np.array_equal(chain_stamps(schedule, 5), np.ones((5, 4)))


@pytest.mark.parametrize("rows", [[(1, 2, 3)], [1, 2, 3, 4], [[[1, 2, 3, 4]]]])
def test_schedule_rows_must_be_four_ints(rows):
    with pytest.raises(PreconditionError, match="rows"):
        ScheduleTable(rows)


def test_schedule_rows_are_integers_not_truncated():
    for rows in ([[2, 0, 1, 1.7]], np.array([[2.0, 0.0, 1.0, 1.0]])):
        with pytest.raises(PreconditionError, match="rows .* got entries of type float64"):
            ScheduleTable(rows)
    assert ScheduleTable(np.array([[2, 0, 1, 1]], dtype=np.int32)).rows.dtype == np.int64


@pytest.mark.parametrize("channels", [
    ScheduleTable([(2, 5, 7, 1)]),
    ScheduleTable([(3, 1, 0, 2), (2, 0, 2, 1)]),  # (0, 2) is no chain edge
    ScheduleTable([(2, 1, 2, 1), (3, 0, 5, 1)]),  # key 0 * 3 + 5 is (1, 2)'s key
    ScheduleTable([(3, 2, -1, 1)]),  # key 2 * 3 - 1 is (1, 2)'s key too
], ids=["schedule-only-unknown", "schedule-one-unknown", "schedule-id-aliasing-an-edge",
        "schedule-negative-id-aliasing-an-edge"])
def test_channel_naming_an_unknown_edge_fails_before_the_first_tick(channels):
    g = small_affine(dim=3, coupling="chain").dependency_graph()
    calls = []
    fam = fp.MapFamily(3, fp.Domain.all_space(3), lambda x, t: calls.append(t) or 0.5 * x, 0.5)
    with pytest.raises(PreconditionError, match="lacks"):
        fp.run_async_tracker(fam, g, channels, np.zeros(3), 50, L2, seed=0)
    assert calls == []


@pytest.mark.parametrize("channels,edge", [
    (ScheduleTable([(3, 0, 5, 1), (2, 1, 2, 1), (2, 0, 2, 1)]), (0, 2)),
    (ScheduleTable([(3, 0, 5, 1), (2, 1, 2, 1)]), (0, 5)),
    (ScheduleTable([(2, 5, 7, 1), (2, 2, -1, 1)]), (2, -1)),
])
def test_unknown_edge_error_names_the_smallest_unknown_pair(channels, edge):
    with pytest.raises(PreconditionError, match=rf"edge \({edge[0]}, {edge[1]}\), which"):
        chain_stamps(channels, 10)


def test_schedule_entries_outside_the_run_stay_ignored():
    fam = small_affine(dim=3, coupling="chain")
    g = fam.dependency_graph()
    channels = ScheduleTable([(0, 1, 0, 1), (10, 1, 0, 9), (99, 1, 0, 1)])
    _, stats = fp.run_async_tracker(fam, g, channels, np.zeros(3), 12, L2, seed=0)
    column = g.edges.index((1, 0))
    assert stats.log.table[:, column].tolist() == [1] * 9 + [9, 9]


# ---------------------------------------------------------------------------
# realized stats
# ---------------------------------------------------------------------------


def test_realized_stats_zero_for_fresh_runs():
    fam = small_affine(dim=3)
    g = fam.dependency_graph()
    _, stats = fp.run_async_tracker(fam, g, ZeroDelay(), np.zeros(3), 50, L2, seed=0)
    assert stats.max_delay == 0
    assert stats.max_stale == 0


def test_realized_stats_fixed_delay_structure():
    fam = small_affine(dim=4)
    g = fam.dependency_graph()
    _, stats = fp.run_async_tracker(fam, g, FixedDelay(2), np.zeros(4), 80, L2, seed=0)
    assert stats.max_delay == 2
    assert stats.max_stale == 3  # dense graph: every agent has 3 stale in-edges


def bruteforce_stats(log, n_ticks):
    """Per-tick worst delay and most outdated in-edges of one receiver, by a
    scan of the log's rows."""
    delay_by_tick = [0] * n_ticks
    per = {}
    columns = (log.times.tolist(), log.src.tolist(), log.dst.tolist(), log.stamps.tolist())
    for t, j, i, s in zip(*columns):
        delay_by_tick[t - 1] = max(delay_by_tick[t - 1], t - s)
        per[(t, i)] = per.get((t, i), 0) + (s < t)
    stale_by_tick = [max((n for (tick, _), n in per.items() if tick == t), default=0)
                     for t in range(1, n_ticks + 1)]
    return delay_by_tick, stale_by_tick


def test_realized_stats_match_bruteforce_log_scan():
    fam = small_affine(dim=3)
    g = fam.dependency_graph()
    _, stats = fp.run_async_tracker(fam, g, IidDrop(0.5, max_consecutive=4),
                                    np.zeros(3), 120, L2, seed=13)
    delay_by_tick, stale_by_tick = bruteforce_stats(stats.log, 119)
    again = realized_delay_stats(stats.log, g)
    for result in (stats, again):
        assert (result.max_delay, result.max_stale) == (max(delay_by_tick), max(stale_by_tick))
        assert list(result.delay_by_tick) == delay_by_tick
        assert list(result.stale_by_tick) == stale_by_tick
    assert again.max_stale > 1
    # random graphs with multi-column blocks and non-monotone stamp tables
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        pairs = [(j, i) for j in range(n) for i in range(n) if j != i and rng.random() < 0.5]
        graph = DependencyGraph(rng.integers(1, 4, size=n).tolist(), pairs)
        horizon = int(rng.integers(2, 20))
        table = random_stamp_table(len(graph.edges), horizon, rng)
        log = async_sim.ChannelLog(table[1:], *graph.edge_arrays)
        stats = realized_delay_stats(log, graph)
        assert (list(stats.delay_by_tick), list(stats.stale_by_tick)) == (
            bruteforce_stats(log, horizon - 1))


# ---------------------------------------------------------------------------
# dependency audit
# ---------------------------------------------------------------------------


def test_audit_block_diagonal_with_empty_edges():
    drift = DriftPath("constant", 3, start=[1.0, 2.0, 3.0])
    A = np.diag([0.5, 0.4, 0.3])
    fam = AffineFamily(A, drift, L2, lipschitz=0.5)
    g = DependencyGraph([1, 1, 1], [])
    ok, violations = fp.audit_dependency_graph(fam, g, probe_count=8, seed=0)
    assert ok and violations == []


def test_audit_tridiagonal_chain_passes():
    fam = small_affine(dim=5, coupling="chain")
    ok, violations = fp.audit_dependency_graph(fam, fam.dependency_graph(),
                                               probe_count=8, seed=1)
    assert ok, violations


def test_audit_dense_coupling_with_chain_graph_fails():
    fam = small_affine(dim=4, coupling="dense")
    chain_edges = [(i, i + 1) for i in range(3)] + [(i + 1, i) for i in range(3)]
    g = DependencyGraph([1] * 4, chain_edges)
    ok, violations = fp.audit_dependency_graph(fam, g, probe_count=6, seed=2)
    assert not ok
    assert (2, 0) in violations or (3, 0) in violations or (3, 1) in violations


def test_audit_allows_declared_but_unused_edges():
    drift = DriftPath("constant", 2, start=[1.0, 1.0])
    fam = AffineFamily(np.diag([0.5, 0.5]), drift, L2, lipschitz=0.5)
    g = DependencyGraph([1, 1], [(0, 1), (1, 0)])
    ok, violations = fp.audit_dependency_graph(fam, g, probe_count=5, seed=3)
    assert ok and violations == []


def point_loop_audit(family, graph, probe_count, seed):
    """Violations found with one point call per probe and per perturbed agent."""
    sampler = fp.DomainSampler(family.domain, seed + 9173)
    rng = seeded_stream(seed, 55)
    violations = set()
    for _ in range(probe_count):
        x = sampler.draw_one()
        fx = family.evaluate(x, 1)
        scale = 1e-6 * (1.0 + float(np.max(np.abs(x))))
        thresh = 1e-9 * (1.0 + float(np.max(np.abs(fx))))
        for j in range(graph.n_agents):
            sl = block_slice(graph, j)
            delta = rng.uniform(0.5, 1.0, size=sl.stop - sl.start) * scale
            x2 = x.copy()
            x2[sl] = x[sl] + delta
            if not family.domain.contains(x2):
                x2[sl] = x[sl] - delta
                if not family.domain.contains(x2):
                    continue
            diff = family.evaluate(x2, 1) - fx
            for i in range(graph.n_agents):
                moved = float(np.max(np.abs(diff[block_slice(graph, i)]))) > thresh
                if i != j and moved and (j, i) not in graph.edges:
                    violations.add((j, i))
    return sorted(violations)


def audit_case(name):
    if name.startswith("affine-dense-vs-chain"):
        fam = small_affine(dim=6, coupling="dense")
        chain = [(i, i + 1) for i in range(5)] + [(i + 1, i) for i in range(5)]
        if name.endswith("narrow-box"):  # probes move blocks down, or skip them
            fam = fp.MapFamily(6, fp.Domain.box(np.zeros(6), np.full(6, 1.2e-6)),
                               fam.evaluate, lipschitz=fam.lipschitz_sup)
        return fam, DependencyGraph([1] * 6, chain)
    if name == "qp-broadcast-star-edge-removed":
        family, graph = build_broadcast_system(random_qp(5, seed=9), 0.15, 0.01, seed=11)
    else:
        net = three_area_network()
        system = build_multiarea_maps(net, default_injections(net, 0.7), 0.001, seed=1)
        family, graph = system.family, system.graph
    return family, DependencyGraph(graph.block_sizes, graph.edges[1:])


@pytest.mark.parametrize("name", ["affine-dense-vs-chain", "affine-dense-vs-chain-narrow-box",
                                  "qp-broadcast-star-edge-removed",
                                  "multiarea-chain-edge-removed"])
@pytest.mark.parametrize("probes, seed", [(1, 0), (8, 5)])
def test_audit_equals_point_loop_oracle(name, probes, seed):
    family, graph = audit_case(name)
    expected = point_loop_audit(family, graph, probes, seed)
    assert expected  # the graph misses a dependence
    assert fp.audit_dependency_graph(family, graph, probes, seed) == (False, expected)
