"""Asynchronous simulator: channels, staleness accounting, reductions, audits."""
import numpy as np
import pytest

import fptrack as fp
from fptrack import (
    DependencyGraph,
    FixedDelay,
    IidDrop,
    Norm,
    PerEdge,
    PeriodicDelivery,
    ScheduleTable,
    ZeroDelay,
)
from fptrack.async_sim import _start_channels, realized_delay_stats, step_async
from fptrack.core import seeded_stream
from fptrack.errors import PreconditionError, StaleBeyondCapError
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


def test_graph_block_layout():
    g = DependencyGraph([2, 3, 1], [(0, 1), (1, 2)])
    assert g.dim == 6
    assert g.block_slice(1) == slice(2, 5)
    assert g.in_neighbors(2) == (1,)
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
    table = {}
    for t in range(2, 6):
        table[(t, 1, 0)] = t
    channels = ScheduleTable(table)
    tr, stats = fp.run_async_tracker(fam, g, channels, np.zeros(2), 5, L2, seed=0)
    log = stats.log
    rows = (log.src == 0) & (log.dst == 1)
    assert np.all(log.stamps[rows] == 1)  # copy frozen at the initial state
    assert stats.max_delay == 3  # last evaluation tick is horizon - 1 = 4


def per_agent_step(history, stamps, family, graph, t):
    """x_{t+1} with every agent evaluating the map at its own composite input."""
    raw_eval = getattr(family, "_evaluate", family.evaluate)
    views = history[stamps[:, graph.block_of_column] - 1, np.arange(graph.dim)[None, :]]
    x_next = np.empty(graph.dim)
    for i in range(graph.n_agents):
        sl = graph.block_slice(i)
        x_next[sl] = raw_eval(views[i].copy(), t)[sl]
    return x_next


def stale_agent_count(stamps, graph, t):
    src, dst = graph.edge_arrays
    return len(set(dst[stamps[dst, src] != t].tolist()))


def mixed_tick_case(name):
    if name == "affine-chain":
        fam = small_affine(dim=12, coupling="chain", norm=LINF, contraction=0.6)
        return fam, fam.dependency_graph(), 150
    if name == "qp-broadcast":
        return (*build_broadcast_system(random_qp(5, seed=9), 0.15, 0.01, seed=11), 150)
    net = three_area_network()
    system = build_multiarea_maps(net, default_injections(net, 0.7), 0.001, seed=1)
    return system.family, system.graph, 80


@pytest.mark.parametrize("name", ["affine-chain", "qp-broadcast", "three-area-loadflow"])
def test_mixed_fresh_and_stale_ticks_match_per_agent_evaluation_bitwise(name):
    family, graph, horizon = mixed_tick_case(name)
    channels = _start_channels(IidDrop(0.3, max_consecutive=3), graph, horizon, seed=4)
    history = np.empty((horizon, family.dim))
    history[0] = np.zeros(family.dim)
    stamps = np.ones((graph.n_agents, graph.n_agents), dtype=int)
    mixed = 0
    for t in range(1, horizon):
        stale = stale_agent_count(stamps, graph, t)
        mixed += 0 < stale < graph.n_agents
        expected = per_agent_step(history[:t], stamps, family, graph, t)
        x_next, stamps = step_async(history[:t], stamps, family, graph, channels, t)
        assert x_next.tobytes() == expected.tobytes(), f"tick {t}"
        history[t] = x_next
    assert mixed >= horizon // 5


def test_tick_evaluates_once_plus_once_per_stale_agent():
    fam = small_affine(dim=5, coupling="chain")
    graph = fam.dependency_graph()
    calls = []

    def counting_evaluate(x, t):
        calls.append(t)
        return fam.evaluate(x, t)

    counted = fp.MapFamily(fam.dim, fam.domain, counting_evaluate, lipschitz=fam.lipschitz_sup)
    channels = _start_channels(ZeroDelay(), graph, 10, seed=0)
    t = 4
    history = np.random.default_rng(0).standard_normal((t, fam.dim))
    for k in range(graph.n_agents + 1):
        stamps = np.full((graph.n_agents, graph.n_agents), t)
        for i in range(k):  # agents 0..k-1 hold one outdated neighbor copy
            stamps[i, graph.in_neighbors(i)[0]] = t - 1
        assert stale_agent_count(stamps, graph, t) == k
        calls.clear()
        x_next, _ = step_async(history, stamps, counted, graph, channels, t)
        assert len(calls) == (k + 1 if k < graph.n_agents else k)
        expected = per_agent_step(history, stamps, fam, graph, t)
        assert x_next.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def sequential_drop_table(p, max_consecutive, n_edges, horizon, seed):
    """One scalar draw per tick that is not a forced delivery."""
    delivered = np.ones((n_edges, horizon + 2), dtype=bool)
    for e in range(n_edges):
        rng = seeded_stream(seed, 7, e)
        run = 0
        for tau in range(2, horizon + 2):
            if run >= max_consecutive or rng.random() >= p:
                run = 0
            else:
                delivered[e, tau] = False
                run += 1
    return delivered


@pytest.mark.parametrize("p", [0.0, 0.2, 0.9])
@pytest.mark.parametrize("max_consecutive", [0, 1, 5])
@pytest.mark.parametrize("n_edges,horizon", [(1, 1), (3, 7), (4, 300)])
def test_iid_drop_table_matches_sequential_draws(p, max_consecutive, n_edges, horizon):
    for seed in (0, 17):
        table = IidDrop(p, max_consecutive).start(n_edges, horizon, seed).delivered
        expected = sequential_drop_table(p, max_consecutive, n_edges, horizon, seed)
        assert np.array_equal(table, expected)


def test_iid_drop_cap_bounds_staleness_every_seed():
    fam = small_affine(dim=3, contraction=0.4)
    g = fam.dependency_graph()
    for seed in range(8):
        _, stats = fp.run_async_tracker(
            fam, g, IidDrop(0.7, max_consecutive=4), np.zeros(3), 400, L2, seed=seed
        )
        assert stats.max_delay <= 5  # cap + 1
        assert stats.notes["drop_cap"] == 4


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
    table = {(2, 1, 0): 2, (3, 1, 0): 1}  # an old packet overwrites a newer one
    with pytest.raises(PreconditionError):
        fp.run_async_tracker(fam, g, ScheduleTable(table), np.zeros(2), 5, L2, seed=0)
    tr, stats = fp.run_async_tracker(
        fam, g, ScheduleTable(table, allow_nonmonotone=True), np.zeros(2), 5, L2, seed=0
    )
    rows = (stats.log.src == 1) & (stats.log.dst == 0)
    assert list(stats.log.stamps[rows]) == [1, 2, 1, 1]


def test_schedule_beyond_declared_staleness_raises():
    fam = small_affine(dim=2)
    g = fam.dependency_graph()
    table = {(5, 1, 0): 1}
    channels = ScheduleTable(table, declared_max_delay=2)
    with pytest.raises(StaleBeyondCapError):
        fp.run_async_tracker(fam, g, channels, np.zeros(2), 8, L2, seed=0)


def test_per_edge_channel_assignment():
    fam = small_affine(dim=3, coupling="chain")
    g = fam.dependency_graph()
    # delay only the left-to-right edges; right-to-left edges stay fresh
    delayed = {(j, i): FixedDelay(2) for (j, i) in g.edges if j < i}
    channels = PerEdge(delayed, default=ZeroDelay())
    _, stats = fp.run_async_tracker(fam, g, channels, np.zeros(3), 100, L2, seed=3)
    log = stats.log
    for (j, i) in g.edges:
        rows = (log.src == j) & (log.dst == i)
        delays = log.times[rows] - log.stamps[rows]
        if j < i:
            assert delays.max() == 2
        else:
            assert delays.max() == 0
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


def test_schedule_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(PreconditionError):
        fp.read_schedule_csv(path)


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


def test_realized_stats_match_bruteforce_log_scan():
    fam = small_affine(dim=3)
    g = fam.dependency_graph()
    _, stats = fp.run_async_tracker(fam, g, IidDrop(0.5, max_consecutive=4),
                                    np.zeros(3), 120, L2, seed=13)
    log = stats.log
    # independent scan of the raw log
    worst_delay = 0
    worst_stale = 0
    per = {}
    for k in range(len(log)):
        t, j, i, s = int(log.times[k]), int(log.src[k]), int(log.dst[k]), int(log.stamps[k])
        worst_delay = max(worst_delay, t - s)
        per.setdefault((t, i), 0)
        if s < t:
            per[(t, i)] += 1
    if per:
        worst_stale = max(per.values())
    again = realized_delay_stats(log, g)
    assert (stats.max_delay, stats.max_stale) == (worst_delay, worst_stale)
    assert (again.max_delay, again.max_stale) == (worst_delay, worst_stale)


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
