"""Built-in map families: rows (the audits, the batched reference, the
asynchronous ticks) agree with points, at one time or at one time per row; an
inexact family carries its base's declarations."""
import numpy as np
import pytest

import fptrack as fp
from fptrack import DomainSampler
from fptrack.async_sim import DependencyGraph, _tick_plans, step_async
from fptrack.core import map_error_bound_series
from fptrack.errors import PreconditionError
from fptrack.problems import (
    DriftPath,
    InjectionSeries,
    build_affine_family,
    build_broadcast_system,
    build_feedback_gradient_map,
    build_gradient_map,
    build_loadflow_map,
    build_multiarea_maps,
    default_injections,
    random_qp,
    scalar_signal,
    three_area_network,
)

L2, LINF = fp.Norm(fp.L2), fp.Norm(fp.LINF)


@pytest.fixture(scope="module")
def families():
    qp = random_qp(5, seed=7)
    broadcast, _ = build_broadcast_system(qp, 0.15, 0.01, seed=8)
    net = three_area_network()
    inj = default_injections(net, 0.7, kind="random_walk", step=0.01, seed=2)
    system = build_multiarea_maps(net, inj, 0.002, seed=9)
    return {
        "affine-l2": build_affine_family(
            6, L2, 0.8, DriftPath("linear", 6, rate=0.05, seed=1, norm=L2), seed=2),
        "affine-linf": build_affine_family(
            4, LINF, 0.6, DriftPath("linear", 4, rate=0.05, seed=3, norm=LINF), seed=4),
        "affine-blockwise": build_affine_family(
            4, L2, 0.4, DriftPath("constant", 4), seed=5, coupling="chain", blockwise=True),
        "qp-gradient": build_gradient_map(qp, 0.15),
        "qp-feedback": build_feedback_gradient_map(qp, 0.15, 0.05, seed=3),
        "qp-broadcast": broadcast.base,
        "qp-broadcast-noisy": broadcast,
        "loadflow-l2": build_loadflow_map(net, inj, radius=0.3),
        "loadflow-linf": build_loadflow_map(net, inj, norm=LINF),
        "multiarea": system.family.base,
        "multiarea-noisy": system.family,
        "affine-output-noise": fp.with_output_noise(
            build_affine_family(4, LINF, 0.6, DriftPath("linear", 4, rate=0.05, seed=3,
                                                        norm=LINF), seed=4),
            0.02, seed=5, norm=LINF),
        "qp-gradient-output-noise": fp.with_output_noise(
            build_gradient_map(qp, 0.15), 0.3, seed=4, norm=LINF),
        # noise as wide as the ball: some rows below leave it and are projected back
        "loadflow-l2-output-noise": fp.with_output_noise(
            build_loadflow_map(net, inj, radius=0.3), 0.3, seed=7, norm=L2),
    }


FAMILY_NAMES = [
    "affine-l2", "affine-linf", "affine-blockwise", "qp-gradient", "qp-feedback",
    "qp-broadcast", "qp-broadcast-noisy", "loadflow-l2", "loadflow-linf",
    "multiarea", "multiarea-noisy", "affine-output-noise", "qp-gradient-output-noise",
    "loadflow-l2-output-noise",
]


@pytest.mark.parametrize("name", [
    "qp-feedback", "qp-broadcast-noisy", "multiarea-noisy", "affine-output-noise",
    "qp-gradient-output-noise", "loadflow-l2-output-noise",
])
def test_inexact_family_is_a_map_family_with_its_base_declarations(families, name):
    family = families[name]
    base = family.base
    assert isinstance(family, fp.MapFamily)
    assert base is not family and base.base is base
    assert base.error_sup == 0.0 < family.error_sup
    for attr in ("dim", "domain", "lipschitz_sup", "fixed_point", "declared_norm"):
        assert getattr(family, attr) == getattr(base, attr), attr
    ts = np.array([1, 4, 9])
    factors = family.lipschitz_at(ts)
    assert factors.shape == ts.shape
    np.testing.assert_array_equal(factors, [base.lipschitz_at(t) for t in ts.tolist()])
    np.testing.assert_array_equal(factors, base.lipschitz_at(ts))
    np.testing.assert_array_equal(
        map_error_bound_series(family, 6), np.full(5, family.error_sup))


@pytest.mark.parametrize("name", ["loadflow-l2", "loadflow-linf"])
def test_time_varying_declared_factor_takes_an_int_array(families, name):
    family = families[name]
    ts = np.arange(1, 40)
    factors = family.lipschitz_at(ts)
    per_t = [family.lipschitz_at(t) for t in ts.tolist()]
    np.testing.assert_array_equal(factors, per_t)
    assert len(np.unique(factors)) > 1  # the injections walk, and the factor with them
    # the clamp keeps |s| <= limit exactly, and the factor and its supremum
    # are one expression
    assert np.all(factors <= family.lipschitz_sup)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_builtin_map_rows_agree_with_points(families, name):
    family = families[name]
    X = DomainSampler(family.domain, 5).draw(6)
    for t in (1, 4):
        rows = family.evaluate(X, t)
        assert rows.shape == X.shape
        for x, row in zip(X, rows):
            np.testing.assert_array_equal(row, family.evaluate(x, t))


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_builtin_map_rows_take_one_time_per_row(families, name):
    family = families[name]
    # five rows, as many as the QP has devices: a broadcast of (k, 1) against
    # (k,) would give a (k, k) term of the right size here
    ts = np.array([4, 1, 4, 7, 2])
    X = DomainSampler(family.domain, 6).draw(len(ts))
    rows = family.evaluate(X, ts)
    assert rows.shape == X.shape
    for x, t, row in zip(X, ts.tolist(), rows):
        np.testing.assert_array_equal(row, family.evaluate(x, t))


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_builtin_maps_reject_times_that_are_not_integers(families, name):
    family = families[name]
    X = DomainSampler(family.domain, 7).draw(2)
    with pytest.raises(PreconditionError):
        family.evaluate(X, np.array([1.0, 2.0]))


def complete_scalar_graph(n):
    return DependencyGraph([1] * n, [(j, i) for j in range(n) for i in range(n) if j != i])


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_columns_equal_the_rows_call_picked_per_column_bitwise(families, name):
    """A rows tick on a complete graph of scalar agents: some agents are fresh,
    the others read every neighbour entry as of a random stamp. Each column of
    the tick is the family's rows call at the agents' inputs, picked from its
    agent's row, and so each agent's point call; the family's own plan (taps,
    for an affine family) gives the same bits."""
    family = families[name]
    n = family.dim
    graph = complete_scalar_graph(n)
    src, dst = graph.edge_arrays
    rng = np.random.default_rng(8)
    horizon = 12
    # points shrunk toward the anchor, so that any mix of their entries stays in the domain
    anchor = family.domain.anchor()
    history = anchor + (DomainSampler(family.domain, 10).draw(horizon) - anchor) / (
        2 * np.sqrt(horizon))
    for t, fresh_share in ((1, 1.0), (4, 0.0), (7, 0.5), (11, 0.3)):
        fresh = rng.random(n) < fresh_share
        stamps = np.where(fresh[dst], t, rng.integers(1, t + 1, size=len(src)))
        inputs = np.tile(history[t - 1], (n, 1))  # row i: agent i's input
        inputs[dst, src] = history[stamps - 1, src]
        picked = family.evaluate(inputs, t)[graph.columns, graph.columns]
        points = [family.evaluate(inputs[i], t)[i] for i in range(n)]
        assert picked.tobytes() == np.array(points).tobytes(), t
        (rows_plan,) = next(_tick_plans(graph, stamps[None], t))
        for plan in (rows_plan, None):
            out = step_async(history, stamps, family, graph, t, plan)
            assert out.tobytes() == picked.tobytes(), (t, plan is None)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_columns_check_the_time_and_the_shape(families, name, monkeypatch):
    """A rows tick is an ``evaluate`` call, so it has that call's checks: a time
    that is not an integer and a map output of another shape than its rows fail."""
    family = families[name]
    graph = complete_scalar_graph(family.dim)
    history = np.tile(family.domain.anchor(), (3, 1))
    stamps = np.ones(len(graph.edge_arrays[0]), dtype=int)  # every agent stale at tick 2
    (plan,) = next(_tick_plans(graph, stamps[None], 2))
    for bad in (2.0, np.float64(2.0)):
        with pytest.raises(PreconditionError, match="not an integer"):
            step_async(history, stamps, family, graph, bad, (bad, *plan[1:]))
    monkeypatch.setattr(family, "_evaluate", lambda x, t: np.zeros((len(x), family.dim + 1)))
    with pytest.raises(PreconditionError, match="returned shape"):
        step_async(history, stamps, family, graph, 2, plan)


def _paths():
    return {
        "constant": DriftPath("constant", 3, start=[1.0, 2.0, 3.0]),
        "linear": DriftPath("linear", 3, rate=0.07, seed=1),
        "random_walk": DriftPath("random_walk", 3, rate=0.05, seed=2, norm=LINF),
        "piecewise": DriftPath("piecewise", 3, rate=0.01, seed=3,
                               fast_rate=0.3, fast_window=(3, 6)),
    }


def _injections():
    net = three_area_network()
    rate = np.linspace(0.0, 0.05, net.n)
    return {
        "constant": default_injections(net, 0.5),
        "random_walk": default_injections(net, 0.5, kind="random_walk", step=0.01, seed=4),
        "ramp": InjectionSeries("ramp", default_injections(net, 0.5).base,
                                net.injection_limit, rate=rate),
    }


TIMES = np.array([9, 1, 3, 9, 2, 12, 5])


@pytest.mark.parametrize("kind", ["constant", "linear", "random_walk", "piecewise"])
def test_drift_and_signal_rows_equal_points_bitwise(kind):
    by_rows, by_points = _paths()[kind], _paths()[kind]  # each extends its own walk
    points = np.array([by_points.point(t) for t in TIMES.tolist()])
    assert np.array_equal(by_rows.point(TIMES), points)
    extra = {"fast_rate": 0.2, "fast_window": (2, 4)} if kind == "piecewise" else {}
    by_rows, by_points = (scalar_signal(kind, rate=0.02, seed=5, **extra) for _ in range(2))
    values = by_rows.at(TIMES)
    assert values.shape == TIMES.shape
    assert np.array_equal(values, [by_points.at(t) for t in TIMES.tolist()])
    for bad in (0, np.array([2, 0])):
        with pytest.raises(PreconditionError):
            by_rows.at(bad)


@pytest.mark.parametrize("kind", ["constant", "random_walk", "ramp"])
def test_injection_rows_equal_points_bitwise(kind):
    by_rows, by_points = _injections()[kind], _injections()[kind]
    rows = by_rows.at(TIMES)
    assert np.array_equal(rows, np.array([by_points.at(t) for t in TIMES.tolist()]))
    assert np.all(np.abs(rows) <= by_rows.limit + 1e-12)
    for bad in (0, np.array([2, 0])):
        with pytest.raises(PreconditionError):
            by_rows.at(bad)


def _warm_started(family, horizon, norm):
    """The reference as solved one time at a time, each from the last fixed point."""
    x, points = family.domain.anchor(), []
    for t in range(1, horizon + 1):
        x = fp.solve_fixed_point(family, t, x, tol=1e-12, norm=norm)
        points.append(x)
    return np.array(points)


@pytest.mark.parametrize("name, norm", [
    ("qp-moving", L2), ("qp-broadcast-moving", L2), ("loadflow-l2", L2),
    ("loadflow-linf", LINF), ("multiarea", LINF),
])
def test_batched_series_equals_warm_started_solves(families, name, norm):
    if name.endswith("moving"):
        qp = random_qp(5, seed=7)
        qp.reference_signal = scalar_signal("random_walk", rate=0.05, seed=2)
        qp.output_signal = scalar_signal("linear", rate=0.02, start=-0.3)
        family = (build_gradient_map(qp, 0.15) if name == "qp-moving"
                  else build_broadcast_system(qp, 0.15, 0.0, seed=1)[0].base)
    else:
        family = families[name]
    # the multi-area reference is the whole network's load flow, checked here
    # against warm-started solves of the stacked map; the others are batched solves
    assert (family.fixed_point is not None) == (name == "multiarea")
    series = fp.compute_fixed_point_series(family, 25, norm)
    oracle = _warm_started(family, 25, norm)
    assert series.drift_sup > 1e-4  # the fixed points move
    np.testing.assert_allclose(series.points, oracle, rtol=0.0, atol=1e-11)
    assert np.all(series.residuals <= 1e-12)
