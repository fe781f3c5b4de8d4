"""Seeded time series: each is drawn in blocks from one stream per (seed, key),
and a value depends neither on the block sizes nor on the order of requests."""
import warnings

import numpy as np
import pytest

import fptrack as fp
from fptrack.core import SeriesTable
from fptrack.errors import PreconditionError
from fptrack.experiments import ExperimentConfig, run_experiment
from fptrack.problems import (
    DriftPath,
    build_broadcast_system,
    build_feedback_gradient_map,
    build_multiarea_maps,
    default_injections,
    random_qp,
    scalar_signal,
    three_area_network,
)

L2, LINF = fp.Norm(fp.L2), fp.Norm(fp.LINF)
HORIZON = 300


def _map_values(fam):
    """The map at one fixed state as a series in t: a point for an int ``t``,
    rows for an int array."""
    x = fam.domain.anchor()
    return lambda t: fam.evaluate(np.tile(x, (len(t), 1)) if isinstance(t, np.ndarray) else x, t)


def _output_noise(norm):
    base = fp.MapFamily(3, fp.Domain.all_space(3), fp.pointwise(lambda x, t: 0.5 * x + 0.1 * t),
                        0.5)
    return _map_values(fp.with_output_noise(base, 0.05, seed=6, norm=norm))


# Each factory builds a fresh series, so every request pattern starts from an
# empty table.
SERIES = {
    "drift-l2": lambda: DriftPath("random_walk", 3, rate=0.05, seed=2, norm=L2).point,
    "drift-linf": lambda: DriftPath("random_walk", 3, rate=0.05, seed=2, norm=LINF).point,
    "injections": lambda: default_injections(three_area_network(), 0.7, kind="random_walk",
                                             step=0.01, seed=2).at,
    "qp-feedback": lambda: _map_values(
        build_feedback_gradient_map(random_qp(5, seed=7), 0.3, 0.05, seed=4)),
    "qp-broadcast": lambda: _map_values(
        build_broadcast_system(random_qp(5, seed=7), 0.15, 0.05, seed=8)[0]),
    "multiarea": lambda: _map_values(build_multiarea_maps(
        three_area_network(),
        default_injections(three_area_network(), 0.7, kind="constant"), 0.002, seed=9).family),
    "output-noise-l2": lambda: _output_noise(L2),
    "output-noise-linf": lambda: _output_noise(LINF),
}


@pytest.mark.parametrize("name", sorted(SERIES))
def test_series_is_invariant_to_block_sizes_and_request_order(name):
    times = np.arange(1, HORIZON + 1)
    at_once = SERIES[name]()(times)
    value = SERIES[name]()
    ascending = np.array([value(int(t)) for t in times])
    # start past the first block, then the rest in shuffled order
    first = 3 * SeriesTable.FIRST_BLOCK
    order = np.random.default_rng(0).permutation(times[times != first])
    value = SERIES[name]()
    shuffled = np.empty_like(ascending)
    for t in [first, *order.tolist()]:
        shuffled[t - 1] = value(t)
    assert np.array_equal(at_once, ascending)
    assert np.array_equal(shuffled, ascending)
    # the series moves: no two times share a value
    assert len(np.unique(ascending.reshape(HORIZON, -1), axis=0)) == HORIZON


def test_random_walks_equal_a_step_by_step_loop_over_their_stream():
    # the reference draws one step at a time from the walk's one stream
    times = np.arange(1, 201)
    drift = DriftPath("random_walk", 3, rate=0.05, seed=2, norm=LINF)
    rng = fp.seeded_stream(2, 332)
    points = [drift.start]
    for _ in times[1:]:
        g = rng.standard_normal(3)
        points.append(points[-1] + (0.05 / np.max(np.abs(g))) * g)
    assert np.array_equal(drift.point(times), np.array(points))

    inj = default_injections(three_area_network(), 0.7, kind="random_walk", step=0.01, seed=2)
    rng = fp.seeded_stream(2, 23)
    rows = [inj.base]
    for _ in times[1:]:
        s = rows[-1] + 0.01 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=inj.n))
        for i in np.flatnonzero(np.abs(s) > inj.limit):
            # scale back under the limit: one ulp below limit / |s|, lower while |s| rounds above
            scale = np.nextafter(inj.limit[i] / np.abs(s[i]), 0.0)
            while np.abs(s[i] * scale) > inj.limit[i]:
                scale = np.nextafter(scale, 0.0)
            s[i] = s[i] * scale
        rows.append(s)
    assert np.array_equal(inj.at(times), np.array(rows))
    assert np.any(np.abs(inj.at(times)) >= inj.limit)  # the clamp was reached
    assert np.all(np.abs(inj.at(times)) <= inj.limit)  # and held exactly


def test_table_grows_geometrically_and_rejects_times_before_1():
    fills = []

    def fill(ts, last, rng):
        fills.append((int(ts[0]), int(ts[-1])))
        return rng.random(len(ts))

    table = SeriesTable(fill, (1, 2))
    assert fills == []  # the stream opens on first use
    table.at(1)
    table.at(np.array([5, 65]))
    table.at(300)
    assert fills == [(1, 64), (65, 128), (129, 300)]  # the times each fill adds
    for t in (0, np.array([3, 0]), np.array([1.0, 2.0])):
        with pytest.raises(PreconditionError):
            table.at(t)


def test_a_read_takes_an_int_or_an_integer_array_and_nothing_else():
    table = SeriesTable(lambda ts, last, rng: rng.random((len(ts), 2)), (1, 3))
    for t in (1, 7, 64, 65, 200):
        assert table.at(np.int64(t)).tobytes() == table.at(t).tobytes()
        assert table.at(np.array([t]))[0].tobytes() == table.at(t).tobytes()
    for t in (True, False, 2.0, np.float64(2.0), np.array([True]), 0, -3, np.int64(0)):
        with pytest.raises(PreconditionError, match="integers starting at 1"):
            table.at(t)


def test_rows_are_one_view_of_the_table_and_grow_it_as_a_read_does():
    fills = []

    def fill(ts, last, rng):
        fills.append((int(ts[0]), int(ts[-1])))
        return rng.random((len(ts), 2))

    table = SeriesTable(fill, (1, 4))
    block = table.rows(3, 101)  # times 3..100
    assert fills == [(1, 100)]
    assert block.base is not None and not block.flags.writeable
    assert block.tobytes() == table.at(np.arange(3, 101)).tobytes()
    assert table.rows(100, 101).tobytes() == table.at(100)[None].tobytes()
    for start, stop in ((0, 5), (5, 5), (6, 5)):
        with pytest.raises(PreconditionError):
            table.rows(start, stop)


def test_rows_filled_ahead_of_the_reads_warn_about_nothing():
    # rows from t = 18 on overflow; reading t = 1 fills them too, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = SeriesTable(lambda ts, last: ts * 1e307)
        assert table.at(1) == 1e307
        assert np.isinf(table.at(20))  # a reader gets the value and checks it


def _count_seed_sequences(monkeypatch):
    made = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        made.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    return made


QP_FEEDBACK = {
    "problem": {"kind": "qp-gradient", "devices": 5, "instance_seed": 1, "step_size": 0.3,
                "noise_bound": 0.02, "topology": "none",
                "reference_signal": {"kind": "random_walk", "rate": 0.01}},
    "mode": "sync", "norm": "l2", "seed": 3,
}
MULTIAREA = {
    "problem": {"kind": "loadflow", "network": "three-area", "noise_bound": 1e-4,
                "injections": {"kind": "random_walk", "step": 0.01}},
    "mode": "async", "norm": "linf", "channel": {"kind": "iid_drop", "p": 0.3}, "seed": 3,
}


@pytest.mark.parametrize("doc", [QP_FEEDBACK, MULTIAREA], ids=["qp-feedback", "multiarea"])
def test_seed_sequences_do_not_grow_with_the_horizon(monkeypatch, doc):
    made = _count_seed_sequences(monkeypatch)
    counts = []
    for horizon in (150, 600):
        made.clear()
        report = run_experiment(ExperimentConfig.from_dict(dict(doc, horizon=horizon)),
                                write_files=False)
        assert len(report.errors) == horizon
        counts.append(len(made))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("kind,extra,streams", [
    ("constant", {}, []),
    ("linear", {"rate": 0.1}, []),
    ("random_walk", {"rate": 0.1, "seed": 4}, [[4, 332]]),  # its steps, on first read
])
def test_a_scalar_signal_draws_nothing_but_a_random_walks_steps(monkeypatch, kind, extra,
                                                                streams):
    made = _count_seed_sequences(monkeypatch)
    signal = scalar_signal(kind, start=-0.5, **extra)
    assert made == []
    first = signal.at(1)
    assert [list(args[0]) for args in made] == streams
    assert first == -0.5
