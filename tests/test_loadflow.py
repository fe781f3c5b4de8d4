"""Load flow: monolithic fixed points and the multi-area decomposition."""
import numpy as np
import pytest

import fptrack as fp
from fptrack import DomainSampler, Norm
from fptrack.core import SeriesTable, seeded_stream
from fptrack.errors import (
    ContractionUncertifiedError,
    DomainViolationError,
    PartitionUnsupportedError,
    PreconditionError,
)
from fptrack.problems import (
    InjectionSeries,
    PowerNetwork,
    build_loadflow_map,
    build_multiarea_maps,
    default_injections,
    loadflow,
    three_area_network,
    to_complex,
    to_real,
    two_bus_network,
)
from fptrack.problems.loadflow import _clamp, _parse_chain

L2, LINF = Norm(fp.L2), Norm(fp.LINF)


def constant_injections(net, s):
    return InjectionSeries("constant", np.asarray(s, dtype=complex), net.injection_limit)


# ---------------------------------------------------------------------------
# monolithic map
# ---------------------------------------------------------------------------


def test_zero_injection_fixed_point_is_flat_voltage():
    net = two_bus_network()
    fam = build_loadflow_map(net, constant_injections(net, [0.0]))
    x = fp.solve_fixed_point(fam, 1, to_real(net.noload), tol=1e-13)
    assert abs(to_complex(x)[0] - 1.0) < 1e-12


def test_two_bus_fixed_point_matches_quadratic_root():
    # real line and load: v solves v (v - w) = z s, take the root near w
    z, s = 0.05, -0.3
    net = two_bus_network(line_impedance=z, injection_limit=0.4)
    fam = build_loadflow_map(net, constant_injections(net, [s]))
    x = fp.solve_fixed_point(fam, 1, to_real(net.noload), tol=1e-13)
    v = to_complex(x)[0]
    oracle = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * z * s))
    assert abs(v.real - oracle) < 1e-10
    assert abs(v.imag) < 1e-10


def test_monolithic_flat_start_residual_decays_linearly():
    net = two_bus_network()
    fam = build_loadflow_map(net, constant_injections(net, [-0.25 + 0.05j]))
    _, info = fp.solve_fixed_point(fam, 1, to_real(net.noload), tol=1e-12,
                                   return_info=True)
    r = info["residuals"]
    assert np.all(r[1:] <= fam.lipschitz_sup * r[:-1] + 1e-15)


def test_state_and_voltages_are_views_of_each_other():
    x = np.arange(8.0).reshape(2, 4)
    v = to_complex(x)
    assert np.array_equal(v, [[0 + 1j, 2 + 3j], [4 + 5j, 6 + 7j]])
    assert np.shares_memory(v, x)
    assert to_real(v).tobytes() == x.tobytes()
    assert np.shares_memory(to_real(v), x)


@pytest.mark.parametrize("x", [np.ones(3), np.ones((2, 5)), 1.0], ids=["3", "2x5", "scalar"])
def test_to_complex_rejects_an_odd_last_axis(x):
    with pytest.raises(PreconditionError, match="pairs"):
        to_complex(x)


@pytest.mark.parametrize("v", [["1+1j", "volts"], [1.0, object()], {"re": 1.0}, None, [None]])
def test_to_real_rejects_input_that_is_not_complex(v):
    with pytest.raises(PreconditionError, match="complex"):
        to_real(v)


@pytest.mark.parametrize("x", ["ab", None, [None, 1.0], np.array([1 + 2j, 3 + 0j])],
                         ids=["string", "None", "[None, 1.0]", "complex"])
def test_to_complex_rejects_input_that_is_not_real_numbers(x):
    with pytest.raises(PreconditionError, match="real numbers"):
        to_complex(x)


def test_injection_series_respects_limits():
    net = two_bus_network(injection_limit=0.1)
    with pytest.raises(PreconditionError):
        constant_injections(net, [0.2])
    walk = InjectionSeries("random_walk", np.array([-0.05 + 0.0j]),
                           net.injection_limit, step=0.03, seed=1)
    for t in range(1, 40):
        assert abs(walk.at(t)[0]) <= 0.1 + 1e-12


def clamp_loop_walk(series, horizon):
    """Rows t = 1..horizon of a random walk, one :func:`_clamp` call per step."""
    steps = series.step * np.exp(
        1j * seeded_stream(series.seed, 23).uniform(0.0, 2.0 * np.pi, size=(horizon - 1, series.n)))
    rows = [series.base]
    for step in steps:
        rows.append(_clamp(rows[-1] + step, series.limit))
    return np.array(rows)


@pytest.mark.parametrize("seed", [0, 1, 7, 31337])
@pytest.mark.parametrize("case", ["three-area", "two-bus-tight", "two-bus-loose", "mixed"])
def test_random_walk_rows_equal_a_clamp_loop_bitwise(case, seed):
    if case == "three-area":
        # area 3's limit of 0.006 is below the step: nearly every row clamps
        series = default_injections(three_area_network(), kind="random_walk", step=0.01,
                                    seed=seed)
    elif case == "mixed":
        limit = np.array([0.02, 1.0, 0.003, 0.05])
        series = InjectionSeries("random_walk", -0.5 * limit, limit, step=0.004, seed=seed)
    else:
        limit = np.array([0.01 if case == "two-bus-tight" else 10.0])
        series = InjectionSeries("random_walk", np.array([-0.005 + 0.001j]), limit,
                                 step=0.003, seed=seed)
    horizon = 300  # past the first block and a doubling of the table
    expected = clamp_loop_walk(series, horizon)
    assert series.at(np.arange(1, horizon + 1)).tobytes() == expected.tobytes()
    assert np.all(np.abs(expected) <= series.limit)


def test_an_overflowing_ramp_saturates_on_its_cap():
    net = three_area_network()
    ramp = default_injections(net, kind="ramp", rate=1e308)
    ts = np.arange(1, 11)
    rows = ramp.at(ts)
    assert np.all(np.isfinite(rows))
    assert np.all(np.abs(rows) <= net.injection_limit)
    assert np.allclose(np.abs(rows[2:]), net.injection_limit, rtol=1e-12)
    unit = ramp.base / np.abs(ramp.base)
    assert np.allclose(rows[2:] / np.abs(rows[2:]), unit, rtol=0.0, atol=1e-12)
    # t = 1, 2 have a finite product, and the clamp of it as before
    factor = 1.0 + ramp.rate * (ts[:2, None] - 1)
    assert rows[:2].tobytes() == _clamp(ramp.base * factor, ramp.limit).tobytes()
    for t in ts:
        assert ramp.at(int(t)).tobytes() == rows[t - 1].tobytes()
    # a negative overflow saturates against the base's direction
    down = default_injections(net, kind="ramp", rate=-1e308)
    assert np.allclose(down.at(5) / np.abs(down.at(5)), -unit, rtol=0.0, atol=1e-12)
    with pytest.raises(PreconditionError, match="finite"):
        default_injections(net, kind="ramp", rate=np.inf)


@pytest.mark.parametrize("norm", [L2, LINF], ids=["l2", "linf"])
@pytest.mark.parametrize("case", ["base-a-rounding-above-the-limits", "full-load"])
def test_declared_factors_at_the_limits_stay_within_the_supremum(case, norm):
    net = three_area_network()
    if case == "full-load":
        series = default_injections(net, load_fraction=1.0)
    else:
        unit = (0.95 + 0.05j) / abs(0.95 + 0.05j)
        series = constant_injections(net, -net.injection_limit * (1 + 1e-13) * unit)
    assert np.all(np.abs(series.at(np.arange(1, 5))) <= net.injection_limit)
    fam = build_loadflow_map(net, series, radius=0.3, norm=norm)
    assert np.all(fam.lipschitz_at(np.arange(1, 40)) <= fam.lipschitz_sup)


def test_division_guard_raises():
    net = two_bus_network()
    fam = build_loadflow_map(net, constant_injections(net, [-0.2]))
    with pytest.raises(DomainViolationError):
        fam.evaluate(np.array([0.0, 0.0]), 1)


def test_contraction_certification_rejects_heavy_loading():
    net = PowerNetwork(1, 1.0, [(0, 1, 0.9)], [1.0])
    with pytest.raises(ContractionUncertifiedError):
        build_loadflow_map(net, constant_injections(net, [-0.9]))


def test_monolithic_audits_pass_on_three_area_network():
    net = three_area_network()
    fam = build_loadflow_map(net, default_injections(net, 0.7), norm=LINF)
    est = fp.estimate_lipschitz(fam, 1, DomainSampler(fam.domain, 0), 4000, LINF)
    assert est.value <= fam.lipschitz_sup + 1e-9
    check = fp.verify_self_map(fam, 1, DomainSampler(fam.domain, 1), 4000)
    assert check.ok


def test_time_varying_injections_tracked_within_sync_bound():
    net = three_area_network()
    inj = default_injections(net, 0.6, kind="random_walk", step=0.002, seed=3)
    fam = build_loadflow_map(net, inj, norm=LINF)
    trace = fp.run_online_tracker(fam, to_real(net.noload), 160, LINF)
    bound = fp.bounds.tracking_bound_sync(
        fp.bounds.BoundInputs(
            lipschitz=fam.lipschitz_sup, drift=trace.reference.drift_sup
        )
    )
    assert trace.tail_max(0.2) <= bound + 1e-9


# ---------------------------------------------------------------------------
# multi-area decomposition
# ---------------------------------------------------------------------------


def two_area_network():
    """Buses 1-8 of the three-area feeder: its first two areas and their link."""
    net = three_area_network()
    return PowerNetwork(8, net.slack_voltage, net.lines[:8], net.injection_limit[:8],
                        areas=net.areas[:8])


def relabeled_three_area_network():
    """The three-area feeder with its load buses renumbered out of area order,
    and a slack voltage off 1."""
    net = three_area_network()
    new = np.array([0, 7, 2, 11, 5, 9, 1, 12, 4, 6, 10, 3, 8])  # old bus -> new bus
    old = np.argsort(new)[1:] - 1  # new load bus -> old load bus, 0-based
    lines = [(new[a], new[b], z) for (a, b, z) in net.lines]
    return PowerNetwork(net.n, 1.02 + 0.01j, lines, net.injection_limit[old],
                        areas=net.areas[old])


CHAINS = {"three-area": three_area_network, "two-area": two_area_network,
          "relabeled": relabeled_three_area_network}


@pytest.fixture(scope="module")
def networks():
    """A three-area and a two-area chain."""
    return [three_area_network(), two_area_network()]


@pytest.fixture(scope="module")
def systems(networks):
    """The decomposed load flow of each chain in ``networks``."""
    return [build_multiarea_maps(net, default_injections(net, 0.7), 0.002, seed=1)
            for net in networks]


def monolithic(net):
    """The whole-network family of ``net`` at the fixture's injections."""
    return build_loadflow_map(net, default_injections(net, 0.7), norm=LINF)


def sliced_stacked_maps(system, net, injections, noise_bound, seed):
    """The exact and noisy multi-area maps as first written: slices and
    ``1j *`` to voltages, ``stack`` back, one injection take per call and the
    slack gathered from a ``concatenate``. Oracle for the bits of the family's maps."""
    order, conn_pos, root_pos, link_z, y = _parse_chain(net)
    bus_area = net.areas[order] - 1
    Z = np.zeros((net.n, net.n), dtype=complex)
    for k in range(bus_area.max() + 1):
        block = np.flatnonzero(bus_area == k)
        Z[np.ix_(block, block)] = np.linalg.inv(y[1:, 1:][np.ix_(block, block)])

    def state_of(v):
        v = v - system.noload
        return np.stack([v.real, v.imag], axis=-1).reshape(*v.shape[:-1], -1) * system.weight

    def boundary_noise(ts, last, rng):
        u = rng.random((len(ts), 2, len(link_z)))
        return noise_bound * np.sqrt(u[:, 0]) * np.exp(1j * (2.0 * np.pi * u[:, 1]))

    table = SeriesTable(boundary_noise, (seed, 29))

    def stacked(x, t, noisy):
        x = np.asarray(x, dtype=float)
        v = system.noload + (x[..., 0::2] + 1j * x[..., 1::2]) / system.weight[0::2]
        v_conn = v[..., conn_pos]
        meas = v_conn * np.conj((v_conn - v[..., root_pos]) / link_z)
        if noisy and noise_bound > 0.0:
            meas += table.at(t)
        s_eff = np.empty_like(v)
        s_eff[...] = injections.at(t)[..., order]
        s_eff[..., conn_pos] -= meas
        slack = np.concatenate(
            [np.full(v.shape[:-1] + (1,), net.slack_voltage, dtype=complex), v_conn],
            axis=-1)[..., bus_area]
        return state_of(slack + np.einsum("...j,ij->...i", np.conj(s_eff / v), Z))

    return (lambda x, t: stacked(x, t, False)), (lambda x, t: stacked(x, t, True))


@pytest.mark.parametrize("kind", ["constant", "random_walk", "ramp"])
@pytest.mark.parametrize("net_name", ["three-area", "two-area", "relabeled"])
def test_multiarea_maps_equal_the_sliced_formulation_bitwise(net_name, kind):
    net = CHAINS[net_name]()
    noise_bound, seed = 0.002, 5
    inj = default_injections(net, 0.7, kind=kind, step=0.004, seed=3, rate=0.01)
    system = build_multiarea_maps(net, inj, noise_bound, seed)
    oracle_inj = default_injections(net, 0.7, kind=kind, step=0.004, seed=3, rate=0.01)
    exact, noisy = sliced_stacked_maps(system, net, oracle_inj, noise_bound, seed)
    fam = system.family
    sampler = DomainSampler(fam.domain, 12)
    rows = np.stack([sampler.draw_one() for _ in range(9)] + [np.zeros(fam.dim)])
    times = np.array([1, 2, 70, 150, 3, 3, 64, 65, 129, 1])
    for family, oracle in ((fam.base, exact), (fam, noisy)):
        for x, t in zip(rows, times):
            assert family.evaluate(x, int(t)).tobytes() == oracle(x, int(t)).tobytes()
        for t in (1, 33, 200):
            assert family.evaluate(rows, t).tobytes() == oracle(rows, t).tobytes()
        assert family.evaluate(rows, times).tobytes() == oracle(rows, times).tobytes()


def test_multiarea_edges_form_the_chain_pattern(systems):
    three, two = systems
    assert set(three.graph.edges) == {(1, 0), (0, 1), (2, 1), (1, 2)}
    assert three.graph.n_agents == 3
    assert set(two.graph.edges) == {(1, 0), (0, 1)}
    assert two.graph.n_agents == 2


def test_multiarea_map_guards_near_zero_voltage(networks, systems):
    for net, system in zip(networks, systems):
        v = net.noload.copy()
        v[-1] = 0.0  # the last bus of the last area
        x = system.encode(v)
        assert np.min(np.abs(system.to_voltages(x))) < 1e-6
        rows = np.stack([system.encode(net.noload), x])
        for family in (system.family.base, system.family):
            for at in (x, rows):
                with pytest.raises(DomainViolationError, match="guard"):
                    family.evaluate(at, 1)


def test_multiarea_declared_contraction_certified(systems):
    for system in systems:
        assert 0.0 < system.family.lipschitz_sup < 0.95
        est = fp.estimate_lipschitz(system.family.base, 1,
                                    DomainSampler(system.family.domain, 2), 6000, LINF)
        assert est.value <= system.family.lipschitz_sup + 1e-9


def test_multiarea_self_map_certified(systems):
    for system in systems:
        check = fp.verify_self_map(system.family.base, 1,
                                   DomainSampler(system.family.domain, 3), 6000)
        assert check.ok


def test_multiarea_measurement_noise_within_declared_bound(systems):
    for system in systems:
        for t in (1, 150):  # 150 is past the first block of noise draws
            check = fp.verify_map_error(system.family, t,
                                        DomainSampler(system.family.domain, 4), 2000, LINF)
            assert check.ok
            assert check.bound == system.family.error_sup


def test_multiarea_dependency_audit(systems):
    for system in systems:
        ok, violations = fp.audit_dependency_graph(system.family, system.graph,
                                                   probe_count=8, seed=5)
        assert ok, violations


def test_multiarea_build_makes_no_whole_network_family(monkeypatch, networks):
    # the reference builds it, once per call
    calls, real = [], loadflow.build_loadflow_map

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(loadflow, "build_loadflow_map", spy)
    for net in networks:
        system = build_multiarea_maps(net, default_injections(net, 0.7), 0.002, seed=1)
        assert calls == []
        fp.compute_fixed_point_series(system.family, 30, LINF)
        assert len(calls) == 1
        calls.clear()


def stacked_solve(system, horizon):
    """The batched solve of the stacked map at t = 1..horizon, from the domain anchor."""
    base = system.family.base
    anchors = np.broadcast_to(base.domain.anchor(), (horizon, base.dim))
    return fp.solve_fixed_point(base, np.arange(1, horizon + 1), anchors, norm=LINF)


@pytest.mark.parametrize("kind", ["constant", "random_walk", "ramp"])
@pytest.mark.parametrize("net_name", list(CHAINS))
def test_multiarea_reference_is_the_stacked_fixed_point(net_name, kind):
    net = CHAINS[net_name]()
    inj = default_injections(net, 0.7, kind=kind, step=0.004, seed=3, rate=0.01)
    build_loadflow_map(net, inj, norm=LINF)  # the whole network certifies, so it is solved
    system = build_multiarea_maps(net, inj, 0.002, seed=5)
    horizon = 400
    reference = fp.compute_fixed_point_series(system.family, horizon, LINF)
    assert np.max(np.abs(reference.points - stacked_solve(system, horizon))) <= 1e-12
    assert reference.residuals.max() <= 1e-12
    assert reference.drift_sup > 0.0 or kind == "constant"


def test_multiarea_reference_without_a_whole_network_certificate_is_the_stacked_solve():
    # the areas certify, but the whole network's injections reach past its self-map radius
    net = PowerNetwork(2, 1.0, [(0, 1, 0.003 + 0.001j), (1, 2, 3 + 0.9j)], [0.2, 0.05],
                       areas=[1, 2])
    inj = default_injections(net, 0.7, kind="random_walk", step=0.01, seed=3)
    with pytest.raises(ContractionUncertifiedError, match="injections can reach 0.2195"):
        build_loadflow_map(net, inj, norm=LINF)
    system = build_multiarea_maps(net, inj, 1e-4, seed=1)
    assert system.family.lipschitz_sup == pytest.approx(0.533, abs=5e-4)
    horizon = 300
    assert system.family.base.fixed_point(np.arange(1, horizon + 1)) is None
    reference = fp.compute_fixed_point_series(system.family, horizon, LINF)
    assert reference.points.tobytes() == stacked_solve(system, horizon).tobytes()


def test_stacked_fixed_point_reproduces_monolithic_blockwise(networks, systems):
    # evaluating the exact area relations at the monolithic solution returns it
    for net, system in zip(networks, systems):
        mono_x = fp.solve_fixed_point(monolithic(net), 1, to_real(net.noload), tol=1e-13)
        enc = system.encode(to_complex(mono_x))
        out = system.family.base.evaluate(enc, 1)
        assert np.max(np.abs(out - enc)) < 1e-10


def test_multiarea_sync_run_converges_to_monolithic_fixed_point(networks, systems):
    for net, system in zip(networks, systems):
        trace = fp.run_online_tracker(system.family.base, np.zeros(system.family.dim),
                                      80, LINF)
        v_mono = to_complex(
            fp.solve_fixed_point(monolithic(net), 1, to_real(net.noload), tol=1e-13)
        )
        assert system.voltage_error(trace.iterates[-1], v_mono) < 1e-8


def test_multiarea_measured_boundary_close_to_true_power(systems):
    # measured value = true boundary power + bounded noise
    for system in systems:
        fam = system.family
        x = DomainSampler(fam.domain, 6).draw_one()
        noisy = fam.evaluate(x, 5)
        exact = fam.base.evaluate(x, 5)
        assert np.max(np.abs(noisy - exact)) <= system.family.error_sup + 1e-12


def test_partition_validation_rejects_bad_shapes():
    net = three_area_network()
    # no areas at all
    bare = PowerNetwork(net.n, net.slack_voltage, net.lines, net.injection_limit)
    with pytest.raises(PartitionUnsupportedError):
        build_multiarea_maps(bare, default_injections(bare, 0.5), 0.0, seed=0)
    # two lines between areas 1 and 2
    lines = list(net.lines) + [(3, 6, 0.5 + 0.1j)]
    doubled = PowerNetwork(net.n, net.slack_voltage, lines, net.injection_limit,
                           areas=net.areas)
    with pytest.raises(PartitionUnsupportedError):
        build_multiarea_maps(doubled, default_injections(doubled, 0.5), 0.0, seed=0)
    # area jump 1 -> 3
    lines = list(net.lines) + [(1, 10, 0.5 + 0.1j)]
    jumped = PowerNetwork(net.n, net.slack_voltage, lines, net.injection_limit,
                          areas=net.areas)
    with pytest.raises(PartitionUnsupportedError):
        build_multiarea_maps(jumped, default_injections(jumped, 0.5), 0.0, seed=0)
    # labels that are not 1..K, a single area
    for areas in ([1] * 4 + [3] * 8, [1] * 12):
        relabeled = PowerNetwork(net.n, net.slack_voltage, net.lines, net.injection_limit,
                                 areas=areas)
        with pytest.raises(PartitionUnsupportedError):
            build_multiarea_maps(relabeled, default_injections(relabeled, 0.5), 0.0, seed=0)
    # the slack bus as a connection point: line (0, 2) joins area 1 to area 2
    fork = PowerNetwork(2, 1.0, [(0, 1, 0.01), (0, 2, 0.01)], [0.01, 0.01], areas=[1, 2])
    with pytest.raises(PartitionUnsupportedError):
        build_multiarea_maps(fork, default_injections(fork, 0.5), 0.0, seed=0)


def test_multiarea_rejects_overwhelming_coupling():
    # links as stiff as internal lines break the gain certificate
    z = 0.0012 + 0.0006j
    lines = [(k, k + 1, z) for k in range(12)]
    net = PowerNetwork(12, 1.0, lines, [0.05] * 12,
                       areas=[1] * 4 + [2] * 4 + [3] * 4)
    with pytest.raises(ContractionUncertifiedError):
        build_multiarea_maps(net, default_injections(net, 0.9), 0.0, seed=0)


def loaded_network(net, scale):
    """``net`` with every injection limit scaled by ``scale``."""
    return PowerNetwork(net.n, net.slack_voltage, net.lines, net.injection_limit * scale,
                        areas=net.areas)


@pytest.mark.parametrize("scale, message", [
    (20.0, "self-map box did not stabilize under the margin"),
    (25.1, "self-map box did not close"),
])
def test_multiarea_self_map_box_fails_near_voltage_collapse(scale, message):
    # At full load the self-map rounds close ever more slowly as the limits
    # grow toward voltage collapse: near 20 times the two-area limits the box
    # closes but its 5 % margin does not, near 25 it takes more than the
    # rounds allowed, and from about 25.15 the voltage margins collapse.
    net = loaded_network(two_area_network(), scale)
    with pytest.raises(ContractionUncertifiedError, match=message):
        build_multiarea_maps(net, default_injections(net, 1.0), 0.0, seed=0)


@pytest.mark.parametrize("build", ["loadflow", "multiarea"])
def test_builders_reject_injections_that_do_not_fit_the_network(build):
    net = two_area_network()

    def make(injections, noise_bound=0.0):
        if build == "loadflow":
            return build_loadflow_map(net, injections, norm=LINF)
        return build_multiarea_maps(net, injections, noise_bound, seed=0)

    with pytest.raises(PreconditionError, match="does not match the network size"):
        make(default_injections(three_area_network(), 0.7))
    with pytest.raises(PreconditionError, match="exceeds the network's limits"):
        make(default_injections(loaded_network(net, 2.0), 0.7))
    if build == "multiarea":
        with pytest.raises(PreconditionError, match="noise bound must be nonnegative"):
            make(default_injections(net, 0.7), noise_bound=-0.001)


def test_multiarea_voltage_roundtrip(systems):
    for system in systems:
        x = DomainSampler(system.family.domain, 8).draw_one()
        v = system.to_voltages(x)
        assert np.max(np.abs(system.encode(v) - x)) < 1e-12


def test_multiarea_adversarial_noise_constant_offset():
    net = three_area_network()
    inj = default_injections(net, 0.7)
    adv = build_multiarea_maps(net, inj, 0.003, seed=1, adversarial=True)
    x = np.zeros(adv.family.dim)
    d1 = adv.family.evaluate(x, 1) - adv.family.base.evaluate(x, 1)
    d2 = adv.family.evaluate(x, 7) - adv.family.base.evaluate(x, 7)
    assert np.max(np.abs(d1)) > 0
    assert np.array_equal(d1, d2)  # same constant offset every step
    assert np.max(np.abs(d1)) <= adv.family.error_sup + 1e-12


def test_multiarea_noisy_async_run_respects_max_norm_bound():
    # simulation vs bounds engine: declared factor, declared map error,
    # realized drift and staleness feed the asynchronous max-norm bound
    net = three_area_network()
    inj = default_injections(net, 0.6, kind="random_walk", step=0.002, seed=11)
    system = build_multiarea_maps(net, inj, 0.001, seed=2)
    horizon = 800
    trace, stats = fp.run_async_tracker(
        system.family, system.graph, fp.IidDrop(0.3, max_consecutive=6),
        np.zeros(system.family.dim), horizon, LINF, seed=4,
    )
    bound = fp.bounds.tracking_bound_async_inf(fp.bounds.BoundInputs(
        lipschitz=system.family.lipschitz_sup,
        map_error=system.family.error_sup,
        drift=trace.reference.drift_sup,
        max_delay=stats.max_delay,
        max_stale=stats.max_stale,
        dim=system.family.dim,
        norm=LINF,
    ))
    assert trace.tail_max(0.1) <= bound + 1e-9
