"""Acceptance suite: every headline guarantee checked end to end, with budgets.

Each test prints one PASS line (visible under ``pytest -s`` or in the captured
output summary) and asserts both the numerical claim and its runtime budget.
The budgets are sanity envelopes on a desk-class machine; the numerical
claims are exact.
"""
import time

import numpy as np

import fptrack as fp
from fptrack import DomainSampler, Norm
from fptrack.bounds import BoundInputs
from fptrack.problems import (
    DriftPath,
    InjectionSeries,
    TimeVaryingQP,
    build_affine_family,
    build_broadcast_system,
    build_gradient_map,
    build_loadflow_map,
    build_multiarea_maps,
    default_injections,
    random_qp,
    scalar_signal,
    three_area_network,
    to_complex,
    to_real,
    two_bus_network,
)

L2, LINF = Norm(fp.L2), Norm(fp.LINF)
SLACK = 1e-9


class Budget:
    """Context manager asserting a wall-clock budget and reporting one line."""

    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"[PASS] {self.label} ({elapsed:.2f}s / budget {self.seconds}s)")
            assert elapsed < self.seconds, (
                f"{self.label}: took {elapsed:.2f}s, budget {self.seconds}s"
            )
        return False


def test_01_synchronous_tail_certificate_affine():
    """Affine m=8 l2 family, factor 0.8, linear drift 0.05: the per-step
    envelope holds at every step and the tail respects (e + s)/(1 - L)."""
    with Budget("synchronous tail certificate (affine m=8, exact and noisy)", 1.0):
        drift = DriftPath("linear", 8, rate=0.05, seed=11, norm=L2,
                          start=np.linspace(-1.0, 1.0, 8))
        fam = build_affine_family(8, L2, 0.8, drift, seed=4)
        horizon = 2000
        for map_error in (0.0, 0.01):
            runner = fam if map_error == 0.0 else fp.with_output_noise(
                fam, map_error, seed=21, norm=L2
            )
            trace = fp.run_online_tracker(runner, np.zeros(8), horizon, L2)
            env = fp.bounds.per_step_bound_series(
                trace.errors[0],
                np.full(horizon - 1, map_error),
                trace.reference.drifts,
                np.full(horizon - 1, 0.8),
                horizon - 1,
            )
            assert np.all(trace.errors <= env + SLACK)
            tail = trace.tail_max(0.1)
            assert tail <= (map_error + 0.05) / (1.0 - 0.8) + SLACK


def test_02_tight_bound_witness_scalar_drift():
    """The drifting scalar map attains its steady-state bound exactly."""
    with Budget("tight-bound witness (scalar drifting map settles at 0.2)", 0.1):
        fam = fp.MapFamily(
            1, fp.Domain.all_space(1),
            fp.pointwise(lambda x, t: 0.5 * x + np.array([0.5 * 0.1 * t])),
            0.5, fixed_point=lambda t: 0.1 * t[:, None],
        )
        trace = fp.run_online_tracker(fam, np.array([0.0]), 400, L2)
        limsup = trace.tail_max(0.1)
        bound = fp.bounds.tracking_bound_sync(BoundInputs(lipschitz=0.5, drift=0.1))
        assert abs(bound - 0.2) < 1e-15
        assert abs(limsup - 0.2) <= 1e-6


def test_03_async_max_norm_certificate_periodic_schedules():
    """4 max-norm agents, factor 0.6, staleness up to 3 ticks: every phase
    seed keeps the tail under drift*(1 + 0.6*3)/0.4."""
    with Budget("asynchronous max-norm tail certificate (10 schedule phases)", 2.0):
        drift = DriftPath("linear", 4, rate=0.05, seed=3, norm=LINF,
                          start=np.array([0.5, -0.25, 0.1, 0.8]))
        fam = build_affine_family(4, LINF, 0.6, drift, seed=6)
        graph = fam.dependency_graph()
        reference = fp.compute_fixed_point_series(fam, 5000, LINF)
        bound = 0.05 * (1.0 + 0.6 * 3) / (1.0 - 0.6)
        for seed in range(10):
            trace, stats = fp.run_async_tracker(
                fam, graph, fp.PeriodicDelivery(4), np.zeros(4), 5000, LINF,
                seed=seed, reference=reference,
            )
            assert stats.max_delay == 3
            engine = fp.bounds.tracking_bound_async_inf(BoundInputs(
                lipschitz=0.6, drift=0.05, max_delay=stats.max_delay,
                max_stale=stats.max_stale, dim=4, norm=LINF,
            ))
            assert abs(engine - bound) < 1e-12
            assert trace.tail_max(0.1) <= bound + SLACK


def test_04_async_l2_refined_certificate_chain():
    """Chain of 4 l2 agents, blockwise factor 0.4, one stale neighbor of
    staleness 2: tail under 0.05(1 + 0.4*sqrt(2)*2)/(1 - 0.4*sqrt(2))."""
    with Budget("asynchronous l2 stale-refined tail certificate (chain)", 2.0):
        drift = DriftPath("linear", 4, rate=0.05, seed=9, norm=L2,
                          start=np.array([1.0, 0.0, -1.0, 0.5]))
        fam = build_affine_family(4, L2, 0.4, drift, seed=8, coupling="chain",
                                  blockwise=True)
        graph = fam.dependency_graph()
        # only copies from the left neighbor are delayed: one stale block per agent
        channels = fp.ScheduleTable([(t, j, i, max(t - 2, 1) if j < i else t)
                                     for t in range(1, 4000) for (j, i) in graph.edges])
        trace, stats = fp.run_async_tracker(
            fam, graph, channels, np.zeros(4), 4000, L2, seed=0
        )
        assert stats.max_delay == 2
        assert stats.max_stale == 1
        root2 = np.sqrt(2.0)
        closed_form = 0.05 * (1 + 0.4 * root2 * 2) / (1 - 0.4 * root2)
        engine = fp.bounds.tracking_bound_async_l2_refined(BoundInputs(
            lipschitz=0.4, drift=0.05, max_delay=2, max_stale=1, dim=4, norm=L2,
        ))
        assert abs(engine - closed_form) < 1e-12
        assert abs(closed_form - 0.2453716) < 1e-6
        assert trace.tail_max(0.1) <= closed_form + SLACK


def test_05_delayed_recursion_numeric_verification():
    """100 random delayed geometric recursions stay under offset/(1-decay)."""
    with Budget("delayed-recursion verification (100 random instances)", 1.0):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            offset = float(rng.uniform(0.1, 5.0))
            decay = float(rng.uniform(0.05, 0.98))
            max_lag = int(rng.integers(1, 6))
            lags = rng.integers(1, max_lag + 1, size=int(rng.integers(3, 20)))
            limit = offset / (1.0 - decay)
            initial = rng.uniform(0.0, limit, size=max_lag)
            result = fp.bounds.delayed_recursion_check(
                offset, decay, max_lag, lags, 10_000, initial=initial
            )
            assert result.passed
            assert result.empirical_limsup <= result.bound + SLACK


def test_06_step_size_window_soundness():
    """50 random instances x 4 staleness levels: window nonempty exactly when
    the regularization clears the threshold, and every step inside the window
    gives a certified, sample-validated contraction under the threshold."""
    with Budget("step-size window soundness (50 instances x 4 staleness levels)", 5.0):
        rng = np.random.default_rng(77)
        for k in range(50):
            draw = random_qp(int(rng.integers(3, 9)), seed=1000 + k)
            for stale in (0, 1, 3, 8):
                thresh = fp.bounds.min_regularization(draw.smoothness, stale)
                for eta in (0.6 * thresh + 1e-4, 1.5 * thresh + 1e-3):
                    window = fp.bounds.gradient_step_window(draw.smoothness, eta, stale)
                    if eta > thresh + 1e-12:
                        assert window is not None and window[0] <= window[1]
                    elif eta < thresh - 1e-12:
                        assert window is None
                    if window is None:
                        continue
                    qp = TimeVaryingQP(
                        curvature=draw.curvature, coupling=draw.coupling,
                        tracking_weight=draw.tracking_weight, regularization=eta,
                        box_lo=draw.box_lo, box_hi=draw.box_hi,
                        output_signal=draw.output_signal,
                        reference_signal=draw.reference_signal,
                    )
                    lo, hi = window
                    sampler = DomainSampler(
                        fp.Domain.box(qp.box_lo, qp.box_hi), seed=500 + k
                    )
                    for u in np.linspace(0.05, 0.95, 10):
                        alpha = lo + u * (hi - lo)
                        if alpha <= 0.0:
                            continue
                        fam = build_gradient_map(qp, alpha)
                        assert fam.lipschitz_sup * np.sqrt(stale + 1) < 1.0
                        est = fp.estimate_lipschitz(fam, 1, sampler, 50, L2)
                        assert est.value <= fam.lipschitz_sup + SLACK


def test_07_zero_delay_async_reduces_to_sync_bitwise():
    """For every problem family a zero-delay asynchronous run is bit-identical
    to the synchronous tracker."""
    with Budget("zero-delay asynchronous reduction, bitwise, all families", 1.0):
        cases = []
        drift = DriftPath("random_walk", 4, rate=0.02, seed=5, norm=L2)
        aff = build_affine_family(4, L2, 0.7, drift, seed=2)
        cases.append((fp.with_output_noise(aff, 0.01, seed=3, norm=L2),
                      aff.dependency_graph(), L2, 300))
        drift_inf = DriftPath("linear", 3, rate=0.03, seed=6, norm=LINF)
        aff_inf = build_affine_family(3, LINF, 0.5, drift_inf, seed=7)
        cases.append((aff_inf, aff_inf.dependency_graph(), LINF, 300))
        qp = random_qp(5, seed=9)
        fam_qp, graph_qp = build_broadcast_system(qp, 0.15, 0.01, seed=11)
        cases.append((fam_qp, graph_qp, L2, 300))
        net = three_area_network()
        system = build_multiarea_maps(net, default_injections(net, 0.7), 0.001, seed=1)
        cases.append((system.family, system.graph, LINF, 120))
        for family, graph, norm, horizon in cases:
            x0 = np.zeros(family.dim)
            sync = fp.run_online_tracker(family, x0, horizon, norm)
            asyn, stats = fp.run_async_tracker(
                family, graph, fp.ZeroDelay(), x0, horizon, norm, seed=13,
                reference=sync.reference,
            )
            assert stats.max_delay == 0 and stats.max_stale == 0
            assert np.array_equal(sync.iterates, asyn.iterates)


def test_08_loadflow_fixed_point_oracles():
    """Two-bus quadratic-root oracle at 1e-10; stacked three-area fixed point
    equals the monolithic solution to 1e-8 per-unit."""
    with Budget("load-flow fixed-point oracles (two-bus root, stacked areas)", 1.0):
        z, s = 0.05, -0.3
        net2 = two_bus_network(line_impedance=z, injection_limit=0.4)
        inj2 = InjectionSeries("constant", np.array([complex(s)]), net2.injection_limit)
        fam2 = build_loadflow_map(net2, inj2)
        v = to_complex(fp.solve_fixed_point(fam2, 1, to_real(net2.noload), tol=1e-13))[0]
        root = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * z * s))
        assert abs(v - root) < 1e-10

        net = three_area_network()
        system = build_multiarea_maps(net, default_injections(net, 0.7), 0.0, seed=1)
        stacked = fp.solve_fixed_point(
            system.family.base, 1, np.zeros(system.family.dim), tol=1e-12, norm=LINF
        )
        v_mono = to_complex(fp.solve_fixed_point(
            build_loadflow_map(net, default_injections(net, 0.7), norm=LINF),
            1, to_real(net.noload), tol=1e-13,
        ))
        assert system.voltage_error(stacked, v_mono) < 1e-8


def test_09_qualitative_orderings_mirror_operations():
    """(a) static decomposed load flow converges under heavy packet loss;
    (b) trending load flow: more drops, strictly larger median tail error;
    (c) broadcast QP: asynchronous loses to synchronous on median tail."""
    with Budget("qualitative orderings (drops hurt, never destabilize)", 30.0):
        # (a) static injections, half of all packets lost, still to 1e-8 in 500 ticks
        net = three_area_network()
        inj = default_injections(net, 0.7)
        system = build_multiarea_maps(net, inj, 0.0, seed=1)
        v_star = to_complex(fp.solve_fixed_point(
            build_loadflow_map(net, inj, norm=LINF), 1, to_real(net.noload), tol=1e-13
        ))
        for seed in (0, 1, 2):
            trace, _ = fp.run_async_tracker(
                system.family, system.graph, fp.IidDrop(0.5),
                np.zeros(system.family.dim), 500, LINF, seed=seed,
            )
            assert system.voltage_error(trace.iterates[-1], v_star) <= 1e-8

        # (b) areas 2 and 3 ramp toward their caps; area 1 steady
        base = -0.5 * net.injection_limit * (0.95 + 0.05j) / abs(0.95 + 0.05j)
        rate = np.concatenate([np.zeros(4), np.full(8, 2.2e-3)])
        inj_tv = InjectionSeries("ramp", base, net.injection_limit, rate=rate)
        moving = build_multiarea_maps(net, inj_tv, 0.0, seed=1)
        horizon = 400
        reference = fp.compute_fixed_point_series(moving.family, horizon, LINF)
        ref_volt = np.stack([moving.to_voltages(p) for p in reference.points])
        start = int(np.floor(horizon * 0.75))

        def tail_mean_voltage_error(trace):
            errs = [
                np.max(np.abs(moving.to_voltages(trace.iterates[k]) - ref_volt[k]))
                for k in range(start, horizon)
            ]
            return float(np.mean(errs))

        medians = []
        for p in (0.0, 0.01, 0.1):
            tails = []
            for seed in range(20):
                channel = fp.ZeroDelay() if p == 0.0 else fp.IidDrop(p)
                trace, _ = fp.run_async_tracker(
                    moving.family, moving.graph, channel,
                    np.zeros(moving.family.dim), horizon, LINF,
                    seed=seed, reference=reference,
                )
                tails.append(tail_mean_voltage_error(trace))
            medians.append(float(np.median(tails)))
        assert medians[0] < medians[1] < medians[2], medians

        # (c) broadcast QP under a drifting exogenous signal
        qp = TimeVaryingQP(
            curvature=np.full(7, 1.0), coupling=np.full(7, 0.3),
            tracking_weight=0.8, regularization=0.1,
            box_lo=np.full(7, -1.5), box_hi=np.full(7, 1.5),
            output_signal=scalar_signal("random_walk", rate=0.02, seed=5, start=0.3),
            reference_signal=scalar_signal("constant", start=0.5),
        )
        fam, graph = build_broadcast_system(qp, 0.25, 0.005, seed=3)
        horizon = 600
        reference = fp.compute_fixed_point_series(fam, horizon, L2)
        sync_tail = fp.run_online_tracker(
            fam, np.zeros(fam.dim), horizon, L2, reference=reference
        ).tail_max(0.1)
        async_tails = []
        for seed in range(20):
            trace, _ = fp.run_async_tracker(
                fam, graph, fp.IidDrop(0.1), np.zeros(fam.dim), horizon, L2,
                seed=seed, reference=reference,
            )
            async_tails.append(trace.tail_max(0.1))
        assert float(np.median(async_tails)) >= sync_tail


def test_10_assumption_audits_for_every_shipped_family():
    """verify_self_map on 1e4 samples and a 1e4-pair contraction estimate
    below the declaration, for every family the package ships."""
    with Budget("assumption audits, 1e4 samples per shipped family", 5.0):
        families = []
        drift2 = DriftPath("linear", 8, rate=0.05, seed=1, norm=L2)
        families.append(build_affine_family(8, L2, 0.8, drift2, seed=2))
        driftI = DriftPath("linear", 4, rate=0.05, seed=3, norm=LINF)
        families.append(build_affine_family(4, LINF, 0.6, driftI, seed=4))
        families.append(build_affine_family(
            4, L2, 0.4, DriftPath("constant", 4), seed=5, coupling="chain",
            blockwise=True,
        ))
        qp = random_qp(6, seed=6)
        window = fp.bounds.gradient_step_window(qp.smoothness, qp.regularization + 0.05, 0)
        qp.regularization += 0.05
        families.append(build_gradient_map(qp, 0.5 * (window[0] + window[1])))
        fam_b, _ = build_broadcast_system(random_qp(5, seed=7), 0.15, 0.01, seed=8)
        families.append(fam_b)
        net2 = two_bus_network()
        families.append(build_loadflow_map(
            net2, InjectionSeries("constant", np.array([-0.3 + 0.05j]),
                                  net2.injection_limit)
        ))
        net = three_area_network()
        families.append(build_loadflow_map(net, default_injections(net, 0.7), norm=LINF))
        system = build_multiarea_maps(net, default_injections(net, 0.7), 0.002, seed=9)
        families.append(system.family)

        for k, family in enumerate(families):
            base = getattr(family, "base", family)
            norm = base.declared_norm
            est = fp.estimate_lipschitz(
                base, 1, DomainSampler(base.domain, 9000 + k), 10_000, norm
            )
            assert est.value <= family.lipschitz_sup + SLACK, base.name
            check = fp.verify_self_map(
                base, 1, DomainSampler(base.domain, 9500 + k), 10_000
            )
            assert check.ok, base.name
