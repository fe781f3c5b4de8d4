"""Quadratic tracking problems: gradient maps, feedback noise, broadcast star."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fptrack as fp
from fptrack import DomainSampler, Norm
from fptrack.domains import clip
from fptrack.errors import (
    ContractionUncertifiedError,
    DomainViolationError,
    PreconditionError,
)
from fptrack.problems import (
    TimeVaryingQP,
    build_broadcast_system,
    build_feedback_gradient_map,
    build_gradient_map,
    random_qp,
    scalar_signal,
    star_partition,
)
from fptrack.core import SeriesTable
from fptrack.problems import qp as qp_module
from fptrack.problems.qp import _aggregate_noise

L2 = Norm(fp.L2)


def one_d_instance(a=1.0, c=1.0, gamma=1.0, eta=0.0, w=0.0, r=1.0, lo=0.0, hi=1.0):
    return TimeVaryingQP(
        curvature=[a], coupling=[c], tracking_weight=gamma, regularization=eta,
        box_lo=[lo], box_hi=[hi],
        output_signal=scalar_signal("constant", start=w),
        reference_signal=scalar_signal("constant", start=r),
    )


def test_instance_validation():
    with pytest.raises(PreconditionError):
        one_d_instance(a=0.0)
    with pytest.raises(PreconditionError):
        one_d_instance(lo=1.0, hi=1.0)  # degenerate box rejected
    with pytest.raises(PreconditionError):
        TimeVaryingQP([1.0], [1.0], -1.0, 0.0, [0.0], [1.0],
                      scalar_signal("constant"), scalar_signal("constant"))


def test_smoothness_is_top_eigenvalue_of_hessian():
    qp = random_qp(6, seed=1)
    h = np.diag(qp.curvature) + qp.tracking_weight * np.outer(qp.coupling, qp.coupling)
    assert abs(qp.smoothness - np.linalg.eigvalsh(h)[-1]) < 1e-12


def test_gradient_step_annihilates_state_without_tracking_term():
    # unit curvature, no regularization, unit step: x - grad = 0 identically
    qp = TimeVaryingQP(
        curvature=[1.0, 1.0, 1.0], coupling=[0.0, 0.0, 0.0], tracking_weight=1e-9,
        regularization=0.0, box_lo=[-5.0] * 3, box_hi=[5.0] * 3,
        output_signal=scalar_signal("constant"), reference_signal=scalar_signal("constant"),
    )
    fam = build_gradient_map(qp, 1.0)
    out = fam.evaluate(np.array([2.0, -1.0, 0.5]), 1)
    assert np.allclose(out, 0.0, atol=1e-9)
    assert np.allclose(fp.solve_fixed_point(fam, 1, np.array([1.0, 1.0, 1.0])), 0.0,
                       atol=1e-9)


def test_one_d_interior_fixed_point():
    # f(x) = clip(x - 0.4 (2x - 1)) on [0, 1] has fixed point 0.5
    qp = one_d_instance()
    fam = build_gradient_map(qp, 0.4)
    x = fp.solve_fixed_point(fam, 1, np.array([0.0]), tol=1e-13)
    assert abs(x[0] - 0.5) < 1e-12


def test_fixed_point_satisfies_first_order_optimality():
    qp = random_qp(8, seed=3)
    qp.output_signal = scalar_signal("linear", rate=0.01, start=0.2)
    fam = build_gradient_map(qp, 0.25)
    for t in (1, 9):
        x = fp.solve_fixed_point(fam, t, np.zeros(8), tol=1e-13)
        # projected-gradient residual of the underlying objective at the box
        step = x - 0.25 * qp.gradient(x, t)
        residual = np.linalg.norm(x - np.clip(step, qp.box_lo, qp.box_hi))
        assert residual <= 1e-8


def test_box_projection_idempotent_and_nonexpansive():
    qp = random_qp(5, seed=4)
    fam = build_gradient_map(qp, 0.2)
    rng = np.random.default_rng(5)
    for _ in range(200):
        u, v = rng.normal(0, 3, 5), rng.normal(0, 3, 5)
        pu = np.clip(u, qp.box_lo, qp.box_hi)
        pv = np.clip(v, qp.box_lo, qp.box_hi)
        assert np.array_equal(np.clip(pu, qp.box_lo, qp.box_hi), pu)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-15
    assert fam.domain.contains(pu)


def test_sampled_contraction_below_declared_on_random_instances():
    for seed in range(5):
        qp = random_qp(6, seed=seed)
        window = fp.bounds.gradient_step_window(qp.smoothness, qp.regularization + 1e-3, 0)
        alpha = 0.5 * (window[0] + window[1])
        fam = build_gradient_map(qp, alpha)
        est = fp.estimate_lipschitz(fam, 1, DomainSampler(fam.domain, seed), 2000, L2)
        assert est.value <= fam.lipschitz_sup + 1e-9


def test_feedback_noise_free_is_exact():
    qp = one_d_instance()
    fam = build_feedback_gradient_map(qp, 0.4, 0.0, seed=0)
    assert fam.error_sup == 0.0
    x = np.array([0.3])
    assert np.array_equal(fam.evaluate(x, 1), fam.base.evaluate(x, 1))


def test_feedback_error_bound_formula():
    # bound = step * weight * ||coupling||_2 * noise
    qp = TimeVaryingQP(
        curvature=[1.0, 1.0], coupling=[1.2, 1.6], tracking_weight=1.0,
        regularization=0.0, box_lo=[-1.0] * 2, box_hi=[1.0] * 2,
        output_signal=scalar_signal("constant"), reference_signal=scalar_signal("constant"),
    )
    fam = build_feedback_gradient_map(qp, 0.1, 0.05, seed=1)
    assert abs(fam.error_sup - 0.1 * 1.0 * 2.0 * 0.05) < 1e-15


def test_feedback_sampled_deviation_within_bound():
    qp = random_qp(6, seed=7)
    fam = build_feedback_gradient_map(qp, 0.2, 0.05, seed=7)
    check = fp.verify_map_error(fam, 1, DomainSampler(fam.domain, 8), 2000, L2)
    assert check.ok
    assert check.max_observed <= fam.error_sup + 1e-12


def test_star_partition_counts():
    assert star_partition(random_qp(7, seed=0)).n_agents == 8
    assert len(star_partition(random_qp(7, seed=0)).edges) == 14
    g1 = star_partition(random_qp(1, seed=0))
    assert g1.n_agents == 2 and len(g1.edges) == 2


def test_broadcast_system_fixed_point_consistent_with_gradient_map():
    qp = random_qp(5, seed=9)
    fam, graph = build_broadcast_system(qp, 0.15, 0.0, seed=0)
    z = fp.solve_fixed_point(fam, 1, np.zeros(fam.dim), tol=1e-13)
    x_joint = z[:5]
    direct = fp.solve_fixed_point(build_gradient_map(qp, 0.15), 1, np.zeros(5), tol=1e-13)
    assert np.linalg.norm(x_joint - direct) < 1e-10
    y_expected = float(qp.coupling @ x_joint) + qp.output_signal.at(1)
    theta = float(np.sqrt(0.15 * qp.tracking_weight))
    assert abs(z[5] / theta - y_expected) < 1e-10


def test_broadcast_dependency_audit_passes():
    qp = random_qp(4, seed=10)
    fam, graph = build_broadcast_system(qp, 0.15, 0.01, seed=2)
    ok, violations = fp.audit_dependency_graph(fam, graph, probe_count=8, seed=3)
    assert ok, violations


def test_broadcast_error_bound_is_scaled_noise():
    qp = random_qp(4, seed=11)
    fam, _ = build_broadcast_system(qp, 0.15, 0.02, seed=2, agg_scale=0.5)
    assert abs(fam.error_sup - 0.5 * 0.02) < 1e-15
    for t in (2, 150):  # 150 is past the first block of noise draws
        check = fp.verify_map_error(fam, t, DomainSampler(fam.domain, 5, scale=0.5), 500, L2)
        assert check.ok


def test_broadcast_rejects_uncertifiable_instances():
    qp = TimeVaryingQP(
        curvature=[0.01] * 4, coupling=[3.0] * 4, tracking_weight=5.0,
        regularization=0.0, box_lo=[-1.0] * 4, box_hi=[1.0] * 4,
        output_signal=scalar_signal("constant"), reference_signal=scalar_signal("constant"),
    )
    with pytest.raises(ContractionUncertifiedError):
        build_broadcast_system(qp, 0.9, 0.0, seed=0)


def test_window_membership_controls_stale_threshold():
    # inside the window the declared factor beats 1/sqrt(stale+1); the map builds
    stale = 3
    draw = random_qp(5, seed=12)
    eta = 1.2 * fp.bounds.min_regularization(draw.smoothness, stale) + 0.05
    qp = TimeVaryingQP(
        curvature=draw.curvature, coupling=draw.coupling,
        tracking_weight=draw.tracking_weight, regularization=eta,
        box_lo=draw.box_lo, box_hi=draw.box_hi,
        output_signal=draw.output_signal, reference_signal=draw.reference_signal,
    )
    window = fp.bounds.gradient_step_window(qp.smoothness, qp.regularization, stale)
    assert window is not None
    lo, hi = window
    for u in (0.1, 0.5, 0.9):
        alpha = lo + u * (hi - lo)
        fam = build_gradient_map(qp, alpha)
        assert fam.lipschitz_sup * np.sqrt(stale + 1) < 1.0


# ---------------------------------------------------------------------------
# bitwise oracles: the maps as written with np.clip and with
# tracking_weight * coupling multiplied on every call
# ---------------------------------------------------------------------------


def oracle_gradient(qp, x, t):
    y = np.einsum("...j,j->...", x, qp.coupling) + qp.output_signal.at(t)
    return (
        qp.curvature * x
        + qp.tracking_weight * qp.coupling * (y - qp.reference_signal.at(t))[..., None]
        + qp.regularization * x
    )


def oracle_families(qp, step, nb, seed):
    """(family, oracle) pairs for the gradient, feedback and broadcast maps."""
    n = qp.n_devices
    noise3, noise5 = _aggregate_noise(nb, seed, 3, False), _aggregate_noise(nb, seed, 5, False)
    theta = float(np.sqrt(step * qp.tracking_weight))

    def gradient(x, t):
        return np.clip(x - step * oracle_gradient(qp, x, t), qp.box_lo, qp.box_hi)

    def feedback(x, t):
        g = oracle_gradient(qp, x, t) + qp.tracking_weight * qp.coupling * noise3.at(t)
        return np.clip(x - step * g, qp.box_lo, qp.box_hi)

    def broadcast(z, t):
        x, y = z[..., :n], z[..., n] / theta
        gap = (y - qp.reference_signal.at(t))[..., None]
        g = (qp.curvature + qp.regularization) * x + qp.tracking_weight * qp.coupling * gap
        x_new = np.clip(x - step * g, qp.box_lo, qp.box_hi)
        y_new = np.einsum("...j,j->...", x, qp.coupling) + qp.output_signal.at(t)
        out = np.concatenate([x_new, theta * y_new[..., None]], axis=-1)
        out[..., n:] += theta * noise5.at(t)
        return out

    family, _ = build_broadcast_system(qp, step, nb, seed)
    return [(build_gradient_map(qp, step), gradient),
            (build_feedback_gradient_map(qp, step, nb, seed), feedback),
            (family, broadcast)]


def drawn_qp(n, rng):
    """A random instance whose boxes include zero bounds, with signals that move."""
    lo = -rng.uniform(0.0, 2.0, n)
    hi = lo + rng.uniform(0.5, 2.0, n)
    lo[0], hi[0] = 0.0, 1.0
    if n > 1:
        lo[-1], hi[-1] = -1.0, 0.0
    return TimeVaryingQP(
        curvature=rng.uniform(1.0, 3.0, n), coupling=rng.uniform(-0.5, 0.5, n),
        tracking_weight=float(rng.uniform(0.2, 1.0)), regularization=float(rng.uniform(0, 1.0)),
        box_lo=lo, box_hi=hi,
        output_signal=scalar_signal("random_walk", rate=0.05, seed=int(rng.integers(99)),
                                    start=float(rng.uniform(-1, 1))),
        reference_signal=scalar_signal("linear", rate=0.01, start=float(rng.uniform(-1, 1))),
    )


def drawn_points(qp, dim, rng, k=40):
    """Rows inside the box, on its faces and 1e-9 off them, with signed zeros and NaN."""
    n = qp.n_devices
    X = rng.uniform(-2.5, 2.5, (k, dim))
    faces = np.stack([qp.box_lo, qp.box_hi])
    face_rows = faces[rng.integers(0, 2, (k, n)), np.arange(n)]
    X[: k // 2, :n] = face_rows[: k // 2] + rng.choice([-1e-9, 0.0, 1e-9], (k // 2, n))
    X[rng.random((k, dim)) < 0.2] = 0.0
    X[rng.random((k, dim)) < 0.2] = -0.0
    X[rng.random((k, dim)) < 0.03] = np.nan
    return X


@pytest.mark.parametrize("n", [1, 2, 5])
def test_qp_maps_keep_the_bits_of_np_clip_and_the_weight_times_coupling(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(6):
        qp = drawn_qp(n, rng)
        nb = float(rng.uniform(0.0, 0.05))
        for family, oracle in oracle_families(qp, 0.1, nb, seed=int(rng.integers(99))):
            X = drawn_points(qp, family.dim, rng)
            ts = rng.integers(1, 200, len(X))
            for t in (1, 2, 70, 199):
                expected = np.stack([oracle(x, t) for x in X])
                assert family.evaluate(X, t).tobytes() == expected.tobytes(), (family.name, t)
                for x, row in zip(X[:8], expected):
                    assert family.evaluate(x, t).tobytes() == row.tobytes(), (family.name, t)
                if n > 1:  # np.clip keeps its point bits on rows of two or more entries
                    assert family.evaluate(X, t).tobytes() == oracle(X, t).tobytes()
            expected = np.stack([oracle(x, t) for x, t in zip(X, ts.tolist())])
            assert family.evaluate(X, ts).tobytes() == expected.tobytes(), family.name


def test_clip_keeps_the_point_bits_where_np_clip_flips_a_zero():
    lo, hi = np.array([0.0]), np.array([1.0])
    rows = np.full((3, 1), -0.0)
    assert np.clip(rows, lo, hi).tobytes() != np.clip(rows[0], lo, hi).tobytes()  # -0.0 vs 0.0
    assert clip(rows, lo, hi).tobytes() == np.tile(np.clip(rows[0], lo, hi), (3, 1)).tobytes()
    qp = one_d_instance(c=0.0, r=0.0, a=1.0)  # the step of 1 lands on -0.0 from -0.0
    fam = build_gradient_map(qp, 0.5)
    assert fam.evaluate(rows, 1).tobytes() == np.tile(fam.evaluate(rows[0], 1), (3, 1)).tobytes()


# ---------------------------------------------------------------------------
# stacked steps: the runs of one instance as the rows of one call
# ---------------------------------------------------------------------------


def runs_of_one_instance(qp, rng, count, kinds=(0, 1, 2)):
    """Gradient and feedback families of ``qp``'s data with its middle coupling
    entry 0 (a weight times coupling of 0 keeps signed zeros in the gradient;
    the middle box has no zero bound to clip them to), each run with its own
    signals, step size and noise: run r is exact, drawn or adversarial as
    ``kinds[r]`` (cycled) is 0, 1 or 2."""
    coupling = qp.coupling.copy()
    coupling[len(coupling) // 2] = 0.0
    families = []
    for r in range(count):
        run = TimeVaryingQP(
            curvature=qp.curvature, coupling=coupling, tracking_weight=qp.tracking_weight,
            regularization=qp.regularization, box_lo=qp.box_lo, box_hi=qp.box_hi,
            output_signal=scalar_signal("random_walk", rate=0.05, seed=r,
                                        start=float(rng.uniform(-1, 1))),
            reference_signal=scalar_signal("linear", rate=float(rng.uniform(0, 0.02)),
                                           start=float(rng.uniform(-1, 1))),
        )
        step, kind = float(rng.uniform(0.05, 0.3)), kinds[r % len(kinds)]
        if kind == 0:
            families.append(build_gradient_map(run, step))
        else:
            families.append(build_feedback_gradient_map(run, step, float(rng.uniform(0, 0.05)),
                                                        seed=r, adversarial=kind == 2))
    return families


def stacks_by_kind(families, horizon):
    """The indices of ``families``' exact runs and of their measured (drawn or
    adversarial) runs, each kind with its stacked step, after checking that the
    whole list stacks only when it holds one kind."""
    exact = [r for r, f in enumerate(families) if f.lockstep.noise is None]
    measured = [r for r, f in enumerate(families) if f.lockstep.noise is not None]
    whole = families[0].lockstep.stack([f.lockstep for f in families], horizon)
    assert (whole is None) == bool(exact and measured)
    for runs in (exact, measured):
        if runs:
            steps = [families[r].lockstep for r in runs]
            stacked = steps[0].stack(steps, horizon)
            assert stacked is not None
            yield runs, stacked


@pytest.mark.parametrize("n", [1, 2, 5])
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       kinds=st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=7),
       times=st.lists(st.integers(1, 149), min_size=1, max_size=4))
@example(seed=1, kinds=[0, 0, 0], times=[1])  # exact runs only: no noise table
@example(seed=2, kinds=[1, 2, 1, 2], times=[70])  # measured runs only: one noise table
@example(seed=3, kinds=[2, 0, 1, 0, 2, 1, 0], times=[2, 149])
def test_stacked_qp_steps_keep_the_bits_of_each_runs_point_call(n, seed, kinds, times):
    # exact (0), drawn (1) and adversarial (2) runs of one instance: the exact
    # runs stack, and so do the drawn and adversarial runs, but not all together
    rng = np.random.default_rng(seed)
    horizon = 150
    families = runs_of_one_instance(drawn_qp(n, rng), rng, len(kinds), kinds)
    stacks = list(stacks_by_kind(families, horizon))
    for t in times:
        X = drawn_points(families[0].lockstep.qp, n, rng, k=len(families))
        for runs, stacked in stacks:
            for r, row in zip(runs, stacked(X[runs], t)):
                assert row.tobytes() == families[r].evaluate(X[r], t).tobytes(), (r, t)


@pytest.mark.parametrize("n", [1, 2, 5])
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       kinds=st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=7),
       rows=st.integers(1, 12))
@example(seed=1, kinds=[0, 0, 0], rows=6)  # exact runs only: no noise table
@example(seed=2, kinds=[1, 2, 1, 2], rows=9)  # measured runs only: one noise table
@example(seed=3, kinds=[2, 0, 1, 0, 2, 1, 0], rows=12)
def test_a_stacked_row_at_its_own_run_and_time_keeps_the_bits_of_that_runs_point_call(
        n, seed, kinds, rows):
    # a stacked reference solve's call: row i is run runs[i] at time ts[i], repeats
    # included, among the runs of one kind: exact (0), or drawn (1) and adversarial (2)
    rng = np.random.default_rng(seed)
    horizon = 150
    families = runs_of_one_instance(drawn_qp(n, rng), rng, len(kinds), kinds)
    stacks = list(stacks_by_kind(families, horizon))
    runs, ts = rng.integers(0, len(families), rows), rng.integers(1, horizon, rows)
    X = drawn_points(families[0].lockstep.qp, n, rng, k=rows)
    for members, stacked in stacks:
        mine = np.flatnonzero(np.isin(runs, members))  # the rows of this kind's runs
        local = np.searchsorted(members, runs[mine])  # each row's run within the stack
        for i, row in zip(mine.tolist(), stacked(X[mine], ts[mine], local)):
            r, t = int(runs[i]), int(ts[i])
            assert row.tobytes() == families[r].evaluate(X[i], t).tobytes(), (i, r, t)


def test_runs_of_other_instances_or_maps_do_not_stack():
    rng = np.random.default_rng(3)
    qp = drawn_qp(3, rng)
    families = runs_of_one_instance(qp, rng, 2, kinds=(0,))
    other = drawn_qp(3, rng)
    broadcast, _ = build_broadcast_system(qp, 0.1, 0.0, seed=0)
    assert broadcast.lockstep is None
    steps = [f.lockstep for f in families]
    assert steps[0].stack(steps, 10) is not None
    assert steps[0].stack(steps + [build_gradient_map(other, 0.1).lockstep], 10) is None
    assert fp.with_output_noise(families[0], 0.01, seed=1).lockstep is None


def test_the_stacked_lockstep_raises_at_the_time_a_run_leaves_its_domain(monkeypatch):
    rows = []
    real = qp_module._StackedSteps.__call__

    def recording(self, x, t):
        rows.append(len(x))
        return real(self, x, t)

    monkeypatch.setattr(qp_module._StackedSteps, "__call__", recording)
    rng = np.random.default_rng(4)
    families = runs_of_one_instance(drawn_qp(3, rng), rng, 3, kinds=(1, 2))
    x0 = np.array([f.domain.anchor() for f in families])
    iterates = fp.run_lockstep_tracker(families, x0, 9)
    assert rows == [3] * 8
    for r in range(3):
        alone = fp.run_online_tracker(families[r], x0[r], 9, reference=np.zeros((9, 3)))
        assert iterates[r].tobytes() == alone.iterates.tobytes()
    # run 1 measures a NaN output from t = 5 on, so its iterate at t = 5 is NaN
    families[1].lockstep.qp.output_signal = SeriesTable(
        lambda ts, last: np.where(ts >= 5, np.nan, 0.0))
    rows.clear()
    with pytest.raises(DomainViolationError) as exc:
        fp.run_lockstep_tracker(families, x0, 9)
    assert str(exc.value) == "online iterate left the domain at time index 5"
    assert rows == [3] * 5
