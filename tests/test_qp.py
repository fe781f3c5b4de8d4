"""Quadratic tracking problems: gradient maps, feedback noise, broadcast star."""
import numpy as np
import pytest

import fptrack as fp
from fptrack import DomainSampler, Norm
from fptrack.errors import ContractionUncertifiedError, PreconditionError
from fptrack.problems import (
    TimeVaryingQP,
    build_broadcast_system,
    build_feedback_gradient_map,
    build_gradient_map,
    random_qp,
    scalar_signal,
    star_partition,
)

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
    y_expected = float(qp.coupling @ x_joint) + qp.output_signal.value(1)
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
