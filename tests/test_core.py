"""Solver, fixed-point series, online tracker, and sampling audits."""
import re

import numpy as np
import pytest

import fptrack as fp
from fptrack import Domain, DomainSampler, MapFamily
from fptrack.core import map_error_bound_series
from fptrack.errors import (
    DomainViolationError,
    LengthMismatchError,
    NonConvergenceError,
    PreconditionError,
)
from fptrack.experiments import ExperimentConfig, build_family
from fptrack.problems import (
    DriftPath,
    build_affine_family,
    build_feedback_gradient_map,
    build_gradient_map,
    build_loadflow_map,
    build_multiarea_maps,
    default_injections,
    random_qp,
    scalar_signal,
    three_area_network,
    two_bus_network,
)

L2, LINF = fp.Norm(fp.L2), fp.Norm(fp.LINF)


def scalar_family(fn, lipschitz, domain=None, fixed_point=None, name="scalar"):
    return MapFamily(
        dim=1,
        domain=domain or Domain.all_space(1),
        evaluate=fp.pointwise(lambda x, t: np.array([fn(float(x[0]), t)])),
        lipschitz=lipschitz,
        fixed_point=fixed_point,
        name=name,
    )


# ---------------------------------------------------------------------------
# solve_fixed_point
# ---------------------------------------------------------------------------


def test_solver_half_map_geometric_series():
    fam = scalar_family(lambda x, t: 0.5 * x + 1.0, 0.5)
    x = fp.solve_fixed_point(fam, 1, np.array([0.0]), tol=1e-12)
    assert abs(x[0] - 2.0) < 1e-11  # 1 / (1 - 0.5)


def test_solver_constant_map():
    fam = scalar_family(lambda x, t: 0.0, 1e-12)
    x = fp.solve_fixed_point(fam, 1, np.array([5.0]))
    assert x[0] == 0.0


def test_solver_cosine_dottie_point():
    # oracle: iterate the map independently far past the requested tolerance
    z = 1.0
    for _ in range(200):
        z = np.cos(z)
    fam = scalar_family(lambda x, t: np.cos(x), np.sin(1.0),
                        domain=Domain.box([0.0], [1.0]))
    x = fp.solve_fixed_point(fam, 1, np.array([1.0]), tol=1e-12)
    assert abs(x[0] - z) < 1e-11
    assert abs(x[0] - 0.7390851332151607) < 1e-10


def test_solver_nonconvergence_raises_with_context():
    fam = scalar_family(lambda x, t: 0.999 * x + 1.0, 0.999)
    with pytest.raises(NonConvergenceError) as exc:
        fp.solve_fixed_point(fam, 3, np.array([0.0]), tol=1e-15, max_iter=5)
    assert exc.value.time_index == 3
    assert exc.value.residual > 1e-15


def test_solver_domain_violation_flags_false_self_map():
    fam = scalar_family(lambda x, t: x + 1.0, 0.5, domain=Domain.box([0.0], [1.0]))
    with pytest.raises(DomainViolationError):
        fp.solve_fixed_point(fam, 1, np.array([0.5]))


def test_solver_names_both_shapes_of_an_initial_point_of_another_size():
    fam = MapFamily(2, Domain.all_space(2), lambda x, t: 0.5 * x, 0.5)
    with pytest.raises(PreconditionError, match=r"shape \(3,\); expected \(1, 2\)"):
        fp.solve_fixed_point(fam, 1, np.zeros(3))
    with pytest.raises(PreconditionError, match=r"shape \(2, 2\); expected \(3, 2\)"):
        fp.solve_fixed_point(fam, np.arange(1, 4), np.zeros((2, 2)))
    assert fp.solve_fixed_point(fam, np.arange(1, 3), np.ones(4)).shape == (2, 2)


def test_solver_time_is_an_integer_not_truncated():
    fam = scalar_family(lambda x, t: 0.5 * x + t, 0.5)
    with pytest.raises(PreconditionError, match="time index 2.7 is not an integer"):
        fp.solve_fixed_point(fam, 2.7, np.array([0.0]))
    assert fp.solve_fixed_point(fam, np.int64(2), np.array([0.0]))[0] == pytest.approx(4.0)


@pytest.mark.parametrize("max_iter", [2.7, 5.0, "5"])
def test_solver_iteration_cap_is_an_integer_not_truncated(max_iter):
    fam = scalar_family(lambda x, t: 0.5 * x + t, 0.5)
    with pytest.raises(PreconditionError, match=f"iteration cap {max_iter!r} is not an integer"):
        fp.solve_fixed_point(fam, 2, np.array([0.0]), max_iter=max_iter)
    with pytest.raises(NonConvergenceError, match="no convergence after 2 iterations"):
        fp.solve_fixed_point(fam, 2, np.array([0.0]), max_iter=np.int64(2))


def test_solver_linear_convergence_envelope():
    # residual after k iterations <= L^k * r0 * (1+L)/(1-L)
    rng = np.random.default_rng(0)
    A = rng.uniform(-1, 1, (5, 5))
    A *= 0.7 / np.linalg.norm(A, 2)
    b = rng.uniform(-1, 1, 5)
    fam = MapFamily(5, Domain.all_space(5), lambda x, t: x @ A.T + b, 0.7)
    x0 = rng.uniform(-1, 1, 5)
    x, info = fp.solve_fixed_point(fam, 1, x0, tol=1e-12, return_info=True)
    r = info["residuals"]
    envelope = r[0] * 0.7 ** np.arange(len(r)) * (1.7 / 0.3)
    assert np.all(r <= envelope + 1e-12)


def test_solver_agrees_with_closed_form_within_amplified_tol():
    fam = scalar_family(lambda x, t: 0.5 * x + 0.1 * t, 0.5,
                        fixed_point=lambda t: 0.2 * t[:, None])
    tol = 1e-10
    x = fp.solve_fixed_point(fam, 4, np.array([0.0]), tol=tol)
    assert abs(x[0] - 0.8) <= tol / (1 - 0.5)


# ---------------------------------------------------------------------------
# compute_fixed_point_series
# ---------------------------------------------------------------------------


def test_series_horizon_is_an_integer_not_truncated():
    fam = scalar_family(lambda x, t: 0.5 * x + 1.0, 0.5)
    with pytest.raises(PreconditionError, match="horizon 3.9 is not an integer"):
        fp.compute_fixed_point_series(fam, 3.9, L2)
    assert len(fp.compute_fixed_point_series(fam, np.int64(3), L2).points) == 3


def test_series_time_invariant_has_zero_drift():
    fam = scalar_family(lambda x, t: 0.5 * x + 1.0, 0.5)
    series = fp.compute_fixed_point_series(fam, 10, L2)
    assert np.allclose(series.points, 2.0, atol=1e-11)
    assert np.all(series.drifts <= 1e-10)


def test_series_linear_drift_constant_steps():
    fam = scalar_family(lambda x, t: 0.5 * x + 0.5 * (0.1 * t), 0.5)
    series = fp.compute_fixed_point_series(fam, 50, L2)
    assert np.allclose(series.points[:, 0], 0.1 * np.arange(1, 51), atol=1e-10)
    assert np.allclose(series.drifts, 0.1, atol=1e-9)
    assert abs(series.drift_sup - 0.1) < 1e-9


def test_series_affine_random_walk_matches_linear_solve_oracle():
    rng = np.random.default_rng(3)
    m = 6
    A = rng.uniform(-1, 1, (m, m))
    A *= 0.6 / np.linalg.norm(A, 2)
    offsets = {t: rng.normal(0, 1, m) for t in range(1, 13)}
    fam = MapFamily(m, Domain.all_space(m), fp.pointwise(lambda x, t: A @ x + offsets[t]), 0.6)
    series = fp.compute_fixed_point_series(fam, 12, L2, tol=1e-13)
    eye = np.eye(m)
    for t in range(1, 13):
        oracle = np.linalg.solve(eye - A, offsets[t])  # closed-form fixed point
        assert np.linalg.norm(series.points[t - 1] - oracle) < 1e-10
    for t in range(1, 12):
        drift_oracle = np.linalg.norm(
            np.linalg.solve(eye - A, offsets[t + 1] - offsets[t])
        )
        assert abs(series.drifts[t - 1] - drift_oracle) < 1e-9


def test_series_calls_the_closed_form_once_with_every_time():
    calls = []

    def closed_form(ts):
        calls.append(ts.copy())
        return 0.2 * ts[:, None]

    fam = scalar_family(lambda x, t: 0.5 * x + 0.1 * t, 0.5, fixed_point=closed_form)
    series = fp.compute_fixed_point_series(fam, 30, L2)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], np.arange(1, 31))
    np.testing.assert_array_equal(series.points[:, 0], 0.2 * np.arange(1, 31))
    assert series.points.flags.writeable


def test_series_horizon_one_is_degenerate():
    fam = scalar_family(lambda x, t: 0.5 * x + 1.0, 0.5)
    series = fp.compute_fixed_point_series(fam, 1, L2)
    assert series.drifts.size == 0
    assert series.drift_sup == 0.0


def test_series_residuals_validated():
    fam = scalar_family(lambda x, t: 0.5 * x + 1.0, 0.5,
                        fixed_point=lambda t: np.array([3.0]))  # wrong closed form
    with pytest.raises(NonConvergenceError):
        fp.compute_fixed_point_series(fam, 3, L2)


def test_series_residuals_scale_with_the_point_and_fail_where_it_is_not_finite():
    # off by 1e-9 relative: the closed form is off by more than tol * |x| wherever |x| > 1
    for scale in (1.0, 1e4, 1e6):
        fam = scalar_family(lambda x, t: 0.5 * x + scale, 0.5,
                            fixed_point=lambda ts, s=scale: (2.0 * s * (1 + 1e-9)) * np.ones(1))
        with pytest.raises(NonConvergenceError):
            fp.compute_fixed_point_series(fam, 3, L2)
    # rounding of a point near 1e6 passes: an absolute 1e-12 would fail it
    point = 1e6 + 1 / 3
    fam = scalar_family(lambda x, t: 0.3 * x + 0.7 * point, 0.3,
                        fixed_point=lambda ts: np.array([point]))
    series = fp.compute_fixed_point_series(fam, 3, L2)
    assert 1e-12 < series.residuals.max() <= 1e-12 * 1e6
    for bad in (np.nan, np.inf):
        fam = scalar_family(lambda x, t: 0.5 * x, 0.5,
                            fixed_point=lambda ts, b=bad: np.where(ts >= 2, b, 0.0)[:, None])
        with pytest.raises(DomainViolationError, match="fixed point at time index 2 is not"):
            fp.compute_fixed_point_series(fam, 4, L2)


def test_series_rejects_supplied_points_of_another_shape():
    fam = MapFamily(2, Domain.box([-1, -1], [1, 1]), lambda x, t: 0.5 * x, 0.5,
                    fixed_point=lambda ts: np.zeros((len(ts), 3)), name="shaped")
    with pytest.raises(PreconditionError,
                       match=r"'shaped' have shape \(4, 3\); expected \(4, 2\) or \(2,\)"):
        fp.compute_fixed_point_series(fam, 4, L2)


def test_series_rejects_supplied_points_outside_the_domain_at_the_first_such_time():
    # 3 is the fixed point of 0.5 x + 1.5, but not in the box, where the map has none
    fam = scalar_family(lambda x, t: 0.5 * x + 1.5, 0.5, domain=Domain.box([-1.0], [1.0]),
                        fixed_point=lambda ts: np.full((len(ts), 1), 3.0))
    with pytest.raises(DomainViolationError, match="time index 1 lies outside") as exc:
        fp.compute_fixed_point_series(fam, 3, L2)
    assert exc.value.time_index == 1
    # the first bad time is named, whether its point is outside or not finite
    for first, later, what in ((3.0, np.nan, "lies outside"), (np.inf, 3.0, "is not finite")):
        fam = scalar_family(lambda x, t: 0.5 * x, 0.5, domain=Domain.box([-1.0], [1.0]),
                            fixed_point=lambda ts, a=first, b=later:
                            np.select([ts == 2, ts > 2], [a, b], 0.0)[:, None])
        with pytest.raises(DomainViolationError, match=f"time index 2 {what}") as exc:
            fp.compute_fixed_point_series(fam, 4, L2)
        assert exc.value.time_index == 2


def test_series_solves_when_the_supplied_points_are_none():
    calls = []
    fam = scalar_family(lambda x, t: 0.5 * x + 1.0, 0.5,
                        fixed_point=lambda ts: calls.append(ts) or None)
    series = fp.compute_fixed_point_series(fam, 5, L2)
    assert len(calls) == 1
    np.testing.assert_allclose(series.points, 2.0, rtol=0.0, atol=1e-11)


def test_series_reports_the_first_time_that_leaves_the_domain():
    # t = 3 leaves the box at iteration 1 (0 -> 0.9 -> 1.35), later times at
    # iteration 0, so the batched solve sees a later time fail first
    shift = {1: 0.1, 2: 0.2, 3: 0.9}
    fam = scalar_family(lambda x, t: 0.5 * x + shift.get(t, 5.0), 0.5,
                        domain=Domain.box([-1.0], [1.0]))
    with pytest.raises(DomainViolationError) as exc:
        fp.compute_fixed_point_series(fam, 6, L2)
    assert exc.value.time_index == 3
    with pytest.raises(DomainViolationError) as exc:
        fp.solve_fixed_point(fam, np.array([5, 4, 3, 1]), np.zeros((4, 1)))
    assert exc.value.time_index == 3
    # and when t = 3 leaves first, a later time that leaves after it is not reported
    shift = {1: 0.1, 2: 0.2, 3: 5.0}
    fam = scalar_family(lambda x, t: 0.5 * x + shift.get(t, 0.9), 0.5,
                        domain=Domain.box([-1.0], [1.0]))
    with pytest.raises(DomainViolationError) as exc:
        fp.compute_fixed_point_series(fam, 6, L2)
    assert exc.value.time_index == 3


def test_series_reports_the_first_time_that_does_not_converge():
    fam = scalar_family(lambda x, t: (0.5 if t < 3 else 0.9999) * x + 1.0, 0.9999)
    with pytest.raises(NonConvergenceError) as exc:
        fp.compute_fixed_point_series(fam, 6, L2, max_iter=200)
    assert exc.value.time_index == 3
    assert exc.value.iterations == 200
    assert exc.value.residual > 1e-12


def test_batched_solve_stops_each_row_at_its_own_tolerance():
    fam = scalar_family(lambda x, t: 0.5 * x + 0.1 * t, 0.5)
    ts = np.array([3, 1, 3, 8])
    x, info = fp.solve_fixed_point(fam, ts, np.zeros((4, 1)), tol=1e-12, return_info=True)
    for row, t in zip(x, ts.tolist()):
        assert np.array_equal(row, fp.solve_fixed_point(fam, t, np.zeros(1), tol=1e-12))
    assert info["iterations"] == len(info["residuals"])


def compacting_solve(family, ts, x0, tol, max_iter, norm):
    """The batched solve that compacts its rows after every sweep: ``(points,
    iterations, residuals)``, or the exception it raises."""
    x = np.array(x0, dtype=float)
    points, active, residuals = np.empty_like(x), np.arange(len(ts)), []
    failure, later = None, np.inf
    for k in range(max_iter):
        at = ts[active]
        fx = family.evaluate(x, at)
        r = norm.of_rows(fx - x)
        residuals.append(r.max())
        left = ~family.domain.contains(fx)
        if left.any():
            later = int(at[left].min())
            failure = DomainViolationError(
                f"iterate left the domain at time index {later} (iteration {k})",
                time_index=later)
        done = (r <= tol) & ~left
        points[active[done]] = fx[done]
        keep = ~done & (at < later)
        active, x, r = active[keep], fx[keep], r[keep]
        if not active.size:
            break
    else:
        first = int(ts[active].min())
        residual = float(r[ts[active] == first].max())
        failure = NonConvergenceError(
            f"no convergence after {max_iter} iterations at time index {first} "
            f"(residual {residual:.3e} > tol {tol:.3e})",
            residual=residual, iterations=max_iter, time_index=first)
    return failure or (points, k + 1, np.asarray(residuals))


def solve_cases():
    qp = random_qp(7, seed=1)
    qp.reference_signal = scalar_signal("random_walk", rate=0.01, seed=4)
    yield "qp", build_feedback_gradient_map(qp, 0.3, 0.0, seed=2).base, 150, L2
    net = three_area_network()
    system = build_multiarea_maps(net, default_injections(net, 0.7), 1e-4, seed=1)
    yield "loadflow", system.family.base, 120, LINF


def test_batched_solve_matches_the_compacting_loop_bit_for_bit():
    for name, family, horizon, norm in solve_cases():
        ts = np.arange(1, horizon + 1)
        x0 = np.broadcast_to(family.domain.anchor(), (horizon, family.dim))
        points, iterations, residuals = compacting_solve(family, ts, x0, 1e-12, 100_000, norm)
        x, info = fp.solve_fixed_point(family, ts, x0, norm=norm, return_info=True)
        assert x.tobytes() == points.tobytes(), name
        assert info["iterations"] == iterations > 10, name
        assert info["residuals"].tobytes() == residuals.tobytes(), name


def test_batched_solve_names_the_first_time_that_fails_as_the_loop_does():
    # rows at t >= 5 head for 0.02 t / 0.01 = 2 t, outside the box, the later
    # times first; the rows before t = 5 converge to 0.1 far later
    fam = scalar_family(lambda x, t: 0.99 * x + (0.02 * t if t >= 5 else 0.001), 0.99,
                        domain=Domain.box([-1.0], [1.0]))
    ts = np.array([7, 5, 9, 1, 2, 6, 9])
    x0 = np.zeros((len(ts), 1))
    expected = compacting_solve(fam, ts, x0, 1e-12, 100_000, L2)
    assert isinstance(expected, DomainViolationError) and expected.time_index == 5
    with pytest.raises(DomainViolationError) as exc:
        fp.solve_fixed_point(fam, ts, x0)
    assert (str(exc.value), exc.value.time_index) == (str(expected), 5)
    slow = scalar_family(lambda x, t: (0.5 if t == 4 else 0.9999) * x + 1.0, 0.9999)
    ts = np.array([4, 3, 6, 3, 8])
    expected = compacting_solve(slow, ts, np.zeros((5, 1)), 1e-12, 300, L2)
    with pytest.raises(NonConvergenceError) as exc:
        fp.solve_fixed_point(slow, ts, np.zeros((5, 1)), max_iter=300)
    assert (str(exc.value), exc.value.time_index, exc.value.residual) == (
        str(expected), 3, expected.residual)


def _qp_runs(instance_seed, n_runs):
    """Gradient maps of the random instance ``instance_seed``, each run with a
    reference signal and step size of its own."""
    runs = []
    for r in range(n_runs):
        qp = random_qp(4, seed=instance_seed)
        qp.reference_signal = scalar_signal("random_walk", rate=0.01, seed=10 + r)
        runs.append(build_gradient_map(qp, 0.1 + 0.05 * r))
    return runs


def _references_of_a_list():
    drift = DriftPath("linear", 3, rate=0.01, seed=1)
    affine = [build_affine_family(3, L2, c, drift, seed=2) for c in (0.5, 0.7)]
    yield pytest.param(affine, False, id="affine-fixed-point")
    yield pytest.param(_qp_runs(5, 1) + _qp_runs(6, 1), False, id="qp-two-instances")
    net, two_bus = three_area_network(), two_bus_network()
    loadflow = [build_loadflow_map(net, default_injections(net, 0.7), norm=LINF),
                build_loadflow_map(two_bus, default_injections(two_bus, 0.7), norm=LINF)]
    yield pytest.param(loadflow, False, id="loadflow-monolithic")
    yield pytest.param(_qp_runs(5, 3), True, id="qp-one-instance")


@pytest.mark.parametrize("families,stacks", list(_references_of_a_list()))
def test_the_references_of_a_list_are_each_familys_alone(monkeypatch, families, stacks):
    solves = []
    real = fp.solve_fixed_point

    def counting(family, ts, *args, **kwargs):
        solves.append(len(np.atleast_1d(ts)))
        return real(family, ts, *args, **kwargs)

    monkeypatch.setattr(fp.core, "solve_fixed_point", counting)
    together = fp.compute_fixed_point_series(families, 12, L2)
    monkeypatch.undo()
    assert len(together) == len(families)
    for series, family in zip(together, families):
        alone = fp.compute_fixed_point_series(family, 12, L2)
        for field in ("points", "residuals", "drifts"):
            assert getattr(series, field).tobytes() == getattr(alone, field).tobytes(), field
        assert series.drift_sup == alone.drift_sup
    # one batched solve of every run's rows when the bases stack, else each family's own
    solved = [12 * len(families)] if stacks else [12 for f in families if f.fixed_point is None]
    assert solves == solved


# ---------------------------------------------------------------------------
# run_online_tracker
# ---------------------------------------------------------------------------


def test_tracker_static_map_geometric_errors():
    fam = scalar_family(lambda x, t: 0.5 * x + 1.0, 0.5)
    trace = fp.run_online_tracker(fam, np.array([0.0]), 40, L2)
    expected = 2.0 * 0.5 ** np.arange(40)
    assert np.allclose(trace.errors, expected, atol=1e-10)


def test_tracker_drifting_map_settles_at_tight_bound():
    # error recursion e(next) = 0.5 e - 0.1 settles at -0.2 exactly
    fam = scalar_family(lambda x, t: 0.5 * x + 0.5 * (0.1 * t), 0.5,
                        fixed_point=lambda t: 0.1 * t[:, None])
    trace = fp.run_online_tracker(fam, np.array([0.0]), 300, L2)
    assert abs(trace.tail_max(0.1) - 0.2) < 1e-9
    bound = fp.bounds.tracking_bound_sync(
        fp.bounds.BoundInputs(lipschitz=0.5, drift=0.1)
    )
    assert abs(bound - 0.2) < 1e-15


def test_tracker_worst_case_constant_perturbation():
    base = scalar_family(lambda x, t: 0.5 * x + 1.0, 0.5,
                         fixed_point=lambda t: np.array([2.0]))
    fam = fp.with_output_noise(base, 0.01, seed=1, norm=L2, adversarial=True)
    trace = fp.run_online_tracker(fam, np.array([0.0]), 1000, L2)
    limsup = trace.tail_max(0.1)
    assert limsup <= 0.02 + 1e-12
    assert limsup > 0.0199  # the adversarial offset makes the bound tight


def test_tracker_names_both_shapes_of_an_initial_point_of_another_size():
    fam = MapFamily(3, Domain.all_space(3), lambda x, t: 0.5 * x, 0.5)
    with pytest.raises(PreconditionError, match=r"shape \(4,\); expected \(3,\)"):
        fp.run_online_tracker(fam, np.zeros(4), 10, L2)


def test_tracker_horizon_one_returns_initial_error_only():
    fam = scalar_family(lambda x, t: 0.5 * x + 1.0, 0.5)
    trace = fp.run_online_tracker(fam, np.array([0.0]), 1, L2)
    assert trace.errors.shape == (1,)
    assert abs(trace.errors[0] - 2.0) < 1e-10


def test_tracker_per_step_envelope_holds_everywhere():
    rng = np.random.default_rng(7)
    m = 5
    A = rng.uniform(-1, 1, (m, m))
    A *= 0.75 / np.linalg.norm(A, 2)
    offs = {t: 0.3 * rng.normal(0, 1, m) for t in range(1, 202)}
    fam = MapFamily(m, Domain.all_space(m), fp.pointwise(lambda x, t: A @ x + offs[t]), 0.75)
    noisy = fp.with_output_noise(fam, 0.02, seed=5, norm=L2)
    trace = fp.run_online_tracker(noisy, rng.uniform(-2, 2, m), 200, L2)
    L_series = np.full(199, 0.75)
    e_series = np.full(199, 0.02)
    env = fp.bounds.per_step_bound_series(
        trace.errors[0], e_series, trace.reference.drifts, L_series, 199
    )
    assert np.all(trace.errors <= env + 1e-9)


def test_tracker_zero_drift_zero_noise_classic_reduction():
    rng = np.random.default_rng(11)
    A = rng.uniform(-1, 1, (4, 4))
    A *= 0.6 / np.linalg.norm(A, 2)
    b = rng.normal(0, 1, 4)
    fam = MapFamily(4, Domain.all_space(4), lambda x, t: x @ A.T + b, 0.6)
    trace = fp.run_online_tracker(fam, rng.uniform(-3, 3, 4), 60, L2)
    geometric = trace.errors[0] * 0.6 ** np.arange(60)
    assert np.all(trace.errors <= geometric + 1e-12)


def test_tracker_determinism_bitwise():
    base = scalar_family(lambda x, t: 0.5 * x + 1.0, 0.5,
                         fixed_point=lambda t: np.array([2.0]))
    fam = fp.with_output_noise(base, 0.05, seed=123, norm=L2)
    t1 = fp.run_online_tracker(fam, np.array([0.3]), 200, L2)
    t2 = fp.run_online_tracker(fam, np.array([0.3]), 200, L2)
    assert np.array_equal(t1.iterates, t2.iterates)
    assert np.array_equal(t1.errors, t2.errors)


def escaping_family(escape_at, calls):
    """On [-1, 1], x -> x / 2, but x / 2 + 3 at ``escape_at``; logs each call's time."""
    def evaluate(x, t):
        calls.append(t)
        return 0.5 * x + (3.0 if t == escape_at else 0.0)

    return scalar_family(lambda x, t: evaluate(x, t), 0.5, domain=Domain.box([-1.0], [1.0]))


def test_lockstep_rows_are_the_runs_alone_and_it_raises_at_the_first_leaving_time():
    families = [escaping_family(None, []), escaping_family(None, [])]
    iterates = fp.run_lockstep_tracker(families, [[0.5], [-0.25]], 10)
    assert iterates.shape == (2, 10, 1)
    for row, x0 in zip(iterates, (0.5, -0.25)):
        alone = fp.run_online_tracker(escaping_family(None, []), np.array([x0]), 10, L2)
        assert row.tobytes() == alone.iterates.tobytes()
    calls = [[], [], []]
    families = [escaping_family(None, calls[0]), escaping_family(6, calls[1]),
                escaping_family(3, calls[2])]
    with pytest.raises(DomainViolationError) as exc:
        fp.run_lockstep_tracker(families, [[0.5], [-0.25], [0.75]], 10)
    assert str(exc.value) == "online iterate left the domain at time index 3"
    assert calls == [[1, 2, 3]] * 3
    with pytest.raises(DomainViolationError, match="at time index 3$"):
        fp.run_online_tracker(escaping_family(3, []), np.array([-0.25]), 10, L2)


def test_lockstep_raises_a_precondition_error_for_an_outside_start():
    calls = [[], []]
    with pytest.raises(PreconditionError) as exc:
        fp.run_lockstep_tracker(
            [escaping_family(None, calls[0]), escaping_family(None, calls[1])], [[0.5], [2.0]], 4)
    assert str(exc.value) == "initial point lies outside the declared domain"
    assert calls == [[], []]
    with pytest.raises(PreconditionError, match="expected one of dimension 1 per family"):
        fp.run_lockstep_tracker([escaping_family(None, [])], [[0.0], [0.0]], 4)


@pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, float("nan")])
def test_tail_max_takes_a_fraction_in_the_unit_interval(fraction):
    trace = fp.run_online_tracker(scalar_family(lambda x, t: 0.5 * x + 1.0, 0.5),
                                  np.array([0.0]), 10, L2)
    with pytest.raises(PreconditionError, match="tail fraction"):
        trace.tail_max(fraction)
    assert trace.tail_max(1.0) == trace.errors.max()
    assert trace.tail_max(0.1) == trace.errors[-1]


# ---------------------------------------------------------------------------
# tracking_error
# ---------------------------------------------------------------------------


def test_tracking_error_identical_sequences_zero():
    x = np.random.default_rng(0).normal(size=(7, 3))
    assert np.all(fp.tracking_error(x, x.copy(), L2) == 0.0)


def test_tracking_error_constant_offset_under_max_norm():
    x = np.zeros((5, 4))
    offset = np.array([0.3, -0.1, 0.2, 0.05])
    assert np.allclose(fp.tracking_error(x + offset, x, LINF), 0.3)


def test_tracking_error_random_pair_matches_direct_norms():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(9, 6)), rng.normal(size=(9, 6))
    out = fp.tracking_error(a, b, L2)
    oracle = np.array([np.linalg.norm(a[i] - b[i]) for i in range(9)])
    assert np.allclose(out, oracle, atol=0, rtol=1e-15)


def test_tracking_error_length_mismatch():
    with pytest.raises(LengthMismatchError):
        fp.tracking_error(np.zeros((3, 2)), np.zeros((4, 2)), L2)


# ---------------------------------------------------------------------------
# estimate_lipschitz / verify_self_map / verify_map_error
# ---------------------------------------------------------------------------


def test_lipschitz_exact_for_scaling_map():
    fam = MapFamily(3, Domain.all_space(3), lambda x, t: 0.5 * x, 0.5)
    est = fp.estimate_lipschitz(fam, 1, DomainSampler(fam.domain, 0), 100, L2)
    assert abs(est.value - 0.5) < 1e-12


def test_lipschitz_linear_map_bounded_by_spectral_norm_oracle():
    A = np.array([[0.3, 0.2], [0.0, 0.4]])
    oracle = np.linalg.svd(A, compute_uv=False)[0]
    fam = MapFamily(2, Domain.all_space(2), lambda x, t: x @ A.T, oracle)
    est = fp.estimate_lipschitz(fam, 1, DomainSampler(fam.domain, 1), 20000, L2)
    assert est.value <= oracle + 1e-9
    assert est.value > 0.9 * oracle  # sampling gets close for a 2-d linear map


def test_lipschitz_cosine_bounded_by_mean_value_oracle():
    dom = Domain.box([0.0], [1.0])
    fam = MapFamily(1, dom, lambda x, t: np.cos(x), np.sin(1.0))
    est = fp.estimate_lipschitz(fam, 1, DomainSampler(dom, 2), 5000, L2)
    assert est.value <= np.sin(1.0) + 1e-9


def test_lipschitz_degenerate_sampling_flagged():
    dom = Domain.box([1.0], [1.0])  # single point
    fam = MapFamily(1, dom, lambda x, t: 0.5 * x, 0.5)
    est = fp.estimate_lipschitz(fam, 1, DomainSampler(dom, 3), 50, L2)
    assert est.value == 0.0
    assert est.degenerate


def test_lipschitz_pair_count_is_an_integer_not_truncated():
    fam = MapFamily(1, Domain.box([0.0], [1.0]), lambda x, t: 0.5 * x, 0.5)
    with pytest.raises(PreconditionError, match="n_pairs 2.7 is not an integer"):
        fp.estimate_lipschitz(fam, 1, DomainSampler(fam.domain, 0), 2.7, L2)
    est = fp.estimate_lipschitz(fam, 1, DomainSampler(fam.domain, 0), np.int64(3), L2)
    assert est.pairs_used == 3


class _Draws:
    """A sampler that returns the given blocks of points in turn."""

    def __init__(self, *blocks):
        self.blocks = list(blocks)

    def draw(self, n):
        block = np.asarray(self.blocks.pop(0), dtype=float)
        assert len(block) == n
        return block


@pytest.mark.parametrize("norm", [L2, LINF])
def test_lipschitz_skips_coinciding_pairs_and_checks_every_image(norm):
    X = [[0.0, 0.0], [0.5, 0.5], [0.1, 0.9], [0.3, 0.2]]
    Y = [[0.0, 0.0], [0.5, 0.1], [0.1, 0.9], [0.9, 0.8]]  # pairs 0 and 2 coincide

    def f(x, t):
        return np.column_stack([0.5 * x[:, 0], 0.25 * x[:, 1] + 0.8])

    fam = MapFamily(2, Domain.box([0.0, 0.0], [1.0, 1.0]), f, 0.5)
    est = fp.estimate_lipschitz(fam, 1, _Draws(X, Y), 4, norm)
    ratios = [norm.of(f(np.array([x]), 1)[0] - f(np.array([y]), 1)[0])
              / norm.of(np.subtract(x, y)) for x, y in zip(X, Y) if x != y]
    assert (est.value, est.pairs_used, est.degenerate) == (max(ratios), 2, False)
    assert [list(p) for p in est.worst_pair] == [X[3], Y[3]]
    # 0.25 * 0.9 + 0.8 leaves the box: the first such point is pair 2's in X
    assert (est.self_map.ok, est.self_map.n_checked) == (False, 8)
    assert list(est.self_map.counterexample) == X[2]
    est = fp.estimate_lipschitz(fam, 1, _Draws(Y[:2], X[:2]), 2, norm)
    assert est.self_map.ok and est.self_map.n_checked == 4


def test_self_map_contraction_on_ball_true():
    dom = Domain.ball(np.zeros(2), 1.0)
    fam = MapFamily(2, dom, lambda x, t: 0.5 * x, 0.5)
    check = fp.verify_self_map(fam, 1, DomainSampler(dom, 4), 500)
    assert check.ok and check.counterexample is None


def test_self_map_shift_off_box_false_with_counterexample():
    dom = Domain.box([0.0], [1.0])
    fam = MapFamily(1, dom, lambda x, t: x + 1.0, 0.5)
    check = fp.verify_self_map(fam, 1, DomainSampler(dom, 5), 200)
    assert not check.ok
    assert check.counterexample is not None
    assert 0.0 <= check.counterexample[0] <= 1.0


def test_self_map_sample_count_is_an_integer_not_truncated():
    fam = MapFamily(1, Domain.box([0.0], [1.0]), lambda x, t: 0.5 * x, 0.5)
    with pytest.raises(PreconditionError, match="n_samples 3.9 is not an integer"):
        fp.verify_self_map(fam, 1, DomainSampler(fam.domain, 0), 3.9)
    assert fp.verify_self_map(fam, 1, DomainSampler(fam.domain, 0), np.int64(3)).n_checked == 3


def test_map_error_audit_within_declared_bound():
    base = MapFamily(3, Domain.all_space(3), lambda x, t: 0.5 * x, 0.5)
    fam = fp.with_output_noise(base, 0.05, seed=6, norm=L2)
    check = fp.verify_map_error(fam, 1, DomainSampler(base.domain, 7), 400, L2)
    assert check.ok
    assert check.max_observed <= 0.05 + 1e-12


def test_map_error_sample_count_is_a_positive_integer():
    base = MapFamily(3, Domain.all_space(3), lambda x, t: 0.5 * x, 0.5)
    fam = fp.with_output_noise(base, 0.05, seed=6, norm=L2)
    sampler = DomainSampler(base.domain, 7)
    with pytest.raises(PreconditionError, match="n_samples 2.7 is not an integer"):
        fp.verify_map_error(fam, 1, sampler, 2.7, L2)
    with pytest.raises(PreconditionError, match="need at least one sample"):
        fp.verify_map_error(fam, 1, sampler, 0, L2)
    assert fp.verify_map_error(fam, 1, sampler, np.int64(3), L2).n_checked == 3


def test_map_error_bound_series_horizon_is_an_integer_not_truncated():
    fam = fp.with_output_noise(MapFamily(1, Domain.all_space(1), lambda x, t: 0.5 * x, 0.5),
                               0.05, seed=6, norm=L2)
    with pytest.raises(PreconditionError, match="horizon 2.7 is not an integer"):
        map_error_bound_series(fam, 2.7)
    assert map_error_bound_series(fam, np.int64(3)).tolist() == [0.05, 0.05]


def test_map_error_audit_allows_rounding_at_large_states_but_not_a_larger_error():
    dom = Domain.box([-2e9] * 3, [2e9] * 3)
    base = MapFamily(3, dom, lambda x, t: 0.5 * x + np.array([7e8, -9e8, 3e8]), 0.5)
    direction = np.ones(3) / np.sqrt(3)
    checks = {}
    for factor in (1.0, 1.01):
        fam = fp.InexactMapFamily(
            base, lambda x, t, k=factor: base.evaluate(x, t) + k * 0.01 * direction, 0.01)
        checks[factor] = fp.verify_map_error(fam, 1, DomainSampler(dom, 8), 400, L2)
    # an offset of exactly the bound rounds to above it at outputs of norm 1e9
    assert checks[1.0].ok and checks[1.0].max_observed > 0.01 + 1e-9
    assert not checks[1.01].ok


def test_declared_contraction_must_be_below_one():
    with pytest.raises(PreconditionError):
        MapFamily(1, Domain.all_space(1), lambda x, t: x, 1.0)


def test_domain_must_have_the_family_dimension():
    with pytest.raises(PreconditionError, match="dimension 2"):
        MapFamily(3, Domain.all_space(2), lambda x, t: 0.5 * x, 0.5)
    with pytest.raises(PreconditionError, match="dimension 1"):
        MapFamily(2, Domain.box([0.0], [1.0]), lambda x, t: 0.5 * x, 0.5)


# the demo's drifting scalar map, written for one point: on n rows it returns (n, n)
def drifting_point_map(x, t):
    return 0.5 * x + np.array([0.05 * t])


def test_map_of_the_wrong_shape_fails_loudly():
    fam = MapFamily(1, Domain.all_space(1), drifting_point_map, 0.5, name="drifting")
    message = r"'drifting' returned shape \(3, 3\) for input shape \(3, 1\)"
    with pytest.raises(PreconditionError, match=message):
        fam.evaluate(np.zeros((3, 1)), np.array([1, 2, 3]))
    with pytest.raises(PreconditionError, match="'drifting' returned shape"):
        fp.compute_fixed_point_series(fam, 5, L2)
    with pytest.raises(PreconditionError, match="'drifting' returned shape"):
        fp.solve_fixed_point(fam, np.array([1, 2]), np.zeros((2, 1)))
    assert fam.evaluate(np.zeros(1), 2).shape == (1,)  # a point is its own shape


def test_a_time_that_is_not_an_integer_is_rejected():
    fam = MapFamily(1, Domain.all_space(1), drifting_point_map, 0.5)
    x = np.array([1.0])
    for t in (1.9, np.float64(2.0)):
        with pytest.raises(PreconditionError, match="not an integer"):
            fam.evaluate(x, t)
    assert fam.evaluate(x, np.int64(2)) == fam.evaluate(x, 2) == 0.6


def test_domain_rejects_points_of_another_dimension():
    box = Domain.box([0.0], [1.0])
    for domain in (box, Domain.all_space(1), Domain.ball([0.0], 1.0)):
        with pytest.raises(PreconditionError, match="dimension 1"):
            domain.contains(np.zeros((3, 3)))
        with pytest.raises(PreconditionError, match="dimension 1"):
            domain.project(np.zeros(3))
    np.testing.assert_array_equal(box.contains(np.array([[0.5], [2.0], [1.0]])),
                                  [True, False, True])


def test_membership_and_projection_keep_the_bits_of_the_tolerance_formulas():
    # the formulas before the bounds were widened once: `lo - tol`, `radius + tol`, np.clip
    tol, rng = 1e-9, np.random.default_rng(17)
    for dim in (1, 2, 5):
        lo, hi = -rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, dim)
        lo[0] = 0.0
        hi[-1] = 0.0 if dim > 1 else hi[-1]
        X = rng.uniform(-3.0, 3.0, (400, dim))
        faces = np.stack([lo - tol, lo, lo + tol, hi - tol, hi, hi + tol])
        X[:300] = faces[rng.integers(0, 6, (300, dim)), np.arange(dim)]
        X[:100] = np.nextafter(X[:100], rng.choice([-np.inf, np.inf], (100, dim)))
        for value, share in ((0.0, 0.1), (-0.0, 0.1), (np.nan, 0.02), (np.inf, 0.01)):
            X[rng.random(X.shape) < share] = value
        box = Domain.box(lo, hi)
        inside = ((X >= lo - tol) & (X <= hi + tol)).all(axis=-1)
        assert 50 < inside.sum() < 350
        np.testing.assert_array_equal(box.contains(X), inside)
        assert [bool(box.contains(x)) for x in X] == inside.tolist()
        clipped = np.stack([np.clip(x, lo, hi) for x in X])
        assert box.project(X).tobytes() == clipped.tobytes()
        assert all(box.project(x).tobytes() == row.tobytes() for x, row in zip(X, clipped))
        everywhere = Domain.all_space(dim)
        np.testing.assert_array_equal(everywhere.contains(X), np.isfinite(X).all(axis=-1))
        center, radius = rng.uniform(-1.0, 1.0, dim), float(rng.uniform(0.5, 2.0))
        ball = Domain.ball(center, radius)
        unit = rng.standard_normal((400, dim))
        unit /= np.sqrt(np.einsum("ij,ij->i", unit, unit))[:, None]
        scale = radius + rng.choice([-2 * tol, -tol, 0.0, tol, 2 * tol], 400)[:, None]
        Y = center + unit * scale
        d = Y - center
        inside = np.sqrt(np.einsum("...j,...j->...", d, d)) <= radius + tol
        assert 20 < inside.sum() < 380
        np.testing.assert_array_equal(ball.contains(Y), inside)
        assert [bool(ball.contains(y)) for y in Y] == inside.tolist()


def test_ball_projection_takes_a_point_or_rows_alike():
    ball = Domain.ball([1.0, -1.0, 0.5], 0.7)
    X = DomainSampler(Domain.box([-2.0] * 3, [2.0] * 3), 4).draw(50)
    rows = ball.project(X)
    inside = ball.contains(X)
    assert 0 < inside.sum() < len(X)
    np.testing.assert_array_equal(rows[inside], X[inside])  # points inside are unchanged
    assert np.all(ball.contains(rows))
    for x, row, flag in zip(X, rows, inside):
        assert row.tobytes() == ball.project(x).tobytes()
        assert ball.contains(x) == flag


def test_pointwise_map_runs_row_by_row_with_the_bits_of_a_plain_loop():
    fam = MapFamily(1, Domain.all_space(1), fp.pointwise(drifting_point_map), 0.5)
    horizon, tol = 40, 1e-12
    trace = fp.run_online_tracker(fam, np.array([0.0]), horizon, L2)
    x, iterates = np.array([0.0]), [np.array([0.0])]
    for t in range(1, horizon):
        x = drifting_point_map(x, t)
        iterates.append(x)
    assert trace.iterates.tobytes() == np.array(iterates).tobytes()
    # the reference: each time iterated alone from the anchor until its residual is at most tol
    oracle = []
    for t in range(1, horizon + 1):
        x = np.zeros(1)
        while True:
            fx = drifting_point_map(x, t)
            if np.linalg.norm(fx - x) <= tol:
                break
            x = fx
        oracle.append(fx)
    assert trace.reference.points.tobytes() == np.array(oracle).tobytes()
    np.testing.assert_allclose(trace.reference.points[:, 0], 0.1 * np.arange(1, horizon + 1),
                               rtol=0.0, atol=1e-11)


def test_stream_independence_of_consumption_order():
    a1 = fp.seeded_stream(9, 4).uniform(size=3)
    _ = fp.seeded_stream(9, 5).uniform(size=10)
    a2 = fp.seeded_stream(9, 4).uniform(size=3)
    assert np.array_equal(a1, a2)


# ---------------------------------------------------------------------------
# integers, tolerances and the sampler
# ---------------------------------------------------------------------------


def _graph_and_family():
    fam = MapFamily(2, Domain.all_space(2), lambda x, t: 0.5 * x, 0.5)
    return fam, fp.DependencyGraph([1, 1], [(0, 1), (1, 0)])


@pytest.mark.parametrize("call,message", [
    (lambda: fp.seeded_stream(2.7, 5), "seed 2.7 is not an integer"),
    (lambda: fp.seeded_stream(2, 5.0), "stream key 5.0 is not an integer"),
    (lambda: fp.audit_dependency_graph(*_graph_and_family(), seed=2.7),
     "seed 2.7 is not an integer"),
    (lambda: MapFamily(2.7, Domain.all_space(2), lambda x, t: x, 0.5),
     "dimension 2.7 is not an integer"),
    (lambda: random_qp(3.9, seed=1), "device count 3.9 is not an integer"),
    (lambda: DomainSampler(Domain.all_space(2), 2.7), "seed 2.7 is not an integer"),
    (lambda: DomainSampler(Domain.all_space(2), 1).draw(2.7),
     "sample count 2.7 is not an integer"),
    (lambda: DomainSampler(Domain.all_space(2), 1).draw(-1),
     "sample count must be nonnegative; got -1"),
    (lambda: random_qp(0, seed=1), "device count must be at least 1; got 0"),
    (lambda: DriftPath("linear", 2.7, seed=3), "dimension 2.7 is not an integer"),
    (lambda: DriftPath("linear", 2, seed=3.9), "seed 3.9 is not an integer"),
    (lambda: DriftPath("piecewise", 2, fast_rate=0.1, fast_window=(2.5, 4)),
     "fast window start 2.5 is not an integer"),
    (lambda: DriftPath("piecewise", 2, fast_rate=0.1, fast_window=(2, 4.9)),
     "fast window end 4.9 is not an integer"),
    (lambda: build_affine_family(3.5, L2, 0.5, DriftPath("linear", 3), seed=1),
     "dimension 3.5 is not an integer"),
], ids=["stream-seed", "stream-key", "audit-seed", "family-dim", "qp-devices", "sampler-seed",
        "draw-float", "draw-negative", "qp-no-devices", "drift-dim", "drift-seed",
        "drift-window-start", "drift-window-end", "affine-dim"])
def test_seeds_and_sizes_are_integers_not_truncated(call, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        call()


def test_a_nan_tolerance_raises_before_the_first_sweep():
    calls = []
    fam = MapFamily(2, Domain.all_space(2), lambda x, t: calls.append(t) or 0.5 * x, 0.5)
    for tol in (float("nan"), 0.0, -1.0):
        with pytest.raises(PreconditionError, match="tolerance and iteration cap must be positive"):
            fp.solve_fixed_point(fam, 1, np.ones(2), tol=tol)
    assert calls == []


@pytest.mark.parametrize("dim", range(1, 10))
def test_a_finite_box_draw_is_numpys_uniform_bit_for_bit(dim):
    # zero-width sides, signed-zero bounds and bounds near +-1e300 and the float limit
    rng = np.random.default_rng(dim)
    for seed in range(12):
        scale = float(rng.choice([1.0, 1e-300, 1e300]))
        lo = rng.uniform(-1.0, 1.0, dim) * scale
        hi = lo + rng.uniform(0.0, 1.0, dim) * scale
        cases = rng.integers(0, 5, dim)
        hi[cases == 1] = lo[cases == 1]                         # zero width
        lo[cases == 2], hi[cases == 2] = -0.0, rng.choice([0.0, -0.0])
        lo[cases == 3], hi[cases == 3] = -1e300, 1e300
        lo[cases == 4], hi[cases == 4] = 1e300, np.finfo(float).max
        sampler = DomainSampler(Domain.box(lo, hi), seed)
        numpy = np.random.default_rng(np.random.SeedSequence([seed]))
        for n in (1, 7, 50):
            drawn = sampler.draw(n)
            assert drawn.tobytes() == numpy.uniform(lo, hi, size=(n, dim)).tobytes(), (seed, n)


def test_the_anchor_of_a_box_near_the_float_limit_is_finite_and_inside():
    box = Domain.box([1e308, -1.0], [1.5e308, 1.0])
    with np.errstate(all="raise"):
        anchor = box.anchor()
    assert np.isfinite(anchor).all() and box.contains(anchor)
    assert anchor.tolist() == [1.25e308, 0.0]


def _shipped_boxes():
    qp = {"kind": "qp-gradient", "step_size": 0.1, "noise_bound": 0.0, "topology": "none"}
    docs = [{"problem": {**qp, "devices": n, "instance_seed": s}, "mode": "sync", "norm": "l2"}
            for n in (1, 3, 5, 7) for s in range(6)]
    docs += [{"problem": {"kind": "loadflow", "network": net, "multiarea": multiarea,
                          "noise_bound": 1e-4, "injections": {"kind": "random_walk", "step": 0.01}},
              "mode": "sync", "norm": "linf"}
             for net, multiarea in (("three-area", True), ("three-area", False), ("two-bus", False))]
    for doc in docs:
        family, _, _ = build_family(ExperimentConfig.from_dict({**doc, "horizon": 5, "seed": 1}))
        yield family.domain.lo, family.domain.hi


def test_the_anchor_of_a_box_keeps_the_bits_of_the_midpoint_of_its_sum():
    # half of each end, summed: the same bits as half the sum where neither is subnormal
    rng = np.random.default_rng(8)
    random = []
    for _ in range(200):
        dim = int(rng.integers(1, 9))
        lo = rng.uniform(-1.0, 1.0, dim) * 10.0 ** rng.integers(-300, 300, dim)
        random.append((lo, lo + rng.uniform(0.0, 1.0, dim) * 10.0 ** rng.integers(-300, 300, dim)))
    boxes = list(_shipped_boxes())
    assert len(boxes) == 27
    for lo, hi in boxes + random:
        assert Domain.box(lo, hi).anchor().tobytes() == (0.5 * (lo + hi)).tobytes()


def test_a_box_side_wider_than_a_float_names_the_side_without_a_warning():
    box = Domain.box([0.0, -1e308, -np.inf], [1.0, 1e308, np.inf])
    with np.errstate(all="raise"), pytest.raises(PreconditionError, match=re.escape(
            "box side 1 [-1e+308, 1e+308] is wider than the largest float")):
        DomainSampler(box, 1)
    # an infinite side is drawn from a normal around the anchor, as before
    assert np.isfinite(DomainSampler(Domain.box([0.0, -np.inf], [1.0, np.inf]), 1).draw(5)).all()
