"""Affine oracle families: exact contraction factors, fixed points, drift."""
import time

import numpy as np
import pytest

import fptrack as fp
from fptrack import DomainSampler, Norm
from fptrack.errors import PreconditionError
from fptrack.problems import AffineFamily, DriftPath, build_affine_family
from fptrack.problems.affine import COUPLINGS

L2, LINF = Norm(fp.L2), Norm(fp.LINF)


def test_constant_drift_zero_sigma():
    fam = build_affine_family(4, L2, 0.5, DriftPath("constant", 4, start=np.ones(4)), seed=0)
    series = fp.compute_fixed_point_series(fam, 20, L2)
    assert np.all(series.drifts == 0.0)
    assert np.allclose(series.points, 1.0, atol=1e-12)


def test_max_norm_construction_has_exact_row_sums():
    fam = build_affine_family(6, LINF, 0.5, DriftPath("constant", 6), seed=1)
    row_sums = np.abs(fam.A).sum(axis=1)  # induced max-norm oracle
    assert np.allclose(row_sums, 0.5, atol=1e-12)


def test_l2_construction_has_exact_spectral_norm():
    fam = build_affine_family(5, L2, 0.8, DriftPath("constant", 5), seed=2)
    oracle = np.linalg.svd(fam.A, compute_uv=False)[0]
    assert abs(oracle - 0.8) < 1e-9


def test_blockwise_l2_declares_row_aggregate():
    fam = build_affine_family(4, L2, 0.4, DriftPath("constant", 4), seed=3,
                              coupling="chain", blockwise=True)
    assert abs(np.linalg.norm(fam.A, "fro") - 0.4) < 1e-12
    assert fam.lipschitz_sup == 0.4
    # declared factor upper-bounds the true induced norm
    assert np.linalg.svd(fam.A, compute_uv=False)[0] <= 0.4 + 1e-12


def test_linear_drift_sigma_equals_rate_in_family_norm():
    for norm in (L2, LINF):
        drift = DriftPath("linear", 3, rate=0.07, seed=4, norm=norm)
        fam = build_affine_family(3, norm, 0.6, drift, seed=4)
        series = fp.compute_fixed_point_series(fam, 30, norm)
        assert np.allclose(series.drifts, 0.07, atol=1e-12)


def test_linear_drift_sigma_matches_linear_solve_oracle():
    # sigma(t) = || (I - A)^{-1} (b(t+1) - b(t)) ||
    drift = DriftPath("linear", 4, rate=0.05, seed=5, norm=L2)
    fam = build_affine_family(4, L2, 0.7, drift, seed=5)
    eye = np.eye(4)
    for t in (1, 7, 19):
        b_t = fam.evaluate(np.zeros(4), t)
        b_next = fam.evaluate(np.zeros(4), t + 1)
        sigma = np.linalg.norm(np.linalg.solve(eye - fam.A, b_next - b_t))
        assert abs(sigma - 0.05) < 1e-10


def test_closed_form_fixed_points_have_tiny_residuals():
    drift = DriftPath("random_walk", 5, rate=0.02, seed=6, norm=L2)
    fam = build_affine_family(5, L2, 0.6, drift, seed=6)
    for t in (1, 3, 11):
        p = fam.fixed_point(t)
        assert np.linalg.norm(fam.evaluate(p, t) - p) < 1e-12


def test_random_walk_steps_have_exact_size():
    drift = DriftPath("random_walk", 4, rate=0.03, seed=7, norm=LINF)
    for t in [*range(1, 15), *range(140, 160)]:  # the second range is past the first block
        step = drift.point(t + 1) - drift.point(t)
        assert abs(np.max(np.abs(step)) - 0.03) < 1e-12


def test_piecewise_drift_has_one_fast_segment():
    drift = DriftPath("piecewise", 2, rate=0.01, seed=8, norm=L2,
                      fast_rate=0.2, fast_window=(10, 15))
    fam = build_affine_family(2, L2, 0.5, drift, seed=8)
    series = fp.compute_fixed_point_series(fam, 25, L2)
    assert np.allclose(series.drifts[:8], 0.01, atol=1e-12)
    assert np.allclose(series.drifts[9:14], 0.2, atol=1e-12)
    assert np.allclose(series.drifts[15:], 0.01, atol=1e-12)
    assert abs(series.drift_sup - 0.2) < 1e-12


def test_piecewise_drift_is_read_in_linear_time():
    # the tracker reads the path one t at a time: summing the t speeds at every
    # read is quadratic in the horizon (about 7 s on a 2-core Xeon), one table of
    # running sums is linear (about 0.1 s there)
    drift = DriftPath("piecewise", 3, rate=0.01, seed=8, norm=L2,
                      fast_rate=0.05, fast_window=(4000, 6000))
    fam = build_affine_family(3, L2, 0.5, drift, seed=8)
    start = time.perf_counter()
    trace = fp.run_online_tracker(fam, np.zeros(3), 10_000, L2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"sync run over horizon 10000 took {elapsed:.2f}s, budget 1.0s"
    assert trace.errors[-1] < 0.05


def test_sampled_contraction_never_exceeds_declared():
    for norm, blockwise in ((L2, False), (LINF, False), (L2, True)):
        fam = build_affine_family(6, norm, 0.75, DriftPath("constant", 6), seed=9,
                                  blockwise=blockwise)
        est = fp.estimate_lipschitz(fam, 1, DomainSampler(fam.domain, 10), 4000, norm)
        assert est.value <= fam.lipschitz_sup + 1e-9


def test_chain_coupling_yields_tridiagonal_dependency():
    fam = build_affine_family(5, L2, 0.5, DriftPath("constant", 5), seed=11,
                              coupling="chain")
    edges = set(fam.dependency_graph().edges)
    expected = {(i, i + 1) for i in range(4)} | {(i + 1, i) for i in range(4)}
    assert edges <= expected
    ok, violations = fp.audit_dependency_graph(fam, fam.dependency_graph(),
                                               probe_count=6, seed=12)
    assert ok, violations


@pytest.mark.parametrize("coupling", COUPLINGS)
def test_dependency_graph_edges_are_the_off_diagonal_nonzeros(coupling):
    for dim in (1, 2, 7):
        fam = build_affine_family(dim, LINF, 0.5, DriftPath("constant", dim), seed=dim,
                                  coupling=coupling)
        graph = fam.dependency_graph()
        loop = sorted((j, i) for i in range(dim) for j in range(dim)
                      if i != j and fam.A[i, j] != 0.0)
        assert list(graph.edges) == loop
        assert graph.block_sizes == (1,) * dim


def test_contraction_target_validated():
    with pytest.raises(PreconditionError):
        build_affine_family(3, L2, 1.0, DriftPath("constant", 3), seed=0)
    with pytest.raises(PreconditionError):
        build_affine_family(3, L2, 0.5, DriftPath("constant", 4), seed=0)


@pytest.mark.parametrize("shape", [(4, 4), (3, 4)])
def test_affine_family_rejects_a_matrix_that_does_not_fit_its_path(shape):
    with pytest.raises(PreconditionError, match=rf"A has shape \({shape[0]}, {shape[1]}\)"):
        AffineFamily(np.full(shape, 0.1), DriftPath("constant", 3), L2, lipschitz=0.5)
