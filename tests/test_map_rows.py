"""Built-in map families: the rows path the audits run agrees with the point path."""
import numpy as np
import pytest

import fptrack as fp
from fptrack import DomainSampler
from fptrack.problems import (
    DriftPath,
    build_affine_family,
    build_broadcast_system,
    build_feedback_gradient_map,
    build_gradient_map,
    build_loadflow_map,
    build_multiarea_maps,
    default_injections,
    random_qp,
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
    }


@pytest.mark.parametrize("name", [
    "affine-l2", "affine-linf", "affine-blockwise", "qp-gradient", "qp-feedback",
    "qp-broadcast", "qp-broadcast-noisy", "loadflow-l2", "loadflow-linf",
    "multiarea", "multiarea-noisy",
])
def test_builtin_map_rows_agree_with_points(families, name):
    family = families[name]
    assert family.evaluate_batch is not None
    X = DomainSampler(family.domain, 5).draw(6)
    for t in (1, 4):
        rows = family.evaluate_batch(X, t)
        assert rows.shape == X.shape
        for x, row in zip(X, rows):
            np.testing.assert_allclose(row, family.evaluate(x, t), rtol=0.0, atol=1e-12)
