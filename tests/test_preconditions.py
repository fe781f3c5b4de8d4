"""Each documented precondition raises PreconditionError with its own message."""
import re

import numpy as np
import pytest

import fptrack as fp
from fptrack.bounds import BoundInputs
from fptrack.errors import PreconditionError
from fptrack.problems import (
    DriftPath,
    PowerNetwork,
    TimeVaryingQP,
    build_affine_family,
    build_broadcast_system,
    build_feedback_gradient_map,
    build_gradient_map,
    scalar_signal,
)


def one_device(regularization=0.0):
    return TimeVaryingQP(
        curvature=[1.0], coupling=[1.0], tracking_weight=1.0, regularization=regularization,
        box_lo=[0.0], box_hi=[1.0], output_signal=scalar_signal("constant"),
        reference_signal=scalar_signal("constant", start=1.0))


def unit_box_family():
    return fp.MapFamily(1, fp.Domain.box([0.0], [1.0]), lambda x, t: 0.5 * x, 0.5)


def sampler():
    return fp.DomainSampler(fp.Domain.box([0.0], [1.0]), 0)


PRECONDITIONS = {
    "fixed-delay-negative": (lambda: fp.FixedDelay(-1), "delay must be nonnegative"),
    "periodic-zero": (lambda: fp.PeriodicDelivery(0), "period must be at least 1"),
    "drop-certain": (lambda: fp.IidDrop(1.0), "drop probability must lie in [0, 1)"),
    "drop-negative-run": (lambda: fp.IidDrop(0.1, -1), "max_consecutive must be nonnegative"),
    "graph-empty-block": (lambda: fp.DependencyGraph([1, 0], []), "block sizes must be positive"),
    "bound-negative-lipschitz": (lambda: BoundInputs(lipschitz=-0.1),
                                 "lipschitz must be finite and nonnegative"),
    "bound-nan-lipschitz": (lambda: BoundInputs(lipschitz=float("nan")),
                            "lipschitz must be finite and nonnegative"),
    "bound-negative-map-error": (lambda: BoundInputs(lipschitz=0.5, map_error=-1.0),
                                 "map_error and drift must be nonnegative"),
    "bound-negative-delay": (lambda: BoundInputs(lipschitz=0.5, max_delay=-1),
                             "max_delay and max_stale must be nonnegative"),
    "bound-zero-dim": (lambda: BoundInputs(lipschitz=0.5, dim=0), "dim must be positive"),
    "box-inverted": (lambda: fp.Domain.box([1.0], [0.0]), "box requires lo <= hi componentwise"),
    "ball-zero-radius": (lambda: fp.Domain.ball([0.0], 0.0), "ball radius must be positive"),
    "domain-unknown-kind": (lambda: fp.Domain("cube", 2), "unknown domain kind 'cube'"),
    "domain-zero-dim": (lambda: fp.Domain("all", 0), "dimension must be positive"),
    "norm-unknown": (lambda: fp.Norm("l1"), "unknown norm kind 'l1'"),
    "drift-unknown-kind": (lambda: DriftPath("spiral", 2), "unknown drift kind 'spiral'; use one"),
    "drift-negative-rate": (lambda: DriftPath("linear", 2, rate=-0.1),
                            "drift rate must be nonnegative"),
    "drift-zero-direction": (lambda: DriftPath("linear", 2, direction=[0.0, 0.0]),
                             "drift direction must be nonzero"),
    "drift-piecewise-no-fast-rate": (lambda: DriftPath("piecewise", 2, fast_window=(2, 5)),
                                     "piecewise drift needs fast_rate and fast_window"),
    "family-callable-factor-no-sup": (
        lambda: fp.MapFamily(1, fp.Domain.all_space(1), lambda x, t: 0.5 * x,
                             lambda t: np.full(np.shape(t), 0.5)),
        "lipschitz_sup is required when the declared factor varies with t"),
    "inexact-negative-bound": (lambda: fp.InexactMapFamily(unit_box_family(), lambda x, t: x, -1.0),
                               "error bound must be nonnegative"),
    "lipschitz-no-pairs": (lambda: fp.estimate_lipschitz(unit_box_family(), 1, sampler(), 0,
                                                         fp.Norm()),
                           "need at least one pair"),
    "self-map-no-samples": (lambda: fp.verify_self_map(unit_box_family(), 1, sampler(), 0),
                            "need at least one sample"),
    "qp-negative-regularization": (lambda: one_device(regularization=-0.1),
                                   "regularization must be nonnegative"),
    "gradient-zero-step": (lambda: build_gradient_map(one_device(), 0.0),
                           "step size must be positive"),
    "feedback-zero-step": (lambda: build_feedback_gradient_map(one_device(), 0.0, 0.1, seed=0),
                           "step size must be positive"),
    "feedback-negative-noise": (lambda: build_feedback_gradient_map(one_device(), 0.2, -0.1, seed=0),
                                "noise bound must be nonnegative"),
    "broadcast-zero-step": (lambda: build_broadcast_system(one_device(), 0.0, 0.1, seed=0),
                            "step size must be positive"),
    "broadcast-negative-noise": (lambda: build_broadcast_system(one_device(), 0.2, -0.1, seed=0),
                                 "noise bound must be nonnegative"),
    "broadcast-zero-scale": (lambda: build_broadcast_system(one_device(), 0.2, 0.1, seed=0,
                                                            agg_scale=0.0),
                             "aggregator scale must be positive"),
    "network-negative-limit": (lambda: PowerNetwork(1, 1.0, [(0, 1, 0.1j)], [-1.0]),
                               "injection limits must be nonnegative"),
    "network-invalid-bus": (lambda: PowerNetwork(1, 1.0, [(0, 2, 0.1j)], [1.0]),
                            "line (0, 2) references invalid buses"),
    "network-zero-impedance": (lambda: PowerNetwork(1, 1.0, [(0, 1, 0.0)], [1.0]),
                               "line impedance must be nonzero"),
    "network-singular": (lambda: PowerNetwork(2, 1.0, [(0, 1, 0.1j)], [1.0, 1.0]),
                         "load-bus admittance matrix is singular"),
    "affine-unknown-coupling": (lambda: build_affine_family(2, fp.Norm(), 0.5,
                                                            DriftPath("linear", 2), seed=0,
                                                            coupling="ring"),
                                "unknown coupling 'ring'; use one"),
}


@pytest.mark.parametrize("call,message", PRECONDITIONS.values(), ids=PRECONDITIONS.keys())
def test_a_precondition_refuses_with_its_message(call, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        call()
