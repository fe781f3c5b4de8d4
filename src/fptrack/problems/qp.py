"""Box-constrained time-varying quadratic tracking problems.

The model: devices i = 1..N choose x_i in [lo_i, hi_i] to trade off quadratic
device costs (curvature a_i) against tracking a reference r(t) with the
measurable aggregate y(t) = c'x + w(t), weighted by ``tracking_weight``, plus
an optional quadratic regularizer. The projected gradient step for this
objective is a contraction whose factor follows from the extremal curvature
of the (constant) Hessian diag(a) + weight * c c' + reg * I.

The feedback variant replaces the modeled aggregate with a measurement of it,
turning the map family into an inexact one with a computable error bound.
Both maps are one step expression over signal values (:class:`GradientStep`),
so the online runs of one instance advance as the rows of one call.
The broadcast decomposition introduces one extra scalar block holding the
(scaled) measured aggregate, giving the star dependency structure used by the
asynchronous experiments.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from ..async_sim import DependencyGraph
from ..core import InexactMapFamily, MapFamily, SeriesTable, seeded_stream
from ..domains import Domain, box_width, clip
from ..errors import ContractionUncertifiedError, PreconditionError, _integer
from ..norms import L2, Norm
from ._paths import scalar_signal


@dataclass
class TimeVaryingQP:
    """Instance data for the box-constrained quadratic tracking problem."""

    curvature: np.ndarray          # a_i > 0, one per device
    coupling: np.ndarray           # c, the aggregate's sensitivity to each device
    tracking_weight: float         # > 0
    regularization: float          # >= 0
    box_lo: np.ndarray
    box_hi: np.ndarray
    output_signal: SeriesTable     # w(t), exogenous part of the aggregate; at(t) reads it
    reference_signal: SeriesTable  # r(t), the reference; at(t) reads it
    smoothness: float = field(init=False)
    weighted_coupling: np.ndarray = field(init=False)  # tracking_weight * coupling

    def __post_init__(self):
        self.curvature = np.asarray(self.curvature, dtype=float)
        self.coupling = np.asarray(self.coupling, dtype=float).reshape(self.curvature.shape)
        self.box_lo = np.asarray(self.box_lo, dtype=float).reshape(self.curvature.shape)
        self.box_hi = np.asarray(self.box_hi, dtype=float).reshape(self.curvature.shape)
        if (self.curvature <= 0.0).any():
            raise PreconditionError("device curvatures must be positive")
        if self.tracking_weight <= 0.0:
            raise PreconditionError("tracking weight must be positive")
        if self.regularization < 0.0:
            raise PreconditionError("regularization must be nonnegative")
        if (self.box_lo >= self.box_hi).any():
            raise PreconditionError("boxes must have nonempty interior (lo < hi strictly)")
        # Bounds over the box, where |x_i| <= m_i, on the l2 norm of a state
        # (numpy sums its squares) and on the gradient's terms, signals aside:
        # past the largest float the maps, audits and errors would run on inf
        # clipped back into the box.
        m = np.maximum(np.abs(self.box_lo), np.abs(self.box_hi))
        with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf is nan: refused too
            # `w * c * g` is `(w * c) * g`, so the maps multiply by this product
            self.weighted_coupling = self.tracking_weight * self.coupling
            squares = m @ m
            finite = np.isfinite((self.curvature + self.regularization) * m
                                 + np.abs(self.weighted_coupling) * (np.abs(self.coupling) @ m))
        if not math.isfinite(squares):
            box_width(self.box_lo, self.box_hi)  # a side too wide to sample is named first
            raise PreconditionError("the l2 norm of a state in the box can exceed the largest float")
        if not finite.all():
            i = finite.argmin()
            raise PreconditionError(
                f"the objective gradient at device {i} can exceed the largest float over the "
                f"box (side [{self.box_lo[i]:g}, {self.box_hi[i]:g}])")
        # exact largest eigenvalue of diag(a) + weight * c c' (rank-one update)
        h = np.diag(self.curvature) + self.tracking_weight * np.outer(self.coupling, self.coupling)
        self.smoothness = float(np.linalg.eigvalsh(h)[-1])

    @property
    def n_devices(self) -> int:
        return self.curvature.size

    def gradient(self, x, t) -> np.ndarray:
        """Objective gradient at a state ``x`` of shape (n,), or at each row of (k, n)
        at one time ``t`` or at the times of an int array ``t`` of length k."""
        return self._gradient(x, self.output_signal.at(t), self.reference_signal.at(t))

    def _gradient(self, x, w, r) -> np.ndarray:
        """Objective gradient at ``x`` for the output and reference values ``w`` and
        ``r``: scalars, or one value per row of ``x``."""
        y = np.einsum("...j,j->...", x, self.coupling) + w
        return (self.curvature * x + self.weighted_coupling * (y - r)[..., None]
                + self.regularization * x)

    def with_signals(self, output_signal, reference_signal) -> "TimeVaryingQP":
        """This instance with other signals. The copy shares the instance data and
        what ``__post_init__`` derived from it, without building them again."""
        qp = copy.copy(self)
        qp.output_signal, qp.reference_signal = output_signal, reference_signal
        return qp

    def same_instance(self, other) -> bool:
        """Whether ``other`` holds this instance's data bit for bit; signals may differ."""
        fields = ("curvature", "coupling", "tracking_weight", "regularization", "box_lo", "box_hi")
        return all(np.asarray(getattr(self, k)).tobytes() == np.asarray(getattr(other, k)).tobytes()
                   for k in fields)


def random_qp(n_devices, seed) -> TimeVaryingQP:
    """A seeded random instance with constant signals (used for window sweeps)."""
    n = _integer(n_devices, "device count")
    if n < 1:
        raise PreconditionError(f"device count must be at least 1; got {n}")
    rng = seeded_stream(seed, 411)
    a = rng.uniform(0.5, 3.0, size=n)
    c = rng.uniform(-1.0, 1.0, size=n)
    if np.all(c == 0.0):
        c[0] = 1.0
    reg = float(rng.uniform(0.05, 1.5))
    half = rng.uniform(0.5, 2.0, size=n)
    return TimeVaryingQP(
        curvature=a,
        coupling=c,
        tracking_weight=float(rng.uniform(0.2, 2.0)),
        regularization=reg,
        box_lo=-half,
        box_hi=half,
        output_signal=scalar_signal("constant", start=float(rng.uniform(-1, 1))),
        reference_signal=scalar_signal("constant", start=float(rng.uniform(-1, 1))),
    )


def _aggregate_noise(nb, seed, key, adversarial) -> SeriesTable:
    """The noise of the measured aggregate, one column: uniform on [-nb, nb],
    drawn in blocks from the one stream ``(seed, key)``, or nb when
    adversarial or nb is 0, which reads no stream. ``at(t)`` is a ``(1,)``
    row for an int t and a column for an int array of times."""
    if adversarial or nb == 0.0:
        return SeriesTable(lambda ts, last: np.full((len(ts), 1), nb))
    return SeriesTable(lambda ts, last, rng: rng.uniform(-nb, nb, size=(len(ts), 1)), (seed, key))


def _step(qp, x, a, w, r, noise=None):
    """The projected gradient step ``clip(x - a g, lo, hi)`` of ``qp`` at the output
    and reference values ``w`` and ``r``. ``g`` is the objective gradient, plus
    ``weight * c * noise`` when a ``noise`` is given. One run gives a point or
    rows, a scalar ``a`` and the values at its time or times; stacked runs
    give one row each, ``a`` and ``noise`` as columns and ``w`` and ``r`` as
    one value per row."""
    g = qp._gradient(x, w, r)
    if noise is not None:
        g += qp.weighted_coupling * noise
    return clip(x - a * g, qp.box_lo, qp.box_hi)


@dataclass(frozen=True, eq=False)
class GradientStep:
    """The map of :func:`build_gradient_map` (no ``noise``) or of
    :func:`build_feedback_gradient_map` (``noise`` the measured aggregate's
    :class:`SeriesTable`), and the family's ``lockstep`` step: the runs of
    one instance and one kind, all exact or all measured, stack."""

    qp: TimeVaryingQP
    step_size: float
    noise: SeriesTable | None = None

    def __call__(self, x, t):
        noise = None if self.noise is None else self.noise.at(t)
        return _step(self.qp, x, self.step_size, self.qp.output_signal.at(t),
                     self.qp.reference_signal.at(t), noise)

    def stack(self, steps, horizon):
        """One step for the runs of ``steps`` at t = 1..horizon-1, or None unless
        each is a :class:`GradientStep` of this instance with noise exactly when
        this one has it; a mixed list's runs make their own point calls."""
        exact = self.noise is None
        if all(isinstance(s, GradientStep) and s.qp.same_instance(self.qp)
               and (s.noise is None) == exact for s in steps):
            return _StackedSteps(steps, horizon)
        return None


class _StackedSteps:
    """Gradient steps of one instance, one run per row: each run's step size,
    signal values and noise are read from its own tables, and either every
    run has noise or none does.

    ``step(x, t)`` is the lockstep's call: row r of ``x`` is run r, all at
    the int time ``t``. ``step(x, t, runs)`` takes one (run, time) per row:
    row i is run ``runs[i]`` at time ``t[i]``, two int arrays (a stacked
    reference solve). Either way a row is its run's point call at its time,
    bit for bit.
    """

    def __init__(self, steps, horizon):
        self.qp = steps[0].qp
        self.step_size = np.array([[s.step_size] for s in steps], dtype=float)
        self.output = np.stack([s.qp.output_signal.rows(1, horizon) for s in steps], axis=1)
        self.reference = np.stack([s.qp.reference_signal.rows(1, horizon) for s in steps], axis=1)
        self.noise = (None if steps[0].noise is None
                      else np.stack([s.noise.rows(1, horizon) for s in steps], axis=1))

    def __call__(self, x, t, runs=slice(None)):
        """The next row of every run at ``t``, or of run ``runs[i]`` at ``t[i]`` in row i."""
        noise = None if self.noise is None else self.noise[t - 1, runs]
        return _step(self.qp, x, self.step_size[runs], self.output[t - 1, runs],
                     self.reference[t - 1, runs], noise)


def build_gradient_map(qp: TimeVaryingQP, step_size) -> MapFamily:
    """Exact projected gradient map; declared factor from extremal curvature.

    The declared factor is ``max(|1 - a*lo|, |1 - a*hi|)`` with ``lo`` the
    regularization plus the smallest device curvature and ``hi`` the
    regularization plus the smoothness of the unregularized objective; both
    are eigenvalue bounds of the constant Hessian, so the sampled factor
    never exceeds the declaration.
    """
    a = float(step_size)
    if a <= 0.0:
        raise PreconditionError("step size must be positive")
    lo_curv = qp.regularization + float(qp.curvature.min())
    hi_curv = qp.regularization + qp.smoothness
    declared = max(abs(1.0 - a * lo_curv), abs(1.0 - a * hi_curv))
    step = GradientStep(qp, a)
    family = MapFamily(
        dim=qp.n_devices,
        domain=Domain.box(qp.box_lo, qp.box_hi),
        evaluate=step,
        lipschitz=declared,
        declared_norm=Norm(L2),
        name=f"qp-gradient-n{qp.n_devices}",
    )
    family.lockstep = step
    return family


def build_feedback_gradient_map(qp: TimeVaryingQP, step_size, noise_bound, seed,
                                norm: Norm | None = None, adversarial=False) -> InexactMapFamily:
    """Gradient map driven by a measured aggregate instead of the model.

    The measurement at step t is ``y + noise(t)`` with ``|noise| <=
    noise_bound``; since the projection is nonexpansive the map deviates from
    the exact one by at most ``step * weight * ||c|| * noise_bound`` (norm of
    the coupling taken in the experiment norm), which is the declared error
    bound.
    """
    norm = norm if norm is not None else Norm(L2)
    base = build_gradient_map(qp, step_size)
    nb = float(noise_bound)
    if nb < 0.0:
        raise PreconditionError("noise bound must be nonnegative")
    a = float(step_size)
    step = GradientStep(qp, a, _aggregate_noise(nb, seed, 3, adversarial))
    bound = a * qp.tracking_weight * norm.of(qp.coupling) * nb
    family = InexactMapFamily(base, step, bound, name=f"qp-feedback-n{qp.n_devices}")
    family.lockstep = step
    return family


def star_partition(qp: TimeVaryingQP) -> DependencyGraph:
    """Star dependency structure: devices exchange only with an aggregator.

    Blocks are the N scalar device variables plus one aggregator block
    holding the broadcast measured aggregate; each device reads the
    aggregator and the aggregator reads every device.
    """
    n = qp.n_devices
    edges = [(n, i) for i in range(n)] + [(i, n) for i in range(n)]
    return DependencyGraph([1] * (n + 1), edges)


def build_broadcast_system(qp: TimeVaryingQP, step_size, noise_bound, seed,
                           agg_scale=None, adversarial=False):
    """Device/aggregator decomposition of the feedback gradient iteration.

    State: ``z = (x_1..x_N, m)`` where ``m`` stores the measured aggregate
    scaled by ``agg_scale`` (default ``sqrt(step * weight)``, which balances
    the two off-diagonal coupling blocks and keeps the joint map contractive
    for reasonable instances). Devices step using the aggregator's latest
    broadcast; the aggregator re-measures from the device values it has
    received. Measurement noise is bounded by ``noise_bound``, giving the
    error bound ``agg_scale * noise_bound`` on the joint state.

    Returns ``(family, graph)`` with ``graph = star_partition(qp)``.
    """
    n = qp.n_devices
    a = float(step_size)
    if a <= 0.0:
        raise PreconditionError("step size must be positive")
    nb = float(noise_bound)
    if nb < 0.0:
        raise PreconditionError("noise bound must be nonnegative")
    theta = float(agg_scale) if agg_scale is not None else float(np.sqrt(a * qp.tracking_weight))
    if theta <= 0.0:
        raise PreconditionError("aggregator scale must be positive")
    # Lipschitz certificate: spectral norm of the joint linear part; the box
    # projection on the device blocks cannot increase it.
    diagonal = qp.curvature + qp.regularization
    jac = np.zeros((n + 1, n + 1))
    jac[:n, :n] = np.diag(1.0 - a * diagonal)
    jac[:n, n] = -a * qp.tracking_weight * qp.coupling / theta
    jac[n, :n] = theta * qp.coupling
    declared = float(np.linalg.norm(jac, ord=2))
    if declared >= 1.0:
        raise ContractionUncertifiedError(
            f"broadcast system is not certified contractive (factor {declared:.4f} >= 1); "
            "reduce the step size, coupling, or tracking weight"
        )

    def base_evaluate(z, t):
        x, y = z[..., :n], z[..., n] / theta
        # one aggregate per state, as the signals have one value per time
        gap = (y - qp.reference_signal.at(t))[..., None]
        g = diagonal * x + qp.weighted_coupling * gap
        x_new = clip(x - a * g, qp.box_lo, qp.box_hi)
        y_new = np.einsum("...j,j->...", x, qp.coupling) + qp.output_signal.at(t)
        return np.concatenate([x_new, theta * y_new[..., None]], axis=-1)

    lo = np.concatenate([qp.box_lo, [-np.inf]])
    hi = np.concatenate([qp.box_hi, [np.inf]])
    base = MapFamily(
        dim=n + 1,
        domain=Domain.box(lo, hi),
        evaluate=base_evaluate,
        lipschitz=declared,
        declared_norm=Norm(L2),
        name=f"qp-broadcast-n{n}",
    )

    noise = _aggregate_noise(nb, seed, 5, adversarial)

    def evaluate(z, t):
        out = base_evaluate(z, t)
        out[..., n:] += theta * noise.at(t)
        return out

    family = InexactMapFamily(base, evaluate, theta * nb, name=f"qp-broadcast-feedback-n{n}")
    return family, star_partition(qp)
