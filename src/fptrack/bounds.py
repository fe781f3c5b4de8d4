"""Closed-form tracking-error guarantees and the delayed-recursion verifier.

All functions are pure. Finite-horizon runs operationalize "limsup" as the
maximum over a trailing window of the horizon after a transient, which is the
convention used by the certificate checks in :mod:`fptrack.experiments`.

Naming: ``lipschitz`` is the contraction factor of the map family,
``map_error`` the uniform bound on the approximate map's deviation, ``drift``
the per-step movement of the fixed-point trajectory, ``max_delay`` the
worst-case staleness of a communicated block (in ticks), and ``max_stale``
the largest number of simultaneously outdated neighbor blocks at any agent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _integer
from .errors import LengthMismatchError, PreconditionError
from .norms import L2, Norm


@dataclass(frozen=True)
class BoundInputs:
    """Everything the asymptotic tracking bounds depend on."""

    lipschitz: float
    map_error: float = 0.0
    drift: float = 0.0
    max_delay: int = 0
    max_stale: int = 0
    dim: int = 1
    norm: Norm = Norm(L2)

    def __post_init__(self):
        for name in ("max_delay", "max_stale", "dim"):
            _integer(getattr(self, name), name)
        if not math.isfinite(self.lipschitz) or self.lipschitz < 0.0:
            raise PreconditionError("lipschitz must be finite and nonnegative")
        if self.map_error < 0.0 or self.drift < 0.0:
            raise PreconditionError("map_error and drift must be nonnegative")
        if self.max_delay < 0 or self.max_stale < 0:
            raise PreconditionError("max_delay and max_stale must be nonnegative")
        if self.dim < 1:
            raise PreconditionError("dim must be positive")
        if self.max_stale > self.dim - 1:
            raise PreconditionError(
                f"max_stale must lie in [0, dim-1]; got {self.max_stale} with dim {self.dim}"
            )


def per_step_bound_series(initial_error, map_error_series, drift_series,
                          lipschitz_series, t) -> np.ndarray:
    """Per-step bounds after 0..t online steps: entry k bounds the error at time k+1.

    Unrolls the error recursion ``b(next) = L(t) * b + map_error(t) + drift(t)``
    from ``b = initial_error``. Series are indexed so that element k refers to
    step k+1 and must cover steps 1..t.
    """
    t = _integer(t, "t")
    if t < 0:
        raise PreconditionError("t must be nonnegative")
    e = np.asarray(map_error_series, dtype=float)
    s = np.asarray(drift_series, dtype=float)
    L = np.asarray(lipschitz_series, dtype=float)
    if len(e) < t or len(s) < t or len(L) < t:
        raise LengthMismatchError(
            f"series must cover steps 1..{t}; got lengths {len(e)}, {len(s)}, {len(L)}"
        )
    # Python floats round as float64 scalars do, at a fraction of their per-operation
    # cost; a memoryview yields them one at a time, where .tolist() would hold them all
    b = float(initial_error)
    out = [b]
    for L_k, e_k, s_k in zip(memoryview(L[:t]), memoryview(e[:t]), memoryview(s[:t])):
        b = L_k * b + e_k + s_k
        out.append(b)
    return np.array(out)


def _steady_state(inputs: BoundInputs, eff: float, delay, label: str) -> float:
    """``(map_error + drift * (1 + eff * delay)) / (1 - eff)``, the steady-state
    bound of every tracking iteration here, for an effective factor below 1."""
    if eff >= 1.0:
        raise PreconditionError(
            f"{label}: effective contraction factor {eff:.6g} is >= 1, bound undefined"
        )
    return (inputs.map_error + inputs.drift * (1.0 + eff * delay)) / (1.0 - eff)


def tracking_bound_sync(inputs: BoundInputs) -> float:
    """Steady-state tracking error of the synchronous online iteration.

    ``(map_error + drift) / (1 - lipschitz)``; valid in the norm the family
    contracts in.
    """
    return _steady_state(inputs, inputs.lipschitz, 0, "synchronous bound")


def tracking_bound_async_inf(inputs: BoundInputs) -> float:
    """Steady-state bound for asynchronous updates under the max norm.

    ``(map_error + drift * (1 + L * max_delay)) / (1 - L)``. Requires the
    family to contract in the max norm; staleness inflates only the drift
    term because outdated copies lag the moving fixed point.
    """
    if not inputs.norm.is_linf:
        raise PreconditionError("asynchronous max-norm bound requires the linf norm")
    return _steady_state(inputs, inputs.lipschitz, inputs.max_delay,
                         "asynchronous max-norm bound")


def tracking_bound_async_l2_equiv(inputs: BoundInputs) -> float:
    """Asynchronous bound for l2 contractions via norm equivalence.

    An l2 contraction with factor L is a max-norm contraction with factor
    ``L * sqrt(dim)`` when that is below 1, so the max-norm bound applies with
    the inflated factor. Fails when ``L * sqrt(dim) >= 1``.
    """
    if not inputs.norm.is_l2:
        raise PreconditionError("norm-equivalence bound requires the l2 norm")
    return _steady_state(inputs, inputs.lipschitz * math.sqrt(inputs.dim), inputs.max_delay,
                         "norm-equivalence bound (lipschitz * sqrt(dim))")


def tracking_bound_async_l2_refined(inputs: BoundInputs) -> float:
    """Refined asynchronous l2 bound using the stale-neighbor count.

    Only ``max_stale`` neighbor blocks can be outdated at once, so the
    effective factor is ``L * sqrt(max_stale + 1)`` instead of
    ``L * sqrt(dim)``; never worse than the norm-equivalence bound when both
    apply. Requires ``L * sqrt(max_stale + 1) < 1`` (strictly).
    """
    if not inputs.norm.is_l2:
        raise PreconditionError("refined asynchronous bound requires the l2 norm")
    return _steady_state(inputs, inputs.lipschitz * math.sqrt(inputs.max_stale + 1.0),
                         inputs.max_delay, "refined bound (lipschitz * sqrt(max_stale + 1))")


# ---------------------------------------------------------------------------
# Step-size windows for regularized projected gradient maps
# ---------------------------------------------------------------------------


def min_regularization(smoothness, max_stale) -> float:
    """Smallest regularization weight that leaves the step-size window open.

    ``(sqrt(max_stale + 1) - 1) / 2 * smoothness``; zero when no blocks are
    ever stale, so any positive regularization works in that case.
    """
    if smoothness <= 0.0:
        raise PreconditionError("smoothness must be positive")
    max_stale = _integer(max_stale, "max_stale")
    if max_stale < 0:
        raise PreconditionError("max_stale must be nonnegative")
    return 0.5 * (math.sqrt(max_stale + 1.0) - 1.0) * float(smoothness)


def stale_contraction_threshold(max_stale) -> float:
    """Contraction factor a map must beat for the refined bound: 1/sqrt(max_stale+1)."""
    max_stale = _integer(max_stale, "max_stale")
    if max_stale < 0:
        raise PreconditionError("max_stale must be nonnegative")
    return 1.0 / math.sqrt(max_stale + 1.0)


def gradient_step_window(smoothness, regularization, max_stale):
    """Step sizes for which the regularized gradient map beats the stale threshold.

    Returns ``(lo, hi)`` with
    ``lo = (1/reg) * (1 - 1/sqrt(max_stale+1))`` and
    ``hi = (1/(smoothness+reg)) * (1 + 1/sqrt(max_stale+1))``,
    or ``None`` when ``lo > hi`` (empty window). The window is nonempty
    exactly when the regularization reaches :func:`min_regularization`.
    """
    if smoothness <= 0.0 or regularization <= 0.0:
        raise PreconditionError("smoothness and regularization must be positive")
    max_stale = _integer(max_stale, "max_stale")
    if max_stale < 0:
        raise PreconditionError("max_stale must be nonnegative")
    inv_root = 1.0 / math.sqrt(max_stale + 1.0)
    lo = (1.0 - inv_root) / float(regularization)
    hi = (1.0 + inv_root) / (float(smoothness) + float(regularization))
    if lo > hi:
        return None
    return (lo, hi)


def projected_gradient_contraction(step_size, smoothness, regularization) -> float:
    """Contraction factor of a projected regularized gradient map.

    For a convex objective with gradient-smoothness ``smoothness`` and a
    quadratic regularizer of weight ``regularization``, the projected step
    map has factor ``max(|1 - a*reg|, |1 - a*(smoothness+reg)|)`` at step
    size a; projection cannot increase it.
    """
    if step_size <= 0.0:
        raise PreconditionError("step size must be positive")
    a = float(step_size)
    return max(abs(1.0 - a * regularization), abs(1.0 - a * (smoothness + regularization)))


# ---------------------------------------------------------------------------
# Delayed geometric recursion (numeric verifier)
# ---------------------------------------------------------------------------


@dataclass
class DelayedRecursionResult:
    empirical_limsup: float
    bound: float
    passed: bool
    horizon: int


def delayed_recursion_check(offset, decay, max_lag, lag_schedule, horizon,
                            initial=None, tail_fraction=0.1, slack=1e-9) -> DelayedRecursionResult:
    """Simulate ``a(t) = offset + decay * a(t - lag(t))`` and test its tail.

    ``lag_schedule`` is a nonempty sequence of lags in 1..max_lag, repeated
    cyclically from ``t = max_lag + 1`` on; the first ``max_lag`` values of
    the sequence are given by ``initial`` (defaulting to the equilibrium
    value ``offset / (1 - decay)``). Passes when the maximum over the
    trailing window does not exceed ``offset / (1 - decay) + slack``.
    """
    if not (0.0 < decay < 1.0):
        raise PreconditionError("decay must lie strictly between 0 and 1")
    if offset < 0.0:
        raise PreconditionError("offset must be nonnegative")
    max_lag = _integer(max_lag, "max_lag")
    horizon = _integer(horizon, "horizon")
    if max_lag < 1 or horizon <= max_lag:
        raise PreconditionError("need max_lag >= 1 and horizon > max_lag")
    bound = offset / (1.0 - decay)
    if initial is None:
        initial = [bound] * max_lag
    elif len(initial) != max_lag:
        raise LengthMismatchError(f"initial must have length max_lag={max_lag}")
    lags = np.asarray(lag_schedule)
    if lags.ndim != 1 or not len(lags):
        raise PreconditionError("lag_schedule must be a nonempty sequence of lags")
    if lags.dtype.kind not in "iu":
        raise PreconditionError(f"lags must be integers; got entries of type {lags.dtype}")
    lag = np.resize(lags, horizon - max_lag)  # the lag at t = max_lag + 1 .. horizon
    bad = (lag < 1) | (lag > max_lag)
    if bad.any():
        k = int(bad.argmax())
        raise PreconditionError(f"lag {lag[k]} at t={max_lag + 1 + k} outside 1..{max_lag}")
    offset, decay = float(offset), float(decay)
    a = [0.0, *np.asarray(initial, dtype=float).tolist()]  # a[1..horizon]; a[0] unused
    for t, lag_t in enumerate(lag.tolist(), start=max_lag + 1):
        a.append(offset + decay * a[t - lag_t])
    start = max(max_lag + 1, int(np.floor(horizon * (1.0 - tail_fraction))))
    tail_max = max(a[start:])
    return DelayedRecursionResult(tail_max, bound, tail_max <= bound + slack, horizon)
