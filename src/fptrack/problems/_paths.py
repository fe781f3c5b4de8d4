"""Drift processes: trajectories followed by fixed points or exogenous signals.

Four kinds cover the experiments: ``constant``, ``linear`` (constant-speed
ray), ``random_walk`` (seeded steps of exactly the stated size, so the
realized per-step drift equals the bound), and ``piecewise`` (a linear path
with one faster segment).
"""
from __future__ import annotations

import numpy as np

from ..core import SeriesTable, seeded_stream
from ..errors import PreconditionError
from ..norms import Norm

KINDS = ("constant", "linear", "random_walk", "piecewise")


def _times(t) -> np.ndarray:
    """An array of time indices as int64, each at least 1."""
    ts = np.asarray(t).reshape(-1)
    if ts.size and (ts.dtype.kind not in "iu" or ts.min() < 1):
        raise PreconditionError("time indices are integers starting at 1")
    return ts.astype(np.int64, copy=False)


class DriftPath:
    """A time-indexed point ``point(t)`` in R^dim, t = 1, 2, ...

    ``rate`` is the per-step movement measured in ``norm``; for ``piecewise``
    the speed switches to ``fast_rate`` on ``fast_window = (t_start, t_end)``
    (inclusive start, exclusive end). Random-walk steps are uniform random
    directions scaled to exactly ``rate``, so drift bounds are tight. They
    are drawn in blocks from the one stream ``(seed, 332)``, and the walk's
    points are a table (row k is ``point(k + 1)``) extended by a running
    sum from its last point.
    """

    def __init__(self, kind, dim, rate=0.0, seed=0, start=None, direction=None,
                 norm: Norm | None = None, fast_rate=None, fast_window=None):
        if kind not in KINDS:
            raise PreconditionError(f"unknown drift kind {kind!r}; use one of {KINDS}")
        self.kind = kind
        self.dim = int(dim)
        self.rate = float(rate)
        if self.rate < 0.0:
            raise PreconditionError("drift rate must be nonnegative")
        self.seed = int(seed)
        self.norm = norm if norm is not None else Norm()
        self.start = (
            np.asarray(start, dtype=float).reshape(self.dim)
            if start is not None
            else np.zeros(self.dim)
        )
        if direction is None:
            g = seeded_stream(self.seed, 331).standard_normal(self.dim)
            direction = g if np.linalg.norm(g) > 0 else np.ones(self.dim)
        direction = np.asarray(direction, dtype=float).reshape(self.dim)
        scale = self.norm.of(direction)
        if scale == 0.0:
            raise PreconditionError("drift direction must be nonzero")
        self._unit = direction / scale
        if kind == "piecewise":
            if fast_rate is None or fast_window is None:
                raise PreconditionError("piecewise drift needs fast_rate and fast_window")
            self.fast_rate = float(fast_rate)
            self.fast_window = (int(fast_window[0]), int(fast_window[1]))
        else:
            self.fast_rate, self.fast_window = None, None
        if kind == "random_walk":
            self._walk = SeriesTable(self._walk_rows, (self.seed, 332), first=self.start)

    def _speed(self, t) -> float:
        if self.kind == "piecewise" and self.fast_window[0] <= t < self.fast_window[1]:
            return self.fast_rate
        return self.rate

    def point(self, t) -> np.ndarray:
        """The point at time ``t``; for an int array of times, one row per time."""
        if isinstance(t, np.ndarray):
            return self._rows(_times(t))
        t = int(t)
        if t < 1:
            raise PreconditionError("time indices start at 1")
        if self.kind == "constant":
            return self.start.copy()
        if self.kind == "linear":
            return self.start + (t - 1) * self.rate * self._unit
        if self.kind == "piecewise":
            travelled = sum(self._speed(tau) for tau in range(1, t))
            return self.start + travelled * self._unit
        return self._walk.at(t).copy()

    def _rows(self, ts) -> np.ndarray:
        """``point`` at each time of ``ts``, bit for bit, as rows."""
        if self.kind == "constant":
            return np.tile(self.start, (len(ts), 1))
        if self.kind == "linear":
            return self.start + ((ts - 1) * self.rate)[:, None] * self._unit
        if self.kind == "piecewise":
            # sum() adds left to right from 0, as a running sum does
            speeds = [self._speed(tau) for tau in range(1, int(ts.max(initial=1)))]
            travelled = np.concatenate([[0.0], np.cumsum(speeds)])[ts - 1]
            return self.start + travelled[:, None] * self._unit
        return self._walk.at(ts)

    def _walk_rows(self, n, last, rng):
        """The next n points of the random walk after ``last``."""
        g = rng.standard_normal((n, self.dim))
        size = np.sqrt(np.einsum("ij,ij->i", g, g)) if self.norm.is_l2 else np.abs(g).max(axis=1)
        scale = np.divide(self.rate, size, out=np.zeros(n), where=size > 0)
        # cumsum adds left to right from `last`, as a running sum does
        return np.cumsum(np.vstack([last, scale[:, None] * g]), axis=0)[1:]

    def step_size(self, t) -> float:
        """Norm of point(t+1) - point(t); exact for every kind."""
        if self.kind == "constant":
            return 0.0
        if self.kind == "random_walk":
            return self.rate
        return self._speed(t)

    def max_step(self, horizon) -> float:
        """Largest per-step movement over t = 1..horizon-1."""
        if self.kind == "constant" or int(horizon) <= 1:
            return 0.0
        return max(self.step_size(t) for t in range(1, int(horizon)))


def scalar_signal(kind, rate=0.0, seed=0, start=0.0, norm=None, **kw) -> "ScalarSignal":
    return ScalarSignal(DriftPath(kind, 1, rate=rate, seed=seed, start=[float(start)],
                                  direction=[1.0] if kind in ("linear", "piecewise") else None,
                                  norm=norm, **kw))


class ScalarSignal:
    """Scalar view of a 1-d drift path (exogenous inputs, references)."""

    def __init__(self, path: DriftPath):
        if path.dim != 1:
            raise PreconditionError("scalar signals require a 1-d path")
        self.path = path

    def value(self, t):
        """The value at time ``t`` as a float; for an int array of times, an array."""
        if isinstance(t, np.ndarray):
            return self.path.point(t)[:, 0]
        return float(self.path.point(t)[0])
