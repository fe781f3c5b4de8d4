"""Drift processes: trajectories followed by fixed points or exogenous signals.

Four kinds cover the experiments: ``constant``, ``linear`` (constant-speed
ray), ``random_walk`` (seeded steps of exactly the stated size, so the
realized per-step drift equals the bound), and ``piecewise`` (a linear path
with one faster segment). A scalar signal (:func:`scalar_signal`) is the
:class:`~fptrack.core.SeriesTable` of a 1-d path's values.
"""
from __future__ import annotations

import numpy as np

from ..core import SeriesTable, seeded_stream
from ..errors import PreconditionError, _integer
from ..norms import Norm

KINDS = ("constant", "linear", "random_walk", "piecewise")


class DriftPath:
    """A time-indexed point ``point(t)`` in R^dim, t = 1, 2, ...

    ``rate`` is the per-step movement measured in ``norm``; for ``piecewise``
    the step from t to t + 1 has speed ``fast_rate`` for t in
    ``fast_window = (t_start, t_end)`` (inclusive start, exclusive end).
    The path is one :class:`~fptrack.core.SeriesTable`, row k for t = k + 1.
    For ``constant``, ``linear`` and ``piecewise`` it holds the distance
    travelled along the unit direction (a running sum of the speeds when
    piecewise), and the point is ``start + travelled * unit``. For
    ``random_walk`` it holds the points, a running sum of steps drawn in
    blocks from the one stream ``(seed, 332)``; each step is a uniform
    random direction scaled to exactly ``rate``, so drift bounds are tight.
    """

    def __init__(self, kind, dim, rate=0.0, seed=0, start=None, direction=None,
                 norm: Norm | None = None, fast_rate=None, fast_window=None):
        if kind not in KINDS:
            raise PreconditionError(f"unknown drift kind {kind!r}; use one of {KINDS}")
        self.kind = kind
        self.dim = _integer(dim, "dimension")
        self.rate = float(rate)
        if self.rate < 0.0:
            raise PreconditionError("drift rate must be nonnegative")
        self.seed = _integer(seed, "seed")
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
            self.fast_window = (_integer(fast_window[0], "fast window start"),
                                _integer(fast_window[1], "fast window end"))
        else:
            self.fast_rate, self.fast_window = None, None
        if kind == "random_walk":
            self._table = SeriesTable(self._walk_rows, (self.seed, 332), first=self.start)
        else:
            self._table = SeriesTable(self._travelled_rows, first=0.0)

    def point(self, t) -> np.ndarray:
        """The point at an int ``t >= 1``; for an int array of times, one row per time."""
        if self.kind == "random_walk":
            return self._table.at(t)
        return self.start + np.multiply.outer(self._table.at(t), self._unit)

    def _travelled_rows(self, ts, last):
        """The distances travelled by the times ``ts``, which follow ``last``'s."""
        if self.kind == "constant":
            return np.zeros(len(ts))
        if self.kind == "linear":
            return (ts - 1) * self.rate
        lo, hi = self.fast_window
        speeds = np.where((lo <= ts - 1) & (ts - 1 < hi), self.fast_rate, self.rate)
        # cumsum adds left to right from `last`, as a running sum does
        return np.cumsum(np.concatenate([[last], speeds]))[1:]

    def _walk_rows(self, ts, last, rng):
        """The random walk's points at the times ``ts``, which follow ``last``."""
        g = rng.standard_normal((len(ts), self.dim))
        size = np.sqrt(np.einsum("ij,ij->i", g, g)) if self.norm.is_l2 else np.abs(g).max(axis=1)
        scale = np.divide(self.rate, size, out=np.zeros(len(ts)), where=size > 0)
        # cumsum adds left to right from `last`, as a running sum does
        return np.cumsum(np.vstack([last, scale[:, None] * g]), axis=0)[1:]


def scalar_signal(kind, rate=0.0, seed=0, start=0.0, norm=None, **kw) -> SeriesTable:
    """A scalar signal (an exogenous input or a reference) as the
    :class:`~fptrack.core.SeriesTable` of a 1-d drift path's values: ``at(t)``
    is the value at an int ``t`` as a float, or an array for an int array of
    times. Every kind moves along +1, so no direction is drawn."""
    path = DriftPath(kind, 1, rate=rate, seed=seed, start=[float(start)], direction=[1.0],
                     norm=norm, **kw)
    return SeriesTable(lambda ts, last: path.point(ts)[:, 0])
