"""Map families, batch fixed-point solving, online tracking, assumption audits.

The central object is a :class:`MapFamily`: a time-indexed family of self-maps
``x -> f(x, t)`` on a declared domain, carrying declared per-step contraction
factors. Its one map takes a point or rows, at one time or one time per row.
An :class:`InexactMapFamily` is a map family with its exact base's
declarations whose evaluations deviate from the base map by at most a
constant ``error_sup``.

Time indices are 1-based throughout (``t = 1, 2, ...``); arrays are 0-based,
so ``points[k]`` corresponds to ``t = k + 1``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import Domain, DomainSampler
from .errors import (
    DomainViolationError,
    LengthMismatchError,
    NonConvergenceError,
    PreconditionError,
    _integer,
)
from .norms import L2, LINF, Norm


def seeded_stream(seed, *key) -> np.random.Generator:
    """Deterministic generator for a (seed, key...) tuple.

    Streams for distinct keys are independent, so draws do not depend on the
    order in which callers consume them. Each seeded series reads one stream,
    drawn in order, never one stream per time step: every series in t is a
    :class:`SeriesTable`, and a seeded one reads its streams through its
    table's fill. The package draws these streams:

    - ``(seed, 7, e)``: edge e's drop draws of an ``iid_drop`` channel;
    - ``(seed, 17)``: the random coupling of an affine family;
    - ``(seed, 55)``: the perturbations of the dependency audit's probes;
    - ``(seed, 101)``: the phases of a ``periodic`` channel's edges;
    - ``(seed, 411)``: a random QP instance;
    - ``(seed, 331)``: the direction of a drift path when none is given;
    - ``(seed, 332)``: the steps of a random-walk drift path;
    - ``(seed, 23)``: the angles of random-walk injections;
    - ``(seed, 3)`` and ``(seed, 5)``: the aggregate noise of the QP
      feedback map and of the QP broadcast system;
    - ``(seed, 29)``: the boundary-power noise of the multi-area load flow;
    - ``(seed, 61)`` and ``(seed, 62)``: the offsets of
      :func:`with_output_noise` (directions or box draws, then l2 radii).

    :class:`~fptrack.domains.DomainSampler` draws from ``SeedSequence([seed])``.
    """
    parts = [_integer(seed, "seed")] + [_integer(k, "stream key") for k in key]
    return np.random.default_rng(np.random.SeedSequence(parts))


class SeriesTable:
    """One time series as a row table: row k is the value at t = k + 1.

    ``fill(ts, last, *streams)`` returns the rows for the int array ``ts``
    of the times it adds, given the last row so far (``first``, or None
    before any row). A seeded fill reads one stream ``seeded_stream(*key)``
    per key, opened on first use, and consumes each in order, the same
    number of draws per row; a fill without keys computes its rows from
    ``ts``. The table grows geometrically, so a row depends neither on the
    block sizes nor on the order of requests, and points and rows read the
    same table. The table is read-only: a row read at an int ``t``, and the
    rows of :meth:`rows`, are views of it.
    """

    FIRST_BLOCK = 64

    def __init__(self, fill, *keys, first=None):
        self._fill = fill
        self._keys = keys
        self._streams = None
        self._rows = np.empty(0) if first is None else np.array(first)[None]

    def at(self, t):
        """The row for an int ``t >= 1``; for an int array of times, one row per time."""
        if type(t) is int:  # the common read, without the array checks (a bool is no int here)
            lo = hi = t
        else:
            ts = np.asarray(t)
            if ts.dtype.kind not in "iu":
                raise PreconditionError("time indices are integers starting at 1")
            # one time is compared as it is: two reductions would cost microseconds per read
            lo, hi = (ts.min(initial=1), ts.max(initial=1)) if ts.ndim else (t, t)
        if lo < 1:
            raise PreconditionError("time indices are integers starting at 1")
        have = len(self._rows)
        if hi > have:
            self._grow(int(hi))
        return self._rows[t - 1]

    def rows(self, start, stop):
        """The rows of the int times ``start, ..., stop - 1``, one view of the table."""
        if not 1 <= start < stop:
            raise PreconditionError(f"rows need times 1 <= start < stop; got {start} and {stop}")
        if stop - 1 > len(self._rows):
            self._grow(stop - 1)
        return self._rows[start - 1:stop - 1]

    def _grow(self, hi):
        """Fill the rows up to at least ``hi``. Rows past ``hi`` may never be read,
        so they are computed without numpy's overflow and invalid-value warnings;
        a reader checks the values it reads."""
        have = len(self._rows)
        if self._streams is None:
            self._streams = [seeded_stream(*key) for key in self._keys]
        with np.errstate(over="ignore", invalid="ignore"):
            new = self._fill(np.arange(have + 1, max(hi, 2 * have, self.FIRST_BLOCK) + 1),
                             self._rows[-1] if have else None, *self._streams)
        self._rows = np.concatenate([self._rows, new]) if have else new
        self._rows.flags.writeable = False


class MapFamily:
    """Time-indexed family of self-maps on a declared domain.

    Every family has ``base``, the exact family its evaluations stand for,
    and ``error_sup``, a constant bound on how far each evaluation may lie
    from ``base``'s. An exact family is its own base, with ``error_sup``
    0; an :class:`InexactMapFamily` has a base of its own. A family declares
    no agent decomposition: an asynchronous run's agents and their blocks
    are its :class:`~fptrack.async_sim.DependencyGraph`.

    An asynchronous tick calls the same map, for every family: one
    ``evaluate`` rows call and one flat take of each column from its owner's
    row. A family whose map is a sum of taps plus an offset,
    x -> sum_p coef[i, p] x[nbr[i, p]] + b(t), sets ``nbr`` and ``coef``,
    its ``(dim, P)`` tap columns and coefficients, and ``offset``, the
    :class:`SeriesTable` of b(t); its rows must equal that sum bit for bit.
    Its asynchronous run then computes each tick in the run's tap kernel:
    one gather of the entries the taps read, one ``einsum("ip,ip->i")`` with
    ``coef`` and one add of b(t) (:class:`~fptrack.problems.AffineFamily`:
    3 taps per row on a chain, not a row of 48 per stale agent). For sparse
    taps that sum is the family's ``evaluate`` by construction; a dense A
    keeps the matrix product, which tests pin to the sum bit for bit.

    The online runs of several families can advance in lockstep
    (:func:`run_lockstep_tracker`), one call per time for all of them. A
    family whose map can take the other runs as rows of one call sets
    ``lockstep``, an object whose ``stack(steps, horizon)`` takes the
    ``lockstep`` of every run and returns ``step(x, t)``: the next iterate
    of every run from its row of ``x``, the row of run r equal to run r's
    point call bit for bit. ``step(x, t, runs)`` takes one run and time per
    row instead, two int arrays, and row i is run ``runs[i]``'s point call
    at ``t[i]``: the references of runs that stack are one batched solve
    (:func:`compute_fixed_point_series` of a list). ``stack`` returns None
    for runs that cannot share one call, and each run then makes its own
    point calls and its own solve; runs that stack share one domain.
    (:func:`~fptrack.problems.build_gradient_map` and
    :func:`~fptrack.problems.build_feedback_gradient_map` stack the runs of
    one QP instance when all are exact or all are measured.)

    Parameters
    ----------
    dim : int
        State dimension m; the domain must have the same dimension.
    domain : Domain
        Set the maps are declared to preserve.
    evaluate : callable
        The map ``evaluate(x, t)``: ``x`` is a point ``(dim,)`` or rows
        ``(n, dim)``, ``t >= 1`` one int or an int array with one time per
        row. It returns the input's shape and must map the domain into
        itself for every t. Built-in maps give rows the bits of their point
        calls (``einsum`` sums, in one order for any row count); lift a map
        written for one point with :func:`pointwise`.
    lipschitz : float or callable
        Declared per-step contraction factor: a scalar, or a callable that
        takes an int t or an int array of times and returns one factor per
        time.
    lipschitz_sup : float, optional
        Supremum of the declared factors over the horizon of interest.
        Defaults to ``lipschitz`` when that is a scalar. Must be < 1.
    fixed_point : callable, optional
        Fixed points computed without iterating this map, when known:
        ``fixed_point(ts)`` for an int array ``ts`` of times returns one row
        per time, one ``(dim,)`` point that holds for every time, or None
        when it cannot supply them. The reference calls it once, with the
        times of the whole horizon, and checks the points it returns for
        shape, finiteness, domain and residual. Without it, or on None, the
        reference is one batched solve (:func:`compute_fixed_point_series`).
    declared_norm : Norm, optional
        Norm in which the contraction declaration holds (default l2). Bound
        certificates only apply when the experiment norm matches it.
    """

    nbr = None  # the (dim, P) tap columns of a family whose map is a sum of taps
    lockstep = None  # the step of a family whose runs stack into one call

    def __init__(
        self,
        dim,
        domain: Domain,
        evaluate,
        lipschitz,
        lipschitz_sup=None,
        fixed_point=None,
        declared_norm=None,
        name="map-family",
    ):
        self.dim = _integer(dim, "dimension")
        if domain.dim != self.dim:
            raise PreconditionError(
                f"domain has dimension {domain.dim}, the family {self.dim}"
            )
        self.domain = domain
        self._evaluate = evaluate
        if callable(lipschitz):
            self._lipschitz = lipschitz
            if lipschitz_sup is None:
                raise PreconditionError(
                    "lipschitz_sup is required when the declared factor varies with t"
                )
        else:
            const = float(lipschitz)
            self._lipschitz = lambda t, c=const: np.full(np.shape(t), c)
            if lipschitz_sup is None:
                lipschitz_sup = const
        self.lipschitz_sup = float(lipschitz_sup)
        if not (0.0 <= self.lipschitz_sup < 1.0):
            raise PreconditionError(
                f"declared contraction supremum must lie in [0, 1); got {self.lipschitz_sup}"
            )
        self.declared_norm = declared_norm if declared_norm is not None else Norm(L2)
        self.fixed_point = fixed_point
        self.name = name
        self.base = self
        self.error_sup = 0.0

    def evaluate(self, x, t) -> np.ndarray:
        """The map at a point or at each row of ``x``, at one int ``t`` or one time per row."""
        x = np.asarray(x, dtype=float)
        if not isinstance(t, np.ndarray):
            t = _integer(t, "time index")
        out = np.asarray(self._evaluate(x, t), dtype=float)
        if out.shape != x.shape:
            raise PreconditionError(
                f"map {self.name!r} returned shape {out.shape} for input shape {x.shape}"
            )
        return out

    def lipschitz_at(self, t) -> np.ndarray:
        """The declared factor at an int ``t``, or one per time of an int array."""
        return np.asarray(self._lipschitz(t), dtype=float)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} dim={self.dim} L<={self.lipschitz_sup:g}>"


def _initial_points(family, x0, shape) -> np.ndarray:
    """``x0`` as a float array of ``shape``, checked for its size and the domain."""
    x = np.array(x0, dtype=float)
    if x.size != np.prod(shape):
        raise PreconditionError(f"initial point has shape {x.shape}; expected {shape}")
    x = x.reshape(shape)
    if not family.domain.contains(x).all():
        raise PreconditionError("initial point lies outside the declared domain")
    return x


def pointwise(f):
    """Lift a map ``f(x, t)`` written for one point to a :class:`MapFamily` map.

    A point is one call of ``f``; rows are one call per row, each at the
    row's time, stacked in order.
    """

    def evaluate(x, t):
        if x.ndim == 1:
            return f(x, t)
        times = t.tolist() if isinstance(t, np.ndarray) else [t] * len(x)
        return np.stack([f(row, tau) for row, tau in zip(x, times)])

    return evaluate


class InexactMapFamily(MapFamily):
    """Evaluations of an exact family ``base``, each off by at most ``error_sup``.

    The family keeps its base's declarations: dimension, domain, contraction
    factors, ``fixed_point`` and declared norm. Only the map
    differs: ``evaluate(x, t)`` must lie within the constant ``error_sup``
    of ``base.evaluate(x, t)`` at every point of the domain (in the
    experiment norm), and must itself map the domain into itself.
    """

    def __init__(self, base: MapFamily, evaluate, error_sup, name=None):
        super().__init__(
            base.dim,
            base.domain,
            evaluate,
            base._lipschitz,
            lipschitz_sup=base.lipschitz_sup,
            fixed_point=base.fixed_point,
            declared_norm=base.declared_norm,
            name=name or f"inexact({base.name})",
        )
        self.base = base
        self.error_sup = float(error_sup)
        if self.error_sup < 0.0:
            raise PreconditionError("error bound must be nonnegative")


def with_output_noise(base: MapFamily, error_bound, seed, norm: Norm | None = None,
                      adversarial=False) -> InexactMapFamily:
    """Perturb a family's outputs by a bounded, seeded amount.

    Returns an :class:`InexactMapFamily` over ``base`` whose ``error_sup``
    is ``error_bound``. By default the perturbation at step t is uniform on
    the ``norm`` ball of that radius: row t of a :class:`SeriesTable` over
    the streams ``(seed, 61)`` (a box draw, or an l2 direction) and
    ``(seed, 62)`` (the l2 radius). With ``adversarial`` it is a constant
    offset of that radius along the all-ones direction (this makes
    steady-state bounds near-tight). Outputs are projected back onto the
    domain, which cannot increase the deviation because projections are
    nonexpansive and the exact output lies in the domain. The family takes
    a point or rows, as its base does, and its rows equal its points when
    its base's do.
    """
    norm = norm if norm is not None else Norm(L2)
    radius = float(error_bound)
    dim = base.dim
    if adversarial or radius == 0.0:
        ones = np.ones(dim)
        shift = radius * (ones / norm.of(ones)) if adversarial else np.zeros(dim)

        def offset(t):
            return shift
    elif norm.kind == LINF:
        offset = SeriesTable(
            lambda ts, last, rng: rng.uniform(-radius, radius, size=(len(ts), dim)), (seed, 61)).at
    else:

        def ball(ts, last, directions, radii):
            g = directions.standard_normal((len(ts), dim))
            r = radius * radii.uniform(0.0, 1.0, size=len(ts)) ** (1.0 / dim)
            return (r / np.sqrt(np.einsum("ij,ij->i", g, g)))[:, None] * g

        offset = SeriesTable(ball, (seed, 61), (seed, 62)).at

    def evaluate(x, t):
        return base.domain.project(base.evaluate(x, t) + offset(t))

    return InexactMapFamily(base, evaluate, radius)


# ---------------------------------------------------------------------------
# Batch solving and fixed-point series
# ---------------------------------------------------------------------------


def solve_fixed_point(family, t, x0, tol=1e-12, max_iter=100_000, norm: Norm | None = None,
                      return_info=False):
    """Iterate the time-t map from ``x0`` until the residual drops below tol.

    ``t`` is an int, or an int array with one time per row of ``x0``: the
    rows are iterated together, each under its own time, by one rows call
    of ``family.evaluate`` per sweep (one row for an int ``t``), and each
    row stops once its residual is at most ``tol``. Returns the final
    iterate, or the rows of final iterates (each one's residual is at most
    ``tol`` thanks to the declared contraction). Raises
    :class:`NonConvergenceError` at the iteration cap and
    :class:`DomainViolationError` if an iterate leaves the declared domain,
    which signals a false self-map declaration; either reports the earliest
    time that fails. ``return_info`` adds the number of sweeps and
    each sweep's largest residual over the rows still iterating.
    """
    max_iter = _integer(max_iter, "iteration cap")
    if not tol > 0.0 or max_iter < 1:  # a NaN tol fails here, not after max_iter sweeps
        raise PreconditionError("tolerance and iteration cap must be positive")
    norm = norm if norm is not None else Norm(L2)
    rows = isinstance(t, np.ndarray)
    ts = t.reshape(-1) if rows else np.array([_integer(t, "time index")])
    x = _initial_points(family, x0, (len(ts), family.dim))
    points = np.empty_like(x)
    active, at = np.arange(len(ts)), ts  # the rows still iterating and their times
    residuals = []
    failure, later = None, np.inf  # the earliest failure so far; rows at or after its time stop
    for k in range(max_iter):
        fx = family.evaluate(x, at)
        r = norm.of_rows(fx - x)
        residuals.append(r.max())
        x = fx
        done = r <= tol
        left = ~family.domain.contains(fx)
        if left.any():
            later = int(at[left].min())  # below every earlier failure's time
            failure = DomainViolationError(
                f"iterate left the domain at time index {later} (iteration {k})",
                time_index=later,
            )
            done &= ~left
        elif not done.any():
            continue  # no row finished or failed: the rows stay as they are
        points[active[done]] = fx[done]
        keep = ~done & (at < later)
        active, at, x, r = active[keep], at[keep], fx[keep], r[keep]
        if not active.size:
            break
    else:
        first = int(at.min())
        residual = float(r[at == first].max())
        failure = NonConvergenceError(
            f"no convergence after {max_iter} iterations at time index {first} "
            f"(residual {residual:.3e} > tol {tol:.3e})",
            residual=residual,
            iterations=max_iter,
            time_index=first,
        )
    if failure is not None:
        raise failure
    result = points if rows else points[0]
    if return_info:
        return result, {"iterations": k + 1, "residuals": np.asarray(residuals)}
    return result


@dataclass
class FixedPointSeries:
    """Reference fixed points of a family over a finite horizon.

    ``points[k]`` is the fixed point at t = k + 1; ``drifts[k]`` is the norm
    of the step between consecutive fixed points (the drift at t = k + 1) and
    ``drift_sup`` its maximum over the horizon, the finite-horizon stand-in
    for the drift supremum.
    """

    points: np.ndarray
    residuals: np.ndarray
    drifts: np.ndarray
    drift_sup: float
    norm: Norm

    @property
    def horizon(self) -> int:
        return len(self.points)


def _supplied_points(base, ts):
    """``base.fixed_point(ts)`` as one row per time, or None when it supplies none.

    Raises :class:`PreconditionError` naming the family and both shapes when
    the points are neither one row per time nor one point, and
    :class:`DomainViolationError` at the first time whose point is not
    finite or lies outside the declared domain (a second fixed point there
    would pass the residual check).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        supplied = base.fixed_point(ts)
        if supplied is None:
            return None
        supplied = np.asarray(supplied, dtype=float)
    if supplied.shape not in ((len(ts), base.dim), (base.dim,)):
        raise PreconditionError(
            f"fixed points of {base.name!r} have shape {supplied.shape}; "
            f"expected ({len(ts)}, {base.dim}) or ({base.dim},)"
        )
    points = np.array(np.broadcast_to(supplied, (len(ts), base.dim)))
    finite = np.isfinite(points).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        bad = np.flatnonzero(~(finite & base.domain.contains(points)))
    if bad.size:
        k = bad[0]
        t = int(ts[k])
        what = "lies outside the declared domain" if finite[k] else "is not finite"
        raise DomainViolationError(f"fixed point at time index {t} {what}", time_index=t)
    return points


def compute_fixed_point_series(family, horizon, norm: Norm | None = None,
                               tol=1e-12, max_iter=100_000) -> FixedPointSeries:
    """Solve for the fixed point at every t = 1..horizon.

    Uses the points the base family supplies when it has a ``fixed_point``,
    called once with the int array of times 1..horizon; when there is none,
    or it returns None, one batched solve of all times as rows, each started
    from the domain anchor. Supplied points of another shape than one row
    per time or one point raise :class:`PreconditionError`; a point that is
    not finite (a drift that overflows) or lies outside the domain raises
    :class:`DomainViolationError` naming the first such time, without
    numpy's overflow warnings.
    Residuals are always recomputed from the map, in one rows call, so bad
    supplied points cannot pass silently. A point x passes when its residual is
    at most ``tol * max(1, norm(x))``: the map's rounding grows with |x|.

    ``family`` may also be a list of families, and the result is then one
    series per family, each its family's alone, bit for bit, residual check
    included. When the bases stack (none supplies fixed points and their
    ``lockstep`` steps stack, see :class:`MapFamily`), the references are
    one batched solve of all their rows, one per run and time, through the
    stacked step; rows are independent, so the bits are those of each solve
    alone. That solve keys row (r, t) as the time index ``r * horizon + t``,
    and its errors name that key. Other bases are solved one family at a
    time.
    """
    horizon = _horizon(horizon)
    norm = norm if norm is not None else Norm(L2)
    ts = np.arange(1, horizon + 1)
    if isinstance(family, (list, tuple)):
        bases = [f.base for f in family]
        step = _stacked_step(bases, horizon)
        if step is None:
            return [compute_fixed_point_series(f, horizon, norm, tol, max_iter) for f in family]
        points = _stacked_points(bases, step, horizon, norm, tol, max_iter)
        return [_checked_series(b, p, ts, norm, tol) for b, p in zip(bases, points)]
    base = family.base
    points = None if base.fixed_point is None else _supplied_points(base, ts)
    if points is None:
        anchors = np.broadcast_to(base.domain.anchor(), (horizon, base.dim))
        points = solve_fixed_point(base, ts, anchors, tol=tol, max_iter=max_iter, norm=norm)
    return _checked_series(base, points, ts, norm, tol)


def _stacked_step(bases, horizon):
    """The stacked ``lockstep`` step of ``bases`` at t = 1..horizon, or None when
    none is given, one base supplies fixed points or their steps cannot stack."""
    if not bases or bases[0].lockstep is None or any(b.fixed_point is not None for b in bases):
        return None
    return bases[0].lockstep.stack([b.lockstep for b in bases], horizon + 1)


def _stacked_points(bases, step, horizon, norm, tol, max_iter) -> np.ndarray:
    """The ``(R, horizon, dim)`` fixed points of the R ``bases``, by one batched
    solve of their stacked ``step``, whose time index k is run
    ``(k - 1) // horizon`` at time ``(k - 1) % horizon + 1``."""

    def evaluate(x, keys):
        runs, t = np.divmod(keys - 1, horizon)
        return step(x, t + 1, runs)

    dim, domain = bases[0].dim, bases[0].domain
    stacked = MapFamily(dim, domain, evaluate, max(b.lipschitz_sup for b in bases),
                        name="stacked-references")
    keys = np.arange(1, len(bases) * horizon + 1)
    anchors = np.broadcast_to(domain.anchor(), (len(keys), dim))
    points = solve_fixed_point(stacked, keys, anchors, tol=tol, max_iter=max_iter, norm=norm)
    return points.reshape(len(bases), horizon, dim)


def _checked_series(base, points, ts, norm, tol) -> FixedPointSeries:
    """The series of ``base``'s fixed ``points`` at the times ``ts``, each checked
    by its residual in one rows call, with the drifts between them."""
    residuals = norm.of_rows(base.evaluate(points, ts) - points)
    above = np.flatnonzero(~(residuals <= tol * np.maximum(1.0, norm.of_rows(points))))
    if above.size:
        t = int(above[0]) + 1
        raise NonConvergenceError(
            f"fixed-point residual {residuals[t - 1]:.3e} above tolerance at time index {t}",
            residual=float(residuals[t - 1]),
            time_index=t,
        )
    drifts = norm.of_rows(points[1:] - points[:-1]) if len(points) > 1 else np.zeros(0)
    drift_sup = float(drifts.max()) if drifts.size else 0.0
    return FixedPointSeries(points, residuals, drifts, drift_sup, norm)


# ---------------------------------------------------------------------------
# Online tracking
# ---------------------------------------------------------------------------


@dataclass
class TrackingTrace:
    """Iterates of an online run together with reference fixed points.

    ``errors[k]`` is the tracking error at t = k + 1 in the trace norm.
    """

    iterates: np.ndarray
    reference: FixedPointSeries
    errors: np.ndarray
    norm: Norm

    @property
    def horizon(self) -> int:
        return len(self.iterates)

    def tail_max(self, tail_fraction=0.1) -> float:
        """Maximum error over the trailing window (default last 10%); the
        fraction lies in (0, 1]."""
        if not 0.0 < tail_fraction <= 1.0:
            raise PreconditionError(f"tail fraction must lie in (0, 1]; got {tail_fraction}")
        start = min(self.horizon - 1, int(np.floor(self.horizon * (1.0 - tail_fraction))))
        return float(self.errors[start:].max())


def tracking_error(iterates, reference, norm: Norm) -> np.ndarray:
    """Per-step distance between iterates and reference fixed points."""
    iterates = np.asarray(iterates, dtype=float)
    points = reference.points if isinstance(reference, FixedPointSeries) else np.asarray(reference, dtype=float)
    if len(iterates) != len(points):
        raise LengthMismatchError(
            f"iterates ({len(iterates)}) and reference ({len(points)}) differ in length"
        )
    return norm.of_rows(iterates - points)


def run_online_tracker(family, x0, horizon, norm: Norm | None = None,
                       reference=None) -> TrackingTrace:
    """Run the online iteration ``x <- f~(x, t)`` for t = 1..horizon-1.

    The family may be exact or inexact; one map application is spent per time
    step. Reference fixed points are computed independently (supplied by
    the exact base family, or its batched iteration) and are not reused by the
    online iterates. A horizon of 1 returns the initial error only. The run
    is the one-run case of :func:`run_lockstep_tracker`.
    """
    horizon, x, norm = _tracker_start(family, x0, horizon, norm)
    (iterates,) = run_lockstep_tracker([family], x[None], horizon)
    return _tracker_score(family, iterates, norm, reference)


def run_lockstep_tracker(families, x0, horizon) -> np.ndarray:
    """The online runs of ``families``, advanced together for t = 1..horizon-1.

    Run r starts at row r of ``x0``, one ``(dim,)`` row per family, and the
    runs are the rows of one ``(R, dim)`` state. A time is one call for all
    of them, the families' stacked step, when there are two or more runs and
    their ``lockstep`` steps stack (see :class:`MapFamily`); else one
    ``evaluate`` point call per run. Either way run r's row is the point it
    makes alone, bit for bit. Returns the ``(R, horizon, dim)`` iterates.
    Raises :class:`PreconditionError` when an initial point lies outside its
    domain and :class:`DomainViolationError` at the first time any row
    leaves its domain.
    """
    horizon = _horizon(horizon)
    dim = families[0].dim
    x = np.array(x0, dtype=float)
    if x.shape != (len(families), dim) or any(f.dim != dim for f in families):
        raise PreconditionError(
            f"initial points have shape {x.shape}; expected one of dimension {dim} per family")
    if not all(f.domain.contains(row) for f, row in zip(families, x)):
        raise PreconditionError("initial point lies outside the declared domain")
    iterates = np.empty((len(families), horizon, dim))
    iterates[:, 0] = x
    first, domain = families[0].lockstep, families[0].domain
    # one run's point call costs fewer numpy calls than a stacked call of one row
    stacked = (first.stack([f.lockstep for f in families], horizon)
               if first is not None and len(families) > 1 else None)
    for t in range(1, horizon):
        if stacked is not None:
            x = iterates[:, t] = stacked(iterates[:, t - 1], t)
            inside = domain.contains(x).all()
        else:
            inside = True
            for r, family in enumerate(families):
                x = iterates[r, t] = family.evaluate(iterates[r, t - 1], t)
                inside &= family.domain.contains(x)
        if not inside:
            raise DomainViolationError(f"online iterate left the domain at time index {t}")
    return iterates


def _horizon(horizon) -> int:
    """``horizon`` as an int of at least 1."""
    horizon = _integer(horizon, "horizon")
    if horizon < 1:
        raise PreconditionError("horizon must be at least 1")
    return horizon


def _tracker_start(family, x0, horizon, norm):
    """A tracker's ``(horizon, x0, norm)``: the horizon as a positive int, ``x0``
    as a ``(dim,)`` point of the domain and the norm, l2 when None."""
    norm = norm if norm is not None else Norm(L2)
    return _horizon(horizon), _initial_points(family, x0, (family.dim,)), norm


def _tracker_score(family, iterates, norm, reference) -> TrackingTrace:
    """The trace of a tracker's ``iterates``, scored against ``reference``, or
    against the family's fixed points over the horizon when that is None."""
    if reference is None:
        reference = compute_fixed_point_series(family, len(iterates), norm=norm)
    return TrackingTrace(iterates, reference, tracking_error(iterates, reference, norm), norm)


def map_error_bound_series(family, horizon) -> np.ndarray:
    """Declared approximation bounds for steps 1..horizon-1: ``error_sup`` at each."""
    return np.full(_horizon(horizon) - 1, family.error_sup)


# ---------------------------------------------------------------------------
# Empirical assumption audits
# ---------------------------------------------------------------------------


@dataclass
class SelfMapCheck:
    ok: bool
    counterexample: np.ndarray | None
    n_checked: int


def _self_map_check(domain: Domain, points, images) -> SelfMapCheck:
    """Whether every row of the blocks ``images`` lies in ``domain``; else the first
    row of the blocks ``points`` whose image does not."""
    inside = np.concatenate([domain.contains(block) for block in images])
    if np.all(inside):
        return SelfMapCheck(True, None, len(inside))
    return SelfMapCheck(False, np.concatenate(points)[int(np.argmin(inside))], len(inside))


@dataclass
class LipschitzEstimate:
    """Sampled lower bound on a map's Lipschitz constant.

    ``value`` never exceeds the true constant; ``degenerate`` flags that all
    sampled pairs coincided (insufficient sampling). ``self_map`` is the
    self-map check of the same sample: the images of both points of every
    pair against the domain.
    """

    value: float
    pairs_used: int
    degenerate: bool
    worst_pair: tuple | None = None
    self_map: SelfMapCheck | None = None


def estimate_lipschitz(family, t, sampler: DomainSampler, n_pairs, norm: Norm) -> LipschitzEstimate:
    """Max sampled ratio ||f(x)-f(x')|| / ||x-x'|| over seeded domain pairs, and the
    self-map check of the same 2 * ``n_pairs`` images: each point is evaluated once."""
    n_pairs = _integer(n_pairs, "n_pairs")
    if n_pairs < 1:
        raise PreconditionError("need at least one pair")
    X = sampler.draw(n_pairs)
    Y = sampler.draw(n_pairs)
    # two rows calls: one call of 2n rows would hold twice the map's temporaries
    FX, FY = family.evaluate(X, t), family.evaluate(Y, t)
    self_map = _self_map_check(family.domain, (X, Y), (FX, FY))
    den = norm.of_rows(X - Y)
    mask = den > 0.0
    if not np.any(mask):
        return LipschitzEstimate(0.0, 0, True, self_map=self_map)
    used = slice(None) if mask.all() else mask  # rows are independent: no copy when all count
    ratios = norm.of_rows(FX[used] - FY[used]) / den[used]
    i = int(np.argmax(ratios))
    idx = np.flatnonzero(mask)[i]
    return LipschitzEstimate(float(ratios[i]), int(mask.sum()), False, (X[idx], Y[idx]), self_map)


def verify_self_map(family, t, sampler: DomainSampler, n_samples) -> SelfMapCheck:
    """Sampled check that the time-t map sends the domain into itself, up to the
    domain's membership tolerance."""
    n_samples = _integer(n_samples, "n_samples")
    if n_samples < 1:
        raise PreconditionError("need at least one sample")
    X = sampler.draw(n_samples)
    return _self_map_check(family.domain, (X,), (family.evaluate(X, t),))


def rounding_slack(norm: Norm, *states) -> float:
    """What a check of computed values allows for rounding: 1e-9 plus 1e-14 of
    the largest norm among the rows of ``states``, the values' inputs."""
    return 1e-9 + 1e-14 * max((float(norm.of_rows(x).max(initial=0.0)) for x in states), default=0)


@dataclass
class MapErrorCheck:
    max_observed: float
    bound: float
    ok: bool
    n_checked: int


def verify_map_error(family: MapFamily, t, sampler: DomainSampler, n_samples,
                     norm: Norm) -> MapErrorCheck:
    """Sampled check at time t that the family stays within ``error_sup`` of its
    base, up to the :func:`rounding_slack` of its largest exact output."""
    n_samples = _integer(n_samples, "n_samples")
    if n_samples < 1:
        raise PreconditionError("need at least one sample")
    X = sampler.draw(n_samples)
    approx = family.evaluate(X, t)
    exact = family.base.evaluate(X, t)
    observed = float(norm.of_rows(approx - exact).max(initial=0.0))
    slack = rounding_slack(norm, exact)
    bound = family.error_sup
    return MapErrorCheck(observed, bound, observed <= bound + slack, n_samples)
