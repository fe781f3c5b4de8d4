"""Fixed-point load flow in per-unit, monolithic and decomposed by areas.

The monolithic map is the implicit-impedance form on the non-slack buses,

    v  <-  noload + Z conj(s ./ v),

a contraction on a neighborhood of the no-load profile whenever injections
are small enough; the builder certifies contraction and self-mapping
analytically from the injection limits, so declared constants are rigorous
upper bounds rather than sampled guesses.

The multi-area decomposition splits the buses into a chain of areas with a
single connection line between consecutive areas. Each area re-solves its own
load flow treating the upstream connection-point voltage as its slack and the
measured power flowing into the downstream area as an extra (negative)
injection at its connection bus. Sign convention: the boundary power is the
power flowing from the upstream area into the downstream one, measured at the
upstream connection bus.

Because the upstream boundary voltage shifts a downstream area's whole
profile one-for-one, the stacked map in raw voltage coordinates has a unit
gain along the chain and no flat-norm contraction certificate can exist. The
decomposed family therefore iterates per-area voltage *deviations* from the
no-load profile, rescaled per area with weights computed from an analytic
inter-area gain matrix (its Perron eigenvector); in these coordinates the
stacked map is certified contractive in the flat max norm and every bound in
the package applies. The coordinate change is a fixed per-area affine
rescale, so trajectories map one-to-one onto voltage trajectories.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..async_sim import DependencyGraph
from ..core import InexactMapFamily, MapFamily, SeriesTable, solve_fixed_point
from ..domains import Domain
from ..errors import (
    ContractionUncertifiedError,
    DomainViolationError,
    PartitionUnsupportedError,
    PreconditionError,
)
from ..norms import L2, LINF, Norm

_GUARD = 1e-6  # smallest voltage modulus the maps divide by


def _times_z(w, Z):
    """``w @ Z.T`` for a vector or each row, summed in one order for any row count."""
    return np.einsum("...j,ij->...i", w, Z)


def _numbers(x, kinds, message):
    """``x`` as an array of a dtype kind in ``kinds``; an ndarray's check is one dtype read."""
    try:
        x = x if isinstance(x, np.ndarray) else np.asarray(x)
    except (TypeError, ValueError) as exc:  # ragged nested lists
        raise PreconditionError(message) from exc
    if x.dtype.kind not in kinds:
        raise PreconditionError(message)
    return x


def to_real(v: np.ndarray) -> np.ndarray:
    """Interleave a complex vector, or each row, as [re0, im0, re1, im1, ...].

    Interleaved (re, im) pairs are complex128's memory layout, so this is a
    view: of ``v`` itself when it is a contiguous complex array.
    """
    v = _numbers(v, "iufc", "to_real needs input that reads as complex numbers")
    return np.ascontiguousarray(v, dtype=complex).view(float)


def to_complex(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_real`, for a vector or each row: a view, as there."""
    x = _numbers(x, "iuf", "to_complex needs real numbers in (re, im) pairs")
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise PreconditionError(
            f"to_complex needs (re, im) pairs on the last axis; got shape {x.shape}"
        )
    return x.view(complex)


def _admittance(size, lines):
    """Nodal admittance matrix over nodes 0..size-1 of (node, node, impedance) lines."""
    y = np.zeros((size, size), dtype=complex)
    for (a, b, z) in lines:
        adm = 1.0 / z
        y[a, a] += adm
        y[b, b] += adm
        y[a, b] -= adm
        y[b, a] -= adm
    return y


class PowerNetwork:
    """Single-phase network in per-unit: one slack bus plus n load buses.

    Bus 0 is the slack; load buses are 1..n. ``injection_limit[k]`` caps the
    modulus of the complex power injection at load bus k+1 and drives every
    analytic certificate. ``areas`` optionally assigns each load bus to an
    area 1..K for the multi-area decomposition.
    """

    def __init__(self, n_bus, slack_voltage, lines, injection_limit, areas=None):
        self.n = int(n_bus)
        self.slack_voltage = complex(slack_voltage)
        self.lines = tuple((int(a), int(b), complex(z)) for (a, b, z) in lines)
        self.injection_limit = np.asarray(injection_limit, dtype=float).reshape(self.n)
        if np.any(self.injection_limit < 0.0):
            raise PreconditionError("injection limits must be nonnegative")
        self.areas = (
            np.asarray(areas, dtype=int).reshape(self.n) if areas is not None else None
        )
        for (a, b, z) in self.lines:
            if not (0 <= a <= self.n and 0 <= b <= self.n) or a == b:
                raise PreconditionError(f"line ({a}, {b}) references invalid buses")
            if z == 0:
                raise PreconditionError("line impedance must be nonzero")
        self.Y_ll = _admittance(self.n + 1, self.lines)[1:, 1:]
        try:
            self.Z = np.linalg.inv(self.Y_ll)
        except np.linalg.LinAlgError as exc:  # disconnected load bus, usually
            raise PreconditionError("load-bus admittance matrix is singular") from exc
        # Lines carry no shunt admittance, so with no load every bus sits at the
        # slack voltage, exactly; solving for it through Z would round it.
        self.noload = np.full(self.n, self.slack_voltage)

    def __repr__(self):
        return f"<PowerNetwork n={self.n} lines={len(self.lines)}>"


class InjectionSeries:
    """Time-varying complex injections, kept within the per-bus limits.

    Kinds: ``constant``; ``random_walk`` (complex steps of modulus ``step``,
    clamped back to the per-bus modulus cap, one step at a time, with step
    angles drawn in blocks from the one stream ``(seed, 23)``); ``ramp``
    (each bus scales as ``base * (1 + rate * (t - 1))``, saturating at its
    cap -- ``rate`` may be a per-bus array, so variation can be concentrated
    in a subset of buses; a product that overflows saturates too, along
    ``base`` times the factor's sign). Each kind is one
    :class:`~fptrack.core.SeriesTable` of injections, row k for t = k + 1.
    """

    def __init__(self, kind, base, limit, step=0.0, seed=0, rate=0.0):
        if kind not in ("constant", "random_walk", "ramp"):
            raise PreconditionError(
                "injection kind must be 'constant', 'random_walk', or 'ramp'"
            )
        self.kind = kind
        base = np.asarray(base, dtype=complex)
        self.limit = np.asarray(limit, dtype=float).reshape(base.shape)
        if np.any(np.abs(base) > self.limit + 1e-12):
            raise PreconditionError("base injections exceed the declared limits")
        # a base within rounding of its limits is scaled under them, so |s(t)| <= limit exactly
        self.base = _clamp(base, self.limit)
        self.step = float(step)
        self.seed = int(seed)
        self.rate = np.broadcast_to(np.asarray(rate, dtype=float), self.base.shape).copy()
        if not np.all(np.isfinite(self.rate)):
            raise PreconditionError("ramp rates must be finite")
        if kind == "random_walk":
            self._table = SeriesTable(self._walk_rows, (self.seed, 23), first=self.base)
        else:
            self._table = SeriesTable(self._profile_rows)

    @property
    def n(self):
        return self.base.size

    @property
    def max_abs(self) -> np.ndarray:
        """Per-bus worst-case modulus over all t (the limit for walks)."""
        if self.kind == "constant":
            return np.abs(self.base)
        return self.limit.copy()

    def at(self, t) -> np.ndarray:
        """Injections at an int ``t >= 1``; for an int array of times, one row per time."""
        return self._table.at(t)

    def _profile_rows(self, ts, last):
        """The constant or ramp injections at the times ``ts``."""
        if self.kind == "constant":
            return np.tile(self.base, (len(ts), 1))
        with np.errstate(over="ignore", invalid="ignore"):
            factor = 1.0 + self.rate * (ts[:, None] - 1)
            s = self.base * factor
        over = ~np.isfinite(s)
        if over.any():
            # inf * 0 in the clamp would give NaN: put an overflowed entry on its cap
            mag = np.abs(self.base)
            unit = np.divide(self.base, mag, out=np.zeros_like(self.base), where=mag > 0.0)
            s[over] = (np.sign(factor) * (unit * self.limit))[over]
        return _clamp(s, self.limit)

    def _walk_rows(self, ts, last, rng):
        """The random walk's injections at the times ``ts``, which follow ``last``,
        one clamped step at a time.

        Each row is :func:`_clamp` of its step, inlined: the same operations on
        one reused scale buffer, skipped when no bus exceeds its limit.
        """
        steps = self.step * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(len(ts), self.n)))
        out = np.empty_like(steps)
        limit = self.limit
        scale = np.empty(self.n)
        for k in range(len(ts)):
            s = last + steps[k]
            mag = np.abs(s)
            up = mag > limit
            if up.any():
                scale.fill(1.0)
                np.divide(limit, mag, out=scale, where=up)
                while True:
                    np.nextafter(scale, 0.0, out=scale, where=up)
                    clamped = s * scale
                    up = np.abs(clamped) > limit
                    if not up.any():
                        break
                s = clamped
            out[k] = last = s
        return out


def _clamp(s, limit):
    """``s`` with each injection above its bus limit scaled back under it.

    The factor limit / |s| can round the modulus above the limit, so each
    factor starts one ulp below it and steps down one ulp more while the
    modulus still rounds above: ``|s| <= limit`` holds exactly, and so do
    the constants certified from the limits.
    """
    mag = np.abs(s)
    clamped, up = s, mag > limit
    scale = np.divide(limit, mag, out=np.ones_like(mag), where=up)
    while up.any():
        np.nextafter(scale, 0.0, out=scale, where=up)
        clamped = s * scale
        up = np.abs(clamped) > limit
    return clamped


# ---------------------------------------------------------------------------
# Monolithic load-flow family
# ---------------------------------------------------------------------------


def build_loadflow_map(net: PowerNetwork, injections: InjectionSeries, radius=0.2,
                       norm: Norm | None = None) -> MapFamily:
    """Monolithic load-flow family with analytic contraction certification.

    The domain is a neighborhood of the no-load profile of size ``radius``
    per-unit: a Euclidean ball of the flattened voltages under the l2 norm, a
    per-component box under the max norm. Contraction and the self-map
    property are certified from the injection limits; the builder raises
    :class:`ContractionUncertifiedError` when the inequalities do not close,
    since the underlying sufficient conditions live outside this package and
    an uncertified instance must not masquerade as a contraction.
    """
    norm = norm if norm is not None else Norm(L2)
    if injections.n != net.n:
        raise PreconditionError("injection series does not match the network size")
    if np.any(injections.max_abs > net.injection_limit):
        raise PreconditionError("injection series exceeds the network's limits")
    radius = float(radius)
    if radius <= 0.0:
        raise PreconditionError("radius must be positive")
    center_c = net.noload
    center = to_real(center_c)
    limits = net.injection_limit
    if norm.is_l2:
        vmin = float(np.min(np.abs(center_c))) - radius
    else:
        vmin = float(np.min(np.abs(center_c))) - np.sqrt(2.0) * radius
    if vmin <= max(_GUARD, 0.05):
        raise ContractionUncertifiedError(
            "domain radius leaves no certified voltage-magnitude margin"
        )
    if norm.is_l2:
        zgain = float(np.linalg.norm(net.Z, ord=2))
        gain, load = zgain / vmin**2, np.eye(net.n)
        self_map_reach = zgain * float(np.linalg.norm(limits)) / vmin
        domain = Domain.ball(center, radius)
    else:
        load = np.abs(net.Z)
        gain = np.sqrt(2.0) / vmin**2
        self_map_reach = float((load @ limits).max()) / vmin
        domain = Domain.box(center - radius, center + radius)

    def factor(mag):
        """gain * max_i (load @ mag)_i: one expression for the factor at t and its
        supremum, so |s(t)| <= limits makes every factor at most the supremum."""
        return gain * np.einsum("...j,ij->...i", mag, load).max(axis=-1)

    def lipschitz(t):
        return factor(np.abs(injections.at(t)))

    lip_sup = float(factor(limits))
    if lip_sup >= 1.0:
        raise ContractionUncertifiedError(
            f"contraction not certified: analytic factor {lip_sup:.4f} >= 1"
        )
    if self_map_reach > radius:
        raise ContractionUncertifiedError(
            f"self-map not certified: injections can reach {self_map_reach:.4f} "
            f"per-unit from the no-load profile, beyond radius {radius}"
        )
    noload, Z = net.noload, net.Z

    def evaluate(x, t):
        v = to_complex(x)
        if np.min(np.abs(v)) < _GUARD:
            raise DomainViolationError("voltage magnitude fell below the division guard")
        return to_real(noload + _times_z(np.conj(injections.at(t) / v), Z))

    return MapFamily(
        dim=2 * net.n,
        domain=domain,
        evaluate=evaluate,
        lipschitz=lipschitz,
        lipschitz_sup=lip_sup,
        declared_norm=norm,
        name=f"loadflow-n{net.n}-{norm.kind}",
    )


# ---------------------------------------------------------------------------
# Multi-area decomposition
# ---------------------------------------------------------------------------

_MARGIN = 1.05           # certified self-map box over the box the rounds close on
_MAX_ROUNDS = 300        # self-map rounds before the couplings count as too strong
_CONTRACTION_CAP = 0.95  # largest declared factor the builder certifies


@dataclass
class MultiAreaSystem:
    """Decomposed load flow: family, dependency graph, and coordinate change.

    The state lists the load buses area by area (``order``), each as the
    (re, im) parts of its voltage's deviation from the no-load profile
    (``noload``, in state order) times its area's weight (``weight``, once
    per state coordinate). The certified factor and error bound are the
    family's ``lipschitz_sup`` and ``error_sup``.
    """

    family: InexactMapFamily
    graph: DependencyGraph
    order: np.ndarray    # load bus (0-based) at each state position
    noload: np.ndarray   # its no-load voltage
    weight: np.ndarray   # its area's weight, once per state coordinate

    def encode(self, v: np.ndarray) -> np.ndarray:
        """Voltages (global bus order) -> scaled-deviation state."""
        return to_real(np.asarray(v, dtype=complex)[..., self.order] - self.noload) * self.weight

    def to_voltages(self, x: np.ndarray) -> np.ndarray:
        """Scaled-deviation state -> complex voltages in global bus order."""
        v = self.noload + to_complex(x) / self.weight[0::2]
        return v[..., np.argsort(self.order)]

    def voltage_error(self, x, v_ref) -> float:
        """Max per-unit voltage deviation of a state from reference voltages."""
        return float(np.max(np.abs(self.to_voltages(x) - np.asarray(v_ref, dtype=complex))))


def _parse_chain(net: PowerNetwork):
    """Index arrays of a chain of areas joined by single lines.

    Returns the load buses (0-based) in state order, area by area; the state
    positions of each link's upstream connection bus and downstream root bus,
    and the link's impedance; and the admittance matrix of the areas cut
    apart at the links. Its row and column 0 stand for each bus's area slack
    (the substation for area 1, the upstream connection bus for the others),
    the rest follow state order, so the load-bus part is block-diagonal.
    """
    if net.areas is None:
        raise PartitionUnsupportedError("network has no area assignment")
    ids = sorted(set(int(a) for a in net.areas))
    if ids != list(range(1, len(ids) + 1)) or len(ids) < 2:
        raise PartitionUnsupportedError("areas must be labeled 1..K with K >= 2")
    k_areas = len(ids)
    bus_area = np.concatenate([[1], net.areas])  # slack counted with area 1
    order = np.argsort(net.areas, kind="stable")
    slot = np.zeros(net.n + 1, dtype=int)  # bus -> admittance index, slack -> 0
    slot[order + 1] = np.arange(1, net.n + 1)
    links = {}
    area_lines = []
    for (a, b, z) in net.lines:
        ra, rb = int(bus_area[a]), int(bus_area[b])
        if ra == rb:
            area_lines.append((slot[a], slot[b], z))
        else:
            lo, hi = min(ra, rb), max(ra, rb)
            if hi != lo + 1:
                raise PartitionUnsupportedError(
                    f"line ({a}, {b}) jumps areas {lo} -> {hi}; only a chain is supported"
                )
            if lo in links:
                raise PartitionUnsupportedError(
                    f"areas {lo} and {hi} share more than one connection line"
                )
            conn, root = (a, b) if ra == lo else (b, a)
            links[lo] = (conn, root, z)
    if sorted(links) != list(range(1, k_areas)):
        raise PartitionUnsupportedError("consecutive areas must be joined by exactly one line")
    if any(a == 0 or b == 0 for (a, b, _) in links.values()):
        raise PartitionUnsupportedError("the slack bus cannot be a connection point")
    conn, root, link_z = (np.array(col) for col in zip(*(links[k] for k in range(1, k_areas))))
    # a link joins its downstream area's root bus to that area's slack
    y = _admittance(net.n + 1, area_lines + [(0, slot[r], z) for r, z in zip(root, link_z)])
    return order, slot[conn] - 1, slot[root] - 1, link_z, y


def build_multiarea_maps(net: PowerNetwork, injections: InjectionSeries, noise_bound, seed,
                         adversarial=False) -> MultiAreaSystem:
    """Per-area load-flow maps with measured boundary injections.

    Area k treats the upstream connection voltage as its slack (communicated
    from area k-1) and subtracts the measured power flowing into area k+1 at
    its own connection bus (the measurement reads area k+1's state, so it is
    modeled as information on the edge k+1 -> k). With K areas the dependency
    edges are (k-1 -> k) and (k+1 -> k) along the chain; for three areas,
    {(2,1), (1,2), (3,2), (2,3)} in 1-based area labels.

    Measurement noise is complex, of modulus at most ``noise_bound``: row t
    of a table drawn in blocks from the one stream ``(seed, 29)``, one
    modulus and one angle per boundary and step (``adversarial``
    switches to a constant offset of exactly that modulus, which makes
    steady-state bounds near-tight). The returned system's family iterates
    scaled per-area voltage deviations (see module docstring); its declared
    contraction factor, its self-map box, and the approximation error bound
    are all derived analytically, so the assumption audits hold by
    construction.

    The build makes no whole-network family. The exact base's
    ``fixed_point`` does, when the reference asks for the fixed points: it
    solves the whole network's map (:func:`build_loadflow_map` under the
    max norm, at its default radius) for every time in one batched solve
    and encodes the voltages. Where that map does not certify it returns
    None, and the reference is the batched solve of the stacked map.
    """
    if injections.n != net.n:
        raise PreconditionError("injection series does not match the network size")
    if np.any(injections.max_abs > net.injection_limit):
        raise PreconditionError("injection series exceeds the network's limits")
    nb = float(noise_bound)
    if nb < 0.0:
        raise PreconditionError("noise bound must be nonnegative")
    order, conn_pos, root_pos, link_z, y = _parse_chain(net)
    bus_area = net.areas[order] - 1
    sizes = np.bincount(bus_area)
    k_areas = len(sizes)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    # Each area's impedance matrix is a diagonal block of Z, inverted one by one.
    # With no shunt admittance the cut rows sum to zero, so an area's no-load
    # profile is its slack voltage at every bus, exactly.
    Z = np.zeros((net.n, net.n), dtype=complex)
    for k, block in enumerate(map(slice, starts, starts + sizes)):
        try:
            Z[block, block] = np.linalg.inv(y[1:, 1:][block, block])
        except np.linalg.LinAlgError as exc:
            raise PartitionUnsupportedError(f"area {k + 1} is internally disconnected") from exc

    v0 = net.slack_voltage
    root2 = np.sqrt(2.0)

    # Constant per-area quantities for the certification inequalities.
    absZ = np.abs(Z)
    y_link = 1.0 / np.abs(link_z)
    colZ = absZ[:, conn_pos].max(axis=0)
    limits = net.injection_limit[order]

    def closure(H):
        """One round of the self-map inequalities: H -> required half-widths."""
        dev = root2 * H  # modulus deviation caps per area
        vmax = abs(v0) + dev
        vmin = float(abs(v0) - dev.max())
        if vmin <= max(_GUARD, 0.05):
            return None, None
        gaps = dev[:-1] + dev[1:]
        s_eff = limits.copy()
        s_eff[conn_pos] += vmax[:-1] * y_link * gaps + nb
        load = np.maximum.reduceat(absZ @ s_eff, starts)
        # an upstream slack shift moves the whole downstream area one for one
        upstream = np.concatenate([[0.0], H[:-1]])
        return upstream + load / vmin, (vmin, vmax, gaps, load)

    H = np.full(k_areas, 1e-4)
    for _ in range(_MAX_ROUNDS):
        new_H, _ = closure(H)
        if new_H is None:
            raise ContractionUncertifiedError(
                "self-map certification failed: voltage margins collapsed"
            )
        closed = np.max(np.abs(new_H - H)) <= 1e-11 * (1.0 + H.max())
        H = np.maximum(H, new_H)
        if closed:
            break
    else:
        raise ContractionUncertifiedError("self-map box did not close; couplings too strong")
    H = _MARGIN * H  # slack so the certified box strictly contains the reachable set
    new_H, aux = closure(H)
    if new_H is None or np.any(new_H > H):
        raise ContractionUncertifiedError("self-map box did not stabilize under the margin")
    vmin, vmax, gaps, load = aux

    # Inter-area gain matrix (flat max-norm, unscaled coordinates).
    link = np.arange(k_areas - 1)
    G = np.diag(load * root2 / vmin**2)
    G[link, link] += colZ * y_link * (gaps + vmax[:-1]) * root2 / vmin
    G[link, link + 1] = colZ * y_link * vmax[1:] * root2 / vmin
    G[link + 1, link] = 1.0

    # Perron weights equalize the weighted row sums at the spectral radius.
    evals, evecs = np.linalg.eig(G)
    idx = int(np.argmax(evals.real))
    w = np.abs(evecs[:, idx].real)
    if np.any(w <= 0.0):
        w = np.ones(k_areas)
        for _ in range(500):
            w = G @ w + 1e-12
            w /= w.max()
    omega = w[0] / w  # scale so area 1 keeps unit coordinates
    scaled = G * (omega[:, None] / omega[None, :])
    declared = float(scaled.sum(axis=1).max())
    if declared >= _CONTRACTION_CAP:
        raise ContractionUncertifiedError(
            f"stacked multi-area map not certified: declared factor {declared:.4f} "
            f">= cap {_CONTRACTION_CAP}"
        )

    noload = net.noload[order]
    weight = np.repeat(omega[bus_area], 2)
    bus_weight = omega[bus_area].astype(complex)  # a complex divisor casts nothing
    half = np.repeat((omega * H)[bus_area], 2)

    def boundary_noise(ts, last, rng):
        u = rng.random((len(ts), 2, k_areas - 1))  # per tick: radii, then angles
        return nb * np.sqrt(u[:, 0]) * np.exp(1j * (2.0 * np.pi * u[:, 1]))

    table = SeriesTable(boundary_noise, (seed, 29))
    # the injections in state order, filled as the series is
    state_injections = SeriesTable(lambda ts, last: injections.at(ts)[:, order])

    def stacked(x, t, noisy):
        """All areas' maps at a state of shape (m,) or at each row of (k, m)."""
        v = noload + to_complex(x) / bus_weight
        if np.abs(v).min() < _GUARD:
            raise DomainViolationError("voltage magnitude fell below the guard")
        # area 1's slack is the substation, area k's the connection bus of area k-1
        slack = np.empty(v.shape[:-1] + (k_areas,), dtype=complex)
        slack[..., 0] = v0
        v_conn = slack[..., 1:]
        v_conn[...] = v.take(conn_pos, axis=-1)
        # power flowing into area k+1, measured at area k's connection bus
        meas = v_conn * np.conj((v_conn - v.take(root_pos, axis=-1)) / link_z)
        if noisy and nb > 0.0:
            meas += nb if adversarial else table.at(t)
        s = state_injections.at(t)
        s_eff = np.empty_like(v)
        s_eff[...] = s
        s_eff[..., conn_pos] = s.take(conn_pos, axis=-1) - meas
        u = slack.take(bus_area, axis=-1) + _times_z(np.conj(s_eff / v), Z)
        return to_real(u - noload) * weight

    def exact_map(x, t):
        return stacked(x, t, noisy=False)

    def noisy_map(x, t):
        return stacked(x, t, noisy=True)

    def fixed_point(ts):
        """The whole network's load flow at the times ``ts``, in state coordinates.

        Its fixed points are the stacked map's, and it contracts far faster
        (certified at 0.087 against 0.683 on the three-area feeder: 8-9
        sweeps instead of 26-30). The solve's 1e-13 keeps the stacked map's
        residual far below the reference's 1e-12, which checks these points
        in the stacked map. None when the whole network does not certify.
        """
        try:
            whole = build_loadflow_map(net, injections, norm=Norm(LINF))
        except ContractionUncertifiedError:
            return None
        anchors = np.broadcast_to(whole.domain.anchor(), (len(ts), whole.dim))
        v = solve_fixed_point(whole, ts, anchors, tol=1e-13, norm=Norm(LINF))
        return system.encode(to_complex(v))

    base = MapFamily(
        dim=len(half),
        domain=Domain.box(-half, half),
        evaluate=exact_map,
        lipschitz=declared,
        fixed_point=fixed_point,
        declared_norm=Norm(LINF),
        name=f"multiarea-loadflow-k{k_areas}",
    )
    err = float(np.max(omega[:-1] * colZ * nb / vmin, initial=0.0))
    family = InexactMapFamily(base, noisy_map, err,
                              name=f"multiarea-loadflow-feedback-k{k_areas}")

    edges = []
    for k in range(k_areas):
        if k > 0:
            edges.append((k - 1, k))  # upstream boundary voltage
        if k < k_areas - 1:
            edges.append((k + 1, k))  # downstream state behind the measurement
    graph = DependencyGraph(2 * sizes, edges)

    system = MultiAreaSystem(family, graph, order, noload, weight)  # fixed_point encodes with it
    return system


# ---------------------------------------------------------------------------
# Built-in networks
# ---------------------------------------------------------------------------


def two_bus_network(line_impedance=0.05, injection_limit=0.4, slack_voltage=1.0) -> PowerNetwork:
    """Slack plus one load bus; with real parameters the fixed point solves
    the scalar quadratic v(v - slack) = z * s in closed form."""
    return PowerNetwork(
        1, slack_voltage, [(0, 1, line_impedance)], [injection_limit]
    )


def three_area_network() -> PowerNetwork:
    """Synthetic 12-bus radial feeder split into three areas of four buses.

    Impedances and injection limits are chosen so every analytic certificate
    in this module closes with margin: stiff lines inside areas, a moderate
    link between areas 1 and 2, a weak link between areas 2 and 3, and
    injection limits that taper down the chain.
    """
    z_in = 0.0012 + 0.0006j
    z_12 = 0.11 + 0.033j
    z_23 = 0.9 + 0.27j
    lines = [
        (0, 1, z_in), (1, 2, z_in), (2, 3, z_in), (3, 4, z_in),
        (4, 5, z_12),
        (5, 6, z_in), (6, 7, z_in), (7, 8, z_in),
        (8, 9, z_23),
        (9, 10, z_in), (10, 11, z_in), (11, 12, z_in),
    ]
    limits = [0.02] * 4 + [0.012] * 4 + [0.006] * 4
    areas = [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]
    return PowerNetwork(12, 1.0, lines, limits, areas=areas)


def default_injections(net: PowerNetwork, load_fraction=0.7, kind="constant",
                       step=0.0, seed=0, rate=0.0) -> InjectionSeries:
    """Loads (negative injections) at a fraction of each bus limit."""
    base = -load_fraction * net.injection_limit * (0.95 + 0.05j) / abs(0.95 + 0.05j)
    return InjectionSeries(kind, base, net.injection_limit, step=step, seed=seed, rate=rate)
