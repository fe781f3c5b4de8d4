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
from ..core import InexactMapFamily, MapFamily, seeded_stream, solve_fixed_point
from ..domains import Domain
from ..errors import (
    ContractionUncertifiedError,
    DomainViolationError,
    PartitionUnsupportedError,
    PreconditionError,
)
from ..norms import L2, LINF, Norm


def to_real(v: np.ndarray) -> np.ndarray:
    """Interleave a complex vector, or each row, as [re0, im0, re1, im1, ...]."""
    v = np.asarray(v, dtype=complex)
    return np.stack([v.real, v.imag], axis=-1).reshape(*v.shape[:-1], -1)


def to_complex(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_real`, for a vector or each row."""
    x = np.asarray(x, dtype=float)
    return x[..., 0::2] + 1j * x[..., 1::2]


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
        y_full = np.zeros((self.n + 1, self.n + 1), dtype=complex)
        for (a, b, z) in self.lines:
            if not (0 <= a <= self.n and 0 <= b <= self.n) or a == b:
                raise PreconditionError(f"line ({a}, {b}) references invalid buses")
            if z == 0:
                raise PreconditionError("line impedance must be nonzero")
            y = 1.0 / z
            y_full[a, a] += y
            y_full[b, b] += y
            y_full[a, b] -= y
            y_full[b, a] -= y
        self.Y_ll = y_full[1:, 1:]
        self.Y_l0 = y_full[1:, 0]
        try:
            self.Z = np.linalg.inv(self.Y_ll)
        except np.linalg.LinAlgError as exc:  # disconnected load bus, usually
            raise PreconditionError("load-bus admittance matrix is singular") from exc
        self.noload = -self.Z @ self.Y_l0 * self.slack_voltage

    def __repr__(self):
        return f"<PowerNetwork n={self.n} lines={len(self.lines)}>"


class InjectionSeries:
    """Time-varying complex injections, kept within the per-bus limits.

    Kinds: ``constant``; ``random_walk`` (seeded complex steps of modulus
    ``step``, clamped back to the per-bus modulus cap); ``ramp`` (each bus
    scales as ``base * (1 + rate * (t - 1))``, saturating at its cap --
    ``rate`` may be a per-bus array, so variation can be concentrated in a
    subset of buses).
    """

    def __init__(self, kind, base, limit, step=0.0, seed=0, rate=0.0):
        if kind not in ("constant", "random_walk", "ramp"):
            raise PreconditionError(
                "injection kind must be 'constant', 'random_walk', or 'ramp'"
            )
        self.kind = kind
        self.base = np.asarray(base, dtype=complex)
        self.limit = np.asarray(limit, dtype=float).reshape(self.base.shape)
        if np.any(np.abs(self.base) > self.limit + 1e-12):
            raise PreconditionError("base injections exceed the declared limits")
        self.step = float(step)
        self.seed = int(seed)
        self.rate = np.broadcast_to(np.asarray(rate, dtype=float), self.base.shape).copy()
        self._walk = [self.base.copy()]

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
        t = int(t)
        if t < 1:
            raise PreconditionError("time indices start at 1")
        if self.kind == "constant":
            return self.base.copy()
        if self.kind == "ramp":
            s = self.base * (1.0 + self.rate * (t - 1))
            mag = np.abs(s)
            over = mag > self.limit
            if np.any(over):
                s[over] *= self.limit[over] / mag[over]
            return s
        while len(self._walk) < t:
            k = len(self._walk)
            rng = seeded_stream(self.seed, 23, k)
            angle = rng.uniform(0.0, 2.0 * np.pi, size=self.n)
            s = self._walk[-1] + self.step * np.exp(1j * angle)
            mag = np.abs(s)
            over = mag > self.limit
            if np.any(over):
                s[over] = s[over] * (self.limit[over] / mag[over])
            self._walk.append(s)
        return self._walk[t - 1].copy()


# ---------------------------------------------------------------------------
# Monolithic load-flow family
# ---------------------------------------------------------------------------


class LoadflowFamily(MapFamily):
    """Monolithic Z-bus fixed-point family over flattened voltages."""

    def __init__(self, net, injections, guard, **kwargs):
        self.network = net
        self.injections = injections
        self.guard = float(guard)
        noload, Z = net.noload, net.Z

        def evaluate(x, t):
            v = to_complex(x)
            if np.min(np.abs(v)) < self.guard:
                raise DomainViolationError("voltage magnitude fell below the division guard")
            return to_real(noload + np.conj(injections.at(t) / v) @ Z.T)

        super().__init__(
            dim=2 * net.n,
            domain=kwargs.pop("domain"),
            evaluate=evaluate,
            evaluate_batch=evaluate,
            **kwargs,
        )


def build_loadflow_map(net: PowerNetwork, injections: InjectionSeries, radius=0.2,
                       norm: Norm | None = None, guard=1e-6) -> LoadflowFamily:
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
    if np.any(injections.max_abs > net.injection_limit + 1e-12):
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
    if vmin <= max(guard, 0.05):
        raise ContractionUncertifiedError(
            "domain radius leaves no certified voltage-magnitude margin"
        )
    if norm.is_l2:
        zgain = float(np.linalg.norm(net.Z, ord=2))
        lip_factor = zgain / vmin**2
        lip_sup = lip_factor * float(limits.max())
        self_map_reach = zgain * float(np.linalg.norm(limits)) / vmin
        domain = Domain.ball(center, radius)

        def lipschitz(t):
            return lip_factor * float(np.max(np.abs(injections.at(t))))
    else:
        absZ = np.abs(net.Z)
        row_load = absZ @ limits
        lip_sup = float(np.sqrt(2.0) * row_load.max() / vmin**2)
        self_map_reach = float(row_load.max()) / vmin
        domain = Domain.box(center - radius, center + radius)
        absZ_rows = absZ

        def lipschitz(t):
            return float(np.sqrt(2.0) * (absZ_rows @ np.abs(injections.at(t))).max() / vmin**2)

    if lip_sup >= 1.0:
        raise ContractionUncertifiedError(
            f"contraction not certified: analytic factor {lip_sup:.4f} >= 1"
        )
    if self_map_reach > radius:
        raise ContractionUncertifiedError(
            f"self-map not certified: injections can reach {self_map_reach:.4f} "
            f"per-unit from the no-load profile, beyond radius {radius}"
        )
    return LoadflowFamily(
        net,
        injections,
        guard,
        domain=domain,
        lipschitz=lipschitz,
        lipschitz_sup=lip_sup,
        declared_norm=norm,
        name=f"loadflow-n{net.n}-{norm.kind}",
    )


def boundary_injection(v_area_j, v_connection, link_impedance, root_index=0) -> np.ndarray:
    """Complex power flowing into area j at a connection point, as (P, Q).

    ``v_area_j`` holds area j's bus voltages (its link-side bus at
    ``root_index``), ``v_connection`` the upstream connection-point voltage
    (complex scalar or (re, im) pair). The power is measured at the
    connection point: S = v_conn * conj((v_conn - v_root) / z_link).
    """
    v_area_j = np.asarray(v_area_j, dtype=complex).ravel()
    vc = np.asarray(v_connection)
    v_conn = complex(vc) if vc.ndim == 0 else complex(vc.ravel()[0] + 1j * vc.ravel()[1])
    if abs(v_conn) < 1e-6:
        raise DomainViolationError("connection-point voltage magnitude is near zero")
    s = v_conn * np.conj((v_conn - v_area_j[root_index]) / complex(link_impedance))
    return np.array([s.real, s.imag])


# ---------------------------------------------------------------------------
# Multi-area decomposition
# ---------------------------------------------------------------------------


@dataclass
class _Area:
    buses: np.ndarray            # global load-bus indices (0-based), sorted
    Z: np.ndarray                # area impedance matrix, slack = upstream bus
    unit_response: np.ndarray    # no-load profile per unit slack voltage
    conn_local: int | None       # local index of the bus feeding the next area
    root_local: int              # local index of the bus adjacent to the upstream slack
    link_down: complex | None    # impedance of the line to the next area
    limits: np.ndarray


@dataclass
class MultiAreaSystem:
    """Decomposed load flow: family, dependency graph, and coordinate maps."""

    family: InexactMapFamily
    graph: DependencyGraph
    monolithic: LoadflowFamily
    network: PowerNetwork
    areas: list
    weights: np.ndarray          # per-area coordinate scales
    half_widths: np.ndarray      # per-area voltage-deviation box (flat, unscaled)
    gain_matrix: np.ndarray
    declared: float
    error_bound: float

    def encode(self, v: np.ndarray) -> np.ndarray:
        """Voltages (global bus order) -> scaled-deviation state."""
        v = np.asarray(v, dtype=complex)
        parts = []
        for k, area in enumerate(self.areas):
            parts.append(self.weights[k] * to_real(v[area.buses] - self.network.noload[area.buses]))
        return np.concatenate(parts)

    def to_voltages(self, x: np.ndarray) -> np.ndarray:
        """Scaled-deviation state -> complex voltages in global bus order."""
        v = np.empty(self.network.n, dtype=complex)
        offset = 0
        for k, area in enumerate(self.areas):
            nk = len(area.buses)
            block = np.asarray(x[offset : offset + 2 * nk], dtype=float)
            v[area.buses] = self.network.noload[area.buses] + to_complex(block) / self.weights[k]
            offset += 2 * nk
        return v

    def voltage_error(self, x, v_ref) -> float:
        """Max per-unit voltage deviation of a state from reference voltages."""
        return float(np.max(np.abs(self.to_voltages(x) - np.asarray(v_ref, dtype=complex))))


def _parse_chain(net: PowerNetwork):
    if net.areas is None:
        raise PartitionUnsupportedError("network has no area assignment")
    ids = sorted(set(int(a) for a in net.areas))
    if ids != list(range(1, len(ids) + 1)) or len(ids) < 2:
        raise PartitionUnsupportedError("areas must be labeled 1..K with K >= 2")
    k_areas = len(ids)
    bus_area = np.concatenate([[1], net.areas])  # slack counted with area 1
    links = {}
    internal = {a: [] for a in ids}
    for (a, b, z) in net.lines:
        ra, rb = int(bus_area[a]), int(bus_area[b])
        if ra == rb:
            internal[ra].append((a, b, z))
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
    return k_areas, internal, links


def _area_models(net: PowerNetwork, k_areas, internal, links):
    areas = []
    for aid in range(1, k_areas + 1):
        buses = np.flatnonzero(net.areas == aid) + 1  # global bus numbers
        local = {b: i for i, b in enumerate(buses)}
        if aid == 1:
            slack_bus = 0
            area_lines = list(internal[1])
        else:
            conn, root, z = links[aid - 1]
            slack_bus = conn
            area_lines = list(internal[aid]) + [(conn, root, z)]
        y = np.zeros((len(buses) + 1, len(buses) + 1), dtype=complex)
        # index 0 is the area slack, 1.. are the area buses
        def li(b):
            return 0 if b == slack_bus else local[b] + 1
        for (a, b, z) in area_lines:
            ia, ib = li(a), li(b)
            adm = 1.0 / z
            y[ia, ia] += adm
            y[ib, ib] += adm
            y[ia, ib] -= adm
            y[ib, ia] -= adm
        y_ll, y_l0 = y[1:, 1:], y[1:, 0]
        try:
            Zk = np.linalg.inv(y_ll)
        except np.linalg.LinAlgError as exc:
            raise PartitionUnsupportedError(f"area {aid} is internally disconnected") from exc
        unit = -Zk @ y_l0
        conn_local = None
        link_down = None
        if aid in links:
            conn_bus = links[aid][0]
            if int(net.areas[conn_bus - 1]) != aid:
                raise PartitionUnsupportedError("connection bus must belong to the upstream area")
            conn_local = local[conn_bus]
            link_down = links[aid][2]
        root_local = 0 if aid == 1 else local[links[aid - 1][1]]
        areas.append(
            _Area(
                buses=buses - 1,  # back to 0-based load-bus indexing
                Z=Zk,
                unit_response=unit,
                conn_local=conn_local,
                root_local=root_local,
                link_down=link_down,
                limits=net.injection_limit[buses - 1],
            )
        )
    return areas


def build_multiarea_maps(net: PowerNetwork, injections: InjectionSeries, noise_bound, seed,
                         guard=1e-6, margin=1.05, max_rounds=300,
                         contraction_cap=0.95, ref_tol=1e-13,
                         adversarial=False) -> MultiAreaSystem:
    """Per-area load-flow maps with measured boundary injections.

    Area k treats the upstream connection voltage as its slack (communicated
    from area k-1) and subtracts the measured power flowing into area k+1 at
    its own connection bus (the measurement reads area k+1's state, so it is
    modeled as information on the edge k+1 -> k). With K areas the dependency
    edges are (k-1 -> k) and (k+1 -> k) along the chain; for three areas,
    {(2,1), (1,2), (3,2), (2,3)} in 1-based area labels.

    Measurement noise is complex, of modulus at most ``noise_bound``, seeded
    per step (``adversarial`` switches to a constant offset of exactly that
    modulus, which makes steady-state bounds near-tight). The returned
    system's family iterates scaled per-area voltage deviations (see module
    docstring); its declared contraction factor, its self-map box, and the
    approximation error bound are all derived analytically, so the assumption
    audits hold by construction.
    """
    if injections.n != net.n:
        raise PreconditionError("injection series does not match the network size")
    if np.any(injections.max_abs > net.injection_limit + 1e-12):
        raise PreconditionError("injection series exceeds the network's limits")
    nb = float(noise_bound)
    if nb < 0.0:
        raise PreconditionError("noise bound must be nonnegative")
    k_areas, internal, links = _parse_chain(net)
    areas = _area_models(net, k_areas, internal, links)
    center = net.noload
    v0 = net.slack_voltage

    # Constant per-area quantities for the certification inequalities.
    absZ = [np.abs(a.Z) for a in areas]
    unit_flat_gain = np.array(
        [np.max(np.abs(a.unit_response.real) + np.abs(a.unit_response.imag)) for a in areas]
    )
    base_misfit = []
    for k, a in enumerate(areas):
        if k == 0:
            profile = a.unit_response * v0
        else:
            profile = a.unit_response * center[areas[k - 1].buses[areas[k - 1].conn_local]]
        base_misfit.append(float(np.max(np.abs(profile - center[a.buses]))))
    base_misfit = np.array(base_misfit)
    y_link = np.array([1.0 / abs(a.link_down) if a.link_down is not None else 0.0 for a in areas])
    colZ = np.array(
        [np.max(absZ[k][:, a.conn_local]) if a.conn_local is not None else 0.0
         for k, a in enumerate(areas)]
    )
    cmag = np.abs(center)
    root2 = np.sqrt(2.0)

    def closure(H):
        """One round of the self-map inequalities: H -> required half-widths."""
        dev = root2 * H  # modulus deviation caps per area
        vmax = np.array([np.max(cmag[a.buses]) for a in areas]) + dev
        vmin = float(min(np.min(cmag[a.buses]) for a in areas) - dev.max())
        if vmin <= max(guard, 0.05):
            return None, None, None
        gaps = np.zeros(k_areas)
        meas_mag = np.zeros(k_areas)
        for k, a in enumerate(areas):
            if a.conn_local is None:
                continue
            down = areas[k + 1]
            cgap = abs(center[a.buses[a.conn_local]] - center[down.buses[down.root_local]])
            gaps[k] = dev[k] + cgap + dev[k + 1]
            meas_mag[k] = vmax[k] * y_link[k] * gaps[k] + nb
        new_H = np.zeros(k_areas)
        seff = []
        for k, a in enumerate(areas):
            s_eff = a.limits.copy()
            if a.conn_local is not None:
                s_eff[a.conn_local] += meas_mag[k]
            seff.append(s_eff)
            reach = float(np.max(absZ[k] @ s_eff)) / vmin
            upstream = unit_flat_gain[k] * H[k - 1] if k > 0 else 0.0
            new_H[k] = upstream + base_misfit[k] + reach
        return new_H, (vmin, vmax, gaps, seff), meas_mag

    H = np.full(k_areas, 1e-4)
    for _ in range(int(max_rounds)):
        new_H, _, _ = closure(H)
        if new_H is None:
            raise ContractionUncertifiedError(
                "self-map certification failed: voltage margins collapsed"
            )
        if np.max(np.abs(new_H - H)) <= 1e-11 * (1.0 + H.max()):
            H = np.maximum(H, new_H)
            break
        H = np.maximum(H, new_H)
    else:
        raise ContractionUncertifiedError("self-map box did not close; couplings too strong")
    H = margin * H  # slack so the certified box strictly contains the reachable set
    new_H, aux, _ = closure(H)
    if new_H is None or np.any(new_H > H):
        raise ContractionUncertifiedError("self-map box did not stabilize under the margin")
    vmin, vmax, gaps, seff = aux

    # Inter-area gain matrix (flat max-norm, unscaled coordinates).
    G = np.zeros((k_areas, k_areas))
    for k, a in enumerate(areas):
        denom = float(np.max(absZ[k] @ seff[k])) * root2 / vmin**2
        G[k, k] += denom
        if a.conn_local is not None:
            own_meas = colZ[k] * y_link[k] * (gaps[k] + vmax[k]) * root2 / vmin
            G[k, k] += own_meas
            G[k, k + 1] += colZ[k] * y_link[k] * vmax[k + 1] * root2 / vmin
        if k > 0:
            G[k, k - 1] += unit_flat_gain[k]

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
    if declared >= contraction_cap:
        raise ContractionUncertifiedError(
            f"stacked multi-area map not certified: declared factor {declared:.4f} "
            f">= cap {contraction_cap}"
        )

    # Scaled-coordinate domain box and the index arrays of the stacked map:
    # the state holds area 1's buses, then area 2's, ..., each as (re, im).
    sizes = [len(a.buses) for a in areas]
    block_sizes = [2 * size for size in sizes]
    bus_area = np.repeat(np.arange(k_areas), sizes)
    bus_start = np.concatenate([[0], np.cumsum(sizes)])
    half = np.repeat((omega * H)[bus_area], 2)
    domain = Domain.box(-half, half)
    bus_order = np.concatenate([a.buses for a in areas])
    centers = center[bus_order]
    bus_weight = omega[bus_area]
    state_weight = np.repeat(bus_weight, 2)
    conn_pos = np.array([bus_start[k] + a.conn_local for k, a in enumerate(areas[:-1])])
    root_pos = np.array([bus_start[k] + a.root_local for k, a in enumerate(areas) if k > 0])
    link_z = np.array([a.link_down for a in areas[:-1]])
    unit_response = np.concatenate([a.unit_response for a in areas])
    Z_blocks = np.zeros((len(bus_order), len(bus_order)), dtype=complex)
    for k, a in enumerate(areas):
        Z_blocks[bus_start[k] : bus_start[k + 1], bus_start[k] : bus_start[k + 1]] = a.Z

    def noise_draw(t, k):
        if adversarial:
            return complex(nb)
        rng = seeded_stream(seed, 29, t, k)
        return nb * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))

    def stacked(x, t, noisy):
        """All areas' maps at a state of shape (m,) or at each row of (k, m)."""
        v = centers + to_complex(x) / bus_weight
        if np.min(np.abs(v)) < guard:
            raise DomainViolationError("voltage magnitude fell below the guard")
        # power flowing into area k+1, measured at area k's connection bus
        v_conn = v[..., conn_pos]
        meas = v_conn * np.conj((v_conn - v[..., root_pos]) / link_z)
        if noisy and nb > 0.0:
            meas += [noise_draw(t, k) for k in range(k_areas - 1)]
        s_eff = np.empty_like(v)
        s_eff[...] = injections.at(t)[bus_order]
        s_eff[..., conn_pos] -= meas
        # area 1's slack is the substation, area k's the connection bus of area k-1
        slack = np.concatenate([np.full(v.shape[:-1] + (1,), v0, dtype=complex), v_conn],
                               axis=-1)[..., bus_area]
        v_new = slack * unit_response + np.conj(s_eff / v) @ Z_blocks.T
        return to_real(v_new - centers) * state_weight

    def exact_map(x, t):
        return stacked(x, t, noisy=False)

    def noisy_map(x, t):
        return stacked(x, t, noisy=True)

    base = MapFamily(
        dim=len(half),
        domain=domain,
        evaluate=exact_map,
        lipschitz=declared,
        block_sizes=block_sizes,
        evaluate_batch=exact_map,
        declared_norm=Norm(LINF),
        name=f"multiarea-loadflow-k{k_areas}",
    )
    err = float(max(
        (omega[k] * colZ[k] * nb / vmin) if areas[k].conn_local is not None else 0.0
        for k in range(k_areas)
    ))
    family = InexactMapFamily(
        base,
        noisy_map,
        err,
        norm=Norm(LINF),
        evaluate_batch=noisy_map,
        name=f"multiarea-loadflow-feedback-k{k_areas}",
    )

    edges = []
    for k in range(k_areas):
        if k > 0:
            edges.append((k - 1, k))  # upstream boundary voltage
        if k < k_areas - 1:
            edges.append((k + 1, k))  # downstream state behind the measurement
    graph = DependencyGraph(block_sizes, edges)

    mono = build_loadflow_map(
        net,
        injections,
        radius=float(root2 * H.max() + 0.05),
        norm=Norm(LINF),
        guard=guard,
    )

    system = MultiAreaSystem(
        family=family,
        graph=graph,
        monolithic=mono,
        network=net,
        areas=areas,
        weights=omega,
        half_widths=H,
        gain_matrix=G,
        declared=declared,
        error_bound=err,
    )

    cache = {}

    def fixed_point(t):
        enc = cache.get(t)
        if enc is None:
            warm = cache.get("warm", to_real(center))
            sol = solve_fixed_point(mono, t, warm, tol=ref_tol, max_iter=10_000)
            cache["warm"] = sol
            enc = system.encode(to_complex(sol))
            cache[t] = enc
        return enc.copy()

    base.fixed_point = fixed_point
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
                       step=0.0, seed=0) -> InjectionSeries:
    """Loads (negative injections) at a fraction of each bus limit."""
    base = -load_fraction * net.injection_limit * (0.95 + 0.05j) / abs(0.95 + 0.05j)
    return InjectionSeries(kind, base, net.injection_limit, step=step, seed=seed)
