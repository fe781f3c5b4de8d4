"""Affine oracle families: x -> A x + b(t) with exact fixed points and drift.

The driver of every bound certificate test: the fixed point at time t is
known in closed form (the drift path itself, by construction), the induced
contraction factor is set exactly by scaling, and the per-step drift is an
exact, chosen quantity.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from ..async_sim import DependencyGraph
from ..core import MapFamily, SeriesTable, seeded_stream
from ..domains import Domain
from ..errors import PreconditionError
from ..norms import LINF, Norm
from ._paths import DriftPath

COUPLINGS = ("dense", "chain", "diagonal")


class AffineFamily(MapFamily):
    """Map family x -> A x + b(t), with b(t) chosen so the fixed point is a given path.

    The offset b(t) = (I - A) path(t) is one :class:`~fptrack.core.SeriesTable`,
    filled from the path's rows; each row is the product of ``I - A`` with one
    point, so a point and rows read the same bits.

    The family holds A's taps: ``nbr`` and ``coef``, both ``(dim, P)``. Row i
    lists the columns of its nonzeros in ascending order and their
    coefficients, padded to the common width P by the row's own column with
    coefficient 0.0. P is 3 on a chain and 1 on a diagonal A. With
    ``offset``, the table of b(t), they give the map at a point x as
    ``einsum("ip,ip->i", x[nbr], coef) + offset.at(t)``, which is how the
    simulator runs a tick. The taps are kept only when
    :func:`_sums_like_points` finds that this sum adds each row's terms in
    the order of a point call; otherwise, and whenever that check would
    probe more than ``_PROBED_WIDTH`` taps, they list every column (P is
    dim), as they do for a dense A.
    """

    def __init__(self, A, path: DriftPath, norm: Norm, **kwargs):
        self.A = np.asarray(A, dtype=float)
        self.path = path
        m = self.A.shape[0]
        eye_minus_A = np.eye(m) - self.A
        # a stack of matrix-vector products, each one as `eye_minus_A @ point`
        self.offset = offset = SeriesTable(
            lambda ts, last: np.matmul(eye_minus_A, path.point(ts)[..., None])[..., 0])

        def evaluate(x, t):
            # einsum sums each output in one order for a point or any number of rows
            return np.einsum("...j,ij->...i", x, self.A) + offset.at(t)

        super().__init__(
            dim=m,
            domain=Domain.all_space(m),
            evaluate=evaluate,
            fixed_point=path.point,
            declared_norm=norm,
            **kwargs,
        )
        self.nbr, self.coef = _taps(self.A)

    def dependency_graph(self) -> DependencyGraph:
        """Scalar-agent graph with an edge (j, i) wherever A[i, j] couples two agents."""
        i, j = np.argwhere(self.A != 0.0).T
        off = i != j
        return DependencyGraph([1] * self.dim, np.stack((j[off], i[off]), axis=1))


# Widest sparse taps whose sum order is probed: at most C(8, 3) = 56 triples.
_PROBED_WIDTH = 8


def _taps(A):
    """``(nbr, coef)`` of A: each row's nonzero columns in ascending order and
    their coefficients, padded by the row's own column with 0.0, or every
    column when those taps would not sum like a point call."""
    dim = len(A)
    nonzero = A != 0.0
    width = max(int(nonzero.sum(axis=1).max(initial=0)), 1)
    if width < dim and width <= _PROBED_WIDTH:
        i, j = nonzero.nonzero()  # row-major, so each row's columns ascend
        slot = np.cumsum(nonzero, axis=1)[i, j] - 1
        nbr = np.repeat(np.arange(dim)[:, None], width, axis=1)
        coef = np.zeros((dim, width))
        nbr[i, slot] = j
        coef[i, slot] = A[i, j]
        if _sums_like_points(nbr, nonzero.sum(axis=1)):
            return nbr, coef
    return np.tile(np.arange(dim), (dim, 1)), A


def _sums_like_points(nbr, count) -> bool:
    """Whether ``einsum("ip,ip->i")`` over the taps ``nbr`` (row i's first
    ``count[i]`` taps its nonzeros) adds each row's terms in the order of
    the point call ``einsum("...j,ij->...i")``.

    Both calls add a row's terms in an order fixed by the positions alone,
    and a zero term changes no sum, so the orders agree when every three
    terms of a row are paired alike. For taps ``(u, v, w)`` the terms
    ``1, -1, 2**-60`` sum to ``2**-60`` exactly when the terms at ``1`` and
    ``-1`` are added first; two placements of them decide the pairing.
    """
    dim, width = nbr.shape
    rows = np.arange(dim)[:, None]
    for taps in combinations(range(width), 3):
        probed = (count > taps[-1])[:, None]  # rows whose three taps are nonzeros
        for terms in ((1.0, -1.0, 2.0 ** -60), (1.0, 2.0 ** -60, -1.0)):
            coef = np.where(probed, terms, 0.0)
            dense = np.zeros((dim, dim))
            dense[rows, nbr[:, taps]] = coef
            point = np.einsum("...j,ij->...i", np.ones(dim), dense)
            tapped = np.zeros_like(nbr, dtype=float)
            tapped[:, taps] = coef
            if point.tobytes() != np.einsum("ip,ip->i", np.ones(nbr.shape), tapped).tobytes():
                return False
    return True


def _coupling_mask(dim, coupling, rng) -> np.ndarray:
    base = rng.uniform(0.25, 1.0, size=(dim, dim)) * rng.choice([-1.0, 1.0], size=(dim, dim))
    if coupling == "dense":
        return base
    mask = np.zeros((dim, dim))
    for i in range(dim):
        mask[i, i] = 1.0
        if coupling == "chain":
            if i > 0:
                mask[i, i - 1] = 1.0
            if i < dim - 1:
                mask[i, i + 1] = 1.0
    return base * mask


def build_affine_family(dim, norm: Norm, contraction, drift: DriftPath, seed,
                        coupling="dense", blockwise=False) -> AffineFamily:
    """Construct an affine family with an exactly known contraction factor.

    Scaling rules:

    * ``linf``: every row of A is scaled to absolute sum ``contraction``, so
      the induced max-norm factor equals it exactly.
    * ``l2``: A is scaled so its spectral norm equals ``contraction``.
    * ``l2`` with ``blockwise=True``: rows are scaled to equal Euclidean
      length ``contraction / sqrt(dim)``. The declared factor is then the
      row aggregate sqrt(sum of squared row lengths) = ``contraction`` (a
      valid global constant, at least the induced norm), which is the
      constant the refined stale-copy bound is stated for.

    The declared factor is ``contraction`` in every case. The family
    declares no blocks; its asynchronous agents are the scalar agents of
    :meth:`AffineFamily.dependency_graph`.

    ``drift`` prescribes the fixed-point trajectory itself; offsets are
    derived as b(t) = (I - A) path(t), so fixed points and per-step drift are
    exact in the family norm.
    """
    dim = int(dim)
    contraction = float(contraction)
    if not (0.0 < contraction < 1.0):
        raise PreconditionError("contraction target must lie in (0, 1)")
    if coupling not in COUPLINGS:
        raise PreconditionError(f"unknown coupling {coupling!r}; use one of {COUPLINGS}")
    if drift.dim != dim:
        raise PreconditionError("drift path dimension does not match the family")
    rng = seeded_stream(seed, 17)
    R = _coupling_mask(dim, coupling, rng)
    if norm.kind == LINF:
        row_sums = np.abs(R).sum(axis=1)
        A = R * (contraction / row_sums)[:, None]
    elif blockwise:
        row_norms = np.linalg.norm(R, axis=1)
        A = R * (contraction / np.sqrt(dim) / row_norms)[:, None]
    else:
        A = R * (contraction / np.linalg.norm(R, ord=2))
    return AffineFamily(
        A,
        drift,
        norm,
        lipschitz=contraction,
        name=f"affine-{norm.kind}-{coupling}-m{dim}",
    )
