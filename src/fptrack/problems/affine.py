"""Affine oracle families: x -> A x + b(t) with exact fixed points and drift.

The driver of every bound certificate test: the fixed point at time t is
known in closed form (the drift path itself, by construction), the induced
contraction factor is set exactly by scaling, and the per-step drift is an
exact, chosen quantity.
"""
from __future__ import annotations

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
    """

    def __init__(self, A, path: DriftPath, norm: Norm, **kwargs):
        self.A = np.asarray(A, dtype=float)
        self.path = path
        m = self.A.shape[0]
        eye_minus_A = np.eye(m) - self.A
        # a stack of matrix-vector products, each one as `eye_minus_A @ point`
        self._offset = offset = SeriesTable(
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

    def _columns(self, x, t, row_of):
        # entry i is row i of A dotted with the row that column i reads, summed
        # in the order of a point call: one dot product per column, not a rows call
        return np.einsum("ij,ij->i", x.take(row_of, axis=0), self.A) + self._offset.at(t)

    def dependency_graph(self) -> DependencyGraph:
        """Scalar-agent graph with an edge (j, i) wherever A[i, j] couples two agents."""
        i, j = np.argwhere(self.A != 0.0).T
        off = i != j
        return DependencyGraph([1] * self.dim, np.stack((j[off], i[off]), axis=1))


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
