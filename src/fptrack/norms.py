"""Vector norms used for contraction declarations, drift, and tracking error."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

L2 = "l2"
LINF = "linf"


@dataclass(frozen=True)
class Norm:
    """A vector norm: ``l2`` or ``linf``."""

    kind: str = L2

    def __post_init__(self):
        if self.kind not in (L2, LINF):
            raise PreconditionError(f"unknown norm kind {self.kind!r}")

    @property
    def is_l2(self) -> bool:
        return self.kind == L2

    @property
    def is_linf(self) -> bool:
        return self.kind == LINF

    def of(self, v) -> float:
        v = np.asarray(v, dtype=float)
        if v.size == 0:
            return 0.0
        if self.kind == L2:
            return float(np.linalg.norm(v.ravel()))
        return float(np.max(np.abs(v)))

    def of_rows(self, m) -> np.ndarray:
        """Norm of each row of a 2-d array."""
        m = np.asarray(m, dtype=float)
        if self.kind == L2:
            return np.linalg.norm(m, axis=1)
        return np.max(np.abs(m), axis=1)

    def __str__(self):
        return self.kind

