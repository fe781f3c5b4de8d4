"""Declared domains for map families: all of R^m, boxes, and Euclidean balls."""
from __future__ import annotations

import numpy as np

from .errors import PreconditionError, _integer

ALL = "all"
BOX = "box"
BALL = "ball"

# A point within this distance of a box or ball still counts as inside it.
TOL = 1e-9


class Domain:
    """A closed set on which a map family is declared to be a self-map.

    Three kinds are supported:

    * ``all``  -- the whole space R^m,
    * ``box``  -- componentwise bounds lo <= x <= hi (entries may be infinite),
    * ``ball`` -- Euclidean ball of given center and radius.

    Membership tests are total and deterministic, with the tolerance ``TOL``
    added to the bounds once, at construction; boxes and balls have
    closed-form projections.
    """

    def __init__(self, kind, dim, lo=None, hi=None, center=None, radius=None):
        self.kind = kind
        self.dim = _integer(dim, "dimension")
        if self.dim <= 0:
            raise PreconditionError("dimension must be positive")
        if kind == BOX:
            lo = np.asarray(lo, dtype=float).reshape(self.dim)
            hi = np.asarray(hi, dtype=float).reshape(self.dim)
            if (lo > hi).any():
                raise PreconditionError("box requires lo <= hi componentwise")
            self.lo, self.hi = lo, hi
            self._lo_tol, self._hi_tol = lo - TOL, hi + TOL
        elif kind == BALL:
            center = np.asarray(center, dtype=float).reshape(self.dim)
            radius = float(radius)
            if radius <= 0.0:
                raise PreconditionError("ball radius must be positive")
            self.center, self.radius = center, radius
            self._radius_tol = radius + TOL
        elif kind != ALL:
            raise PreconditionError(f"unknown domain kind {kind!r}")

    @classmethod
    def all_space(cls, dim) -> "Domain":
        return cls(ALL, dim)

    @classmethod
    def box(cls, lo, hi) -> "Domain":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        return cls(BOX, lo.size, lo=lo, hi=hi)

    @classmethod
    def ball(cls, center, radius) -> "Domain":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        return cls(BALL, center.size, center=center, radius=radius)

    def _points(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise PreconditionError(f"expected dimension {self.dim}, got shape {x.shape}")
        return x

    def _distance(self, x) -> np.ndarray:
        """Distance to the ball's center, summed in one order for a point or each row."""
        d = x - self.center
        return np.sqrt(np.einsum("...j,...j->...", d, d))

    def contains(self, x):
        """Whether a point ``(dim,)`` lies in the domain, up to ``TOL``; for rows,
        one flag per row."""
        x = self._points(x)
        if self.kind == ALL:
            return np.isfinite(x).all(axis=-1)
        if self.kind == BOX:
            return ((x >= self._lo_tol) & (x <= self._hi_tol)).all(axis=-1)
        return self._distance(x) <= self._radius_tol

    def project(self, x) -> np.ndarray:
        """Euclidean projection of a point, or of each row, onto the domain
        (identity for ``all``); points inside are returned unchanged."""
        x = self._points(x)
        if self.kind == ALL:
            return x.copy()
        if self.kind == BOX:
            return clip(x, self.lo, self.hi)
        r = self._distance(x)[..., None]
        # rows inside keep x; the maximum keeps their unused quotient finite at the center
        outside = self.center + (x - self.center) * (self.radius / np.maximum(r, self.radius))
        return np.where(r <= self.radius, x, outside)

    def anchor(self) -> np.ndarray:
        """A canonical interior point (used for warm starts and fallbacks)."""
        if self.kind == ALL:
            return np.zeros(self.dim)
        if self.kind == BOX:
            lo = np.where(np.isfinite(self.lo), self.lo, -1.0)
            hi = np.where(np.isfinite(self.hi), self.hi, 1.0)
            return 0.5 * lo + 0.5 * hi  # lo + hi may overflow on a finite box
        return self.center.copy()

    def __repr__(self):
        if self.kind == BOX:
            return f"Domain.box(dim={self.dim})"
        if self.kind == BALL:
            return f"Domain.ball(dim={self.dim}, radius={self.radius})"
        return f"Domain.all_space(dim={self.dim})"


def clip(x, lo, hi) -> np.ndarray:
    """``x`` clipped to ``[lo, hi]`` entrywise, in fewer microseconds than
    ``np.clip``. The bits are ``np.clip``'s for a point and for rows of two or
    more entries; on rows of one entry ``np.clip`` flips the sign of some zeros
    against a zero bound, where this keeps the bits of the point call."""
    return np.minimum(np.maximum(x, lo), hi)


def box_width(lo, hi) -> np.ndarray:
    """``hi - lo`` of a box. A finite side wider than the largest float cannot
    be sampled uniformly and raises :class:`PreconditionError` naming it."""
    with np.errstate(over="ignore"):
        width = hi - lo
    wide = np.flatnonzero(np.isfinite(lo) & np.isfinite(hi) & np.isinf(width))
    if wide.size:
        i = wide[0]
        raise PreconditionError(f"box side {i} [{lo[i]:g}, {hi[i]:g}] is wider than the "
                                "largest float, so it cannot be sampled uniformly")
    return width


class DomainSampler:
    """Seeded uniform-ish sampler over a domain.

    Boxes are sampled uniformly (infinite sides fall back to a normal of the
    given ``scale`` around the anchor); balls uniformly by volume; the whole
    space by an isotropic normal of the given ``scale``. A box with a finite
    side wider than the largest float cannot be sampled uniformly and raises
    :class:`PreconditionError` naming the side.
    """

    def __init__(self, domain: Domain, seed: int, scale: float = 1.0):
        self.domain = domain
        self.seed = _integer(seed, "seed")
        self.scale = float(scale)
        self._rng = np.random.default_rng(np.random.SeedSequence([self.seed]))
        if domain.kind == BOX:
            self._finite = np.isfinite(domain.lo) & np.isfinite(domain.hi)
            self._width = box_width(domain.lo, domain.hi)

    def draw(self, n: int) -> np.ndarray:
        """``n`` seeded points of the domain, one per row.

        A box whose sides are all finite is one pass, ``lo + (hi - lo) * u``
        over a ``(n, dim)`` table of uniform draws ``u``: numpy's own formula
        for ``Generator.uniform``, so the points are its bits from the same
        stream.
        """
        d = self.domain
        n = _integer(n, "sample count")
        if n < 0:
            raise PreconditionError(f"sample count must be nonnegative; got {n}")
        if d.kind == BOX:
            finite = self._finite
            if finite.all():
                return d.lo + self._width * self._rng.random((n, d.dim))
            out = np.empty((n, d.dim))
            if np.any(finite):
                out[:, finite] = self._rng.uniform(
                    d.lo[finite], d.hi[finite], size=(n, int(finite.sum()))
                )
            anchor = d.anchor()[~finite]
            out[:, ~finite] = anchor + self.scale * self._rng.standard_normal(
                (n, int((~finite).sum()))
            )
            return out
        if d.kind == BALL:
            g = self._rng.standard_normal((n, d.dim))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            r = d.radius * self._rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / d.dim)
            return d.center + g * r
        return self.scale * self._rng.standard_normal((n, d.dim))

    def draw_one(self) -> np.ndarray:
        return self.draw(1)[0]
