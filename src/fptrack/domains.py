"""Declared domains for map families: all of R^m, boxes, and Euclidean balls."""
from __future__ import annotations

import numpy as np

from .errors import PreconditionError

ALL = "all"
BOX = "box"
BALL = "ball"


class Domain:
    """A closed set on which a map family is declared to be a self-map.

    Three kinds are supported:

    * ``all``  -- the whole space R^m,
    * ``box``  -- componentwise bounds lo <= x <= hi (entries may be infinite),
    * ``ball`` -- Euclidean ball of given center and radius.

    Membership tests are total and deterministic; boxes and balls have
    closed-form projections.
    """

    def __init__(self, kind, dim, lo=None, hi=None, center=None, radius=None):
        self.kind = kind
        self.dim = int(dim)
        if self.dim <= 0:
            raise PreconditionError("dimension must be positive")
        if kind == BOX:
            lo = np.asarray(lo, dtype=float).reshape(self.dim)
            hi = np.asarray(hi, dtype=float).reshape(self.dim)
            if np.any(lo > hi):
                raise PreconditionError("box requires lo <= hi componentwise")
            self.lo, self.hi = lo, hi
        elif kind == BALL:
            center = np.asarray(center, dtype=float).reshape(self.dim)
            radius = float(radius)
            if radius <= 0.0:
                raise PreconditionError("ball radius must be positive")
            self.center, self.radius = center, radius
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

    def contains(self, x, tol=1e-9) -> bool:
        x = np.asarray(x, dtype=float).reshape(self.dim)
        if self.kind == ALL:
            return bool(np.isfinite(x).all())
        if self.kind == BOX:
            return bool((x >= self.lo - tol).all() and (x <= self.hi + tol).all())
        return bool(np.linalg.norm(x - self.center) <= self.radius + tol)

    def contains_rows(self, m, tol=1e-9) -> np.ndarray:
        m = np.asarray(m, dtype=float).reshape(-1, self.dim)
        if self.kind == ALL:
            return np.all(np.isfinite(m), axis=1)
        if self.kind == BOX:
            return np.all(m >= self.lo - tol, axis=1) & np.all(m <= self.hi + tol, axis=1)
        return np.linalg.norm(m - self.center, axis=1) <= self.radius + tol

    def project(self, x) -> np.ndarray:
        """Euclidean projection onto the domain (identity for ``all``)."""
        x = np.asarray(x, dtype=float).reshape(self.dim)
        if self.kind == ALL:
            return x.copy()
        if self.kind == BOX:
            return np.clip(x, self.lo, self.hi)
        d = x - self.center
        r = np.linalg.norm(d)
        if r <= self.radius:
            return x.copy()
        return self.center + d * (self.radius / r)

    def anchor(self) -> np.ndarray:
        """A canonical interior point (used for warm starts and fallbacks)."""
        if self.kind == ALL:
            return np.zeros(self.dim)
        if self.kind == BOX:
            lo = np.where(np.isfinite(self.lo), self.lo, -1.0)
            hi = np.where(np.isfinite(self.hi), self.hi, 1.0)
            return 0.5 * (lo + hi)
        return self.center.copy()

    def __repr__(self):
        if self.kind == BOX:
            return f"Domain.box(dim={self.dim})"
        if self.kind == BALL:
            return f"Domain.ball(dim={self.dim}, radius={self.radius})"
        return f"Domain.all_space(dim={self.dim})"


class DomainSampler:
    """Seeded uniform-ish sampler over a domain.

    Boxes are sampled uniformly (infinite sides fall back to a normal of the
    given ``scale`` around the anchor); balls uniformly by volume; the whole
    space by an isotropic normal of the given ``scale``.
    """

    def __init__(self, domain: Domain, seed: int, scale: float = 1.0):
        self.domain = domain
        self.seed = int(seed)
        self.scale = float(scale)
        self._rng = np.random.default_rng(np.random.SeedSequence([self.seed]))

    def draw(self, n: int) -> np.ndarray:
        d = self.domain
        n = int(n)
        if d.kind == BOX:
            finite = np.isfinite(d.lo) & np.isfinite(d.hi)
            out = np.empty((n, d.dim))
            if np.any(finite):
                out[:, finite] = self._rng.uniform(
                    d.lo[finite], d.hi[finite], size=(n, int(finite.sum()))
                )
            if np.any(~finite):
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
