"""Flat-torus parameter space: periodic wrapping and geodesic distance."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["TorusDomain"]

# inward margin of first_seam_radii, as a fraction of the side length
SEAM_MARGIN = 1e-9


@dataclass(frozen=True, init=False)
class TorusDomain:
    """Compact box ``[0, s_i)`` per dimension with opposite faces identified.

    Straight-line motion ``theta + t * v`` is realized exactly by wrapping the
    endpoint back into the box, so the geometry never needs a retraction or
    boundary reflection. Instances are immutable and safe to share.

    Args:
        dim: number of coordinates, >= 1.
        side_lengths: positive extent per dimension; a scalar is broadcast.
    """

    dim: int
    side_lengths: tuple[float, ...]

    def __init__(self, dim: int, side_lengths: float | Sequence[float]):
        if int(dim) != dim or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        sides = np.atleast_1d(np.asarray(side_lengths, dtype=float))
        if sides.size == 1 and dim > 1:
            sides = np.full(int(dim), float(sides[0]))
        if sides.shape != (int(dim),):
            raise ValueError(
                f"expected {dim} side lengths, got shape {sides.shape}"
            )
        if not np.all(np.isfinite(sides)) or np.any(sides <= 0.0):
            raise ValueError("side lengths must be positive and finite")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "side_lengths", tuple(float(s) for s in sides))
        arr = sides.astype(float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "_sides", arr)
        object.__setattr__(self, "_least_side", float(arr.min()))
        object.__setattr__(self, "_seam_margin", SEAM_MARGIN * arr)

    @property
    def sides(self) -> np.ndarray:
        """Side lengths as a read-only array of shape (dim,)."""
        return self._sides  # type: ignore[attr-defined]

    def _check_points(self, arr: np.ndarray, what: str) -> None:
        if arr.ndim == 0 or arr.shape[-1] != self.dim:
            raise ValueError(
                f"{what} must have last axis of length {self.dim}, "
                f"got shape {arr.shape}"
            )

    def wrap(self, raw) -> np.ndarray:
        """Reduce each coordinate modulo its side length into ``[0, s_i)``.

        Idempotent and exact for points already in the box; works on any
        array with a trailing coordinate axis. When every coordinate lies
        strictly inside the box, which ``np.mod`` would leave unchanged, the
        input array itself is returned.
        """
        raw = np.asarray(raw, dtype=float)
        self._check_points(raw, "point")
        if raw.size and raw.min() > 0.0 and raw.max() < self._least_side:
            return raw
        # only coordinates that left the box (or sit on 0.0, which np.mod
        # turns into +0.0) are reduced
        out = (raw <= 0.0) | (raw >= self.sides)
        sides = np.broadcast_to(self.sides, raw.shape)[out]
        wrapped = np.mod(raw[out], sides)
        result = raw.copy()
        # float mod of a tiny negative lands exactly on the side length
        result[out] = np.where(wrapped >= sides, 0.0, wrapped)
        return result

    def distance(self, a, b):
        """Geodesic distance: Euclidean norm of the per-coordinate minimal
        signed differences. Symmetric, bounded by ``diameter()``."""
        a = self.wrap(a)
        b = self.wrap(b)
        delta = np.abs(a - b)
        delta = np.minimum(delta, self.sides - delta)
        return np.linalg.norm(delta, axis=-1)

    def diameter(self) -> float:
        """Largest geodesic distance: half the norm of the side-length vector."""
        return 0.5 * float(np.linalg.norm(self.sides))

    def sample_uniform(self, generator: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Uniform point(s) in the box; shape (dim,) or (size, dim)."""
        shape = (self.dim,) if size is None else (int(size), self.dim)
        return generator.random(shape) * self.sides

    def ray_seam_radii(self, start, direction, length: float) -> np.ndarray:
        """Radii in (0, length) where ``start + r*direction`` crosses a seam.

        Functions of wrapped coordinates may jump at these radii even when
        they are smooth inside the box, so quadrature along rays should treat
        them as breakpoints. ``start`` is taken inside the box; crossings of
        each coordinate hitting a multiple of its side length are merged and
        sorted.
        """
        start = self.wrap(start)
        direction = np.asarray(direction, dtype=float)
        self._check_points(direction, "direction")
        if not (math.isfinite(length) and length > 0.0):
            raise ValueError("length must be positive and finite")
        crossings: list[np.ndarray] = []
        for i in range(self.dim):
            v = direction[i]
            if v == 0.0:
                continue
            side = float(self.sides[i])
            lo = (0.0 - start[i]) / v if v < 0.0 else (side - start[i]) / v
            k_max = int(math.floor((length - lo) / (side / abs(v)))) if lo <= length else -1
            if k_max >= 0:
                crossings.append(lo + np.arange(k_max + 1) * (side / abs(v)))
        if not crossings:
            return np.empty(0)
        radii = np.unique(np.concatenate(crossings))
        return radii[(radii > 0.0) & (radii < length)]

    def first_seam_radii(self, starts: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Radii below which each ray ``start + r*direction`` stays in the box.

        ``starts`` and ``directions`` are (N, dim) with starts inside the box.
        The radius of each row is that of its first seam crossing, moved
        inward so that the coordinates stay ``SEAM_MARGIN * side`` clear of
        the seam, far more than floating-point rounding of ``start +
        r*direction`` can cross; it is <= 0 where a start lies on that
        margin and +inf for a zero direction.
        """
        room = np.where(directions > 0.0, self.sides - starts, starts)
        room -= self._seam_margin
        speed = np.abs(directions)
        # laid out (dim, N), so that the minimum over the axes runs along rows
        radii = np.full(room.shape[::-1], np.inf)
        np.divide(room.T, speed.T, out=radii, where=speed.T > 0.0)
        return radii.min(axis=0)
