"""The closed-form stationary position density of both chains, its sphere
moment constants, deterministic grid normalization, and an independent
rejection-sampling oracle.

The unnormalized density is

    u(theta) = (beta*M + 1/epsilon + E[(cos phi)_+] * beta * ||grad L(theta)||)
               * exp(-beta * L(theta))

where E[(cos phi)_+] is the mean positive part of one coordinate of a uniform
unit vector, i.e. half the mean absolute value ``sphere_cos_abs_mean(d)``.
The floor ``beta*M + 1/epsilon`` keeps u strictly positive everywhere, which
both the rejection sampler and the total-variation comparisons rely on.

Grids and oracle blocks are evaluated a bounded chunk of points at a time
(``_CHUNK_ELEMENTS`` over the larger of the objective's sample count and its
dimension), so no temporary grows with the grid or with the dataset. The
grid still lands in one full-size array, and the sums, maxima and means
reduce that array, so they match a single whole-grid evaluation bit for bit.
The 2x convergence check keeps no array at all: it reduces chunk by chunk,
to the same maximum and to a sum of per-chunk sums, which only the
convergence test reads.

The oracle squeezes its proposals between bounds on u over their grid cell
(Marsaglia 1977). L is M-Lipschitz for the declared gradient bound M, and
the prefactor lies between the floor and the floor plus E[(cos)_+] beta M,
so within a cell of half-diagonal r around a midpoint value u_c,

    u_c e^{-beta M r} / rho  <=  u  <=  u_c rho e^{beta M r},
    rho = (floor + E[(cos)_+] beta M) / floor.

A level the bounds decide needs no evaluation of u; only the rest are
evaluated, and each of those is checked against its cell's bounds. Every
gradient ``unnormalized`` computes is checked against M, so the grid audits
M densely before the oracle leans on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .objectives import GradientBoundError, Objective
from .sampler import as_generator

__all__ = [
    "sphere_cos_abs_mean",
    "sphere_cos_plus_mean",
    "gamma_ratio_fences",
    "GridDensity",
    "EnvelopeError",
    "StationaryDensity",
    "grid_mean_risk",
    "DEFAULT_RESOLUTIONS",
]

DEFAULT_RESOLUTIONS = {1: 4096, 2: 256, 3: 64}

# Array elements per evaluation chunk. A chunk holds this many over
# max(n_samples, dim) points, so linreg's (points, n_samples) residuals stay
# as small as the points themselves: about 0.5 MB per temporary.
_CHUNK_ELEMENTS = 1 << 16

# Relative widening of the oracle's cell bounds: it covers the rounding of u
# at the proposal and of u_c read back from the normalized masses.
_SQUEEZE_RTOL = 1e-9


def _chunk_points(objective: Objective) -> int:
    return max(1, _CHUNK_ELEMENTS // max(objective.n_samples, objective.domain.dim))


def _evaluate_in_chunks(fn, points_at, n: int, chunk: int) -> np.ndarray:
    """(n,) values of ``fn`` on ``points_at(start, stop)``, ``chunk`` points a call."""
    out = np.empty(n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        out[start:stop] = fn(points_at(start, stop))
    return out


def _midpoint_layout(objective: Objective, resolution: int):
    """(edges, shape, points_at, cell) of the midpoint grid of ``resolution``
    cells per side over the box: ``points_at(start, stop)`` gives the
    midpoints of the cells with those flat (C-order) indices."""
    domain = objective.domain
    edges = [np.linspace(0.0, s, resolution + 1) for s in domain.sides]
    mids = [0.5 * (e[:-1] + e[1:]) for e in edges]
    shape = (resolution,) * domain.dim

    def points_at(start, stop):
        index = np.unravel_index(np.arange(start, stop), shape)
        return np.stack([m[i] for m, i in zip(mids, index)], axis=-1)

    return edges, shape, points_at, float(np.prod(domain.sides / resolution))


def _midpoint_grid(objective: Objective, fn, resolution: int):
    """(edges, values, cell) of ``fn`` at the midpoints of a grid of
    ``resolution`` cells per side over the box; values has the grid's shape."""
    edges, shape, points_at, cell = _midpoint_layout(objective, resolution)
    values = _evaluate_in_chunks(fn, points_at, math.prod(shape), _chunk_points(objective))
    return edges, values.reshape(shape), cell


def _midpoint_sum_max(objective: Objective, fn, resolution: int):
    """(sum, max, cell) of ``fn`` over the midpoints of that grid, reduced a
    chunk at a time, so no array of the grid's size exists. The max is the
    whole grid's bit for bit; the sum adds up per-chunk sums."""
    _, shape, points_at, cell = _midpoint_layout(objective, resolution)
    n, chunk = math.prod(shape), _chunk_points(objective)
    total, peak = 0.0, -math.inf
    for start in range(0, n, chunk):
        values = fn(points_at(start, min(start + chunk, n)))
        total += float(values.sum())
        peak = max(peak, float(values.max()))
    return total, peak, cell


def sphere_cos_abs_mean(d: int) -> float:
    """E|v_1| for v uniform on S^{d-1}: Gamma(d/2) / (sqrt(pi) Gamma((d+1)/2)).

    Evaluated through log-gamma so large d stays stable. Closed forms:
    1 (d=1), 2/pi (d=2), 1/2 (d=3).
    """
    if int(d) != d or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    return math.exp(math.lgamma(d / 2.0) - math.lgamma((d + 1) / 2.0)) / math.sqrt(math.pi)


def sphere_cos_plus_mean(d: int) -> float:
    """E[(v_1)_+] = E|v_1| / 2 by symmetry; the density's gradient coefficient."""
    return 0.5 * sphere_cos_abs_mean(d)


def gamma_ratio_fences(d: int) -> tuple[float, float]:
    """Closed-form fences for Gamma(d/2)/Gamma((d+1)/2):
    1/sqrt(d/2) <= ratio <= 1/sqrt((d-1)/2) (upper fence infinite at d=1)."""
    if int(d) != d or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    lower = 1.0 / math.sqrt(d / 2.0)
    upper = math.inf if d == 1 else 1.0 / math.sqrt((d - 1) / 2.0)
    return lower, upper


class EnvelopeError(RuntimeError):
    """The rejection envelope was exceeded: the grid max was not a sup."""


@dataclass
class GridDensity:
    """Probability masses on a rectangular midpoint grid.

    ``edges`` holds one edge array per dimension; ``masses`` sums to 1 and has
    shape ``tuple(len(e) - 1 for e in edges)``.
    """

    edges: list[np.ndarray]
    masses: np.ndarray
    z: float | None = None  # normalization of the source density, if known

    def __post_init__(self) -> None:
        shape = tuple(len(e) - 1 for e in self.edges)
        if self.masses.shape != shape:
            raise ValueError(f"masses shape {self.masses.shape} != grid shape {shape}")
        total = float(self.masses.sum())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"masses must sum to 1 within 1e-6, got {total}")
        if np.any(self.masses < 0.0):
            raise ValueError("masses must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.edges)

    def midpoints(self, axis: int) -> np.ndarray:
        e = self.edges[axis]
        return 0.5 * (e[:-1] + e[1:])

    def marginal(self, axis: int) -> "GridDensity":
        other = tuple(i for i in range(self.dim) if i != axis)
        return GridDensity(edges=[self.edges[axis]], masses=self.masses.sum(axis=other))

    def coarsen(self, factor: int) -> "GridDensity":
        """Merge ``factor`` adjacent bins per dimension (mass-preserving)."""
        factor = int(factor)
        if factor < 1:
            raise ValueError("factor must be >= 1")
        for e in self.edges:
            if (len(e) - 1) % factor:
                raise ValueError(f"bin count {len(e) - 1} not divisible by {factor}")
        masses = self.masses
        for axis in range(self.dim):
            shape = masses.shape[:axis] + (-1, factor) + masses.shape[axis + 1 :]
            masses = masses.reshape(shape).sum(axis=axis + 1)
        edges = [e[::factor] for e in self.edges]
        return GridDensity(edges=edges, masses=masses, z=self.z)

    def cdf_1d(self):
        """Piecewise-linear CDF callable (1-D grids only)."""
        if self.dim != 1:
            raise ValueError("cdf_1d is defined for 1-D grids")
        edges = self.edges[0]
        cum = np.concatenate([[0.0], np.cumsum(self.masses)])
        cum[-1] = 1.0

        def cdf(x):
            return np.interp(np.asarray(x, dtype=float), edges, cum)

        return cdf

    def to_csv(self, path) -> None:
        mids = np.meshgrid(*(self.midpoints(i) for i in range(self.dim)), indexing="ij")
        cols = [m.ravel() for m in mids] + [self.masses.ravel()]
        header = ",".join([f"coord_{i}" for i in range(self.dim)] + ["mass"])
        rows = [header]
        rows += [",".join(repr(float(v)) for v in row) for row in zip(*cols)]
        Path(path).write_text("\n".join(rows) + "\n")


@dataclass
class StationaryDensity:
    """Closed-form stationary density of the coupled chains on an objective.

    ``beta >= 0`` and ``epsilon > 0``; at ``beta = 0`` the density is exactly
    uniform. The gradient-norm bound entering the floor is the objective's
    declared bound, the same constant the samplers use for thinning, so the
    density and the dynamics share their constants.
    """

    objective: Objective
    beta: float
    epsilon: float
    _grid_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError("beta must be finite and >= 0")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be positive")

    @property
    def floor(self) -> float:
        return self.beta * self.objective.grad_norm_bound + 1.0 / self.epsilon

    @property
    def grad_coefficient(self) -> float:
        return sphere_cos_plus_mean(self.objective.domain.dim) * self.beta

    def unnormalized(self, theta) -> np.ndarray:
        """u(theta); strictly positive, shaped like theta without its last axis."""
        theta = np.asarray(theta, dtype=float)
        loss = np.asarray(self.objective.empirical_risk(theta), dtype=float)
        grad = self.objective.grad(theta)
        self.objective.check_grad_norms(grad)  # the oracle's cell bounds rest on M
        grad_norm = np.linalg.norm(grad, axis=-1)
        return (self.floor + self.grad_coefficient * grad_norm) * np.exp(-self.beta * loss)

    def _resolution(self, resolution: int | None) -> int:
        dim = self.objective.domain.dim
        if dim > 3:
            raise ValueError("grid normalization supports dim <= 3")
        if resolution is None:
            resolution = DEFAULT_RESOLUTIONS[dim]
        if resolution < 64:
            raise ValueError("resolution must be >= 64 per dimension")
        return int(resolution)

    def grid(self, resolution: int | None = None) -> GridDensity:
        """Midpoint-rule normalization; raises if 2x refinement moves Z > 1e-4.

        Each resolution is cached with the max of u over it and its 2x check
        (the oracle's envelope), so asking for the same resolution twice
        costs one evaluation.
        """
        key = self._resolution(resolution)
        if key in self._grid_cache:
            return self._grid_cache[key][0]

        edges, values, cell = _midpoint_grid(self.objective, self.unnormalized, key)
        if not np.all(values > 0.0):
            raise ValueError("density must be strictly positive on the grid")
        z = float(values.sum() * cell)
        fine_sum, fine_max, fine_cell = _midpoint_sum_max(self.objective, self.unnormalized, 2 * key)
        z_fine = fine_sum * fine_cell
        if abs(z_fine - z) > 1e-4 * z:
            raise RuntimeError(
                f"grid normalization not converged at resolution {key}: "
                f"Z = {z:.10g} vs {z_fine:.10g} at 2x"
            )
        masses = values * cell / z
        masses /= masses.sum()  # absorb the last-ulp rounding so masses sum to 1
        grid = GridDensity(edges=edges, masses=masses, z=z)
        self._grid_cache[key] = (grid, float(max(values.max(), fine_max)))
        return grid

    def sample(self, n: int, rng, resolution: int | None = None) -> np.ndarray:
        """n exact draws by rejection from the uniform proposal.

        The envelope is 1.1x the density's max over the normalization grid
        at ``resolution``. Each block draws all its proposals, then their
        levels a chunk at a time, so the stream does not depend on the
        chunking or on which levels the cell bounds decide. A level at or
        above its cell's upper bound is rejected; one below the lower bound
        is accepted where the upper bound lies within the envelope. Only the
        rest are evaluated, so every u that could exceed the envelope is
        evaluated: one that does raises ``EnvelopeError``, and one outside
        its cell's bounds raises ``GradientBoundError``, rather than biasing
        the output. The draws are those of comparing every level with u.
        """
        gen = as_generator(rng)
        n = int(n)
        if n < 1:
            raise ValueError("n must be >= 1")
        key = self._resolution(resolution)
        grid = self.grid(key)
        envelope = 1.1 * self._grid_cache[key][1]
        domain = self.objective.domain
        chunk = _chunk_points(self.objective)
        # u_c = mass * z / cell volume at each proposal's cell; the bounds
        # scale it by (1 +- _SQUEEZE_RTOL) rho e^{+-beta M r}
        spacing = domain.sides / key
        masses = grid.masses.ravel()
        to_u = grid.z / float(np.prod(spacing))
        bound = self.objective.grad_norm_bound
        spread = self.beta * bound * 0.5 * float(np.linalg.norm(spacing))  # beta M r
        rho = (self.floor + self.grad_coefficient * bound) / self.floor
        up = to_u * rho * (math.exp(spread) if spread < 700.0 else math.inf) * (1.0 + _SQUEEZE_RTOL)
        down = to_u * math.exp(-spread) / rho * (1.0 - _SQUEEZE_RTOL)
        out = np.empty((n, domain.dim))
        got = 0
        block = max(4096, 2 * n)
        while got < n:
            props = domain.sample_uniform(gen, block)
            for start in range(0, block, chunk):
                stop = min(start + chunk, block)
                x = props[start:stop]
                levels = gen.random(stop - start) * envelope
                cells = np.zeros(stop - start, dtype=np.intp)  # flat C-order cell index
                for axis in range(domain.dim):  # 1-d columns: 2-d casts are ~10x dearer
                    cells *= key
                    cells += np.minimum(x[:, axis] / spacing[axis], key - 1).astype(np.intp)
                mass = masses.take(cells)
                upper, lower = mass * up, mass * down
                accept = (levels < lower) & (upper <= envelope)
                rows = np.flatnonzero(~accept & (levels < upper))
                if rows.size:
                    u = self.unnormalized(x.take(rows, axis=0))
                    if np.any(u > envelope):
                        raise EnvelopeError(
                            f"density value {float(u.max()):.6g} exceeds envelope "
                            f"{envelope:.6g}; grid max was not a supremum"
                        )
                    inside = (lower[rows] <= u) & (u <= upper[rows])  # False for NaN too
                    if not inside.all():
                        i = int(inside.argmin())
                        raise GradientBoundError(
                            f"{self.objective.name}: density value {float(u[i]):.6g} lies outside "
                            f"its grid cell's bounds [{float(lower[rows][i]):.6g}, "
                            f"{float(upper[rows][i]):.6g}], which assume the risk is "
                            f"{bound:.6g}-Lipschitz"
                        )
                    accept[rows] = levels[rows] < u
                keep = x.compress(accept, axis=0)
                take = min(keep.shape[0], n - got)
                out[got : got + take] = keep[:take]
                got += take
        return out


def grid_mean_risk(objective: Objective, resolution: int = 512) -> float:
    """Mean empirical risk under the uniform law, by midpoint quadrature."""
    if objective.domain.dim > 3:
        raise ValueError("grid quadrature supports dim <= 3")
    _, risks, _ = _midpoint_grid(objective, objective.empirical_risk, resolution)
    return float(np.mean(risks))
