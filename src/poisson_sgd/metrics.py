"""Distances between samples and densities: exact 1-D Wasserstein, sliced
Wasserstein for d >= 2, histogram total variation, KS statistic, and the
survival-law Wasserstein bound checker used by the rate-perturbation tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampler import RayCdfInverter, uniform_sphere

__all__ = [
    "wasserstein1_1d",
    "sliced_wasserstein1",
    "histogram_tv",
    "ks_statistic",
    "WassersteinBoundResult",
    "lemma_wasserstein_bound_check",
]


def wasserstein1_1d(xs, ys) -> float:
    """Exact empirical 1-Wasserstein distance on the line.

    Equal sizes: mean absolute difference of sorted order statistics. Unequal
    sizes: the same coupling evaluated exactly on the common refinement of the
    two quantile grids (every empirical quantile function is a step function,
    so the integral of |F_x^{-1} - F_y^{-1}| is a finite sum; no resampling,
    no randomness).
    """
    xs = np.sort(np.asarray(xs, dtype=float).ravel())
    ys = np.sort(np.asarray(ys, dtype=float).ravel())
    if xs.size == 0 or ys.size == 0:
        raise ValueError("samples must be nonempty")
    if xs.size == ys.size:
        return float(np.mean(np.abs(xs - ys)))
    nx, ny = xs.size, ys.size
    # common refinement of {i/nx} and {j/ny} quantile breakpoints: both runs
    # are sorted, so one stable sort merges them; then drop the repeats
    edges = np.empty(nx + ny)
    edges[0], edges[-1] = 0.0, 1.0
    edges[1:nx] = np.arange(1, nx)
    edges[1:nx] /= nx
    edges[nx:-1] = np.arange(1, ny)
    edges[nx:-1] /= ny
    edges.sort(kind="stable")
    edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]
    widths = np.diff(edges)
    mids = np.add(edges[:-1], edges[1:])
    mids *= 0.5
    del edges  # freed before the gathers, which set the peak
    xq = xs.take(np.minimum((mids * nx).astype(int), nx - 1))
    gap = ys.take(np.minimum((mids * ny).astype(int), ny - 1))
    np.subtract(xq, gap, out=gap)
    np.abs(gap, out=gap)
    gap *= widths
    return float(np.sum(gap))


def sliced_wasserstein1(X, Y, n_proj: int = 128, rng=None) -> float:
    """Average 1-D Wasserstein distance over random projection directions.

    For d = 1 this is exactly ``wasserstein1_1d`` (no projections drawn).
    Deterministic given the stream.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    d = X.shape[1]
    if d == 1:
        return wasserstein1_1d(X[:, 0], Y[:, 0])
    if rng is None:
        raise ValueError("rng is required for d >= 2 (projection directions)")
    if n_proj < 1:
        raise ValueError("n_proj must be >= 1")
    directions = uniform_sphere(d, rng, size=int(n_proj))
    total = 0.0
    for w in directions:
        total += wasserstein1_1d(X @ w, Y @ w)
    return total / n_proj


def histogram_tv(samples, reference) -> float:
    """Total variation between an empirical law and a grid density.

    ``reference`` is a GridDensity (or anything with ``edges`` per dimension
    and ``masses`` summing to 1). Samples are binned on the reference's own
    edges; TV = half the L1 gap between bin frequencies and bin masses.
    Samples outside the grid raise, as that signals a domain mismatch.
    """
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    edges = reference.edges
    masses = np.asarray(reference.masses, dtype=float)
    if pts.shape[1] != len(edges):
        raise ValueError(f"samples have dim {pts.shape[1]}, grid has {len(edges)}")
    counts, _ = np.histogramdd(pts, bins=edges)
    if int(counts.sum()) != pts.shape[0]:
        raise ValueError("some samples fall outside the reference grid")
    freq = counts / pts.shape[0]
    return float(0.5 * np.sum(np.abs(freq - masses)))


def ks_statistic(xs, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample Kolmogorov-Smirnov statistic against an exact CDF."""
    xs = np.sort(np.asarray(xs, dtype=float).ravel())
    if xs.size == 0:
        raise ValueError("sample must be nonempty")
    n = xs.size
    F = np.asarray(cdf(xs), dtype=float)
    hi = np.max(np.arange(1, n + 1) / n - F)
    lo = np.max(F - np.arange(0, n) / n)
    return float(max(hi, lo))


@dataclass(frozen=True)
class WassersteinBoundResult:
    passed: bool
    measured_w1: float
    bound: float
    standard_error: float

    def __bool__(self) -> bool:
        return self.passed


def lemma_wasserstein_bound_check(
    f1: Callable[[np.ndarray], np.ndarray],
    f2: Callable[[np.ndarray], np.ndarray],
    M: float,
    m1: float,
    m2: float,
    n: int,
    rng,
    grid: np.ndarray | None = None,
) -> WassersteinBoundResult:
    """Check W1(P1, P2) <= M/(m1 m2) for survival laws exp(-int f_i).

    P_i is the first-arrival law of rate f_i. Preconditions |f2 - f1| <= M,
    f1 >= m1 > 0, f2 >= m2 > 0 are verified on ``grid`` (default: dense grid
    over both laws' effective support) before sampling. Sampling goes through
    the quadrature inverter on shared uniforms; the bound must hold up to
    3 standard errors of the empirical estimate.
    """
    if not (m1 > 0.0 and m2 > 0.0):
        raise ValueError("rate floors m1, m2 must be positive")
    if M < 0.0:
        raise ValueError("M must be nonnegative")
    horizon = -math.log(1e-13) / min(m1, m2)
    if grid is None:
        grid = np.linspace(0.0, horizon, 4097)
    v1 = np.asarray(f1(grid), dtype=float)
    v2 = np.asarray(f2(grid), dtype=float)
    slack = 1e-9 * max(1.0, M, m1, m2)
    if np.any(np.abs(v2 - v1) > M + slack):
        raise ValueError("precondition violated on grid: |f2 - f1| exceeds M")
    if np.any(v1 < m1 - slack) or np.any(v2 < m2 - slack):
        raise ValueError("precondition violated on grid: rate below declared floor")

    inv1 = RayCdfInverter(f1, floor=m1)
    inv2 = RayCdfInverter(f2, floor=m2)
    u = rng.generator.random(int(n)) if hasattr(rng, "generator") else rng.random(int(n))
    x1 = np.asarray(inv1.ppf(u))
    x2 = np.asarray(inv2.ppf(u))
    measured = wasserstein1_1d(x1, x2)
    # conservative SE: the coupled |x1 - x2| mean has variance <= var of the gap
    se = float(np.std(np.abs(x1 - x2), ddof=1) / math.sqrt(n))
    bound = M / (m1 * m2)
    return WassersteinBoundResult(
        passed=measured <= bound + 3.0 * se,
        measured_w1=measured,
        bound=bound,
        standard_error=se,
    )
