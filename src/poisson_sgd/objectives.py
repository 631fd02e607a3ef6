"""Loss objectives: evaluation contract, mini-batching, built-in test problems.

Objectives are immutable and vectorized: ``theta`` may carry arbitrary leading
axes, and gradient evaluation accepts per-row mini-batch index matrices so
lock-step chain ensembles evaluate in a single call. Every objective declares
an analytic bound ``grad_norm_bound`` on per-sample gradient norms over its
whole domain; the samplers' correctness rests on that bound being true, so it
is derived in closed form per problem, never estimated from samples. A
``LinearRegressionObjective`` may stack one dataset per chain; its bound is
then one per chain, and each chain's gradients are checked against its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domain import TorusDomain
from .sampler import RngStream

__all__ = [
    "GradientBoundError",
    "ObjectiveMetadata",
    "Objective",
    "AnalyticObjective",
    "QuadraticBowlObjective",
    "LinearRegressionObjective",
    "double_well_1d",
    "double_well_2d",
    "quadratic_bowl",
    "linreg_synthetic",
    "BUILTIN_OBJECTIVES",
    "build_objective",
]


class GradientBoundError(RuntimeError):
    """An observed gradient norm exceeded the declared bound: the bound is false."""


@dataclass(frozen=True)
class ObjectiveMetadata:
    """Optional smoothness constants: a Lipschitz constant of the per-sample
    gradient inside the box (seams aside), and optionally a bound on it over
    any axis-aligned box within.

    A per-sample constant also bounds every mini-batch mean. When set,
    chains with ``beta > 0`` skip the rate evaluations that two-sided local
    bounds built from it make unnecessary, without changing a draw; an
    evaluated rate outside such bounds raises ``RateBoundError``, as does a
    step whose gradient (or, with per-chain mini-batches, rate) moved
    further than the constant allows, so a false constant aborts a run once
    an evaluation or a step exposes it. None bounds the rates by their
    envelope alone.

    ``lipschitz_box(a, b)`` maps k axis-aligned boxes, each given by two
    opposite corners ``a[i]`` and ``b[i]`` (two (k, d) arrays in box
    coordinates, in either order), to (k,) bounds on the per-sample
    Hessian's norm over each box, none above ``lipschitz_c1``. Objectives
    whose curvature varies declare it; chains whose ceiling is far above
    their floor then thin each ray against the bound over its own
    neighbourhood (see ``optimizer._run_chains``), audited on every step
    like the constant. It needs ``lipschitz_c1``.
    """

    lipschitz_c1: float | None = None
    lipschitz_box: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        value = self.lipschitz_c1
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"lipschitz_c1 must be finite and >= 0, got {value!r}")
        if self.lipschitz_box is not None and value is None:
            raise ValueError("lipschitz_box needs lipschitz_c1")


class _SampledBatches(np.ndarray):
    """An (N, m) batch matrix drawn valid (rows of distinct in-range indices)
    by the package's own sampler; ``resolve_batch`` trusts it unchecked."""


class Objective:
    """Evaluation contract shared by the optimizer, sampler, and experiments.

    Subclasses implement ``_mean_loss``/``_mean_grad`` over an index set that
    is None (full dataset), an (m,) vector (shared batch), or an (N, m) matrix
    paired row-wise with a leading axis of ``theta``. Per-sample losses are
    nonnegative; per-sample gradient norms never exceed ``grad_norm_bound``
    anywhere on ``domain``. The bound is a float, or an (N,) array when each
    of N chains has its own data; the chain is then the leading axis of
    ``theta``.
    """

    def __init__(
        self,
        domain: TorusDomain,
        n_samples: int,
        grad_norm_bound: float,
        name: str,
        metadata: ObjectiveMetadata | None = None,
    ):
        if int(n_samples) != n_samples or n_samples < 1:
            raise ValueError("n_samples must be a positive integer")
        bound = np.asarray(grad_norm_bound, dtype=float)
        if bound.ndim > 1 or bound.size == 0 or not np.all(np.isfinite(bound) & (bound > 0.0)):
            raise ValueError("grad_norm_bound must be positive and finite")
        self.domain = domain
        self.n_samples = int(n_samples)
        self.grad_norm_bound = float(bound) if bound.ndim == 0 else bound
        self.name = str(name)
        self.metadata = metadata or ObjectiveMetadata()

    # ------------------------------------------------------------------
    # subclass surface
    # ------------------------------------------------------------------

    def _mean_loss(self, theta: np.ndarray, indices: np.ndarray | None) -> np.ndarray:
        raise NotImplementedError

    def _mean_grad(self, theta: np.ndarray, indices: np.ndarray | None) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # public api
    # ------------------------------------------------------------------

    def empirical_risk(self, theta):
        """Mean per-sample loss over the full dataset; theta (..., d) -> (...)."""
        return self._mean_loss(self._as_points(theta), None)

    def grad(self, theta) -> np.ndarray:
        """Full-batch risk gradient; theta (..., d) -> (..., d)."""
        return self._mean_grad(self._as_points(theta), None)

    def minibatch_risk(self, batch, theta):
        return self._mean_loss(self._as_points(theta), self.resolve_batch(batch))

    def minibatch_grad(self, batch, theta) -> np.ndarray:
        """Mean gradient over ``batch``; unbiased for the full gradient when
        the batch is sampled uniformly."""
        return self._mean_grad(self._as_points(theta), self.resolve_batch(batch))

    def grad_field(self, batch=None) -> Callable[..., np.ndarray]:
        """Gradient evaluator ``field(points, rows=None)`` for ray samplers.

        ``batch`` may be None (full dataset), an (m,) index vector, or an
        (N, m) per-chain matrix; in the matrix case ``rows`` selects which
        chain rows the leading axis of ``points`` refers to. With per-chain
        datasets every batch resolves to such a matrix.
        """
        idx = self.resolve_batch(batch)
        if idx is None or idx.ndim == 1:

            def field(points, rows=None):
                return self._mean_grad(np.asarray(points, dtype=float), idx)

        else:

            def field(points, rows=None):
                sel = idx if rows is None else idx.take(rows, axis=0)
                return self._mean_grad(np.asarray(points, dtype=float), sel)

        return field

    def check_grad_norms(self, grads: np.ndarray) -> None:
        """Runtime guard: abort if any observed gradient defeats its bound
        (with per-chain bounds, the leading axis of ``grads`` is the chain)."""
        sq = np.einsum("...d,...d->...", grads, grads)
        bound = self.grad_norm_bound
        if isinstance(bound, np.ndarray):
            bound = bound.reshape(bound.shape + (1,) * (sq.ndim - 1))
        within = sq <= (bound * (1.0 + 1e-9)) ** 2  # False for NaN too
        if np.count_nonzero(within) < within.size:
            i = np.unravel_index(int(within.argmin()), within.shape)
            raise GradientBoundError(
                f"{self.name}: gradient norm {math.sqrt(sq[i]):.6g} exceeds declared "
                f"bound {np.broadcast_to(bound, sq.shape)[i]:.6g}"
            )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _as_points(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 0 or theta.shape[-1] != self.domain.dim:
            raise ValueError(
                f"theta must have last axis {self.domain.dim}, got shape {theta.shape}"
            )
        return theta

    def resolve_batch(self, batch) -> np.ndarray | None:
        """Canonicalize a batch spec to None, an (m,) or an (N, m) int array."""
        if batch is None:
            return None
        if type(batch) is _SampledBatches:
            return batch.view(np.ndarray)
        arr = np.asarray(batch)
        if arr.dtype.kind not in "iu":
            raise ValueError("batch indices must be integers")
        arr = arr.astype(np.intp, copy=False)
        if arr.ndim not in (1, 2) or arr.shape[-1] == 0:
            raise ValueError(f"batch must be 1-d or 2-d and nonempty, got shape {arr.shape}")
        if arr.min() < 0 or arr.max() >= self.n_samples:
            raise ValueError(
                f"batch indices must lie in [0, {self.n_samples}), got "
                f"[{arr.min()}, {arr.max()}]"
            )
        if arr.shape[-1] > 1:
            ordered = np.sort(arr, axis=-1)
            if (ordered[..., 1:] == ordered[..., :-1]).any():
                raise ValueError("batch indices must be distinct")
        return arr


class AnalyticObjective(Objective):
    """Dataset-free objective: a single analytic nonnegative loss term (n = 1)."""

    def __init__(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        grad_fn: Callable[[np.ndarray], np.ndarray],
        domain: TorusDomain,
        grad_norm_bound: float,
        name: str,
        metadata: ObjectiveMetadata | None = None,
        global_minimum=None,
        local_minima: Sequence = (),
        extra: dict | None = None,
    ):
        super().__init__(domain, 1, grad_norm_bound, name, metadata)
        self._fn = fn
        self._grad_fn = grad_fn
        self.global_minimum = (
            None if global_minimum is None else np.asarray(global_minimum, dtype=float)
        )
        self.local_minima = tuple(np.asarray(p, dtype=float) for p in local_minima)
        self.extra = dict(extra or {})

    def _mean_loss(self, theta, indices):
        # any valid index set is a subset of {0}: the mean is the bare term
        return np.asarray(self._fn(theta), dtype=float)

    def _mean_grad(self, theta, indices):
        return np.asarray(self._grad_fn(theta), dtype=float)


class QuadraticBowlObjective(Objective):
    """Mean of half squared distances to fixed centers.

    Per-sample loss ``l(z_i; theta) = ||theta - z_i||^2 / 2`` admits closed
    forms for every batch statistic, so per-chain batches cost O(1) per point.
    """

    def __init__(self, centers, domain: TorusDomain | None = None, name: str = "quadratic_bowl"):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        if centers.ndim != 2:
            raise ValueError("centers must be an (n, d) array")
        n, d = centers.shape
        if domain is None:
            domain = TorusDomain(d, 10.0)
        if d != domain.dim:
            raise ValueError("centers dimension must match the domain")
        # per-sample gradient is theta - z_i; its norm is maximized at a box corner
        corner_dev = np.maximum(np.abs(centers), np.abs(domain.sides - centers))
        per_sample = np.linalg.norm(corner_dev, axis=1)
        bound = float(np.max(per_sample))
        super().__init__(domain, n, bound, name, ObjectiveMetadata(lipschitz_c1=1.0))
        self.centers = centers
        self._sqnorms = np.einsum("nd,nd->n", centers, centers)
        self._zbar_full = centers.mean(axis=0)
        self._sq_full = float(self._sqnorms.mean())

    def _batch_stats(self, indices):
        if indices is None:
            return self._zbar_full, self._sq_full
        if indices.ndim == 1:
            return self.centers[indices].mean(axis=0), float(
                self._sqnorms[indices].mean()
            )
        return self.centers.take(indices, axis=0).mean(axis=1), self._sqnorms.take(indices).mean(axis=1)

    @staticmethod
    def _align(stat: np.ndarray, theta: np.ndarray, trailing: int) -> np.ndarray:
        # broadcast an (N, ...) per-chain statistic against theta (N, ..., d)
        extra = theta.ndim - 1 - stat.ndim + (1 if trailing else 0)
        shape = stat.shape[:1] + (1,) * extra + stat.shape[1:]
        return stat.reshape(shape)

    def _mean_loss(self, theta, indices):
        zbar, sq = self._batch_stats(indices)
        if indices is not None and indices.ndim == 2:
            zbar = self._align(zbar, theta, trailing=True)
            sq = self._align(sq, theta, trailing=False)
        return (
            0.5 * np.einsum("...d,...d->...", theta, theta)
            - np.einsum("...d,...d->...", theta, zbar)
            + 0.5 * sq
        )

    def _mean_grad(self, theta, indices):
        zbar, _ = self._batch_stats(indices)
        if indices is not None and indices.ndim == 2:
            zbar = self._align(zbar, theta, trailing=True)
        return theta - zbar


class LinearRegressionObjective(Objective):
    """Half squared-error linear model over a stored design matrix.

    ``features`` (n, d) with ``targets`` (n,) is one dataset that every chain
    shares. ``features`` (T, n, d) with ``targets`` (T, n) stacks T datasets
    of one size, one per chain of a T-chain ensemble: chain t's full batch
    and mini-batches read only dataset t, and ``grad_norm_bound`` is the (T,)
    array of the datasets' own bounds. Batch indices stay in [0, n) either
    way; ``resolve_batch`` offsets chain t's by ``t * n`` into the flat rows.
    """

    def __init__(
        self,
        features,
        targets,
        domain: TorusDomain,
        name: str = "linreg_synthetic",
    ):
        X = np.asarray(features, dtype=float)
        y = np.asarray(targets, dtype=float)
        if X.ndim not in (2, 3) or y.shape != X.shape[:-1]:
            raise ValueError("features must be (n, d) or (T, n, d) with matching (n,) or (T, n) targets")
        n, d = X.shape[-2:]
        if d != domain.dim:
            raise ValueError("feature dimension must match the domain")
        sides = domain.sides
        # residual |x.theta - y| over the box is maximized at a box corner
        hi = np.sum(sides * np.maximum(X, 0.0), axis=-1)
        lo = np.sum(sides * np.minimum(X, 0.0), axis=-1)
        resid_sup = np.maximum(np.abs(hi - y), np.abs(lo - y))
        x_norms = np.linalg.norm(X, axis=-1)
        bound = np.max(resid_sup * x_norms, axis=-1)
        meta = ObjectiveMetadata(lipschitz_c1=float(np.max(x_norms**2)))
        super().__init__(domain, n, bound, name, meta)
        self.features = X
        self.targets = y
        # the rows of every dataset, flat: chain t's row i is row t * n + i
        self._X = X.reshape(-1, d)
        self._y = y.reshape(-1)
        self._full_batches = None if X.ndim == 2 else np.arange(X.shape[0] * n).reshape(-1, n)

    def resolve_batch(self, batch) -> np.ndarray | None:
        """As ``Objective.resolve_batch``; with stacked datasets, a (T, m)
        matrix of flat rows, chain t's offset into dataset t (None: every
        row of each chain's dataset; a shared (m,) batch: those rows of each)."""
        idx = super().resolve_batch(batch)
        stacked = self._full_batches
        if stacked is None:
            return idx
        if idx is None:
            return stacked
        if idx.ndim == 2 and idx.shape[0] != stacked.shape[0]:
            raise ValueError(f"per-chain batches need one row per dataset ({stacked.shape[0]}), got {idx.shape[0]}")
        return idx + stacked[:, :1]

    def _residuals(self, theta, indices):
        if indices is None and self._full_batches is not None:
            indices = self._full_batches
        if indices is None or indices.ndim == 1:
            Xb = self._X if indices is None else self._X[indices]
            yb = self._y if indices is None else self._y[indices]
            return np.einsum("...d,md->...m", theta, Xb) - yb, Xb
        # per-chain batches: theta (N, ..., d) row-paired with indices (N, m)
        Xb = self._X.take(indices, axis=0)
        yb = self._y.take(indices)
        lead = theta.shape[0]
        if theta.ndim < 2 or lead != indices.shape[0]:
            raise ValueError("theta leading axis must match per-chain batch rows")
        flat = theta.reshape(lead, -1, theta.shape[-1])
        resid = np.matmul(flat, np.swapaxes(Xb, 1, 2)) - yb[:, None, :]
        return resid.reshape(theta.shape[:-1] + (indices.shape[1],)), Xb

    def _mean_loss(self, theta, indices):
        resid, _ = self._residuals(theta, indices)
        return 0.5 * np.mean(resid**2, axis=-1)

    def _mean_grad(self, theta, indices):
        resid, Xb = self._residuals(theta, indices)
        if Xb.ndim == 2:  # one batch shared by every point
            return np.einsum("...m,md->...d", resid, Xb) / Xb.shape[0]
        lead = theta.shape[0]
        flat = resid.reshape(lead, -1, resid.shape[-1])
        grad = np.matmul(flat, Xb) / Xb.shape[1]
        return grad.reshape(theta.shape)


# ----------------------------------------------------------------------
# built-in problems
# ----------------------------------------------------------------------


def _quartic(x: np.ndarray) -> np.ndarray:
    # x^4 - 4 x^3 - 36 x^2 + 864; nonnegative, zero at x = 6
    return ((x - 4.0) * x - 36.0) * x * x + 864.0


def _quartic_grad(x: np.ndarray) -> np.ndarray:
    return ((4.0 * x - 12.0) * x - 72.0) * x


def _quartic_grad_sup(lo: float, hi: float) -> float:
    """sup |4x^3 - 12x^2 - 72x| over [lo, hi]: ends plus inflection points."""
    candidates = [lo, hi]
    for root in (1.0 + math.sqrt(7.0), 1.0 - math.sqrt(7.0)):  # zeros of f'''/12
        if lo < root < hi:
            candidates.append(root)
    return max(abs(float(_quartic_grad(np.asarray(c)))) for c in candidates)


def _quartic_lipschitz_box(offset: float):
    """The ``lipschitz_box`` of a double well whose x-axis is the box's first,
    shifted by ``offset``, and whose Hessian is diag(f''(x), 2) (the 2 only
    in 2-d).

    f''(x) = 12x^2 - 24x - 72 = 12 (x - 1)^2 - 84 is convex with its vertex
    at x = 1, so its largest |f''| on an interval is at an end or, when the
    interval holds it, the vertex's 84. The bound takes the largest of the
    three whether or not the interval holds the vertex, max(12 max((x_a -
    1)^2, (x_b - 1)^2) - 84, 84), in fewer array operations: it is exact
    wherever |f''| reaches 84 on the interval, never below the y-axis's 2,
    and never above ``lipschitz_c1``, its value on the whole box.
    """
    vertex = offset + 1.0

    def lipschitz_box(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ua = a[:, 0] - vertex
        ub = b[:, 0] - vertex
        ua *= ua
        ub *= ub
        far = np.maximum(ua, ub, out=ua)
        far *= 12.0
        far -= 84.0
        return np.maximum(far, 84.0, out=far)

    return lipschitz_box


def double_well_1d(side: float = 16.0, offset: float = 6.0) -> AnalyticObjective:
    """Quartic double well on a circle.

    In shifted coordinates ``x = theta - offset`` the loss is
    ``x^4 - 4x^3 - 36x^2 + 864`` with a global minimum 0 at x = 6 (box point
    offset + 6), a local minimum 729 at x = -3, and a barrier 864 at x = 0.
    """
    lo, hi = -float(offset), float(side) - float(offset)
    if not (lo < -3.0 and 6.0 < hi):
        raise ValueError("box must contain both wells: need offset > 3 and side - offset > 6")
    domain = TorusDomain(1, side)
    off = float(offset)

    def fn(theta):
        return _quartic(theta[..., 0] - off)

    def grad(theta):
        return _quartic_grad(theta - off)

    bound = _quartic_grad_sup(lo, hi)
    lipschitz_box = _quartic_lipschitz_box(off)
    curv = float(lipschitz_box(np.zeros((1, 1)), domain.sides[None, :])[0])
    return AnalyticObjective(
        fn,
        grad,
        domain,
        bound,
        "double_well_1d",
        metadata=ObjectiveMetadata(lipschitz_c1=curv, lipschitz_box=lipschitz_box),
        global_minimum=[off + 6.0],
        local_minima=[[off - 3.0]],
        extra={"offset": off, "barrier": [off]},
    )


def double_well_2d(
    side_lengths: float | Sequence[float] = (40.0, 40.0),
    offset: Sequence[float] = (19.0, 20.0),
) -> AnalyticObjective:
    """Non-convex benchmark: quartic double well in x plus a parabola in y.

    In shifted coordinates the loss is ``x^4 - 4x^3 - 36x^2 + y^2 + 864``:
    global minimum 0 at (6, 0), local minimum 729 at (-3, 0), saddle between
    them at (0, 0). The default box is wide enough that trajectories at the
    default temperatures never feel the periodic seam.
    """
    domain = TorusDomain(2, side_lengths)
    off = np.asarray(offset, dtype=float)
    if off.shape != (2,):
        raise ValueError("offset must have two coordinates")
    lo, hi = -off[0], domain.side_lengths[0] - off[0]
    if not (lo < -3.0 and 6.0 < hi):
        raise ValueError("box must contain both wells along x")

    def fn(theta):
        x = theta[..., 0] - off[0]
        y = theta[..., 1] - off[1]
        return _quartic(x) + y * y

    # Horner's rule on both shifted coordinates at once, ((a u + b) u + c) u
    # with (a, b, c) = (4, -12, -72) for x and (0, 0, 2) for y: every
    # product and sum is the one _quartic_grad(x) and 2 y compute, so the
    # gradient is theirs bit for bit, in six array operations
    a, b, c = np.array([4.0, 0.0]), np.array([-12.0, 0.0]), np.array([-72.0, 2.0])

    def grad(theta):
        u = theta - off
        out = u * a
        out += b
        out *= u
        out += c
        out *= u
        return out

    y_max = max(off[1], domain.side_lengths[1] - off[1])
    bound = math.hypot(_quartic_grad_sup(lo, hi), 2.0 * y_max)
    lipschitz_box = _quartic_lipschitz_box(float(off[0]))
    curv = float(lipschitz_box(np.zeros((1, 2)), domain.sides[None, :])[0])
    return AnalyticObjective(
        fn,
        grad,
        domain,
        bound,
        "double_well_2d",
        metadata=ObjectiveMetadata(lipschitz_c1=curv, lipschitz_box=lipschitz_box),
        global_minimum=off + [6.0, 0.0],
        local_minima=[off + [-3.0, 0.0]],
        extra={"offset": off.tolist(), "saddle": off.tolist()},
    )


def quadratic_bowl(
    centers, side_lengths: float | Sequence[float] | None = None
) -> QuadraticBowlObjective:
    """Bowl objective ``mean_i ||theta - z_i||^2 / 2`` over given centers."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    domain = None
    if side_lengths is not None:
        domain = TorusDomain(centers.shape[1], side_lengths)
    return QuadraticBowlObjective(centers, domain)


def linreg_synthetic(
    n: int,
    d: int,
    noise: float,
    seed: int,
    side: float = 6.0,
) -> LinearRegressionObjective:
    """Synthetic least squares: Gaussian design, true weights inside the box,
    Gaussian target noise. Same (n, d, noise, seed, side) -> same bytes."""
    X, y = _linreg_draw(n, d, noise, seed, side)
    return LinearRegressionObjective(X, y, TorusDomain(int(d), side))


def _linreg_draw(n: int, d: int, noise: float, seed: int, side: float) -> tuple[np.ndarray, np.ndarray]:
    """The (X, y) of ``linreg_synthetic``, without building its objective."""
    if noise < 0:
        raise ValueError("noise must be >= 0")
    rng = RngStream(int(seed), spawn_key=(104729,))  # fixed lineage for datasets
    gen = rng.generator
    X = gen.standard_normal((int(n), int(d)))
    theta_true = side * (0.25 + 0.5 * gen.random(int(d)))
    y = X @ theta_true + (noise * gen.standard_normal(int(n)) if noise > 0 else 0.0)
    return X, y


BUILTIN_OBJECTIVES: dict[str, Callable[..., Objective]] = {
    "double_well_1d": double_well_1d,
    "double_well_2d": double_well_2d,
    "quadratic_bowl": quadratic_bowl,
    "linreg_synthetic": linreg_synthetic,
}


def build_objective(spec: dict) -> Objective:
    """Construct a built-in objective from a config mapping {"name", ...}."""
    spec = dict(spec)
    name = spec.pop("name", None)
    if name not in BUILTIN_OBJECTIVES:
        raise ValueError(
            f"unknown objective name {name!r}; available: {sorted(BUILTIN_OBJECTIVES)}"
        )
    try:
        return BUILTIN_OBJECTIVES[name](**spec)
    except TypeError as exc:  # a keyword the factory does not take, or lacks
        raise ValueError(f"objective {name}: {exc}") from exc
