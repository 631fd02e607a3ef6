"""SGD whose learning rate is an exponential draw shaped by the loss geometry,
and the lock-step chain loop it shares with the bouncy particle sampler.

Each step draws a mini-batch, then a radius eta from the inhomogeneous
exponential law with rate ``beta * <grad(theta + r v), v>_+ + 1/epsilon``
along the current velocity, moves theta by ``eta * v`` (wrapped), and
reflects v about the mini-batch gradient at the new point. The constant part
of the rate is always ``1/epsilon``; the rate grows where the loss increases
along v, so uphill moves are cut short while downhill and flat stretches get
long strides.

Both chains of the package take this piecewise-deterministic step and differ
only in how the velocity turns after the move, so one loop (``_run_chains``)
advances N independent chains of either kind per numpy call. Each chain
config carries its kind: the loop reads its floor, batch size and record
fields from it and calls its ``turn(vels, grads, rng)``. The optimizer's
turn is ``reflect``; :class:`poisson_sgd.bps.BpsConfig` reflects or
refreshes and counts its refreshes, which the loop reports in ``extras``.
``run_poisson_sgd_ensemble`` returns endpoint clouds, optionally with step
records of selected chains, and ``run_poisson_sgd`` is the one-chain case
that returns that chain's record.

Thinning evaluates a rate only where the proposal's bounds leave it
undecided, and only before the ray's first sure acceptance (see
:mod:`poisson_sgd.sampler`); the draws do not change. The bounds are the
envelope ``[floor, ceiling]``. When the objective declares a Lipschitz
constant they narrow to two-sided local bounds up to each ray's first seam,
anchored at each ray's rate at r = 0, at any spread of ceiling over floor.
With a full batch that anchor is free from the second step on, the rate
the reflection gradient already gives; per-chain mini-batches pay one
evaluated rate of each step's own batches for it, which thinning
evaluates into the loop's array. The loop computes every ray's seam, and
with a full batch its anchor, once per step and hands them to thinning as
arrays; thinning checks every anchor against its ray's envelope and reads
seams and anchors only for rays whose first proposal the envelope leaves
open. When the objective also bounds its curvature on boxes
(``lipschitz_box``) and the pass pays (see ``_BOX_BOUND_MIN_SPREAD``), the
same pass gives each ray its own slope, from the bound over its
neighbourhood: the segment up to its first seam or ``_BOX_BOUND_REACH /
floor``, which becomes its seam.
The same gradients audit the declared bounds on every step: a chain whose
step stayed in the box must not have moved its gradient (full batch) or
its rate (per-chain batches) by more than the constant, or its ray's own
bound if the step ended within its neighbourhood, allows over the step
length, or the run aborts with ``RateBoundError``, since sure decisions
against a false bound are never evaluated.
Each step's rays thin against ``sampler.ray_rate_rows`` over the step's
gradient field, the same rate the event-law oracles test; it is evaluated
as a flat list of the undecided proposals. An objective
whose chains each own a dataset (a stacked ``LinearRegressionObjective``)
declares one gradient bound per chain, and each chain thins against its own
ceiling.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .objectives import Objective, _SampledBatches
from .records import RunRecord
from .sampler import _RTOL, RateBoundError, RngStream, _row_norms, ray_rate_rows, thin_first_arrivals, uniform_sphere

__all__ = [
    "reflect",
    "PoissonSgdConfig",
    "run_poisson_sgd",
    "EnsembleResult",
    "run_poisson_sgd_ensemble",
]

ZERO_GRAD_TOL = 1e-12
# array elements the Lipschitz audit holds per check (see _run_chains)
_AUDIT_ELEMENTS = 1 << 12
# Rays thin against the curvature of their own neighbourhood (an objective's
# ``lipschitz_box``) only where that pays for its per-step pass: when the
# ceiling is at least _BOX_BOUND_MIN_SPREAD floors high (below it the
# envelope decides nearly every proposal; coupled BPS, lambda_ref + c_b =
# beta * M + 1/epsilon, stays under 2 floors, criterion 5's chains sit at
# 1.006) and the constant's slope beta * L is at least _BOX_BOUND_MIN_SLACK
# floor^2. beta * L / floor^2 is how far, in floors, the constant lets the
# rate move over one mean free length 1/floor, about the proposals it leaves
# undecided per chain-step; at 0.012 (double_well_2d at beta 0.001 and
# epsilon 0.05) the pass saved less than it cost.
_BOX_BOUND_MIN_SPREAD = 2.0
_BOX_BOUND_MIN_SLACK = 0.05
# A ray's neighbourhood ends at this many mean free lengths 1/floor, or at
# its first seam if nearer: the rate never falls below the floor, so the
# arrival lies past it with probability below e^-8, and is then drawn
# against the envelope alone.
_BOX_BOUND_REACH = 8.0


def reflect(v, g, tol: float = ZERO_GRAD_TOL):
    """Householder reflection of ``v`` about the hyperplane normal to ``g``.

    Returns ``v - 2 (<g,v>/||g||^2) g``; norm-preserving and involutive.
    Where ``||g|| < tol`` the reflection plane is undefined and ``v`` is
    returned unchanged (exact critical points of the mini-batch loss).
    Accepts matching (..., d) stacks.
    """
    v = np.asarray(v, dtype=float)
    g = np.asarray(g, dtype=float)
    sq = np.einsum("...d,...d->...", g, g)
    coef = 2.0 * np.einsum("...d,...d->...", g, v)
    defined = sq > tol * tol
    if np.count_nonzero(defined) == defined.size:
        coef = coef / sq
    else:
        coef = np.where(defined, coef / np.where(defined, sq, 1.0), 0.0)
    return v - coef[..., None] * g


def _check_chain_fields(cfg) -> None:
    """Checks shared by both chain configs; start points become float tuples."""
    if not (math.isfinite(cfg.beta) and cfg.beta >= 0.0):
        raise ValueError("beta must be finite and >= 0")
    if cfg.n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if cfg.record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    for name in ("initial_point", "initial_velocity"):
        value = getattr(cfg, name)
        if value is not None:
            object.__setattr__(cfg, name, tuple(float(x) for x in value))


@dataclass(frozen=True)
class PoissonSgdConfig:
    """Hyperparameters of one run. ``c_p`` and ``floor`` are ``1/epsilon``.

    ``batch_size = 0`` means full batch. ``beta = 0`` is allowed: the rate is
    then the constant ``1/epsilon`` and the position law is driven by
    reflections only (useful as an exactly-solvable reference).
    """

    kind: ClassVar[str] = "poisson_sgd"
    counts: ClassVar[tuple[str, ...]] = ()

    beta: float
    epsilon: float
    n_steps: int
    batch_size: int = 0
    initial_point: tuple[float, ...] | None = None
    initial_velocity: tuple[float, ...] | None = None
    seed: int = 0
    record_stride: int = 1
    record_risk: bool = True

    def __post_init__(self) -> None:
        _check_chain_fields(self)
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be positive")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0 (0 = full batch)")

    @property
    def c_p(self) -> float:
        return 1.0 / self.epsilon

    floor = c_p  # the constant part of the event rate

    def ceiling(self, grad_norm_bound: float) -> float:
        return self.beta * grad_norm_bound + self.c_p

    def turn(self, vels: np.ndarray, grads: np.ndarray, rng: RngStream):
        """Reflect every velocity about its gradient; no tags, no counts."""
        return reflect(vels, grads), None, {}


# ----------------------------------------------------------------------
# the lock-step chain loop
# ----------------------------------------------------------------------


@dataclass
class EnsembleResult:
    """Endpoint ensemble of N independent chains advanced in lock step.

    ``records`` holds the step records of the chains named in
    ``record_chains``, in that order.
    """

    thetas: np.ndarray
    velocities: np.ndarray
    n_steps: int
    max_norm_deviation: float
    mean_eta: float
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    records: list[RunRecord] = field(default_factory=list)


def _sample_batches(gen: np.random.Generator, n_chains: int, n: int, m: int) -> np.ndarray:
    """(N, m) sorted uniform m-subsets of range(n), one per chain.

    The smallest m of n iid random keys per row form a uniform subset; sorting
    keeps index order canonical so full-batch and m = n paths agree exactly.
    The rows are valid by construction, so the matrix is marked as
    ``_SampledBatches`` and gradient fields skip re-checking it.
    """
    keys = gen.random((n_chains, n))
    idx = np.argpartition(keys, m - 1, axis=1)[:, :m] if m < n else np.tile(np.arange(n), (n_chains, 1))
    return np.sort(idx, axis=1).view(_SampledBatches)


def _start_rates(grads: np.ndarray, headings: np.ndarray, beta: float, floor: float) -> np.ndarray:
    """The rates ``beta * <g, v>_+ + floor`` at r = 0 of rays heading along
    ``headings`` from the points where ``grads`` were taken."""
    rates = np.maximum(np.einsum("kd,kd->k", grads, headings), 0.0)
    rates *= beta
    rates += floor
    return rates


def _audit_lipschitz(changes, lengths, ends, lipschitz, tol, domain) -> None:
    """Raise ``RateBoundError`` if a chain moved its rate or its gradient by
    more than ``lipschitz * eta + tol`` over a step that stayed in the box.

    Each list holds one entry per audited step: the (N,) changes of the
    rates or the (N, d) changes of the gradients, the (N,) step lengths and
    the (N, d) unwrapped endpoints. ``lipschitz`` is one constant, or one
    per step and chain. A step stayed in the box, which is convex, when its
    endpoint lies in it.
    """
    change = np.array(changes)
    moved = change * change if change.ndim == 2 else np.einsum("bnd,bnd->bn", change, change)
    limits = np.array(lengths) * lipschitz
    limits += tol
    limits *= limits
    over = (moved > limits).ravel()
    if np.count_nonzero(over):
        over = over.nonzero()[0]
        points = np.array(ends).reshape(-1, domain.dim)[over]
        inside = ((points >= 0.0) & (points < domain.sides)).all(axis=-1)
        if np.count_nonzero(inside):
            i = over[inside.argmax()]
            what = "rate" if change.ndim == 2 else "gradient"
            raise RateBoundError(
                f"the {what} moved {math.sqrt(moved.flat[i]):.6g} over one step, beyond its local bound "
                f"{math.sqrt(limits.flat[i]):.6g} from lipschitz_c1 (or lipschitz_box): the declared Lipschitz "
                "bound is false; aborting instead of drawing biased times"
            )


def _run_chains(
    objective: Objective,
    cfg,
    n_chains: int,
    rng: RngStream | None = None,
    initial_points: np.ndarray | None = None,
    initial_velocities: np.ndarray | None = None,
    snapshot_steps: Sequence[int] = (),
    record_chains: Sequence[int] = (),
) -> EnsembleResult:
    """Advance ``n_chains`` independent chains of ``cfg``'s kind in lock step.

    ``cfg`` supplies ``beta``, ``n_steps``, ``floor`` (the constant part of
    the event rate), ``ceiling``, ``batch_size``, ``record_stride``,
    ``record_risk``, ``kind`` and the record header (its fields). Its
    ``turn(vels, grads, rng)`` is the only step that differs between the
    optimizer and the sampler. It maps the velocities and the gradients at
    the new points to the turned velocities, either None or ``tags(i)`` (the
    extra record fields of chain i, built only on recorded steps), and the
    step's count for each name in ``cfg.counts``; each count's sum over the
    run is reported as ``extras[name + "_fraction"]``, per chain-step.

    Each chain carries its own mini-batch sequence and its own event draws;
    all randomness comes from ``rng`` (default ``RngStream(cfg.seed)``),
    consumed blockwise, which keeps the whole ensemble reproducible from a
    single seed. Initial points default to uniform on the domain, velocities
    to uniform on the sphere.

    Chains in ``record_chains`` get a ``RunRecord`` of kind ``cfg.kind``
    holding the steps with ``k % record_stride == 0`` plus step K (step 0
    alone when K = 0). Each row carries ``eta`` and ``grad_norm``, the
    mini-batch when batches are drawn, ``risk`` when ``record_risk``, and
    the turn's tags. A record's ``max_norm_deviation`` is the whole
    ensemble's.
    """
    domain = objective.domain
    d = domain.dim
    N = int(n_chains)
    if N < 1:
        raise ValueError("n_chains must be >= 1")
    rng = RngStream(cfg.seed) if rng is None else rng
    gen = rng.generator

    if initial_points is None:
        thetas = domain.sample_uniform(gen, N)
    else:
        thetas = domain.wrap(np.array(initial_points, dtype=float))
        if thetas.shape != (N, d):
            raise ValueError(f"initial_points must have shape ({N}, {d})")
    if initial_velocities is None:
        vels = uniform_sphere(d, rng, N)
    else:
        vels = np.array(initial_velocities, dtype=float)
        if vels.shape != (N, d):
            raise ValueError(f"initial_velocities must have shape ({N}, {d})")
        norms = np.linalg.norm(vels, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("initial_velocities must be unit vectors")
        vels = vels / norms[:, None]

    n = objective.n_samples
    m = cfg.batch_size or n
    if not 1 <= m <= n:
        raise ValueError(f"batch_size must lie in [1, {n}], got {cfg.batch_size}")
    per_chain_batches = m < n

    floor = cfg.floor
    # one ceiling per chain when the objective bounds each chain's gradients
    ceiling = cfg.ceiling(objective.grad_norm_bound)
    per_chain_data = np.ndim(ceiling) > 0
    if per_chain_data and np.shape(ceiling) != (N,):
        raise ValueError(f"{objective.name} holds {len(ceiling)} per-chain datasets, not {N}")
    # Local thinning bounds need a Lipschitz constant (a per-sample one bounds
    # every batch mean too) and an anchor, the rate at r = 0 of each ray.
    # With a full batch the anchor is free: this step's reflection gradients
    # give the next step's, because both use the same field at the same
    # point. Per-chain batches change the field every step, so thinning
    # evaluates each step's anchors into ``anchors``, one rate of its own
    # batches per ray.
    lipschitz = objective.metadata.lipschitz_c1
    local_bounds = lipschitz is not None and cfg.beta > 0.0
    slope = cfg.beta * lipschitz if local_bounds else None
    # Where it pays, each ray's seam ends at _BOX_BOUND_REACH / floor if
    # nearer, and its slope is beta times the box bound over the segment up
    # to it (at most the constant's).
    box_bound = objective.metadata.lipschitz_box if local_bounds else None
    if box_bound is not None and (
        np.min(ceiling) < _BOX_BOUND_MIN_SPREAD * floor or slope < _BOX_BOUND_MIN_SLACK * floor * floor
    ):
        box_bound = None
    reach = _BOX_BOUND_REACH / floor
    anchors = np.empty(N) if local_bounds and per_chain_batches else None
    fld = objective.grad_field(None)
    # The audit of the declared constant, on every step that thins against
    # it, from gradients the step has anyway. With a full batch, from step 2
    # on, the previous reflection gradient g(theta) and this step's
    # g(theta') share a field, so ||g(theta') - g(theta)|| <= L * eta. With
    # per-chain batches, the evaluated anchor q(0) and the rate q(eta) from
    # the reflection gradient share the step's batch, so |q(eta) - q(0)| <=
    # beta * L * eta. Both limits carry the checks' rounding tolerance, and
    # bind only chains whose step stayed in the box. The steps are checked
    # a block at a time (and at the last step), which keeps the audit's
    # cost per step to a subtraction and its memory to _AUDIT_ELEMENTS.
    if local_bounds:
        audit_limit = slope if per_chain_batches else lipschitz
        audit_tol = _RTOL * (ceiling if per_chain_batches else objective.grad_norm_bound) + 1e-12
        audit_every = max(1, _AUDIT_ELEMENTS // (N * d))
        changes, lengths, ends, segments, constants = [], [], [], [], []
    grads = None

    wanted = {int(s) for s in snapshot_steps}
    snapshots: dict[int, np.ndarray] = {}
    if 0 in wanted:
        snapshots[0] = thetas.copy()

    recorded = [int(i) for i in record_chains]
    if any(not 0 <= i < N for i in recorded):
        raise ValueError(f"record_chains must lie in [0, {N}), got {recorded}")
    records = [RunRecord(kind=cfg.kind, config=asdict(cfg), stride=cfg.record_stride) for _ in recorded]
    if cfg.n_steps == 0:
        for rec, i in zip(records, recorded):
            rec.append(0, thetas[i], vels[i])

    max_dev = 0.0
    eta_sum = 0.0
    totals = dict.fromkeys(cfg.counts, 0)
    for k in range(1, cfg.n_steps + 1):
        if per_chain_batches:
            idx = _sample_batches(gen, N, n, m)
            fld = objective.grad_field(idx)

        if local_bounds:
            seams = domain.first_seam_radii(thetas, vels)
            if box_bound is not None:
                np.minimum(seams, reach, out=seams)
                far = seams[:, None] * vels
                far += thetas
                curvature = np.minimum(box_bound(thetas, far), lipschitz)
                slope = curvature * cfg.beta
        if cfg.beta == 0.0:
            # rate is exactly the constant floor: draw directly
            etas = gen.exponential(1.0 / floor, size=N)
        else:
            etas = thin_first_arrivals(
                ray_rate_rows(fld, domain.wrap, cfg.beta, floor, thetas, vels),
                N,
                floor,
                ceiling,
                rng,
                slope=slope,
                anchor_rates=anchors,
                evaluate_anchors=local_bounds and per_chain_batches,
                seam_radii=seams if local_bounds else None,
            )
        eta_sum += float(etas.sum())

        raw = thetas + etas[:, None] * vels
        thetas = domain.wrap(raw)
        previous, grads = grads, np.asarray(fld(thetas, rows=None), dtype=float)
        objective.check_grad_norms(grads)
        if local_bounds and (per_chain_batches or previous is not None):
            if per_chain_batches:
                change = _start_rates(grads, vels, cfg.beta, floor) - anchors
            else:
                change = grads - previous
            changes.append(change)
            lengths.append(etas)
            ends.append(raw)
            if box_bound is not None:
                segments.append(seams)
                constants.append(slope if per_chain_batches else curvature)
            if len(lengths) == audit_every or k == cfg.n_steps:
                limit = audit_limit
                if box_bound is not None:
                    # a ray's own constant binds a step that ended within
                    # its neighbourhood
                    within = np.array(lengths) <= np.array(segments)
                    limit = np.where(within, np.array(constants), audit_limit)
                    segments, constants = [], []
                _audit_lipschitz(changes, lengths, ends, limit, audit_tol, domain)
                changes, lengths, ends = [], [], []
        vels, tags, counts = cfg.turn(vels, grads, rng)
        for name, count in counts.items():
            totals[name] += count
        norms = _row_norms(vels)
        max_dev = max(max_dev, float(np.abs(norms - 1.0).max()))
        vels = vels / norms[:, None]
        if local_bounds and not per_chain_batches:
            anchors = _start_rates(grads, vels, cfg.beta, floor)
        if k in wanted:
            snapshots[k] = thetas.copy()
        if records and (k % cfg.record_stride == 0 or k == cfg.n_steps):
            # chains that own a dataset are scored on it, all in one call
            risks = objective.empirical_risk(thetas) if cfg.record_risk and per_chain_data else None
            for rec, i in zip(records, recorded):
                row = {"grad_norm": float(np.linalg.norm(grads[i]))}
                if per_chain_batches:
                    row["batch"] = idx[i].tolist()
                if cfg.record_risk:
                    row["risk"] = float(objective.empirical_risk(thetas[i]) if risks is None else risks[i])
                if tags is not None:
                    row.update(tags(i))
                rec.append(k, thetas[i], vels[i], eta=etas[i], **row)

    for rec in records:
        rec.max_norm_deviation = max_dev
    chain_steps = max(1, cfg.n_steps * N)
    return EnsembleResult(
        thetas=thetas,
        velocities=vels,
        n_steps=cfg.n_steps,
        max_norm_deviation=max_dev,
        mean_eta=eta_sum / chain_steps,
        snapshots=snapshots,
        extras={f"{name}_fraction": total / chain_steps for name, total in totals.items()},
        records=records,
    )


def _run_one(objective: Objective, cfg) -> RunRecord:
    """The record of the single chain ``cfg`` describes."""
    point, velocity = cfg.initial_point, cfg.initial_velocity
    result = _run_chains(
        objective,
        cfg,
        1,
        initial_points=None if point is None else [point],
        initial_velocities=None if velocity is None else [velocity],
        record_chains=(0,),
    )
    return result.records[0]


def run_poisson_sgd_ensemble(
    objective: Objective,
    cfg: PoissonSgdConfig,
    n_chains: int,
    rng: RngStream | None = None,
    initial_points: np.ndarray | None = None,
    initial_velocities: np.ndarray | None = None,
    snapshot_steps: Sequence[int] = (),
    record_chains: Sequence[int] = (),
) -> EnsembleResult:
    """Advance ``n_chains`` independent optimizer chains in lock step.

    ``rng`` defaults to ``RngStream(cfg.seed)``. The chains listed in
    ``record_chains`` are recorded every ``cfg.record_stride`` steps into
    ``result.records``.
    """
    return _run_chains(
        objective, cfg, n_chains, rng, initial_points, initial_velocities, snapshot_steps, record_chains
    )


def run_poisson_sgd(objective: Objective, cfg: PoissonSgdConfig) -> RunRecord:
    """Run one chain for K steps and return its stride-thinned record.

    The chain is chain 0 of the one-chain ensemble seeded by ``cfg.seed``,
    started at ``cfg.initial_point`` / ``cfg.initial_velocity`` when given.
    The record keeps steps with ``k % record_stride == 0`` plus step K, so
    ``record_stride = 1`` retains every step and replaying the same config
    byte-reproduces the file.
    """
    return _run_one(objective, cfg)
