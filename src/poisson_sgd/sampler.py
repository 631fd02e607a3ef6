"""Seedable RNG streams and exact first-arrival samplers for ray rates.

The event law shared by the optimizer and the sampler has survival function
``exp(-int_0^t rate(r) dr)`` with ``rate(r) = beta * <g(x + r v), v>_+ + C``.
``ray_rate_rows`` is the one implementation of that rate: the chains thin
against it, and the tests hand the same callback to the oracle. Two
independent routes draw from it: Poisson thinning (primary; exact whenever
the declared ceiling really dominates) and a tabulated inverse CDF built by
quadrature (test oracle). They share no code beyond the rate callable.

Thinning proposes at the global ceiling ``beta * M + C`` (``M`` bounds
``||g||`` on the whole domain), which always dominates, and accepts a
proposal when its level ``u * ceiling`` lies below the rate. Rays whose
gradients have different bounds (chains on their own datasets) each
propose at their own ceiling. Most proposals need no rate evaluation,
because each has two-sided bounds on its rate that often decide it alone:
a level below the lower bound is accepted whatever the rate, one at or
above the upper bound is rejected, and a row stops evaluating at its first
sure acceptance. The bounds are the envelope
``[C, ceiling]``, narrowed by a Lipschitz constant: if ``g`` is
``L``-Lipschitz the rate moves by at most ``beta * L`` per unit radius, so
``q_a -/+ beta * L * (r - r_a)`` bound it past any anchor radius ``r_a``
whose rate ``q_a`` is known. That slope may be one per ray, from the
curvature of the ray's own neighbourhood, which is tighter wherever the
curvature varies. The draws stay exactly those of evaluating every
proposal; only the evaluations shrink. On the torus ``g`` jumps where
the ray crosses a seam, so a local bound holds only up to the ray's first
seam crossing (``TorusDomain.first_seam_radii``, moved inward by a margin
that floating-point rounding cannot cross); past it only the envelope
decides. A row that draws again re-anchors at its last evaluated proposal.
Each ray's first anchor is its rate at ``r = 0``, and the caller passes
every ray's seam and anchor as arrays (``optimizer._run_chains`` computes
them once per step). With a full batch the anchor is free, the rate the
previous reflection's gradient gives at the same point with the same
field; with per-chain mini-batches the thinning evaluates it into the
caller's array (``evaluate_anchors``), one rate of the step's own batches
per ray. Every anchor is checked against its ray's envelope, and every
evaluated rate against both local bounds, so a false ``L`` aborts the run
(``RateBoundError``) once an evaluation exposes it, and against its own
row's ceiling. The chain loop also audits ``L`` on every
step against the gradients the step computes anyway, so a false ``L`` that
only sure decisions met aborts too.

A round costs a fixed number of array operations, whatever its number of
rows, and small ensembles run several rounds per draw (a few rows miss
every proposal of a round), so the round is written for few operations:
only the first round gathers the rows it keeps, later rounds carry every
row that drew again, a row's seam and bounds (and its own slope, if
slopes are per ray) travel as one record, each check compares against
limits computed once per call, and every evaluated proposal re-anchors its
row, so that the rows that draw again need no search for their last
evaluation. Rows of 2-d arrays are gathered with ``take``, several times
cheaper than fancy indexing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "RateBoundError",
    "RngStream",
    "as_generator",
    "uniform_sphere",
    "ray_rate_rows",
    "thin_first_arrivals",
    "RayCdfInverter",
]

_RTOL = 1e-9


class RateBoundError(RuntimeError):
    """A ray rate escaped a declared bound: its [floor, ceiling] envelope or
    the local bounds of a Lipschitz constant."""


@dataclass
class RngStream:
    """Deterministic PCG64 stream with an explicit spawn lineage.

    The same ``(seed, spawn_key)`` always reproduces the same draw sequence.
    ``child`` streams are independent by construction, so parallel trials can
    be keyed by index with no draw-order coupling between them. Streams are
    single-owner: stepping an algorithm consumes the stream it holds.
    """

    seed: int
    spawn_key: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self.seed = int(self.seed)
        self.spawn_key = tuple(int(k) for k in self.spawn_key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self.generator = np.random.Generator(np.random.PCG64(seq))

    def child(self, *key: int) -> "RngStream":
        """Independent stream addressed by a fixed integer path."""
        return RngStream(self.seed, self.spawn_key + tuple(int(k) for k in key))


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream or a bare numpy Generator; return the Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    gen = getattr(rng, "generator", None)
    if isinstance(gen, np.random.Generator):
        return gen
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng).__name__}")


def uniform_sphere(d: int, rng, size: int | None = None) -> np.ndarray:
    """Uniform draw(s) on the unit sphere S^{d-1} via normalized Gaussians.

    Returns shape (d,) for ``size=None`` else (size, d). For d = 1 this is a
    fair coin on {-1, +1}: the signs of the Gaussians, which is what
    normalizing them gives, bit for bit (in binary floating point sqrt(x *
    x) is |x| and x / |x| is exactly +-1), without the division.
    """
    if int(d) != d or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    gen = as_generator(rng)
    n, d = 1 if size is None else int(size), int(d)
    out = gen.standard_normal((n, d))
    while True:  # a redraw has probability ~0, but keeps the law exact
        norms = np.abs(out[:, 0]) if d == 1 else _row_norms(out)
        bad = norms < 1e-150
        if not np.count_nonzero(bad):
            break
        out[bad] = gen.standard_normal((int(bad.sum()), d))
    if d == 1:
        np.copysign(1.0, out, out=out)
    else:
        out /= norms[:, None]
    return out[0] if size is None else out


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=1)`` of a real (n, d) array, bit for bit,
    without its dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def ray_rate_rows(
    field: Callable[..., np.ndarray],
    wrap: Callable[[np.ndarray], np.ndarray],
    beta: float,
    floor: float,
    starts: np.ndarray,
    headings: np.ndarray,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The ``rate_rows`` callback of ``thin_first_arrivals`` for the rays
    ``starts[i] + r * headings[i]``: ``beta * <g(x), headings[i]>_+ + floor``.

    ``field(points, rows=rows)`` gives the gradients ``g`` at points of the
    listed rays, each from its own row's field (an objective's
    ``grad_field``); ``wrap`` maps ray points into the geometry first (e.g.
    ``TorusDomain.wrap``). ``starts`` and ``headings`` are (n, d), the
    headings unit vectors. This is the one rate both chains draw from;
    ``thin_first_arrivals`` checks every rate it returns against the
    envelope.
    """

    def rate_rows(radii: np.ndarray, rows: np.ndarray) -> np.ndarray:
        heading = headings.take(rows, axis=0)
        points = radii[..., None] * heading[:, None, :]
        points += starts.take(rows, axis=0)[:, None, :]
        rates = np.einsum("kbd,kd->kb", field(wrap(points), rows=rows), heading)
        np.maximum(rates, 0.0, out=rates)
        rates *= beta
        rates += floor
        return rates

    return rate_rows


def thin_first_arrivals(
    rate_rows: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n: int,
    floor: float,
    ceiling,
    rng: RngStream,
    block: int | None = None,
    max_proposals: int = 200_000_000,
    *,
    slope=None,
    anchor_rates: np.ndarray | None = None,
    evaluate_anchors: bool = False,
    seam_radii: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized exact first arrivals of inhomogeneous exponential laws.

    Each round draws ``block`` proposals per ray from the homogeneous
    Exp(ceiling) process and a level ``u * ceiling`` per proposal, at the
    ray's own ceiling when ``ceiling`` gives one per ray; a proposal is
    accepted when its level lies below the rate there, and the first
    accepted one has exactly the target law (classic thinning). Termination
    is a.s. because acceptance probability >= floor/ceiling > 0.

    Every proposal gets a lower and an upper bound on its rate before any
    rate is evaluated: ``[floor, ceiling]``, narrowed with ``slope`` to
    ``[max(floor, q_a - slope * (r - r_a)), min(ceiling, q_a + slope * (r -
    r_a))]`` below the row's seam, where ``q_a`` is the known rate at the
    row's anchor radius ``r_a``. A proposal whose level lies below its lower
    bound is accepted surely, one whose level reaches its upper bound is
    rejected surely, and only the undecided proposals before a row's first
    sure acceptance are evaluated; the row's arrival is its first accepted
    proposal, sure or evaluated. The draws are therefore exactly those of
    evaluating every proposal on the same stream, at a fraction of the rate
    evaluations. The local bounds hold while the rate is ``slope``-Lipschitz
    in r, i.e. below the row's seam radius; past it, or before a row has an
    anchor, they widen to the envelope. With one slope per ray, each row's
    bounds use its own, so a caller may pass the slope of a stretch of the
    ray and end the row's seam where that stretch ends. A row that draws
    again re-anchors at its last evaluated proposal before its seam. Every
    evaluated rate is checked against both local bounds as well as its
    row's envelope, so a false ``slope`` or ceiling raises
    ``RateBoundError`` whichever side it breaks. The evaluated proposals go
    to ``rate_rows`` as one flat list.

    The envelope alone decides every row whose first level lies below the
    floor: it arrives at its first proposal. All further work of the first
    round, the local bounds included, covers only the other rows, so a
    first round in which no row has an open first proposal costs its draws,
    the anchors' envelope check and one comparison. Later rounds carry
    every row that draws again through the same steps; a row whose first
    level there lies below the floor is accepted at it surely, like any
    level below its lower bound.

    Args:
        rate_rows: callback mapping (radii (k, 1), rows (k,)) -> rates (k, 1),
            where ``rows`` indexes which of the n rays each radius belongs
            to (rows repeat, in radius order). Rates must respect their
            row's [floor, ceiling] envelope.
        n: number of independent rays.
        floor: shared positive rate floor.
        ceiling: positive rate ceiling, shared (a scalar) or per ray ((n,)).
            A shared ceiling draws exactly what equal per-ray ones draw.
        rng: stream consumed by the draws.
        block: proposals drawn per ray per round; default sized from the
            mean ceiling so one round usually suffices.
        slope: Lipschitz constant in r of the rates below their seams,
            shared (a scalar) or per ray ((n,)), like ``ceiling``; a ray's
            own slope may bound only the stretch below its own seam. None
            bounds every rate by the envelope alone. Equal per-ray slopes
            draw and evaluate exactly what the shared slope does.
        anchor_rates: (n,) rates at radius 0, which anchor the rows' local
            bounds; each is checked against its row's envelope. None leaves
            rows unanchored until they draw again.
        evaluate_anchors: before drawing, fill ``anchor_rates`` with the
            rates at radius 0, evaluated through ``rate_rows`` in one call
            of n proposals, and anchor on them.
        seam_radii: (n,) radii below which the rows' rates are
            ``slope``-Lipschitz (+inf when they never jump); a row at or
            past its seam has no local bound. Required with ``slope``.

    Returns:
        (n,) array of arrival radii.
    """
    # (np.ndim of a float costs microseconds, and this runs once per step)
    per_row = not isinstance(ceiling, float) and np.ndim(ceiling) > 0
    lowest = highest = mean_ceiling = ceiling
    if per_row:
        ceiling = np.asarray(ceiling, dtype=float)
        if ceiling.shape != (n,):
            raise ValueError(f"ceiling must be a scalar or have shape ({n},)")
        lowest, highest, mean_ceiling = ceiling.min(), ceiling.max(), ceiling.mean()
    if not (floor > 0.0 and lowest > 0.0 and math.isfinite(highest)):
        raise ValueError("floor and ceiling must be positive and finite")
    if floor > lowest * (1.0 + _RTOL):
        raise ValueError("floor exceeds ceiling")
    # a per-ray slope travels in a fourth column of ``bounds`` (below)
    row_slopes = slope is not None and not isinstance(slope, float) and np.ndim(slope) > 0
    if row_slopes:
        slope = np.asarray(slope, dtype=float)
        if slope.shape != (n,):
            raise ValueError(f"slope must be a scalar or have shape ({n},)")
        if not (slope.min() >= 0.0 and slope.max() < math.inf) or seam_radii is None:
            raise ValueError("slope must be finite and >= 0, with seam_radii")
    elif slope is None:
        if anchor_rates is not None or evaluate_anchors or seam_radii is not None:
            raise ValueError("anchor_rates, evaluate_anchors and seam_radii need a slope")
    elif not (math.isfinite(slope) and slope >= 0.0) or seam_radii is None:
        raise ValueError("slope must be finite and >= 0, with seam_radii")
    if evaluate_anchors and anchor_rates is None:
        raise ValueError("evaluate_anchors fills anchor_rates, which must be given")
    if slope is not None:
        seam_radii = np.asarray(seam_radii, dtype=float)
        if seam_radii.shape != (n,) or (anchor_rates is not None and np.shape(anchor_rates) != (n,)):
            raise ValueError(f"seam_radii and anchor_rates must have shape ({n},)")
    if block is None:
        block = int(min(max(math.ceil(1.3 * mean_ceiling / floor) + 2, 4), 4096))
    gen = as_generator(rng)
    eta = np.empty(n)
    scale = 1.0 / ceiling
    # every bound is widened by the checks' rounding tolerance, so a rate
    # that passes its checks always agrees with its proposal's sure decision
    tol = _RTOL * ceiling + 1e-12
    sure = floor - tol  # a level below it is accepted whatever the rate
    # the limits of the envelope check, once per call
    lower, upper = floor * (1.0 - _RTOL) - 1e-12, ceiling * (1.0 + _RTOL) + 1e-12
    if evaluate_anchors:
        anchor_rates[:] = _evaluate(rate_rows, np.zeros((n, 1)), np.arange(n))[:, 0]
    if anchor_rates is not None:
        anchor_rates = np.asarray(anchor_rates, dtype=float)
        _check_envelope(anchor_rates, floor, ceiling, lower, upper)
    starts = np.arange(0, n * block, block)  # flat index of each row's first proposal
    active = np.arange(n)
    offsets = None  # radii the active rows have reached; None in the first round
    # Row i of ``bounds`` holds active row i's seam radius, then ``low`` and
    # ``high``: below the seam the row's rate at radius r lies in [low + tol -
    # slope * r, high - tol + slope * r], where low = q_a + slope * r_a - tol
    # and high = q_a - slope * r_a + tol from its anchor (r_a, q_a); they are
    # -inf and +inf while the row has none. With per-ray slopes, a fourth
    # column holds the row's own. A row gets its seam and anchor when it
    # first has an open proposal, as every row that draws again has.
    bounds = None
    proposed = 0
    while True:
        k = active.size
        gaps = gen.exponential(scale[active, None] if per_row else scale, size=(k, block))
        levels = gen.random((k, block))
        levels *= ceiling[active, None] if per_row else ceiling
        proposed += k * block
        if proposed > max_proposals:
            raise RateBoundError("thinning exceeded its proposal budget")
        rows, floors = active, (sure[active, None] if per_row else sure)
        if offsets is None:
            # a level below the floor is accepted whatever the rate: a row
            # whose first level is arrives at its first radius, and only the
            # other rows go on
            eta[:] = gaps[:, 0]
            opened = (levels[:, 0] >= (floors[:, 0] if per_row else floors)).nonzero()[0]
            if not opened.size:
                return eta
            if opened.size < k:
                rows, gaps, levels = opened, gaps.take(opened, axis=0), levels.take(opened, axis=0)
                if per_row:
                    floors = floors.take(opened, axis=0)
        radii = np.add.accumulate(gaps, axis=1)
        if offsets is not None:
            radii += offsets[:, None]
        if slope is not None:
            if bounds is None:
                bounds = np.empty((rows.size, 4 if row_slopes else 3))
                bounds[:, 0] = seam_radii.take(rows)
                if row_slopes:
                    bounds[:, 3] = slope[rows]
                if anchor_rates is None:
                    bounds[:, 1:3] = (-np.inf, np.inf)
                else:
                    q = anchor_rates.take(rows)
                    margin = tol[rows] if per_row else tol
                    np.subtract(q, margin, out=bounds[:, 1])
                    np.add(q, margin, out=bounds[:, 2])
            reach = radii * (bounds[:, 3:] if row_slopes else slope)
            # radii grow along a row, so only a row whose last radius reaches
            # its seam has proposals past it, where the rate may jump
            beyond = np.count_nonzero(radii[:, -1] < bounds[:, 0]) < rows.size
            if beyond:
                reach = np.where(radii < bounds[:, :1], reach, np.inf)
        accept = levels < floors
        if slope is not None:
            accept |= levels + reach < bounds[:, 1:2]
        # evaluate the undecided proposals before each row's first sure
        # acceptance: nothing after it can change the row's arrival
        surely = np.logical_or.accumulate(accept, axis=1)
        if slope is None:
            need = ~surely
        else:  # and below the upper bound; for booleans a > b is a and not b
            need = np.greater(levels - reach < bounds[:, 2:3], surely)
        at = need.ravel().nonzero()[0]
        if at.size:
            local = at // block
            owners = rows[local]
            rates = _evaluate(rate_rows, radii.ravel()[at, None], owners)[:, 0]
            _check_envelope(rates, floor, ceiling, lower, upper, owners if per_row else None)
            if slope is not None:
                # each rate carried back to radius 0 both ways, as ``bounds``
                # holds its row's anchor
                reach_at = reach.ravel()[at]
                carried = np.empty((at.size, 2))
                np.add(rates, reach_at, out=carried[:, 0])
                np.subtract(rates, reach_at, out=carried[:, 1])
                own = bounds.take(local, axis=0)
                _check_local_bounds(rates, (carried[:, 0] < own[:, 1]) | (carried[:, 1] >= own[:, 2]))
            accept.ravel()[at] = levels.ravel()[at] < rates
        # each row arrives at its first accepted proposal, sure or evaluated;
        # a row with none draws again, and the radius picked for it here is
        # overwritten then
        first = starts[: rows.size] + accept.argmax(axis=1)
        eta[rows] = radii.ravel()[first]
        missed = (~accept.ravel()[first]).nonzero()[0]
        if not missed.size:
            return eta
        if slope is not None:
            if at.size:
                # every row with an evaluated proposal re-anchors at its last
                # one (they are listed row by row, in radius order), or loses
                # its bounds if that lies past its seam; the rows that draw
                # again keep theirs
                last = np.empty(at.size, dtype=bool)
                last[-1] = True
                np.not_equal(local[1:], local[:-1], out=last[:-1])
                carried = carried.compress(last, axis=0)
                margin = tol[owners[last]] if per_row else tol
                carried[:, 0] -= margin
                carried[:, 1] += margin
                if beyond:
                    carried[reach_at[last] == np.inf] = (-np.inf, np.inf)
                bounds[local[last], 1:3] = carried
            bounds = bounds.take(missed, axis=0)
        offsets = radii[:, -1][missed]
        active = rows[missed]


def _check_envelope(values, floor, ceiling, lower, upper, rows=None) -> None:
    """Refuse rates outside ``[floor, ceiling]``, that is below ``lower`` or
    above ``upper``: the envelope widened by the checks' rounding tolerance,
    which thinning computes once per call. ``ceiling`` and ``upper`` are
    scalars or one per ray, and ``rows`` then picks the values' own."""
    if rows is not None:
        ceiling, upper = ceiling[rows], upper[rows]
    if not values.size or (
        values.min() >= lower and (values.max() <= upper if isinstance(upper, float) else (values <= upper).all())
    ):
        return
    within = values <= upper  # False for NaN too
    if not within.all():
        i = np.unravel_index(int(within.argmin()), within.shape)
        limit = np.broadcast_to(ceiling, values.shape)[i]
        raise RateBoundError(
            f"rate {values[i]:.6g} exceeds ceiling {limit:.6g}: the declared "
            "gradient bound is false; aborting instead of drawing biased times"
        )
    raise RateBoundError(f"rate {float(values.min()):.6g} fell below floor {floor:.6g}: rate construction bug")


def _evaluate(rate_rows, radii: np.ndarray, rows: np.ndarray) -> np.ndarray:
    rates = np.asarray(rate_rows(radii, rows), dtype=float)
    if rates.shape != radii.shape:
        raise ValueError(f"rate_rows returned shape {rates.shape}, expected {radii.shape}")
    return rates


def _check_local_bounds(rates: np.ndarray, outside: np.ndarray) -> None:
    if np.count_nonzero(outside):
        i = np.unravel_index(int(outside.argmax()), outside.shape)
        raise RateBoundError(
            f"rate {rates[i]:.6g} lies outside its local bounds: the declared Lipschitz "
            "constant is false; aborting instead of drawing biased times"
        )


class RayCdfInverter:
    """Tabulated inverse CDF of the first-arrival law for an arbitrary rate.

    Integrates the rate with the composite trapezoid rule, doubling node
    counts until the cumulative hazard is stable to ``tol``, then inverts by
    monotone interpolation. ``breakpoints`` lists radii where the rate may
    jump (periodic seam crossings); quadrature then runs piecewise between
    them, with jump points excluded by one-ulp nudges, so discontinuities
    cost no accuracy. Fully independent of the thinning sampler; meant as a
    test oracle, not a hot path.
    """

    def __init__(
        self,
        rate_fn: Callable[[np.ndarray], np.ndarray],
        floor: float,
        tol: float = 1e-8,
        tail_mass: float = 1e-13,
        initial_nodes: int = 4097,
        max_doublings: int = 10,
        breakpoints=(),
    ):
        if not (floor > 0.0 and math.isfinite(floor)):
            raise ValueError("a positive rate floor is required to bound the horizon")
        self.floor = float(floor)
        self.horizon = -math.log(tail_mass) / floor

        # Nudge distance for keeping evaluation radii strictly off the jump
        # points. One ulp in r is NOT enough: downstream the caller computes
        # base + r * direction, and that addition can round exactly onto the
        # seam, landing the evaluation on the wrong side. An absolute margin
        # proportional to the horizon's float spacing survives the addition;
        # the hazard mass skipped is at most ceiling * delta, far below tol.
        delta = 32.0 * np.spacing(self.horizon)
        cuts = np.unique(np.asarray(breakpoints, dtype=float).ravel())
        cuts = cuts[(cuts > 0.0) & (cuts < self.horizon)]
        edges = np.concatenate([[0.0], cuts, [self.horizon]])
        keep = np.concatenate([[True], np.diff(edges) > 4.0 * delta])
        edges = edges[keep]
        if edges[-1] < self.horizon:
            edges[-1] = self.horizon

        pieces = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            # nudge interior jump points out of the evaluation grid
            lo_in = lo + delta if lo > 0.0 else lo
            hi_in = hi - delta if hi < self.horizon else hi
            count = max(33, int(math.ceil(initial_nodes * (hi - lo) / self.horizon)))
            times = np.linspace(lo_in, hi_in, count)
            rates = np.asarray(rate_fn(times), dtype=float)
            pieces.append([times, rates, _cumtrapz(times, rates), math.inf])

        for _ in range(max_doublings):
            if all(p[3] < tol for p in pieces):
                break
            for p in pieces:
                if p[3] < tol:
                    continue
                times, rates, cum, _ = p
                fine = np.linspace(times[0], times[-1], 2 * (times.size - 1) + 1)
                fine[::2] = times  # keep coarse nodes exact for the comparison
                fine_rates = np.asarray(rate_fn(fine), dtype=float)
                fine_cum = _cumtrapz(fine, fine_rates)
                p[:] = [fine, fine_rates, fine_cum, float(np.max(np.abs(fine_cum[::2] - cum)))]
        if any(p[3] >= tol for p in pieces):
            raise RuntimeError(
                f"cumulative hazard did not converge to tol={tol:g} "
                f"within {max_doublings} refinements"
            )

        offsets = np.concatenate([[0.0], np.cumsum([p[2][-1] for p in pieces])])
        times = np.concatenate([p[0] for p in pieces])
        rates = np.concatenate([p[1] for p in pieces])
        cum = np.concatenate([p[2] + off for p, off in zip(pieces, offsets)])
        if np.any(rates < floor * (1.0 - _RTOL) - 1e-12) or not np.all(
            np.isfinite(rates)
        ):
            raise ValueError("rate function dips below its declared floor")
        self.times = times
        self.rates = rates
        self.cumhaz = cum

    def ppf(self, u):
        """Quantile(s) of the arrival law; u in [0, 1)."""
        u_arr = np.asarray(u, dtype=float)
        if np.any((u_arr < 0.0) | (u_arr >= 1.0)):
            raise ValueError("u must lie in [0, 1)")
        target = -np.log1p(-u_arr)
        idx = np.clip(
            np.searchsorted(self.cumhaz, target, side="left"), 1, self.cumhaz.size - 1
        )
        t0 = self.times[idx - 1]
        h0 = self.cumhaz[idx - 1]
        dh = self.cumhaz[idx] - h0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                dh > 0.0, t0 + (target - h0) * (self.times[idx] - t0) / dh, t0
            )
        # beyond the tabulated horizon (mass ~tail_mass) extend with final rate
        tail = target > self.cumhaz[-1]
        if np.any(tail):
            out = np.where(
                tail,
                self.times[-1] + (target - self.cumhaz[-1]) / self.rates[-1],
                out,
            )
        return float(out) if np.isscalar(u) or np.ndim(u) == 0 else out

    def sample(self, rng, size: int | None = None):
        gen = as_generator(rng)
        u = gen.random() if size is None else gen.random(int(size))
        return self.ppf(u)


def _cumtrapz(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    steps = np.diff(x) * 0.5 * (y[1:] + y[:-1])
    return np.concatenate([[0.0], np.cumsum(steps)])

