import math

import numpy as np
import pytest
from scipy import integrate, stats

from poisson_sgd.domain import TorusDomain
from poisson_sgd.objectives import quadratic_bowl
from poisson_sgd.optimizer import PoissonSgdConfig, run_poisson_sgd_ensemble
from poisson_sgd.sampler import (
    RateBoundError,
    RayCdfInverter,
    RngStream,
    ray_rate_rows,
    thin_first_arrivals,
    uniform_sphere,
)


def test_rngstream_reproducible_and_spawns_independent():
    a = RngStream(42)
    b = RngStream(42)
    assert np.array_equal(a.generator.random(5), b.generator.random(5))
    c = RngStream(42, spawn_key=(1,))
    d = RngStream(42, spawn_key=(2,))
    assert not np.array_equal(c.generator.random(5), d.generator.random(5))


def test_rngstream_child_lineage():
    a = RngStream(7).child(3)
    b = RngStream(7).child(3)
    c = RngStream(7).child(4)
    assert np.array_equal(a.generator.random(4), b.generator.random(4))
    assert not np.array_equal(
        RngStream(7).child(3).generator.random(4), c.generator.random(4)
    )


def test_uniform_sphere_norms_and_symmetry():
    rng = RngStream(0)
    for d in (1, 2, 3, 8):
        v = uniform_sphere(d, rng, 4000)
        assert v.shape == (4000, d)
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) < 1e-12
        # each coordinate has mean 0 with SE ~ 1/sqrt(d n)
        assert np.all(np.abs(v.mean(axis=0)) < 5.0 / np.sqrt(d * 4000))


def test_uniform_sphere_d1_is_signs():
    v = uniform_sphere(1, RngStream(3), 1000)
    assert set(np.unique(v)) == {-1.0, 1.0}


def _constant_field(value):
    def field(points, rows=None):
        out = np.zeros_like(points)
        out[..., 0] = value
        return out

    return field


def _ray(field, beta, floor, base, direction, wrap=lambda points: points, n=1):
    """``ray_rate_rows`` for ``n`` identical rays from ``base`` along ``direction``."""
    base = np.asarray(base, dtype=float)
    direction = np.asarray(direction, dtype=float)
    return ray_rate_rows(
        field, wrap, beta, floor, np.broadcast_to(base, (n, base.size)), np.broadcast_to(direction, (n, base.size))
    )


def _along(rates):
    """Ray 0's rate as a function of 1-d radii, the oracle's callable."""
    return lambda t: rates(np.asarray(t, dtype=float)[:, None], np.zeros(np.size(t), dtype=int))[:, 0]


def _every_row(value):
    """A per-row callback of ``thin_first_arrivals`` (``anchor_rates``,
    ``seam_radii``) that gives every row ``value``."""
    return lambda rows: np.full(rows.shape, float(value))


def _counted(rate_rows):
    calls = {"rounds": 0, "proposals": 0}

    def counted(radii, rows):
        calls["rounds"] += 1
        calls["proposals"] += radii.size
        return rate_rows(radii, rows)

    return counted, calls


def _draw_one_by_one(rates, floor, ceiling, rng, count):
    """``count`` one-ray draws in a row from one stream."""
    return np.concatenate([thin_first_arrivals(rates, 1, floor, ceiling, rng) for _ in range(count)])


def test_ray_rate_values_and_ceiling():
    rates = _ray(_constant_field(3.0), 0.5, 0.8, [0.0, 0.0], [1.0, 0.0], n=64)
    assert np.allclose(_along(rates)(np.linspace(0, 5, 7)), 0.5 * 3.0 + 0.8)
    # beta * |g| + floor is the ceiling: the rate reaches it, never passes it
    thin_first_arrivals(rates, 64, 0.8, 0.5 * 3.0 + 0.8, RngStream(0))
    # negative projection clips to the floor
    neg = _ray(_constant_field(-3.0), 0.5, 0.8, [0.0, 0.0], [1.0, 0.0])
    assert np.allclose(_along(neg)(np.array([0.0, 1.0])), 0.8)


def test_ray_rate_validation():
    # a ray's arguments are checked where they enter: the floor by thinning,
    # beta by the chain configs, unit headings by the chain loop
    rates = _ray(_constant_field(1.0), 1.0, 1.0, [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        thin_first_arrivals(rates, 1, 0.0, 2.0, RngStream(0))
    with pytest.raises(ValueError):
        PoissonSgdConfig(beta=-1.0, epsilon=1.0, n_steps=1)
    with pytest.raises(ValueError, match="unit"):
        run_poisson_sgd_ensemble(
            quadratic_bowl([[2.0, 7.0]]),
            PoissonSgdConfig(beta=1.0, epsilon=1.0, n_steps=1),
            1,
            initial_velocities=[[1.0, 1.0]],  # not unit
        )


def test_ray_rate_envelope_violation_raises():
    # declared bound 1 but true gradient norm 3: thinning would be wrong,
    # so evaluation must abort instead
    n = 64
    rates = _ray(_constant_field(3.0), 1.0, 0.5, [0.0, 0.0], [1.0, 0.0], n=n)
    with pytest.raises(RateBoundError):
        thin_first_arrivals(rates, n, 0.5, 1.0 * 1.0 + 0.5, RngStream(0))


def test_constant_rate_reduces_to_exponential():
    lam = 2.5
    rates = _ray(_constant_field(0.0), 1.0, lam, [0.0, 0.0], [1.0, 0.0])
    draws = _draw_one_by_one(rates, lam, lam, RngStream(17), 4000)
    ks = stats.kstest(draws, "expon", args=(0.0, 1.0 / lam)).statistic
    assert ks < 0.03
    assert abs(draws.mean() - 1.0 / lam) < 5 * (1.0 / lam) / np.sqrt(4000)


def test_thin_first_arrivals_vectorized_constant():
    lam = 4.0
    rate_rows = lambda radii, rows: np.full_like(radii, lam)  # noqa: E731
    draws = thin_first_arrivals(rate_rows, 50000, lam, lam, RngStream(5))
    ks = stats.kstest(draws, "expon", args=(0.0, 1.0 / lam)).statistic
    assert ks < 0.01


def test_thin_first_arrivals_without_slope_draws_pinned_values():
    # the ceiling path is the no-slope case of the local-bound sampler; its
    # draws are pinned so that callers without a Lipschitz constant keep
    # their exact random streams (several rows need several rounds here)
    fn = lambda t: 1.0 + 0.5 * np.sin(2.2 * t + 0.4)  # noqa: E731
    draws = thin_first_arrivals(lambda r, rows: fn(r), 6, 0.5, 1.5, RngStream(47), block=2)
    assert draws.tolist() == [
        6.2827791583941215,
        0.8142641171214215,
        0.5430551280967901,
        0.1880478737881876,
        0.2808046953856628,
        0.5287067978021533,
    ]


def _wavy(radii, rows):
    # 1.1-Lipschitz rates between 0.5 and 1.5, a different phase per row
    return 1.0 + 0.5 * np.sin(2.2 * radii + 0.4 + rows[:, None])


def test_thin_first_arrivals_with_a_slope_draws_pinned_values():
    # the local-bound path is pinned too, draws and evaluations: two
    # proposals per round under a loose ceiling, so rows draw again,
    # re-anchor and need three rounds or more; seams as close as 0 (row 0
    # is at its seam) leave some rows past theirs; the second call gives
    # every row its own ceiling and evaluates its anchors. Per-ray slopes
    # all equal to the shared one draw and evaluate exactly what it does
    for slope in (1.1, np.full(12, 1.1)):
        rate_rows, calls = _counted(_wavy)
        draws = thin_first_arrivals(
            rate_rows,
            12,
            0.5,
            4.0,
            RngStream(52),
            block=2,
            slope=slope,
            anchor_rates=lambda rows: _wavy(np.zeros((rows.size, 1)), rows)[:, 0],
            seam_radii=lambda rows: 0.4 * (rows % 4) + 0.05 * rows,
        )
        assert draws.tolist() == [
            0.5923216106314693,
            0.2782386744255532,
            0.6986447618924816,
            0.2270391851320597,
            0.6523246735448341,
            0.9332168785904624,
            0.7563484283899465,
            0.08419859989813452,
            2.312051170856011,
            1.8533482622172506,
            1.4229266262390832,
            0.697147764531338,
        ]
        assert calls == {"rounds": 5, "proposals": 22}

        rate_rows, calls = _counted(_wavy)
        draws = thin_first_arrivals(
            rate_rows,
            12,
            0.5,
            1.5 + 0.5 * np.arange(12),
            RngStream(53),
            block=2,
            slope=slope,
            evaluate_anchors=True,
            seam_radii=lambda rows: 0.5 * (rows % 3),
        )
        assert draws.tolist() == [
            0.002021501822339843,
            2.2492960563761333,
            0.0967107857246598,
            1.758330103800287,
            0.272871570960863,
            1.1255550197111845,
            1.9313563894847818,
            0.977462286365638,
            1.0699284660076673,
            0.0276256410888842,
            0.986832418742498,
            0.3267631710867109,
        ]
        # the first call evaluates the 12 anchors
        assert calls == {"rounds": 6, "proposals": 36}


# row i's rate swings by AMPLITUDES[i % 4] around 1.0, so its own slope is
# 2.2 times that, and the largest, 1.1, is every row's shared slope
AMPLITUDES = np.array([0.5, 0.2, 0.05, 0.0])


def _swinging(radii, rows):
    return 1.0 + AMPLITUDES[rows % 4, None] * np.sin(2.2 * radii + 0.4 + rows[:, None])


@pytest.mark.parametrize("seed", [54, 55, 56])
def test_smaller_per_ray_slopes_draw_the_same_and_evaluate_no_more(seed):
    n = 400
    rows = np.arange(n)
    anchors = _swinging(np.zeros((n, 1)), rows)[:, 0]
    seams = 0.5 + 0.01 * (rows % 50)
    runs = []
    for slope in (1.1, 2.2 * AMPLITUDES[rows % 4]):
        rate_rows, calls = _counted(_swinging)
        draws = thin_first_arrivals(
            rate_rows,
            n,
            0.5,
            3.0,
            RngStream(seed),
            block=3,
            slope=slope,
            anchor_rates=anchors.__getitem__,
            seam_radii=seams.__getitem__,
        )
        runs.append((draws, calls))
    (shared, shared_calls), (per_ray, per_ray_calls) = runs
    assert shared.tobytes() == per_ray.tobytes()
    assert per_ray_calls["proposals"] < shared_calls["proposals"]
    plain = thin_first_arrivals(_swinging, n, 0.5, 3.0, RngStream(seed), block=3)
    assert plain.tobytes() == shared.tobytes()


def test_thin_first_arrivals_requires_positive_floor():
    rate_rows = lambda radii, rows: np.ones_like(radii)  # noqa: E731
    with pytest.raises(ValueError):
        thin_first_arrivals(rate_rows, 4, 0.0, 1.0, RngStream(0))


def test_thinning_matches_oracle_smooth_field():
    # rate 0.8 + 0.6 r on an unbounded ray: closed-form hazard available
    def field(points, rows=None):
        out = np.zeros_like(points)
        out[..., 0] = points[..., 0]
        return out

    rates = _ray(field, 0.6, 0.8, [0.0], [1.0])
    inverter = RayCdfInverter(_along(rates), 0.8)
    # hazard H(t) = 0.8 t + 0.3 t^2; compare against closed form
    ts = np.linspace(0.0, 5.0, 9)
    idx = np.searchsorted(inverter.times, ts)
    closed = 0.8 * inverter.times[idx] + 0.3 * inverter.times[idx] ** 2
    assert np.max(np.abs(inverter.cumhaz[idx] - closed)) < 1e-7

    thin = _draw_one_by_one(rates, 0.8, 0.6 * 120.0 + 0.8, RngStream(23), 6000)
    qs = inverter.ppf((np.arange(80000) + 0.5) / 80000)
    from poisson_sgd.metrics import wasserstein1_1d

    assert wasserstein1_1d(thin, qs) < 0.03


def test_inverter_matches_quadrature_with_seams():
    # wrapped bowl gradient jumps at box seams; breakpoints keep the
    # tabulated hazard accurate there
    objective = quadratic_bowl([[2.0, 7.0]], side_lengths=10.0)
    base = np.array([5.0, 5.0])
    direction = np.array([1.0, 0.0])
    rates = _ray(objective.grad_field(None), 0.7, 0.8, base, direction, objective.domain.wrap)
    rate = _along(rates)
    horizon = -math.log(1e-13) / 0.8
    inverter = RayCdfInverter(
        rate, 0.8, breakpoints=objective.domain.ray_seam_radii(base, direction, horizon)
    )

    def scalar_rate(r):
        return float(rate(np.array([r]))[0])

    for t in (1.0, 4.0, 6.5, 11.0, 20.0):
        ref, err = integrate.quad(scalar_rate, 0.0, t, limit=400, points=[5.0, 15.0])
        k = np.searchsorted(inverter.times, t)
        grid_t = inverter.times[k]
        ref_grid, _ = integrate.quad(
            scalar_rate, 0.0, grid_t, limit=400, points=[5.0, 15.0]
        )
        assert abs(inverter.cumhaz[k] - ref_grid) < 1e-6, f"hazard off at t={t}"

    # and the oracle route agrees with thinning in distribution
    ceiling = 0.7 * objective.grad_norm_bound + 0.8
    thin = _draw_one_by_one(rates, 0.8, ceiling, RngStream(29), 4000)
    oracle = inverter.ppf((np.arange(80000) + 0.5) / 80000)
    from poisson_sgd.metrics import wasserstein1_1d

    assert wasserstein1_1d(thin, oracle) < 0.03


def test_ppf_edges_and_monotonicity():
    inverter = RayCdfInverter(_along(_ray(_constant_field(0.0), 0.0, 2.0, [0.0, 0.0], [1.0, 0.0])), 2.0)
    us = np.linspace(0.0, 0.999999, 500)
    qs = inverter.ppf(us)
    assert np.all(np.diff(qs) >= 0.0)
    assert abs(inverter.ppf(0.5) - math.log(2.0) / 2.0) < 1e-6
    with pytest.raises(ValueError):
        inverter.ppf(1.0)
    with pytest.raises(ValueError):
        inverter.ppf(-0.01)


def test_inverter_rejects_rate_below_floor():
    def bad(radii):
        return np.full_like(np.asarray(radii, dtype=float), 0.5)

    with pytest.raises(ValueError):
        RayCdfInverter(bad, 1.0)


# ----------------------------------------------------------------------
# local, seam-aware thinning bounds
# ----------------------------------------------------------------------


def _radial(fn):
    """The ``rate_rows`` of rays that all share the rate ``fn(radii)``."""
    return lambda radii, rows: fn(radii)


def _oracle_cloud(fn, floor, breakpoints=()):
    inverter = RayCdfInverter(fn, floor, breakpoints=breakpoints)
    return inverter.ppf((np.arange(80000) + 0.5) / 80000)


# name, rate, floor, ceiling, Lipschitz slope, first jump radius
LOCAL_FIELDS = [
    ("ramp", lambda t: 0.8 + 0.6 * (1.0 - np.exp(-np.asarray(t))), 0.8, 1.4, 0.6, math.inf),
    ("sin", lambda t: 1.0 + 0.5 * np.sin(2.2 * np.asarray(t) + 0.4), 0.5, 1.5, 1.1, math.inf),
    ("bump", lambda t: 0.9 + 1.8 * np.exp(-((np.asarray(t) - 1.2) ** 2) / 0.18), 0.9, 2.7, 3.7, math.inf),
    (
        "jumps",
        lambda t: np.where(np.asarray(t) < 0.7, 0.8, np.where(np.asarray(t) < 1.5, 2.4, 1.1)),
        0.8,
        2.4,
        0.0,
        0.7,
    ),
]


@pytest.mark.parametrize("anchored", [True, False], ids=["anchored", "from-ceiling"])
@pytest.mark.parametrize("field", LOCAL_FIELDS, ids=[f[0] for f in LOCAL_FIELDS])
def test_local_bound_matches_oracle(field, anchored):
    from poisson_sgd.metrics import wasserstein1_1d

    name, fn, floor, ceiling, slope, seam = field
    n = 20000
    # from the ceiling, one proposal per round makes most rows re-anchor
    block = None if anchored else 1
    rate_rows, calls = _counted(_radial(fn))
    draws = thin_first_arrivals(
        rate_rows,
        n,
        floor,
        ceiling,
        RngStream(41),
        block=block,
        slope=slope,
        anchor_rates=_every_row(fn(np.zeros(1))[0]) if anchored else None,
        seam_radii=_every_row(seam),
    )
    plain_rows, plain_calls = _counted(_radial(fn))
    plain = thin_first_arrivals(plain_rows, n, floor, ceiling, RngStream(41), block=block)
    # the local bound only skips evaluations; every draw is the ceiling's
    assert np.array_equal(draws, plain)
    # unanchored rows evaluate everything, so savings there need re-anchoring
    assert calls["proposals"] < plain_calls["proposals"]
    breaks = (0.7, 1.5) if name == "jumps" else ()
    assert wasserstein1_1d(draws, _oracle_cloud(fn, floor, breaks)) < 0.02


@pytest.mark.parametrize("field", LOCAL_FIELDS, ids=[f[0] for f in LOCAL_FIELDS])
def test_evaluated_anchors_match_given_anchors_plus_one_rate_per_row(field):
    # anchors evaluated through rate_rows draw what the same anchors passed
    # in draw, for exactly one more evaluation per row, all at radius 0
    _, fn, floor, ceiling, slope, seam = field
    n = 3000
    seen = []

    def rate_rows(radii, rows):
        seen.append(radii.copy())
        return fn(radii)

    local = dict(slope=slope, seam_radii=_every_row(seam))
    anchors = np.empty(n)
    evaluated = thin_first_arrivals(
        rate_rows, n, floor, ceiling, RngStream(43), evaluate_anchors=True, anchors_out=anchors, **local
    )
    assert np.array_equal(anchors, np.full(n, fn(np.zeros(1))[0]))
    given_rows, given = _counted(_radial(fn))
    anchors = _every_row(fn(np.zeros(1))[0])
    draws = thin_first_arrivals(given_rows, n, floor, ceiling, RngStream(43), anchor_rates=anchors, **local)
    assert evaluated.tobytes() == draws.tobytes()
    assert seen[0].shape == (n, 1) and not seen[0].any()
    assert sum(r.size for r in seen) == given["proposals"] + n


def test_local_bound_skips_most_evaluations_under_a_loose_ceiling():
    # the ramp never exceeds 1.4; against a ceiling of 14 nine in ten
    # proposals are rejected, and the local bound sees most of them unevaluated
    fn = LOCAL_FIELDS[0][1]
    n = 5000
    rate_rows, calls = _counted(_radial(fn))
    draws = thin_first_arrivals(
        rate_rows,
        n,
        0.8,
        14.0,
        RngStream(48),
        slope=0.6,
        anchor_rates=_every_row(0.8),
        seam_radii=_every_row(np.inf),
    )
    plain_rows, plain_calls = _counted(_radial(fn))
    assert np.array_equal(draws, thin_first_arrivals(plain_rows, n, 0.8, 14.0, RngStream(48)))
    assert calls["proposals"] < 0.2 * plain_calls["proposals"]


def _concave_circle():
    # 12.5 - (theta - 5)^2 / 2 on a circle of length 10: along +x the rate
    # jumps UP at the seam, from the floor to the floor plus 5 beta
    from poisson_sgd.objectives import AnalyticObjective, ObjectiveMetadata

    return AnalyticObjective(
        lambda th: 12.5 - 0.5 * (th[..., 0] - 5.0) ** 2,
        lambda th: -(th - 5.0),
        TorusDomain(1, 10.0),
        5.0,
        "concave_circle",
        metadata=ObjectiveMetadata(lipschitz_c1=1.0),
    )


def _seam_ray(objective, base, direction, beta, floor, n):
    """The rates of ``n`` identical rays, their ceiling and their jump radii."""
    rates = _ray(objective.grad_field(None), beta, floor, base, direction, objective.domain.wrap, n)
    horizon = -math.log(1e-13) / floor
    jumps = objective.domain.ray_seam_radii(np.asarray(base, dtype=float), np.asarray(direction, dtype=float), horizon)
    return rates, beta * objective.grad_norm_bound + floor, jumps


@pytest.mark.parametrize("case", ["double_well_2d", "concave_circle"])
def test_local_bound_across_a_seam_matches_oracle(case):
    from poisson_sgd.metrics import wasserstein1_1d
    from poisson_sgd.objectives import double_well_2d

    n = 20000
    if case == "double_well_2d":
        # the rate falls at the seam: the wells rise toward the box faces
        objective, base, direction, beta, floor = double_well_2d(), [39.6, 20.3], [0.8, 0.6], 3e-5, 2.0
    else:
        objective, base, direction, beta, floor = _concave_circle(), [9.0], [1.0], 0.4, 1.0
    rates, ceiling, jumps = _seam_ray(objective, base, direction, beta, floor, n)
    seam = objective.domain.first_seam_radii(np.array([base]), np.array([direction]))
    rate_rows, calls = _counted(rates)
    draws = thin_first_arrivals(
        rate_rows,
        n,
        floor,
        ceiling,
        RngStream(43),
        slope=beta * objective.metadata.lipschitz_c1,
        anchor_rates=_every_row(_along(rates)(np.zeros(1))[0]),
        seam_radii=_every_row(seam[0]),
    )
    plain_rows, plain_calls = _counted(rates)
    plain = thin_first_arrivals(plain_rows, n, floor, ceiling, RngStream(43))
    assert np.array_equal(draws, plain)
    assert calls["proposals"] < plain_calls["proposals"]
    cloud = _oracle_cloud(_along(rates), floor, jumps)
    assert 0.1 < np.mean(draws > seam[0]) < 0.9
    assert wasserstein1_1d(draws, cloud) < 0.02


def test_ignoring_an_upward_seam_raises():
    # thinning the concave circle's ray as if the rate stayed Lipschitz past
    # its seam lets evaluated rates exceed their bound; that must abort
    n = 2000
    rates, ceiling, _ = _seam_ray(_concave_circle(), [9.0], [1.0], 0.4, 1.0, n)
    with pytest.raises(RateBoundError, match="local bound"):
        thin_first_arrivals(
            rates,
            n,
            1.0,
            ceiling,
            RngStream(44),
            slope=0.4,
            anchor_rates=_every_row(_along(rates)(np.zeros(1))[0]),
            seam_radii=_every_row(np.inf),
        )


def test_too_small_slope_raises():
    # true slope 0.6 declared as 0.01: an evaluated rate beats its bound
    fn = LOCAL_FIELDS[0][1]
    n = 2000
    with pytest.raises(RateBoundError, match="local bound"):
        thin_first_arrivals(
            lambda radii, rows: fn(radii),
            n,
            0.8,
            1.4,
            RngStream(45),
            slope=0.01,
            anchor_rates=_every_row(0.8),
            seam_radii=_every_row(np.inf),
        )


def test_local_bound_argument_validation():
    rate_rows = lambda radii, rows: np.ones_like(radii)  # noqa: E731
    ones = _every_row(1.0)
    with pytest.raises(ValueError):
        thin_first_arrivals(rate_rows, 3, 1.0, 2.0, RngStream(0), anchor_rates=ones)
    with pytest.raises(ValueError):
        thin_first_arrivals(rate_rows, 3, 1.0, 2.0, RngStream(0), evaluate_anchors=True)
    with pytest.raises(ValueError):
        thin_first_arrivals(
            rate_rows,
            3,
            1.0,
            2.0,
            RngStream(0),
            slope=1.0,
            anchor_rates=ones,
            evaluate_anchors=True,
            seam_radii=ones,
        )
    with pytest.raises(ValueError):
        thin_first_arrivals(rate_rows, 3, 1.0, 2.0, RngStream(0), slope=1.0)
    with pytest.raises(ValueError, match="anchors_out"):
        thin_first_arrivals(rate_rows, 3, 1.0, 2.0, RngStream(0), slope=1.0, seam_radii=ones, anchors_out=np.empty(3))
    with pytest.raises(ValueError):
        thin_first_arrivals(rate_rows, 3, 1.0, 2.0, RngStream(0), slope=-1.0, seam_radii=ones)
    # per-ray slopes: one per ray, each finite and >= 0, like a per-ray ceiling
    with pytest.raises(ValueError, match="shape"):
        thin_first_arrivals(rate_rows, 3, 1.0, 2.0, RngStream(0), slope=np.ones(4), seam_radii=ones)
    with pytest.raises(ValueError, match="shape"):
        thin_first_arrivals(rate_rows, 3, 1.0, 2.0, RngStream(0), slope=np.ones((3, 1)), seam_radii=ones)
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            thin_first_arrivals(rate_rows, 3, 1.0, 2.0, RngStream(0), slope=np.array([1.0, bad, 1.0]), seam_radii=ones)
    with pytest.raises(ValueError):
        thin_first_arrivals(rate_rows, 3, 1.0, 2.0, RngStream(0), slope=np.ones(3))
    # the per-row callbacks are asked only for rows whose first level lies
    # above the floor: at half the ceiling, some of 64 rows always have one
    n = 64
    with pytest.raises(ValueError, match="seam_radii"):
        thin_first_arrivals(
            rate_rows, n, 1.0, 2.0, RngStream(0), slope=1.0, seam_radii=lambda rows: np.ones(rows.size + 1)
        )
    with pytest.raises(ValueError, match="anchor_rates"):
        thin_first_arrivals(
            rate_rows, n, 1.0, 2.0, RngStream(0), slope=1.0, anchor_rates=lambda rows: np.ones(1), seam_radii=ones
        )
    # an anchor rate outside the envelope is refused like any evaluated rate
    with pytest.raises(RateBoundError):
        thin_first_arrivals(
            rate_rows, n, 1.0, 2.0, RngStream(0), slope=1.0, anchor_rates=_every_row(5.0), seam_radii=ones
        )
    with pytest.raises(RateBoundError):
        thin_first_arrivals(
            lambda radii, rows: np.full_like(radii, 5.0),
            3,
            1.0,
            2.0,
            RngStream(0),
            slope=1.0,
            evaluate_anchors=True,
            seam_radii=ones,
        )


def test_rows_at_their_seam_thin_at_the_ceiling():
    # a seam radius <= 0 leaves no local bound: the row draws as without one
    fn = LOCAL_FIELDS[1][1]
    n = 500
    plain = thin_first_arrivals(lambda r, rows: fn(r), n, 0.5, 1.5, RngStream(46))
    at_seam = thin_first_arrivals(
        lambda r, rows: fn(r),
        n,
        0.5,
        1.5,
        RngStream(46),
        slope=1.1,
        anchor_rates=_every_row(fn(np.zeros(1))[0]),
        seam_radii=_every_row(0.0),
    )
    assert np.array_equal(plain, at_seam)


# ----------------------------------------------------------------------
# two-sided bounds: sure acceptances and the evaluation cut-off
# ----------------------------------------------------------------------


def _first_round(seed, n, block, ceiling):
    # the radii and levels of thinning's first round on RngStream(seed)
    gen = RngStream(seed).generator
    radii = np.cumsum(gen.exponential(1.0 / ceiling, size=(n, block)), axis=1)
    return radii, gen.random((n, block)) * ceiling


def _recorded(fn):
    # a flat rate_rows callback that keeps the (row, radius) of every proposal
    seen = []

    def rate_rows(radii, rows):
        assert radii.shape == (rows.size, 1)
        seen.append((rows.copy(), radii[:, 0].copy()))
        return fn(radii)

    return rate_rows, seen


def _evaluated_columns(seen, radii):
    rows = np.concatenate([r for r, _ in seen])
    at = np.concatenate([x for _, x in seen])
    cols = np.array([np.searchsorted(radii[i], x) for i, x in zip(rows, at)])
    assert np.array_equal(radii[rows, cols], at)
    return rows, cols


# falls from 1.4 to the floor 0.8 with slope up to 0.6
FALLING = lambda t: 0.8 + 0.6 * np.exp(-np.asarray(t))  # noqa: E731


def test_a_slope_only_the_lower_bound_exposes_raises():
    # the rate never rises, so no rate exceeds an upper bound anchored at
    # r = 0; it falls 60 times faster than declared, below its lower bound
    n = 2000
    with pytest.raises(RateBoundError, match="local bound"):
        thin_first_arrivals(
            lambda radii, rows: FALLING(radii),
            n,
            0.8,
            1.5,
            RngStream(49),
            slope=0.01,
            anchor_rates=_every_row(1.4),
            seam_radii=_every_row(np.inf),
        )


def test_no_proposal_at_or_after_a_sure_acceptance_is_evaluated():
    # lower bound max(0.8, 1.4 - 0.6 r): the block is long enough that every
    # row ends in the first round, which the test replays
    n, block, floor, ceiling, slope = 3000, 16, 0.8, 1.5, 0.6
    rate_rows, seen = _recorded(FALLING)
    draws = thin_first_arrivals(
        rate_rows,
        n,
        floor,
        ceiling,
        RngStream(50),
        block=block,
        slope=slope,
        anchor_rates=_every_row(1.4),
        seam_radii=_every_row(np.inf),
    )
    radii, levels = _first_round(50, n, block, ceiling)
    assert np.all(np.isin(draws, radii))
    rows, cols = _evaluated_columns(seen, radii)
    # sure: below the lower bound by more than the bounds' rounding margin
    sure = levels < np.maximum(floor, 1.4 - slope * radii) - 1e-8
    first_sure = np.where(sure.any(axis=1), sure.argmax(axis=1), block)
    assert np.all(cols < first_sure[rows])
    # rows with a sure acceptance also evaluated proposals before it
    assert np.any(first_sure[rows] < block)
    accepted = levels < FALLING(radii)
    assert np.array_equal(draws, radii[np.arange(n), accepted.argmax(axis=1)])


def test_without_a_slope_no_level_below_the_floor_is_evaluated():
    fn = LOCAL_FIELDS[1][1]  # sin: 0.5 to 1.5
    n, block, floor, ceiling = 3000, 16, 0.5, 1.5
    rate_rows, seen = _recorded(fn)
    draws = thin_first_arrivals(rate_rows, n, floor, ceiling, RngStream(51), block=block)
    radii, levels = _first_round(51, n, block, ceiling)
    assert np.all(np.isin(draws, radii))
    rows, cols = _evaluated_columns(seen, radii)
    assert rows.size
    assert np.all(levels[rows, cols] >= floor)


# ----------------------------------------------------------------------
# per-row ceilings
# ----------------------------------------------------------------------

# row i rises from the floor 0.8 toward its own ceiling 0.8 + RISES[i % 3]
RISES = np.array([0.3, 1.5, 4.0])


def _rising_rows(radii, rows):
    return 0.8 + RISES[rows % 3, None] * (1.0 - np.exp(-radii))


def test_per_row_ceilings_match_each_rows_law():
    from poisson_sgd.metrics import wasserstein1_1d

    n = 3 * 20000
    ceilings = 0.8 + RISES[np.arange(n) % 3]
    # two proposals per round: many rows draw again, after the active set shrank
    draws = thin_first_arrivals(_rising_rows, n, 0.8, ceilings, RngStream(60), block=2)
    for g, rise in enumerate(RISES):
        law = _oracle_cloud(lambda t, rise=rise: 0.8 + rise * (1.0 - np.exp(-np.asarray(t))), 0.8)
        assert wasserstein1_1d(draws[g::3], law) < 0.02


def test_a_rate_above_its_own_rows_ceiling_raises():
    # every rate is 2.0: under the largest ceiling 5.0, above the 1.0 of
    # every third row
    n = 30
    ceilings = np.where(np.arange(n) % 3 == 0, 1.0, 5.0)
    with pytest.raises(RateBoundError, match="exceeds ceiling 1"):
        thin_first_arrivals(lambda radii, rows: np.full(radii.shape, 2.0), n, 0.01, ceilings, RngStream(61))
    thin_first_arrivals(lambda radii, rows: np.full(radii.shape, 2.0), n, 0.01, 5.0, RngStream(61))
    with pytest.raises(ValueError, match="shape"):
        thin_first_arrivals(_rising_rows, n, 0.8, ceilings[:-1], RngStream(61))


@pytest.mark.parametrize("block", [None, 1])
def test_equal_per_row_ceilings_draw_the_shared_ceilings_bytes(block):
    fn = LOCAL_FIELDS[2][1]  # bump: 0.9 to 2.7, slope up to 3.7
    n = 4000
    local = dict(slope=3.7, anchor_rates=_every_row(fn(np.zeros(1))[0]), seam_radii=_every_row(2.5))
    for bounds in ({}, local):
        shared_rows, shared_calls = _counted(_radial(fn))
        shared = thin_first_arrivals(shared_rows, n, 0.9, 2.7, RngStream(62), block=block, **bounds)
        rows_rows, rows_calls = _counted(_radial(fn))
        per_row = thin_first_arrivals(rows_rows, n, 0.9, np.full(n, 2.7), RngStream(62), block=block, **bounds)
        assert shared.tobytes() == per_row.tobytes()
        assert shared_calls == rows_calls
