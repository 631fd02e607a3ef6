import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from poisson_sgd.metrics import histogram_tv
from poisson_sgd import stationary
from poisson_sgd.domain import TorusDomain
from poisson_sgd.objectives import (
    GradientBoundError,
    Objective,
    double_well_1d,
    double_well_2d,
    linreg_synthetic,
    quadratic_bowl,
)
from poisson_sgd.sampler import RngStream
from poisson_sgd.stationary import (
    DEFAULT_RESOLUTIONS,
    EnvelopeError,
    GridDensity,
    StationaryDensity,
    gamma_ratio_fences,
    grid_mean_risk,
    sphere_cos_abs_mean,
    sphere_cos_plus_mean,
)
from sphere_moments import cos_plus_bracket, estimate_cos_plus_moment


def test_sphere_moment_closed_forms():
    assert abs(sphere_cos_abs_mean(1) - 1.0) < 1e-12
    assert abs(sphere_cos_abs_mean(2) - 2.0 / math.pi) < 1e-12
    assert abs(sphere_cos_abs_mean(3) - 0.5) < 1e-12
    for d in (1, 2, 3, 10):
        assert sphere_cos_plus_mean(d) == 0.5 * sphere_cos_abs_mean(d)
    with pytest.raises(ValueError):
        sphere_cos_abs_mean(0)
    with pytest.raises(ValueError):
        sphere_cos_abs_mean(2.5)


def test_gamma_ratio_fences_hold():
    # the fences bound the raw ratio Gamma(d/2)/Gamma((d+1)/2), which is
    # sqrt(pi) times the moment
    for d in range(1, 65):
        lower, upper = gamma_ratio_fences(d)
        ratio = math.sqrt(math.pi) * sphere_cos_abs_mean(d)
        assert lower <= ratio <= upper
    assert gamma_ratio_fences(1)[1] == math.inf
    with pytest.raises(ValueError):
        gamma_ratio_fences(0)


def test_cos_plus_bracket_contains_moment():
    for d in range(2, 33):
        lo, hi = cos_plus_bracket(d)
        assert lo < sphere_cos_plus_mean(d) < hi
    with pytest.raises(ValueError):
        cos_plus_bracket(1)


def test_monte_carlo_moment_matches_closed_form():
    for d in (2, 5):
        mean, se = estimate_cos_plus_moment(d, 100_000, RngStream(40 + d))
        assert se < 0.01
        assert abs(mean - sphere_cos_plus_mean(d)) < 4 * se
    with pytest.raises(ValueError):
        estimate_cos_plus_moment(2, 1, RngStream(0))


def test_unnormalized_hand_values_on_double_well():
    obj = double_well_1d()  # landmarks: global 12 (loss 0), local 3 (729), barrier 6 (864)
    beta, eps = 0.01, 0.5
    sd = StationaryDensity(obj, beta=beta, epsilon=eps)
    floor = beta * obj.grad_norm_bound + 1.0 / eps
    # critical points: gradient term drops, leaving floor * exp(-beta * loss)
    assert sd.unnormalized([12.0]) == pytest.approx(floor, rel=1e-12)
    assert sd.unnormalized([3.0]) == pytest.approx(floor * math.exp(-729 * beta), rel=1e-12)
    assert sd.unnormalized([6.0]) == pytest.approx(floor * math.exp(-864 * beta), rel=1e-12)
    # off-critical point x = 7: loss 129, |grad| = |4*343 - 12*49 - 72*7| = 280
    expect = (floor + 0.5 * beta * 280.0) * math.exp(-129 * beta)
    assert sd.unnormalized([13.0]) == pytest.approx(expect, rel=1e-12)
    # beta = 0 collapses to the constant 1/epsilon
    flat = StationaryDensity(obj, beta=0.0, epsilon=0.25)
    assert np.allclose(flat.unnormalized(np.linspace(0, 16, 9)[:, None]), 4.0)


def test_parameter_validation():
    obj = double_well_1d()
    with pytest.raises(ValueError):
        StationaryDensity(obj, beta=-0.1, epsilon=0.5)
    with pytest.raises(ValueError):
        StationaryDensity(obj, beta=0.1, epsilon=0.0)


def test_grid_normalization_matches_quadrature():
    obj = double_well_1d()
    sd = StationaryDensity(obj, beta=0.003, epsilon=0.5)
    grid = sd.grid(4096)
    z_quad, err = integrate.quad(
        lambda x: float(sd.unnormalized([x])), 0.0, 16.0, points=[3.0, 6.0, 12.0], limit=200
    )
    assert err < 1e-8 * z_quad
    assert abs(grid.z - z_quad) < 1e-4 * z_quad
    assert grid.masses.shape == (4096,)
    assert grid.masses.sum() == pytest.approx(1.0, abs=1e-12)
    # default resolution comes from the per-dimension table
    assert DEFAULT_RESOLUTIONS[1] == 4096
    # beta = 0 gives the uniform law exactly
    flat = StationaryDensity(obj, beta=0.0, epsilon=1.0).grid(256)
    assert np.allclose(flat.masses, 1.0 / 256)


def test_grid_guards():
    obj = double_well_1d()
    sd = StationaryDensity(obj, beta=0.003, epsilon=0.5)
    with pytest.raises(ValueError):
        sd.grid(32)
    # dim > 3 has no grid normalizer
    wide = quadratic_bowl([[1.0, 2.0, 3.0, 4.0]], side_lengths=8.0)
    with pytest.raises(ValueError):
        StationaryDensity(wide, beta=0.1, epsilon=1.0).grid(64)
    with pytest.raises(ValueError):
        grid_mean_risk(wide)
    # a density too peaked for the resolution trips the convergence check
    sharp = StationaryDensity(obj, beta=0.1, epsilon=0.5)
    with pytest.raises(RuntimeError, match="not converged"):
        sharp.grid(64)
    # and one so cold the exponential underflows fails the positivity check
    frozen = StationaryDensity(obj, beta=50.0, epsilon=0.5)
    with pytest.raises(ValueError, match="strictly positive"):
        frozen.grid(64)


def test_grid_density_operations():
    edges = [np.linspace(0.0, 1.0, 9), np.linspace(0.0, 2.0, 5)]
    masses = np.full((8, 4), 1.0 / 32)
    g = GridDensity(edges=edges, masses=masses)
    assert g.dim == 2
    assert np.allclose(g.midpoints(1), [0.25, 0.75, 1.25, 1.75])
    m0 = g.marginal(0)
    assert m0.dim == 1
    assert np.allclose(m0.masses, 1.0 / 8)
    c = g.coarsen(2)
    assert c.masses.shape == (4, 2)
    assert c.masses.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        g.coarsen(3)  # 8 and 4 bins are not divisible by 3
    with pytest.raises(ValueError):
        GridDensity(edges=edges, masses=np.full((8, 3), 1.0 / 24))
    with pytest.raises(ValueError):
        GridDensity(edges=edges, masses=np.full((8, 4), 1.0 / 16))
    bad = masses.copy()
    bad[0, 0] = -bad[0, 0]
    bad[0, 1] += 2.0 / 32
    with pytest.raises(ValueError):
        GridDensity(edges=edges, masses=bad)


def test_grid_density_cdf_and_csv(tmp_path):
    edges = [np.linspace(0.0, 4.0, 5)]
    g = GridDensity(edges=edges, masses=np.array([0.1, 0.2, 0.3, 0.4]))
    cdf = g.cdf_1d()
    assert cdf(0.0) == 0.0
    assert cdf(4.0) == 1.0
    assert cdf(1.0) == pytest.approx(0.1)
    assert cdf(2.5) == pytest.approx(0.3 + 0.15)
    xs = np.linspace(0, 4, 41)
    assert np.all(np.diff(cdf(xs)) >= 0)
    with pytest.raises(ValueError):
        GridDensity(
            edges=[edges[0], edges[0]], masses=np.full((4, 4), 1.0 / 16)
        ).cdf_1d()
    path = tmp_path / "grid.csv"
    g.to_csv(path)
    back = np.genfromtxt(path, delimiter=",", names=True)
    assert list(back.dtype.names) == ["coord_0", "mass"]
    assert np.allclose(back["coord_0"], [0.5, 1.5, 2.5, 3.5])
    assert back["mass"].sum() == pytest.approx(1.0)


def test_rejection_sampler_agrees_with_grid():
    obj = double_well_1d()
    sd = StationaryDensity(obj, beta=0.004, epsilon=0.5)
    draws = sd.sample(30_000, RngStream(17))
    assert draws.shape == (30_000, 1)
    reference = sd.grid(4096).coarsen(64)  # 64 bins
    assert histogram_tv(draws, reference) < 0.05
    # same stream, same bytes
    again = sd.sample(1000, RngStream(23))
    assert np.array_equal(again, sd.sample(1000, RngStream(23)))


def test_rejection_sampler_envelope_guard():
    obj = double_well_1d()
    sd = StationaryDensity(obj, beta=0.004, epsilon=0.5)
    grid = sd.grid(4096)
    peak = sd._grid_cache[4096][1]
    sd._grid_cache[4096] = (grid, 0.5 * peak)  # simulate a grid max that missed the sup
    with pytest.raises(EnvelopeError):
        sd.sample(1000, RngStream(3))


def test_rejection_sampler_envelope_guard_where_the_bounds_decide_everything():
    # at beta = 0 every level lies below every cell's lower bound; the
    # proposals are evaluated, and expose the halved envelope, only because
    # a sure acceptance needs its cell's upper bound within the envelope
    sd = StationaryDensity(double_well_1d(), beta=0.0, epsilon=0.5)
    grid = sd.grid(4096)
    sd._grid_cache[4096] = (grid, 0.5 * sd._grid_cache[4096][1])
    with pytest.raises(EnvelopeError):
        sd.sample(1000, RngStream(3))


def test_oracle_refuses_a_halved_gradient_bound():
    # the cell bounds rest on M, so the density checks every gradient it
    # computes against M, and the grid exposes the false bound before any draw
    obj = double_well_1d()
    obj.grad_norm_bound = 0.5 * obj.grad_norm_bound
    with pytest.raises(GradientBoundError, match="gradient norm"):
        StationaryDensity(obj, beta=0.003, epsilon=1.0).sample(1000, RngStream(3))


def test_oracle_checks_evaluated_densities_against_their_cell_bounds():
    # a grid whose z is twice the density's puts every u below its cell's
    # lower bound: the first evaluated proposal raises instead of biasing
    sd = StationaryDensity(double_well_1d(), beta=0.003, epsilon=1.0)
    grid = sd.grid(4096)
    peak = sd._grid_cache[4096][1]
    sd._grid_cache[4096] = (GridDensity(grid.edges, grid.masses, z=2.0 * grid.z), peak)
    with pytest.raises(GradientBoundError, match="bounds"):
        sd.sample(1000, RngStream(3))


def test_oracle_evaluates_at_most_a_quarter_of_its_proposals(monkeypatch):
    # the stationarity protocol's oracle: the cell bounds decide over three
    # quarters of its uniform proposals without evaluating u
    sd = StationaryDensity(double_well_1d(), beta=0.003, epsilon=1.0)
    sd.grid()
    counts = {"proposals": 0, "evaluated": 0}
    draw = TorusDomain.sample_uniform

    def proposals(domain, gen, size=None):
        out = draw(domain, gen, size)
        counts["proposals"] += len(out)
        return out

    unnormalized = sd.unnormalized

    def evaluated(theta):
        counts["evaluated"] += len(theta)
        return unnormalized(theta)

    monkeypatch.setattr(TorusDomain, "sample_uniform", proposals)
    monkeypatch.setattr(sd, "unnormalized", evaluated)
    assert sd.sample(100_000, RngStream(5)).shape == (100_000, 1)
    assert counts["proposals"] >= 100_000
    assert counts["evaluated"] <= counts["proposals"] / 4


def test_grid_mean_risk_closed_form():
    # bowl risk |theta - 5|^2 / 2 on a length-10 circle: uniform mean is 25/6
    obj = quadratic_bowl([[5.0]], side_lengths=10.0)
    assert grid_mean_risk(obj, resolution=2048) == pytest.approx(25.0 / 6.0, rel=1e-6)


def test_oracle_envelope_comes_from_the_requested_grid():
    # the envelope of sample(resolution=r) is the max over grid r, whichever
    # grid the density normalized last
    fresh = StationaryDensity(double_well_1d(), beta=0.003, epsilon=0.5)
    want = fresh.sample(20_000, RngStream(7), resolution=4096)
    used = StationaryDensity(double_well_1d(), beta=0.003, epsilon=0.5)
    used.grid(4096)
    used.grid(256)
    assert np.array_equal(used.sample(20_000, RngStream(7), resolution=4096), want)


def _traced_peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# a whole-grid evaluation peaked at 263, 263 and 194 MiB on these
MEMORY_CASES = {
    "linreg grid": (lambda: StationaryDensity(linreg_synthetic(64, 2, 0.5, 0), 1.0, 0.05).grid(), 16),
    "linreg mean risk": (lambda: grid_mean_risk(linreg_synthetic(64, 2, 0.5, 0), 512), 16),
    "3-d bowl grid": (lambda: StationaryDensity(quadratic_bowl([[5, 5, 5]], side_lengths=10), 0.03, 1.0).grid(), 8),
}


@pytest.mark.parametrize("case", sorted(MEMORY_CASES))
def test_quadrature_memory_is_bounded(case):
    call, bound_mib = MEMORY_CASES[case]
    assert _traced_peak_mib(call) < bound_mib


def _one_call_grid(fn, objective, resolution):
    domain = objective.domain
    mids = [0.5 * (e[:-1] + e[1:]) for e in (np.linspace(0.0, s, resolution + 1) for s in domain.sides)]
    points = np.stack(np.meshgrid(*mids, indexing="ij"), axis=-1)
    return fn(points), float(np.prod(domain.sides / resolution))


def _one_call_sample(density, n, gen, envelope):
    domain = density.objective.domain
    out = np.empty((n, domain.dim))
    got = 0
    block = max(4096, 2 * n)
    while got < n:
        props = domain.sample_uniform(gen, block)
        keep = props[gen.random(block) * envelope < density.unnormalized(props)]
        take = min(keep.shape[0], n - got)
        out[got : got + take] = keep[:take]
        got += take
    return out


CHUNKED_CASES = {
    "double_well_2d": (double_well_2d, 0.003, 0.5),
    "linreg": (lambda: linreg_synthetic(64, 2, 0.5, 0), 1.0, 0.05),
    "3-d bowl": (lambda: quadratic_bowl([[5, 5, 5]], side_lengths=10), 0.03, 1.0),
    # the oracle's cell bounds decide every proposal of a flat density
    "beta 0": (double_well_1d, 0.0, 1.0),
    # criterion 5's density, nearly flat at its floor
    "criterion 5": (double_well_1d, 0.003, 1e-3),
}


@pytest.mark.parametrize("case", sorted(CHUNKED_CASES))
def test_chunked_evaluation_matches_one_call(case, monkeypatch):
    make, beta, eps = CHUNKED_CASES[case]
    objective = make()
    resolution = stationary.DEFAULT_RESOLUTIONS[objective.domain.dim]
    # a prime element budget: chunks end mid-row on every grid, and mid-block
    # in the oracle's 6000-proposal block
    one_point = objective.n_samples * objective.domain.dim == 1
    monkeypatch.setattr(stationary, "_CHUNK_ELEMENTS", 1999 if one_point else 9973)
    chunk = stationary._chunk_points(objective)
    assert chunk % 128 and chunk % resolution and chunk < 6000 and 6000 % chunk
    sd = StationaryDensity(objective, beta, eps)

    values, cell = _one_call_grid(sd.unnormalized, objective, resolution)
    fine, _ = _one_call_grid(sd.unnormalized, objective, 2 * resolution)
    z = float(values.sum() * cell)
    masses = values * cell / z
    masses /= masses.sum()
    grid = sd.grid()
    assert grid.z == z
    assert np.array_equal(grid.masses, masses)
    peak = float(max(values.max(), fine.max()))
    assert sd._grid_cache[resolution][1] == peak

    risks, _ = _one_call_grid(objective.empirical_risk, objective, 128)
    assert grid_mean_risk(objective, 128) == float(np.mean(risks))

    want_gen, got_gen = RngStream(5).generator, RngStream(5).generator
    want = _one_call_sample(sd, 3000, want_gen, 1.1 * peak)
    assert np.array_equal(sd.sample(3000, got_gen), want)
    assert got_gen.bit_generator.state == want_gen.bit_generator.state


class _KinkedRamp(Objective):
    """L = 16 - max(theta, kink) on a length-16 circle: flat left of the kink
    and falling with slope M = 1 right of it. In the cell centred on the kink
    u climbs from its midpoint value to u_c rho e^{beta M r} at the cell's
    right edge, so the oracle's upper bound is reached there."""

    def __init__(self, kink: float):
        super().__init__(TorusDomain(1, 16.0), 1, 1.0, "kinked_ramp")
        self.kink = kink

    def _mean_loss(self, theta, indices):
        return 16.0 - np.maximum(theta[..., 0], self.kink)

    def _mean_grad(self, theta, indices):
        return -(theta > self.kink).astype(float)


def test_oracle_keeps_every_draw_where_its_bounds_are_tight():
    # at resolution 64 the kink is the midpoint of cell 62, near the density's
    # peak. Bounds that dropped rho or half the spread decide some of the
    # cell's proposals wrongly or raise, on 10 of 10 seeds already
    # at half these draws
    sd = StationaryDensity(_KinkedRamp(62.5 * 16 / 64), beta=0.1, epsilon=0.1)
    sd.grid(64)
    want_gen, got_gen = RngStream(5).generator, RngStream(5).generator
    want = _one_call_sample(sd, 100_000, want_gen, 1.1 * sd._grid_cache[64][1])
    assert np.array_equal(sd.sample(100_000, got_gen, resolution=64), want)
    assert got_gen.bit_generator.state == want_gen.bit_generator.state
