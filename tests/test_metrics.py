import numpy as np
import pytest
from scipy import stats

from poisson_sgd.metrics import (
    histogram_tv,
    ks_statistic,
    lemma_wasserstein_bound_check,
    sliced_wasserstein1,
    wasserstein1_1d,
)
from poisson_sgd.sampler import RngStream
from poisson_sgd.stationary import GridDensity, sphere_cos_abs_mean


def test_w1_hand_examples():
    assert wasserstein1_1d([0.0, 1.0], [0.0, 3.0]) == 1.0
    assert wasserstein1_1d([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    # translation moves W1 by exactly the shift
    xs = np.array([0.3, 1.2, 5.0, 2.2])
    assert abs(wasserstein1_1d(xs, xs + 0.7) - 0.7) < 1e-12


def test_w1_matches_scipy_unequal_sizes():
    rng = np.random.default_rng(2)
    for _ in range(20):
        xs = rng.normal(size=rng.integers(3, 40))
        ys = rng.normal(loc=0.5, size=rng.integers(3, 40))
        ours = wasserstein1_1d(xs, ys)
        ref = stats.wasserstein_distance(xs, ys)
        assert abs(ours - ref) < 1e-12


def _w1_on_union1d(xs, ys):
    """The unequal-size formula as first written: np.union1d's grid."""
    xs, ys = np.sort(xs), np.sort(ys)
    grid = np.union1d(np.arange(1, xs.size) / xs.size, np.arange(1, ys.size) / ys.size)
    edges = np.concatenate([[0.0], grid, [1.0]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    xq = xs[np.minimum((mids * xs.size).astype(int), xs.size - 1)]
    yq = ys[np.minimum((mids * ys.size).astype(int), ys.size - 1)]
    return float(np.sum(np.diff(edges) * np.abs(xq - yq)))


def test_w1_unequal_sizes_match_the_union1d_formula_bit_for_bit():
    # shared breakpoints (4096 and 6144 share every third of 1/2048) and
    # sizes an order of magnitude apart, either side the larger
    rng = np.random.default_rng(5)
    for nx, ny in [(5000, 100000), (7, 13), (512, 200000), (4096, 6144), (1, 2), (30, 6)]:
        xs = rng.normal(size=nx)
        ys = rng.normal(loc=0.2, scale=1.3, size=ny)
        assert wasserstein1_1d(xs, ys) == _w1_on_union1d(xs, ys)


def test_sliced_w1_reduces_to_plain_in_1d():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(50, 1))
    ys = rng.normal(size=(70, 1))
    assert abs(
        sliced_wasserstein1(xs, ys) - wasserstein1_1d(xs[:, 0], ys[:, 0])
    ) < 1e-12


def test_sliced_w1_identity_and_shift():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(200, 2))
    assert sliced_wasserstein1(X, X, rng=RngStream(0)) == 0.0
    # shifting by t changes each projection by |<t, u>|; for px point masses
    # the sliced distance is |t| * E|u_1| = |t| * a_d
    t = np.array([0.8, 0.0])
    val = sliced_wasserstein1(X, X + t, n_proj=4000, rng=RngStream(1))
    expect = 0.8 * sphere_cos_abs_mean(2)
    assert abs(val - expect) < 0.02


def test_sliced_w1_requires_rng_in_higher_dims():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        sliced_wasserstein1(X, X)


def test_histogram_tv_hand_example():
    edges = [np.linspace(0.0, 1.0, 65)]
    masses = np.full(64, 1.0 / 64)
    uniform = GridDensity(edges=edges, masses=masses)
    # all samples in one bin vs uniform: TV = 1 - 1/64
    samples = np.full((500, 1), 0.5001)
    tv = histogram_tv(samples, uniform)
    assert abs(tv - (1.0 - 1.0 / 64)) < 1e-12


def test_histogram_tv_zero_for_matching_masses():
    edges = [np.array([0.0, 0.5, 1.0])]
    ref = GridDensity(edges=edges, masses=np.array([0.25, 0.75]))
    samples = np.concatenate([np.full(25, 0.25), np.full(75, 0.75)])[:, None]
    assert histogram_tv(samples, ref) < 1e-12


def test_histogram_tv_rejects_out_of_range():
    ref = GridDensity(edges=[np.array([0.0, 1.0])], masses=np.array([1.0]))
    with pytest.raises(ValueError):
        histogram_tv(np.array([[2.0]]), ref)


def test_ks_statistic_against_scipy():
    rng = np.random.default_rng(5)
    xs = rng.exponential(scale=0.5, size=400)
    cdf = lambda t: 1.0 - np.exp(-2.0 * np.asarray(t))  # noqa: E731
    ours = ks_statistic(xs, cdf)
    ref = stats.kstest(xs, lambda t: 1.0 - np.exp(-2.0 * t)).statistic
    assert abs(ours - ref) < 1e-12


def test_lemma_constant_rates_exact_value():
    res = lemma_wasserstein_bound_check(
        lambda t: np.ones_like(t),
        lambda t: np.full_like(t, 2.0),
        M=1.0,
        m1=1.0,
        m2=2.0,
        n=40000,
        rng=RngStream(6),
    )
    assert res.passed
    assert abs(res.bound - 0.5) < 1e-12
    assert abs(res.measured_w1 - 0.5) < 0.01


def test_lemma_grid_precondition():
    # declared M smaller than the actual gap on the grid must be rejected
    with pytest.raises(ValueError):
        lemma_wasserstein_bound_check(
            lambda t: np.ones_like(t),
            lambda t: np.full_like(t, 3.0),
            M=0.5,
            m1=1.0,
            m2=3.0,
            n=100,
            rng=RngStream(7),
        )


def test_lemma_identical_rates_zero():
    res = lemma_wasserstein_bound_check(
        lambda t: 1.0 + 0.5 * np.asarray(t),
        lambda t: 1.0 + 0.5 * np.asarray(t),
        M=0.0,
        m1=1.0,
        m2=1.0,
        n=500,
        rng=RngStream(8),
    )
    assert res.measured_w1 < 1e-9
    assert res.passed
