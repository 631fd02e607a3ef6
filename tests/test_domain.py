import numpy as np
import pytest

from poisson_sgd.domain import TorusDomain

from package_helpers import box_contains


def test_wrap_hand_examples():
    dom = TorusDomain(1, 10.0)
    assert dom.wrap(np.array([-23.0]))[0] == 7.0
    assert dom.wrap(np.array([23.0]))[0] == 3.0
    assert dom.wrap(np.array([0.0]))[0] == 0.0
    assert dom.wrap(np.array([10.0]))[0] == 0.0


def test_wrap_idempotent_and_in_box():
    dom = TorusDomain(3, (4.0, 5.0, 6.0))
    rng = np.random.default_rng(0)
    pts = rng.normal(scale=40.0, size=(1000, 3))
    w = dom.wrap(pts)
    assert np.all((w >= 0.0) & (w < dom.sides))
    assert np.array_equal(dom.wrap(w), w)


def test_wrap_negative_epsilon_stays_in_box():
    # float mod of a tiny negative can land on the side length itself
    dom = TorusDomain(1, 10.0)
    w = dom.wrap(np.array([-1e-17]))
    assert 0.0 <= w[0] < 10.0


def test_wrap_matches_the_modulo_reference_bit_for_bit():
    # wrap skips np.mod for coordinates inside the box; the bytes must stay
    # those of reducing every coordinate (-0.0 included, which np.mod
    # turns into +0.0)
    dom = TorusDomain(3, (4.0, 5.0, 6.0))
    rng = np.random.default_rng(2)
    inside = rng.random((200, 3)) * dom.sides
    mixed = rng.normal(scale=8.0, size=(200, 3))
    mixed[:5] = [[0.0, -0.0, 6.0], [4.0, 5.0, -1e-17], [-0.0, 4.5, 5.9], [3.9, 0.0, 1.0], [-4.0, -5.0, 12.0]]
    for pts in (inside, mixed, mixed[:5], inside[:, None, :]):
        ref = np.mod(pts, dom.sides)
        ref = np.where(ref >= dom.sides, 0.0, ref)
        assert dom.wrap(pts).tobytes() == ref.tobytes()


def test_distance_hand_example():
    # (1,1) to (8,6) on side 10: dx = min(7,3) = 3, dy = 5 -> sqrt(34)
    dom = TorusDomain(2, 10.0)
    d = dom.distance(np.array([1.0, 1.0]), np.array([8.0, 6.0]))
    assert abs(d - np.sqrt(34.0)) < 1e-12


def test_distance_symmetric_and_bounded():
    dom = TorusDomain(2, (8.0, 2.0))
    rng = np.random.default_rng(1)
    a = dom.wrap(rng.normal(size=(200, 2)) * 10)
    b = dom.wrap(rng.normal(size=(200, 2)) * 10)
    dab = dom.distance(a, b)
    dba = dom.distance(b, a)
    assert np.allclose(dab, dba)
    assert np.all(dab <= dom.diameter() + 1e-12)
    assert np.allclose(dom.distance(a, a), 0.0)


def test_diameter():
    dom = TorusDomain(2, (6.0, 8.0))
    assert abs(dom.diameter() - 5.0) < 1e-15  # 0.5 * sqrt(36 + 64)


def test_contains():
    dom = TorusDomain(2, 10.0)
    assert box_contains(dom, np.array([0.0, 9.999]))
    assert not box_contains(dom, np.array([10.0, 5.0]))
    assert not box_contains(dom, np.array([-0.001, 5.0]))


def test_sample_uniform_moments():
    dom = TorusDomain(2, (4.0, 10.0))
    gen = np.random.default_rng(7)
    pts = dom.sample_uniform(gen, 20000)
    assert pts.shape == (20000, 2)
    assert np.all(box_contains(dom, pts))
    # mean of U(0, s) is s/2 with SE s/sqrt(12 n)
    se = np.array([4.0, 10.0]) / np.sqrt(12 * 20000)
    assert np.all(np.abs(pts.mean(axis=0) - [2.0, 5.0]) < 5 * se)


def test_ray_seam_radii_axis_aligned():
    dom = TorusDomain(2, 10.0)
    # from x=5 moving +x: seams at r = 5, 15, 25, ...
    radii = dom.ray_seam_radii([5.0, 5.0], [1.0, 0.0], 32.0)
    assert np.allclose(radii, [5.0, 15.0, 25.0])
    # moving -x: seams at r = 5, 15, ... (crossing x=0)
    radii = dom.ray_seam_radii([5.0, 5.0], [-1.0, 0.0], 16.0)
    assert np.allclose(radii, [5.0, 15.0])


def test_ray_seam_radii_diagonal():
    dom = TorusDomain(2, (10.0, 4.0))
    v = np.array([3.0, 4.0]) / 5.0
    radii = dom.ray_seam_radii([9.0, 3.0], v, 10.0)
    # x crosses 10 at r = 1/0.6, then every 10/0.6; y crosses 4 at r = 1/0.8,
    # then every 4/0.8 = 5
    expect = np.unique(
        np.concatenate(
            [1.0 / 0.6 + (10.0 / 0.6) * np.arange(1), 1.25 + 5.0 * np.arange(2)]
        )
    )
    assert np.allclose(np.sort(radii), np.sort(expect))


def test_ray_seam_radii_zero_component():
    dom = TorusDomain(2, 10.0)
    radii = dom.ray_seam_radii([5.0, 5.0], [0.0, 1.0], 7.0)
    assert np.allclose(radii, [5.0])  # only the moving coordinate crosses


def test_ray_seam_radii_open_interval():
    dom = TorusDomain(1, 10.0)
    radii = dom.ray_seam_radii([0.0], [1.0], 10.0)
    # crossing at r=10 equals the length and is excluded; r=0 is the start
    assert radii.size == 0


def test_first_seam_radii():
    dom = TorusDomain(2, (10.0, 4.0))
    starts = np.array([[9.0, 3.0], [5.0, 1.0], [5.0, 2.0]])
    dirs = np.array([[0.6, 0.8], [-1.0, 0.0], [0.0, 1.0]])
    radii = dom.first_seam_radii(starts, dirs)
    # row 0: x reaches 10 at r = 1/0.6, y reaches 4 at r = 1.25 (first);
    # row 1: x reaches 0 at r = 5; row 2: y reaches 4 at r = 2
    exact = np.array([1.25, 5.0, 2.0])
    assert np.all(radii < exact)
    assert np.allclose(radii, exact, rtol=0.0, atol=1e-8)
    # every point below the radius stays in the box when computed in floats
    for start, v, r in zip(starts, dirs, radii):
        assert box_contains(dom, start + np.nextafter(r, 0.0) * v)
    # a start within the margin of the seam it faces has no room; a zero
    # direction never reaches a seam
    assert dom.first_seam_radii(np.array([[10.0 - 1e-12, 1.0]]), np.array([[1.0, 0.0]]))[0] <= 0.0
    assert dom.first_seam_radii(np.array([[0.0, 1.0]]), np.array([[-1.0, 0.0]]))[0] <= 0.0
    assert dom.first_seam_radii(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))[0] > 9.99
    assert np.isinf(TorusDomain(1, 3.0).first_seam_radii(np.array([[1.0]]), np.array([[0.0]]))[0])


def test_validation_errors():
    with pytest.raises(ValueError):
        TorusDomain(0, 1.0)
    with pytest.raises(ValueError):
        TorusDomain(2, (1.0, -1.0))
    with pytest.raises(ValueError):
        TorusDomain(2, (1.0, 2.0, 3.0))
    dom = TorusDomain(2, 10.0)
    with pytest.raises(ValueError):
        dom.wrap(np.zeros(3))
