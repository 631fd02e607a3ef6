import numpy as np
import pytest

from poisson_sgd.domain import TorusDomain
from poisson_sgd.objectives import (
    BUILTIN_OBJECTIVES,
    GradientBoundError,
    LinearRegressionObjective,
    ObjectiveMetadata,
    build_objective,
    double_well_1d,
    double_well_2d,
    linreg_synthetic,
    quadratic_bowl,
)
from poisson_sgd.optimizer import _sample_batches
from poisson_sgd.sampler import RngStream

from package_helpers import check_gradient


# ----------------------------------------------------------------------
# double wells: x^4 - 4x^3 - 36x^2 (+ y^2) shifted so the box minimum sits
# clear of the seams; values below are pencil-and-paper
# ----------------------------------------------------------------------


def test_double_well_1d_landmarks():
    obj = double_well_1d()
    off = obj.extra["offset"]
    # global minimum at math x=6 with value -864 + 864 = 0
    assert abs(obj.empirical_risk(np.array([off + 6.0]))) < 1e-9
    # local minimum at math x=-3 with value 729
    assert abs(obj.empirical_risk(np.array([off - 3.0])) - 729.0) < 1e-9
    # barrier top at math x=0 with value 864
    assert abs(obj.empirical_risk(np.array([off])) - 864.0) < 1e-9
    assert abs(obj.grad(np.array([off + 6.0]))[0]) < 1e-9
    assert abs(obj.grad(np.array([off - 3.0]))[0]) < 1e-9


def test_double_well_2d_landmarks():
    obj = double_well_2d()
    off = np.asarray(obj.extra["offset"])
    assert abs(obj.empirical_risk(off + [6.0, 0.0])) < 1e-9
    assert abs(obj.empirical_risk(off + [-3.0, 0.0]) - 729.0) < 1e-9
    assert abs(obj.empirical_risk(off + [0.0, 0.0]) - 864.0) < 1e-9
    assert np.all(np.abs(obj.grad(off + [6.0, 0.0])) < 1e-9)
    assert np.all(np.abs(obj.grad(obj.global_minimum)) < 1e-9)


def test_double_well_grad_bound_is_sup_over_box():
    for obj, res in ((double_well_1d(), 400001), (double_well_2d(), 2001)):
        dom = obj.domain
        if dom.dim == 1:
            pts = np.linspace(0.0, dom.sides[0], res, endpoint=False)[:, None]
        else:
            xs = np.linspace(0.0, dom.sides[0], res, endpoint=False)
            ys = np.linspace(0.0, dom.sides[1], res, endpoint=False)
            pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        norms = np.linalg.norm(obj.grad(pts), axis=-1)
        worst = norms.max()
        assert worst <= obj.grad_norm_bound * (1.0 + 1e-12)
        # the bound is tight: attained within discretization error
        assert worst > 0.999 * obj.grad_norm_bound


def test_gradients_match_finite_differences():
    rng = RngStream(11)
    gen = rng.generator
    objectives = [
        double_well_1d(),
        double_well_2d(),
        quadratic_bowl([[1.0, 2.0], [3.0, 4.0]], side_lengths=10.0),
        linreg_synthetic(16, 3, 0.3, seed=5),
    ]
    for obj in objectives:
        pts = obj.domain.sample_uniform(gen, 5)
        for theta in pts:
            # step away from seams so the difference quotient stays smooth
            theta = np.clip(theta, 0.01, np.asarray(obj.domain.sides) - 0.01)
            err = check_gradient(obj, theta)
            assert err < 1e-4, f"{obj.name}: fd mismatch {err:.2e}"


def test_minibatch_mechanics():
    obj = quadratic_bowl(np.arange(6, dtype=float).reshape(3, 2), side_lengths=10.0)
    with pytest.raises(ValueError, match="distinct"):
        obj.resolve_batch([1, 1, 2])
    with pytest.raises(ValueError):
        obj.resolve_batch([])

    gen = RngStream(0).generator
    n, m = 20, 5
    batches = _sample_batches(gen, 400, n, m)
    assert batches.shape == (400, m)
    assert np.all(np.diff(batches, axis=1) > 0)  # sorted and distinct
    counts = np.bincount(batches.ravel(), minlength=n)
    # each index appears with frequency m/n = 0.25 up to noise
    freq = counts / 400
    assert np.all(np.abs(freq - 0.25) < 5 * np.sqrt(0.25 * 0.75 / 400))
    # m = n is the full index set in canonical order
    assert np.array_equal(_sample_batches(gen, 3, n, n), np.tile(np.arange(n), (3, 1)))


def test_quadratic_bowl_closed_forms_match_bruteforce():
    centers = np.array([[1.0, 9.0], [4.0, 2.0], [7.0, 5.0]])
    obj = quadratic_bowl(centers, side_lengths=10.0)
    rng = np.random.default_rng(3)
    thetas = rng.random((50, 2)) * 10.0

    brute_risk = 0.5 * np.mean(
        np.sum((thetas[:, None, :] - centers[None]) ** 2, axis=-1), axis=1
    )
    assert np.allclose(obj.empirical_risk(thetas), brute_risk)

    idx = np.array([0, 2])
    brute_grad = (thetas[:, None, :] - centers[idx][None]).mean(axis=1)
    assert np.allclose(obj.minibatch_grad(idx, thetas), brute_grad)
    brute_batch_risk = 0.5 * np.mean(
        np.sum((thetas[:, None, :] - centers[idx][None]) ** 2, axis=-1), axis=1
    )
    assert np.allclose(obj.minibatch_risk(idx, thetas), brute_batch_risk)


def test_grad_field_row_paired_batches():
    centers = np.arange(12, dtype=float).reshape(6, 2)
    obj = quadratic_bowl(centers, side_lengths=20.0)
    rows = np.array([[0, 1], [2, 3], [4, 5]])
    field = obj.grad_field(rows)
    pts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    out = field(pts, rows=np.arange(3))
    for k in range(3):
        expect = (pts[k][None] - centers[rows[k]]).mean(axis=0)
        assert np.allclose(out[k], expect)


def test_linreg_objective_values():
    obj = linreg_synthetic(24, 2, 0.1, seed=9)
    theta = np.array([1.0, 2.0])
    X, y = obj.features, obj.targets
    expect = 0.5 * np.mean((X @ theta - y) ** 2)
    assert abs(obj.empirical_risk(theta) - expect) < 1e-12
    expect_grad = X.T @ (X @ theta - y) / len(y)
    assert np.allclose(obj.grad(theta), expect_grad)


def test_linreg_same_seed_same_bytes():
    a = linreg_synthetic(16, 2, 0.5, seed=4)
    b = linreg_synthetic(16, 2, 0.5, seed=4)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    c = linreg_synthetic(16, 2, 0.5, seed=5)
    assert not np.array_equal(a.targets, c.targets)


def test_grad_norm_bound_enforced():
    obj = quadratic_bowl([[5.0]], side_lengths=10.0)
    # per-sample gradient norm <= 5 inside the box; a forged gradient of
    # norm 50 must trip the check
    with pytest.raises(GradientBoundError):
        obj.check_grad_norms(np.array([50.0]))
    obj.check_grad_norms(np.array([4.9]))


def test_resolve_batch_validation():
    obj = quadratic_bowl(np.arange(8, dtype=float).reshape(4, 2), side_lengths=10.0)
    assert obj.resolve_batch(None) is None
    flat = obj.resolve_batch([2, 0])
    assert flat.tolist() == [2, 0]
    with pytest.raises(ValueError):
        obj.resolve_batch([0, 0])
    with pytest.raises(ValueError):
        obj.resolve_batch([0, 99])


def test_sampled_batches_skip_checks_but_user_batches_do_not():
    obj = quadratic_bowl(np.arange(8, dtype=float).reshape(4, 2), side_lengths=10.0)
    sampled = _sample_batches(RngStream(1).generator, 3, 4, 2)
    resolved = obj.resolve_batch(sampled)
    assert type(resolved) is np.ndarray and np.array_equal(resolved, sampled)
    # the same shapes from a caller are checked on every entry point
    points = np.zeros((3, 2))
    for bad in ([[0, 0], [1, 2], [2, 3]], [[0, 1], [1, 4], [2, 3]], [[0.0, 1.0]] * 3):
        with pytest.raises(ValueError):
            obj.grad_field(bad)
        with pytest.raises(ValueError):
            obj.minibatch_grad(bad, points)
        with pytest.raises(ValueError):
            obj.minibatch_risk(bad, points)
        with pytest.raises(ValueError):
            obj.resolve_batch(np.asarray(bad))


def test_build_objective_dispatch():
    obj = build_objective({"name": "double_well_1d"})
    assert obj.domain.dim == 1
    obj2 = build_objective(
        {"name": "quadratic_bowl", "centers": [[1.0, 1.0]], "side_lengths": 4.0}
    )
    assert obj2.domain.sides[0] == 4.0
    with pytest.raises(ValueError):
        build_objective({"name": "nope"})
    assert set(BUILTIN_OBJECTIVES) == {
        "double_well_1d",
        "double_well_2d",
        "quadratic_bowl",
        "linreg_synthetic",
    }


def test_metadata_fields():
    for obj in (double_well_1d(), double_well_2d()):
        meta = obj.metadata
        assert meta.lipschitz_c1 > 0


def test_declared_lipschitz_constants_bound_every_minibatch_field():
    # local thinning bounds rest on these constants, and with them so few
    # rates are evaluated that the runtime check rarely gets a chance: check
    # each built-in's directly, on random batches and random point pairs in
    # the box (the segment between two such points crosses no seam)
    gen = RngStream(41).generator
    objectives = [
        double_well_1d(),
        double_well_2d(),
        quadratic_bowl(5.0 * gen.random((12, 3)), side_lengths=5.0),
        linreg_synthetic(40, 3, 0.5, seed=2),
    ]
    assert {obj.name for obj in objectives} == set(BUILTIN_OBJECTIVES)
    pairs = 4000
    for obj in objectives:
        lipschitz, n = obj.metadata.lipschitz_c1, obj.n_samples
        a = obj.domain.sample_uniform(gen, pairs)
        b = obj.domain.sample_uniform(gen, pairs)
        b[::2] = a[::2] + 1e-3 * (b[::2] - a[::2])  # half the pairs are close
        limit = lipschitz * np.linalg.norm(a - b, axis=1) * (1.0 + 1e-9) + 1e-10
        for m in sorted({1, max(1, n // 4), n}):
            field = obj.grad_field(_sample_batches(gen, pairs, n, m))
            moved = np.linalg.norm(field(a) - field(b), axis=1)
            assert np.all(moved <= limit), (obj.name, m, float(np.max(moved / limit)))


def _curvature_norm(obj, points):
    """||Hessian|| of a double well at (k, d) points: |f''(x)|, and at least
    2 (the y-axis) in 2-d."""
    x = points[:, 0] - np.ravel(obj.extra["offset"])[0]
    curv = np.abs(12.0 * x * x - 24.0 * x - 72.0)
    return np.maximum(curv, 2.0) if obj.domain.dim == 2 else curv


def _random_boxes(obj, gen, k):
    """Corner pairs (a, b) of k random boxes, in either order: a third
    anywhere in the box, a third straddling the vertex x = 1 of f'', a third
    touching a box edge."""
    dom = obj.domain
    a = dom.sample_uniform(gen, k)
    b = dom.sample_uniform(gen, k)
    vertex = np.ravel(obj.extra["offset"])[0] + 1.0
    third = k // 3
    a[third : 2 * third, 0] = vertex - 3.0 * gen.random(third)
    b[third : 2 * third, 0] = vertex + 3.0 * gen.random(third)
    edge = slice(2 * third, k)
    a[edge] = np.where(gen.random(a[edge].shape) < 0.5, 0.0, dom.sides)
    return a, b


def test_double_well_box_bounds_dominate_the_curvature():
    # lipschitz_box must bound ||Hessian|| on every box, straddling the
    # vertex of f'' or touching the box edges, never exceed lipschitz_c1,
    # equal it on the whole box, and bound every gradient difference along
    # an in-box segment by its bounding box's bound times its length
    gen = RngStream(42).generator
    for obj in (double_well_1d(), double_well_2d()):
        meta, dom = obj.metadata, obj.domain
        whole = meta.lipschitz_box(np.zeros((1, dom.dim)), dom.sides[None, :])
        assert whole.tolist() == [meta.lipschitz_c1]
        a, b = _random_boxes(obj, gen, 3000)
        bound = meta.lipschitz_box(a, b)
        assert bound.shape == (3000,)
        assert np.array_equal(bound, meta.lipschitz_box(b, a))
        assert np.all(bound <= meta.lipschitz_c1)
        # the corners and 64 points inside each box
        inside = a[:, None, :] + gen.random((3000, 64, dom.dim)) * (b - a)[:, None, :]
        inside = np.concatenate([a[:, None, :], b[:, None, :], inside], axis=1)
        sampled = _curvature_norm(obj, inside.reshape(-1, dom.dim)).reshape(3000, -1).max(axis=1)
        assert np.all(sampled <= bound * (1.0 + 1e-12)), float(np.max(sampled / bound))
        # straddling boxes hold the vertex, where |f''| is 84
        straddle = slice(1000, 2000)
        assert np.all(bound[straddle] >= 84.0)
        # segments: each from a box corner to a point of its box
        moved = np.linalg.norm(obj.grad(a) - obj.grad(inside[:, 5]), axis=1)
        length = np.linalg.norm(a - inside[:, 5], axis=1)
        assert np.all(moved <= bound * length * (1.0 + 1e-9) + 1e-10)
        # short segments, where the bound is nearly the local curvature
        c = a + 1e-3 * (b - a)
        moved = np.linalg.norm(obj.grad(a) - obj.grad(c), axis=1)
        limit = meta.lipschitz_box(a, c) * np.linalg.norm(a - c, axis=1)
        assert np.all(moved <= limit * (1.0 + 1e-9) + 1e-10)


def test_a_box_bound_needs_a_lipschitz_constant():
    with pytest.raises(ValueError, match="lipschitz_box"):
        ObjectiveMetadata(lipschitz_box=lambda a, b: np.ones(len(a)))
    assert quadratic_bowl([[1.0, 2.0]]).metadata.lipschitz_box is None
    assert linreg_synthetic(8, 2, 0.5, seed=0).metadata.lipschitz_box is None


# ----------------------------------------------------------------------
# stacked per-chain datasets
# ----------------------------------------------------------------------


def _stacked_trials(T=4, n=24):
    trials = [linreg_synthetic(n, 2, 0.5, seed=30 + t) for t in range(T)]
    stacked = LinearRegressionObjective(
        np.stack([o.features for o in trials]), np.stack([o.targets for o in trials]), trials[0].domain
    )
    return trials, stacked


def test_stacked_chains_read_only_their_own_dataset():
    trials, stacked = _stacked_trials()
    T, n = len(trials), stacked.n_samples
    assert n == 24
    assert np.array_equal(stacked.grad_norm_bound, [o.grad_norm_bound for o in trials])
    assert stacked.metadata.lipschitz_c1 == max(o.metadata.lipschitz_c1 for o in trials)
    gen = RngStream(31).generator
    thetas = stacked.domain.sample_uniform(gen, T)
    batches = _sample_batches(gen, T, n, 5)
    batch_grads = stacked.minibatch_grad(batches, thetas)
    full_grads = stacked.grad(thetas)
    risks = stacked.empirical_risk(thetas)
    for t, own in enumerate(trials):
        assert np.allclose(batch_grads[t], own.minibatch_grad(batches[t], thetas[t]), rtol=1e-12, atol=1e-12)
        assert np.allclose(full_grads[t], own.grad(thetas[t]), rtol=1e-12, atol=1e-12)
        assert np.isclose(risks[t], own.empirical_risk(thetas[t]), rtol=1e-12)
    # a field evaluated for a subset of chains reads those chains' datasets
    rows = np.array([3, 1, 1])
    points = thetas[rows][:, None, :] + np.array([[[0.1, -0.2]], [[0.0, 0.3]], [[0.5, 0.5]]])
    for batch in (batches, None):
        got = stacked.grad_field(batch)(points, rows=rows)
        for k, t in enumerate(rows):
            own = trials[t].grad_field(None if batch is None else batches[t])(points[k])
            assert np.allclose(got[k], own, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="one row per dataset"):
        stacked.minibatch_grad(batches[:2], thetas[:2])


def test_stacked_gradients_are_checked_against_their_own_chains_bound():
    trials, stacked = _stacked_trials()
    bounds = stacked.grad_norm_bound
    low, high = int(np.argmin(bounds)), int(np.argmax(bounds))
    assert bounds[low] < 0.9 * bounds[high]
    grads = np.zeros((len(trials), 2))
    grads[high, 0] = bounds[high]
    stacked.check_grad_norms(grads)
    grads[low, 1] = 0.5 * (bounds[low] + bounds[high])
    with pytest.raises(GradientBoundError, match="bound"):
        stacked.check_grad_norms(grads)
