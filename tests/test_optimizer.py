import copy
import dataclasses
import json

import numpy as np
import pytest
from scipy import stats

from poisson_sgd.bps import BpsConfig, run_bps_ensemble
from poisson_sgd.domain import TorusDomain
from poisson_sgd.objectives import (
    AnalyticObjective,
    GradientBoundError,
    ObjectiveMetadata,
    double_well_1d,
    double_well_2d,
    quadratic_bowl,
)
from poisson_sgd.optimizer import (
    PoissonSgdConfig,
    reflect,
    run_poisson_sgd,
    run_poisson_sgd_ensemble,
)
from poisson_sgd.sampler import RateBoundError, RngStream, uniform_sphere

from package_helpers import final_theta


def test_reflect_hand_examples():
    # v=(1,0), g=(1,1): component along g flips -> (0,-1)
    out = reflect(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert np.allclose(out, [0.0, -1.0])
    # v=(1,0), g=(3,4): v - 2(3/25)(3,4) = (7/25, -24/25)
    out = reflect(np.array([1.0, 0.0]), np.array([3.0, 4.0]))
    assert np.allclose(out, [7.0 / 25.0, -24.0 / 25.0])
    # gradient orthogonal to v leaves only a sign flip along g
    out = reflect(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    assert np.allclose(out, [1.0, 0.0])


def test_reflect_zero_gradient_noop():
    v = np.array([0.6, 0.8])
    assert np.array_equal(reflect(v, np.zeros(2)), v)
    assert np.array_equal(reflect(v, np.full(2, 1e-13)), v)


def test_reflect_batched_mixed_defined():
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    g = np.array([[1.0, 1.0], [0.0, 0.0]])  # second gradient vanishes
    out = reflect(v, g)
    assert np.allclose(out[0], [0.0, -1.0])
    assert np.array_equal(out[1], v[1])


def test_reflect_algebra_random():
    rng = RngStream(1)
    gen = rng.generator
    for d in (2, 3, 7):
        v = uniform_sphere(d, rng, 2000)
        g = gen.standard_normal((2000, d))
        r = reflect(v, g)
        # involution
        assert np.max(np.abs(reflect(r, g) - v)) < 1e-12
        # norm preservation
        assert np.max(np.abs(np.linalg.norm(r, axis=1) - 1.0)) < 1e-12
        # <Rv, g> = -<v, g>
        lhs = np.einsum("ij,ij->i", r, g)
        rhs = -np.einsum("ij,ij->i", v, g)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_config_validation_and_derived_constants():
    cfg = PoissonSgdConfig(beta=0.5, epsilon=0.25, n_steps=10)
    assert cfg.c_p == 4.0
    assert cfg.ceiling(10.0) == 0.5 * 10.0 + 4.0
    with pytest.raises(ValueError):
        PoissonSgdConfig(beta=-0.1, epsilon=0.5, n_steps=1)
    with pytest.raises(ValueError):
        PoissonSgdConfig(beta=0.1, epsilon=0.0, n_steps=1)
    with pytest.raises(ValueError):
        PoissonSgdConfig(beta=0.1, epsilon=0.5, n_steps=-1)


def test_single_step_order_of_operations():
    # with beta=0 the step length is independent of the field, so the new
    # point is exactly wrap(theta + eta * v) with the OLD velocity
    obj = quadratic_bowl([[2.0, 7.0]], side_lengths=10.0)
    theta0, v0 = np.array([9.5, 3.0]), np.array([0.6, 0.8])
    cfg = PoissonSgdConfig(
        beta=0.0, epsilon=0.5, n_steps=1, seed=9, initial_point=theta0, initial_velocity=v0
    )
    row = run_poisson_sgd(obj, cfg).rows[0]
    theta1 = np.array(row["theta"])
    expect = obj.domain.wrap(theta0 + row["eta"] * v0)
    assert np.allclose(theta1, expect)
    # velocity reflected about the gradient at the NEW point
    g = obj.grad(theta1)
    assert np.allclose(row["v"], reflect(v0, g))


def test_run_keeps_stride_and_final(tmp_path):
    obj = double_well_1d()
    cfg = PoissonSgdConfig(
        beta=0.01, epsilon=0.5, n_steps=25, seed=3, record_stride=10
    )
    rec = run_poisson_sgd(obj, cfg)
    assert rec.column("k").tolist() == [10, 20, 25]
    assert rec.column("risk").shape == (3,)
    assert np.all(rec.column("eta") > 0.0)
    assert rec.max_norm_deviation < 1e-9

    cfg0 = PoissonSgdConfig(beta=0.01, epsilon=0.5, n_steps=0, seed=3)
    rec0 = run_poisson_sgd(obj, cfg0)
    assert rec0.column("k").tolist() == [0]
    assert np.allclose(final_theta(rec0), obj.domain.sample_uniform(RngStream(3).generator))


def test_replay_byte_identical(tmp_path):
    obj = double_well_2d()
    cfg = PoissonSgdConfig(beta=0.003, epsilon=0.2, n_steps=150, seed=11, batch_size=0)
    pa, pb = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    run_poisson_sgd(obj, cfg).to_ndjson(pa)
    run_poisson_sgd(obj, cfg).to_ndjson(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_minibatch_recorded_and_distinct():
    obj = quadratic_bowl(np.arange(20, dtype=float).reshape(10, 2), side_lengths=25.0)
    cfg = PoissonSgdConfig(beta=0.05, epsilon=0.5, n_steps=30, seed=5, batch_size=4)
    rec = run_poisson_sgd(obj, cfg)
    for row in rec.rows:
        batch = row["batch"]
        assert len(batch) == 4
        assert len(set(batch)) == 4
        assert sorted(batch) == list(batch)


def test_batch_size_zero_means_full_batch():
    obj = quadratic_bowl(np.arange(10, dtype=float).reshape(5, 2), side_lengths=25.0)
    cfg = PoissonSgdConfig(beta=0.05, epsilon=0.5, n_steps=10, seed=5, batch_size=0)
    rec = run_poisson_sgd(obj, cfg)
    assert all("batch" not in row for row in rec.rows)
    with pytest.raises(ValueError):
        bad = PoissonSgdConfig(beta=0.05, epsilon=0.5, n_steps=1, seed=5, batch_size=6)
        run_poisson_sgd(obj, bad)


def test_ensemble_beta_zero_etas_are_exponential():
    obj = quadratic_bowl([[5.0]], side_lengths=10.0)
    cfg = PoissonSgdConfig(beta=0.0, epsilon=0.5, n_steps=40, seed=7)
    res = run_poisson_sgd_ensemble(obj, cfg, 600, rng=RngStream(7))
    # mean eta over all steps and chains should match 1/C_P = 0.5
    assert abs(res.mean_eta - 0.5) < 5 * 0.5 / np.sqrt(600 * 40)


def test_ensemble_snapshots_and_replay():
    obj = double_well_1d()
    cfg = PoissonSgdConfig(beta=0.005, epsilon=0.5, n_steps=60, seed=13)
    kw = dict(snapshot_steps=(0, 30, 60))
    a = run_poisson_sgd_ensemble(obj, cfg, 50, rng=RngStream(13), **kw)
    b = run_poisson_sgd_ensemble(obj, cfg, 50, rng=RngStream(13), **kw)
    assert sorted(a.snapshots) == [0, 30, 60]
    for k in a.snapshots:
        assert np.array_equal(a.snapshots[k], b.snapshots[k])
    assert np.array_equal(a.thetas, b.thetas)
    assert np.array_equal(a.velocities, b.velocities)
    assert a.max_norm_deviation < 1e-9


def test_ensemble_initial_points_respected():
    obj = double_well_1d()
    cfg = PoissonSgdConfig(beta=0.005, epsilon=0.5, n_steps=0, seed=1)
    inits = np.linspace(0.5, 15.5, 8)[:, None]
    res = run_poisson_sgd_ensemble(obj, cfg, 8, rng=RngStream(1), initial_points=inits)
    assert np.allclose(res.thetas, inits)


def test_ensemble_velocities_stay_unit():
    obj = double_well_2d()
    cfg = PoissonSgdConfig(beta=0.01, epsilon=0.1, n_steps=300, seed=2)
    res = run_poisson_sgd_ensemble(obj, cfg, 40, rng=RngStream(2))
    assert np.max(np.abs(np.linalg.norm(res.velocities, axis=1) - 1.0)) < 1e-12
    assert res.max_norm_deviation < 1e-9


def test_mean_eta_bounded_by_inverse_floor():
    # rate >= C_P pointwise, so eta is stochastically dominated by Exp(C_P)
    obj = double_well_2d()
    cfg = PoissonSgdConfig(beta=0.02, epsilon=0.1, n_steps=200, seed=3)
    res = run_poisson_sgd_ensemble(obj, cfg, 50, rng=RngStream(3))
    n_draws = 200 * 50
    se = (1.0 / cfg.c_p) / np.sqrt(n_draws)
    assert res.mean_eta <= 1.0 / cfg.c_p + 3 * se


@pytest.mark.parametrize("batch_size", [0, 3])
def test_single_chain_is_chain_zero_of_one_chain_ensemble(batch_size):
    obj = quadratic_bowl(np.arange(10, dtype=float).reshape(5, 2), side_lengths=25.0)
    cfg = PoissonSgdConfig(beta=0.05, epsilon=0.5, n_steps=40, seed=6, batch_size=batch_size)
    rec = run_poisson_sgd(obj, cfg)
    ens = run_poisson_sgd_ensemble(obj, cfg, 1, rng=RngStream(cfg.seed))
    assert np.array_equal(final_theta(rec), ens.thetas[0])
    assert np.array_equal(rec.rows[-1]["v"], ens.velocities[0])
    assert rec.max_norm_deviation == ens.max_norm_deviation


def test_recorded_chains_match_the_ensemble_they_ride_in():
    obj = double_well_2d()
    cfg = PoissonSgdConfig(beta=0.01, epsilon=0.1, n_steps=30, seed=4, record_stride=7)
    plain = run_poisson_sgd_ensemble(obj, cfg, 6, rng=RngStream(4))
    traced = run_poisson_sgd_ensemble(obj, cfg, 6, rng=RngStream(4), record_chains=[4, 1])
    # recording consumes no randomness
    assert np.array_equal(plain.thetas, traced.thetas)
    assert plain.records == []
    assert [len(r) for r in traced.records] == [5, 5]
    for rec, i in zip(traced.records, (4, 1)):
        assert rec.column("k").tolist() == [7, 14, 21, 28, 30]
        assert np.array_equal(final_theta(rec), traced.thetas[i])
    with pytest.raises(ValueError, match="record_chains"):
        run_poisson_sgd_ensemble(obj, cfg, 6, rng=RngStream(4), record_chains=[6])


def test_ensembles_check_reflection_gradients_against_the_bound():
    # declares ||grad|| <= 1, but the gradient is 1000 * theta on [0, 2); at
    # beta = 0 no rate is evaluated, so only the reflection gradients can tell
    obj = AnalyticObjective(
        lambda t: 500.0 * t[..., 0] ** 2,
        lambda t: 1000.0 * t,
        TorusDomain(1, 2.0),
        grad_norm_bound=1.0,
        name="false_bound",
    )
    with pytest.raises(GradientBoundError, match="false_bound"):
        run_poisson_sgd_ensemble(obj, PoissonSgdConfig(beta=0.0, epsilon=0.5, n_steps=5), 16)
    with pytest.raises(GradientBoundError, match="false_bound"):
        run_bps_ensemble(obj, BpsConfig(beta=0.0, lambda_ref=1.0, c_b=0.0, n_steps=5), 16)


def test_ensembles_refuse_a_false_lipschitz_constant():
    # the double well's curvature reaches 888; declared as 1, the local
    # thinning bounds are false and an evaluated rate must expose them
    obj = copy.copy(double_well_1d())
    obj.metadata = ObjectiveMetadata(lipschitz_c1=1.0)
    with pytest.raises(RateBoundError, match="local bound"):
        run_poisson_sgd_ensemble(obj, PoissonSgdConfig(beta=0.05, epsilon=0.5, n_steps=20), 64)
    # a sampler whose ceiling is 209 floors high, and a coupled one whose
    # ceiling is 1.86 floors high: local bounds apply at any spread. So
    # narrow a spread leaves few proposals undecided, and only an evaluated
    # one can expose the constant; 2000 chains for 100 steps meet one on
    # every one of 200 seeds tried
    cfg = BpsConfig(beta=0.05, lambda_ref=0.5, c_b=0.0, epsilon=0.5, n_steps=20)
    with pytest.raises(RateBoundError, match="local bound"):
        run_bps_ensemble(obj, cfg, 64)
    coupled = BpsConfig.coupled(beta=0.003, epsilon=1.0, grad_norm_bound=obj.grad_norm_bound, n_steps=100)
    assert coupled.ceiling(obj.grad_norm_bound) < 2 * coupled.floor
    with pytest.raises(RateBoundError, match="local bound"):
        run_bps_ensemble(obj, coupled, 2000)
    # 64 such chains for 20 steps make few evaluations, and on this seed
    # none exposes the constant; the sure decisions made against the false
    # bounds are caught by the per-step audit of the reflection gradients
    short = dataclasses.replace(coupled, n_steps=20)
    with pytest.raises(RateBoundError, match="gradient moved .* local bound"):
        run_bps_ensemble(obj, short, 64, rng=RngStream(1))
    # per-chain mini-batches: so small a slope makes the bounds decide every
    # proposal unevaluated; the audit compares each chain's rate at its
    # arrival with its evaluated anchor
    _, stacked = _stacked_linreg(range(8))
    stacked.metadata = ObjectiveMetadata(lipschitz_c1=0.1)
    minibatch = PoissonSgdConfig(beta=1.0, epsilon=0.05, n_steps=20, batch_size=8)
    with pytest.raises(RateBoundError, match="rate moved .* local bound"):
        run_poisson_sgd_ensemble(stacked, minibatch, 8, rng=RngStream(0))


def test_ensembles_refuse_a_false_lipschitz_box():
    # double_well_2d's curvature near its local minimum is about 108; a box
    # bound of 2 everywhere makes the rays' local bounds false. On this seed
    # no evaluated rate exposes them before the per-step audit, against
    # each ray's own constant, does
    obj = copy.copy(double_well_2d())
    obj.metadata = dataclasses.replace(obj.metadata, lipschitz_box=lambda a, b: np.full(len(a), 2.0))
    starts = obj.local_minima[0] + RngStream(9).generator.uniform(-0.1, 0.1, size=(100, 2))
    cfg = PoissonSgdConfig(beta=0.01, epsilon=0.05, n_steps=50)
    with pytest.raises(RateBoundError, match="gradient moved .* local bound"):
        run_poisson_sgd_ensemble(obj, cfg, 100, rng=RngStream(1), initial_points=starts)


def test_true_lipschitz_constants_pass_the_audit_across_seams():
    # gradients jump where a chain crosses a seam; the audit binds only
    # steps that stay in the box, so true constants never raise, with a
    # full batch, per-chain mini-batches and the coupled sampler, nor does
    # a true box bound (the optimizer on the 1-d well, 7 floors high)
    bowl = quadratic_bowl([[0.5, 9.5], [1.0, 0.5], [9.0, 9.0], [0.2, 0.3]], side_lengths=10.0)
    well = double_well_1d()
    steps = range(401)
    runs = [
        run_poisson_sgd_ensemble(
            bowl, PoissonSgdConfig(beta=1.0, epsilon=0.2, n_steps=400), 64, rng=RngStream(5), snapshot_steps=steps
        ),
        run_poisson_sgd_ensemble(
            bowl,
            PoissonSgdConfig(beta=1.0, epsilon=0.2, n_steps=400, batch_size=2),
            64,
            rng=RngStream(6),
            snapshot_steps=steps,
        ),
        run_bps_ensemble(
            well,
            BpsConfig.coupled(beta=0.003, epsilon=1.0, grad_norm_bound=well.grad_norm_bound, n_steps=400),
            64,
            rng=RngStream(7),
            snapshot_steps=steps,
        ),
        run_poisson_sgd_ensemble(
            well, PoissonSgdConfig(beta=0.003, epsilon=1.0, n_steps=400), 64, rng=RngStream(8), snapshot_steps=steps
        ),
    ]
    for result, side in zip(runs, (10.0, 10.0, 16.0, 16.0)):
        path = np.array([result.snapshots[k] for k in steps])
        crossings = np.any(np.abs(np.diff(path, axis=0)) > side / 2, axis=-1)
        assert crossings.sum() >= 10


def _counting_copy(obj, metadata):
    """A copy of ``obj`` with ``metadata`` whose gradient fields count the
    points they evaluate in ``points``."""
    twin = copy.copy(obj)
    twin.metadata = metadata
    twin.points = 0
    build = twin.grad_field

    def grad_field(batch=None):
        field = build(batch)

        def counted(points, rows=None):
            twin.points += np.asarray(points).size // twin.domain.dim
            return field(points, rows=rows)

        return counted

    twin.grad_field = grad_field
    return twin


def _stacked_linreg(seeds):
    from poisson_sgd.objectives import LinearRegressionObjective, linreg_synthetic

    trials = [linreg_synthetic(32, 2, 0.5, seed=s) for s in seeds]
    stacked = LinearRegressionObjective(
        np.stack([o.features for o in trials]), np.stack([o.targets for o in trials]), trials[0].domain
    )
    return trials, stacked


def test_local_bounds_keep_every_draw():
    # the same chains with and without a Lipschitz constant: local bounds
    # only skip rate evaluations, so every draw must agree exactly, and they
    # must skip some; per-chain mini-batch chains anchor each step with one
    # gradient of its own batches. Every spread thins against local bounds,
    # down to a ceiling barely above the floor (epsilon = 1e-3, 1.006 floors)
    bowl = quadratic_bowl([[2.0, 3.0], [6.0, 5.0], [4.0, 8.0], [7.0, 1.0]], side_lengths=10.0)
    _, stacked = _stacked_linreg(range(8))
    minibatch = PoissonSgdConfig(beta=50.0, epsilon=0.005, n_steps=60, batch_size=8)
    assert np.min(minibatch.ceiling(stacked.grad_norm_bound)) < 8 * minibatch.floor
    dw1 = double_well_1d()
    narrow = PoissonSgdConfig(beta=0.003, epsilon=1e-3, n_steps=20)
    assert narrow.ceiling(dw1.grad_norm_bound) < 1.01 * narrow.floor
    cases = [
        (bowl, PoissonSgdConfig(beta=2.0, epsilon=0.5, n_steps=20), 500),
        (double_well_2d(), PoissonSgdConfig(beta=0.1, epsilon=0.5, n_steps=20), 500),
        (bowl, PoissonSgdConfig(beta=2.0, epsilon=0.5, n_steps=20, batch_size=2), 500),
        (stacked, minibatch, 8),
        (dw1, narrow, 500),
    ]
    for obj, cfg, n_chains in cases:
        local = _counting_copy(obj, obj.metadata)
        blind = _counting_copy(obj, ObjectiveMetadata())
        runs = [
            run_poisson_sgd_ensemble(twin, cfg, n_chains, rng=RngStream(10), record_chains=[1])
            for twin in (local, blind)
        ]
        assert runs[0].thetas.tobytes() == runs[1].thetas.tobytes()
        assert runs[0].velocities.tobytes() == runs[1].velocities.tobytes()
        assert runs[0].mean_eta == runs[1].mean_eta
        assert runs[0].records[0].rows == runs[1].records[0].rows
        assert local.points < blind.points
    # samplers 209 floors high and, coupled to the optimizer, 1.86 floors high
    coupled = BpsConfig.coupled(beta=0.003, epsilon=1.0, grad_norm_bound=dw1.grad_norm_bound, n_steps=20)
    assert coupled.ceiling(dw1.grad_norm_bound) < 2 * coupled.floor
    for cfg in (BpsConfig(beta=0.05, lambda_ref=0.5, c_b=0.0, epsilon=0.5, n_steps=20), coupled):
        local = _counting_copy(dw1, dw1.metadata)
        blind = _counting_copy(dw1, ObjectiveMetadata())
        runs = [run_bps_ensemble(twin, cfg, 500, rng=RngStream(12), record_chains=[1]) for twin in (local, blind)]
        assert runs[0].thetas.tobytes() == runs[1].thetas.tobytes()
        assert runs[0].velocities.tobytes() == runs[1].velocities.tobytes()
        assert runs[0].extras == runs[1].extras
        assert runs[0].records[0].rows == runs[1].records[0].rows
        assert local.points < blind.points
    # escape's chains near double_well_2d's local minimum, where the
    # curvature is far below the box's 4716: thinning each ray against its
    # own neighbourhood's bound (lipschitz_box) draws the same and
    # evaluates fewer points than the constant alone
    dw2 = double_well_2d()
    starts = dw2.local_minima[0] + RngStream(9).generator.uniform(-0.1, 0.1, size=(100, 2))
    escape = PoissonSgdConfig(beta=0.01, epsilon=0.05, n_steps=100)
    boxed = _counting_copy(dw2, dw2.metadata)
    constant = _counting_copy(dw2, ObjectiveMetadata(lipschitz_c1=dw2.metadata.lipschitz_c1))
    runs = [
        run_poisson_sgd_ensemble(twin, escape, 100, rng=RngStream(13), initial_points=starts, record_chains=[1])
        for twin in (boxed, constant)
    ]
    assert runs[0].thetas.tobytes() == runs[1].thetas.tobytes()
    assert runs[0].velocities.tobytes() == runs[1].velocities.tobytes()
    assert runs[0].records[0].rows == runs[1].records[0].rows
    assert boxed.points < constant.points


def test_runs_below_the_box_bound_gate_evaluate_as_without_it():
    # the box bound's per-step pass runs only where it pays: coupled BPS
    # (ceiling under 2 floors) and double_well_2d at beta 0.001 (the
    # constant leaves about 0.012 proposals undecided per chain-step) keep
    # the constant's path, evaluation for evaluation
    dw1, dw2 = double_well_1d(), double_well_2d()
    coupled = BpsConfig.coupled(beta=0.003, epsilon=1.0, grad_norm_bound=dw1.grad_norm_bound, n_steps=20)
    shallow = PoissonSgdConfig(beta=0.001, epsilon=0.05, n_steps=50)
    assert shallow.ceiling(dw2.grad_norm_bound) > 2 * shallow.floor
    for obj, run in (
        (dw1, lambda twin: run_bps_ensemble(twin, coupled, 200, rng=RngStream(14))),
        (dw2, lambda twin: run_poisson_sgd_ensemble(twin, shallow, 50, rng=RngStream(15))),
    ):
        boxed = _counting_copy(obj, obj.metadata)
        constant = _counting_copy(obj, ObjectiveMetadata(lipschitz_c1=obj.metadata.lipschitz_c1))
        runs = [run(twin) for twin in (boxed, constant)]
        assert runs[0].thetas.tobytes() == runs[1].thetas.tobytes()
        assert boxed.points == constant.points


def test_recorded_chains_of_stacked_datasets_are_scored_on_their_own():
    trials, stacked = _stacked_linreg([3, 4, 5])
    cfg = PoissonSgdConfig(beta=50.0, epsilon=0.005, n_steps=5, batch_size=8)
    res = run_poisson_sgd_ensemble(stacked, cfg, 3, rng=RngStream(19), record_chains=[1, 2])
    for rec, own in zip(res.records, trials[1:]):
        assert len(rec.rows) == 5
        for row in rec.rows:
            assert row["risk"] == pytest.approx(float(own.empirical_risk(np.array(row["theta"]))), rel=1e-12)


def test_record_header_is_the_config_and_ensembles_report_no_extras(tmp_path):
    obj = quadratic_bowl(np.arange(10, dtype=float).reshape(5, 2), side_lengths=25.0)
    cfg = PoissonSgdConfig(
        beta=0.05,
        epsilon=0.5,
        n_steps=6,
        batch_size=3,
        seed=2,
        record_stride=2,
        initial_point=np.array([4.0, 8.5]),
        initial_velocity=[0.6, -0.8],
    )
    rec = run_poisson_sgd(obj, cfg)
    assert rec.kind == "poisson_sgd"
    assert rec.config == {
        "beta": 0.05,
        "epsilon": 0.5,
        "n_steps": 6,
        "batch_size": 3,
        "initial_point": [4.0, 8.5],
        "initial_velocity": [0.6, -0.8],
        "seed": 2,
        "record_stride": 2,
        "record_risk": True,
    }
    rec.to_ndjson(tmp_path / "rec.ndjson")
    header = json.loads((tmp_path / "rec.ndjson").read_text().splitlines()[0])
    assert header["kind"] == "poisson_sgd"
    assert header["config"] == rec.config
    # the optimizer's turn counts nothing, so its ensembles carry no extras
    for beta, batch_size, n_steps in [(0.05, 3, 6), (0.0, 0, 6), (0.05, 0, 0)]:
        plain = PoissonSgdConfig(beta=beta, epsilon=0.5, n_steps=n_steps, batch_size=batch_size)
        assert run_poisson_sgd_ensemble(obj, plain, 8, record_chains=[0]).extras == {}


def test_stacked_copies_of_one_dataset_run_the_plain_ensemble():
    # per-chain mini-batches read the same rows of each copy, and equal
    # per-chain bounds thin against the plain shared ceiling
    from poisson_sgd.objectives import LinearRegressionObjective, linreg_synthetic

    one = linreg_synthetic(32, 2, 0.5, seed=3)
    T = 6
    stacked = LinearRegressionObjective(np.stack([one.features] * T), np.stack([one.targets] * T), one.domain)
    cfg = PoissonSgdConfig(beta=50.0, epsilon=0.005, n_steps=60, batch_size=8, seed=7)
    plain = run_poisson_sgd_ensemble(one, cfg, T, rng=RngStream(7))
    copies = run_poisson_sgd_ensemble(stacked, cfg, T, rng=RngStream(7))
    assert plain.thetas.tobytes() == copies.thetas.tobytes()
    assert plain.velocities.tobytes() == copies.velocities.tobytes()
    assert plain.mean_eta == copies.mean_eta
    with pytest.raises(ValueError, match="per-chain datasets"):
        run_poisson_sgd_ensemble(stacked, cfg, T - 1)
