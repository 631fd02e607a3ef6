import json

import numpy as np
import pytest

from poisson_sgd.bps import BpsConfig, coupled_compare, run_bps, run_bps_ensemble
from poisson_sgd.objectives import double_well_1d, double_well_2d, quadratic_bowl
from poisson_sgd.sampler import RngStream

from package_helpers import final_theta


def test_config_validation():
    cfg = BpsConfig(beta=0.5, lambda_ref=2.0, c_b=1.0, n_steps=10)
    assert cfg.floor == 3.0
    assert cfg.ceiling(10.0) == 0.5 * 10.0 + 3.0
    with pytest.raises(ValueError):
        BpsConfig(beta=-0.1, lambda_ref=1.0, c_b=0.0, n_steps=1)
    with pytest.raises(ValueError):
        # lambda_ref must be strictly positive, zero is not enough
        BpsConfig(beta=0.1, lambda_ref=0.0, c_b=1.0, n_steps=1)
    with pytest.raises(ValueError):
        BpsConfig(beta=0.1, lambda_ref=1.0, c_b=-0.5, n_steps=1)
    with pytest.raises(ValueError):
        BpsConfig(beta=0.1, lambda_ref=1.0, c_b=0.0, n_steps=1, epsilon=0.0)
    with pytest.raises(ValueError):
        BpsConfig(beta=0.1, lambda_ref=1.0, c_b=0.0, n_steps=-1)


def test_coupled_constructor_matches_optimizer_floor():
    # lambda_ref + c_b must equal beta * M + 1/epsilon
    cfg = BpsConfig.coupled(beta=0.5, epsilon=0.25, grad_norm_bound=10.0, n_steps=5)
    assert cfg.c_b == 0.0
    assert cfg.lambda_ref == 0.5 * 10.0 + 4.0
    cfg.validate_coupling(10.0)

    split = BpsConfig.coupled(beta=0.5, epsilon=0.25, grad_norm_bound=10.0, c_b=3.0, n_steps=5)
    assert split.lambda_ref == 9.0 - 3.0
    assert split.floor == cfg.floor
    split.validate_coupling(10.0)

    with pytest.raises(ValueError):
        # c_b swallows the whole budget, leaving lambda_ref <= 0
        BpsConfig.coupled(beta=0.0, epsilon=1.0, grad_norm_bound=5.0, c_b=1.0, n_steps=5)


def test_validate_coupling_rejects_mismatch():
    cfg = BpsConfig(beta=0.5, lambda_ref=2.0, c_b=0.0, n_steps=5, epsilon=0.25)
    with pytest.raises(ValueError, match="coupling violated"):
        cfg.validate_coupling(10.0)
    plain = BpsConfig(beta=0.5, lambda_ref=2.0, c_b=0.0, n_steps=5)
    with pytest.raises(ValueError, match="no epsilon"):
        plain.validate_coupling(10.0)


def test_step_reflect_probability_uses_new_point_and_old_velocity():
    obj = quadratic_bowl([[2.0, 7.0]], side_lengths=10.0)
    v0 = np.array([0.6, -0.8])
    cfg = BpsConfig(
        beta=0.7,
        lambda_ref=1.0,
        c_b=0.4,
        n_steps=1,
        seed=21,
        initial_point=(4.0, 8.5),
        initial_velocity=v0,
    )
    row = run_bps(obj, cfg).rows[0]
    grad_new = obj.grad_field(None)(np.array(row["theta"]))
    lam = cfg.beta * max(float(grad_new @ v0), 0.0)
    expected = (lam + cfg.c_b) / (lam + cfg.lambda_ref + cfg.c_b)
    assert row["p_reflect"] == pytest.approx(expected, abs=1e-12)
    assert row["event"] in ("reflect", "refresh")
    # 1.5 / 2.5 spot value for the same formula
    assert (1.5 + 0.0) / (1.5 + 1.0 + 0.0) == pytest.approx(0.6)


def test_run_records_event_tags():
    obj = double_well_2d()
    cfg = BpsConfig(beta=0.002, lambda_ref=1.0, c_b=0.5, n_steps=200, seed=4)
    rec = run_bps(obj, cfg)
    events = rec.column("event")
    assert set(events) <= {"reflect", "refresh"}
    assert len(set(events)) == 2  # both outcomes occur at these constants
    p = rec.column("p_reflect").astype(float)
    assert np.all((p > 0.0) & (p < 1.0))
    assert np.all(rec.column("eta").astype(float) > 0.0)
    assert rec.max_norm_deviation < 1e-9


def test_refresh_fraction_matches_constant_reflect_probability():
    # beta=0 makes p_reflect = c_b / (c_b + lambda_ref) = 0.25 every event,
    # so the refresh count is Binomial(n, 0.75)
    obj = quadratic_bowl([[5.0, 5.0]], side_lengths=10.0)
    cfg = BpsConfig(beta=0.0, lambda_ref=3.0, c_b=1.0, n_steps=50, seed=8)
    res = run_bps_ensemble(obj, cfg, 400, rng=RngStream(8))
    n = 400 * 50
    se = np.sqrt(0.75 * 0.25 / n)
    assert abs(res.extras["refresh_fraction"] - 0.75) < 5 * se
    # and with beta=0 the event radii are Exp(floor), mean 1/4
    assert abs(res.mean_eta - 0.25) < 5 * 0.25 / np.sqrt(n)


def test_replay_byte_identical(tmp_path):
    obj = double_well_2d()
    cfg = BpsConfig(beta=0.003, lambda_ref=2.0, c_b=0.0, n_steps=150, seed=11)
    pa, pb = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    run_bps(obj, cfg).to_ndjson(pa)
    run_bps(obj, cfg).to_ndjson(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_zero_steps_records_initial_state():
    obj = double_well_1d()
    cfg = BpsConfig(beta=0.01, lambda_ref=1.0, c_b=0.0, n_steps=0, seed=3)
    rec = run_bps(obj, cfg)
    assert rec.column("k").tolist() == [0]
    assert np.allclose(final_theta(rec), obj.domain.sample_uniform(RngStream(3).generator))


def test_ensemble_snapshots_and_replay():
    obj = double_well_1d()
    cfg = BpsConfig(beta=0.004, lambda_ref=1.5, c_b=0.5, n_steps=60, seed=13)
    kw = dict(snapshot_steps=(0, 30, 60))
    a = run_bps_ensemble(obj, cfg, 50, rng=RngStream(13), **kw)
    b = run_bps_ensemble(obj, cfg, 50, rng=RngStream(13), **kw)
    assert sorted(a.snapshots) == [0, 30, 60]
    for k in a.snapshots:
        assert np.array_equal(a.snapshots[k], b.snapshots[k])
    assert np.array_equal(a.thetas, b.thetas)
    assert np.array_equal(a.velocities, b.velocities)
    assert a.max_norm_deviation < 1e-9


def test_ensemble_initial_conditions_respected_and_validated():
    obj = double_well_1d()
    cfg = BpsConfig(beta=0.004, lambda_ref=1.0, c_b=0.0, n_steps=0, seed=1)
    inits = np.linspace(0.5, 15.5, 8)[:, None]
    res = run_bps_ensemble(obj, cfg, 8, rng=RngStream(1), initial_points=inits)
    assert np.allclose(res.thetas, inits)
    with pytest.raises(ValueError):
        run_bps_ensemble(obj, cfg, 8, rng=RngStream(1), initial_points=inits[:3])
    with pytest.raises(ValueError):
        run_bps_ensemble(
            obj,
            cfg,
            2,
            rng=RngStream(1),
            initial_points=inits[:2],
            initial_velocities=np.array([[2.0], [1.0]]),
        )


def test_ensemble_velocities_stay_unit():
    obj = double_well_2d()
    cfg = BpsConfig.coupled(beta=0.01, epsilon=0.1, grad_norm_bound=double_well_2d().grad_norm_bound, n_steps=300, seed=2)
    res = run_bps_ensemble(obj, cfg, 40, rng=RngStream(2))
    assert np.max(np.abs(np.linalg.norm(res.velocities, axis=1) - 1.0)) < 1e-12
    assert res.max_norm_deviation < 1e-9


def test_coupled_compare_zero_steps_is_exact_match():
    obj = double_well_1d()
    res = coupled_compare(obj, beta=0.01, epsilon=0.5, n_steps=0, trials=32, seed=5)
    assert np.array_equal(res.optimizer_thetas, res.sampler_thetas)
    assert res.sliced_w1 == 0.0


def test_coupled_compare_shrinks_as_epsilon_shrinks():
    # smaller epsilon raises both floors, shortening steps and tightening the
    # agreement between the optimizer's and the sampler's position laws
    obj = double_well_1d()
    loose = coupled_compare(obj, beta=0.05, epsilon=1.0, n_steps=40, trials=300, seed=7)
    tight = coupled_compare(obj, beta=0.05, epsilon=0.05, n_steps=40, trials=300, seed=7)
    assert tight.sliced_w1 < loose.sliced_w1


def test_single_chain_is_chain_zero_of_one_chain_ensemble():
    obj = double_well_2d()
    cfg = BpsConfig(beta=0.002, lambda_ref=1.0, c_b=0.5, n_steps=60, seed=4, record_stride=9)
    rec = run_bps(obj, cfg)
    ens = run_bps_ensemble(obj, cfg, 1, rng=RngStream(cfg.seed))
    assert np.array_equal(final_theta(rec), ens.thetas[0])
    assert np.array_equal(rec.rows[-1]["v"], ens.velocities[0])
    assert rec.column("k").tolist() == [9, 18, 27, 36, 45, 54, 60]



def test_record_header_is_the_config(tmp_path):
    obj = quadratic_bowl([[2.0, 7.0]], side_lengths=10.0)
    cfg = BpsConfig(
        beta=0.7,
        lambda_ref=1.0,
        c_b=0.4,
        n_steps=3,
        epsilon=0.5,
        seed=21,
        initial_point=(4.0, 8.5),
        initial_velocity=np.array([0.6, -0.8]),
    )
    rec = run_bps(obj, cfg)
    assert rec.kind == "bps"
    # batch_size and record_risk are constants of the sampler, not fields
    assert rec.config == {
        "beta": 0.7,
        "lambda_ref": 1.0,
        "c_b": 0.4,
        "n_steps": 3,
        "epsilon": 0.5,
        "initial_point": [4.0, 8.5],
        "initial_velocity": [0.6, -0.8],
        "seed": 21,
        "record_stride": 1,
    }
    assert all("risk" not in row and "batch" not in row for row in rec.rows)
    rec.to_ndjson(tmp_path / "rec.ndjson")
    header = json.loads((tmp_path / "rec.ndjson").read_text().splitlines()[0])
    assert header["kind"] == "bps"
    assert header["config"] == rec.config


def test_refresh_fraction_is_the_only_extra_and_counts_refresh_events():
    obj = double_well_2d()
    cfg = BpsConfig(beta=0.002, lambda_ref=1.0, c_b=0.5, n_steps=25, seed=6)
    n_chains = 12
    res = run_bps_ensemble(obj, cfg, n_chains, record_chains=range(n_chains))
    assert set(res.extras) == {"refresh_fraction"}
    # every step of every chain is recorded, so the tags give the count
    refreshes = sum(row["event"] == "refresh" for rec in res.records for row in rec.rows)
    assert 0 < refreshes < n_chains * cfg.n_steps
    assert res.extras["refresh_fraction"] == refreshes / (n_chains * cfg.n_steps)
    idle = BpsConfig(beta=0.002, lambda_ref=1.0, c_b=0.5, n_steps=0)
    assert run_bps_ensemble(obj, idle, n_chains).extras == {"refresh_fraction": 0.0}
