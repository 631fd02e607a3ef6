import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from poisson_sgd.cli import main
from poisson_sgd.experiments import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    _generalization_datasets,
    _geometric_checkpoints,
    analyze_experiment,
    make_linreg_with_holdout,
    run_experiment,
)
from poisson_sgd.objectives import BUILTIN_OBJECTIVES, linreg_synthetic

DW1 = {"name": "double_well_1d"}
DW2 = {"name": "double_well_2d"}

# one deliberately tiny config per experiment kind, for plumbing tests
TINY_CONFIGS = {
    "escape": ExperimentConfig(
        kind="escape",
        objective=DW2,
        trials=4,
        seed=101,
        protocol={"n_steps": 150, "n_trajectories": 2, "trajectory_stride": 50},
    ),
    "stationarity": ExperimentConfig(
        kind="stationarity",
        objective=DW1,
        trials=48,
        seed=102,
        protocol={"beta": 0.004, "epsilon": 0.5, "n_steps": 24, "oracle_samples": 4000},
    ),
    "beta_sweep": ExperimentConfig(
        kind="beta_sweep",
        objective=DW2,
        trials=6,
        seed=103,
        protocol={"betas": [0.0, 0.01], "n_steps": 150},
    ),
    "coupling": ExperimentConfig(
        kind="coupling",
        objective=DW1,
        trials=48,
        seed=104,
        protocol={"beta": 0.05, "epsilons": [0.5], "n_steps": 80},
    ),
    "generalization": ExperimentConfig(
        kind="generalization",
        objective={"name": "linreg_synthetic", "n": 8, "d": 2, "noise": 0.5, "seed": 0},
        trials=2,
        seed=105,
        protocol={"n_list": [8, 16], "n_test": 32, "n_steps": 120, "batch_size": 4},
    ),
    "baseline": ExperimentConfig(
        kind="baseline",
        objective=DW2,
        trials=8,
        seed=106,
        protocol={"n_steps": 100},
    ),
}


def _assert_manifest_lists_directory(run_dir: Path) -> None:
    manifest = json.loads((run_dir / "manifest.json").read_text())
    on_disk = sorted(p.name for p in run_dir.iterdir())
    assert sorted(manifest["artifacts"] + ["manifest.json"]) == on_disk


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_config_hash_is_content_addressed():
    cfg = TINY_CONFIGS["escape"]
    assert len(cfg.config_hash()) == 16
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again.config_hash() == cfg.config_hash()
    # protocol changes move the hash; key order does not
    bumped = ExperimentConfig.from_dict({**cfg.to_dict(), "seed": 999})
    assert bumped.config_hash() != cfg.config_hash()
    reordered = dict(reversed(list(cfg.to_dict().items())))
    assert ExperimentConfig.from_dict(reordered).config_hash() == cfg.config_hash()


def test_config_validation():
    with pytest.raises(ValueError, match="unknown experiment kind"):
        ExperimentConfig(kind="nope", objective=DW1, trials=1, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="escape", objective=DW1, trials=0, seed=0)
    for kind in ("escape", "coupling", "stationarity"):
        ExperimentConfig(kind=kind, objective=DW1, trials=1, seed=0)
    assert set(TINY_CONFIGS) == set(EXPERIMENT_KINDS)


def test_unknown_protocol_keys_are_refused(tmp_path, capsys):
    spec = {**TINY_CONFIGS["beta_sweep"].to_dict(), "protocol": {"n_steps": 5, "epsilonn": 9}}
    with pytest.raises(ValueError, match="epsilonn"):
        ExperimentConfig.from_dict(spec)

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(spec))
    out = tmp_path / "run"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    assert "epsilonn" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_keys_are_refused(tmp_path, capsys):
    base = TINY_CONFIGS["baseline"].to_dict()
    without_trials = {key: value for key, value in base.items() if key != "trials"}
    for spec, named in (({**base, "protocl": {"n_steps": 5}}, "protocl"), (without_trials, "trials")):
        with pytest.raises(ValueError, match=named):
            ExperimentConfig.from_dict(spec)

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(spec))
        out = tmp_path / "run"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("kind", ["beta_sweep", "baseline", "generalization"])
def test_single_trial_refused_where_the_summary_needs_a_spread(kind):
    spec = {**TINY_CONFIGS[kind].to_dict(), "trials": 1}
    with pytest.raises(ValueError, match="trials >= 2"):
        ExperimentConfig.from_dict(spec)


# protocols that a runner would misread or ignore: each must be refused up
# front; an "objective" entry replaces the config's objective, every other
# entry overrides a protocol key
LINREG = TINY_CONFIGS["generalization"].objective
MISREAD_PROTOCOLS = {
    "baseline_unknown_algorithm": ("baseline", {"algorithm": "sgdl"}, "sgdl"),
    "baseline_sgd_with_noise": ("baseline", {"algorithm": "sgd", "noise_scale": 5.0}, "noise_scale"),
    "stationarity_long_chain_from_oracle": (
        "stationarity",
        {"mode": "long-chain", "init": "oracle"},
        "init",
    ),
    "stationarity_bps_minibatch": ("stationarity", {"algorithm": "bps", "batch_size": 7}, "batch_size"),
    "stationarity_unknown_algorithm": ("stationarity", {"algorithm": "bpss"}, "bpss"),
    "escape_beta_zero_without_sgld_noise": ("escape", {"beta": 0.0}, "sgld_noise"),
    "stationarity_poisson_sgd_with_c_b": ("stationarity", {"algorithm": "poisson_sgd", "c_b": 0.5}, "c_b"),
    "stationarity_short_chains_with_burn_in": ("stationarity", {"burn_in_fraction": 0.5}, "burn_in_fraction"),
    "stationarity_long_chain_with_checkpoints": (
        "stationarity",
        {"mode": "long-chain", "checkpoints": [8, 24]},
        "checkpoints",
    ),
    "stationarity_bins_not_dividing_the_grid": ("stationarity", {"bins": 100}, "bins"),
    "stationarity_bins_above_the_grid": ("stationarity", {"bins": 5000}, "bins"),
    "generalization_unknown_objective": ("generalization", {"objective": {"name": "no_such_objective"}}, "objective"),
    "generalization_objective_d_differs": ("generalization", {"objective": {**LINREG, "d": 3}}, "objective"),
    "generalization_objective_noise_differs": ("generalization", {"objective": {**LINREG, "noise": 0.1}}, "objective"),
    "generalization_objective_side_differs": ("generalization", {"objective": {**LINREG, "side": 5.0}}, "objective"),
    "baseline_objective_without_name": ("baseline", {"objective": {"nam": "double_well_1d"}}, "name"),
    "baseline_objective_unknown_keyword": ("baseline", {"objective": {"name": "double_well_2d", "sidee": 3}}, "sidee"),
    "baseline_unknown_objective": ("baseline", {"objective": {"name": "no_such_objective"}}, "no_such_objective"),
}


@pytest.mark.parametrize("case", sorted(MISREAD_PROTOCOLS))
def test_misread_protocols_are_refused(case, tmp_path, capsys):
    kind, override, named = MISREAD_PROTOCOLS[case]
    base = TINY_CONFIGS[kind].to_dict()
    override = dict(override)
    objective = override.pop("objective", base["objective"])
    spec = {**base, "objective": objective, "protocol": {**base["protocol"], **override}}
    with pytest.raises(ValueError, match=named):
        ExperimentConfig.from_dict(spec)

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(spec))
    out = tmp_path / "run"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_shipped_and_benchmark_configs_are_accepted():
    root = Path(__file__).resolve().parents[1]
    for path in sorted((root / "configs").glob("*.json")):
        ExperimentConfig.from_json(path)
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        ExperimentConfig.from_dict(workloads.make_config(name, seed=1))
    # a sampler run at full batch, an sgld baseline and an escape run with
    # beta 0 and an explicit noise are all well defined
    for kind, override in [
        ("stationarity", {"algorithm": "bps", "batch_size": 0}),
        ("stationarity", {"algorithm": "poisson_sgd", "batch_size": 7, "mode": "long-chain"}),
        ("baseline", {"algorithm": "sgld", "noise_scale": 5.0}),
        ("escape", {"beta": 0.0, "sgld_noise": 0.1}),
    ]:
        base = TINY_CONFIGS[kind].to_dict()
        ExperimentConfig.from_dict({**base, "protocol": {**base["protocol"], **override}})


@pytest.mark.parametrize("kind", sorted(EXPERIMENT_KINDS))
def test_kind_runs_and_reruns_byte_identically(kind, tmp_path):
    cfg = TINY_CONFIGS[kind]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    summary = run_experiment(cfg, dir_a)
    assert summary["kind"] == kind
    assert summary["config_hash"] == cfg.config_hash()

    manifest = json.loads((dir_a / "manifest.json").read_text())
    assert manifest["config_hash"] == cfg.config_hash()
    _assert_manifest_lists_directory(dir_a)
    assert "summary.json" in manifest["artifacts"]
    assert "plot.py" in manifest["artifacts"]

    # analysis recomputed from artifacts equals the summary computed in-run
    assert analyze_experiment(dir_a) == summary

    run_experiment(cfg, dir_b)
    assert _tree_digest(dir_a) == _tree_digest(dir_b)


def test_manifest_guards_against_config_mixups(tmp_path):
    cfg = TINY_CONFIGS["baseline"]
    run_experiment(cfg, tmp_path)
    other = ExperimentConfig.from_dict({**cfg.to_dict(), "seed": cfg.seed + 1})
    with pytest.raises(RuntimeError, match="refusing to overwrite"):
        run_experiment(other, tmp_path)
    # same config may be rerun in place
    run_experiment(cfg, tmp_path)


def test_stationarity_checkpoints_and_artifacts(tmp_path):
    cfg = TINY_CONFIGS["stationarity"]
    summary = run_experiment(cfg, tmp_path)
    assert _geometric_checkpoints(24) == [8, 24]
    params = json.loads((tmp_path / "params.json").read_text())
    assert params["checkpoints"] == [8, 24]
    ks = [row["k"] for row in summary["table"]]
    assert ks == [8, 24]
    for row in summary["table"]:
        for key in ("tv", "sliced_w1", "ks_max"):
            assert 0.0 <= row[key] <= 1.0 or key == "sliced_w1"
    assert (tmp_path / "oracle_sample.npy").exists()
    assert (tmp_path / "reference_grid.csv").exists()


def test_stationarity_long_chain_mode_carries_caveat(tmp_path):
    cfg = ExperimentConfig(
        kind="stationarity",
        objective=DW1,
        trials=1,
        seed=107,
        protocol={
            "beta": 0.004,
            "epsilon": 0.5,
            "n_steps": 400,
            "mode": "long-chain",
            "oracle_samples": 4000,
        },
    )
    summary = run_experiment(cfg, tmp_path)
    assert summary["mode"] == "long-chain"
    assert "ONE chain" in summary["long_chain_caveat"]
    assert (tmp_path / "chain.ndjson").exists()
    _assert_manifest_lists_directory(tmp_path)
    clouds = list(tmp_path.glob("cloud_*.npy"))
    assert len(clouds) == 1
    # burn-in trimmed: 400 states recorded, 20% dropped
    assert np.load(clouds[0]).shape[0] == 320


def test_escape_summary_shape(tmp_path):
    cfg = TINY_CONFIGS["escape"]
    summary = run_experiment(cfg, tmp_path)
    algos = {row["algorithm"] for row in summary["table"]}
    assert algos == {"poisson_sgd", "sgd", "sgld"}
    for row in summary["table"]:
        assert 0.0 <= row["fraction_global"] <= 1.0
    assert (tmp_path / "trajectory_0.csv").exists()
    assert (tmp_path / "trajectory_0.ndjson").exists()


def test_escape_trajectories_are_scored_chains(tmp_path):
    cfg = TINY_CONFIGS["escape"]
    run_experiment(cfg, tmp_path)
    endpoints = np.load(tmp_path / "endpoints_poisson_sgd.npy")
    for i in range(cfg.protocol["n_trajectories"]):
        lines = (tmp_path / f"trajectory_{i}.ndjson").read_text().splitlines()
        last = json.loads(lines[-1])
        assert last["k"] == cfg.protocol["n_steps"]
        assert np.array_equal(last["theta"], endpoints[i])


def test_holdout_dataset_is_a_split_of_one_draw():
    train, X_test, y_test = make_linreg_with_holdout(12, 5, d=3, noise=0.25, seed=9)
    assert train.features.shape == (12, 3)
    assert X_test.shape == (5, 3)
    assert y_test.shape == (5,)
    # drawing train and test together must reproduce the plain dataset
    full = linreg_synthetic(17, d=3, noise=0.25, seed=9)
    assert np.array_equal(np.vstack([train.features, X_test]), full.features)
    assert np.array_equal(np.concatenate([train.targets, y_test]), full.targets)
    # and the split is deterministic
    train2, X2, y2 = make_linreg_with_holdout(12, 5, d=3, noise=0.25, seed=9)
    assert np.array_equal(train.features, train2.features)
    assert np.array_equal(X_test, X2)
    assert np.array_equal(y_test, y2)


def test_generalization_stacks_each_trials_holdout_split():
    params = {**TINY_CONFIGS["generalization"].params(), "d": 3}
    trials, seed, n = 3, 105, 8
    stacked, gram, cross, sq = _generalization_datasets(params, seed, n, trials)
    theta = np.array([1.0, 2.5, 4.0])
    for t in range(trials):
        train, X_test, y_test = make_linreg_with_holdout(n, params["n_test"], 3, 0.5, seed * 1000003 + t)
        assert np.array_equal(stacked.features[t], train.features)
        assert np.array_equal(stacked.targets[t], train.targets)
        assert stacked.grad_norm_bound[t] == train.grad_norm_bound
        # the held-out statistics give the held-out block's risk
        direct = np.sum((X_test @ theta - y_test) ** 2)
        assert np.isclose(theta @ gram[t] @ theta - 2.0 * theta @ cross[t] + sq[t], direct, rtol=1e-10)


def test_cli_run_analyze_roundtrip(tmp_path, capsys):
    spec = TINY_CONFIGS["baseline"].to_dict()
    spec["out_dir"] = str(tmp_path / "run")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(spec))

    assert main(["run", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "running baseline experiment" in out
    assert (tmp_path / "run" / "summary.json").exists()

    assert main(["analyze", str(tmp_path / "run")]) == 0
    assert "kind: baseline" in capsys.readouterr().out

    # --out beats the config's out_dir; --seed rewrites the seed
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "alt"), "--seed", "7"]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "alt" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 7


def test_cli_error_paths(tmp_path, capsys):
    spec = TINY_CONFIGS["baseline"].to_dict()  # no out_dir
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(spec))
    assert main(["run", str(cfg_path)]) == 2
    assert "no output directory" in capsys.readouterr().err


def test_cli_list_objectives_and_verify(capsys):
    assert main(["list-objectives"]) == 0
    out = capsys.readouterr().out
    for name in BUILTIN_OBJECTIVES:
        assert name in out

    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all 6 checks passed" in out
    assert out.count("PASS") == 6
