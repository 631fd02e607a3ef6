"""Tests of the benchmark itself: config generator, output checks, counters.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from checks import check_outputs  # noqa: E402
from poisson_sgd.experiments import ExperimentConfig, run_experiment  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

# small enough for a test, large enough that every counter is exercised
SMALL = {
    "stationarity-bps-1d": {"trials": 500, "n_steps": 64, "checkpoints": [8, 64], "oracle_samples": 5000},
    "escape-2d": {"trials": 10, "n_steps": 200},
    "beta-sweep-2d": {"trials": 10, "n_steps": 100},
    "generalization-linreg": {"trials": 2, "n_steps": 100, "n_list": [32, 128]},
}


def test_generator_accepts_every_workload_and_rejects_unknown_keys():
    for name in WORKLOADS:
        assert make_config(name, 3)["seed"] == 3
    with pytest.raises(ValueError, match="epsilonn"):
        make_config("beta-sweep-2d", 1, {"epsilonn": 9})
    with pytest.raises(ValueError, match="unknown workload"):
        make_config("escape-3d", 1)


def _run(name: str, tmp_path: Path, overrides: dict | None = None) -> tuple[dict, Path]:
    cfg = make_config(name, 5, overrides)
    out = tmp_path / name
    run_experiment(ExperimentConfig.from_dict(cfg), out)
    return cfg, out


def _corrupt_and_check(cfg: dict, out: Path, path: str, corrupt) -> list[str]:
    assert check_outputs(cfg, out, 5) == []
    target = out / path
    if target.suffix == ".npy":
        np.save(target, corrupt(np.load(target)))
    else:
        target.write_text(corrupt(target.read_text()))
    return check_outputs(cfg, out, 5)


def test_shifted_stationary_cloud_fails(tmp_path):
    cfg, out = _run(
        "stationarity-bps-1d", tmp_path, {"trials": 2000, "n_steps": 64, "checkpoints": [8, 64]}
    )
    problems = _corrupt_and_check(cfg, out, "cloud_00000064.npy", lambda c: (c + 4.0) % 16.0)
    assert any("sampling floor" in p for p in problems)


def test_escape_sgd_endpoints_moved_to_global_basin_fail(tmp_path):
    cfg, out = _run("escape-2d", tmp_path)
    problems = _corrupt_and_check(cfg, out, "endpoints_sgd.npy", lambda c: c + [9.0, 0.0])
    assert any("plain SGD reached" in p for p in problems)


def test_shrunk_uniform_cloud_fails(tmp_path):
    cfg, out = _run("beta-sweep-2d", tmp_path)
    problems = _corrupt_and_check(cfg, out, "endpoints_beta_0.npy", lambda c: 0.5 * c)
    assert any("KS" in p for p in problems)


def test_test_risks_below_noise_floor_fail(tmp_path):
    cfg, out = _run("generalization-linreg", tmp_path)

    def zero_test_risk(text: str) -> str:
        lines = text.splitlines()
        rows = [",".join(line.split(",")[:3] + ["0.01"]) for line in lines[1:]]
        return "\n".join(lines[:1] + rows) + "\n"

    problems = _corrupt_and_check(cfg, out, "risks.csv", zero_test_risk)
    assert any("below sigma^2/2" in p for p in problems)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_grad_evals_add_up(name, tmp_path):
    """Every gradient point is a thinning proposal, a reflection (one per
    chain-step), a density point of a stationary grid or of the rejection
    oracle, or a step of the escape baselines (SGD and SGLD)."""
    cfg = make_config(name, 2, SMALL[name])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    result = run.run_round(config, tmp_path / "traced", "traced", time.monotonic() + 120)
    assert result is not None
    counts = result["trace"]["counts"]
    layers = layer_metrics(result["trace"])
    baseline = 2 * cfg["trials"] * cfg["protocol"]["n_steps"] if cfg["kind"] == "escape" else 0
    if cfg["kind"] == "stationarity":
        # one 1-d grid in the run and one in the analysis, each normalized
        # at 4096 points and checked at 8192
        assert layers["stationary.grid_points"] == 2 * (4096 + 8192)
        assert layers["stationary.oracle_points"] > 0
    expected = (
        layers["sampler.proposals"]
        + layers["optimizer.chain_steps"]
        + layers["bps.chain_steps"]
        + layers["stationary.grid_points"]
        + layers["stationary.oracle_points"]
        + baseline
    )
    assert counts["objectives.grad_points"] == expected
    assert layers["optimizer.chain_steps"] + layers["bps.chain_steps"] == result["chain_steps"]
