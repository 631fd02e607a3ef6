"""Workload definitions and the config generator.

Each workload is a reduced form of one shipped experiment config: the same
experiment kind, objective and law, with fewer chains or steps so that one
round fits in a few seconds. ``make_config(name, seed)`` turns a workload
seed into the JSON config that ``poisson-sgd run`` reads; the seed is the
only input that varies between runs of one workload.
"""

from __future__ import annotations

import inspect

WORKLOADS = {
    "stationarity-bps-1d": {
        "why": "thousands of lock-step BPS chains scored against the closed-form density; "
        "the only workload that runs bps, stationary and metrics",
        "kind": "stationarity",
        "objective": {"name": "double_well_1d"},
        "trials": 5000,
        "protocol": {
            "algorithm": "bps",
            "beta": 0.003,
            "epsilon": 1.0,
            "n_steps": 512,
            "checkpoints": [8, 64, 512],
            "bins": 64,
            "init": "oracle",
            "oracle_samples": 100000,
        },
    },
    "escape-2d": {
        "why": "100 Poisson SGD chains, SGD and SGLD baselines and four recorded single-chain "
        "trajectories: per-step overhead, the single-chain path and records",
        "kind": "escape",
        "objective": {"name": "double_well_2d"},
        "trials": 100,
        "protocol": {
            "beta": 0.01,
            "epsilon": 0.05,
            "n_steps": 4000,
            "sgd_rate": 0.002,
            "init_jitter": 0.1,
            "n_trajectories": 4,
        },
    },
    "beta-sweep-2d": {
        "why": "four beta arms: thinning-dominated at beta=0.1, and a beta=0 arm that draws "
        "no proposals, so both sides of an event-draw change show",
        "kind": "beta_sweep",
        "objective": {"name": "double_well_2d"},
        "trials": 50,
        "protocol": {"betas": [0.0, 0.001, 0.01, 0.1], "epsilon": 0.05, "n_steps": 500},
    },
    "generalization-linreg": {
        "why": "minibatched N=1 Poisson SGD on synthetic least squares, one chain per trial "
        "and sample size: the dataset and minibatch path, dominated by per-call overhead",
        "kind": "generalization",
        "objective": {"name": "linreg_synthetic", "n": 32, "d": 2, "noise": 0.5, "seed": 0},
        "trials": 30,
        "protocol": {
            "n_list": [32, 128, 512],
            "d": 2,
            "noise": 0.5,
            "n_test": 2048,
            "beta": 50.0,
            "epsilon": 0.005,
            "n_steps": 75,
            "batch_size": 8,
        },
    },
}


def protocol_keys(kind: str) -> set[str]:
    """The protocol keys experiment ``kind`` reads: the keys of its defaults."""
    from poisson_sgd import experiments

    defaults = getattr(experiments, f"_{kind}_defaults")
    if inspect.signature(defaults).parameters:
        # the escape defaults take the objective but do not depend on it
        return set(defaults(None))
    return set(defaults())


def make_config(name: str, seed: int, overrides: dict | None = None) -> dict:
    """The experiment config of workload ``name`` for workload seed ``seed``.

    ``overrides`` may replace ``trials`` or any protocol key (tests use it to
    shrink a workload). A protocol key the experiment kind does not read is
    refused, so that a typo cannot silently change what a workload measures.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    spec = WORKLOADS[name]
    protocol = dict(spec["protocol"])
    trials = spec["trials"]
    for key, value in (overrides or {}).items():
        if key == "trials":
            trials = int(value)
        else:
            protocol[key] = value
    unknown = sorted(set(protocol) - protocol_keys(spec["kind"]))
    if unknown:
        raise ValueError(f"{name}: protocol keys {unknown} are not read by kind {spec['kind']!r}")
    return {
        "kind": spec["kind"],
        "objective": dict(spec["objective"]),
        "trials": trials,
        "seed": int(seed),
        "protocol": protocol,
    }
