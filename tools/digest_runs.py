"""Digests of every tiny experiment's artifacts and of direct runner results.

Prints one ``name sha256`` line per artifact of each ``TINY_CONFIGS`` run
(``tests/test_harness.py``; manifests and config hashes included), of three
runs that reach branches those configs do not (``EXTRA_CONFIGS``: a
long-chain stationarity run, a Poisson SGD stationarity run started from
the oracle, and a full-batch generalization run, whose per-chain datasets
thin against local bounds), and per direct
call of the chain runners: both ensembles with snapshots and records,
beta = 0 ensembles of both kinds, a mini-batch ensemble, a sampler whose
ceiling is 209 floors high, a beta = 0.1 optimizer ensemble (its anchored
lower bounds accept proposals unevaluated), two optimizer ensembles and a
coupled sampler (ceiling 1.86 floors high) whose anchored rows reach their
seams (the optimizers on a full batch and on per-chain mini-batches),
five single-chain records (one of them a
per-chain mini-batch least-squares run) and ``coupled_compare``, and of
the closed form on ``double_well_2d`` and on ``linreg_synthetic(64, 2, 0.5,
0)``: its ``grid()`` masses and ``z``, ``sample()`` draws and
``grid_mean_risk``. A change
that must keep every draw and every byte prints the same lines as its
parent, so one ``diff`` compares them:

    PYTHONPATH=../parent/src python3 tools/digest_runs.py > parent.txt
    PYTHONPATH=src python3 tools/digest_runs.py > change.txt
    diff parent.txt change.txt

``PYTHONPATH`` chooses the package checkout under test; the configs always
come from this checkout's tests. It is not part of Tier-1 and takes
a few seconds.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from poisson_sgd.bps import BpsConfig, coupled_compare, run_bps, run_bps_ensemble  # noqa: E402
from poisson_sgd.experiments import ExperimentConfig, run_experiment  # noqa: E402
from poisson_sgd.objectives import (  # noqa: E402
    double_well_1d,
    double_well_2d,
    linreg_synthetic,
    quadratic_bowl,
)
from poisson_sgd.optimizer import (  # noqa: E402
    PoissonSgdConfig,
    run_poisson_sgd,
    run_poisson_sgd_ensemble,
)
from poisson_sgd.records import canonical_json  # noqa: E402
from poisson_sgd.sampler import RngStream  # noqa: E402
from poisson_sgd.stationary import StationaryDensity, grid_mean_risk  # noqa: E402
from test_harness import TINY_CONFIGS  # noqa: E402


def _record_bytes(rec) -> bytes:
    lines = [canonical_json(rec.header())] + [canonical_json(row) for row in rec.rows]
    return ("\n".join(lines) + f"\nmax_norm_deviation={rec.max_norm_deviation!r}\n").encode()


def _ensemble_digest(res) -> str:
    h = hashlib.sha256()
    for arr in (res.thetas, res.velocities):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    for k in sorted(res.snapshots):
        h.update(f"snapshot {k}".encode())
        h.update(np.ascontiguousarray(res.snapshots[k], dtype=float).tobytes())
    h.update(f"{res.n_steps!r} {res.max_norm_deviation!r} {res.mean_eta!r}".encode())
    h.update(canonical_json(res.extras).encode())
    for rec in res.records:
        h.update(_record_bytes(rec))
    return h.hexdigest()


def _with_protocol(kind: str, **protocol) -> ExperimentConfig:
    base = TINY_CONFIGS[kind].to_dict()
    return ExperimentConfig.from_dict({**base, "protocol": {**base["protocol"], **protocol}})


EXTRA_CONFIGS = {
    "stationarity_long_chain": _with_protocol("stationarity", mode="long-chain", n_steps=200),
    "stationarity_poisson_sgd_oracle": _with_protocol("stationarity", algorithm="poisson_sgd", init="oracle"),
    "generalization_full_batch": _with_protocol("generalization", batch_size=0),
}


def artifact_lines() -> list[str]:
    runs = {**TINY_CONFIGS, **EXTRA_CONFIGS}
    lines = []
    with tempfile.TemporaryDirectory() as scratch:
        for name, cfg in sorted(runs.items()):
            out = Path(scratch) / name
            run_experiment(cfg, out)
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"artifact {name}/{path.relative_to(out).as_posix()} {digest}")
    return lines


def runner_lines() -> list[str]:
    dw1, dw2 = double_well_1d(), double_well_2d()
    bowl = quadratic_bowl(np.arange(20, dtype=float).reshape(10, 2), side_lengths=25.0)
    snaps = dict(snapshot_steps=(0, 20, 40))
    opt = PoissonSgdConfig(beta=0.01, epsilon=0.1, n_steps=40, seed=4, record_stride=7)
    coupled = BpsConfig.coupled(
        beta=0.004, epsilon=0.5, grad_norm_bound=dw1.grad_norm_bound, n_steps=40, seed=5, record_stride=6
    )
    results = {
        "poisson_sgd_ensemble": run_poisson_sgd_ensemble(
            dw2, opt, 64, rng=RngStream(4), record_chains=[3, 0], **snaps
        ),
        "bps_ensemble": run_bps_ensemble(dw1, coupled, 64, rng=RngStream(5), record_chains=[1], **snaps),
        "poisson_sgd_ensemble_beta0": run_poisson_sgd_ensemble(
            dw2, PoissonSgdConfig(beta=0.0, epsilon=0.5, n_steps=30, seed=6), 32
        ),
        "bps_ensemble_beta0": run_bps_ensemble(
            bowl, BpsConfig(beta=0.0, lambda_ref=3.0, c_b=1.0, n_steps=30, seed=7), 32
        ),
        "poisson_sgd_ensemble_minibatch": run_poisson_sgd_ensemble(
            bowl,
            PoissonSgdConfig(beta=0.05, epsilon=0.5, n_steps=30, batch_size=4, seed=8),
            16,
            record_chains=[2],
        ),
        "bps_ensemble_lambda_ref_0.5": run_bps_ensemble(
            dw1, BpsConfig(beta=0.05, lambda_ref=0.5, c_b=0.0, epsilon=0.5, n_steps=30, seed=9), 64
        ),
        # anchored rates far above the floor: lower bounds accept unevaluated
        "poisson_sgd_ensemble_beta_0.1": run_poisson_sgd_ensemble(
            dw2, PoissonSgdConfig(beta=0.1, epsilon=0.05, n_steps=40, seed=16), 64
        ),
        # chains start within 0.1 of a face, heading out: anchored rows
        # reach their seams
        "poisson_sgd_ensemble_at_seams": run_poisson_sgd_ensemble(
            dw1,
            PoissonSgdConfig(beta=0.01, epsilon=0.5, n_steps=40, seed=17),
            64,
            initial_points=np.r_[np.linspace(0.01, 0.1, 32), np.linspace(15.9, 15.99, 32)][:, None],
            initial_velocities=np.repeat([-1.0, 1.0], 32)[:, None],
        ),
        # per-chain batches anchored each step on a box of side 3, with a
        # ceiling 3 floors high: about a fifth of the rows arrive past their seams
        "poisson_sgd_ensemble_minibatch_at_seams": run_poisson_sgd_ensemble(
            quadratic_bowl(
                [[0.5, 1.0], [2.5, 0.5], [1.5, 2.5], [0.2, 2.8], [2.9, 2.0], [1.0, 1.5]], side_lengths=3.0
            ),
            PoissonSgdConfig(beta=0.5, epsilon=1.0, n_steps=30, batch_size=2, seed=19),
            32,
            record_chains=[5],
        ),
        # the coupled sampler from the same faces: about 30 anchored rows
        # arrive past their seams
        "bps_ensemble_coupled_at_seams": run_bps_ensemble(
            dw1,
            BpsConfig.coupled(
                beta=0.003, epsilon=1.0, grad_norm_bound=dw1.grad_norm_bound, n_steps=40, seed=20, record_stride=5
            ),
            64,
            initial_points=np.r_[np.linspace(0.01, 0.1, 32), np.linspace(15.9, 15.99, 32)][:, None],
            initial_velocities=np.repeat([-1.0, 1.0], 32)[:, None],
            record_chains=[3],
        ),
    }
    lines = [f"runner {name} {_ensemble_digest(res)}" for name, res in results.items()]

    records = {
        "poisson_sgd": run_poisson_sgd(dw2, PoissonSgdConfig(beta=0.003, epsilon=0.2, n_steps=60, seed=11)),
        "poisson_sgd_minibatch_from_start": run_poisson_sgd(
            bowl,
            PoissonSgdConfig(
                beta=0.05,
                epsilon=0.5,
                n_steps=30,
                batch_size=3,
                seed=12,
                initial_point=(4.0, 8.5),
                initial_velocity=(0.6, -0.8),
            ),
        ),
        "poisson_sgd_linreg_minibatch": run_poisson_sgd(
            linreg_synthetic(32, 2, 0.5, 0),
            PoissonSgdConfig(beta=50.0, epsilon=0.005, n_steps=60, batch_size=8, seed=18),
        ),
        "bps": run_bps(dw2, BpsConfig(beta=0.002, lambda_ref=1.0, c_b=0.5, n_steps=60, seed=13, record_stride=9)),
        "bps_zero_steps": run_bps(dw1, BpsConfig(beta=0.01, lambda_ref=1.0, c_b=0.0, n_steps=0, seed=14)),
    }
    lines += [
        f"record {name} {hashlib.sha256(_record_bytes(rec)).hexdigest()}" for name, rec in records.items()
    ]

    cmp = coupled_compare(dw1, beta=0.05, epsilon=0.5, n_steps=40, trials=48, seed=15)
    h = hashlib.sha256(f"{cmp.sliced_w1!r}".encode())
    for arr in (cmp.optimizer_thetas, cmp.sampler_thetas):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    lines.append(f"runner coupled_compare {h.hexdigest()}")
    return lines


def density_lines() -> list[str]:
    cases = {
        "double_well_2d": (double_well_2d(), 0.003, 0.5),
        "linreg_synthetic_64": (linreg_synthetic(64, 2, 0.5, 0), 1.0, 0.05),
    }
    lines = []
    for name, (objective, beta, epsilon) in cases.items():
        density = StationaryDensity(objective, beta, epsilon)
        grid = density.grid()
        h = hashlib.sha256(f"{grid.z!r}".encode())
        h.update(grid.masses.tobytes())
        draws = density.sample(5000, RngStream(21))
        risk = grid_mean_risk(objective)
        lines += [
            f"density {name} grid {h.hexdigest()}",
            f"density {name} sample {hashlib.sha256(draws.tobytes()).hexdigest()}",
            f"density {name} grid_mean_risk {hashlib.sha256(repr(risk).encode()).hexdigest()}",
        ]
    return lines


def main() -> int:
    for line in artifact_lines() + runner_lines() + density_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
