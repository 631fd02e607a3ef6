"""Config-driven experiments with persisted, replayable artifacts.

Six experiment kinds map to the questions the algorithms are built to
answer: ``escape`` (does the random learning rate leave a local basin plain
SGD is stuck in), ``stationarity`` (does the step-K law match the closed-form
density), ``beta_sweep`` (does final risk drop as beta grows),
``coupling`` (how far apart are the optimizer's and the sampler's step-K
laws), ``generalization`` (does the train/test gap shrink with dataset
size), and ``baseline`` (the reference optimizers alone). A config names
no top-level key but its six fields; its ``protocol`` overrides the kind's
defaults and may name no other key; a value the kind's runner would
misread is refused when the config is built.

A config builds its objective once, when it is made, so a spec that names
no objective it can build is refused like a misread protocol.
``run_experiment`` owns the run directory. It resolves the protocol
(``params``) and takes the config's objective, then calls the kind's runner as
``runner(cfg, params, objective, out)``. The runner writes raw artifacts
(endpoint arrays, records, reference grids) only through ``out``:
``out.save(name, array)`` writes an ``.npy`` file and ``out.file(name)``
returns the path for a CSV or NDJSON writer; both list the name. A runner
may resolve a defaulted value in ``params`` in place. When it returns,
``run_experiment`` writes ``params.json`` and the manifest, whose artifact
list is the names ``out`` recorded plus its own files. The analyzer,
called as ``analyzer(cfg, params, objective, out_dir)``, derives every
summary table from those artifacts, so ``analyze`` can rebuild them from
disk without rerunning anything. A manifest guards the directory:
rerunning the same config is allowed and reproduces identical bytes; a
different config hash refuses to touch the directory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bps import BpsConfig, coupled_compare, run_bps, run_bps_ensemble
from .metrics import histogram_tv, ks_statistic, sliced_wasserstein1
from .domain import TorusDomain
from .objectives import LinearRegressionObjective, Objective, _linreg_draw, build_objective
from .optimizer import PoissonSgdConfig, _sample_batches, run_poisson_sgd, run_poisson_sgd_ensemble
from .records import canonical_json
from .sampler import RngStream, uniform_sphere
from .stationary import DEFAULT_RESOLUTIONS, StationaryDensity, grid_mean_risk

__all__ = [
    "ExperimentConfig",
    "run_experiment",
    "analyze_experiment",
    "EXPERIMENT_KINDS",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Self-describing experiment spec; the JSON form is the source of truth.

    ``built_objective`` is the objective that ``objective`` names, built
    once when the config is made; it is not part of the spec.
    """

    kind: str
    objective: dict
    trials: int
    seed: int
    protocol: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown experiment kind {self.kind!r}; known: {sorted(EXPERIMENT_KINDS)}"
            )
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.trials < 2 and self.kind in _SPREAD_KINDS:
            raise ValueError(
                f"{self.kind} needs trials >= 2: its summary reports the spread over trials"
            )
        known = EXPERIMENT_KINDS[self.kind][2]()
        unknown = sorted(set(self.protocol) - set(known))
        if unknown:
            raise ValueError(
                f"unknown {self.kind} protocol keys {unknown}; known: {sorted(known)}"
            )
        objective = build_objective(self.objective)
        _refuse_misread(self.kind, self.params(), self.objective, objective)
        object.__setattr__(self, "built_objective", objective)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "objective": self.objective,
            "trials": self.trials,
            "seed": self.seed,
            "protocol": self.protocol,
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "ExperimentConfig":
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(spec) - set(known))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; known: {known}")
        missing = [key for key in ("kind", "objective", "trials", "seed") if key not in spec]
        if missing:
            raise ValueError(f"missing config keys {missing}")
        return cls(
            kind=spec["kind"],
            objective=dict(spec["objective"]),
            trials=int(spec["trials"]),
            seed=int(spec["seed"]),
            protocol=dict(spec.get("protocol", {})),
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """Parse a config file; its ``out_dir`` is the command line's and is dropped."""
        spec = json.loads(Path(path).read_text())
        spec.pop("out_dir", None)
        return cls.from_dict(spec)

    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()[:16]

    def stream(self, *key: int) -> RngStream:
        return RngStream(self.seed, spawn_key=tuple(int(k) for k in key))

    def params(self) -> dict:
        """The kind's default protocol overridden by this config's."""
        return {**EXPERIMENT_KINDS[self.kind][2](), **self.protocol}


def _refuse_misread(kind: str, params: dict, spec: dict, objective: Objective) -> None:
    """Refuse protocol values that a kind's runner would silently misread or
    ignore; ``objective`` is the one ``spec`` names."""

    def require(key: str, allowed: tuple) -> None:
        if params[key] not in allowed:
            raise ValueError(f"unknown {kind} {key} {params[key]!r}; known: {list(allowed)}")

    if kind == "stationarity":
        require("algorithm", ("bps", "poisson_sgd"))
        require("mode", ("many-short-chains", "long-chain"))
        require("init", ("uniform", "oracle"))
        if params["mode"] == "long-chain" and params["init"] != "uniform":
            raise ValueError("stationarity long-chain mode starts its chain uniformly: init must be 'uniform'")
        if params["mode"] == "long-chain" and params["checkpoints"] is not None:
            raise ValueError("stationarity long-chain mode writes one cloud at n_steps: set no checkpoints")
        if params["mode"] == "many-short-chains" and float(params["burn_in_fraction"]) != 0.2:
            raise ValueError("only long-chain mode burns in: burn_in_fraction must keep its default 0.2")
        if params["algorithm"] == "bps" and int(params["batch_size"]) != 0:
            raise ValueError("the bps sampler runs full batch: batch_size must be 0")
        if params["algorithm"] == "poisson_sgd" and float(params["c_b"]) != 0.0:
            raise ValueError("c_b is a bps refresh constant: with algorithm poisson_sgd it must be 0")
        # the reference histogram merges whole cells of the normalization grid
        cells = DEFAULT_RESOLUTIONS.get(objective.domain.dim)
        bins = int(params["bins"])
        if cells is not None and not (1 <= bins <= cells and cells % bins == 0):
            raise ValueError(
                f"stationarity bins {bins} must divide the reference grid's {cells} cells per dimension"
            )
    elif kind == "generalization":
        # the runner draws its own datasets from the protocol; the objective
        # must name the same data so that the config says what ran
        drawn = {
            "name": "linreg_synthetic",
            "d": int(params["d"]),
            "noise": float(params["noise"]),
            "side": float(params["side"]),
        }
        named = {"side": 6.0, **spec}  # linreg_synthetic's default side
        if any(named.get(key) != value for key, value in drawn.items()):
            raise ValueError(
                f"generalization objective must be linreg_synthetic with the protocol's "
                f"d, noise and side {drawn}, got {spec}"
            )
    elif kind == "baseline":
        require("algorithm", ("sgd", "sgld"))
        if params["algorithm"] == "sgd" and float(params["noise_scale"]) != 0.0:
            raise ValueError("baseline sgd adds no noise: noise_scale must be 0 (or use sgld)")
    elif kind == "escape" and params["sgld_noise"] is None and float(params["beta"]) == 0.0:
        raise ValueError("escape with beta 0 needs sgld_noise: its default sqrt(2 rate / beta) is undefined")


# ----------------------------------------------------------------------
# manifest and artifact plumbing
# ----------------------------------------------------------------------


def _write_manifest(out_dir: Path, cfg: ExperimentConfig, seeds: list[int], artifacts: list[str]) -> None:
    manifest = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "seed_list": seeds,
        "version": __version__,
        "artifacts": sorted(artifacts),
    }
    (out_dir / "manifest.json").write_text(canonical_json(manifest) + "\n")


def _check_manifest(out_dir: Path, cfg: ExperimentConfig) -> None:
    path = out_dir / "manifest.json"
    if not path.exists():
        return
    existing = json.loads(path.read_text())
    if existing.get("config_hash") != cfg.config_hash():
        raise RuntimeError(
            f"{out_dir} already holds experiment {existing.get('config_hash')}; "
            f"refusing to overwrite with {cfg.config_hash()} (use a fresh directory)"
        )


def _load_manifest(out_dir: Path) -> dict:
    path = Path(out_dir) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"no manifest.json under {out_dir}")
    return json.loads(path.read_text())


class _RunDir:
    """A run directory that lists every artifact a runner writes into it."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.names: list[str] = []

    def file(self, name: str) -> Path:
        self.names.append(name)
        return self.path / name

    def save(self, name: str, arr: np.ndarray) -> None:
        np.save(self.file(name), np.ascontiguousarray(np.asarray(arr, dtype=float)))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


_PLOT_STUB = """\
#!/usr/bin/env python3
\"\"\"Render the figures for this run directory (requires matplotlib).\"\"\"
import json, sys
from pathlib import Path

import numpy as np

here = Path(__file__).parent
summary = json.loads((here / "summary.json").read_text())
try:
    import matplotlib.pyplot as plt
except ImportError:
    sys.exit("matplotlib not installed; tables in summary.json / *.csv")

kind = summary["kind"]
if kind == "escape":
    for csv in sorted(here.glob("trajectory_*.csv")):
        data = np.genfromtxt(csv, delimiter=",", names=True)
        plt.plot(data["theta_0"], data["theta_1"], lw=0.7, label=csv.stem)
    plt.legend(fontsize=6); plt.title("trajectories")
elif kind in ("stationarity", "beta_sweep", "coupling", "generalization"):
    table = np.genfromtxt(here / "summary.csv", delimiter=",", names=True)
    names = table.dtype.names
    plt.plot(table[names[0]], table[names[1]], "o-")
    plt.xlabel(names[0]); plt.ylabel(names[1]); plt.title(kind)
plt.savefig(here / "figure.png", dpi=150)
print("wrote", here / "figure.png")
"""


# ----------------------------------------------------------------------
# baseline optimizers (references only; no event-rate machinery)
# ----------------------------------------------------------------------


def _run_sgd_ensemble(
    objective: Objective,
    rate: float,
    n_steps: int,
    initial_points: np.ndarray,
    rng: RngStream,
    noise_scale: float = 0.0,
    batch_size: int = 0,
) -> np.ndarray:
    """Plain SGD (optionally with Gaussian noise: the Langevin baseline).

    ``noise_scale`` is the per-step standard deviation added to every
    coordinate after the gradient step; 0 recovers deterministic SGD.
    """
    domain = objective.domain
    thetas = domain.wrap(np.array(initial_points, dtype=float))
    gen = rng.generator
    n = objective.n_samples
    m = n if batch_size == 0 else batch_size
    for _ in range(n_steps):
        if m < n:
            grads = objective.grad_field(_sample_batches(gen, len(thetas), n, m))(thetas)
        else:
            grads = objective.grad(thetas)
        thetas = thetas - rate * grads
        if noise_scale > 0.0:
            thetas = thetas + noise_scale * gen.standard_normal(thetas.shape)
        thetas = domain.wrap(thetas)
    return thetas


def _classify_endpoints(objective: Objective, thetas: np.ndarray) -> np.ndarray:
    """True where the endpoint is nearer the global minimum than any local one."""
    global_min = getattr(objective, "global_minimum", None)
    local_minima = getattr(objective, "local_minima", ())
    if global_min is None or not local_minima:
        raise ValueError(f"{objective.name} lacks labeled minima for basin classification")
    domain = objective.domain
    d_global = domain.distance(thetas, global_min)
    d_local = np.min(
        np.stack([domain.distance(thetas, p) for p in local_minima]),
        axis=0,
    )
    return d_global < d_local


# ----------------------------------------------------------------------
# escape
# ----------------------------------------------------------------------


def _escape_defaults() -> dict:
    return {
        "beta": 0.01,
        "epsilon": 0.05,
        "n_steps": 30000,
        "init_center": None,  # objective's first local minimum plus a nudge
        "init_jitter": 0.1,
        "sgd_rate": 0.002,
        "sgld_noise": None,  # default sqrt(2 * rate / beta)
        "n_trajectories": 4,
        "trajectory_stride": 50,
    }


def _escape_init(objective: Objective, params: dict, trials: int, rng: RngStream) -> np.ndarray:
    center = params["init_center"]
    if center is None:
        local_minima = getattr(objective, "local_minima", ())
        if not local_minima:
            raise ValueError("init_center required: objective has no labeled local minimum")
        center = np.asarray(local_minima[0], dtype=float).copy()
        center[0] -= 0.1
        center[1:] += 0.2
    center = np.asarray(center, dtype=float)
    jitter = float(params["init_jitter"])
    offsets = rng.generator.uniform(-jitter, jitter, size=(trials, center.size))
    return objective.domain.wrap(center + offsets)


def _run_escape(cfg: ExperimentConfig, params: dict, objective: Objective, out: _RunDir) -> None:
    trials = cfg.trials
    inits = _escape_init(objective, params, trials, cfg.stream(0))
    init_vels = uniform_sphere(objective.domain.dim, cfg.stream(1), trials)
    out.save("inits.npy", inits)

    # the first few scored chains are recorded as trajectories for the figure
    n_traj = min(int(params["n_trajectories"]), trials)
    opt_cfg = PoissonSgdConfig(
        beta=float(params["beta"]),
        epsilon=float(params["epsilon"]),
        n_steps=int(params["n_steps"]),
        seed=cfg.seed,
        record_stride=int(params["trajectory_stride"]),
        record_risk=False,
    )
    opt = run_poisson_sgd_ensemble(
        objective,
        opt_cfg,
        trials,
        rng=cfg.stream(2),
        initial_points=inits,
        initial_velocities=init_vels,
        record_chains=range(n_traj),
    )
    out.save("endpoints_poisson_sgd.npy", opt.thetas)
    for i, rec in enumerate(opt.records):
        rec.to_csv(out.file(f"trajectory_{i}.csv"))
        rec.to_ndjson(out.file(f"trajectory_{i}.ndjson"))

    rate = float(params["sgd_rate"])
    sgd = _run_sgd_ensemble(objective, rate, int(params["n_steps"]), inits, cfg.stream(3))
    out.save("endpoints_sgd.npy", sgd)

    noise = params["sgld_noise"]
    noise = float(np.sqrt(2.0 * rate / float(params["beta"]))) if noise is None else float(noise)
    sgld = _run_sgd_ensemble(
        objective, rate, int(params["n_steps"]), inits, cfg.stream(4), noise_scale=noise
    )
    out.save("endpoints_sgld.npy", sgld)


def _analyze_escape(cfg: ExperimentConfig, params: dict, objective: Objective, out_dir: Path) -> dict:
    rows = []
    for name in ("poisson_sgd", "sgd", "sgld"):
        thetas = np.load(out_dir / f"endpoints_{name}.npy")
        reached = _classify_endpoints(objective, thetas)
        risks = np.asarray(objective.empirical_risk(thetas), dtype=float)
        rows.append(
            {
                "algorithm": name,
                "fraction_global": float(reached.mean()),
                "mean_final_risk": float(risks.mean()),
            }
        )
    return {"table": rows}


# ----------------------------------------------------------------------
# stationarity
# ----------------------------------------------------------------------


def _stationarity_defaults() -> dict:
    return {
        "algorithm": "bps",
        "beta": 1.0,
        "epsilon": 1.0,
        "c_b": 0.0,
        "batch_size": 0,
        "n_steps": 3000,
        "checkpoints": None,  # default: powers of 2 toward n_steps
        "bins": 64,
        "mode": "many-short-chains",
        "burn_in_fraction": 0.2,
        "init": "uniform",  # or "oracle"
        "oracle_samples": 100000,
        "n_proj": 64,
    }


def _geometric_checkpoints(n_steps: int) -> list[int]:
    ks = []
    k = 8
    while k < n_steps:
        ks.append(k)
        k *= 8
    ks.append(n_steps)
    return ks


def _run_stationarity(cfg: ExperimentConfig, params: dict, objective: Objective, out: _RunDir) -> None:
    n_steps = int(params["n_steps"])
    checkpoints = sorted({int(k) for k in params["checkpoints"] or _geometric_checkpoints(n_steps)})
    params["checkpoints"] = checkpoints  # params.json lists the steps kept

    density = StationaryDensity(objective, float(params["beta"]), float(params["epsilon"]))
    grid = density.grid()
    grid.coarsen((len(grid.edges[0]) - 1) // int(params["bins"])).to_csv(out.file("reference_grid.csv"))

    oracle = density.sample(int(params["oracle_samples"]), cfg.stream(5))
    out.save("oracle_sample.npy", oracle)

    init_points = None
    if params["init"] == "oracle":
        init_points = density.sample(cfg.trials, cfg.stream(6))

    if params["algorithm"] == "bps":
        algo_cfg = BpsConfig.coupled(
            beta=float(params["beta"]),
            epsilon=float(params["epsilon"]),
            grad_norm_bound=objective.grad_norm_bound,
            c_b=float(params["c_b"]),
            n_steps=n_steps,
            seed=cfg.seed,
        )
        run_ensemble, run_single = run_bps_ensemble, run_bps
    else:
        algo_cfg = PoissonSgdConfig(
            beta=float(params["beta"]),
            epsilon=float(params["epsilon"]),
            n_steps=n_steps,
            batch_size=int(params["batch_size"]),
            seed=cfg.seed,
        )
        run_ensemble, run_single = run_poisson_sgd_ensemble, run_poisson_sgd

    if params["mode"] == "many-short-chains":
        result = run_ensemble(
            objective,
            algo_cfg,
            cfg.trials,
            rng=cfg.stream(7),
            initial_points=init_points,
            snapshot_steps=checkpoints,
        )
        for k, cloud in result.snapshots.items():
            out.save(f"cloud_{k:08d}.npy", cloud)
    else:
        # long-chain: one chain; thinned post-burn-in states stand in for the step-K law
        rec = run_single(objective, algo_cfg)
        rec.to_ndjson(out.file("chain.ndjson"))
        thetas = rec.column("theta")
        burn = int(len(thetas) * float(params["burn_in_fraction"]))
        out.save(f"cloud_{n_steps:08d}.npy", thetas[burn:])


def _analyze_stationarity(cfg: ExperimentConfig, params: dict, objective: Objective, out_dir: Path) -> dict:
    density = StationaryDensity(objective, float(params["beta"]), float(params["epsilon"]))
    grid = density.grid()
    reference = grid.coarsen((len(grid.edges[0]) - 1) // int(params["bins"]))
    oracle = np.load(out_dir / "oracle_sample.npy")

    rows = []
    for path in sorted(out_dir.glob("cloud_*.npy")):
        k = int(path.stem.split("_")[1])
        cloud = np.load(path)
        if objective.domain.dim == 1:
            tv = histogram_tv(cloud, reference)
        else:
            tv = max(
                histogram_tv(cloud[:, [i]], reference.marginal(i))
                for i in range(objective.domain.dim)
            )
        w1 = sliced_wasserstein1(
            cloud, oracle, n_proj=int(params["n_proj"]), rng=cfg.stream(8)
        )
        ks = [
            float(
                ks_statistic(
                    cloud[:, i],
                    density.grid().marginal(i).cdf_1d(),
                )
            )
            for i in range(objective.domain.dim)
        ]
        rows.append(
            {
                "k": k,
                "tv": float(tv),
                "sliced_w1": float(w1),
                "ks_max": max(ks),
            }
        )
    rows.sort(key=lambda r: r["k"])
    summary = {"table": rows, "mode": params["mode"]}
    if params["mode"] == "long-chain":
        summary["long_chain_caveat"] = (
            "distances computed from thinned states of ONE chain; they estimate "
            "the time-average law, not the step-K law the many-short-chains mode measures"
        )
    return summary


# ----------------------------------------------------------------------
# beta sweep
# ----------------------------------------------------------------------


def _beta_sweep_defaults() -> dict:
    return {
        "betas": [0.0, 0.001, 0.01, 0.1],
        "epsilon": 0.05,
        "n_steps": 20000,
        "batch_size": 0,
        "uniform_resolution": 512,
    }


def _run_beta_sweep(cfg: ExperimentConfig, params: dict, objective: Objective, out: _RunDir) -> None:
    for i, beta in enumerate(params["betas"]):
        run_cfg = PoissonSgdConfig(
            beta=float(beta),
            epsilon=float(params["epsilon"]),
            n_steps=int(params["n_steps"]),
            batch_size=int(params["batch_size"]),
            seed=cfg.seed,
        )
        result = run_poisson_sgd_ensemble(
            objective, run_cfg, cfg.trials, rng=cfg.stream(10, i)
        )
        out.save(f"endpoints_beta_{i}.npy", result.thetas)


def _analyze_beta_sweep(cfg: ExperimentConfig, params: dict, objective: Objective, out_dir: Path) -> dict:
    rows = []
    for i, beta in enumerate(params["betas"]):
        thetas = np.load(out_dir / f"endpoints_beta_{i}.npy")
        risks = np.asarray(objective.empirical_risk(thetas), dtype=float)
        rows.append(
            {
                "beta": float(beta),
                "mean_final_risk": float(risks.mean()),
                "std_final_risk": float(risks.std(ddof=1)),
                "se_final_risk": float(risks.std(ddof=1) / np.sqrt(risks.size)),
            }
        )
    uniform_mean = grid_mean_risk(objective, int(params["uniform_resolution"]))
    return {"table": rows, "uniform_law_mean_risk": float(uniform_mean)}


# ----------------------------------------------------------------------
# coupling
# ----------------------------------------------------------------------


def _coupling_defaults() -> dict:
    return {"beta": 1.0, "epsilons": [0.5, 0.25], "n_steps": 2000, "c_b": 0.0, "n_proj": 64}


def _run_coupling(cfg: ExperimentConfig, params: dict, objective: Objective, out: _RunDir) -> None:
    for i, eps in enumerate(params["epsilons"]):
        res = coupled_compare(
            objective,
            beta=float(params["beta"]),
            epsilon=float(eps),
            n_steps=int(params["n_steps"]),
            trials=cfg.trials,
            seed=cfg.seed + i,
            c_b=float(params["c_b"]),
            n_proj=int(params["n_proj"]),
        )
        out.save(f"optimizer_cloud_{i}.npy", res.optimizer_thetas)
        out.save(f"sampler_cloud_{i}.npy", res.sampler_thetas)


def _analyze_coupling(cfg: ExperimentConfig, params: dict, objective: Objective, out_dir: Path) -> dict:
    rows = []
    for i, eps in enumerate(params["epsilons"]):
        a = np.load(out_dir / f"optimizer_cloud_{i}.npy")
        b = np.load(out_dir / f"sampler_cloud_{i}.npy")
        w1 = sliced_wasserstein1(a, b, n_proj=int(params["n_proj"]), rng=cfg.stream(11, i))
        rows.append({"epsilon": float(eps), "sliced_w1": float(w1)})
    return {"table": rows}


# ----------------------------------------------------------------------
# generalization
# ----------------------------------------------------------------------


def _generalization_defaults() -> dict:
    return {
        "n_list": [32, 128, 512],
        "d": 2,
        "noise": 0.5,
        "side": 6.0,
        "n_test": 2048,
        "beta": 50.0,
        "epsilon": 0.005,
        "n_steps": 4000,
        "batch_size": 8,
    }


def make_linreg_with_holdout(
    n: int, n_test: int, d: int, noise: float, seed: int, side: float = 6.0
) -> tuple[LinearRegressionObjective, np.ndarray, np.ndarray]:
    """Train objective on n samples plus a held-out test block from the same
    generator (one draw of n + n_test rows, split deterministically)."""
    X, y = _linreg_draw(int(n) + int(n_test), d, noise, seed, side)
    train = LinearRegressionObjective(X[:n], y[:n], TorusDomain(int(d), side))
    return train, X[n:], y[n:]


def _generalization_datasets(params: dict, seed: int, n: int, trials: int):
    """Every trial's train set at size ``n``, stacked one per chain, and the
    sufficient statistics (X'X, X'y, y'y) of each trial's held-out block.
    Each trial's rows are those of ``make_linreg_with_holdout``, drawn
    without building a per-trial objective."""
    d, side = int(params["d"]), float(params["side"])
    features, targets, stats = [], [], []
    for trial in range(trials):
        X, y = _linreg_draw(n + int(params["n_test"]), d, float(params["noise"]), seed * 1000003 + trial, side)
        # copies, so that no trial's full draw stays alive
        features.append(X[:n].copy())
        targets.append(y[:n].copy())
        X_test, y_test = X[n:], y[n:]
        stats.append((X_test.T @ X_test, X_test.T @ y_test, y_test @ y_test))
    stacked = LinearRegressionObjective(np.stack(features), np.stack(targets), TorusDomain(d, side))
    gram, cross, sq = (np.stack(stat) for stat in zip(*stats))
    return stacked, gram, cross, sq


def _run_generalization(cfg: ExperimentConfig, params: dict, objective: Objective, out: _RunDir) -> None:
    # each size runs its trials as one ensemble: chain t fits trial t's data
    n_test = int(params["n_test"])
    rows = []
    for j, n in enumerate(int(n) for n in params["n_list"]):
        train, gram, cross, sq = _generalization_datasets(params, cfg.seed, n, cfg.trials)
        run_cfg = PoissonSgdConfig(
            beta=float(params["beta"]),
            epsilon=float(params["epsilon"]),
            n_steps=int(params["n_steps"]),
            batch_size=min(int(params["batch_size"]), n),
            seed=cfg.seed,
        )
        thetas = run_poisson_sgd_ensemble(train, run_cfg, cfg.trials, rng=cfg.stream(12, j)).thetas
        train_risks = train.empirical_risk(thetas)
        # mean of (x.theta - y)^2 / 2 over the held-out rows, from their statistics
        quad = np.einsum("td,tde,te->t", thetas, gram, thetas) - 2.0 * np.einsum("td,td->t", thetas, cross)
        test_risks = 0.5 * (quad + sq) / n_test
        rows += [[n, t, float(a), float(b)] for t, (a, b) in enumerate(zip(train_risks, test_risks))]
    _write_csv(out.file("risks.csv"), ["n", "trial", "train_risk", "test_risk"], rows)


def _analyze_generalization(cfg: ExperimentConfig, params: dict, objective: Objective, out_dir: Path) -> dict:
    data = np.genfromtxt(out_dir / "risks.csv", delimiter=",", names=True)
    rows = []
    for n in params["n_list"]:
        sel = data[data["n"] == n]
        gaps = sel["test_risk"] - sel["train_risk"]
        rows.append(
            {
                "n": int(n),
                "train_risk": float(sel["train_risk"].mean()),
                "test_risk": float(sel["test_risk"].mean()),
                "gap": float(gaps.mean()),
                "gap_se": float(gaps.std(ddof=1) / np.sqrt(gaps.size)),
            }
        )
    return {"table": rows}


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------


def _baseline_defaults() -> dict:
    return {"algorithm": "sgd", "rate": 0.002, "noise_scale": 0.0, "n_steps": 10000, "batch_size": 0}


def _run_baseline(cfg: ExperimentConfig, params: dict, objective: Objective, out: _RunDir) -> None:
    inits = objective.domain.sample_uniform(cfg.stream(13).generator, cfg.trials)
    out.save("inits.npy", inits)
    noise = float(params["noise_scale"]) if params["algorithm"] == "sgld" else 0.0
    endpoints = _run_sgd_ensemble(
        objective,
        float(params["rate"]),
        int(params["n_steps"]),
        inits,
        cfg.stream(14),
        noise_scale=noise,
        batch_size=int(params["batch_size"]),
    )
    out.save("endpoints.npy", endpoints)


def _analyze_baseline(cfg: ExperimentConfig, params: dict, objective: Objective, out_dir: Path) -> dict:
    endpoints = np.load(out_dir / "endpoints.npy")
    risks = np.asarray(objective.empirical_risk(endpoints), dtype=float)
    row = {
        "algorithm": params["algorithm"],
        "mean_final_risk": float(risks.mean()),
        "std_final_risk": float(risks.std(ddof=1)),
    }
    return {"table": [row]}


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

# kind -> (runner, analyzer, default protocol); the defaults' keys are also
# the protocol keys the kind accepts
EXPERIMENT_KINDS = {
    "escape": (_run_escape, _analyze_escape, _escape_defaults),
    "stationarity": (_run_stationarity, _analyze_stationarity, _stationarity_defaults),
    "beta_sweep": (_run_beta_sweep, _analyze_beta_sweep, _beta_sweep_defaults),
    "coupling": (_run_coupling, _analyze_coupling, _coupling_defaults),
    "generalization": (_run_generalization, _analyze_generalization, _generalization_defaults),
    "baseline": (_run_baseline, _analyze_baseline, _baseline_defaults),
}

# kinds whose summaries take a ddof=1 standard deviation over trials
_SPREAD_KINDS = {"beta_sweep", "generalization", "baseline"}


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Simulate, persist artifacts, then derive the summary from the artifacts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _check_manifest(out_dir, cfg)
    runner, _, _ = EXPERIMENT_KINDS[cfg.kind]
    params = cfg.params()
    out = _RunDir(out_dir)
    runner(cfg, params, cfg.built_objective, out)
    out.file("params.json").write_text(canonical_json(params) + "\n")
    _write_manifest(out_dir, cfg, [cfg.seed], out.names + ["summary.csv", "summary.json", "plot.py"])
    summary = analyze_experiment(out_dir)
    return summary


def analyze_experiment(out_dir) -> dict:
    """Rebuild every summary table from the persisted artifacts alone.

    The analyzer's ``table`` (a list of rows with the same keys) is written
    as ``summary.csv``, one column per key in key order.
    """
    out_dir = Path(out_dir)
    manifest = _load_manifest(out_dir)
    cfg = ExperimentConfig.from_dict(manifest["config"])
    _, analyzer, _ = EXPERIMENT_KINDS[cfg.kind]
    summary = analyzer(cfg, cfg.params(), cfg.built_objective, out_dir)
    table = summary["table"]
    _write_csv(out_dir / "summary.csv", list(table[0]), [list(row.values()) for row in table])
    summary = {"kind": cfg.kind, "config_hash": manifest["config_hash"], **summary}
    (out_dir / "summary.json").write_text(canonical_json(summary) + "\n")
    (out_dir / "plot.py").write_text(_PLOT_STUB)
    return summary
