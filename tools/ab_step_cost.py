"""In-process A/B of the chain kernel's cost against another revision.

Usage (from the repository root):

    python3 tools/ab_step_cost.py [--rev HEAD] [--pairs 12] [--config NAME ...]

The baseline is ``src/poisson_sgd`` at git revision ``--rev`` (HEAD by
default), extracted to a temporary directory and imported under the package
name ``poisson_sgd_base`` (the package uses only relative imports); the
change is this checkout's ``src/poisson_sgd``. Both run in one process, so
they share the interpreter, numpy and the machine's state. Each config
runs once per side untimed, then once per side per pair, alternating which
side goes first. Only the run is timed: each side builds its own objective
and config and runs its own chain runner from the same start points, drawn
once beforehand.

The ``oracle`` configs time ``StationaryDensity.sample`` alone: each side
normalizes its density once, untimed, and every run draws from the same
stream.

For each config it prints both medians, the ratio of the change's median
to the baseline's, the pairs in which the change was faster, each side's
gradient points (the rows its gradient fields evaluated, or for an oracle
the points it evaluated the density at, counted in the untimed run; they
are the same on every run), and whether every run of both sides ended at
the same bytes (endpoint thetas and velocities, or the oracle's draws). A
change that must keep every draw prints ``same`` on every line, and its
gradient points show what it evaluates. Not part of Tier-1; the default 12
pairs take a few minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASE_NAME = "poisson_sgd_base"


def load_revision(rev: str, into: Path):
    """``src/poisson_sgd`` at ``rev``, imported as ``poisson_sgd_base``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src/poisson_sgd"], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    (into / "src" / "poisson_sgd").rename(into / BASE_NAME)
    sys.path.insert(0, str(into))
    return importlib.import_module(BASE_NAME)


def load_checkout():
    sys.path.insert(0, str(ROOT / "src"))
    return importlib.import_module("poisson_sgd")


# ----------------------------------------------------------------------
# configs: name -> (starts(pkg) -> start points or None, run(pkg, starts) -> result)
# ----------------------------------------------------------------------


def _escape_starts(pkg):
    """escape-2d's starts: 100 points near the double well's local minimum."""
    center = pkg.double_well_2d().local_minima[0] + [-0.1, 0.2]
    return center + pkg.RngStream(7).generator.uniform(-0.1, 0.1, size=(100, 2))


def _escape(pkg, starts):
    """escape-2d's Poisson SGD chains."""
    cfg = pkg.PoissonSgdConfig(beta=0.01, epsilon=0.05, n_steps=1000)
    return pkg.run_poisson_sgd_ensemble(pkg.double_well_2d(), cfg, 100, rng=pkg.RngStream(1), initial_points=starts)


def _beta_arm(beta):
    """One beta arm of beta-sweep-2d: 50 chains from uniform starts."""

    def run(pkg, starts):
        cfg = pkg.PoissonSgdConfig(beta=beta, epsilon=0.05, n_steps=500)
        return pkg.run_poisson_sgd_ensemble(pkg.double_well_2d(), cfg, 50, rng=pkg.RngStream(2))

    return run


def _oracle_starts(epsilon, n):
    """``n`` draws of the closed form on the 1-d double well at beta 0.003."""
    return lambda pkg: pkg.StationaryDensity(pkg.double_well_1d(), beta=0.003, epsilon=epsilon).sample(
        n, pkg.RngStream(3)
    )


def _bps(pkg, starts):
    """Coupled BPS on the 1-d double well, N = 5000, started from the oracle."""
    obj = pkg.double_well_1d()
    cfg = pkg.BpsConfig.coupled(beta=0.003, epsilon=1.0, grad_norm_bound=obj.grad_norm_bound, n_steps=40)
    return pkg.run_bps_ensemble(obj, cfg, 5000, rng=pkg.RngStream(4), initial_points=starts)


def _linreg(pkg, starts):
    """30 per-chain least-squares datasets (n = 32, d = 2), mini-batches of 8."""
    import numpy as np

    trials = [pkg.linreg_synthetic(32, 2, 0.5, seed=s) for s in range(30)]
    obj = pkg.LinearRegressionObjective(
        np.stack([o.features for o in trials]), np.stack([o.targets for o in trials]), trials[0].domain
    )
    cfg = pkg.PoissonSgdConfig(beta=50.0, epsilon=0.005, n_steps=150, batch_size=8, record_risk=False)
    return pkg.run_poisson_sgd_ensemble(obj, cfg, 30, rng=pkg.RngStream(5))


def _coupling(pkg, starts):
    """The coupling experiment's optimizer: double_well_1d at beta 0.05 and
    epsilon 0.25, 500 chains from uniform starts."""
    cfg = pkg.PoissonSgdConfig(beta=0.05, epsilon=0.25, n_steps=200)
    return pkg.run_poisson_sgd_ensemble(pkg.double_well_1d(), cfg, 500, rng=pkg.RngStream(8))


def _criterion5(pkg, starts):
    """Criterion 5's optimizer: N = 512 at epsilon 1e-3, started from the oracle."""
    cfg = pkg.PoissonSgdConfig(beta=0.003, epsilon=1e-3, n_steps=1000)
    return pkg.run_poisson_sgd_ensemble(pkg.double_well_1d(), cfg, 512, rng=pkg.RngStream(6), initial_points=starts)


def _oracle(make, beta, epsilon, n):
    """``n`` draws of the closed-form oracle on ``make(pkg)``; each side
    normalizes its density once, untimed, so runs time ``sample`` alone."""
    densities = {}

    def run(pkg, starts):
        if pkg not in densities:
            densities[pkg] = pkg.StationaryDensity(make(pkg), beta=beta, epsilon=epsilon)
            densities[pkg].grid()
        return densities[pkg].sample(n, pkg.RngStream(9))

    return run


def _no_starts(pkg):
    return None


CONFIGS = {
    "escape": (_escape_starts, _escape),
    "beta_0.1": (_no_starts, _beta_arm(0.1)),
    "beta_0.01": (_no_starts, _beta_arm(0.01)),
    "beta_0.001": (_no_starts, _beta_arm(0.001)),
    "bps": (_oracle_starts(1.0, 5000), _bps),
    "linreg": (_no_starts, _linreg),
    "criterion5": (_oracle_starts(1e-3, 512), _criterion5),
    "coupling": (_no_starts, _coupling),
    # stationarity-bps-1d's 100000-draw oracle, and one on a 64-sample dataset
    "oracle": (_no_starts, _oracle(lambda pkg: pkg.double_well_1d(), 0.003, 1.0, 100_000)),
    "oracle_linreg": (_no_starts, _oracle(lambda pkg: pkg.linreg_synthetic(64, 2, 0.5, 0), 1.0, 0.05, 20_000)),
}


def _digest(result) -> str:
    """Endpoint thetas and velocities of a chain result, or an oracle's draws."""
    if hasattr(result, "thetas"):
        return hashlib.sha256(result.thetas.tobytes() + result.velocities.tobytes()).hexdigest()
    return hashlib.sha256(result.tobytes()).hexdigest()


def _counted(run, pkg, starts):
    """The result of one untimed run and the points it evaluated: gradient
    points of its gradient fields, and density points of the oracle's
    ``unnormalized`` (a density's grid is built before it is counted)."""
    build = pkg.Objective.grad_field
    density = pkg.StationaryDensity.unnormalized
    points = [0]

    def unnormalized(self, theta):
        if self._grid_cache:
            points[0] += theta.size // self.objective.domain.dim
        return density(self, theta)

    def grad_field(self, batch=None):
        field = build(self, batch)

        def counted(x, rows=None):
            points[0] += x.size // self.domain.dim
            return field(x, rows=rows)

        return counted

    pkg.Objective.grad_field = grad_field
    pkg.StationaryDensity.unnormalized = unnormalized
    try:
        result = run(pkg, starts)
    finally:
        pkg.Objective.grad_field = build
        pkg.StationaryDensity.unnormalized = density
    return _digest(result), points[0]


def _timed(run, pkg, starts):
    start = time.perf_counter()
    result = run(pkg, starts)
    return time.perf_counter() - start, _digest(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="git revision of the baseline (default HEAD)")
    parser.add_argument("--pairs", type=int, default=12, help="timed pairs per config (default 12)")
    parser.add_argument("--config", action="append", choices=sorted(CONFIGS), help="repeatable; default all")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        base = load_revision(args.rev, Path(tmp))
        change = load_checkout()
        print(f"baseline {args.rev}, change {ROOT / 'src'}, {args.pairs} pairs, alternating order")
        print(
            f"{'config':<14} {'base_ms':>9} {'change_ms':>9} {'ratio':>6} {'won':>7} "
            f"{'base_pts':>10} {'change_pts':>10}  bytes"
        )
        for name in args.config or CONFIGS:
            # start points are drawn once, by the checkout, and shared
            make_starts, run = CONFIGS[name]
            starts = make_starts(change)
            sides = [("base", base), ("change", change)]
            times = {"base": [], "change": []}
            warm = {side: _counted(run, pkg, starts) for side, pkg in sides}  # untimed
            digests = {digest for digest, _ in warm.values()}
            for pair in range(args.pairs):
                for side, pkg in sides if pair % 2 == 0 else sides[::-1]:
                    elapsed, digest = _timed(run, pkg, starts)
                    times[side].append(elapsed)
                    digests.add(digest)
            won = sum(c < b for b, c in zip(times["base"], times["change"]))
            b, c = statistics.median(times["base"]), statistics.median(times["change"])
            same = "same" if len(digests) == 1 else "DIFFER"
            print(
                f"{name:<14} {1e3 * b:9.1f} {1e3 * c:9.1f} {c / b:6.3f} {won:>3}/{args.pairs:<3} "
                f"{warm['base'][1]:>10} {warm['change'][1]:>10}  {same}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
