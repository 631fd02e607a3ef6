"""Command line front end: run experiments from JSON configs, re-analyze run
directories, list built-in objectives, and self-check the core invariants."""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .bps import BpsConfig, run_bps_ensemble
from .experiments import ExperimentConfig, analyze_experiment, run_experiment
from .metrics import lemma_wasserstein_bound_check, wasserstein1_1d
from .objectives import BUILTIN_OBJECTIVES, double_well_1d, quadratic_bowl
from .optimizer import PoissonSgdConfig, reflect, run_poisson_sgd, run_poisson_sgd_ensemble
from .sampler import RayCdfInverter, RngStream, ray_rate_rows, thin_first_arrivals, uniform_sphere
from .stationary import gamma_ratio_fences, sphere_cos_abs_mean, sphere_cos_plus_mean

__all__ = ["main"]


def _print_table(rows: list[dict]) -> None:
    if not rows:
        return
    cols = list(rows[0])
    widths = [
        max(len(c), *(len(_cell(r[c])) for r in rows)) for c in cols
    ]
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for r in rows:
        print("  ".join(_cell(r[c]).ljust(w) for c, w in zip(cols, widths)))


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _print_summary(summary: dict) -> None:
    """The summary's table, then its other keys one per line."""
    _print_table(summary.get("table", []))
    for key, value in summary.items():
        if key not in ("table", "kind", "config_hash"):
            print(f"{key}: {value}")


def _cmd_run(args) -> int:
    spec = json.loads(Path(args.config).read_text())
    out_dir = spec.pop("out_dir", None)
    if args.out is not None:
        out_dir = args.out
    if out_dir is None:
        print("error: no output directory (pass --out or put out_dir in the config)", file=sys.stderr)
        return 2
    if args.seed is not None:
        spec["seed"] = args.seed
    try:
        cfg = ExperimentConfig.from_dict(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"running {cfg.kind} experiment {cfg.config_hash()} -> {out_dir}")
    _print_summary(run_experiment(cfg, out_dir))
    return 0


def _cmd_analyze(args) -> int:
    summary = analyze_experiment(args.run_dir)
    print(f"kind: {summary['kind']}  config: {summary['config_hash']}")
    _print_summary(summary)
    return 0


def _cmd_list_objectives(args) -> int:
    for name, factory in sorted(BUILTIN_OBJECTIVES.items()):
        doc = (factory.__doc__ or "").strip().splitlines()
        print(f"{name}: {doc[0] if doc else ''}")
    return 0


# ----------------------------------------------------------------------
# verify: fast self-checks of the invariants the library is built on
# ----------------------------------------------------------------------


def _check_reflection() -> None:
    rng = RngStream(7, spawn_key=(900,))
    gen = rng.generator
    for d in (1, 2, 5):
        v = uniform_sphere(d, rng, 512)
        g = gen.standard_normal((512, d))
        r = reflect(v, g)
        assert np.max(np.abs(np.linalg.norm(r, axis=1) - 1.0)) < 1e-12
        dots_before = np.einsum("ij,ij->i", v, g)
        dots_after = np.einsum("ij,ij->i", r, g)
        assert np.max(np.abs(dots_after + dots_before)) < 1e-9 * np.max(np.abs(dots_before))
        assert np.max(np.abs(reflect(r, g) - v)) < 1e-9


def _check_sphere_moments() -> None:
    for d, expected in ((1, 1.0), (2, 2.0 / np.pi), (3, 0.5)):
        assert abs(sphere_cos_abs_mean(d) - expected) < 1e-12
    for d in range(2, 12):
        lo, hi = gamma_ratio_fences(d)
        ratio = np.sqrt(np.pi) * sphere_cos_abs_mean(d)
        assert lo <= ratio <= hi, f"gamma ratio fence broken at d={d}"
        assert sphere_cos_plus_mean(d) == 0.5 * sphere_cos_abs_mean(d)


def _check_event_sampler() -> None:
    objective = quadratic_bowl([[2.0, 7.0]], side_lengths=10.0)
    domain = objective.domain
    base = np.array([5.0, 5.0])
    direction = np.array([1.0, 0.0])
    beta, floor = 0.7, 0.8
    ceiling = beta * objective.grad_norm_bound + floor
    rates = ray_rate_rows(objective.grad_field(None), domain.wrap, beta, floor, base[None], direction[None])
    rng_a = RngStream(11, spawn_key=(901,))
    rng_b = RngStream(12, spawn_key=(902,))
    draws_a = np.concatenate([thin_first_arrivals(rates, 1, floor, ceiling, rng_a) for _ in range(3000)])
    horizon = -np.log(1e-13) / floor
    inverter = RayCdfInverter(
        lambda t: rates(t[:, None], np.zeros(t.size, dtype=int))[:, 0],
        floor,
        breakpoints=domain.ray_seam_radii(base, direction, horizon),
    )
    draws_b = inverter.sample(rng_b, 3000)
    w1 = wasserstein1_1d(draws_a, draws_b)
    assert w1 < 0.05, f"thinning vs quadrature W1 = {w1}"


def _check_lemma_bound() -> None:
    rng = RngStream(13, spawn_key=(903,))
    res = lemma_wasserstein_bound_check(
        lambda t: np.ones_like(t),
        lambda t: np.full_like(t, 2.0),
        M=1.0,
        m1=1.0,
        m2=2.0,
        n=20000,
        rng=rng,
    )
    assert res.passed
    assert abs(res.measured_w1 - 0.5) < 0.02


def _check_norm_preservation() -> None:
    objective = double_well_1d()
    cfg = PoissonSgdConfig(beta=0.002, epsilon=0.1, n_steps=400, seed=5)
    result = run_poisson_sgd_ensemble(objective, cfg, 64, rng=RngStream(5, spawn_key=(904,)))
    assert result.max_norm_deviation < 1e-9
    bps_cfg = BpsConfig.coupled(
        beta=0.002,
        epsilon=0.1,
        grad_norm_bound=objective.grad_norm_bound,
        n_steps=400,
        seed=5,
    )
    bres = run_bps_ensemble(objective, bps_cfg, 64, rng=RngStream(6, spawn_key=(905,)))
    assert bres.max_norm_deviation < 1e-9


def _check_determinism() -> None:
    objective = double_well_1d()
    cfg = PoissonSgdConfig(beta=0.01, epsilon=0.5, n_steps=200, seed=21)
    rec_a = run_poisson_sgd(objective, cfg)
    rec_b = run_poisson_sgd(objective, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        pa, pb = Path(tmp) / "a.ndjson", Path(tmp) / "b.ndjson"
        rec_a.to_ndjson(pa)
        rec_b.to_ndjson(pb)
        assert pa.read_bytes() == pb.read_bytes()


_VERIFY_CHECKS = [
    ("reflection algebra", _check_reflection),
    ("sphere direction moments", _check_sphere_moments),
    ("event-time sampler (thinning vs quadrature)", _check_event_sampler),
    ("Wasserstein rate-swap bound", _check_lemma_bound),
    ("velocity norm preservation", _check_norm_preservation),
    ("seeded determinism", _check_determinism),
]


def _cmd_verify(args) -> int:
    failures = 0
    for name, check in _VERIFY_CHECKS:
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    if failures:
        print(f"{failures} of {len(_VERIFY_CHECKS)} checks failed")
        return 1
    print(f"all {len(_VERIFY_CHECKS)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisson-sgd",
        description="Poisson-rate SGD and bounce sampler experiment runner",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config JSON")
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="rebuild summaries from a run directory")
    p_an.add_argument("run_dir", help="directory holding manifest.json and artifacts")
    p_an.set_defaults(func=_cmd_analyze)

    p_ls = sub.add_parser("list-objectives", help="list built-in objectives")
    p_ls.set_defaults(func=_cmd_list_objectives)

    p_ver = sub.add_parser("verify", help="run the built-in invariant checks")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
