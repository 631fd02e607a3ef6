"""End-to-end acceptance battery.

Eleven numbered criteria, each with pinned tolerances and a wall-clock
budget. Every test aggregates its sub-checks and reports one verdict through
the ``criteria`` fixture, so the terminal summary shows a single PASS/FAIL
line per criterion. All seeds are pinned; a passing run is reproducible
byte-for-byte.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np

from poisson_sgd.bps import BpsConfig, run_bps, run_bps_ensemble
from poisson_sgd.experiments import ExperimentConfig, run_experiment
from poisson_sgd.metrics import (
    histogram_tv,
    ks_statistic,
    lemma_wasserstein_bound_check,
    sliced_wasserstein1,
    wasserstein1_1d,
)
from poisson_sgd.objectives import double_well_1d, double_well_2d, quadratic_bowl
from poisson_sgd.optimizer import (
    PoissonSgdConfig,
    reflect,
    run_poisson_sgd,
    run_poisson_sgd_ensemble,
)
from poisson_sgd.sampler import (
    RayCdfInverter,
    RngStream,
    ray_rate_rows,
    thin_first_arrivals,
    uniform_sphere,
)
from poisson_sgd.stationary import StationaryDensity, sphere_cos_abs_mean, sphere_cos_plus_mean
from sphere_moments import cos_plus_bracket, estimate_cos_plus_moment


def _strict_local_maxima(masses: np.ndarray) -> list[int]:
    return [
        i
        for i in range(1, len(masses) - 1)
        if masses[i] > masses[i - 1] and masses[i] > masses[i + 1]
    ]


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_criterion_01_velocity_norm_invariant(criteria):
    # 1e6 optimizer steps and 1e6 sampler steps on the double well, with the
    # pre-renormalization deviation tracked at every single step; plus one
    # long single chain per algorithm so the scalar path is covered too.
    t0 = time.perf_counter()
    obj = double_well_2d()
    tol = 1e-9

    p_cfg = PoissonSgdConfig(beta=0.01, epsilon=0.1, n_steps=1000, seed=11)
    p_ens = run_poisson_sgd_ensemble(obj, p_cfg, 1000, rng=RngStream(11))
    p_one = run_poisson_sgd(
        obj, PoissonSgdConfig(beta=0.01, epsilon=0.1, n_steps=20000, seed=12, record_stride=100)
    )
    b_cfg = BpsConfig.coupled(
        beta=0.01, epsilon=0.1, grad_norm_bound=obj.grad_norm_bound, n_steps=1000, seed=13
    )
    b_ens = run_bps_ensemble(obj, b_cfg, 1000, rng=RngStream(13))
    b_one = run_bps(
        obj,
        BpsConfig.coupled(
            beta=0.01,
            epsilon=0.1,
            grad_norm_bound=obj.grad_norm_bound,
            n_steps=20000,
            seed=14,
            record_stride=100,
        ),
    )
    dev_p = max(p_ens.max_norm_deviation, p_one.max_norm_deviation)
    dev_b = max(b_ens.max_norm_deviation, b_one.max_norm_deviation)
    dt = time.perf_counter() - t0
    criteria.check(
        1,
        "velocity norm invariant",
        dev_p < tol and dev_b < tol and dt < 120,
        f"max deviation optimizer {dev_p:.2e}, sampler {dev_b:.2e} over 1.02e6 steps each "
        f"(limit 1e-9); {dt:.0f}s",
    )


def test_criterion_02_reflection_algebra(criteria):
    t0 = time.perf_counter()
    rng = RngStream(21)
    gen = rng.generator
    worst = 0.0
    for d in (1, 2, 3, 8):
        v = uniform_sphere(d, rng, 2500)
        g = gen.standard_normal((2500, d))
        r = reflect(v, g)
        worst = max(
            worst,
            float(np.max(np.abs(reflect(r, g) - v))),  # involution
            float(np.max(np.abs(np.linalg.norm(r, axis=1) - 1.0))),  # norm
            float(
                np.max(
                    np.abs(
                        np.einsum("ij,ij->i", r, g) + np.einsum("ij,ij->i", v, g)
                    )
                )
            ),  # <Rv,g> = -<v,g>
        )
    dt = time.perf_counter() - t0
    criteria.check(
        2,
        "reflection algebra",
        worst < 1e-12 and dt < 60,
        f"worst error {worst:.2e} over 1e4 pairs (limit 1e-12); {dt:.1f}s",
    )


def _ray_rates(objective, beta, floor, start, heading, n):
    """The chains' rate (``ray_rate_rows``) on ``n`` identical full-batch rays."""
    starts = np.broadcast_to(start, (n, start.size))
    headings = np.broadcast_to(heading, (n, start.size))
    return ray_rate_rows(objective.grad_field(None), objective.domain.wrap, beta, floor, starts, headings)


def _along(rates):
    """Ray 0's rate as a function of 1-d radii, the oracle's callable."""
    return lambda t: rates(t[:, None], np.zeros(t.size, dtype=int))[:, 0]


# the one-step oracle's cases: objective, chain config, and each group's
# start and heading; the first double_well_2d group is criterion 3's seam ray
ONE_STEP_CASES = {
    "double_well_2d full batch": (
        double_well_2d(),
        PoissonSgdConfig(beta=3e-5, epsilon=0.5, n_steps=1),
        [([39.6, 20.3], [0.8, 0.6]), ([1.0, 12.0], [-0.6, -0.8]), ([30.0, 35.0], [0.6, -0.8])],
    ),
    # every center is the same, so each chain's batch has the full field
    "bowl per-chain batches": (
        quadratic_bowl([[2.0, 7.0]] * 4, side_lengths=10.0),
        PoissonSgdConfig(beta=0.7, epsilon=1.25, n_steps=1, batch_size=2),
        [([5.0, 5.0], [1.0, 0.0]), ([1.0, 7.0], [-1.0, 0.0]), ([8.0, 9.5], [0.6, 0.8])],
    ),
}


def one_step_oracle_gate(n_chains: int = 30_000, seed: int = 904):
    """Criterion 3's one-step oracle: the chains' own rate, on their own path.

    In each case ``n_chains`` chains take one step through
    ``run_poisson_sgd_ensemble``. Chain i belongs to group i % G and starts
    from that group's (theta, v), so a rate that reads another row's point
    or heading reads another group's. Each group's recorded etas are
    compared (W1) with the quantiles of ``RayCdfInverter`` on the group's
    ray, built from ``ray_rate_rows``. A group's limit is twice the largest
    W1 of 20 draws of the same size from that oracle; resampling 1000 such
    draws per group, the oracle's own draws reach it about once in 10^4
    (and 1.5 times the largest, about once in 400). Returns the problems
    and the largest W1 / limit ratio.
    """
    problems = []
    worst = 0.0
    for c, (name, (objective, cfg, groups)) in enumerate(ONE_STEP_CASES.items()):
        G = len(groups)
        starts = np.array([start for start, _ in groups] * (n_chains // G), dtype=float)
        headings = np.array([heading for _, heading in groups] * (n_chains // G), dtype=float)
        res = run_poisson_sgd_ensemble(
            objective,
            cfg,
            len(starts),
            rng=RngStream(seed, spawn_key=(c,)),
            initial_points=starts,
            initial_velocities=headings,
            record_chains=range(len(starts)),
        )
        etas = np.array([rec.rows[-1]["eta"] for rec in res.records])
        for g in range(G):
            start, heading = starts[g], headings[g]
            # the oracle's ray starts one box side further along every axis,
            # at the same point of the torus: its rates equal the chains'
            # only through ``wrap``
            rates = ray_rate_rows(
                objective.grad_field(None),
                objective.domain.wrap,
                cfg.beta,
                cfg.floor,
                (start + objective.domain.sides)[None],
                heading[None],
            )
            horizon = -math.log(1e-13) / cfg.floor
            oracle = RayCdfInverter(
                _along(rates), cfg.floor, breakpoints=objective.domain.ray_seam_radii(start, heading, horizon)
            )
            cloud = oracle.ppf((np.arange(200_000) + 0.5) / 200_000)
            spread = [
                wasserstein1_1d(oracle.sample(RngStream(seed, spawn_key=(c, g, k)), etas[g::G].size), cloud)
                for k in range(20)
            ]
            limit = 2.0 * max(spread)
            w1 = wasserstein1_1d(etas[g::G], cloud)
            worst = max(worst, w1 / limit)
            if w1 >= limit:
                problems.append(f"{name} group {g}: one-step W1 {w1:.4f} >= {limit:.4f}")
    return problems, worst


def test_criterion_03_learning_rate_law(criteria):
    t0 = time.perf_counter()
    problems = []

    # (a) constant-rate special case through one-ray draws of the chains' rate
    obj = quadratic_bowl([[2.0, 7.0]], side_lengths=10.0)
    base, direction = np.array([5.0, 5.0]), np.array([1.0, 0.0])
    const_rate = _ray_rates(obj, 0.0, 2.0, base, direction, 1)
    rng = RngStream(901)
    draws = np.concatenate([thin_first_arrivals(const_rate, 1, 2.0, 2.0, rng) for _ in range(100_000)])
    ks_scalar = ks_statistic(draws, lambda t: 1.0 - np.exp(-2.0 * t))
    if ks_scalar >= 0.006:
        problems.append(f"scalar KS {ks_scalar:.4f}")

    # (b) constant rates through the vectorized thinning path
    ks_vec = {}
    for lam, seed in ((0.5, 902), (4.0, 903)):
        xs = thin_first_arrivals(
            lambda radii, rows: np.full_like(radii, lam),
            100_000,
            lam,
            lam,
            RngStream(seed),
        )
        ks_vec[lam] = ks_statistic(xs, lambda t: 1.0 - np.exp(-lam * t))
        if ks_vec[lam] >= 0.006:
            problems.append(f"vector KS(rate {lam}) {ks_vec[lam]:.4f}")

    # (c) thinning vs inverse-CDF oracle on five rate fields, at the ceiling
    # and against local bounds (Lipschitz slope up to the first seam)
    # anchored at r = 0, plus a double_well_2d ray that crosses a seam; the
    # local bounds only skip evaluations, so their draws equal the ceiling's.
    # The two rays are the chains' own rate, on 100000 identical rays
    n = 100_000
    horizon = -math.log(1e-13) / 0.8
    ray = _ray_rates(obj, 0.7, 0.8, base, direction, n)
    dw = double_well_2d()
    dw_base, dw_direction = np.array([39.6, 20.3]), np.array([0.8, 0.6])
    dw_ray = _ray_rates(dw, 3e-5, 2.0, dw_base, dw_direction, n)

    def piecewise(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.7, 0.8, np.where(t < 1.5, 2.4, 1.1))

    def first_seam(domain, start, heading):
        return float(domain.first_seam_radii(start[None], heading[None])[0])

    def radial(fn):
        return lambda radii, rows: fn(radii)

    # name, rate_rows, floor, ceiling, jump radii, Lipschitz slope, first jump
    fields = [
        ("ramp", radial(lambda t: 0.8 + 0.6 * (1.0 - np.exp(-np.asarray(t)))), 0.8, 1.4, (), 0.6, math.inf),
        ("sin", radial(lambda t: 1.0 + 0.5 * np.sin(2.2 * np.asarray(t) + 0.4)), 0.5, 1.5, (), 1.1, math.inf),
        (
            "bump",
            radial(lambda t: 0.9 + 1.8 * np.exp(-((np.asarray(t) - 1.2) ** 2) / 0.18)),
            0.9,
            2.7,
            (),
            3.7,
            math.inf,
        ),
        ("jumps", radial(piecewise), 0.8, 2.4, (0.7, 1.5), 0.0, 0.7),
        (
            "ray",
            ray,
            0.8,
            0.7 * obj.grad_norm_bound + 0.8,
            tuple(obj.domain.ray_seam_radii(base, direction, horizon)),
            0.7 * obj.metadata.lipschitz_c1,
            first_seam(obj.domain, base, direction),
        ),
        (
            "dw2d seam",
            dw_ray,
            2.0,
            3e-5 * dw.grad_norm_bound + 2.0,
            tuple(dw.domain.ray_seam_radii(dw_base, dw_direction, -math.log(1e-13) / 2.0)),
            3e-5 * dw.metadata.lipschitz_c1,
            first_seam(dw.domain, dw_base, dw_direction),
        ),
    ]
    w1s = {}
    skipped = 0
    for i, (name, rate_rows, floor, ceiling, breaks, slope, seam) in enumerate(fields):
        fn = _along(rate_rows)
        thin = thin_first_arrivals(rate_rows, n, floor, ceiling, RngStream(700 + i))
        inv = RayCdfInverter(fn, floor, breakpoints=breaks)
        cloud = inv.ppf((np.arange(400_000) + 0.5) / 400_000)
        w1s[name] = wasserstein1_1d(thin, cloud)
        evaluated = {"local": 0, "ceiling": 0}

        def counted(radii, rows, rate_rows=rate_rows, key="local"):
            evaluated[key] += radii.size
            return rate_rows(radii, rows)

        local = thin_first_arrivals(
            counted,
            n,
            floor,
            ceiling,
            RngStream(710 + i),
            slope=slope,
            anchor_rates=lambda rows, q=float(fn(np.zeros(1))[0]): np.full(rows.shape, q),
            seam_radii=lambda rows, seam=seam: np.full(rows.shape, seam),
        )
        plain = thin_first_arrivals(
            lambda radii, rows: counted(radii, rows, key="ceiling"),
            n,
            floor,
            ceiling,
            RngStream(710 + i),
        )
        if not np.array_equal(local, plain):
            problems.append(f"field {name}: local-bound draws differ from the ceiling's")
        skipped += evaluated["ceiling"] - evaluated["local"]
        w1s[f"{name} local"] = wasserstein1_1d(local, cloud)
        if name == "dw2d seam" and not 0.1 < np.mean(local > seam) < 0.9:
            problems.append(f"dw2d ray crosses its seam in {np.mean(local > seam):.3f} of draws")
    for name, w1 in w1s.items():
        if w1 >= 1e-2:
            problems.append(f"field {name} W1 {w1:.4f}")
    if skipped <= 0:
        problems.append("local bounds skipped no rate evaluation")

    # (d) mean step length bounded by the constant floor's inverse
    cfg = PoissonSgdConfig(beta=0.01, epsilon=0.05, n_steps=2000, seed=31)
    res = run_poisson_sgd_ensemble(dw, cfg, 100, rng=RngStream(31))
    n_draws = 2000 * 100
    se = math.sqrt(2.0) / (cfg.c_p * math.sqrt(n_draws))  # E[eta^2] <= 2/C_P^2
    if res.mean_eta > 1.0 / cfg.c_p + 3 * se:
        problems.append(f"mean eta {res.mean_eta:.5f} > 1/C_P + 3SE")

    # (e) one step of the chains themselves against the oracle on their rays
    one_step_problems, one_step_worst = one_step_oracle_gate()
    problems += one_step_problems

    dt = time.perf_counter() - t0
    criteria.check(
        3,
        "learning-rate law",
        not problems and dt < 120,
        "; ".join(problems)
        or f"KS {max(ks_scalar, *ks_vec.values()):.4f} (limit 0.006), "
        f"max field W1 {max(w1s.values()):.4f} (limit 0.01) over {len(w1s)} ceiling and "
        f"local-bound draws ({skipped} evaluations skipped), "
        f"mean eta {res.mean_eta:.5f} <= {1.0 / cfg.c_p:.3f}, one-step W1 at most "
        f"{one_step_worst:.2f} of its limit; {dt:.0f}s",
    )


def sampler_stationarity_gate(n_chains: int = 100_000, seed: int = 41):
    """Criterion 4's protocol and gate at a given size and seed.

    Returns the gate's problems (empty when it passes) and the TV summary.
    """
    problems = []
    details = []
    cases = [
        ("quadratic", quadratic_bowl([[5.0]], side_lengths=10.0), 1.0, 512, (8, 64, 512), False),
        ("double well", double_well_1d(), 0.003, 4096, (8, 64, 512, 4096), True),
    ]
    for name, obj, beta, K, checkpoints, needs_modes in cases:
        density = StationaryDensity(obj, beta=beta, epsilon=1.0)
        grid = density.grid()
        reference = grid.coarsen((len(grid.edges[0]) - 1) // 64)
        if needs_modes:
            peaks = _strict_local_maxima(reference.masses)
            heights = sorted((float(reference.masses[i]) for i in peaks), reverse=True)
            if len(peaks) < 2 or heights[1] < 0.05 * heights[0]:
                problems.append(f"{name}: density not visibly bimodal at 64 bins")
        cfg = BpsConfig.coupled(
            beta=beta,
            epsilon=1.0,
            grad_norm_bound=obj.grad_norm_bound,
            n_steps=K,
            seed=seed,
        )
        res = run_bps_ensemble(
            obj, cfg, n_chains, rng=RngStream(seed), snapshot_steps=checkpoints
        )
        tvs = [histogram_tv(res.snapshots[k], reference) for k in checkpoints]
        if tvs[-1] >= 0.05:
            problems.append(f"{name}: final TV {tvs[-1]:.4f} >= 0.05")
        if not all(a > b for a, b in zip(tvs, tvs[1:])):
            problems.append(f"{name}: TV not decreasing {[round(t, 4) for t in tvs]}")
        details.append(f"{name} TV {'->'.join(f'{t:.3f}' for t in tvs)}")
    return problems, "; ".join(details)


def test_criterion_04_sampler_stationarity_tv(criteria):
    t0 = time.perf_counter()
    problems, details = sampler_stationarity_gate()
    dt = time.perf_counter() - t0
    criteria.check(
        4,
        "sampler matches closed-form density (TV)",
        not problems and dt < 1800,
        "; ".join(problems) or details + f" (limit 0.05, 1e5 chains); {dt:.0f}s",
    )


def optimizer_stationarity_gate(n_steps: int = 1_000_000, seed: int = 51):
    """Criterion 5's protocol and gate; returns (passed, sliced W1, limit).

    Invariance protocol: chains start from the rejection oracle's own draws
    and must still match it after ``n_steps``. At epsilon = 1e-3 the motion
    is diffusive with effective time K*eps^2 = 1 at K = 1e6, far too short
    to mix from an arbitrary start, so staying at the target is the
    testable claim.
    """
    obj = double_well_1d()
    beta, eps, n_chains = 0.003, 1e-3, 512
    density = StationaryDensity(obj, beta=beta, epsilon=eps)
    oracle = density.sample(200_000, RngStream(seed))
    inits = density.sample(n_chains, RngStream(seed + 1))
    cfg = PoissonSgdConfig(beta=beta, epsilon=eps, n_steps=n_steps, batch_size=0, seed=seed + 2)
    res = run_poisson_sgd_ensemble(
        obj, cfg, n_chains, rng=RngStream(seed + 2), initial_points=inits
    )
    w1 = sliced_wasserstein1(res.thetas, oracle)
    limit = 0.1 * obj.domain.diameter()
    return w1 < limit, w1, limit


def test_criterion_05_optimizer_stationarity_w1(criteria):
    t0 = time.perf_counter()
    passed, w1, limit = optimizer_stationarity_gate()
    dt = time.perf_counter() - t0
    criteria.check(
        5,
        "optimizer matches rejection oracle (W1)",
        passed and dt < 1800,
        f"sliced W1 {w1:.3f} < {limit:.2f} after 1e6 steps at eps=1e-3; {dt:.0f}s",
    )


def test_criterion_06_sphere_moment_constants(criteria):
    t0 = time.perf_counter()
    problems = []
    closed = {1: 1.0, 2: 2.0 / math.pi, 3: 0.5}
    for d, want in closed.items():
        if abs(sphere_cos_abs_mean(d) - want) >= 1e-12:
            problems.append(f"a_{d} off by {abs(sphere_cos_abs_mean(d) - want):.2e}")
    worst_z = 0.0
    for d in range(2, 11):
        mean, se = estimate_cos_plus_moment(d, 1_000_000, RngStream(800 + d))
        target = sphere_cos_plus_mean(d)
        worst_z = max(worst_z, abs(mean - target) / se)
        if abs(mean - target) >= 4 * se:
            problems.append(f"d={d}: MC {mean:.6f} vs {target:.6f} beyond 4 SE")
        lo, hi = cos_plus_bracket(d)
        if not (lo <= mean <= hi):
            problems.append(f"d={d}: MC {mean:.6f} outside bracket [{lo:.6f}, {hi:.6f}]")
    dt = time.perf_counter() - t0
    criteria.check(
        6,
        "sphere moment constants",
        not problems and dt < 60,
        "; ".join(problems)
        or f"closed forms to 1e-12; MC worst |z| {worst_z:.2f} of 4, brackets hold d=2..10; {dt:.0f}s",
    )


def test_criterion_07_rate_swap_wasserstein_bound(criteria):
    t0 = time.perf_counter()
    problems = []
    rng = RngStream(77)
    gen = rng.generator
    n_pass = 0
    for i in range(100):
        c1, c2 = 0.3 + 1.2 * gen.random(2)
        a1, a2 = 2.0 * gen.random(2)
        w = 0.5 + 2.5 * gen.random()
        phi = 2.0 * math.pi * gen.random()

        def make(c, a):
            def f(t):
                return c + a * 0.5 * (1.0 + np.sin(w * np.asarray(t) + phi))

            return f

        # shared w and phi make sup|f2 - f1| attained at s in {0, 1}
        M = max(abs(c2 - c1), abs((c2 - c1) + (a2 - a1)))
        res = lemma_wasserstein_bound_check(
            make(c1, a1), make(c2, a2), M=M, m1=c1, m2=c2, n=2000, rng=rng.child(i)
        )
        n_pass += bool(res.passed)
        if not res.passed:
            problems.append(
                f"pair {i}: W1 {res.measured_w1:.4f} > bound {res.bound:.4f} + 3 SE"
            )
    const = lemma_wasserstein_bound_check(
        lambda t: np.ones_like(t),
        lambda t: np.full_like(t, 2.0),
        M=1.0,
        m1=1.0,
        m2=2.0,
        n=20_000,
        rng=RngStream(78),
    )
    if const.bound != 0.5:
        problems.append(f"constant-rate bound {const.bound} != 0.5")
    if abs(const.measured_w1 - 0.5) >= 0.01:
        problems.append(f"constant-rate W1 {const.measured_w1:.4f} not 0.5 +- 0.01")
    dt = time.perf_counter() - t0
    criteria.check(
        7,
        "rate-swap Wasserstein bound",
        not problems and dt < 120,
        "; ".join(problems)
        or f"{n_pass}/100 random pairs within bound + 3 SE, constant case W1 "
        f"{const.measured_w1:.4f}; {dt:.0f}s",
    )


def escape_gate(out_dir, trials: int = 100, seed: int = 2026):
    """Criterion 8's protocol and gate; returns (passed, basin fractions).

    Pre-registered from the pilot phase: beta 0.01, epsilon 0.05, K 80000,
    SGD rate 0.002, init jitter 0.1 around the local minimum.
    """
    cfg = ExperimentConfig(
        kind="escape",
        objective={"name": "double_well_2d"},
        trials=trials,
        seed=seed,
        protocol={
            "beta": 0.01,
            "epsilon": 0.05,
            "n_steps": 80000,
            "sgd_rate": 0.002,
            "init_jitter": 0.1,
        },
    )
    summary = run_experiment(cfg, out_dir)
    frac = {row["algorithm"]: row["fraction_global"] for row in summary["table"]}
    return frac["sgd"] == 0.0 and frac["poisson_sgd"] >= 0.80, frac


def test_criterion_08_escape_from_local_basin(criteria, tmp_path):
    t0 = time.perf_counter()
    passed, frac = escape_gate(tmp_path)
    dt = time.perf_counter() - t0
    criteria.check(
        8,
        "escape from the local basin",
        passed and dt < 600,
        f"SGD {frac['sgd']:.2f}, Poisson SGD {frac['poisson_sgd']:.2f} of 100 seeds "
        f"(needs 0 and >= 0.80); {dt:.0f}s",
    )


def beta_sweep_gate(out_dir, trials: int = 50, seed: int = 501):
    """Criterion 9's protocol and gate; returns (problems, summary)."""
    problems = []
    cfg = ExperimentConfig(
        kind="beta_sweep",
        objective={"name": "double_well_2d"},
        trials=trials,
        seed=seed,
        protocol={"betas": [0.0, 0.001, 0.01, 0.1], "epsilon": 0.05, "n_steps": 20000},
    )
    summary = run_experiment(cfg, out_dir)
    rows = {row["beta"]: row for row in summary["table"]}

    sweep = [rows[b] for b in (0.001, 0.01, 0.1)]
    inversions = []
    for lo, hi in zip(sweep, sweep[1:]):
        if hi["mean_final_risk"] >= lo["mean_final_risk"]:
            combined = 2.0 * math.hypot(lo["se_final_risk"], hi["se_final_risk"])
            inversions.append((lo["beta"], hi["beta"], hi["mean_final_risk"] - lo["mean_final_risk"], combined))
    if len(inversions) > 1:
        problems.append(f"{len(inversions)} inversions (one allowed)")
    for b_lo, b_hi, gap, combined in inversions:
        if gap >= combined:
            problems.append(
                f"inversion {b_lo}->{b_hi} of {gap:.1f} exceeds 2 SE ({combined:.1f})"
            )

    flat = rows[0.0]
    gap0 = abs(flat["mean_final_risk"] - summary["uniform_law_mean_risk"])
    if gap0 >= 2.0 * flat["se_final_risk"]:
        problems.append(
            f"beta->0 mean {flat['mean_final_risk']:.0f} vs grid "
            f"{summary['uniform_law_mean_risk']:.0f} beyond 2 SE"
        )
    means = " -> ".join(f"{rows[b]['mean_final_risk']:.0f}" for b in (0.001, 0.01, 0.1))
    return problems, (
        f"means {means} ({len(inversions)} inversion within 2 SE), beta->0 gap "
        f"{gap0:.0f} < 2 SE {2 * flat['se_final_risk']:.0f}"
    )


def test_criterion_09_risk_decreases_with_beta(criteria, tmp_path):
    t0 = time.perf_counter()
    problems, summary = beta_sweep_gate(tmp_path)
    dt = time.perf_counter() - t0
    criteria.check(
        9,
        "final risk decreases with beta",
        not problems and dt < 900,
        "; ".join(problems) or f"{summary}; {dt:.0f}s",
    )


def generalization_gate(out_dir, trials: int = 50, seed: int = 601):
    """Criterion 10's protocol and gate; returns (problems, gaps summary)."""
    problems = []
    cfg = ExperimentConfig(
        kind="generalization",
        objective={"name": "linreg_synthetic", "n": 32, "d": 2, "noise": 0.5, "seed": 0},
        trials=trials,
        seed=seed,
        protocol={"n_list": [32, 128, 512]},
    )
    summary = run_experiment(cfg, out_dir)
    rows = summary["table"]
    for lo, hi in zip(rows, rows[1:]):
        allowance = 2.0 * math.hypot(lo["gap_se"], hi["gap_se"])
        if hi["gap"] > lo["gap"] + allowance:
            problems.append(
                f"gap rose {lo['n']}->{hi['n']}: {lo['gap']:.4f} to {hi['gap']:.4f}"
            )
    first, last = rows[0], rows[-1]
    if last["gap"] > first["gap"] + 2.0 * math.hypot(first["gap_se"], last["gap_se"]):
        problems.append("n=512 gap exceeds n=32 gap beyond 2 SE")
    return problems, " -> ".join(f"{r['gap']:.4f}" for r in rows)


def test_criterion_10_generalization_gap_vs_n(criteria, tmp_path):
    t0 = time.perf_counter()
    problems, gaps = generalization_gate(tmp_path)
    dt = time.perf_counter() - t0
    criteria.check(
        10,
        "generalization gap non-increasing in n",
        not problems and dt < 900,
        "; ".join(problems) or f"gaps {gaps} over n=32,128,512 (50 seeds); {dt:.0f}s",
    )


def test_criterion_11_determinism(criteria, tmp_path):
    t0 = time.perf_counter()
    configs = [
        ExperimentConfig(
            kind="escape",
            objective={"name": "double_well_2d"},
            trials=4,
            seed=911,
            protocol={"n_steps": 150, "n_trajectories": 2},
        ),
        ExperimentConfig(
            kind="stationarity",
            objective={"name": "double_well_1d"},
            trials=48,
            seed=912,
            protocol={"beta": 0.004, "epsilon": 0.5, "n_steps": 24, "oracle_samples": 4000},
        ),
        ExperimentConfig(
            kind="beta_sweep",
            objective={"name": "double_well_2d"},
            trials=6,
            seed=913,
            protocol={"betas": [0.0, 0.01], "n_steps": 150},
        ),
        ExperimentConfig(
            kind="coupling",
            objective={"name": "double_well_1d"},
            trials=48,
            seed=914,
            protocol={"beta": 0.05, "epsilons": [0.5], "n_steps": 80},
        ),
        ExperimentConfig(
            kind="generalization",
            objective={"name": "linreg_synthetic", "n": 8, "d": 2, "noise": 0.5, "seed": 0},
            trials=2,
            seed=915,
            protocol={"n_list": [8, 16], "n_test": 32, "n_steps": 120, "batch_size": 4},
        ),
        ExperimentConfig(
            kind="baseline",
            objective={"name": "double_well_2d"},
            trials=8,
            seed=916,
            protocol={"n_steps": 100},
        ),
    ]
    mismatched = []
    for cfg in configs:
        dir_a = tmp_path / f"{cfg.kind}_a"
        dir_b = tmp_path / f"{cfg.kind}_b"
        run_experiment(cfg, dir_a)
        run_experiment(cfg, dir_b)
        if _tree_digest(dir_a) != _tree_digest(dir_b):
            mismatched.append(cfg.kind)
    dt = time.perf_counter() - t0
    criteria.check(
        11,
        "experiment reruns are byte-identical",
        not mismatched,
        (f"digest mismatch: {mismatched}" if mismatched else "all 6 experiment kinds rerun byte-for-byte")
        + f"; {dt:.0f}s",
    )
