"""Discrete bouncy particle sampler: straight-line moves at random event
radii, then a stochastic choice between gradient reflection and uniform
velocity refreshment.

The event rate along the ray is ``beta * <grad L(theta + r v), v>_+ +
Lambda_ref + C_B`` with the full-batch gradient. After the move, reflection
is chosen with probability ``(beta * <grad L, v>_+ + C_B) / (beta *
<grad L, v>_+ + Lambda_ref + C_B)`` evaluated at the new point; otherwise the
velocity refreshes uniformly on the sphere. In coupling mode the constants
satisfy ``Lambda_ref + C_B = beta * M + 1/epsilon``, matching the optimizer's
constant floor, which is what makes the two chains directly comparable.

The sampler runs on the optimizer's lock-step chain loop
(``optimizer._run_chains``): ``BpsConfig`` supplies only its constants and
its velocity turn (reflect or refresh, with the refreshes counted), so both
chains share every other line of the step. The loop reports the refresh
count as ``extras["refresh_fraction"]``, per chain-step. ``run_bps`` is the
one-chain case that returns the chain's record, with the event tag and
reflect probability of every kept step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .metrics import sliced_wasserstein1
from .objectives import Objective
from .optimizer import (
    EnsembleResult,
    PoissonSgdConfig,
    _check_chain_fields,
    _run_chains,
    _run_one,
    reflect,
    run_poisson_sgd_ensemble,
)
from .records import RunRecord
from .sampler import RngStream, uniform_sphere

__all__ = [
    "BpsConfig",
    "run_bps",
    "run_bps_ensemble",
    "CoupledCompareResult",
    "coupled_compare",
]


@dataclass(frozen=True)
class BpsConfig:
    """Sampler constants. ``lambda_ref`` must be strictly positive so the
    chain refreshes with positive probability; ``c_b`` may be zero.

    ``epsilon`` is optional bookkeeping: when set, the config asserts the
    coupling constraint ``lambda_ref + c_b = beta * grad_norm_bound +
    1/epsilon`` via :meth:`validate_coupling` (construct with
    :meth:`coupled` to get it by definition).
    """

    kind: ClassVar[str] = "bps"
    counts: ClassVar[tuple[str, ...]] = ("refresh",)
    # the sampler always runs full batch and records no risk
    batch_size: ClassVar[int] = 0
    record_risk: ClassVar[bool] = False

    beta: float
    lambda_ref: float
    c_b: float
    n_steps: int
    epsilon: float | None = None
    initial_point: tuple[float, ...] | None = None
    initial_velocity: tuple[float, ...] | None = None
    seed: int = 0
    record_stride: int = 1

    def __post_init__(self) -> None:
        _check_chain_fields(self)
        if not (math.isfinite(self.lambda_ref) and self.lambda_ref > 0.0):
            raise ValueError("lambda_ref must be strictly positive")
        if not (math.isfinite(self.c_b) and self.c_b >= 0.0):
            raise ValueError("c_b must be >= 0")
        if self.epsilon is not None and not (
            math.isfinite(self.epsilon) and self.epsilon > 0.0
        ):
            raise ValueError("epsilon must be positive when given")

    @classmethod
    def coupled(
        cls,
        beta: float,
        epsilon: float,
        grad_norm_bound: float,
        c_b: float = 0.0,
        **kwargs,
    ) -> "BpsConfig":
        """Constants matched to the optimizer: lambda_ref + c_b = beta*M + 1/eps.

        The split is a free knob; the default ``c_b = 0`` maximizes
        refreshment and gives the classical reflect probability
        ``lambda / (lambda + lambda_ref)``.
        """
        total = beta * grad_norm_bound + 1.0 / epsilon
        lambda_ref = total - c_b
        if lambda_ref <= 0.0:
            raise ValueError(
                f"c_b={c_b} leaves no room for a positive lambda_ref "
                f"(coupled total is {total})"
            )
        return cls(
            beta=beta, lambda_ref=lambda_ref, c_b=c_b, epsilon=epsilon, **kwargs
        )

    @property
    def floor(self) -> float:
        """Constant part of the event rate."""
        return self.lambda_ref + self.c_b

    def ceiling(self, grad_norm_bound: float) -> float:
        return self.beta * grad_norm_bound + self.floor

    def validate_coupling(self, grad_norm_bound: float) -> None:
        if self.epsilon is None:
            raise ValueError("config has no epsilon: not in coupling mode")
        total = self.beta * grad_norm_bound + 1.0 / self.epsilon
        if abs(self.floor - total) > 1e-9 * max(1.0, total):
            raise ValueError(
                f"coupling violated: lambda_ref + c_b = {self.floor} but "
                f"beta*M + 1/epsilon = {total}"
            )

    def turn(self, vels: np.ndarray, grads: np.ndarray, rng: RngStream):
        """Reflect or refresh each velocity; tags each chain's event and
        counts the refreshes.

        Draws ``random(N)`` for the reflect-or-refresh choices, then ``N``
        fresh sphere directions, whichever chains use them.
        """
        n, d = vels.shape
        lam = self.beta * np.maximum(np.einsum("nd,nd->n", grads, vels), 0.0)
        p_reflect = (lam + self.c_b) / (lam + self.lambda_ref + self.c_b)
        do_reflect = rng.generator.random(n) < p_reflect
        fresh = uniform_sphere(d, rng, n)

        def tags(i: int) -> dict:
            event = "reflect" if do_reflect[i] else "refresh"
            return {"event": event, "p_reflect": float(p_reflect[i])}

        turned = np.where(do_reflect[:, None], reflect(vels, grads), fresh)
        return turned, tags, {"refresh": n - np.count_nonzero(do_reflect)}


def run_bps(objective: Objective, cfg: BpsConfig) -> RunRecord:
    """Run one chain for K events and return its stride-thinned record with
    event tags; the chain is chain 0 of the one-chain ensemble seeded by
    ``cfg.seed``."""
    return _run_one(objective, cfg)


def run_bps_ensemble(
    objective: Objective,
    cfg: BpsConfig,
    n_chains: int,
    rng: RngStream | None = None,
    initial_points: np.ndarray | None = None,
    initial_velocities: np.ndarray | None = None,
    snapshot_steps: Sequence[int] = (),
    record_chains: Sequence[int] = (),
) -> EnsembleResult:
    """Lock-step vectorized ensemble of independent sampler chains.

    Takes the same arguments as ``run_poisson_sgd_ensemble``; the extras
    track the realized refresh fraction, which stationarity diagnostics use.
    """
    return _run_chains(
        objective, cfg, n_chains, rng, initial_points, initial_velocities, snapshot_steps, record_chains
    )


@dataclass(frozen=True)
class CoupledCompareResult:
    sliced_w1: float
    optimizer_thetas: np.ndarray
    sampler_thetas: np.ndarray


def coupled_compare(
    objective: Objective,
    beta: float,
    epsilon: float,
    n_steps: int,
    trials: int,
    seed: int = 0,
    c_b: float = 0.0,
    n_proj: int = 128,
) -> CoupledCompareResult:
    """Distance between the optimizer's and the sampler's step-K position laws.

    Both chains run full batch with matched constants (optimizer floor
    ``1/epsilon``; sampler floor ``beta*M + 1/epsilon``) from identical
    initial positions and velocities, one pair per trial; returns the sliced
    Wasserstein distance between the two endpoint clouds.
    """
    rng = RngStream(int(seed), spawn_key=(3,))
    domain = objective.domain
    inits = domain.sample_uniform(rng.generator, trials)
    init_vels = uniform_sphere(domain.dim, rng, trials)

    opt_cfg = PoissonSgdConfig(beta=beta, epsilon=epsilon, n_steps=n_steps, seed=seed)
    opt = run_poisson_sgd_ensemble(
        objective,
        opt_cfg,
        trials,
        rng=rng.child(0),
        initial_points=inits,
        initial_velocities=init_vels,
    )
    bps_cfg = BpsConfig.coupled(
        beta=beta,
        epsilon=epsilon,
        grad_norm_bound=objective.grad_norm_bound,
        c_b=c_b,
        n_steps=n_steps,
        seed=seed,
    )
    smp = run_bps_ensemble(
        objective,
        bps_cfg,
        trials,
        rng=rng.child(1),
        initial_points=inits,
        initial_velocities=init_vels,
    )
    distance = sliced_wasserstein1(opt.thetas, smp.thetas, n_proj=n_proj, rng=rng.child(2))
    return CoupledCompareResult(
        sliced_w1=distance, optimizer_thetas=opt.thetas, sampler_thetas=smp.thetas
    )
