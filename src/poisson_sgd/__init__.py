"""Stochastic gradient descent with an exponentially distributed learning
rate, the bounce sampler it couples to, and their shared stationary law.

The optimizer draws each step size from the first arrival of a Poisson
process whose rate grows with the directional derivative along the current
velocity, then reflects the velocity about the gradient at the new point.
The sampler replaces minibatch gradients with full ones and mixes
reflections with uniform velocity refreshes. Both live on a flat torus and,
with matched constants, share the closed-form stationary density implemented
in :mod:`poisson_sgd.stationary`.
"""

__version__ = "0.1.0"

from .bps import (
    BpsConfig,
    CoupledCompareResult,
    coupled_compare,
    run_bps,
    run_bps_ensemble,
)
from .domain import TorusDomain
from .metrics import (
    WassersteinBoundResult,
    histogram_tv,
    ks_statistic,
    lemma_wasserstein_bound_check,
    sliced_wasserstein1,
    wasserstein1_1d,
)
from .objectives import (
    BUILTIN_OBJECTIVES,
    AnalyticObjective,
    GradientBoundError,
    LinearRegressionObjective,
    Objective,
    ObjectiveMetadata,
    QuadraticBowlObjective,
    build_objective,
    double_well_1d,
    double_well_2d,
    linreg_synthetic,
    quadratic_bowl,
)
from .optimizer import (
    EnsembleResult,
    PoissonSgdConfig,
    reflect,
    run_poisson_sgd,
    run_poisson_sgd_ensemble,
)
from .records import RunRecord, canonical_json
from .sampler import (
    RateBoundError,
    RayCdfInverter,
    RngStream,
    ray_rate_rows,
    thin_first_arrivals,
    uniform_sphere,
)
from .stationary import (
    EnvelopeError,
    GridDensity,
    StationaryDensity,
    gamma_ratio_fences,
    grid_mean_risk,
    sphere_cos_abs_mean,
    sphere_cos_plus_mean,
)
from .experiments import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    analyze_experiment,
    run_experiment,
)

__all__ = [
    "__version__",
    # domain
    "TorusDomain",
    # randomness and event times
    "RngStream",
    "uniform_sphere",
    "ray_rate_rows",
    "RateBoundError",
    "RayCdfInverter",
    "thin_first_arrivals",
    # objectives
    "Objective",
    "ObjectiveMetadata",
    "AnalyticObjective",
    "QuadraticBowlObjective",
    "LinearRegressionObjective",
    "GradientBoundError",
    "build_objective",
    "BUILTIN_OBJECTIVES",
    "double_well_1d",
    "double_well_2d",
    "quadratic_bowl",
    "linreg_synthetic",
    # optimizer
    "PoissonSgdConfig",
    "reflect",
    "run_poisson_sgd",
    "run_poisson_sgd_ensemble",
    "EnsembleResult",
    # sampler chain
    "BpsConfig",
    "run_bps",
    "run_bps_ensemble",
    "coupled_compare",
    "CoupledCompareResult",
    # stationary law
    "StationaryDensity",
    "GridDensity",
    "EnvelopeError",
    "grid_mean_risk",
    "sphere_cos_abs_mean",
    "sphere_cos_plus_mean",
    "gamma_ratio_fences",
    # distances and bounds
    "wasserstein1_1d",
    "sliced_wasserstein1",
    "histogram_tv",
    "ks_statistic",
    "lemma_wasserstein_bound_check",
    "WassersteinBoundResult",
    # records and experiments
    "RunRecord",
    "canonical_json",
    "ExperimentConfig",
    "run_experiment",
    "analyze_experiment",
    "EXPERIMENT_KINDS",
]
