"""Optimistic region-wise value iteration for continuous state-action MDPs.

The library partitions the state-action cube into an epsilon-cover of boxes,
attaches local Taylor monomial features to each cell, and learns one
optimistic ridge regression per (step, region). Grid-based dynamic
programming oracles provide ground truth for regret measurement.
"""

from .envs import (
    EnvironmentModel,
    Transition,
    env_exact_linear,
    env_smooth_drift,
    env_uniform_shift,
    learner_view,
    run_episode,
)
from .features import (
    MultiIndexSet,
    TaylorFeatureMap,
    enumerate_multi_indices,
    extend_features,
    feature_matrix,
    nu_star,
    taylor_features,
)
from .geometry import (
    Partition,
    assign_region,
    assign_regions,
    auto_epsilon,
    build_partition,
)
from .harness import (
    RegretTrace,
    RunConfig,
    check_suite,
    load_config,
    make_rng,
    random_policy_gap,
    run_experiment,
    run_sweep,
)
from .learner import (
    BonusSchedule,
    CinderellaLearner,
    ThetaTable,
    alpha_radius,
    beta_radius,
    solve_exact_grid,
)
from .oracle import (
    GridDP,
    InherentErrorReport,
    dp_solve,
    inherent_error_estimate,
    policy_value,
    random_policy_value,
    taylor_remainder_check,
)
from .regression import mahalanobis_inv_norm, ridge_update

__version__ = "0.1.0"

__all__ = [
    "BonusSchedule",
    "CinderellaLearner",
    "EnvironmentModel",
    "GridDP",
    "InherentErrorReport",
    "MultiIndexSet",
    "Partition",
    "RegretTrace",
    "RunConfig",
    "TaylorFeatureMap",
    "ThetaTable",
    "Transition",
    "alpha_radius",
    "assign_region",
    "assign_regions",
    "auto_epsilon",
    "beta_radius",
    "build_partition",
    "check_suite",
    "dp_solve",
    "enumerate_multi_indices",
    "env_exact_linear",
    "env_smooth_drift",
    "env_uniform_shift",
    "extend_features",
    "feature_matrix",
    "inherent_error_estimate",
    "learner_view",
    "load_config",
    "make_rng",
    "mahalanobis_inv_norm",
    "nu_star",
    "policy_value",
    "random_policy_gap",
    "random_policy_value",
    "ridge_update",
    "run_episode",
    "run_experiment",
    "run_sweep",
    "solve_exact_grid",
    "taylor_features",
    "taylor_remainder_check",
]
