"""Optimistic region-wise value iteration for continuous state-action MDPs.

The library partitions the state-action cube into an epsilon-cover of boxes,
attaches local Taylor monomial features to each cell, and learns one
optimistic ridge regression per (step, region). Grid-based dynamic
programming oracles provide ground truth for regret measurement.
"""

from .envs import (
    EnvironmentModel,
    LearnerView,
    Transition,
    env_exact_linear,
    env_smooth_drift,
    env_uniform_shift,
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
    taylor_remainder_check,
)
from .geometry import (
    Partition,
    assign_regions,
    auto_epsilon,
    build_partition,
)
from .harness import (
    RegretTrace,
    RunConfig,
    load_config,
    make_rng,
    run_experiment,
    run_sweep,
)
from .learner import (
    BonusSchedule,
    CinderellaLearner,
    alpha_radius,
    beta_radius,
)
from .oracle import (
    GridDP,
    InherentErrorReport,
    dp_solve,
    inherent_error_estimate,
    policy_eval_tables,
    policy_value,
    policy_values,
    random_policy_gap,
)
from .regression import mahalanobis_inv_norm, ridge_update

__version__ = "0.1.0"

__all__ = [
    "BonusSchedule",
    "CinderellaLearner",
    "EnvironmentModel",
    "GridDP",
    "InherentErrorReport",
    "LearnerView",
    "MultiIndexSet",
    "Partition",
    "RegretTrace",
    "RunConfig",
    "TaylorFeatureMap",
    "Transition",
    "alpha_radius",
    "assign_regions",
    "auto_epsilon",
    "beta_radius",
    "build_partition",
    "dp_solve",
    "enumerate_multi_indices",
    "env_exact_linear",
    "env_smooth_drift",
    "env_uniform_shift",
    "extend_features",
    "feature_matrix",
    "inherent_error_estimate",
    "load_config",
    "mahalanobis_inv_norm",
    "make_rng",
    "nu_star",
    "policy_eval_tables",
    "policy_value",
    "policy_values",
    "random_policy_gap",
    "ridge_update",
    "run_episode",
    "run_experiment",
    "run_sweep",
    "taylor_features",
    "taylor_remainder_check",
]
