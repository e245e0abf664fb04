"""Metric names, units, and the layer-to-end-to-end map the benchmark reports.

``BENCHMARK.json`` at the repository root repeats the names and units (with
bounds and directions); the smoke test keeps the two in step.
"""

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "episode_ms.p50": "ms",
    "episode_ms.p99": "ms",
    "peak_rss_mb": "MB",
    "regret_avg": "V/episode",
}

PER_LAYER = {
    "geometry.assign_regions.calls": "count",
    "geometry.assign_regions.points": "count",
    "geometry.assign_regions.self_s": "s",
    "features.features_at_centers.calls": "count",
    "features.features_at_centers.rows": "count",
    "features.features_at_centers.self_s": "s",
    "regression.ridge_update.calls": "count",
    "regression.ridge_update.self_s": "s",
    "regression.reinversions": "count",
    "envs.run_episode.calls": "count",
    "envs.run_episode.self_s": "s",
    "learner.act.self_s": "s",
    "learner.observe_transition.self_s": "s",
    "learner.plan.calls": "count",
    "learner.plan.self_s": "s",
    "learner.plan.total_s": "s",
    "learner.plan.rows_scored": "count",
    "learner.greedy_action_indices.total_s": "s",
    "learner.optimism_rate": "ratio",
    "oracle.dp_solve.self_s": "s",
    "oracle.policy_eval.self_s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.core_utilization": "ratio",
    "trace.overhead": "ratio",
}

# Which end-to-end metric each layer metric is expected to move, and where.
# Written down before any optimisation is measured against it.
MOVES = {
    "geometry.assign_regions.*": "episodes_per_s, episode_ms.p50 on uniform_shift_k1024; "
    "under 10% of wall on smooth_drift_nu3",
    "features.features_at_centers.*": "episodes_per_s, episode_ms.p50 on uniform_shift_k1024; "
    "under 10% of wall on smooth_drift_nu3",
    "regression.*": "episodes_per_s, episode_ms.p50 on uniform_shift_k1024; "
    "under 10% of wall on smooth_drift_nu3",
    "envs.run_episode.*": "episodes_per_s on uniform_shift_k1024",
    "learner.act.self_s": "episodes_per_s on uniform_shift_k1024",
    "learner.observe_transition.self_s": "episodes_per_s on uniform_shift_k1024 "
    "(a plan-side cache that costs time on writes shows here)",
    "learner.plan.*": "episode_ms.p99, episodes_per_s on smooth_drift_nu3",
    "learner.greedy_action_indices.total_s": "episode_ms.p99, episodes_per_s on smooth_drift_nu3",
    "learner.optimism_rate": "none: must stay put on every workload",
    "oracle.dp_solve.self_s": "setup_s, mainly on fine_oracle_h3",
    "oracle.policy_eval.self_s": "episodes_per_s on fine_oracle_h3 and uniform_shift_k1024",
    "harness.run_experiment.self_s": "loop residue; episodes_per_s on every workload",
    "harness.core_utilization": "none today: every workload is one single-threaded run, "
    "so it reads about 1; it moves only if a run starts using more cores",
    "trace.overhead": "none: cost of the tracing wrappers themselves",
}
