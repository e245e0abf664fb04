#!/usr/bin/env python3
"""Walkthrough: grid-DP ground truth and the class-misspecification audit.

Solves the benchmark environments by backward induction on a fine grid, then
estimates how well per-cell linear value functions can track Bellman backups
as the cells shrink.
"""

import numpy as np

from cinderella import (
    TaylorFeatureMap,
    build_partition,
    dp_solve,
    enumerate_multi_indices,
    env_smooth_drift,
    env_uniform_shift,
    inherent_error_estimate,
    policy_eval_tables,
    policy_value,
    random_policy_gap,
)

s1 = np.zeros(1)

for env in (env_uniform_shift(0.5, horizon=2), env_smooth_drift(0.5, 0.3, horizon=2)):
    dp = dp_solve(env, m_state=129, m_action=65)
    vstar = dp.value_at(s1)
    # The uniform-random value is the same grid backup, with the mean over actions for the max.
    v_rand = vstar - random_policy_gap(env, dp, s1)
    rewards, kernel = policy_eval_tables(env, dp, dp.action_points)
    greedy = dp.q.argmax(axis=2)  # one action index per (step, grid state)
    # V^pi(s1) of the policy playing a1 at s1, then the greedy table; s1 = 0 is the middle
    # grid state.
    z1 = np.concatenate([s1, dp.action_points[greedy[1, len(dp.state_points) // 2]]])
    v_greedy = policy_value(env, rewards, kernel, z1, greedy)
    print(f"{env.name}: V*(0) = {vstar:.4f}, random policy {v_rand:.4f}, "
          f"greedy-from-oracle {v_greedy:.4f}")

# How wrong can the best per-cell constant fit of a Bellman backup be? The
# uniform-shift kernel is only mildly smooth, yet the audit shows the gap
# shrinking roughly linearly with the cover radius, as nu = 1 predicts.
env = env_uniform_shift(0.5, horizon=2)
print(f"\n{env.name}: misspecification estimate vs cover radius")
for eps in (0.5, 0.25, 0.125):
    part = build_partition(2, eps)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 0))
    rep = inherent_error_estimate(
        env, fmap, theta_box_radius=2.0 * env.c_t, m_state=33, m_action=17
    )
    print(f"  eps={eps:<5} regions={part.n_regions:>3}  estimate {rep.estimate:.4f} "
          f"(witness step {rep.witness_step} at z={np.round(rep.witness_point, 2)})")
