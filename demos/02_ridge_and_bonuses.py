#!/usr/bin/env python3
"""Walkthrough: incremental ridge regression and shrinking exploration bonuses.

The learner prices uncertainty with the design-matrix norm
``radius * sqrt(phi^T Lambda^-1 phi)``. This script shows the rank-1 inverse
updates staying accurate and the bonus collapsing as data accumulates.
"""

import numpy as np

from cinderella import (
    BonusSchedule,
    TaylorFeatureMap,
    alpha_radius,
    beta_radius,
    build_partition,
    enumerate_multi_indices,
    mahalanobis_inv_norm,
    ridge_update,
)

rng = np.random.default_rng(1)
d = 6
lam, lam_inv = np.eye(d), np.eye(d)  # regularizer lambda = 1
bvec = np.zeros(d)  # sum of phi * target; the learner re-fits this from its history
theta_true = rng.normal(size=d)
theta_true /= np.linalg.norm(theta_true)

probe = rng.normal(size=d)
print("visit count | estimate error | bonus norm at probe | inverse drift")
for n in range(1, 2001):
    phi = rng.uniform(-1, 1, size=d)
    ridge_update(lam, lam_inv, phi, n)
    bvec += phi * float(phi @ theta_true)
    if n in (1, 10, 100, 500, 2000):
        err = np.linalg.norm(lam_inv @ bvec - theta_true)
        bonus = mahalanobis_inv_norm(lam_inv, probe)
        drift = np.max(np.abs(lam_inv - np.linalg.inv(lam)))
        print(f"{n:>11} | {err:14.6f} | {bonus:19.6f} | {drift:.2e}")

# The confidence radius grows slowly (logarithmically) with the episode index
# while the per-point norm decays like 1/sqrt(visits), so bonuses vanish.
# The radii read N, d and the feature-norm bound from the feature map: 4
# regions of the 6 degree-2 monomials in (s, a).
fmap = TaylorFeatureMap(build_partition(2, 0.5), enumerate_multi_indices(2, 2))
schedule = BonusSchedule(delta=0.1, lam_reg=1.0, r_max=1.0, episodes=4096, horizon=2)
print("\nepisode | concentration radius | feasibility radius (at count=k)")
for k in (1, 16, 256, 4096):
    beta, alpha = beta_radius(schedule, fmap, k), alpha_radius(schedule, fmap, k, k)
    print(f"{k:>7} | {beta:20.4f} | {alpha:.4f}")
