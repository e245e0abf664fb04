"""Differential pin: the vectorized learner against a naive reference.

The reference rebuilds every (step, region) regression from the raw
transitions, solves ``(lambda*I + sum phi phi^T) theta = sum phi * target``
with ``np.linalg.solve``, and scores grid actions one at a time in Python
loops. The learner keeps Sherman-Morrison inverses, re-fits from its cached
history blocks and scores whole blocks at once; both must plan the same
tables and pick the same actions.
"""

import math

import numpy as np
import pytest

from cinderella.features import TaylorFeatureMap, enumerate_multi_indices, taylor_features
from cinderella.geometry import assign_region, build_partition
from cinderella.learner import BonusSchedule, CinderellaLearner, beta_radius
from cinderella.regression import REINVERT_EVERY

HOT_VISITS = REINVERT_EVERY + 8  # region 0 crosses one re-inversion at every step
SPREAD_VISITS = 40


def _learner(degree, horizon):
    part = build_partition(2, 0.5)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, degree))
    schedule = BonusSchedule(
        delta=0.1,
        lam_reg=1.0,
        l_phi=fmap.norm_bound,
        r_max=1.0,
        n_regions=part.n_regions,
        d_feat=fmap.dim_features,
        episodes=64,
        horizon=horizon,
        inherent_bound=0.01,
        bonus_scale=0.3,
    )
    return CinderellaLearner(part, fmap, schedule, state_dim=1, action_points_per_axis=9)


def _feed(learner, rng):
    """Random transitions at every step; returns them as (h, s, a, r, s') tuples."""
    records = []
    for i in range(HOT_VISITS + SPREAD_VISITS):
        for h in range(1, learner.H + 1):
            hi = -0.05 if i < HOT_VISITS else 1.0
            s, a = rng.uniform(-1.0, hi, size=1), rng.uniform(-1.0, hi, size=1)
            r = float(rng.uniform(-1.5, 1.5))  # wide enough to hit both target clips
            s_next = rng.uniform(-1.0, 1.0, size=1) if h < learner.H else None
            learner.observe_transition(h, s, a, r, s_next)
            records.append((h, s, a, r, s_next))
    return records


class _Reference:
    """Per-(h, n) linear solves and loop-based scoring over the raw records."""

    def __init__(self, learner, records, k):
        self.fmap, self.part = learner.fmap, learner.partition
        self.actions = list(learner.actions)
        sch = learner.schedule
        H, N, d = learner.H, learner.N, learner.d
        lo, hi = learner.clip_lo, learner.clip_hi
        self.lam = np.zeros((H + 1, N, d, d))
        self.lam[1:] = np.eye(d) * sch.lam_reg
        counts = np.zeros((H + 1, N), dtype=int)
        for h, s, a, _, _ in records:
            phi, n = self._point(s, a)
            self.lam[h, n] += np.outer(phi, phi)
            counts[h, n] += 1
        self.counts = counts
        self.alpha = np.zeros((H + 1, N))
        for h in range(1, H + 1):
            for n in range(N):
                self.alpha[h, n] = (
                    beta_radius(sch, k)
                    + math.sqrt(counts[h, n]) * sch.inherent_bound
                    + sch.r_max / sch.lam_reg
                )
        self.theta = np.zeros((H + 1, N, d))
        for h in range(H, 0, -1):
            rhs = np.zeros((N, d))
            for hh, s, a, r, s_next in records:
                if hh != h:
                    continue
                v_next = 0.0
                if h < H:
                    v_next = max(
                        min(max(self.score(h + 1, s_next, b), 0.0), 1.0) for b in self.actions
                    )
                phi, n = self._point(s, a)
                rhs[n] += phi * min(max(r + v_next, lo), hi)
            for n in range(N):
                self.theta[h, n] = np.linalg.solve(self.lam[h, n], rhs[n])

    def _point(self, s, a):
        z = np.concatenate([s, a])
        return taylor_features(self.fmap, z), assign_region(self.part, z)

    def score(self, h, s, a):
        phi, n = self._point(s, a)
        quad = phi @ np.linalg.solve(self.lam[h, n], phi)
        return phi @ self.theta[h, n] + self.alpha[h, n] * math.sqrt(max(quad, 0.0))

    def act(self, h, s):
        best, best_score = 0, -math.inf
        for i, a in enumerate(self.actions):
            sc = self.score(h, s, a)
            if sc > best_score:
                best, best_score = i, sc
        return self.actions[best]


@pytest.mark.parametrize("horizon", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2])  # d = 1, 3, 6 features in two dimensions
def test_learner_matches_naive_reference(degree, horizon):
    rng = np.random.default_rng(1000 + 10 * degree + horizon)
    learner = _learner(degree, horizon)
    records = _feed(learner, rng)
    learner.k = 37
    learner.plan()
    ref = _Reference(learner, records, learner.k + 1)

    assert learner.d == (1, 3, 6)[degree]
    assert learner.counts[1:, 0].min() > REINVERT_EVERY
    np.testing.assert_array_equal(learner.counts, ref.counts)
    np.testing.assert_allclose(learner.lam_all[1:], ref.lam[1:], rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(learner.alpha_all, ref.alpha, rtol=0, atol=1e-9)
    np.testing.assert_allclose(learner.theta_hat_all, ref.theta, rtol=0, atol=1e-9)
    for h in range(1, horizon + 1):
        for s in rng.uniform(-1.0, 1.0, size=(6, 1)):
            np.testing.assert_array_equal(learner.act(h, s), ref.act(h, s))
