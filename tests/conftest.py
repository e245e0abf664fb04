import math

import numpy as np
import pytest

from cinderella.features import taylor_features
from cinderella.geometry import assign_regions
from cinderella.learner import CinderellaLearner


def sin2x(pts):
    return np.sin(2.0 * pts[:, 0])


def sin2x_derivative(alpha, center):
    k = alpha[0]
    return 2.0**k * math.sin(2.0 * center[0] + k * math.pi / 2.0)


def naive_row(fmap, s, a):
    """Regression row ``(phi, region)`` of one (state, action) pair, computed point by point."""
    z = np.concatenate([s, a])
    return taylor_features(fmap, z), int(assign_regions(fmap.partition, z[None, :])[0])


def clipped_q(learner, h, z):
    """The learner's optimistic step-h Q at the point ``z``, clipped to [0, 1]."""
    phi, region = naive_row(learner.fmap, z[:1], z[1:])
    return float(np.clip(learner._scores(h, phi[None, :], np.array([region]))[0], 0.0, 1.0))


def record_played(monkeypatch):
    """A list that gets each episode's z1 = (s1, a1) and the policy table it played."""
    played = []
    episode = CinderellaLearner.__dict__["plan_and_act_episode"]

    def recording(self, env, s1, rng):
        transitions, total = episode(self, env, s1, rng)
        played.append((np.concatenate([s1, transitions[0].action]), self.last_policy_actions))
        return transitions, total

    monkeypatch.setattr(CinderellaLearner, "plan_and_act_episode", recording)
    return played


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
