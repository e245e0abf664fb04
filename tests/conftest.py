import math

import numpy as np
import pytest

from cinderella.features import taylor_features
from cinderella.geometry import assign_regions
from cinderella.harness import STREAM_ENV, RunConfig, build_env, build_learner, make_rng
from cinderella.learner import CinderellaLearner
from cinderella.oracle import dp_solve


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
    return float(np.clip(learner._scores(h, phi[:, None], np.array([region]))[0], 0.0, 1.0))


def record_played(monkeypatch):
    """A list that gets each episode's z1 = (s1, a1) and the policy table it played."""
    played = []
    episode = CinderellaLearner.__dict__["plan_and_act_episode"]

    def recording(self, env, s1, rng):
        transitions, total = episode(self, env, s1, rng)
        played.append((np.concatenate([s1, transitions[0].action]), self.policy.picks))
        return transitions, total

    monkeypatch.setattr(CinderellaLearner, "plan_and_act_episode", recording)
    return played


def tiny_exact_linear_setup(
    episodes: int, bonus_scale: float = 1.0, delta: float = 0.1, r_max: float = 1.0
):
    """One-step, one-region, constant-feature instance for optimism studies."""
    config = RunConfig(
        env_name="exact_linear",
        env_params={"theta": [[0.5]], "reward_noise_sigma": 0.2},
        episodes=episodes,
        horizon=1,
        nu=1.0,
        epsilon=1.0,
        delta=delta,
        bonus_scale=bonus_scale,
        r_max=r_max,
        planner="exact-grid",
        oracle_m_state=65,
        oracle_m_action=21,
    )
    env = build_env(config)
    dp = dp_solve(env, config.oracle_m_state, config.oracle_m_action)
    return env, build_learner(config, dp.state_points), dp


def optimism_rate(
    n_seeds: int,
    episodes_per_seed: int,
    bonus_scale: float = 1.0,
    delta: float = 0.1,
    tol: float = 1e-6,
    r_max: float = 1.0,
) -> float:
    """Fraction of episode-seed pairs with optimistic initial value >= V*.

    Uses the exact-grid planner on the tiny linear instance, so the episode's
    claimed value is the solved program objective. ``bonus_scale = 0`` and
    ``r_max = 0`` make every radius zero, so the plan is the bare ridge fit.
    """
    s1 = np.zeros(1)
    hits = 0
    total = 0
    for seed in range(n_seeds):
        env, learner, dp = tiny_exact_linear_setup(
            episodes_per_seed, bonus_scale=bonus_scale, delta=delta, r_max=r_max
        )
        vstar = dp.value_at(s1)
        for k in range(1, episodes_per_seed + 1):
            learner.plan_and_act_episode(env, s1, make_rng(seed, k, 0, STREAM_ENV))
            vbar = learner.value_estimate(s1)
            hits += int(vbar >= vstar - tol)
            total += 1
    return hits / total


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
