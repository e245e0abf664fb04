import numpy as np
import pytest
from scipy.special import ndtr

import cinderella.envs as envs
from cinderella.envs import (
    LearnerView,
    env_exact_linear,
    env_smooth_drift,
    env_uniform_shift,
    run_episode,
)
from cinderella.features import TaylorFeatureMap, enumerate_multi_indices, feature_matrix
from cinderella.geometry import build_partition
from cinderella.oracle import dp_solve


def _linear_fmap(degree=1, eps=1.0):
    part = build_partition(2, eps)
    return TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, degree))


def test_uniform_shift_support(rng):
    env = env_uniform_shift(0.5, horizon=2)
    for s in (-1.0, 0.0, 1.0):
        Z = np.array([[s, 0.3]] * 2000)
        nxt = env.transition_sample(Z, rng)
        lo, hi = 0.5 * s, 0.5 * s + 0.5
        assert nxt.min() >= lo and nxt.max() <= hi
        assert np.all(np.abs(nxt) <= 1.0)


def test_uniform_shift_rejects_bad_beta():
    with pytest.raises(ValueError):
        env_uniform_shift(0.0)
    with pytest.raises(ValueError):
        env_uniform_shift(1.0)


def test_uniform_shift_zero_reward_optimal_value():
    env = env_uniform_shift(0.5, reward="zero", horizon=2)
    dp = dp_solve(env, 65, 33)
    assert dp.value_at(np.zeros(1)) == pytest.approx(0.0, abs=1e-12)


def test_uniform_shift_constant_reward_telescopes():
    env = env_uniform_shift(0.5, reward="constant", horizon=3)
    dp = dp_solve(env, 65, 33)
    assert dp.value_at(np.zeros(1)) == pytest.approx(1.0, abs=1e-9)


def test_smooth_drift_density_integrates(rng):
    env = env_smooth_drift(0.5, 0.3, horizon=2)
    sp = np.linspace(-1, 1, 512)[:, None]
    Z = rng.uniform(-1, 1, size=(32, 2))
    dens = env.transition_density(env.transition_key(Z), sp)
    assert np.all(dens >= 0.0)
    totals = dens.sum(axis=1) * (2.0 / 511)
    np.testing.assert_allclose(totals, 1.0, atol=1e-2)


def test_smooth_drift_density_matches_closed_form():
    env = env_smooth_drift(0.5, 0.3, horizon=2)
    sp = np.linspace(-1.0, 1.0, 33)[:, None]
    Z = np.stack(np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9)), -1).reshape(-1, 2)
    mu = Z[:, 0] + 0.5 * Z[:, 1]
    mass = ndtr((1.0 - mu) / 0.3) - ndtr((-1.0 - mu) / 0.3)
    x = (sp[:, 0][None, :] - mu[:, None]) / 0.3
    want = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi) / (0.3 * mass)[:, None]
    np.testing.assert_array_equal(env.transition_density(env.transition_key(Z), sp), want)


def test_smooth_drift_reward_normalized():
    env = env_smooth_drift(0.5, 0.3, horizon=4)
    Z = np.stack(np.meshgrid(np.linspace(-1, 1, 64), np.linspace(-1, 1, 64)), -1).reshape(-1, 2)
    r = env.reward_mean(1, Z)
    assert r.max() <= 1.0 / 4 + 1e-12 and r.min() >= 0.0


def test_smooth_drift_rejects_degenerate_kernel():
    with pytest.raises(ValueError, match="kernel mass"):
        env_smooth_drift(8.0, 0.01, horizon=2)


def test_smooth_drift_concentrates_without_drift(rng):
    env = env_smooth_drift(0.0, 0.02, horizon=2)
    Z = np.array([[0.3, -0.8]] * 500)
    nxt = env.transition_sample(Z, rng)
    assert np.max(np.abs(nxt - 0.3)) < 0.12


def test_sampled_states_stay_in_cube(rng):
    for env in (env_uniform_shift(0.7, horizon=2), env_smooth_drift(0.9, 0.4, horizon=2)):
        Z = rng.uniform(-1, 1, size=(100_000, 2))
        nxt = env.transition_sample(Z, rng)
        assert np.all(np.abs(nxt) <= 1.0)


def test_exact_linear_bandit_q_is_linear():
    fmap = _linear_fmap()
    theta = np.array([[0.4, 0.05, 0.2]])
    env = env_exact_linear(theta, fmap, horizon=1)
    Z = np.array([[0.0, 1.0], [0.5, -0.5]])
    want = np.array([0.4 + 0.2, 0.4 + 0.025 - 0.1])
    np.testing.assert_allclose(env.reward_mean(1, Z), want)


def test_exact_linear_greedy_matches_dp_policy():
    fmap = _linear_fmap()
    theta = np.array([[0.4, 0.05, 0.2]])
    env = env_exact_linear(theta, fmap, horizon=1)
    dp = dp_solve(env, 65, 33)
    # argmax of a linear-in-a reward is the right endpoint everywhere
    for i in range(0, 65, 7):
        assert dp.action_points[dp.q[1, i].argmax()][0] == pytest.approx(1.0)


def test_exact_linear_rejects_unnormalized_theta():
    fmap = _linear_fmap()
    with pytest.raises(ValueError, match="invalid theta"):
        env_exact_linear(np.array([[2.0, 0.0, 0.0]]), fmap, horizon=1)
    with pytest.raises(ValueError, match="invalid theta"):
        env_exact_linear(np.array([[0.1, 0.0, 0.5]]), fmap, horizon=1)  # negative at a=-1


def test_exact_linear_builds_its_check_grids_features_once(monkeypatch):
    """At H = 3 the build computes the features of each row of its 128 x 128 check grid once,
    in blocks of 1024 rows; each step is still checked against its own theta row."""
    rows = []

    def counting(fmap, points):
        rows.append(len(points))
        return feature_matrix(fmap, points)

    monkeypatch.setattr(envs, "feature_matrix", counting)
    theta = np.array([[0.1, 0.01, 0.05], [0.2, 0.0, 0.1], [0.15, 0.05, 0.0]])
    env_exact_linear(theta, _linear_fmap(), horizon=3)
    assert sum(rows) == 128 * 128 and max(rows) == 1024
    theta[2] = [0.1, 0.0, 0.5]  # negative at a = -1
    with pytest.raises(ValueError, match="at step 3"):
        env_exact_linear(theta, _linear_fmap(), horizon=3)


def test_exact_linear_rejects_a_three_dimensional_feature_map():
    part = build_partition(3, 1.0)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(3, 0))
    with pytest.raises(ValueError, match="got dim 3"):
        env_exact_linear(np.array([[0.5]]), fmap, horizon=1)


@pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda sigma: env_uniform_shift(0.5, reward_noise_sigma=sigma),
        lambda sigma: env_smooth_drift(0.5, 0.3, reward_noise_sigma=sigma),
        lambda sigma: env_exact_linear(
            np.array([[0.4, 0.05, 0.2]]), _linear_fmap(), horizon=1, reward_noise_sigma=sigma
        ),
    ],
    ids=["uniform_shift", "smooth_drift", "exact_linear"],
)
def test_builders_reject_bad_reward_noise_sigma(build, sigma):
    with pytest.raises(ValueError, match="reward noise sigma"):
        build(sigma)


def test_run_episode_zero_reward_noise_mean(rng):
    env = env_uniform_shift(0.5, reward="zero", horizon=2, reward_noise_sigma=0.1)
    totals = []
    for _ in range(1000):
        _, ret = run_episode(env, lambda h, s: np.zeros(1), rng)
        totals.append(ret)
    sigma_total = 0.1 * np.sqrt(2)
    assert abs(np.mean(totals)) <= 3 * sigma_total / np.sqrt(1000)


def test_run_episode_constant_reward_mean(rng):
    env = env_uniform_shift(0.5, reward="constant", horizon=1, reward_noise_sigma=0.05)
    totals = [run_episode(env, lambda h, s: np.zeros(1), rng)[1] for _ in range(500)]
    assert np.mean(totals) == pytest.approx(1.0, abs=0.02)


def test_run_episode_deterministic_given_seed():
    env = env_smooth_drift(0.5, 0.3, horizon=3, reward_noise_sigma=0.0)
    policy = lambda h, s: np.array([0.25])
    t1, r1 = run_episode(env, policy, np.random.default_rng(42), s1=np.zeros(1))
    t2, r2 = run_episode(env, policy, np.random.default_rng(42), s1=np.zeros(1))
    assert r1 == r2
    for a, b in zip(t1, t2):
        np.testing.assert_array_equal(a.state, b.state)
        assert a.reward_sample == b.reward_sample


def test_run_episode_rejects_out_of_range_policy(rng):
    env = env_uniform_shift(0.5, horizon=2)
    # out of range, not a number, just below -1; two action coordinates
    for action in ([1.5], [np.nan], [-np.inf], [-1.0 - 1e-9], [0.1, 0.2]):
        with pytest.raises(ValueError, match="out of"):
            run_episode(env, lambda h, s: np.array(action), rng)
    for action in (-1.0, 1.0):  # the ends of the range are actions
        transitions, _ = run_episode(env, lambda h, s: np.array([action]), rng)
        assert [tr.action[0] for tr in transitions] == [action, action]


def test_run_episode_rejects_an_initial_state_of_two_coordinates(rng):
    env = env_uniform_shift(0.5, horizon=2)
    with pytest.raises(ValueError, match="initial state must be one coordinate"):
        run_episode(env, lambda h, s: np.zeros(1), rng, s1=np.array([0.1, -0.9]))


def test_transitions_have_horizon_structure(rng):
    env = env_uniform_shift(0.5, horizon=3)
    transitions, _ = run_episode(env, lambda h, s: np.zeros(1), rng)
    assert [t.h for t in transitions] == [1, 2, 3]
    assert transitions[-1].next_state is None
    assert all(t.next_state is not None for t in transitions[:-1])


def test_sampling_view_hides_ground_truth(rng):
    env = env_uniform_shift(0.5, horizon=2)
    view = LearnerView(env)
    assert not hasattr(view, "transition_key")
    assert not hasattr(view, "transition_density")
    assert not hasattr(view, "reward_mean")
    transitions, _ = run_episode(view, lambda h, s: np.zeros(1), rng)
    assert len(transitions) == 2
