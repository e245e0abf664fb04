import math

import numpy as np
import pytest

from cinderella.checks import tiny_exact_linear_setup
from cinderella.envs import env_exact_linear, learner_view
from cinderella.features import TaylorFeatureMap, enumerate_multi_indices
from cinderella.geometry import build_partition
from cinderella.harness import make_rng
from cinderella.learner import (
    BonusSchedule,
    CinderellaLearner,
    alpha_radius,
    beta_radius,
    solve_exact_grid,
)
from cinderella.regression import mahalanobis_inv_norm


def _schedule(**overrides):
    base = dict(
        delta=1.0 / math.e,
        lam_reg=1.0,
        l_phi=1.0,
        r_max=1.0,
        n_regions=1,
        d_feat=1,
        episodes=1,
        horizon=1,
        inherent_bound=0.0,
        bonus_scale=1.0,
    )
    base.update(overrides)
    return BonusSchedule(**base)


def test_beta_radius_closed_form():
    sch = _schedule()
    want = math.sqrt(math.log(2.0) + math.log(3.0) + 1.0) + 2.0  # near 3.67
    assert beta_radius(sch, k=1) == pytest.approx(want, abs=1e-12)


def test_beta_radius_zero_scale_disables_bonus():
    assert beta_radius(_schedule(bonus_scale=0.0), k=5) == 0.0


def test_beta_radius_monotone_in_k():
    sch = _schedule(episodes=100, r_max=2.0)
    values = [beta_radius(sch, k) for k in range(1, 100, 7)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_alpha_radius_degenerate_terms():
    sch = _schedule(r_max=0.0)
    assert alpha_radius(sch, k=3, counts=10) == pytest.approx(beta_radius(sch, 3))


def test_alpha_radius_no_visits_no_misspecification_term():
    sch = _schedule(inherent_bound=0.5, r_max=0.0)
    assert alpha_radius(sch, 2, 0) == pytest.approx(beta_radius(sch, 2))


def test_alpha_radius_misspecification_arithmetic():
    sch = _schedule(bonus_scale=0.0, inherent_bound=0.1, r_max=0.0)
    assert alpha_radius(sch, 1, 100) == pytest.approx(1.0)


def _fresh_learner(degree=1, eps=1.0, planner="relaxation", episodes=50, bonus_scale=1.0):
    part = build_partition(2, eps)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, degree))
    sch = _schedule(
        n_regions=part.n_regions,
        d_feat=fmap.dim_features,
        episodes=episodes,
        horizon=1,
        bonus_scale=bonus_scale,
        delta=0.1,
        l_phi=fmap.norm_bound,
    )
    learner = CinderellaLearner(part, fmap, sch, state_dim=1, planner=planner)
    return learner


def test_cold_start_optimism_saturates():
    learner = _fresh_learner()
    learner.plan()
    z = np.array([0.0, 0.5])
    phi = np.array([1.0, 0.0, 0.5])
    alpha = learner.alpha_all[1, 0]
    assert alpha >= 1.0 / (phi @ phi)
    assert learner.optimistic_q(1, z) == 1.0


def test_optimistic_q_clipped_everywhere(rng):
    learner = _fresh_learner()
    env = env_exact_linear(np.array([[0.4, 0.05, 0.2]]), learner.fmap, horizon=1)
    for k in range(1, 30):
        learner.plan_and_act_episode(env, np.zeros(1), make_rng(0, k, 0, 1))
    qs = [learner.optimistic_q(1, rng.uniform(-1, 1, 2)) for _ in range(2000)]
    assert max(qs) <= 1.0 and min(qs) >= 0.0


def test_horizon_one_acts_like_linucb():
    learner = _fresh_learner()
    env = env_exact_linear(np.array([[0.4, 0.05, 0.2]]), learner.fmap, horizon=1)
    for k in range(1, 10):
        learner.plan_and_act_episode(env, np.zeros(1), make_rng(0, k, 0, 1))
    learner.plan()
    s = np.zeros(1)
    feats, regions = learner._blocks(s)
    mean = feats @ learner.theta_hat_all[1, 0]
    bonuses = np.array(
        [
            learner.alpha_all[1, 0] * mahalanobis_inv_norm(learner.lam_inv_all[1, 0], f)
            for f in feats
        ]
    )
    want = int(np.argmax(mean + bonuses))
    got = np.argmax([learner._scores(1, feats[i : i + 1], regions[i : i + 1])[0] for i in range(len(feats))])
    assert want == got
    np.testing.assert_allclose(learner.act(1, s), learner.actions[want])


def test_actions_deterministic_across_reruns():
    def run_once():
        learner = _fresh_learner()
        env = env_exact_linear(
            np.array([[0.4, 0.05, 0.2]]), learner.fmap, horizon=1, reward_noise_sigma=0.0
        )
        acts = []
        for k in range(1, 15):
            transitions, _ = learner.plan_and_act_episode(env, np.zeros(1), make_rng(3, k, 0, 1))
            acts.append(transitions[0].action[0])
        return acts

    assert run_once() == run_once()


def test_bonus_monotone_under_region_updates():
    learner = _fresh_learner(bonus_scale=1.0)
    env = env_exact_linear(np.array([[0.4, 0.05, 0.2]]), learner.fmap, horizon=1)
    z = np.array([0.0, 0.7])
    phi, region = learner._point(np.zeros(1), np.array([0.7]))
    k_frozen = 1
    bonuses = []
    for k in range(1, 40):
        learner.plan_and_act_episode(env, np.zeros(1), make_rng(1, k, 0, 1))
        alpha = alpha_radius(learner.schedule, k_frozen, int(learner.counts[1, region]))
        bonuses.append(alpha * mahalanobis_inv_norm(learner.lam_inv_all[1, region], phi))
    assert all(b <= a + 1e-12 for a, b in zip(bonuses, bonuses[1:]))


def test_argmax_invariant_under_positive_scaling():
    learner = _fresh_learner()
    env = env_exact_linear(np.array([[0.4, 0.05, 0.2]]), learner.fmap, horizon=1)
    for k in range(1, 12):
        learner.plan_and_act_episode(env, np.zeros(1), make_rng(2, k, 0, 1))
    learner.plan()
    s = np.array([0.3])
    base = learner.act(1, s)
    for scale in (0.25, 4.0, 117.0):
        learner.theta_hat_all *= scale
        learner.alpha_all *= scale
        np.testing.assert_array_equal(learner.act(1, s), base)
        learner.theta_hat_all /= scale
        learner.alpha_all /= scale


def test_learner_works_against_sampling_view():
    learner = _fresh_learner()
    env = env_exact_linear(np.array([[0.4, 0.05, 0.2]]), learner.fmap, horizon=1)
    view = learner_view(env)
    transitions, _ = learner.plan_and_act_episode(view, np.zeros(1), make_rng(0, 1, 0, 1))
    assert len(transitions) == 1


def test_greedy_baseline_matches_dp_q_after_coverage(rng):
    from cinderella.oracle import dp_solve

    learner = _fresh_learner(bonus_scale=0.0, episodes=600)
    learner.schedule.r_max = 0.0  # alpha = 0: pure ridge, no optimism
    theta_true = np.array([[0.4, 0.05, 0.2]])
    env = env_exact_linear(theta_true, learner.fmap, horizon=1, reward_noise_sigma=0.02)
    env_rng = np.random.default_rng(0)
    for _ in range(600):
        s = rng.uniform(-1, 1, size=1)
        a = rng.uniform(-1, 1, size=1)
        z = np.concatenate([s, a])
        learner.observe_transition(1, s, a, env.sample_reward(1, z, env_rng), None)
    learner.k = 600
    learner.plan()
    dp = dp_solve(env, 65, 33)
    worst = 0.0
    for i in range(0, 65, 8):
        for j in range(0, 33, 4):
            z = np.concatenate([dp.state_points[i], dp.action_points[j]])
            q_star = dp.q[1, i, j]
            worst = max(worst, abs(learner.optimistic_q(1, z) - q_star))
    assert worst <= 0.05


# -- exact grid solver ------------------------------------------------------


def test_exact_grid_zero_radius_returns_plain_ridge():
    env, learner, _ = tiny_exact_linear_setup(episodes=10)
    for k in range(1, 6):
        learner.plan_and_act_episode(env, np.zeros(1), make_rng(0, k, 0, 1))
    learner.schedule.bonus_scale = 0.0
    learner.schedule.r_max = 0.0
    table = solve_exact_grid(learner, np.zeros(1), 5)
    np.testing.assert_allclose(table.theta_bar, table.theta_hat)
    np.testing.assert_allclose(table.xi_norm, 0.0, atol=1e-12)


def test_exact_grid_matches_1d_closed_form():
    env, learner, _ = tiny_exact_linear_setup(episodes=10)
    for k in range(1, 6):
        learner.plan_and_act_episode(env, np.zeros(1), make_rng(0, k, 0, 1))
    table = solve_exact_grid(learner, np.zeros(1), 5)
    lam = learner.lam_all[1, 0, 0, 0]
    radius = alpha_radius(learner.schedule, learner.k + 1, int(learner.counts[1, 0]))
    closed = table.theta_hat[1, 0, 0] + radius / math.sqrt(lam)
    assert table.theta_bar[1, 0, 0] == pytest.approx(closed, abs=1e-10)


def test_exact_grid_objective_matches_relaxation_on_tiny_instance():
    env, learner, _ = tiny_exact_linear_setup(episodes=10)
    for k in range(1, 8):
        learner.plan_and_act_episode(env, np.zeros(1), make_rng(5, k, 0, 1))
    table = solve_exact_grid(learner, np.zeros(1), 5)
    radius = alpha_radius(learner.schedule, learner.k + 1, int(learner.counts[1, 0]))
    relax = table.theta_hat[1, 0, 0] + radius * mahalanobis_inv_norm(
        learner.lam_inv_all[1, 0], np.ones(1)
    )
    assert table.objective >= relax - 1e-9
    assert table.objective == pytest.approx(relax, abs=1e-9)


def test_exact_grid_emits_feasible_tables():
    env, learner, _ = tiny_exact_linear_setup(episodes=10)
    for k in range(1, 8):
        learner.plan_and_act_episode(env, np.zeros(1), make_rng(7, k, 0, 1))
    k_next = learner.k + 1
    table = solve_exact_grid(learner, np.zeros(1), 5)
    for h in range(1, 2):
        for n in range(learner.N):
            # uncertainty within its radius
            assert table.xi_norm[h, n] <= table.alpha[h, n] + 1e-9
            # theta_bar = theta_hat + xi with the recorded norm
            xi = table.theta_bar[h, n] - table.theta_hat[h, n]
            norm = math.sqrt(xi @ learner.lam_all[h, n] @ xi)
            assert norm == pytest.approx(table.xi_norm[h, n], abs=1e-9)
    # ridge constraint: theta_hat reproduces the regression solution
    hist = learner.history[1]
    p = hist.size
    targets = np.clip(hist.rewards[:p], learner.clip_lo, learner.clip_hi)
    manual = learner.lam_inv_all[1, 0] @ (hist.feats[:p].T @ targets)
    np.testing.assert_allclose(table.theta_hat[1, 0], manual, atol=1e-9)
    assert alpha_radius(learner.schedule, k_next, int(learner.counts[1, 0])) == pytest.approx(
        table.alpha[1, 0]
    )


def test_exact_grid_guard_rejects_large_instances():
    learner = _fresh_learner(degree=2)  # 6 features, single region, horizon 1
    with pytest.raises(ValueError, match="limited"):
        solve_exact_grid(learner, np.zeros(1), 6)
    learner2 = _fresh_learner(degree=2, eps=0.5)  # 4 regions x 6 features
    with pytest.raises(ValueError, match="limited"):
        solve_exact_grid(learner2, np.zeros(1), 3)


def test_schedule_validation():
    with pytest.raises(ValueError):
        _schedule(delta=0.0)
    with pytest.raises(ValueError):
        _schedule(lam_reg=-1.0)
    with pytest.raises(ValueError):
        _schedule(lam_reg=0.0)
    with pytest.raises(ValueError):
        _schedule(bonus_scale=-0.5)


def test_alpha_radius_vectorizes_over_counts():
    sch = _schedule(inherent_bound=0.3, r_max=0.5, lam_reg=2.0)
    counts = np.array([[0, 1, 7], [512, 3, 0]])
    want = [[alpha_radius(sch, 4, int(c)) for c in row] for row in counts]
    np.testing.assert_array_equal(alpha_radius(sch, 4, counts), want)


def test_observe_rejects_non_finite_reward():
    learner = _fresh_learner()
    with pytest.raises(ValueError, match="non-finite"):
        learner.observe_transition(1, np.zeros(1), np.zeros(1), math.nan, None)
    assert learner.counts.sum() == 0 and learner.history[1].size == 0
