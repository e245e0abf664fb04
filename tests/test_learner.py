import dataclasses
import math
import re

import numpy as np
import pytest
from conftest import clipped_q, naive_row

import cinderella.learner as learner_mod
from cinderella.checks import tiny_exact_linear_setup
from cinderella.envs import LearnerView, env_exact_linear
from cinderella.features import TaylorFeatureMap, enumerate_multi_indices, taylor_features
from cinderella.geometry import assign_regions, build_partition, grid_pairs
from cinderella.harness import RunConfig, build_env, build_learner, make_rng, run_experiment
from cinderella.learner import (
    BonusSchedule,
    CinderellaLearner,
    alpha_radius,
    beta_radius,
)
from cinderella.oracle import dp_solve, policy_eval_tables
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


def _fresh_learner(
    degree=1, eps=1.0, planner="relaxation", episodes=50, bonus_scale=1.0, horizon=1
):
    part = build_partition(2, eps)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, degree))
    sch = _schedule(
        n_regions=part.n_regions,
        d_feat=fmap.dim_features,
        episodes=episodes,
        horizon=horizon,
        bonus_scale=bonus_scale,
        delta=0.1,
        l_phi=fmap.norm_bound,
    )
    learner = CinderellaLearner(fmap, sch, planner=planner)
    return learner


def test_cold_start_optimism_saturates():
    learner = _fresh_learner()
    learner.plan()
    z = np.array([0.0, 0.5])
    phi = np.array([1.0, 0.0, 0.5])
    alpha = learner.alpha_all[1, 0]
    assert alpha >= 1.0 / (phi @ phi)
    assert clipped_q(learner, 1, z) == 1.0


OPTIMISM_CONFIGS = {
    "uniform_shift": dict(env_name="uniform_shift", epsilon=0.25, episodes=128),
    "smooth_drift": dict(
        env_name="smooth_drift",
        nu=2.0,
        epsilon=0.5,
        horizon=3,
        init_mode="uniform",
        oracle_m_state=65,
        oracle_m_action=33,
        episodes=64,
    ),
}


def _after_each_plan(monkeypatch, config, record):
    """Run ``config``, calling ``record(learner, s1)`` after each of its plans."""
    plan = CinderellaLearner.plan

    def recording_plan(self, s1=None):
        plan(self, s1)
        record(self, s1)

    with monkeypatch.context() as patch:
        patch.setattr(CinderellaLearner, "plan", recording_plan)
        run_experiment(config)


def _s1_optimism_rate(monkeypatch, config):
    """Share of a run's plans whose unclipped step-1 score at s1 is >= V*(s1) - 1e-6."""
    dp = dp_solve(build_env(config), config.oracle_m_state, config.oracle_m_action)
    margins = []

    def record(learner, s1):
        margins.append(learner._scores(1, *learner._blocks(s1)).max() - dp.value_at(s1))

    _after_each_plan(monkeypatch, config, record)
    assert len(margins) == config.episodes
    return np.mean(np.array(margins) >= -1e-6)


def _pointwise_optimism_rate(monkeypatch, config):
    """Share of unclipped scores >= Q*_h - 1e-6, pooled over plans, steps h, oracle
    states and grid actions.

    Q*_h at the learner's grid actions is ``rewards[h] + kernel @ V*_{h+1}``
    (rewards alone at h = H), clipped to [0, 1], from ``policy_eval_tables``,
    whose kernel rows are read at every (oracle state, grid action).
    """
    env = build_env(config)
    dp = dp_solve(env, config.oracle_m_state, config.oracle_m_action)
    q_star, hits = {}, []

    def record(learner, s1):
        if not q_star:
            rewards, rows = policy_eval_tables(env, dp, learner.actions)
            kernel = rows[np.arange(rewards.shape[1])[:, None], np.arange(rewards.shape[2])]
            for h in range(1, env.horizon + 1):
                backup = rewards[h] if h == env.horizon else rewards[h] + kernel @ dp.v[h + 1]
                q_star[h] = np.clip(backup, 0.0, 1.0)
        feats, regions = learner._blocks(dp.state_points)
        hits.extend(learner._scores(h, feats, regions) >= q_star[h] - 1e-6 for h in q_star)

    _after_each_plan(monkeypatch, config, record)
    assert len(hits) == config.episodes * env.horizon
    return np.mean(hits)


@pytest.mark.parametrize("name", sorted(OPTIMISM_CONFIGS))
@pytest.mark.parametrize("seed", [0, 1])
def test_relaxation_planner_is_optimistic_at_s1(monkeypatch, name, seed):
    """Criterion 06's threshold on the planner every run uses; alpha = 0 is the control.

    ``bonus_scale = 0`` alone keeps the ``r_max / lambda`` term of alpha, so
    the control zeroes ``r_max`` as well.
    """
    config = RunConfig(**OPTIMISM_CONFIGS[name], seed=seed)
    assert _s1_optimism_rate(monkeypatch, config) >= 0.9
    control = dataclasses.replace(config, bonus_scale=0.0, r_max=0.0)
    assert _s1_optimism_rate(monkeypatch, control) < 0.9


@pytest.mark.parametrize("name", sorted(OPTIMISM_CONFIGS))
@pytest.mark.parametrize("seed", [0, 1])
def test_relaxation_planner_is_optimistic_pointwise(monkeypatch, name, seed):
    """The planned scores bound Q*_h from above at 90% of all (step, oracle state, grid
    action) entries of a run; alpha = 0 is the control."""
    config = RunConfig(**OPTIMISM_CONFIGS[name], seed=seed)
    assert _pointwise_optimism_rate(monkeypatch, config) >= 0.9
    control = dataclasses.replace(config, bonus_scale=0.0, r_max=0.0)
    assert _pointwise_optimism_rate(monkeypatch, control) < 0.9


def test_optimistic_q_clipped_everywhere(rng):
    learner = _fresh_learner()
    env = env_exact_linear(np.array([[0.4, 0.05, 0.2]]), learner.fmap, horizon=1)
    for k in range(1, 30):
        learner.plan_and_act_episode(env, np.zeros(1), make_rng(0, k, 0, 1))
    qs = [clipped_q(learner, 1, rng.uniform(-1, 1, 2)) for _ in range(2000)]
    assert max(qs) <= 1.0 and min(qs) >= 0.0


def test_horizon_one_acts_like_linucb():
    learner = _fresh_learner()
    env = env_exact_linear(np.array([[0.4, 0.05, 0.2]]), learner.fmap, horizon=1)
    for k in range(1, 10):
        learner.plan_and_act_episode(env, np.zeros(1), make_rng(0, k, 0, 1))
    learner.plan()
    s = np.zeros(1)
    feats, regions = learner._blocks(s)
    assert feats.shape == (1, learner.actions.shape[0], learner.d)
    assert regions.shape == feats.shape[:2]
    feats, regions = feats[0], regions[0]
    mean = feats @ learner.theta_all[1, 0]
    bonuses = np.array(
        [
            learner.alpha_all[1, 0] * mahalanobis_inv_norm(learner.lam_inv_all[1, 0], f)
            for f in feats
        ]
    )
    want = int(np.argmax(mean + bonuses))
    got = np.argmax([learner._scores(1, feats[i : i + 1], regions[i : i + 1])[0] for i in range(len(feats))])
    assert want == got
    assert learner.act(1, s)[2] == want


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
    phi, region = naive_row(learner.fmap, np.zeros(1), np.array([0.7]))
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
    base = learner.act(1, s)[2]
    for scale in (0.25, 4.0, 117.0):
        learner.theta_all *= scale
        learner.alpha_all *= scale
        assert learner.act(1, s)[2] == base
        learner.theta_all /= scale
        learner.alpha_all /= scale


def test_learner_works_against_sampling_view():
    learner = _fresh_learner()
    env = env_exact_linear(np.array([[0.4, 0.05, 0.2]]), learner.fmap, horizon=1)
    view = LearnerView(env)
    transitions, _ = learner.plan_and_act_episode(view, np.zeros(1), make_rng(0, 1, 0, 1))
    assert len(transitions) == 1


def test_greedy_baseline_matches_dp_q_after_coverage(rng):
    from cinderella.oracle import dp_solve, policy_eval_tables

    learner = _fresh_learner(bonus_scale=0.0, episodes=600)
    learner.schedule.r_max = 0.0  # alpha = 0: pure ridge, no optimism
    theta_true = np.array([[0.4, 0.05, 0.2]])
    env = env_exact_linear(theta_true, learner.fmap, horizon=1, reward_noise_sigma=0.02)
    env_rng = np.random.default_rng(0)
    for _ in range(600):
        s = rng.uniform(-1, 1, size=1)
        a = rng.uniform(-1, 1, size=1)
        z = np.concatenate([s, a])
        reward = env.sample_reward(1, z, env_rng)
        learner.observe_transition(1, *naive_row(learner.fmap, s, a), reward, None)
    learner.k = 600
    learner.plan()
    dp = dp_solve(env, 65, 33)
    worst = 0.0
    for i in range(0, 65, 8):
        for j in range(0, 33, 4):
            z = np.concatenate([dp.state_points[i], dp.action_points[j]])
            q_star = dp.q[1, i, j]
            worst = max(worst, abs(clipped_q(learner, 1, z) - q_star))
    assert worst <= 0.05


# -- exact grid solver ------------------------------------------------------


def _ridge_solution(learner):
    """Hand-computed one-step, one-region ridge mean from the step-1 history."""
    hist = learner.history[1]
    p = hist.size
    targets = np.clip(hist.rewards[:p], learner.clip_lo, learner.clip_hi)
    return learner.lam_inv_all[1, 0] @ (hist.feats[:p].T @ targets)


def test_exact_grid_zero_radius_returns_plain_ridge():
    env, learner, _ = tiny_exact_linear_setup(episodes=10)
    for k in range(1, 6):
        learner.plan_and_act_episode(env, np.zeros(1), make_rng(0, k, 0, 1))
    learner.schedule.bonus_scale = 0.0
    learner.schedule.r_max = 0.0
    learner.plan(np.zeros(1))
    np.testing.assert_allclose(learner.theta_all[1, 0], _ridge_solution(learner), atol=1e-12)
    np.testing.assert_array_equal(learner.alpha_all, 0.0)


def test_exact_grid_matches_1d_closed_form():
    env, learner, _ = tiny_exact_linear_setup(episodes=10)
    for k in range(1, 6):
        learner.plan_and_act_episode(env, np.zeros(1), make_rng(0, k, 0, 1))
    learner.plan(np.zeros(1))
    lam = learner.lam_all[1, 0, 0, 0]
    radius = alpha_radius(learner.schedule, learner.k + 1, int(learner.counts[1, 0]))
    closed = _ridge_solution(learner)[0] + radius / math.sqrt(lam)
    assert learner.theta_all[1, 0, 0] == pytest.approx(closed, abs=1e-10)


def test_exact_grid_objective_matches_relaxation_on_tiny_instance():
    env, learner, _ = tiny_exact_linear_setup(episodes=10)
    for k in range(1, 8):
        learner.plan_and_act_episode(env, np.zeros(1), make_rng(5, k, 0, 1))
    s1 = np.zeros(1)
    learner.plan(s1)
    objective = learner._scores(1, *learner._blocks(s1)).max()
    radius = alpha_radius(learner.schedule, learner.k + 1, int(learner.counts[1, 0]))
    relax = _ridge_solution(learner)[0] + radius * mahalanobis_inv_norm(
        learner.lam_inv_all[1, 0], np.ones(1)
    )
    assert objective >= relax - 1e-9
    assert objective == pytest.approx(relax, abs=1e-9)


def test_exact_grid_emits_feasible_tables():
    env, learner, _ = tiny_exact_linear_setup(episodes=10)
    for k in range(1, 8):
        learner.plan_and_act_episode(env, np.zeros(1), make_rng(7, k, 0, 1))
    k_next = learner.k + 1
    learner.plan(np.zeros(1))
    # the optimism lives in theta_all, so the planned radii are zero
    np.testing.assert_array_equal(learner.alpha_all, 0.0)
    # theta_bar = theta_hat + xi, with theta_hat the ridge solution and xi
    # inside its confidence ellipsoid
    xi = learner.theta_all[1, 0] - _ridge_solution(learner)
    norm = math.sqrt(xi @ learner.lam_all[1, 0] @ xi)
    alpha = alpha_radius(learner.schedule, k_next, int(learner.counts[1, 0]))
    assert norm <= alpha + 1e-9


def test_exact_grid_guard_rejects_large_instances():
    with pytest.raises(ValueError, match="limited.*dims=24"):
        _fresh_learner(degree=2, eps=0.5, planner="exact-grid")  # 4 regions x 6 features


def test_exact_grid_reads_only_theta_at_d3():
    """act, value_estimate and the probe of step 2 equal the max of phi . theta_bar, by hand.

    At d_feat = 3 the history and probe scores of the search go through the
    width cache while the zero radii keep it out of the scores.
    """
    config = RunConfig(
        env_name="uniform_shift", episodes=6, horizon=2, nu=2.0, epsilon=1.0,
        planner="exact-grid", bonus_scale=1.0,
    )
    env, learner = build_env(config), build_learner(config)
    assert learner.H * learner.N * learner.d == 6
    states = np.linspace(-1.0, 1.0, 9)[:, None]
    learner.register_probe(states)
    for k in range(1, 6):
        learner.plan_and_act_episode(env, np.full(1, 0.3), make_rng(4, k, 0, 1))
    learner.plan(np.full(1, 0.3))
    theta = learner.theta_all

    def by_hand(h, state):
        feats, regions = learner._blocks(state)
        return np.array([f @ theta[h, n] for f, n in zip(feats[0], regions[0])])

    greedy = learner.greedy_action_indices()
    assert not greedy[:2].any()
    for i, state in enumerate(states):
        assert greedy[2, i] == np.argmax(by_hand(2, state))
        for h in (1, 2):
            assert learner.act(h, state)[2] == np.argmax(by_hand(h, state))
    for state in states:
        want = float(np.clip(by_hand(1, state).max(), 0.0, 1.0))
        assert learner.value_estimate(state) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "overrides", [{"n_regions": 1}, {"d_feat": 1}, {"n_regions": 16, "d_feat": 6}]
)
def test_schedule_must_match_feature_map(overrides):
    part = build_partition(2, 0.25)  # 16 regions
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 1))
    sizes = {"n_regions": part.n_regions, "d_feat": fmap.dim_features, **overrides}
    with pytest.raises(ValueError, match="schedule sized for"):
        CinderellaLearner(fmap, _schedule(**sizes))


def test_learner_refuses_partitions_not_on_rows_s_a():
    for dim in (1, 3):
        part = build_partition(dim, 1.0)
        fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(dim, 0))
        with pytest.raises(ValueError, match=re.escape(f"rows (s, a), got dim {dim}")):
            CinderellaLearner(fmap, _schedule())


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
    row = naive_row(learner.fmap, np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError, match="non-finite"):
        learner.observe_transition(1, *row, math.nan, None)
    assert learner.counts.sum() == 0 and learner.history[1].size == 0


@pytest.mark.parametrize(
    "h, next_state, prior, match",
    [
        (0, np.zeros(1), 0, r"step must be in 1\.\.2, got 0"),
        (3, None, 0, r"step must be in 1\.\.2, got 3"),
        (1, None, 0, "step 1 < 2 needs a next state"),
        (1, np.zeros(1), 3, "history full: step 1"),
        (2, None, 3, "history full: step 2"),
    ],
)
def test_observe_transition_fails_fast(h, next_state, prior, match):
    """Bad steps, a missing next state and a full history raise and change nothing."""
    learner = _fresh_learner(episodes=3, horizon=2)
    phi, region = naive_row(learner.fmap, np.zeros(1), np.zeros(1))
    next_blocks = None if next_state is None else learner._blocks(next_state)
    for _ in range(prior):
        learner.observe_transition(h, phi, region, 0.5, next_blocks)
    counts, sizes = learner.counts.copy(), [hist.size for hist in learner.history]
    with pytest.raises(ValueError, match=match):
        learner.observe_transition(h, phi, region, 0.5, next_blocks)
    np.testing.assert_array_equal(learner.counts, counts)
    assert [hist.size for hist in learner.history] == sizes


def test_partition_centers_and_probe_blocks_are_read_only():
    part = build_partition(2, 0.5)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 1))
    schedule = _schedule(n_regions=part.n_regions, d_feat=fmap.dim_features, horizon=2)
    learner = CinderellaLearner(fmap, schedule, action_points_per_axis=5)
    learner.register_probe(np.linspace(-1.0, 1.0, 7)[:, None])
    for arr in (part.centers, learner._probe[2].feats, learner._probe[2].regions):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


@pytest.mark.parametrize("nu, horizon", [(1.0, 2), (2.0, 3)])
def test_episode_computes_each_visited_states_blocks_once(monkeypatch, nu, horizon):
    """One relaxation episode computes blocks once per visited state, and no region by point.

    At degree 0 (nu = 1) it computes none: a state's cell gives its regions.
    """
    cfg = RunConfig(env_name="uniform_shift", episodes=4, horizon=horizon, nu=nu, epsilon=0.5)
    env, learner = build_env(cfg), build_learner(cfg)
    learner.register_probe(np.linspace(-1.0, 1.0, 5)[:, None])
    learner.plan_and_act_episode(env, np.zeros(1), make_rng(0, 1, 0, 1))
    calls = {"_blocks": 0, "assign_regions": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(learner, "_blocks", counting("_blocks", learner._blocks))
    monkeypatch.setattr(
        learner_mod, "assign_regions", counting("assign_regions", learner_mod.assign_regions)
    )
    learner.plan_and_act_episode(env, np.full(1, 0.3), make_rng(0, 2, 0, 1))
    assert learner._cells == (nu == 1.0)
    assert calls == {"_blocks": 0 if learner._cells else horizon, "assign_regions": 0}
    assert [hist.size for hist in learner.history[1:]] == [2] * horizon


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.4, 0.25, 0.2])
def test_state_cells_follow_assign_regions_on_boundaries(eps):
    """-1, every cell boundary -1 + 2j/m and +1 land in the cells ``assign_regions`` gives."""
    learner = _fresh_learner(degree=0, eps=eps, horizon=2)
    m = learner.partition.cells_per_axis
    states = np.concatenate([[-1.0], -1.0 + 2.0 * np.arange(1, m) / m, [1.0], [0.1, -0.7]])
    pairs = grid_pairs(states[:, None], learner.actions)
    regions = assign_regions(learner.partition, pairs).reshape(len(states), -1)
    cells = learner._state_cells(states[:, None])
    np.testing.assert_array_equal(regions // m, np.repeat(cells[:, None], regions.shape[1], axis=1))
    np.testing.assert_array_equal(learner._cell_regions[cells], regions)
    for s, cell, row in zip(states, cells, regions):
        assert learner._state_cells(np.array([s])) == [cell]  # the one-state path of act
        for h in (1, 2):
            phi, region, i, key = learner.act(h, np.array([s]))
            assert key == cell and region == row[i]
            np.testing.assert_array_equal(phi, taylor_features(learner.fmap, pairs[0]))
    # At degree >= 1, act reads a state's regions through the same one-state path.
    general = _fresh_learner(degree=1, eps=eps, horizon=2)
    for s, row in zip(states, regions):
        _, one_state_regions = general._blocks(np.array([s]))
        np.testing.assert_array_equal(one_state_regions, row[None, :])


@pytest.mark.parametrize("state", [math.nan, 1.0 + 1e-9, -1.5, math.inf])
def test_state_cells_reject_what_assign_regions_rejects(state):
    learner = _fresh_learner(degree=0, eps=0.5)
    match = re.escape("point outside [-1, 1]^d")
    with pytest.raises(ValueError, match=match):
        assign_regions(learner.partition, np.array([[state, 0.0]]))
    with pytest.raises(ValueError, match=match):
        learner.act(1, np.array([state]))
    with pytest.raises(ValueError, match=match):
        learner.register_probe(np.array([[0.0], [state]]))
    with pytest.raises(ValueError, match=match):  # degree >= 1: the one-state path of _blocks
        _fresh_learner(degree=1, eps=0.5).act(1, np.array([state]))


def _nan_reward_at_step_2(env):
    def reward_mean(h, Z):
        return env.reward_mean(h, Z) if h < 2 else np.full(Z.shape[0], math.nan)

    return dataclasses.replace(env, reward_mean=reward_mean)


def _nan_next_state(env):
    def transition_sample(Z, rng):
        return np.full((Z.shape[0], 1), math.nan)

    return dataclasses.replace(env, transition_sample=transition_sample)


@pytest.mark.parametrize(
    "episodes, make_env, nu, match",
    [
        (8, _nan_reward_at_step_2, 2.0, "non-finite reward"),
        (2, lambda env: env, 2.0, "history full: step 1"),  # the episode after the last
        (8, _nan_next_state, 2.0, "outside"),
        (8, _nan_next_state, 1.0, "outside"),  # degree 0: the state-cell lookup rejects it
    ],
    ids=["nan-reward-step-2", "full-history", "nan-next-state", "nan-next-state-degree-0"],
)
def test_failed_episode_changes_nothing(episodes, make_env, nu, match):
    """An episode that fails in its rollout or at any step's absorb leaves the learner as it was."""
    cfg = RunConfig(env_name="uniform_shift", episodes=episodes, horizon=2, nu=nu, epsilon=0.5)
    env, learner = build_env(cfg), build_learner(cfg)
    for k in range(1, 3):
        learner.plan_and_act_episode(env, np.full(1, 0.3), make_rng(0, k, 0, 1))
    before = {name: getattr(learner, name).copy() for name in ("counts", "lam_all", "lam_inv_all")}
    sizes = [hist.size for hist in learner.history]
    with pytest.raises(ValueError, match=match):
        learner.plan_and_act_episode(make_env(env), np.full(1, 0.3), make_rng(0, 3, 0, 1))
    for name, value in before.items():
        np.testing.assert_array_equal(getattr(learner, name), value)
    assert [hist.size for hist in learner.history] == sizes == [0, 2, 2]
    assert learner.k == 2
