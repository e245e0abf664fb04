import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cinderella import harness, oracle
from cinderella.envs import env_exact_linear, env_smooth_drift, env_uniform_shift
from cinderella.features import (
    TaylorFeatureMap,
    enumerate_multi_indices,
    features_at_centers,
    taylor_remainder_check,
)
from cinderella.geometry import assign_regions, build_partition, grid_pairs, uniform_grid
from cinderella.oracle import (
    _candidate_thetas,
    _chebyshev_fit_residual,
    _discretized_kernel,
    _grid_backup,
    check_policy_tables,
    dp_solve,
    inherent_error_estimate,
    policy_eval_tables,
    policy_value,
    policy_values,
    random_policy_gap,
)
from conftest import record_played, sin2x, sin2x_derivative

# Benchmark value pinned from the reference oracle run (uniform shift,
# beta = 0.5, default reward, H = 2, m_state = m_action = 129): the optimal
# trajectory collects the maximal per-step reward at both steps.
UNIFORM_SHIFT_VSTAR_AT_0 = 1.0


def test_dp_zero_reward_tables_vanish():
    env = env_uniform_shift(0.5, reward="zero", horizon=3)
    dp = dp_solve(env, 33, 17)
    assert np.all(dp.v == 0.0)
    assert np.all(dp.q == 0.0)


def test_dp_constant_reward_telescopes():
    env = env_uniform_shift(0.5, reward="constant", horizon=2)
    dp = dp_solve(env, 65, 33)
    assert dp.value_at(np.zeros(1)) == pytest.approx(1.0, abs=1e-9)


def test_dp_reference_value_pinned():
    env = env_uniform_shift(0.5, horizon=2)
    dp = dp_solve(env, 129, 129)
    assert dp.value_at(np.zeros(1)) == pytest.approx(UNIFORM_SHIFT_VSTAR_AT_0, abs=1e-9)


def test_dp_tables_within_unit_interval():
    env = env_smooth_drift(0.5, 0.3, horizon=3)
    dp = dp_solve(env, 33, 17)
    assert dp.v.min() >= 0.0 and dp.v.max() <= 1.0 + 1e-6
    np.testing.assert_allclose(dp.v[1], dp.q[1].max(axis=1))


def test_dp_guards():
    env = env_uniform_shift(0.5, horizon=2)
    with pytest.raises(ValueError, match="at least 2"):
        dp_solve(env, 1, 17)
    with pytest.raises(ValueError, match="too large"):
        dp_solve(env, 5000, 500)


def test_dp_guard_bounds_the_rows_it_holds():
    """The guard bounds the backup's n_s * n_a rows and one kernel block, not a whole
    kernel: 1025 x 513 is solved, and 4M state points are refused before the grids are
    built (the state grid alone would take 32 MB)."""
    env = env_uniform_shift(0.5, horizon=2)
    assert np.all(np.isfinite(dp_solve(env, 1025, 513).v))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large"):
            dp_solve(env, 4_000_000, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize(
    "make_env, m_state, m_action",
    [
        (lambda: env_smooth_drift(horizon=2), 4097, 65),
        (lambda: env_uniform_shift(0.5, horizon=3), 4097, 65),
        (lambda: env_smooth_drift(horizon=4), 257, 2049),
    ],
    ids=["smooth_drift_h2", "uniform_shift_h3", "smooth_drift_h4_wide"],
)
def test_dp_guard_counts_the_peak_it_holds(monkeypatch, make_env, m_state, m_action):
    """The guard's count bounds a solve's traced peak, kernel blocks and temporaries
    included: a limit one float below the peak refuses the grid. Where n_s >> n_a the
    kernel blocks dominate the peak, so a block kept while the next is built would pass
    the count; at 257 x 2049 the n_s * n_a rows dominate."""
    env = make_env()
    tracemalloc.start()
    try:
        dp_solve(env, m_state, m_action)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(oracle, "MAX_HELD_ENTRIES", math.ceil(peak / 8) - 1)
    with pytest.raises(ValueError, match="too large"):
        dp_solve(env, m_state, m_action)


def test_dp_monotone_under_reward_domination():
    lo = env_uniform_shift(0.5, reward="zero", horizon=2)
    hi = env_uniform_shift(0.5, reward="default", horizon=2)
    dp_lo, dp_hi = dp_solve(lo, 33, 17), dp_solve(hi, 33, 17)
    assert np.all(dp_hi.v >= dp_lo.v - 1e-12)


@pytest.mark.parametrize(
    "make_env",
    [
        lambda: env_uniform_shift(0.5, horizon=2),
        lambda: env_smooth_drift(0.5, 0.3, horizon=2),
    ],
)
def test_dp_grid_convergence(make_env):
    env = make_env()
    v_coarse = dp_solve(env, 65, 33).value_at(np.zeros(1))
    v_fine = dp_solve(env, 129, 33).value_at(np.zeros(1))
    assert abs(v_fine - v_coarse) <= 0.01


REFINED_ENVS = {
    "criterion_08": lambda: env_uniform_shift(0.5, horizon=2),
    "criterion_11": lambda: env_smooth_drift(0.5, 0.3, horizon=2),
    "fine_oracle_h3": lambda: env_smooth_drift(0.5, 0.3, horizon=3),
}


@pytest.mark.parametrize("env_name", sorted(REFINED_ENVS))
def test_oracle_values_hold_under_grid_refinement(env_name):
    """The oracle's own grid error: 129 x 65 against 513 x 257 (a grid that holds every
    coarse state). V*(0) moves by at most 4.3e-5, V* at any coarse state by at most 3.5e-4
    (at s = -1; fine_oracle_h3 draws s1 uniformly), and the V^pi(0) of three fixed table
    policies by at most 2.3e-4."""
    env = REFINED_ENVS[env_name]()
    coarse, fine = dp_solve(env, 129, 65), dp_solve(env, 513, 257)
    s1 = np.zeros(1)
    assert abs(coarse.value_at(s1) - fine.value_at(s1)) <= 1e-4
    assert np.max(np.abs(coarse.v[1] - fine.v[1][::4])) <= 1e-3
    policies = (lambda s: np.full_like(s, 0.3), lambda s: np.clip(1.0 - s, -1.0, 1.0), np.negative)
    for policy in policies:
        values = []
        for dp in (coarse, fine):
            states = dp.state_points[:, 0]
            idx = np.tile(np.arange(states.size), (env.horizon + 1, 1))  # state i plays row i
            z1 = np.concatenate([s1, policy(s1)])
            values.append(_value(env, dp, policy(states)[:, None], idx, z1))
        assert abs(values[0] - values[1]) <= 1e-3


TESTS = Path(__file__).resolve().parent
ENVS_H3 = {
    "smooth_drift": lambda: env_smooth_drift(horizon=3),
    "uniform_shift": lambda: env_uniform_shift(0.5, horizon=3),
}


def _whole_kernel_dp(env, m_state, m_action):
    """``dp.v`` and ``dp.q`` with each step's kernel built whole, E[v | z] by ``np.einsum``."""
    sp, ap = uniform_grid(m_state, 1), uniform_grid(m_action, 1)
    Z = grid_pairs(sp, ap)
    n_s, n_a, H = m_state, ap.shape[0], env.horizon
    v, q = np.zeros((H + 2, n_s)), np.zeros((H + 1, n_s, n_a))
    for h in range(H, 0, -1):
        backup = env.reward_mean(h, Z).reshape(n_s, n_a)
        if h < H:
            kernel = _discretized_kernel(env, env.transition_key(Z), sp)
            backup = backup + np.einsum("ij,j->i", kernel, v[h + 1]).reshape(n_s, n_a)
        q[h] = np.clip(backup, 0.0, 1.0)
        v[h] = q[h].max(axis=1)
    return v, q


STREAMED_ENVS = {
    **ENVS_H3,
    "smooth_drift_gain_0.3": lambda: env_smooth_drift(0.3, horizon=3),  # 2705 keys at 257 x 129
    "smooth_drift_gain_0.3713": lambda: env_smooth_drift(0.3713, horizon=3),  # no key repeats
    "exact_linear": lambda: env_exact_linear(  # one key
        np.array([[0.15, 0.02, 0.05]] * 3),
        TaylorFeatureMap(partition=build_partition(2, 1.0), index_set=enumerate_multi_indices(2, 1)),
        horizon=3,
    ),
}


@pytest.mark.parametrize("env_name", sorted(STREAMED_ENVS))
def test_streamed_dp_matches_whole_kernel_bit_for_bit(env_name):
    """The distinct-key backup in blocks is the whole-kernel backup, bit for bit, at H = 3.

    The grids have 8385, 33153, 2145, 1025, 153, 140, 126 and 147 (state,
    action) rows. With no key repeated (drift gain 0.3713) the distinct keys
    fill 1 to 33 blocks, the last of 4 rows at 1025.
    """
    env = STREAMED_ENVS[env_name]()
    grids = [(129, 65), (257, 129), (65, 33), (41, 25), (17, 9), (20, 7), (18, 7), (21, 7)]
    for m_state, m_action in grids:
        dp = dp_solve(env, m_state, m_action)
        v, q = _whole_kernel_dp(env, m_state, m_action)
        np.testing.assert_array_equal(dp.v.view(np.int64), v.view(np.int64))
        np.testing.assert_array_equal(dp.q.view(np.int64), q.view(np.int64))


def _at_blas_threads(threads, code):
    """Stdout of ``code`` run in a fresh interpreter with BLAS capped at ``threads`` threads.

    BLAS reads its thread count once, when numpy loads, so each count needs
    its own process. ``src/`` and ``tests/`` come first on the import path.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    paths = [str(TESTS.parent / "src"), str(TESTS)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dp_bits_do_not_depend_on_blas_threads():
    """The DP tables, the random-policy gap and the audit's ``per_step`` have the same bits at
    1 and 2 BLAS threads. Whole-kernel products gave other bits at 2 threads on some of
    these grids."""
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from test_oracle import ENVS_H3\n"
        "from cinderella.features import TaylorFeatureMap, enumerate_multi_indices\n"
        "from cinderella.geometry import build_partition\n"
        "from cinderella.oracle import dp_solve, inherent_error_estimate, random_policy_gap\n"
        "for name, grid in [('smooth_drift', (129, 129)), ('smooth_drift', (129, 65)),\n"
        "                   ('uniform_shift', (129, 129))]:\n"
        "    dp = dp_solve(ENVS_H3[name](), *grid)\n"
        "    print(name, grid, hashlib.sha256(dp.v.tobytes() + dp.q.tobytes()).hexdigest())\n"
        "env = ENVS_H3['smooth_drift']()\n"
        "dp = dp_solve(env, 33, 17)\n"
        "print(random_policy_gap(env, dp, np.array([0.3141])).hex())\n"
        "part = build_partition(2, 0.5)\n"
        "fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 1))\n"
        "rep = inherent_error_estimate(env, fmap, 2.0, m_state=33, m_action=17, seed=4)\n"
        "print(rep.per_step.tobytes().hex())\n"
    )
    one = _at_blas_threads(1, code)
    assert one.count("\n") == 5
    assert _at_blas_threads(2, code) == one


def test_a_regret_run_loads_no_lp_solver():
    """A regret run imports no ``scipy.optimize``; the audit imports it for its first fit."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from cinderella import RunConfig, run_experiment\n"
        "from cinderella.envs import env_uniform_shift\n"
        "from cinderella.features import TaylorFeatureMap, enumerate_multi_indices\n"
        "from cinderella.geometry import build_partition\n"
        "from cinderella.oracle import inherent_error_estimate\n"
        "run_experiment(RunConfig(env_name='uniform_shift', env_params={'beta': 0.5},\n"
        "                         episodes=4, horizon=2, nu=1.0, epsilon=0.5,\n"
        "                         oracle_m_state=17, oracle_m_action=9))\n"
        "print('scipy.optimize' in sys.modules)\n"
        "part = build_partition(2, 1.0)\n"
        "fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 0))\n"
        "env = env_uniform_shift(0.5, horizon=2)\n"
        "rep = inherent_error_estimate(env, fmap, 1.0, m_state=17, m_action=9)\n"
        "print('scipy.optimize' in sys.modules, bool(np.isfinite(rep.estimate)))\n"
    )
    assert _at_blas_threads(1, code).split() == ["False", "True", "True"]


def test_dp_builds_each_distinct_kernel_row_once_per_step():
    """At 257 x 129, 33153 rows share 385 means: 385 kernel rows per step h < H, where a
    kernel of every row would pass 33153."""
    env, calls = _counting_density(env_smooth_drift(horizon=3))
    dp_solve(env, 257, 129)
    assert sum(calls) == 2 * 385


def test_dp_never_holds_a_whole_kernel():
    """At 257 x 129 a step's whole kernel is 68 MB; the distinct-key solve peaks near 4 MB."""
    env = env_smooth_drift(horizon=3)
    tracemalloc.start()
    try:
        dp_solve(env, 257, 129)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _value(env, dp, actions, action_idx, z1):
    """V^pi(s1) of the policy that plays a1 at s1, z1 = (s1, a1), then the table
    ``action_idx`` over ``actions`` at steps 2..H."""
    rewards, kernel = policy_eval_tables(env, dp, actions)
    return policy_value(env, rewards, kernel, z1, action_idx)


@pytest.mark.parametrize(
    "make_env",
    [
        lambda: env_uniform_shift(0.5, horizon=2),
        lambda: env_smooth_drift(0.5, 0.3, horizon=2),
        lambda: env_exact_linear(
            np.array([[0.4, 0.05, 0.2]]),
            TaylorFeatureMap(
                partition=build_partition(2, 1.0), index_set=enumerate_multi_indices(2, 1)
            ),
            horizon=1,
        ),
    ],
    ids=["uniform_shift", "smooth_drift", "exact_linear"],
)
@pytest.mark.parametrize("m_state", [7, 19, 26])  # odd and even grids
def test_discretized_kernel_matches_out_of_place(make_env, m_state):
    env = make_env()
    sp = np.linspace(-1.0, 1.0, m_state)[:, None]
    ap = np.linspace(-1.0, 1.0, 9)[:, None]
    Z = np.concatenate([np.repeat(sp, 9, axis=0), np.tile(ap, (m_state, 1))], axis=1)
    keys = env.transition_key(Z)
    dens = env.transition_density(keys, sp)
    want = dens / dens.sum(axis=1, keepdims=True)
    first = _discretized_kernel(env, keys, sp)
    second = _discretized_kernel(env, keys, sp)
    np.testing.assert_array_equal(first, want)
    np.testing.assert_array_equal(second, want)
    assert not np.shares_memory(first, second)


def test_policy_value_greedy_self_consistency():
    env = env_uniform_shift(0.5, horizon=2)
    dp = dp_solve(env, 65, 33)
    greedy = dp.q.argmax(axis=2)
    z1 = np.concatenate([np.zeros(1), dp.action_points[greedy[1, 32]]])  # s1 = 0 is state 32
    v_pi = _value(env, dp, dp.action_points, greedy, z1)
    assert v_pi == pytest.approx(dp.value_at(np.zeros(1)), abs=1e-9)


def test_policy_value_random_on_zero_reward():
    env = env_uniform_shift(0.5, reward="zero", horizon=2)
    dp = dp_solve(env, 33, 17)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, dp.action_points.shape[0], size=(env.horizon + 1, 33))
    z1 = np.array([0.0, rng.uniform(-1.0, 1.0)])
    assert _value(env, dp, dp.action_points, idx, z1) == pytest.approx(0.0, abs=1e-12)


def test_policy_value_never_beats_optimal(rng):
    env = env_uniform_shift(0.5, horizon=2)
    dp = dp_solve(env, 65, 33)
    s1 = np.zeros(1)
    vstar = dp.value_at(s1)
    idx = np.zeros((env.horizon + 1, 65), dtype=np.int64)
    for _ in range(5):
        a_fixed = rng.uniform(-1, 1)
        v_pi = _value(env, dp, np.array([[a_fixed]]), idx, np.array([0.0, a_fixed]))
        assert v_pi <= vstar + 1e-9


def test_random_policy_value_below_optimal():
    env = env_uniform_shift(0.5, horizon=2)
    dp = dp_solve(env, 65, 33)
    vstar = dp.value_at(np.zeros(1))
    v_rand = vstar - random_policy_gap(env, dp, np.zeros(1))
    assert 0.0 <= v_rand <= vstar


def _naive_backup(env, dp, h, z, v_next):
    """``clip(r_h(z) + E[v_next | z], 0, 1)`` with the density queried at the exact z."""
    z = np.asarray(z, dtype=float)[None, :]
    backup = env.reward_mean(h, z)[0]
    if h < env.horizon:
        dens = env.transition_density(env.transition_key(z), dp.state_points)[0]
        backup += (dens / dens.sum()) @ v_next
    return min(max(backup, 0.0), 1.0)


def _naive_grid_values(env, dp, actions, action_idx, first=1):
    """V_first on the grid states by per-state backward induction (0 when first > H).

    ``action_idx[h][i]`` is one table action or a row of them, played uniformly at random.
    """
    sp = dp.state_points
    v_next = np.zeros(sp.shape[0])
    for h in range(env.horizon, first - 1, -1):
        v_next = np.array([
            np.mean([
                _naive_backup(env, dp, h, np.concatenate([s, actions[j]]), v_next)
                for j in np.atleast_1d(action_idx[h][i])
            ])
            for i, s in enumerate(sp)
        ])
    return v_next


def _naive_policy_value(env, dp, actions, action_idx, s1):
    """V_1 of ``_naive_grid_values`` interpolated at s1."""
    v_1 = _naive_grid_values(env, dp, actions, action_idx)
    return float(np.interp(s1[0], dp.state_points[:, 0], v_1))


@pytest.mark.parametrize("horizon", [1, 2, 3])
@pytest.mark.parametrize(
    "make_env",
    [
        lambda H: env_uniform_shift(0.5, horizon=H),
        lambda H: env_smooth_drift(0.5, 0.3, horizon=H),
    ],
    ids=["uniform_shift", "smooth_drift"],
)
def test_policy_value_matches_naive_reference(make_env, horizon):
    """V^pi(s1) at an off-grid (s1, a1) is a naive loop's step-1 backup there, of the
    naive steps-2..H values of a table policy whose actions are off the oracle grid."""
    env = make_env(horizon)
    dp = dp_solve(env, 17, 9)
    rng = np.random.default_rng(100 + horizon)
    actions = rng.uniform(-1.0, 1.0, size=(6, 1))  # off the oracle action grid
    n_s, M = 17, actions.shape[0]
    tables = [rng.integers(0, M, size=(horizon + 1, n_s)) for _ in range(3)]
    for idx in tables:
        z1 = rng.uniform(-1.0, 1.0, size=2)
        fast = _value(env, dp, actions, idx, z1)
        v_2 = _naive_grid_values(env, dp, actions, idx, first=2)
        assert fast == pytest.approx(_naive_backup(env, dp, 1, z1, v_2), abs=1e-12)


def _per_step_tables(env, dp, actions):
    """Rewards and one separately built kernel per step h < H (None at 0 and H)."""
    sp = dp.state_points
    n_s, M, H = sp.shape[0], actions.shape[0], env.horizon
    Z = grid_pairs(sp, actions)
    rewards = np.stack([np.zeros(n_s * M)] + [env.reward_mean(h, Z) for h in range(1, H + 1)])
    kernels = [None] * (H + 1)
    for h in range(1, H):
        kernels[h] = _discretized_kernel(env, env.transition_key(Z), sp).reshape(n_s, M, n_s)
    return rewards.reshape(H + 1, n_s, M), kernels


def _per_step_policy_values(rewards, kernels, action_idx):
    """``policy_values`` with step h's own kernel at every h < H."""
    rows = np.arange(rewards.shape[1])
    v_next = np.zeros(rewards.shape[1])
    for h in range(len(rewards) - 1, 0, -1):
        a = action_idx[h]
        backup = rewards[h, rows, a]
        if kernels[h] is not None:
            backup = backup + np.einsum("ik,k->i", kernels[h][rows, a], v_next)
        v_next = np.clip(backup, 0.0, 1.0)
    return v_next


@pytest.mark.parametrize("env_name", sorted(ENVS_H3))
def test_one_kernel_policy_values_match_per_step_kernels(env_name):
    env = ENVS_H3[env_name]()
    dp = dp_solve(env, 33, 17)
    rewards, kernel = policy_eval_tables(env, dp, dp.action_points)
    ref_rewards, ref_kernels = _per_step_tables(env, dp, dp.action_points)
    np.testing.assert_array_equal(rewards.view(np.int64), ref_rewards.view(np.int64))
    rng = np.random.default_rng(3)
    for idx in (dp.q.argmax(axis=2), rng.integers(0, rewards.shape[2], rewards.shape[:2])):
        got = policy_values(rewards, kernel, idx)
        want = _per_step_policy_values(ref_rewards, ref_kernels, idx)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _counting_density(env):
    """``env`` with a transition density that records each call's key count."""
    calls = []

    def density(keys, sp):
        calls.append(keys.shape[0])
        return env.transition_density(keys, sp)

    return dataclasses.replace(env, transition_density=density), calls


def _distinct_key_count(env, Z):
    """The number of distinct transition keys, by bit pattern, of the pairs Z."""
    return np.unique(env.transition_key(Z).view(np.int64)).size


@pytest.mark.parametrize("horizon, calls_per_action", [(1, 0), (3, 1)])
def test_policy_eval_tables_build_one_kernel(horizon, calls_per_action):
    """The tables build no kernel row. Every constant policy, evaluated twice, builds the rows
    of the distinct keys it reads first, in one call (none at H = 1): on smooth_drift at
    17 x 9 the key s + a / 2 takes 25 values on 153 pairs, 17 of them at the first action."""
    env, calls = _counting_density(env_smooth_drift(horizon=horizon))
    dp = dp_solve(env, 17, 9)
    calls.clear()
    rewards, kernel = policy_eval_tables(env, dp, dp.action_points)
    assert calls == [] and kernel.built == 0
    M = rewards.shape[2]
    for _ in range(2):
        for j in range(M):
            policy_values(rewards, kernel, np.full(rewards.shape[:2], j))
    assert calls == ([17] + [1] * (M - 1)) * calls_per_action
    Z = grid_pairs(dp.state_points, dp.action_points)
    assert kernel.built == sum(calls) == _distinct_key_count(env, Z) * calls_per_action


def _counting_distinct_keys(monkeypatch):
    """Record the key count of each ``oracle._distinct_keys`` call from now on."""
    calls, distinct_keys = [], oracle._distinct_keys

    def counted(keys):
        calls.append(keys.shape[0])
        return distinct_keys(keys)

    monkeypatch.setattr(oracle, "_distinct_keys", counted)
    return calls


@pytest.mark.parametrize("horizon", [2, 3])
@pytest.mark.parametrize("env_name", ["smooth_drift", "uniform_shift"])
def test_kernel_store_indexes_the_keys_once_at_its_first_read(monkeypatch, env_name, horizon):
    """The tables index no transition key; the store's first read indexes every pair's, once,
    at every horizon. At H = 2 the played policy reads no stored row (its V^pi_2 is the last
    step's reward), so ``policy_value`` indexes nothing and the whole table's first read does;
    at H = 3 its first call does. Its values keep the bits of ``policy_values``' step-1 backup."""
    env = _env(env_name, horizon)
    dp = dp_solve(env, 17, 9)
    actions = uniform_grid(5, 1)
    rng = np.random.default_rng(41)
    idx = rng.integers(0, 5, size=(horizon + 1, 17))
    want = policy_values(*policy_eval_tables(env, dp, actions), idx)

    calls = _counting_distinct_keys(monkeypatch)
    rewards, kernel = policy_eval_tables(env, dp, actions)
    assert calls == []
    for j in range(17):
        z1 = np.concatenate([dp.state_points[j], actions[idx[1, j]]])
        assert policy_value(env, rewards, kernel, z1, idx) == want[j]
        assert calls == [17 * 5] * (horizon - 2)
    assert (kernel.built == 0) == (horizon == 2)
    for _ in range(2):
        assert np.array_equal(policy_values(rewards, kernel, idx), want)
    assert calls == [17 * 5]


def test_refused_first_read_leaves_the_store_as_it_was(monkeypatch):
    """A first read that ``check_policy_tables`` refuses for the store's exact key count builds
    nothing, and a second read is refused the same way, not by a half-built store. With the
    limit restored, the next read gives a fresh store's bits."""
    env = env_smooth_drift(horizon=3)
    dp = dp_solve(env, 17, 9)
    actions = uniform_grid(5, 1)
    idx = np.random.default_rng(43).integers(0, 5, size=(4, 17))
    want = policy_values(*policy_eval_tables(env, dp, actions), idx)
    keys = _distinct_key_count(env, grid_pairs(dp.state_points, actions))
    rewards, kernel = policy_eval_tables(env, dp, actions)
    with monkeypatch.context() as patch:  # one float below the count of a store of every key
        patch.setattr(oracle, "MAX_HELD_ENTRIES", 17 * (5 * (3 + 8) + keys + 3 * 17) - 1)
        check_policy_tables(3, 17, 5, keys - 1)
        for _ in range(2):
            with pytest.raises(ValueError, match="policy tables too large"):
                policy_values(rewards, kernel, idx)
            assert kernel.built == 0
    assert np.array_equal(policy_values(rewards, kernel, idx), want)


def _traced_peak(call):
    """The traced peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("env_name", ["exact_linear", "smooth_drift", "uniform_shift"])
def test_policy_tables_count_the_peak_they_hold(monkeypatch, env_name):
    """``check_policy_tables`` bounds the traced peak of the tables, and of a kernel store that
    constant policies fill, one action's rows at a time, up to the row of every distinct key:
    with a limit one float below the peak, the count refuses the tables without a store (at
    H = 2 and 3) and with a full one, and the store's first read refuses before it allocates."""
    actions = uniform_grid(21, 1)
    for horizon in (2, 3):
        env = _env(env_name, horizon)
        dp = dp_solve(env, 65, 9)
        peak = _traced_peak(lambda: policy_eval_tables(env, dp, actions))
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "MAX_HELD_ENTRIES", math.ceil(peak / 8) - 1)
            with pytest.raises(ValueError, match="policy tables too large"):
                check_policy_tables(horizon, 65, 21, 0)

    def fill():
        rewards, kernel = policy_eval_tables(env, dp, actions)
        for j in range(actions.shape[0]):
            policy_values(rewards, kernel, np.full(rewards.shape[:2], j))
        return kernel

    peak, kernel = _traced_peak(fill), fill()
    keys = _distinct_key_count(env, grid_pairs(dp.state_points, actions))
    assert kernel.built == kernel.has_row.size == keys
    monkeypatch.setattr(oracle, "MAX_HELD_ENTRIES", math.ceil(peak / 8) - 1)
    with pytest.raises(ValueError, match="policy tables too large"):
        check_policy_tables(3, 65, 21, keys)
    with pytest.raises(ValueError, match="policy tables too large"):
        fill()


@pytest.mark.parametrize("degree", [1, 3], ids=["d3", "d10"])
def test_exact_linear_reward_stays_within_the_oracle_counts(monkeypatch, degree):
    """``exact_linear``'s reward builds its features in blocks of rows, so at H = 2 and 201
    actions the policy tables on 129 and 1025 states and ``dp_solve`` on 1025 states peak
    within their counts: a limit one float below each traced peak refuses the grid."""
    fmap = TaylorFeatureMap(build_partition(2, 0.5), enumerate_multi_indices(2, degree))
    theta = np.zeros((2, fmap.dim_features))
    theta[:, 0] = 0.25
    env, actions = env_exact_linear(theta, fmap, horizon=2), uniform_grid(201, 1)

    for m_state in (129, 1025):
        dp = dp_solve(env, m_state, 2)
        peak = _traced_peak(lambda: policy_eval_tables(env, dp, actions))
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "MAX_HELD_ENTRIES", math.ceil(peak / 8) - 1)
            with pytest.raises(ValueError, match="policy tables too large"):
                check_policy_tables(2, m_state, 201, 0)
    peak = _traced_peak(lambda: dp_solve(env, 1025, 201))
    monkeypatch.setattr(oracle, "MAX_HELD_ENTRIES", math.ceil(peak / 8) - 1)
    with pytest.raises(ValueError, match="DP instance too large"):
        oracle.check_dp_grid(2, 1025, 201)


def _env(name, horizon):
    if name == "exact_linear":
        fmap = TaylorFeatureMap(
            partition=build_partition(2, 1.0), index_set=enumerate_multi_indices(2, 1)
        )
        theta = np.tile([0.3, 0.05, 0.1], (horizon, 1)) / horizon
        return env_exact_linear(theta, fmap, horizon=horizon)
    if name == "smooth_drift":
        return env_smooth_drift(0.5, 0.3, horizon=horizon)
    return env_uniform_shift(0.5, horizon=horizon)


def _whole_kernel_policy_values(env, dp, actions, action_idx, first=1):
    """V^pi_first at every grid state with the whole kernel, built once and gathered per step.

    ``action_idx[h]`` is (n_s, J): each state plays its J table actions uniformly at random.
    """
    sp = dp.state_points
    n_s, M, H = sp.shape[0], actions.shape[0], env.horizon
    Z = grid_pairs(sp, actions)
    kernel = _discretized_kernel(env, env.transition_key(Z), sp).reshape(n_s, M, n_s)
    rows = np.arange(n_s)[:, None]
    v_next = np.zeros(n_s)
    for h in range(H, first - 1, -1):
        a = action_idx[h]
        backup = env.reward_mean(h, Z).reshape(n_s, M)[rows, a]
        if h < H:
            backup = backup + np.einsum("ijk,k->ij", kernel[rows, a], v_next)
        v_next = np.clip(backup, 0.0, 1.0).mean(axis=1)
    return v_next


@pytest.mark.parametrize("horizon", [1, 2, 3])
@pytest.mark.parametrize("env_name", ["exact_linear", "smooth_drift", "uniform_shift"])
def test_row_store_policy_values_match_whole_kernel_bit_for_bit(env_name, horizon):
    """Values from kernel rows built on first read are the whole kernel's, bit for bit.

    Every policy is read at every state, then from step 2 on, in a fresh store
    and in the store the full reads filled. At every grid state, V^pi(s1) of
    the table's step-1 action there, one row on V^pi_2, has the bits of V^pi_1
    there: this is why a fixed s1 on the oracle grid keeps its regret bits.
    """
    env = _env(env_name, horizon)
    dp = dp_solve(env, 17, 9)
    sp = dp.state_points
    rng = np.random.default_rng(700 + horizon)
    actions = rng.uniform(-1.0, 1.0, size=(6, 1))  # off the oracle action grid
    M = actions.shape[0]
    policies = [rng.integers(0, M, size=(horizon + 1, 17)) for _ in range(3)]
    policies.append(dp.q.argmax(axis=2) % M)
    rewards, filled = policy_eval_tables(env, dp, actions)
    for idx in policies:
        want = _whole_kernel_policy_values(env, dp, actions, idx[:, :, None])
        assert np.array_equal(policy_values(rewards, filled, idx), want)
        want_2 = _whole_kernel_policy_values(env, dp, actions, idx[:, :, None], first=2)
        for kernel in (policy_eval_tables(env, dp, actions)[1], filled):
            v_2 = policy_values(rewards[1:], kernel, idx[1:])
            assert np.array_equal(v_2, want_2)
        for j in range(17):
            z1 = np.concatenate([sp[j], actions[idx[1, j]]])
            assert policy_value(env, rewards, filled, z1, idx) == want[j]
    Z = grid_pairs(sp, actions)
    read = [Z[np.arange(17) * M + idx[h]] for idx in policies for h in range(1, horizon)]
    assert filled.built == (_distinct_key_count(env, np.concatenate(read)) if read else 0)


def test_vpi_is_the_naive_value_of_the_played_policy(monkeypatch):
    """With a uniform s1 at H = 3 and degree 2, every vpi is a naive loop's value of the
    policy played: the step-1 backup at (s1, a1) of its steps-2..H values, each with the
    density queried at the exact (s, a)."""
    played = record_played(monkeypatch)
    config = harness.RunConfig(
        env_name="smooth_drift", episodes=12, horizon=3, nu=3.0, epsilon=0.5,
        oracle_m_state=17, oracle_m_action=9, init_mode="uniform", seed=4,
    )
    trace = harness.run_experiment(config)
    env = harness.build_env(config)
    dp = dp_solve(env, 17, 9)
    learner = harness.build_learner(config, dp.state_points)
    want = [
        _naive_backup(env, dp, 1, z1, _naive_grid_values(env, dp, learner.actions, table, 2))
        for z1, table in played
    ]
    np.testing.assert_allclose(trace.column("vpi"), want, rtol=0, atol=1e-12)
    assert len({z1[1] for z1, _ in played}) > 1


def test_vpi_values_the_action_played_where_the_grid_pair_picks_differ(monkeypatch):
    """A planned table whose greedy action follows the state, ``-(a - s)^2``, plays a = 0.3
    at s1 = 0.27, and a = 0 and a = 0.5 at the oracle states 0 and 0.5 around it. vpi is
    the value of (0.27, 0.3), where interpolating the values of the grid pair's picks
    would be off by 0.15."""
    config = harness.RunConfig(
        env_name="smooth_drift", episodes=1, horizon=2, nu=3.0, epsilon=1.0,
        oracle_m_state=5, oracle_m_action=9, init_value=0.27,
    )
    learner = harness.build_learner(config, uniform_grid(config.oracle_m_state, 1))
    assert learner.N == 1 and learner.fmap.index_set.indices.tolist() == [
        [0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]
    ]

    refit = learner._refit

    def fixed(h, v_next):  # every step scores -(a - s)^2 = -s^2 + 2 s a - a^2, with no bonus
        refit(h, v_next)  # scores step h + 1, recording the plan's picks there
        return np.array([[0.0, 0.0, 0.0, -1.0, 2.0, -1.0]])

    monkeypatch.setattr(learner, "_refit", fixed)
    monkeypatch.setattr("cinderella.learner.alpha_radius", lambda *args: 0.0)
    monkeypatch.setattr(harness, "build_learner", lambda cfg, probe_states: learner)
    trace = harness.run_experiment(config)

    env = harness.build_env(config)
    dp = dp_solve(env, 5, 9)
    s1, axis = np.array([0.27]), dp.state_points[:, 0]
    assert [learner.act(1, s)[2] for s in ([0.0], [0.5], s1)] == [10, 15, 13]
    v_2 = _naive_grid_values(env, dp, learner.actions, learner.policy.picks, 2)
    exact = _naive_backup(env, dp, 1, [0.27, 0.3], v_2)
    assert trace.column("vpi")[0] == pytest.approx(exact, abs=1e-12)
    pair = [_naive_backup(env, dp, 1, [s, s], v_2) for s in (0.0, 0.5)]
    assert abs(np.interp(0.27, axis[2:4], pair) - exact) > 0.1


def test_played_policies_build_each_kernel_row_once(monkeypatch):
    """A short H = 3, uniform-s1 run builds the kernel row of each distinct transition key its
    played policies read, once, and not every key's row: 80 rows for the 130 (state, action)
    pairs read. The store indexes the keys once, after set-up, at its first read."""
    reads, stores, built, set_up = [], [], [], []
    distinct = _counting_distinct_keys(monkeypatch)

    class Recorded:  # the run's kernel rows, recording the pairs of each read
        def __init__(self, kernel):
            self.kernel, self.state_points = kernel, kernel.state_points

        def __getitem__(self, index):
            reads.append(index)
            return self.kernel[index]

    def tables(env, dp, actions):
        def density(keys, sp):
            built.append(keys.shape[0])
            return env.transition_density(keys, sp)

        counted = dataclasses.replace(env, transition_density=density)
        rewards, kernel = policy_eval_tables(counted, dp, actions)
        stores.append((kernel, grid_pairs(dp.state_points, actions), actions.shape[0]))
        set_up.append(len(distinct))
        return rewards, Recorded(kernel)

    monkeypatch.setattr(harness, "_policy_eval_tables", tables)
    config = harness.RunConfig(
        env_name="smooth_drift", episodes=24, horizon=3, nu=2.0, epsilon=0.5,
        oracle_m_state=33, oracle_m_action=17, init_mode="uniform",
    )
    harness.run_experiment(config)
    ((kernel, Z, M),) = stores
    pairs = np.unique(np.concatenate([states * M + actions for states, actions in reads]))
    keys = _distinct_key_count(harness.build_env(config), Z[pairs])
    assert sum(built) == kernel.built == kernel.has_row.sum() == keys < pairs.size
    assert kernel.built < kernel.has_row.size
    assert distinct[set_up[0] :] == [Z.shape[0]]  # the store's one index, built in an episode


@pytest.mark.parametrize("horizon", [1, 2, 3])
@pytest.mark.parametrize("env_name", ["exact_linear", "smooth_drift", "uniform_shift"])
def test_random_policy_gap_matches_whole_kernel_reference(env_name, horizon):
    """V^rand is the whole-kernel, all-actions backup bit for bit, and the naive one to 1e-12."""
    env = _env(env_name, horizon)
    for grid in [(17, 9), (20, 7), (65, 33)]:
        dp = dp_solve(env, *grid)
        axis, n_a = dp.state_points[:, 0], dp.action_points.shape[0]
        every_action = np.broadcast_to(np.arange(n_a), (horizon + 1, axis.size, n_a))
        want = _whole_kernel_policy_values(env, dp, dp.action_points, every_action)
        v_rand, _ = _grid_backup(env, dp.state_points, dp.action_points, np.mean)
        assert np.array_equal(v_rand[1], want)
        for s1 in [-1.0, 1.0, axis[5], 0.3141]:
            gap = random_policy_gap(env, dp, np.array([s1]))
            assert gap == dp.value_at(np.array([s1])) - np.interp(s1, axis, want)
            if grid == (17, 9):
                naive = _naive_policy_value(env, dp, dp.action_points, every_action, [s1])
                assert dp.value_at(np.array([s1])) - gap == pytest.approx(naive, abs=1e-12)


def test_random_policy_gap_never_holds_a_whole_kernel():
    """At 257 x 129 the rows of every (state, action) pair take 68 MB; the grid backup
    builds only the distinct keys' rows, in blocks."""
    env = env_smooth_drift(horizon=3)
    dp = dp_solve(env, 257, 129)
    tracemalloc.start()
    try:
        random_policy_gap(env, dp, np.zeros(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# -- inherent error ----------------------------------------------------------


def test_inherent_error_exact_linear_is_zero():
    part = build_partition(2, 1.0)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 1))
    theta = np.array([[0.3, 0.05, 0.1], [0.3, 0.05, 0.1]])
    env = env_exact_linear(theta, fmap, horizon=2)
    rep = inherent_error_estimate(env, fmap, theta_box_radius=3.0, m_state=33, m_action=17)
    assert rep.estimate <= 1e-6


def test_inherent_error_zero_class_saturates():
    # Box radius 0 collapses the class to the zero function; with the maximal
    # flat reward at H = 1 the estimate hits the normalization ceiling.
    env = env_uniform_shift(0.5, reward="constant", horizon=1)
    part = build_partition(2, 1.0)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 0))
    rep = inherent_error_estimate(env, fmap, theta_box_radius=0.0, m_state=17, m_action=9)
    assert rep.estimate == pytest.approx(1.0, abs=1e-9)
    assert rep.estimate <= 1.0 + 1e-9


@pytest.mark.parametrize("m_state", [17, 33])
@pytest.mark.parametrize(
    "make_env",
    [
        lambda: env_uniform_shift(0.5, reward="zero", horizon=2),
        lambda: env_smooth_drift(0.5, 0.3, reward="zero", horizon=2),
    ],
    ids=["uniform_shift", "smooth_drift"],
)
def test_inherent_error_zero_for_constant_images(make_env, m_state):
    # Zero reward and one constant feature on one region: every Bellman image
    # of a clipped constant is that constant, which the class holds exactly,
    # provided the audit's kernel rows sum to one.
    part = build_partition(2, 1.0)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 0))
    rep = inherent_error_estimate(
        make_env(), fmap, theta_box_radius=1.0, m_state=m_state, m_action=9
    )
    assert rep.estimate == pytest.approx(0.0, abs=1e-9)


def test_inherent_error_rejects_vanishing_density():
    env = env_uniform_shift(beta=0.5, horizon=2)
    dead = dataclasses.replace(
        env, transition_density=lambda keys, sp: np.zeros((keys.shape[0], sp.shape[0]))
    )
    part = build_partition(2, 1.0)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 0))
    with pytest.raises(ValueError, match="vanished"):
        inherent_error_estimate(dead, fmap, theta_box_radius=1.0, m_state=17, m_action=9)


def _per_step_audit(env, partition, fmap, radius, m_state, m_action, seed):
    """``inherent_error_estimate``'s ``per_step`` with a kernel built at each step h < H
    and the reward recomputed for every candidate."""
    rng = np.random.default_rng(seed)
    sp, ap = uniform_grid(m_state, 1), uniform_grid(m_action, 1)
    Z = grid_pairs(sp, ap)
    regions = assign_regions(partition, Z)
    feats = features_at_centers(fmap, Z, partition.centers[regions])
    H, N, d_feat = env.horizon, partition.n_regions, fmap.dim_features
    per_step = np.zeros(H)
    for h in range(1, H + 1):
        last = h == H
        cands = [np.zeros((N, d_feat))] if last else _candidate_thetas(N, d_feat, radius, rng)
        kernel = None if last else _discretized_kernel(env, env.transition_key(Z), sp)
        for theta_next in cands:
            target = env.reward_mean(h, Z)
            if not last:
                q_next = np.einsum("zf,zf->z", feats, theta_next[regions])
                w_vals = np.clip(q_next.reshape(m_state, -1), 0.0, 1.0).max(axis=1)
                target = target + np.einsum("ij,j->i", kernel, w_vals)
            for n in np.unique(regions):
                mask = regions == n
                resid = _chebyshev_fit_residual(feats[mask], target[mask], radius)
                per_step[h - 1] = max(per_step[h - 1], resid)
    return per_step


@pytest.mark.parametrize("env_name", sorted(ENVS_H3))
def test_one_kernel_audit_matches_per_step_kernels(env_name):
    """The audit's one density call takes the distinct keys of its 17 x 9 pairs, and its
    ``per_step`` has the bits of a kernel built on every pair at each step."""
    env, calls = _counting_density(ENVS_H3[env_name]())
    part = build_partition(2, 0.5)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 1))
    rep = inherent_error_estimate(env, fmap, 2.0, m_state=17, m_action=9, seed=4)
    Z = grid_pairs(uniform_grid(17, 1), uniform_grid(9, 1))
    assert calls == [_distinct_key_count(env, Z)] and calls[0] < 17 * 9
    want = _per_step_audit(env, fmap.partition, fmap, 2.0, 17, 9, seed=4)
    np.testing.assert_array_equal(rep.per_step.view(np.int64), want.view(np.int64))


def test_inherent_error_shrinks_with_finer_partition():
    env = env_uniform_shift(0.5, horizon=2)
    estimates = {}
    for eps in (0.5, 0.25):
        part = build_partition(2, eps)
        fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 0))
        rep = inherent_error_estimate(
            env, fmap, theta_box_radius=2.0 * env.c_t, m_state=33, m_action=17, seed=5
        )
        estimates[eps] = rep.estimate
    assert estimates[0.25] < estimates[0.5]


def test_inherent_error_monotone_in_degree():
    env = env_smooth_drift(0.5, 0.3, horizon=2)
    part = build_partition(2, 0.5)
    estimates = []
    for degree in (0, 1):
        fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, degree))
        rep = inherent_error_estimate(
            env, fmap, theta_box_radius=4.0, m_state=17, m_action=9, seed=3
        )
        estimates.append(rep.estimate)
    assert estimates[1] <= estimates[0] + 1e-9


@pytest.mark.parametrize("horizon", [1, 2])
@pytest.mark.parametrize("radius", [-1.0, -1e-12, np.nan])
def test_inherent_error_rejects_bad_radius(horizon, radius):
    """A negative or NaN box radius fails up front, not in the sampler or the LP."""
    env = env_uniform_shift(0.5, horizon=horizon)
    part = build_partition(2, 1.0)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 0))
    with pytest.raises(ValueError, match="theta box radius must be finite and >= 0"):
        inherent_error_estimate(env, fmap, radius, m_state=17, m_action=9)


def test_inherent_error_report_shape():
    env = env_uniform_shift(0.5, horizon=2)
    part = build_partition(2, 0.5)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 0))
    rep = inherent_error_estimate(env, fmap, theta_box_radius=1.0, m_state=17, m_action=9)
    assert rep.estimate == pytest.approx(rep.per_step.max())
    assert 1 <= rep.witness_step <= 2
    with pytest.raises(ValueError, match="at least 2"):
        inherent_error_estimate(env, fmap, 1.0, m_state=1, m_action=9)


def test_inherent_error_refuses_an_oversized_kernel_before_allocating():
    """At 513 x 257 the audit's whole kernel would take 541 MB (4.3 GB at 1025 x 513); it is
    refused before the grids are built. At H = 1 there is no kernel, and the rows alone
    refuse 4097 x 2049."""
    part = build_partition(2, 1.0)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 0))
    tracemalloc.start()
    try:
        for m_state, m_action in [(513, 257), (1025, 513)]:
            with pytest.raises(ValueError, match="too large"):
                inherent_error_estimate(
                    env_uniform_shift(0.5, horizon=2), fmap, 1.0, m_state, m_action
                )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    with pytest.raises(ValueError, match="too large"):
        inherent_error_estimate(env_uniform_shift(0.5, horizon=1), fmap, 1.0, 4097, 2049)


# -- Taylor remainder ---------------------------------------------------------


def test_taylor_exact_for_polynomials():
    def cubic(pts):
        return 0.3 * pts[:, 0] ** 3 - 0.1 * pts[:, 0]

    def cubic_deriv(alpha, c):
        k = alpha[0]
        table = [0.3 * c[0] ** 3 - 0.1 * c[0], 0.9 * c[0] ** 2 - 0.1, 1.8 * c[0], 1.8]
        return table[k]

    err = taylor_remainder_check(cubic, cubic_deriv, nu=4.0, epsilon=0.5)
    assert err <= 1e-12


def test_taylor_sin_bound_and_decay():
    errs = {
        eps: taylor_remainder_check(sin2x, sin2x_derivative, nu=3.0, epsilon=eps, lipschitz=8.0)
        for eps in (0.5, 0.25, 0.125)
    }
    assert errs[0.25] <= 8.0 * 0.25**3
    assert errs[0.5] / errs[0.25] >= 4.0
    assert errs[0.25] / errs[0.125] >= 4.0


def test_taylor_violation_raises():
    # claiming a tighter Lipschitz constant than the truth must fail
    with pytest.raises(AssertionError):
        taylor_remainder_check(sin2x, sin2x_derivative, nu=3.0, epsilon=0.5, lipschitz=0.01)
