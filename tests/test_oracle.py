import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cinderella.envs import env_exact_linear, env_smooth_drift, env_uniform_shift
from cinderella.features import TaylorFeatureMap, enumerate_multi_indices
from cinderella.geometry import build_partition, grid_pairs, uniform_grid
from cinderella.harness import random_policy_gap
from cinderella.oracle import (
    _discretized_kernel,
    dp_solve,
    inherent_error_estimate,
    policy_eval_tables,
    policy_value,
    taylor_remainder_check,
)
from conftest import sin2x, sin2x_derivative

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


def test_dp_rejects_two_dimensional_states():
    env = dataclasses.replace(env_uniform_shift(0.5, horizon=2), state_dim=2)
    with pytest.raises(ValueError, match="1-d states"):
        dp_solve(env, 17, 9)


TESTS = Path(__file__).resolve().parent
ENVS_H3 = {
    "smooth_drift": lambda: env_smooth_drift(horizon=3),
    "uniform_shift": lambda: env_uniform_shift(0.5, horizon=3),
}


def _whole_kernel_dp(env, m_state, m_action):
    """``dp.v`` and ``dp.q`` with each step's kernel built whole and used in one product."""
    sp, ap = uniform_grid(m_state, 1), uniform_grid(m_action, env.action_dim)
    Z = grid_pairs(sp, ap)
    n_s, n_a, H = m_state, ap.shape[0], env.horizon
    v, q = np.zeros((H + 2, n_s)), np.zeros((H + 1, n_s, n_a))
    for h in range(H, 0, -1):
        backup = env.reward_mean(h, Z).reshape(n_s, n_a)
        if h < H:
            backup = backup + (_discretized_kernel(env, h, Z, sp) @ v[h + 1]).reshape(n_s, n_a)
        q[h] = np.clip(backup, 0.0, 1.0)
        v[h] = q[h].max(axis=1)
    return v, q


def check_streamed_dp_matches_whole_kernel(env_name):
    """Raise unless ``dp_solve`` gives the whole-kernel tables bit for bit.

    The grids have 8385, 33153 and 2145 (state, action) rows, 1025 (a last
    block of one row) and 153 (one block).
    """
    env = ENVS_H3[env_name]()
    for m_state, m_action in [(129, 65), (257, 129), (65, 33), (41, 25), (17, 9)]:
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


@pytest.mark.parametrize("env_name", sorted(ENVS_H3))
def test_streamed_dp_matches_whole_kernel_bit_for_bit(env_name):
    """The row-block backup is the single-threaded whole-kernel backup, bit for bit, at H = 3."""
    _at_blas_threads(
        1, f"import test_oracle; test_oracle.check_streamed_dp_matches_whole_kernel({env_name!r})"
    )


def test_dp_bits_do_not_depend_on_blas_threads():
    """Whole-kernel products gave other bits at 2 BLAS threads on some of these grids."""
    code = (
        "import hashlib\n"
        "from test_oracle import ENVS_H3\n"
        "from cinderella.oracle import dp_solve\n"
        "for name, grid in [('smooth_drift', (129, 129)), ('smooth_drift', (129, 65)),\n"
        "                   ('uniform_shift', (129, 129))]:\n"
        "    dp = dp_solve(ENVS_H3[name](), *grid)\n"
        "    print(name, grid, hashlib.sha256(dp.v.tobytes() + dp.q.tobytes()).hexdigest())\n"
    )
    one = _at_blas_threads(1, code)
    assert one.count("\n") == 3
    assert _at_blas_threads(2, code) == one


def test_dp_never_holds_a_whole_kernel():
    """At 257 x 129 a step's whole kernel is 68 MB; the streamed solve peaks near 4 MB."""
    env = env_smooth_drift(horizon=3)
    tracemalloc.start()
    try:
        dp_solve(env, 257, 129)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _value(env, dp, actions, action_idx, s1):
    rewards, kernels = policy_eval_tables(env, dp, actions)
    return policy_value(rewards, kernels, action_idx, dp.state_points[:, 0], s1)


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
    dens = env.transition_density(1, Z, sp)
    want = dens / dens.sum(axis=1, keepdims=True)
    first = _discretized_kernel(env, 1, Z, sp)
    second = _discretized_kernel(env, 1, Z, sp)
    np.testing.assert_array_equal(first, want)
    np.testing.assert_array_equal(second, want)
    assert not np.shares_memory(first, second)


def test_policy_value_greedy_self_consistency():
    env = env_uniform_shift(0.5, horizon=2)
    dp = dp_solve(env, 65, 33)
    s1 = np.zeros(1)
    v_pi = _value(env, dp, dp.action_points, dp.q.argmax(axis=2)[:, :, None], s1)
    assert v_pi == pytest.approx(dp.value_at(s1), abs=1e-9)


def test_policy_value_random_on_zero_reward():
    env = env_uniform_shift(0.5, reward="zero", horizon=2)
    dp = dp_solve(env, 33, 17)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, dp.action_points.shape[0], size=(env.horizon + 1, 33, 1))
    assert _value(env, dp, dp.action_points, idx, np.zeros(1)) == pytest.approx(0.0, abs=1e-12)


def test_policy_value_never_beats_optimal(rng):
    env = env_uniform_shift(0.5, horizon=2)
    dp = dp_solve(env, 65, 33)
    s1 = np.zeros(1)
    vstar = dp.value_at(s1)
    idx = np.zeros((env.horizon + 1, 65, 1), dtype=np.int64)
    for _ in range(5):
        a_fixed = rng.uniform(-1, 1)
        v_pi = _value(env, dp, np.array([[a_fixed]]), idx, s1)
        assert v_pi <= vstar + 1e-9


def test_random_policy_value_below_optimal():
    env = env_uniform_shift(0.5, horizon=2)
    dp = dp_solve(env, 65, 33)
    vstar = dp.value_at(np.zeros(1))
    v_rand = vstar - random_policy_gap(env, dp, np.zeros(1))
    assert 0.0 <= v_rand <= vstar


def _naive_policy_value(env, dp, actions, action_idx, s1):
    """Per-state backward induction with the density queried at each exact (s, a)."""
    sp = dp.state_points
    w = 2.0 / (dp.m_state - 1)
    v_next = np.zeros(sp.shape[0])
    for h in range(env.horizon, 0, -1):
        v = np.zeros_like(v_next)
        for i, s in enumerate(sp):
            values = []
            for j in action_idx[h][i]:
                z = np.concatenate([s, actions[j]])[None, :]
                backup = env.reward_mean(h, z)[0]
                if h < env.horizon:
                    dens = env.transition_density(h, z, sp)[0] * w
                    backup += (dens / dens.sum()) @ v_next
                values.append(min(max(backup, 0.0), 1.0))
            v[i] = np.mean(values)
        v_next = v
    return float(np.interp(s1[0], sp[:, 0], v_next))


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
    env = make_env(horizon)
    dp = dp_solve(env, 17, 9)
    rng = np.random.default_rng(100 + horizon)
    actions = rng.uniform(-1.0, 1.0, size=(6, 1))  # off the oracle action grid
    s1 = np.array([rng.uniform(-1.0, 1.0)])
    n_s, M = 17, actions.shape[0]
    tables = [rng.integers(0, M, size=(horizon + 1, n_s, 1)) for _ in range(3)]
    tables.append(np.broadcast_to(np.arange(M), (horizon + 1, n_s, M)))  # uniform random
    for idx in tables:
        fast = _value(env, dp, actions, idx, s1)
        assert fast == pytest.approx(_naive_policy_value(env, dp, actions, idx, s1), abs=1e-12)


# -- inherent error ----------------------------------------------------------


def test_inherent_error_exact_linear_is_zero():
    part = build_partition(2, 1.0)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 1))
    theta = np.array([[0.3, 0.05, 0.1], [0.3, 0.05, 0.1]])
    env = env_exact_linear(theta, fmap, horizon=2)
    rep = inherent_error_estimate(env, part, fmap, theta_box_radius=3.0, m_state=33, m_action=17)
    assert rep.estimate <= 1e-6


def test_inherent_error_zero_class_saturates():
    # Box radius 0 collapses the class to the zero function; with the maximal
    # flat reward at H = 1 the estimate hits the normalization ceiling.
    env = env_uniform_shift(0.5, reward="constant", horizon=1)
    part = build_partition(2, 1.0)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 0))
    rep = inherent_error_estimate(env, part, fmap, theta_box_radius=0.0, m_state=17, m_action=9)
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
        make_env(), part, fmap, theta_box_radius=1.0, m_state=m_state, m_action=9
    )
    assert rep.estimate == pytest.approx(0.0, abs=1e-9)


def test_inherent_error_rejects_vanishing_density():
    env = env_uniform_shift(beta=0.5, horizon=2)
    dead = dataclasses.replace(
        env, transition_density=lambda h, Z, sp: np.zeros((Z.shape[0], sp.shape[0]))
    )
    part = build_partition(2, 1.0)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 0))
    with pytest.raises(ValueError, match="vanished"):
        inherent_error_estimate(dead, part, fmap, theta_box_radius=1.0, m_state=17, m_action=9)


def test_inherent_error_shrinks_with_finer_partition():
    env = env_uniform_shift(0.5, horizon=2)
    estimates = {}
    for eps in (0.5, 0.25):
        part = build_partition(2, eps)
        fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 0))
        rep = inherent_error_estimate(
            env, part, fmap, theta_box_radius=2.0 * env.c_t, m_state=33, m_action=17, seed=5
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
            env, part, fmap, theta_box_radius=4.0, m_state=17, m_action=9, seed=3
        )
        estimates.append(rep.estimate)
    assert estimates[1] <= estimates[0] + 1e-9


def test_inherent_error_report_shape():
    env = env_uniform_shift(0.5, horizon=2)
    part = build_partition(2, 0.5)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 0))
    rep = inherent_error_estimate(env, part, fmap, theta_box_radius=1.0, m_state=17, m_action=9)
    assert rep.estimate == pytest.approx(rep.per_step.max())
    assert 1 <= rep.witness_step <= 2
    with pytest.raises(ValueError, match="at least 2"):
        inherent_error_estimate(env, part, fmap, 1.0, m_state=1, m_action=9)


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
