"""Brute-force ground truth: grid dynamic programming and function-class audits.

Values are computed by backward induction on uniform grids. Expectations use
midpoint-style Riemann sums of ``density * value``; the discretized kernel
rows are renormalized to sum to one so that constant functions propagate
exactly through the backup. Every expectation E[v | z] is one rule: plain
``np.einsum`` (no BLAS) of a kernel row with v, so its bits depend on that
row and v only, not on the batch, the BLAS library or its thread count.
One kernel serves every step h < H, and its rows are built from the env's
``transition_key``: the audit builds it whole once per grid, the policy
evaluator each (state, action) row on its first read and the one row at the
played (s1, a1), and the grid backup each distinct key's row once per step,
in blocks, so it never holds a whole kernel. One grid backup gives both V*
(max over actions, ``dp_solve``) and the uniform-random policy's value
(mean, ``random_policy_gap``).
Every oracle output is reported together with the grid resolution that
produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envs import EnvironmentModel
from .features import TaylorFeatureMap, enumerate_multi_indices, features_at_centers, nu_star
from .geometry import Partition, assign_regions, build_partition, grid_pairs, uniform_grid

# Refuse grids whose solve would hold more float entries than this (128 MB):
# dp_solve's n_s * n_a rows and kernel blocks, the audit's whole kernel.
MAX_HELD_ENTRIES = 16_000_000
_N_RANDOM_CANDIDATES = 6  # random corner and interior draws per audited step
_BLOCK_ROWS = 1024  # distinct-key rows per kernel block in _grid_backup


@dataclass
class GridDP:
    """Backward-induction tables for one environment on a fixed grid.

    ``v[h]`` and ``q[h]`` are indexed with h starting at 1 (entry 0 unused in
    q; v[horizon + 1] is the terminal zero function). States and actions are 1-D.
    """

    m_state: int
    m_action: int
    state_points: np.ndarray  # (n_s, 1)
    action_points: np.ndarray  # (n_a, 1)
    v: np.ndarray  # (H + 2, n_s)
    q: np.ndarray  # (H + 1, n_s, n_a)

    def value_at(self, s: np.ndarray) -> float:
        """Linearly interpolated V_1 at an arbitrary state."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return float(np.interp(s[0], self.state_points[:, 0], self.v[1]))

    def report(self, s1: np.ndarray) -> dict:
        return {
            "v_star_at_s1": self.value_at(s1),
            "s1": np.atleast_1d(s1).tolist(),
            "m_state": self.m_state,
            "m_action": self.m_action,
        }


def _discretized_kernel(env: EnvironmentModel, keys: np.ndarray, sp: np.ndarray):
    """Row-normalized quadrature weights for E[f(s') | z] on the state grid.

    ``keys`` are ``env.transition_key(Z)``. The uniform grid's quadrature
    weight is the same for every point, so it cancels in the normalization.
    """
    dens = env.transition_density(keys, sp)
    # Normalized in place: a kernel is the largest array of a solve, so a
    # same-size temporary would set the peak memory.
    totals = dens.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("transition density vanished on the whole state grid")
    dens /= totals
    return dens


def _grid_backup(env: EnvironmentModel, sp: np.ndarray, ap: np.ndarray, over_actions):
    """Backward induction on the (state, action) grid; ``v[h] = over_actions(q[h], axis=1)``.

    ``np.max`` gives the optimal tables, ``np.mean`` the uniform-random
    policy's. Q is clipped to [0, 1], matching the normalization the
    environments guarantee. Each step's expectation ``E[v_{h+1} | z]``
    depends on z only through ``env.transition_key(z)``, so it is computed
    once per distinct key (by bit pattern) and gathered back to the
    (n_s * n_a) rows: 385 keys for 33153 rows on smooth_drift at 257 x 129.
    The distinct rows go through the kernel in blocks of ``_BLOCK_ROWS``, so
    no step's whole kernel is built.
    """
    n_s, n_a = sp.shape[0], ap.shape[0]
    Z = grid_pairs(sp, ap)  # (n_s * n_a, d)
    keys = env.transition_key(Z)
    _, first, inverse = np.unique(keys.view(np.int64), return_index=True, return_inverse=True)
    distinct = keys[first]
    H = env.horizon
    v = np.zeros((H + 2, n_s))
    q = np.zeros((H + 1, n_s, n_a))
    expect = np.empty(len(distinct))
    for h in range(H, 0, -1):
        backup = env.reward_mean(h, Z).reshape(n_s, n_a)
        if h < H:
            for i in range(0, len(distinct), _BLOCK_ROWS):
                block = _discretized_kernel(env, distinct[i : i + _BLOCK_ROWS], sp)
                expect[i : i + _BLOCK_ROWS] = np.einsum("ij,j->i", block, v[h + 1])
                del block  # freed before the next is built, or two would set the peak
            backup = backup + expect[inverse].reshape(n_s, n_a)
        q[h] = np.clip(backup, 0.0, 1.0)
        v[h] = over_actions(q[h], axis=1)
    return v, q


def dp_solve(env: EnvironmentModel, m_state: int, m_action: int) -> GridDP:
    """Optimal value tables: ``_grid_backup`` with the max over actions on a uniform grid."""
    if m_state < 2 or m_action < 2:
        raise ValueError("grid resolutions must be at least 2")
    # Sized with Python ints, before any allocation. Per (state, action) row:
    # Z (2), the keys and their index (2), q (H + 1), and the backup
    # with two temporaries of its size (3). Then one kernel block
    # _BLOCK_ROWS * n_s, and one density temporary as large.
    n_rows = int(m_state) * int(m_action)
    held = n_rows * (env.horizon + 8) + 2 * _BLOCK_ROWS * int(m_state)
    if held > MAX_HELD_ENTRIES:
        raise ValueError("DP instance too large; reduce grid resolutions")
    sp = uniform_grid(m_state, 1)
    ap = uniform_grid(m_action, 1)
    v, q = _grid_backup(env, sp, ap, np.max)
    return GridDP(m_state=m_state, m_action=m_action, state_points=sp, action_points=ap, v=v, q=q)


def random_policy_gap(env: EnvironmentModel, dp: GridDP, s1) -> float:
    """V*(s1) minus the uniform-random policy's value, both on ``dp``'s grid."""
    s1 = np.atleast_1d(np.asarray(s1, dtype=float))
    v_rand, _ = _grid_backup(env, dp.state_points, dp.action_points, np.mean)
    return dp.value_at(s1) - float(np.interp(s1[0], dp.state_points[:, 0], v_rand[1]))


class KernelRows:
    """The one kernel of every step h < H on (oracle states x table actions), built as read.

    ``kernel[states, actions]`` gives the rows of the (state, action) index
    arrays, as fancy indexing of the whole (n_s, M, n_s) kernel would, with
    its bits. Each row is built with ``_discretized_kernel`` on
    its first read, so a density that vanishes raises there. Built rows are
    kept in a compact store that grows as rows are built: ``slot`` holds each
    (state, action) pair's store row, -1 until it is built.
    """

    def __init__(self, env: EnvironmentModel, keys: np.ndarray, sp: np.ndarray, n_actions: int):
        self._env, self._keys, self._sp, self._n_actions = env, keys, sp, n_actions
        self.slot = np.full(keys.shape[0], -1, dtype=np.int64)
        self.built = 0
        self._store = np.empty((0, sp.shape[0]))

    def __getitem__(self, index) -> np.ndarray:
        states, actions = index
        flat = states * self._n_actions + actions
        slots = self.slot[flat]
        missing = slots < 0
        if missing.any():
            new = np.unique(flat[missing])
            rows = _discretized_kernel(self._env, self._keys[new], self._sp)
            end = self.built + new.size
            if end > self._store.shape[0]:
                grown = np.empty((max(end, 2 * self._store.shape[0]), self._sp.shape[0]))
                grown[: self.built] = self._store[: self.built]
                self._store = grown
            self._store[self.built : end] = rows
            self.slot[new] = np.arange(self.built, end)
            self.built = end
            slots = self.slot[flat]
        return self._store[slots]


def policy_eval_tables(env: EnvironmentModel, dp: GridDP, actions: np.ndarray):
    """Reward tables and the kernel's rows on (oracle states x the given actions).

    ``rewards[h]`` is (n_s, M) for h = 1..H. ``kernel`` is the ``KernelRows``
    of every step h < H; none of its rows is built until a policy reads it.
    """
    sp = dp.state_points
    n_s, M = sp.shape[0], actions.shape[0]
    Z = grid_pairs(sp, actions)
    H = env.horizon
    rewards = np.zeros((H + 1, n_s, M))
    for h in range(1, H + 1):
        rewards[h] = env.reward_mean(h, Z).reshape(n_s, M)
    return rewards, KernelRows(env, env.transition_key(Z), sp, M)


def policy_values(rewards, kernel, action_idx) -> np.ndarray:
    """V^pi_1 on the grid states, (n_s,), of a deterministic table policy.

    A backward induction over ``policy_eval_tables``: ``action_idx[h]`` is
    (n_s,), the table action the policy plays at each grid state. The horizon
    H is ``len(rewards) - 1``; ``kernel`` serves every step h < H. The kernel
    takes no step, so ``policy_values(rewards[1:], kernel, action_idx[1:])``
    is V^pi_2 (0 at H = 1).
    """
    H, n_s = len(rewards) - 1, rewards.shape[1]
    rows = np.arange(n_s)
    v_next = np.zeros(n_s)
    for h in range(H, 0, -1):
        a = action_idx[h]
        backup = rewards[h, rows, a]
        if h < H:
            backup = backup + np.einsum("ik,k->i", kernel[rows, a], v_next)
        v_next = np.clip(backup, 0.0, 1.0)
    return v_next


def policy_value(env: EnvironmentModel, sp: np.ndarray, z1, v_2) -> float:
    """V^pi_1(s1) of a policy that plays a1 at s1: ``clip(r_1(z1) + E[V^pi_2 | z1], 0, 1)``.

    ``z1`` is (s1, a1) and ``v_2`` is V^pi_2 on the grid states ``sp``, as
    ``policy_values`` gives it from step 2 on. The expectation is one
    ``_discretized_kernel`` row with the oracle's one rule, so at a grid
    state and a table action the value has the bits of ``policy_values``'
    step-1 backup there.
    """
    z1 = np.asarray(z1, dtype=float)[None, :]
    backup = env.reward_mean(1, z1)
    if env.horizon > 1:
        row = _discretized_kernel(env, env.transition_key(z1), sp)
        backup = backup + np.einsum("ik,k->i", row, v_2)
    return float(np.clip(backup, 0.0, 1.0)[0])


# ---------------------------------------------------------------------------
# Function-class audits
# ---------------------------------------------------------------------------


@dataclass
class InherentErrorReport:
    """Estimated worst-case gap between the feature class and its Bellman images.

    The supremum over next-step parameters is sampled, so the estimate is a
    lower bound of the true quantity; grid sizes are recorded alongside.
    """

    estimate: float
    witness_step: int
    witness_point: np.ndarray
    per_step: np.ndarray
    n_candidates: int
    m_state: int
    m_action: int


def _chebyshev_fit_residual(phi: np.ndarray, y: np.ndarray, radius: float) -> float:
    """min over theta in the box of max |phi @ theta - y| (linear program).

    ``scipy.optimize`` is imported here, at the audit's first fit, because a
    regret run never audits: importing it with the module put 22 MB of
    resident memory into every run and sweep worker (CPython 3.11, scipy 1.17).
    """
    from scipy.optimize import linprog

    n, d = phi.shape
    c = np.zeros(d + 1)
    c[-1] = 1.0
    ones = np.ones((n, 1))
    A_ub = np.block([[phi, -ones], [-phi, -ones]])
    b_ub = np.concatenate([y, -y])
    bounds = [(-radius, radius)] * d + [(0.0, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"Chebyshev fit LP failed: {res.message}")
    return float(res.x[-1])


def _candidate_thetas(n_regions, d_feat, radius, rng):
    """Structured probes of the parameter box: zero, corners, interior points."""
    cands = [np.zeros((n_regions, d_feat))]
    cands.append(np.full((n_regions, d_feat), radius))
    cands.append(np.full((n_regions, d_feat), -radius))
    for _ in range(_N_RANDOM_CANDIDATES):
        cands.append(rng.choice([-radius, radius], size=(n_regions, d_feat)))
        cands.append(rng.uniform(-radius, radius, size=(n_regions, d_feat)))
    return cands


def inherent_error_estimate(
    env: EnvironmentModel,
    partition: Partition,
    fmap: TaylorFeatureMap,
    theta_box_radius: float,
    m_state: int = 65,
    m_action: int = 33,
    seed: int = 0,
) -> InherentErrorReport:
    """Sampled sup-inf estimate of the inherent Bellman error.

    For each sampled next-step parameter the Bellman image is computed by
    quadrature on a state-action grid with ``dp_solve``'s row-normalized
    kernel, built once for every step, so constant images are fitted exactly;
    the best per-region Chebyshev fit under the box constraint then gives the
    step's residual. Regions are fitted independently, mirroring the product
    structure of the class. Candidate value functions are clipped to [0, 1]
    before the backup, keeping the sampled class inside the normalized range
    the box family presumes.
    """
    if m_state < 2 or m_action < 2:
        raise ValueError("grid resolutions must be at least 2")
    if not np.isfinite(theta_box_radius) or theta_box_radius < 0:
        raise ValueError(f"theta box radius must be finite and >= 0, got {theta_box_radius!r}")
    H = env.horizon
    N, d_feat = partition.n_regions, fmap.dim_features
    n_s, n_a = int(m_state), int(m_action)
    # Sized before any allocation: Z (2) and its features per (state, action)
    # row, and the whole kernel of the steps h < H.
    held = n_s * n_a * (2 + d_feat + (n_s if H > 1 else 0))
    if held > MAX_HELD_ENTRIES:
        raise ValueError("audit grid too large; reduce grid resolutions")
    rng = np.random.default_rng(seed)
    sp = uniform_grid(m_state, 1)
    ap = uniform_grid(m_action, 1)
    Z = grid_pairs(sp, ap)
    z_regions = assign_regions(partition, Z)
    z_feats = features_at_centers(fmap, Z, partition.centers[z_regions])

    kernel = _discretized_kernel(env, env.transition_key(Z), sp) if H > 1 else None  # h < H
    per_step = np.zeros(H + 1)
    best = (0.0, 1, Z[0])
    n_cands = 0
    for h in range(1, H + 1):
        if h == H:
            candidates = [np.zeros((N, d_feat))]
        else:
            candidates = _candidate_thetas(N, d_feat, theta_box_radius, rng)
        n_cands = max(n_cands, len(candidates))
        reward = env.reward_mean(h, Z)
        worst = 0.0
        for theta_next in candidates:
            target = reward
            if h < H:
                q_next = np.einsum("zf,zf->z", z_feats, theta_next[z_regions])
                w_vals = np.clip(q_next.reshape(n_s, n_a), 0.0, 1.0).max(axis=1)
                target = reward + np.einsum("ij,j->i", kernel, w_vals)
            for n in range(N):
                mask = z_regions == n
                if not np.any(mask):
                    continue
                resid = _chebyshev_fit_residual(z_feats[mask], target[mask], theta_box_radius)
                worst = max(worst, resid)
                if resid > best[0]:
                    best = (resid, h, Z[mask][0])
        per_step[h] = worst
    return InherentErrorReport(
        estimate=float(per_step.max()),
        witness_step=best[1],
        witness_point=np.asarray(best[2]),
        per_step=per_step[1:],
        n_candidates=n_cands,
        m_state=m_state,
        m_action=m_action,
    )


def taylor_remainder_check(
    f,
    derivative,
    nu: float,
    epsilon: float,
    n_grid: int = 4001,
    lipschitz: float | None = None,
) -> float:
    """Max gap between ``f`` and its per-cell Taylor fit of degree ceil(nu - 1).

    ``f`` maps an (n, d) array to values; ``derivative(alpha, center)`` returns
    the mixed partial D^alpha f at a point. With ``lipschitz`` given, asserts
    the measured error stays below lipschitz * epsilon^nu.
    """
    dim = 1
    part = build_partition(dim, epsilon)
    degree = nu_star(nu)
    idx = enumerate_multi_indices(dim, degree)
    fmap = TaylorFeatureMap(partition=part, index_set=idx)
    factorials = np.array(
        [np.prod([math.factorial(int(a)) for a in alpha]) for alpha in idx.indices]
    )
    thetas = np.zeros((part.n_regions, idx.size))
    for n in range(part.n_regions):
        c = part.centers[n]
        thetas[n] = np.array([derivative(tuple(alpha), c) for alpha in idx.indices]) / factorials
    pts = uniform_grid(n_grid, dim)
    regions = assign_regions(part, pts)
    feats = features_at_centers(fmap, pts, part.centers[regions])
    fit = np.einsum("zf,zf->z", feats, thetas[regions])
    err = float(np.max(np.abs(np.asarray(f(pts), dtype=float) - fit)))
    if lipschitz is not None:
        bound = lipschitz * epsilon**nu
        if err > bound:
            raise AssertionError(f"Taylor remainder {err:.6g} exceeds bound {bound:.6g}")
    return err
