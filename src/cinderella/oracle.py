"""Brute-force ground truth: grid dynamic programming and function-class audits.

Values are computed by backward induction on uniform grids. Expectations use
midpoint-style Riemann sums of ``density * value``; the discretized kernel
rows are renormalized to sum to one so that constant functions propagate
exactly through the backup. Every expectation E[v | z] is one rule: plain
``np.einsum`` (no BLAS) of a kernel row with v, so its bits depend on that
row and v only, not on the batch, the BLAS library or its thread count.
One kernel serves every step h < H, with one row per distinct
``transition_key`` (``_distinct_keys``): the audit builds every row once per
grid, the policy evaluator its key index and store at its first read and each
row at that row's first read, and the one row at the played (s1, a1), and the
grid backup every row once per step, in blocks, so it never holds a whole
kernel. One grid backup gives both V* (max over actions, ``dp_solve``) and the
uniform-random policy's value (mean, ``random_policy_gap``).
Every oracle output is reported together with the grid resolution that
produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import EnvironmentModel
from .features import TaylorFeatureMap, features_at_centers
from .geometry import MAX_HELD_ENTRIES, assign_regions, grid_pairs, uniform_grid

# MAX_HELD_ENTRIES bounds dp_solve's n_s * n_a rows and kernel blocks, and the audit's whole kernel.
_N_RANDOM_CANDIDATES = 6  # random corner and interior draws per audited step
_BLOCK_ROWS = 1024  # distinct-key rows per kernel block in _grid_backup


@dataclass
class GridDP:
    """Backward-induction tables for one environment on a fixed grid.

    ``v[h]`` and ``q[h]`` are indexed with h starting at 1 (entry 0 unused in
    q; v[horizon + 1] is the terminal zero function). States and actions are 1-D.
    """

    state_points: np.ndarray  # (n_s, 1)
    action_points: np.ndarray  # (n_a, 1)
    v: np.ndarray  # (H + 2, n_s)
    q: np.ndarray  # (H + 1, n_s, n_a)

    def value_at(self, s: np.ndarray) -> float:
        """Linearly interpolated V_1 at an arbitrary state."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return float(np.interp(s[0], self.state_points[:, 0], self.v[1]))


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


def _distinct_keys(keys: np.ndarray):
    """The distinct ``env.transition_key`` values ``keys``, by bit pattern, and each key's
    index into them: every kernel row is built once per distinct key."""
    _, first, index = np.unique(keys.view(np.int64), return_index=True, return_inverse=True)
    return keys[first], index


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
    distinct, inverse = _distinct_keys(env.transition_key(Z))
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


def check_dp_grid(horizon: int, m_state: int, m_action: int) -> None:
    """Refuse a ``dp_solve`` grid whose held entries would pass ``MAX_HELD_ENTRIES``."""
    # Counted with Python ints. Per (state, action) row: Z (2), the keys and their index (2),
    # q (H + 1), and the backup with two temporaries (3). Then one kernel block
    # _BLOCK_ROWS * n_s, and one density temporary as large.
    if m_state < 2 or m_action < 2:
        raise ValueError("grid resolutions must be at least 2")
    n_rows = int(m_state) * int(m_action)
    held = n_rows * (horizon + 8) + 2 * _BLOCK_ROWS * int(m_state)
    if held > MAX_HELD_ENTRIES:
        raise ValueError("DP instance too large; reduce grid resolutions")


def dp_solve(env: EnvironmentModel, m_state: int, m_action: int) -> GridDP:
    """Optimal value tables: ``_grid_backup`` with the max over actions on a uniform grid."""
    check_dp_grid(env.horizon, m_state, m_action)
    sp = uniform_grid(m_state, 1)
    ap = uniform_grid(m_action, 1)
    v, q = _grid_backup(env, sp, ap, np.max)
    return GridDP(state_points=sp, action_points=ap, v=v, q=q)


def random_policy_gap(env: EnvironmentModel, dp: GridDP, s1) -> float:
    """V*(s1) minus the uniform-random policy's value, both on ``dp``'s grid."""
    s1 = np.atleast_1d(np.asarray(s1, dtype=float))
    v_rand, _ = _grid_backup(env, dp.state_points, dp.action_points, np.mean)
    return dp.value_at(s1) - float(np.interp(s1[0], dp.state_points[:, 0], v_rand[1]))


class KernelRows:
    """The one kernel of every step h < H on (oracle states x table actions), built as read.

    ``kernel[states, actions]`` gives the rows of the (state, action) index
    arrays, as fancy indexing of the whole (n_s, M, n_s) kernel would, with
    its bits. As in ``_grid_backup``, ``index`` maps each pair to its distinct
    transition key, whose row ``_discretized_kernel`` builds on the
    ``state_points`` at its first read, so a density that vanishes raises
    there. The key index, the store's count (one row per key, by ``check_policy_tables``)
    and the store are built at the first read, and a first read that the count refuses
    changes nothing; ``has_row`` marks the keys built, ``built`` counts them.
    """

    def __init__(self, env: EnvironmentModel, Z: np.ndarray, sp: np.ndarray, n_actions: int):
        self._env, self.state_points, self._n_actions = env, sp, n_actions
        self.built, self._store, self._pair_keys = 0, None, env.transition_key(Z)

    def __getitem__(self, pairs) -> np.ndarray:
        sp = self.state_points
        if self._store is None:
            keys, index = _distinct_keys(self._pair_keys)
            check_policy_tables(self._env.horizon, len(sp), self._n_actions, len(keys))
            self._store, self.has_row = np.empty((len(keys), len(sp))), np.zeros(len(keys), bool)
            self._keys, self.index, self._pair_keys = keys, index, None
        states, actions = pairs
        rows = self.index[states * self._n_actions + actions]
        missing = ~self.has_row[rows]
        if missing.any():
            new = np.unique(rows[missing])
            self._store[new] = _discretized_kernel(self._env, self._keys[new], sp)
            self.has_row[new] = True
            self.built += new.size
        return self._store[rows]


def check_policy_tables(horizon: int, m_state: int, n_actions: int, store_rows: int) -> None:
    """Refuse policy tables on m_state x n_actions pairs, and store_rows kernel rows, too large."""
    # Counted with Python ints. Per pair: Z (2), the distinct keys and their index (2; built at
    # the first read, over the rewards), the rewards (H + 1), and one step's reward with two
    # temporaries (3). Per store row: the row.
    # With a store, one read of at most m_state new rows (a policy reads one pair per state):
    # the rows, their density and the rows gathered.
    store = store_rows + 3 * m_state if store_rows else 0
    held = m_state * (n_actions * (horizon + 8) + store)
    if held > MAX_HELD_ENTRIES:
        raise ValueError("policy tables too large; reduce the oracle or the action grid")


def policy_eval_tables(env: EnvironmentModel, dp: GridDP, actions: np.ndarray):
    """Reward tables and the kernel's rows on (oracle states x the given actions).

    ``rewards[h]`` is (n_s, M) for h = 1..H. ``kernel`` is the ``KernelRows``
    of every step h < H; neither its key index nor any row is built until a policy reads it.
    """
    sp = dp.state_points
    n_s, M, H = sp.shape[0], actions.shape[0], env.horizon
    check_policy_tables(H, n_s, M, 0)
    Z = grid_pairs(sp, actions)
    kernel = KernelRows(env, Z, sp, M)
    rewards = np.zeros((H + 1, n_s, M))
    for h in range(1, H + 1):
        rewards[h] = env.reward_mean(h, Z).reshape(n_s, M)
    return rewards, kernel


def policy_values(rewards, kernel, action_idx) -> np.ndarray:
    """V^pi_1 on the grid states, (n_s,), of a deterministic table policy.

    A backward induction over ``policy_eval_tables``: ``action_idx[h]`` is
    (n_s,), the table action the policy plays at each grid state. The horizon
    H is ``len(rewards) - 1``; ``kernel`` serves every step h < H.
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


def policy_value(env: EnvironmentModel, rewards, kernel, z1, action_idx) -> float:
    """V^pi_1(s1) of a policy that plays a1 at s1, then the table ``action_idx`` from step 2.

    ``rewards`` and ``kernel`` are ``policy_eval_tables``' output and ``z1`` is
    (s1, a1); rows 0 and 1 of ``action_idx`` are not read. The value is
    ``clip(r_1(z1) + E[V^pi_2 | z1], 0, 1)``: V^pi_2 is ``policy_values`` on
    the tables' steps 2..H (the kernel takes no step), and the expectation
    one ``_discretized_kernel`` row at z1 with the oracle's one rule, so at a
    grid state and a table action the value has the bits of
    ``policy_values``' step-1 backup there.
    """
    v_2 = policy_values(rewards[1:], kernel, action_idx[1:])
    z1 = np.asarray(z1, dtype=float)[None, :]
    backup = env.reward_mean(1, z1)
    if env.horizon > 1:
        row = _discretized_kernel(env, env.transition_key(z1), kernel.state_points)
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
    m_state: int
    m_action: int


def _chebyshev_fit_residual(phi: np.ndarray, y: np.ndarray, radius: float) -> float:
    """min over theta in the box of max |phi @ theta - y| (linear program).

    ``scipy.optimize`` is imported here, at the audit's first fit, because a
    regret run never audits: importing it with the module would put 42 MB of
    resident memory into every run and sweep worker, on an ``import cinderella``
    of 35 MB (CPython 3.11, scipy 1.17). It is the only scipy import.
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
    H, partition = env.horizon, fmap.partition
    N, d_feat = partition.n_regions, fmap.dim_features
    n_s, n_a = int(m_state), int(m_action)
    # Sized before any allocation: Z (2) and its features per (state, action)
    # row, and the kernel of the steps h < H, at most one row per pair.
    held = n_s * n_a * (2 + d_feat + (n_s if H > 1 else 0))
    if held > MAX_HELD_ENTRIES:
        raise ValueError("audit grid too large; reduce grid resolutions")
    rng = np.random.default_rng(seed)
    sp = uniform_grid(m_state, 1)
    ap = uniform_grid(m_action, 1)
    Z = grid_pairs(sp, ap)
    z_regions = assign_regions(partition, Z)
    z_feats = features_at_centers(fmap, Z, partition.centers[z_regions])

    keys, index = _distinct_keys(env.transition_key(Z))
    kernel = _discretized_kernel(env, keys, sp) if H > 1 else None  # h < H, a row per key
    per_step = np.zeros(H + 1)
    best = (0.0, 1, Z[0])
    for h in range(1, H + 1):
        if h == H:
            candidates = [np.zeros((N, d_feat))]
        else:
            candidates = _candidate_thetas(N, d_feat, theta_box_radius, rng)
        reward = env.reward_mean(h, Z)
        worst = 0.0
        for theta_next in candidates:
            target = reward
            if h < H:
                q_next = np.einsum("zf,zf->z", z_feats, theta_next[z_regions])
                w_vals = np.clip(q_next.reshape(n_s, n_a), 0.0, 1.0).max(axis=1)
                target = reward + np.einsum("ij,j->i", kernel, w_vals)[index]
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
        m_state=m_state,
        m_action=m_action,
    )
