"""Brute-force ground truth: grid dynamic programming and function-class audits.

Values are computed by backward induction on uniform grids. Expectations use
midpoint-style Riemann sums of ``density * value``; the discretized kernel
rows are renormalized to sum to one so that constant functions propagate
exactly through the backup. The DP builds each step's kernel in blocks of
rows and uses each block for one product, so it never holds a whole kernel;
the policy evaluator and the audit build whole kernels, which they reuse.
Every oracle output is reported together with the grid resolution that
produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .envs import EnvironmentModel
from .features import TaylorFeatureMap, enumerate_multi_indices, features_at_centers, nu_star
from .geometry import Partition, assign_regions, build_partition, grid_pairs, uniform_grid

# Refuse DP instances past this many density evaluations per step; dp_solve
# streams them in row blocks, so it bounds work, not a held array.
MAX_KERNEL_ENTRIES = 80_000_000
_N_RANDOM_CANDIDATES = 6  # random corner and interior draws per audited step
_BLOCK_ROWS = 1024  # (state, action) rows per kernel block in dp_solve; see there


@dataclass
class GridDP:
    """Backward-induction tables for one environment on a fixed grid.

    ``v[h]`` and ``q[h]`` are indexed with h starting at 1 (entry 0 unused in
    q; v[horizon + 1] is the terminal zero function). States are 1-D.
    """

    m_state: int
    m_action: int
    state_points: np.ndarray  # (n_s, 1)
    action_points: np.ndarray  # (n_a, d_A)
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


def _discretized_kernel(env: EnvironmentModel, h: int, Z: np.ndarray, sp: np.ndarray):
    """Row-normalized quadrature weights for E[f(s') | z] on the state grid.

    The uniform grid's quadrature weight is the same for every point, so it
    cancels in the normalization.
    """
    dens = env.transition_density(h, Z, sp)
    # Normalized in place: a kernel is the largest array of a solve, so a
    # same-size temporary would set the peak memory.
    totals = dens.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("transition density vanished on the whole state grid")
    dens /= totals
    return dens


def _row_blocks(n: int):
    """``(start, stop)`` of ``_BLOCK_ROWS``-row blocks covering ``range(n)``.

    A last block of one row joins the block before it: numpy multiplies a
    one-row matrix by another BLAS path, which changes its bits.
    """
    stops = list(range(_BLOCK_ROWS, n, _BLOCK_ROWS)) + [n]
    if len(stops) > 1 and stops[-1] - stops[-2] == 1:
        del stops[-2]
    return zip([0] + stops[:-1], stops)


def dp_solve(env: EnvironmentModel, m_state: int, m_action: int) -> GridDP:
    """Optimal value tables by backward induction on a uniform grid.

    Q and V tables are clipped to [0, 1], matching the normalization the
    environments guarantee.

    Each step's expectation ``E[v_{h+1} | z]`` is computed over blocks of
    1024 (state, action) rows (``_row_blocks``), so no step's
    (n_s * n_a, n_s) kernel is built whole; a block is 2 MB at 257 states.
    OpenBLAS's dgemv groups rows by 4 from a block's first row, so blocks of
    a multiple of 4 rows give every row the bits of the single-threaded
    whole-kernel product (129-row blocks changed them). A whole kernel's
    product changed bits at 2 BLAS threads on some grids; the blocks give
    the same tables at 1 and 2 threads.
    """
    if env.transition_density is None:
        raise ValueError("environment does not expose a transition density")
    if m_state < 2 or m_action < 2:
        raise ValueError("grid resolutions must be at least 2")
    if env.state_dim != 1:
        raise ValueError(f"grid DP supports 1-d states only, got state_dim={env.state_dim}")
    sp = uniform_grid(m_state, 1)
    ap = uniform_grid(m_action, env.action_dim)
    n_s, n_a = sp.shape[0], ap.shape[0]
    if n_s * n_a * n_s > MAX_KERNEL_ENTRIES:
        raise ValueError("DP instance too large; reduce grid resolutions")
    Z = grid_pairs(sp, ap)  # (n_s * n_a, d)
    H = env.horizon
    v = np.zeros((H + 2, n_s))
    q = np.zeros((H + 1, n_s, n_a))
    expect = np.empty(n_s * n_a)
    for h in range(H, 0, -1):
        backup = env.reward_mean(h, Z).reshape(n_s, n_a)
        if h < H:
            for i, j in _row_blocks(Z.shape[0]):
                expect[i:j] = _discretized_kernel(env, h, Z[i:j], sp) @ v[h + 1]
            backup = backup + expect.reshape(n_s, n_a)
        q[h] = np.clip(backup, 0.0, 1.0)
        v[h] = q[h].max(axis=1)
    return GridDP(m_state=m_state, m_action=m_action, state_points=sp, action_points=ap, v=v, q=q)


def policy_eval_tables(env: EnvironmentModel, dp: GridDP, actions: np.ndarray):
    """Reward/kernel tables on (oracle states x the given actions).

    ``rewards[h]`` is (n_s, M) and ``kernels[h]`` is (n_s, M, n_s) for
    h = 1..H-1; ``kernels[0]`` and ``kernels[H]`` are None.
    """
    sp = dp.state_points
    n_s, M = sp.shape[0], actions.shape[0]
    Z = grid_pairs(sp, actions)
    H = env.horizon
    rewards = np.zeros((H + 1, n_s, M))
    kernels = [None] * (H + 1)
    for h in range(1, H + 1):
        rewards[h] = env.reward_mean(h, Z).reshape(n_s, M)
        if h < H:
            kernels[h] = _discretized_kernel(env, h, Z, sp).reshape(n_s, M, n_s)
    return rewards, kernels


def policy_values(rewards, kernels, action_idx) -> np.ndarray:
    """V^pi_1 at every grid state, (n_s,), by backward induction over ``policy_eval_tables``.

    ``action_idx[h]`` is (n_s, J): at each grid state the policy plays one of
    those J table actions uniformly at random, so J = 1 is a deterministic
    policy and ``arange(M)`` at every state the uniform-random one. The
    horizon is ``len(rewards) - 1``.
    """
    n_s = rewards.shape[1]
    rows = np.arange(n_s)[:, None]
    v_next = np.zeros(n_s)
    for h in range(len(rewards) - 1, 0, -1):
        a = action_idx[h]
        backup = rewards[h, rows, a]
        if kernels[h] is not None:
            backup = backup + np.einsum("ijk,k->ij", kernels[h][rows, a], v_next)
        v_next = np.clip(backup, 0.0, 1.0).mean(axis=1)
    return v_next


def policy_value(rewards, kernels, action_idx, state_axis, s1) -> float:
    """V^pi_1(s1): ``policy_values`` linearly interpolated on ``state_axis``."""
    return float(np.interp(s1[0], state_axis, policy_values(rewards, kernels, action_idx)))


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
    """min over theta in the box of max |phi @ theta - y| (linear program)."""
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
    kernel, so constant images are fitted exactly; the best per-region
    Chebyshev fit under the box constraint then gives the step's residual.
    Regions are fitted independently, mirroring the product structure of the
    class. Candidate
    value functions are clipped to [0, 1] before the backup, keeping the
    sampled class inside the normalized range the box family presumes.
    """
    if m_state < 2 or m_action < 2:
        raise ValueError("grid resolutions must be at least 2")
    if not np.isfinite(theta_box_radius):
        raise ValueError("theta box radius must be finite")
    rng = np.random.default_rng(seed)
    sp = uniform_grid(m_state, env.state_dim)
    ap = uniform_grid(m_action, env.action_dim)
    n_s, n_a = sp.shape[0], ap.shape[0]
    Z = grid_pairs(sp, ap)
    z_regions = assign_regions(partition, Z)
    z_feats = features_at_centers(fmap, Z, partition.centers[z_regions])
    H = env.horizon
    N, d_feat = partition.n_regions, fmap.dim_features

    per_step = np.zeros(H + 1)
    best = (0.0, 1, Z[0])
    n_cands = 0
    for h in range(1, H + 1):
        if h == H:
            candidates = [np.zeros((N, d_feat))]
        else:
            candidates = _candidate_thetas(N, d_feat, theta_box_radius, rng)
        n_cands = max(n_cands, len(candidates))
        kernel = _discretized_kernel(env, h, Z, sp) if h < H else None
        worst = 0.0
        for theta_next in candidates:
            target = env.reward_mean(h, Z)
            if h < H:
                q_next = np.einsum("zf,zf->z", z_feats, theta_next[z_regions])
                w_vals = np.clip(q_next.reshape(n_s, n_a), 0.0, 1.0).max(axis=1)
                target = target + kernel @ w_vals
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
