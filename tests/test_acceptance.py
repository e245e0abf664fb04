"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances and runtime budgets are pinned here and nowhere else.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from cinderella.envs import env_uniform_shift
from cinderella.features import (
    TaylorFeatureMap,
    enumerate_multi_indices,
    feature_matrix,
    taylor_remainder_check,
)
from cinderella.geometry import assign_regions, build_partition
from cinderella.harness import RunConfig, build_env, run_experiment, run_sweep
from cinderella.oracle import (
    _grid_backup,
    dp_solve,
    inherent_error_estimate,
    random_policy_gap,
)
from cinderella.regression import ridge_update
from conftest import optimism_rate, sin2x, sin2x_derivative


def _verdict(num: int, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


class _budget:
    """Context manager asserting the block finished inside its time budget."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.limit, f"over budget: {elapsed:.1f}s >= {self.limit}s"
        return False


def test_criterion_01_feature_dimension_combinatorics():
    with _budget(1.0):
        worst = None
        for d in range(1, 5):
            for degree in range(0, 6):
                got = enumerate_multi_indices(d, degree).size
                want = math.comb(degree + d, degree)
                if got != want:
                    worst = (d, degree, got, want)
    _verdict(1, worst is None, f"feature dims equal binomial(nu*+d, nu*) for d<=4, nu*<=5 ({worst})")


def test_criterion_02_partition_soundness():
    with _budget(5.0):
        rng = np.random.default_rng(202)
        ok = True
        detail = []
        for d in (1, 2, 3):
            for eps in (1.0, 0.5, 0.25):
                part = build_partition(d, eps)
                pts = rng.uniform(-1, 1, size=(10_000, d))
                idx = assign_regions(part, pts)
                dist = np.max(np.abs(pts - part.centers[idx]), axis=1)
                ok &= bool(np.all((0 <= idx) & (idx < part.n_regions)))
                ok &= bool(np.all(dist <= eps + 1e-12))
                ok &= part.n_regions <= (2.0 / eps) ** d + 1e-9
                detail.append(f"d={d},eps={eps}:N={part.n_regions}")
    _verdict(2, ok, "10^4 points map to one region within eps; N <= (2/eps)^d; " + " ".join(detail))


def test_criterion_03_taylor_remainder():
    with _budget(5.0):
        errs = {
            eps: taylor_remainder_check(sin2x, sin2x_derivative, nu=3.0, epsilon=eps)
            for eps in (0.5, 0.25, 0.125)
        }
        ok = all(errs[eps] <= 8.0 * eps**3 for eps in errs)
        ok &= errs[0.5] / errs[0.25] >= 4.0 and errs[0.25] / errs[0.125] >= 4.0
    _verdict(
        3,
        ok,
        "sin(2x), nu=3: errors "
        + ", ".join(f"{eps}:{errs[eps]:.4g}<=8eps^3={8 * eps ** 3:.4g}" for eps in errs)
        + "; halving cuts >= 4x",
    )


def test_criterion_04_incremental_inverse():
    with _budget(10.0):
        rng = np.random.default_rng(404)
        worst = 0.0
        for d in (4, 16):
            lam, lam_inv = np.eye(d), np.eye(d)
            for count in range(1, 1001):
                phi = rng.normal(size=d)
                rng.normal()  # the former regression target: keeps the feature stream
                ridge_update(lam, lam_inv, phi, count)
            gap = float(np.max(np.abs(lam_inv - np.linalg.inv(lam))))
            worst = max(worst, gap)
    _verdict(4, worst <= 1e-8, f"incremental vs direct inverse max-entry gap {worst:.2e} <= 1e-8")


def test_criterion_05_feature_extension_equivalence():
    rng = np.random.default_rng(505)
    part = build_partition(2, 0.25)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 2))
    theta = rng.normal(size=(part.n_regions, fmap.dim_features))
    pts = rng.uniform(-1, 1, size=(10_000, 2))
    regions = assign_regions(part, pts)
    region_wise = np.einsum("zf,zf->z", feature_matrix(fmap, pts), theta[regions])
    # extended map: only the active block is nonzero, so the stacked dot
    # product reduces to a gather of per-region evaluations
    k = fmap.dim_features
    stacked = theta.ravel()
    extended = np.array(
        [
            feature_matrix(fmap, pts[i : i + 1])[0] @ stacked[regions[i] * k : (regions[i] + 1) * k]
            for i in range(0, 10_000)
        ]
    )
    gap = float(np.max(np.abs(region_wise - extended)))
    _verdict(5, gap <= 1e-12, f"region-wise vs extended dot product gap {gap:.2e} <= 1e-12 on 10^4 queries")


def test_criterion_06_optimism():
    with _budget(120.0):
        rate = optimism_rate(n_seeds=50, episodes_per_seed=20, bonus_scale=1.0, delta=0.1, tol=1e-6)
    _verdict(6, rate >= 0.9, f"optimistic value >= V* - 1e-6 in {rate:.1%} of 1000 episode-seed pairs")


def test_criterion_07_inherent_error_scaling():
    with _budget(120.0):
        env = env_uniform_shift(0.5, horizon=2)
        estimates = {}
        for eps in (0.5, 0.25):
            part = build_partition(2, eps)
            fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 0))
            rep = inherent_error_estimate(
                env, fmap, theta_box_radius=2.0 * env.c_t, m_state=33, m_action=17, seed=7
            )
            estimates[eps] = rep.estimate

        part1 = build_partition(2, 1.0)
        fmap1 = TaylorFeatureMap(partition=part1, index_set=enumerate_multi_indices(2, 1))
        theta = np.array([[0.3, 0.05, 0.1], [0.3, 0.05, 0.1]])
        # epsilon 1 and nu 2 give the env the feature map fmap1
        env_lin = build_env(
            RunConfig(
                env_name="exact_linear",
                env_params={"theta": theta.tolist()},
                horizon=2,
                epsilon=1.0,
                nu=2.0,
            )
        )
        rep_lin = inherent_error_estimate(
            env_lin, fmap1, theta_box_radius=3.0, m_state=33, m_action=17
        )
        ok = estimates[0.25] < estimates[0.5] and rep_lin.estimate <= 1e-6
    _verdict(
        7,
        ok,
        f"uniform shift: I(0.25)={estimates[0.25]:.4f} < I(0.5)={estimates[0.5]:.4f}; "
        f"exact linear: {rep_lin.estimate:.2e} <= 1e-6",
    )


def _regret_gates(base: RunConfig):
    """Seed-averaged log-log regret slope over the second half of seeds 0-4, R_K/K, and the
    random-policy gap, the numbers criteria 08, 11 and 12 gate. The gap is V* - V^rand at
    s1 = 0, or with a uniform s1 its average over the oracle grid (trapezoid rule)."""
    configs = [dataclasses.replace(base, seed=s) for s in range(5)]
    traces = run_sweep(configs, jobs=2)
    cum = np.mean([t.column("cum_regret") for t in traces], axis=0)
    K = base.episodes
    k = np.arange(1, K + 1)
    half = k > K // 2
    A = np.vstack([np.log(k[half]), np.ones(half.sum())]).T
    slope = float(np.linalg.lstsq(A, np.log(np.maximum(cum[half], 1e-9)), rcond=None)[0][0])

    env = build_env(base)
    dp = dp_solve(env, base.oracle_m_state, base.oracle_m_action)
    if base.init_mode == "uniform":
        v_rand, _ = _grid_backup(env, dp.state_points, dp.action_points, np.mean)
        gap = np.trapezoid(dp.v[1] - v_rand[1], dp.state_points[:, 0]) / 2.0
    else:
        gap = random_policy_gap(env, dp, np.zeros(1))
    return slope, cum[-1] / K, gap


def test_criterion_08_regret_sublinearity():
    with _budget(600.0):
        base = RunConfig(
            env_name="uniform_shift",
            env_params={"beta": 0.5},
            episodes=4096,
            horizon=2,
            nu=1.0,
            epsilon="auto",
            bonus_scale=0.1,
            planner="relaxation",
        )
        slope, avg, gap = _regret_gates(base)
        ok = slope < 0.95 and avg <= 0.5 * gap
    _verdict(
        8,
        ok,
        f"seed-averaged log-log slope {slope:.3f} < 0.95; R_K/K={avg:.4f} <= 0.5*random gap={0.5 * gap:.4f}",
    )


def test_criterion_11_regret_sublinearity_at_degree_one():
    """Criterion 08's gates on the Taylor degree >= 1 path: smooth_drift at nu = 2."""
    with _budget(600.0):
        base = RunConfig(
            env_name="smooth_drift",
            env_params={"drift_gain": 0.5, "noise_sigma": 0.3},
            episodes=1024,
            horizon=2,
            nu=2.0,
            epsilon="auto",
            bonus_scale=0.1,
            planner="relaxation",
        )
        slope, avg, gap = _regret_gates(base)
        ok = slope < 0.95 and avg <= 0.5 * gap
    _verdict(
        11,
        ok,
        f"nu=2: seed-averaged log-log slope {slope:.3f} < 0.95; "
        f"R_K/K={avg:.4f} <= 0.5*random gap={0.5 * gap:.4f}",
    )


def test_criterion_12_regret_sublinearity_at_h3_with_uniform_s1():
    """Criterion 08's gates at H = 3 with s1 drawn uniformly: the re-fit with two next-state
    steps, and the regret of the action played at each s1."""
    with _budget(600.0):
        base = RunConfig(
            env_name="uniform_shift",
            env_params={"beta": 0.5},
            episodes=4096,
            horizon=3,
            nu=1.0,
            epsilon="auto",
            bonus_scale=0.1,
            planner="relaxation",
            init_mode="uniform",
        )
        slope, avg, gap = _regret_gates(base)
        ok = slope < 0.95 and avg <= 0.5 * gap
    _verdict(
        12,
        ok,
        f"H=3, uniform s1: seed-averaged log-log slope {slope:.3f} < 0.95; "
        f"R_K/K={avg:.4f} <= 0.5*s1-averaged random gap={0.5 * gap:.4f}",
    )


def test_criterion_09_sanity_collapse():
    with _budget(300.0):
        cfg = RunConfig(
            env_name="exact_linear",
            env_params={"theta": [[0.4, 0.05, 0.2]], "reward_noise_sigma": 0.05},
            episodes=2000,
            horizon=1,
            nu=2.0,
            epsilon=1.0,
            bonus_scale=0.1,
            seed=1,
        )
        regret = run_experiment(cfg).column("regret")
        q = len(regret) // 4
        first, last = regret[:q].mean(), regret[-q:].mean()
        ratio = last / first
    _verdict(9, ratio <= 0.2, f"last-quartile regret {last:.4f} vs first {first:.4f}: ratio {ratio:.3f} <= 0.2")


def test_criterion_10_determinism():
    cfg = RunConfig(
        env_name="uniform_shift",
        env_params={"beta": 0.5},
        episodes=64,
        horizon=2,
        nu=1.0,
        epsilon=0.5,
        bonus_scale=0.1,
        seed=6,
        oracle_m_state=65,
        oracle_m_action=33,
    )

    def stripped(trace):
        return [",".join(line.split(",")[:-1]) for line in trace.to_csv().splitlines()]

    a, b = stripped(run_experiment(cfg)), stripped(run_experiment(cfg))
    _verdict(10, a == b, f"two executions byte-identical over {len(a) - 1} rows (timing column excluded)")


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
