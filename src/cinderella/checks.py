"""Machine-readable invariant checks run by ``check_suite``.

Each check is a small self-contained experiment returning (passed, detail).
The quick level finishes within a minute on desk hardware; the full level
re-runs the heavier audits at their reference sizes. One check is a negative
control: it sets bonus_scale and r_max to 0 and passes only if optimism breaks.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from .envs import env_uniform_shift
from .features import TaylorFeatureMap, enumerate_multi_indices, extend_features, taylor_features
from .geometry import assign_regions, build_partition
from .harness import STREAM_ENV, RunConfig, build_env, build_learner, make_rng
from .oracle import dp_solve, inherent_error_estimate, taylor_remainder_check
from .regression import ridge_update


def _check_partition(n_points: int, max_dim: int):
    rng = np.random.default_rng(7)
    for d in range(1, max_dim + 1):
        for eps in (1.0, 0.5, 0.25):
            part = build_partition(d, eps)
            if part.n_regions > (2.0 / eps) ** d + 1e-9:
                return False, f"region count exceeds (2/eps)^d at d={d}, eps={eps}"
            pts = rng.uniform(-1, 1, size=(n_points, d))
            idx = assign_regions(part, pts)
            idx2 = assign_regions(part, pts)
            if not np.array_equal(idx, idx2):
                return False, "assignment not deterministic"
            dist = np.max(np.abs(pts - part.centers[idx]), axis=1)
            if np.any(dist > eps + 1e-12):
                return False, f"cover radius violated at d={d}, eps={eps}"
    return True, f"{n_points} points per config, d <= {max_dim}"


def _check_combinatorics():
    for d in range(1, 5):
        for deg in range(0, 6):
            got = enumerate_multi_indices(d, deg).size
            want = math.comb(deg + d, deg)
            if got != want:
                return False, f"size {got} != binomial {want} at d={d}, degree={deg}"
    return True, "sizes match binomial(degree + d, degree) for d <= 4, degree <= 5"


def _sin2x(pts):
    return np.sin(2.0 * pts[:, 0])


def _sin2x_derivative(alpha, center):
    k = alpha[0]
    return 2.0**k * math.sin(2.0 * center[0] + k * math.pi / 2.0)


def _check_taylor(epsilons):
    errs = []
    for eps in epsilons:
        err = taylor_remainder_check(
            _sin2x, _sin2x_derivative, nu=3.0, epsilon=eps, lipschitz=8.0
        )
        errs.append(err)
    for a, b in zip(errs, errs[1:]):
        if a < 4.0 * b:
            return False, f"halving the radius cut the error only {a / b:.2f}x"
    return True, "errors " + ", ".join(f"{e:.3g}" for e in errs)


def _check_ridge(dim: int, n_updates: int):
    rng = np.random.default_rng(3)
    lam, lam_inv = np.eye(dim), np.eye(dim)
    for count in range(1, n_updates + 1):
        ridge_update(lam, lam_inv, rng.normal(size=dim), count)
    gap = np.max(np.abs(lam_inv - np.linalg.inv(lam)))
    sym = np.max(np.abs(lam - lam.T))
    ok = gap <= 1e-8 and sym <= 1e-12
    return ok, f"inverse drift {gap:.2e}, asymmetry {sym:.2e} after {n_updates} updates"


def _check_extension(n_queries: int):
    part = build_partition(2, 0.5)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 2))
    rng = np.random.default_rng(11)
    theta = rng.normal(size=(part.n_regions, fmap.dim_features))
    worst = 0.0
    for _ in range(n_queries):
        z = rng.uniform(-1, 1, size=2)
        lhs = extend_features(fmap, z) @ theta.ravel()
        rhs = taylor_features(fmap, z) @ theta[assign_regions(part, z[None, :])[0]]
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-12
    return ok, f"max block/flat mismatch {worst:.2e} over {n_queries} queries"


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
    return env, build_learner(config), dp_solve(env, config.oracle_m_state, config.oracle_m_action)


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


def _check_optimism(n_seeds: int, episodes: int):
    rate = optimism_rate(n_seeds, episodes)
    return rate >= 0.9, f"optimism rate {rate:.3f} over {n_seeds * episodes} pairs"


def _check_optimism_negative_control(n_seeds: int, episodes: int):
    rate = optimism_rate(n_seeds, episodes, bonus_scale=0.0, r_max=0.0)
    # Control passes only if zero radii visibly break optimism.
    return rate < 0.9, f"zero-radius optimism rate {rate:.3f} (expected low)"


def _check_inherent_monotone():
    env = env_uniform_shift(beta=0.5, horizon=2)
    estimates = {}
    for eps in (0.5, 0.25):
        part = build_partition(2, eps)
        fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, 0))
        rep = inherent_error_estimate(
            env, fmap, theta_box_radius=2.0 * env.c_t, m_state=33, m_action=17, seed=5
        )
        estimates[eps] = rep.estimate
    ok = estimates[0.25] < estimates[0.5]
    return ok, f"estimates eps=0.5: {estimates[0.5]:.4f}, eps=0.25: {estimates[0.25]:.4f}"


def check_suite(level: str = "quick") -> dict:
    """Run the invariant suite; prints one JSON line per check."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}")
    quick = level == "quick"
    checks = [
        ("partition-soundness", lambda: _check_partition(2000 if quick else 10_000, 3)),
        ("feature-combinatorics", _check_combinatorics),
        ("taylor-remainder", lambda: _check_taylor((0.5, 0.25) if quick else (0.5, 0.25, 0.125))),
        ("ridge-inverse", lambda: _check_ridge(8 if quick else 16, 300 if quick else 1000)),
        ("extension-equivalence", lambda: _check_extension(500 if quick else 2000)),
        ("optimism", lambda: _check_optimism(5 if quick else 50, 10 if quick else 20)),
        (
            "optimism-negative-control",
            lambda: _check_optimism_negative_control(3, 10),
        ),
    ]
    if not quick:
        checks.append(("inherent-error-monotone", _check_inherent_monotone))
    results = []
    for name, fn in checks:
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # reported as a failed check, never raised
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        entry = {
            "check": name,
            "passed": bool(passed),
            "seconds": round(time.perf_counter() - t0, 3),
            "detail": detail,
        }
        print(json.dumps(entry))
        results.append(entry)
    report = {
        "level": level,
        "passed": all(r["passed"] for r in results),
        "checks": results,
    }
    print(json.dumps({"suite": "cinderella-checks", "level": level, "passed": report["passed"]}))
    return report
