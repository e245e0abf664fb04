"""Benchmark continuous MDPs on the square [-1, 1]^2 of rows z = (s, a), and the episode runner.

Every environment exposes its exact transition density and mean reward so the
grid oracles can compute ground truth; learners are expected to touch only the
sampling surface (``LearnerView``). Rewards are scaled so every Q-value lies
in [0, 1]: mean rewards stay within [0, 1/H] and reward noise is a truncated
Gaussian, hence subgaussian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from .features import TaylorFeatureMap, feature_matrix
from .geometry import uniform_grid

REWARD_NOISE_TRUNCATION = 4.0  # reward noise support is +-4 sigma
# The standard normal CDF at the truncation points, computed once.
_NOISE_CDF_LO = ndtr(-REWARD_NOISE_TRUNCATION)
_NOISE_CDF_HI = ndtr(REWARD_NOISE_TRUNCATION)
# Every env, the learner and the grid oracle use one state coordinate s and
# one action coordinate a: rows z = (s, a) of the square [-1, 1]^2.
Z_DIM = 2


def _truncated_gaussian(rng: np.random.Generator, sigma: float) -> float:
    """One zero-mean Gaussian(sigma) draw truncated at +-4 sigma, via inverse CDF."""
    if sigma == 0.0:
        return 0.0
    return float(sigma * ndtri(rng.uniform(_NOISE_CDF_LO, _NOISE_CDF_HI)))


@dataclass(frozen=True)
class EnvironmentModel:
    """A finite-horizon MDP on rows z = (s, a) of [-1, 1]^2.

    Vectorized callables:
      transition_sample(Z, rng) -> next states (n, 1), Z of shape (n, 2)
      transition_key(Z) -> (n,) the one statistic of z that the transition
        law depends on (float64), so equal keys mean equal kernel rows
      transition_density(keys, S') -> (n, m) densities over states S' (m, 1)
        at the keys of ``transition_key``, a new float array that the caller
        may overwrite
      reward_mean(h, Z) -> (n,) mean rewards in [0, 1/H]

    Transitions take no step: one kernel serves h = 1..H-1. Rewards take h = 1..H.
    Stateless given an rng, so instances can be shared across runs.
    """

    name: str
    horizon: int
    transition_sample: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    transition_key: Callable[[np.ndarray], np.ndarray]
    transition_density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    reward_mean: Callable[[int, np.ndarray], np.ndarray]
    reward_noise_sigma: float
    c_t: float | None = None  # rough bound on the Bellman smoothing constant

    def __post_init__(self):
        sigma = self.reward_noise_sigma
        if not (np.isfinite(sigma) and sigma >= 0.0):
            raise ValueError(f"reward noise sigma must be finite and >= 0, got {sigma}")

    def sample_reward(self, h: int, z: np.ndarray, rng: np.random.Generator) -> float:
        mean = float(self.reward_mean(h, np.asarray(z, dtype=float)[None, :])[0])
        return mean + _truncated_gaussian(rng, self.reward_noise_sigma)


@dataclass(frozen=True)
class Transition:
    """One observed step: (h, s, a, sampled reward, s'); s' is None at h = H."""

    h: int
    state: np.ndarray
    action: np.ndarray
    reward_sample: float
    next_state: np.ndarray | None


class LearnerView:
    """Sampling-only surface of an environment.

    Deliberately omits ``transition_key``, ``transition_density`` and
    ``reward_mean`` so learner code cannot peek at ground truth.
    """

    def __init__(self, env: EnvironmentModel):
        self._env = env
        self.horizon = env.horizon

    def sample_transition(self, z, rng):
        return self._env.transition_sample(np.asarray(z, dtype=float)[None, :], rng)[0]

    def sample_reward(self, h, z, rng):
        return self._env.sample_reward(h, z, rng)


def run_episode(env, policy, rng: np.random.Generator, s1: np.ndarray | None = None):
    """Roll one episode under ``policy(h, state) -> action``.

    Returns (transitions, total_return). Starts from ``s1`` (origin when
    omitted). Works with a full EnvironmentModel or a LearnerView; raises
    unless the policy returns one action coordinate in [-1, 1].
    """
    view = env if isinstance(env, LearnerView) else LearnerView(env)
    state = np.zeros(1) if s1 is None else np.asarray(s1, dtype=float)
    transitions = []
    total = 0.0
    for h in range(1, view.horizon + 1):
        action = np.atleast_1d(np.asarray(policy(h, state), dtype=float))
        if action.shape != (1,) or not np.all(np.abs(action) <= 1.0):
            raise ValueError(f"policy action out of [-1, 1]: {action}")
        z = np.concatenate([state, action])
        reward = view.sample_reward(h, z, rng)
        next_state = view.sample_transition(z, rng) if h < view.horizon else None
        transitions.append(Transition(h, state.copy(), action, float(reward), next_state))
        total += reward
        if next_state is not None:
            state = next_state
    return transitions, total


# ---------------------------------------------------------------------------
# Reward specifications
# ---------------------------------------------------------------------------


def _resolve_reward(spec, horizon: int):
    """Turn a reward spec into a vectorized mean-reward callable.

    ``spec`` is "default" (a smooth sinusoidal bump), "zero" or "constant"
    (the maximal flat reward 1/H). Returns the callable and its slope bound.
    """
    scale = 1.0 / horizon
    if spec == "default":

        def mean(h, Z):
            s = Z[:, 0]
            a = Z[:, 1]
            return scale * (1.0 + np.sin(np.pi * (s + a) / 2.0)) / 2.0

        return mean, np.pi / 4.0 * scale
    if spec == "zero":
        return (lambda h, Z: np.zeros(Z.shape[0])), 0.0
    if spec == "constant":
        return (lambda h, Z: np.full(Z.shape[0], scale)), 0.0
    raise ValueError(f"unknown reward spec: {spec!r}")


def _check_normalization(env: EnvironmentModel, grid_per_axis: int = 128) -> None:
    """Assert 0 <= H * reward_mean <= 1 on a dense grid (Q in [0, 1])."""
    Z = uniform_grid(grid_per_axis, Z_DIM)
    for h in range(1, env.horizon + 1):
        r = env.reward_mean(h, Z)
        if np.any(r < -1e-12) or np.any(env.horizon * r > 1.0 + 1e-9):
            raise ValueError(
                f"reward at step {h} violates normalization: range "
                f"[{r.min():.6f}, {r.max():.6f}] with H={env.horizon}"
            )


def _check_density_integral(env: EnvironmentModel, n_quad: int = 1024, tol: float = 1e-2):
    """Spot-check that the transition density integrates to 1 over the state grid."""
    if env.horizon < 2:
        return
    rng = np.random.default_rng(0)
    Z = rng.uniform(-1, 1, size=(8, Z_DIM))
    grid = uniform_grid(n_quad, 1)
    w = 2.0 / (n_quad - 1)
    dens = env.transition_density(env.transition_key(Z), grid)
    totals = dens.sum(axis=1) * w
    if np.any(np.abs(totals - 1.0) > tol):
        raise ValueError(f"transition density integral off by more than {tol}: {totals}")


# ---------------------------------------------------------------------------
# Benchmark environments
# ---------------------------------------------------------------------------


def env_uniform_shift(
    beta: float = 0.5,
    reward="default",
    horizon: int = 2,
    reward_noise_sigma: float = 0.1,
) -> EnvironmentModel:
    """Uniform-shift kernel: s' ~ Unif(beta*s, beta*s + 1 - beta).

    The support always stays inside [-1, 1] but the density is discontinuous
    in (s, a), so the process is mildly smooth (nu = 1) without being strongly
    smooth. One state and one action dimension.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    mean_reward, reward_slope = _resolve_reward(reward, horizon)
    width = 1.0 - beta

    def key(Z):  # the support's lower end
        return beta * Z[:, 0]

    def sample(Z, rng):
        return (key(Z) + rng.uniform(0.0, width, size=Z.shape[0]))[:, None]

    def density(lo, Sp):
        s = Sp[:, 0]
        inside = (s[None, :] >= lo[:, None]) & (s[None, :] <= (lo + width)[:, None])
        return inside / width

    # Bellman smoothing: kernel contributes 2/(1-beta), reward its C^1 norm.
    c_t = 2.0 / width + 1.0 + reward_slope
    env = EnvironmentModel(
        name="uniform_shift",
        horizon=horizon,
        transition_sample=sample,
        transition_key=key,
        transition_density=density,
        reward_mean=mean_reward,
        reward_noise_sigma=reward_noise_sigma,
        c_t=c_t,
    )
    _check_normalization(env)
    _check_density_integral(env)
    return env


def env_smooth_drift(
    drift_gain: float = 0.5,
    noise_sigma: float = 0.3,
    reward="default",
    horizon: int = 2,
    reward_noise_sigma: float = 0.1,
) -> EnvironmentModel:
    """Drift kernel with smooth Gaussian noise confined to [-1, 1].

    The next state follows a Gaussian centered at s + drift_gain * a,
    renormalized on [-1, 1], so the density is smooth in (s, a) and has no
    boundary atoms; samples are clipped only as a floating-point guard.
    """
    if not np.isfinite(drift_gain):
        raise ValueError("drift gain must be finite")
    if not (noise_sigma > 0.0):
        raise ValueError(f"kernel noise must be positive, got {noise_sigma}")
    # mean can leave the cube, but the kernel must keep mass inside it
    worst_mu = 1.0 + abs(drift_gain)
    if ndtr((1.0 - worst_mu) / noise_sigma) - ndtr((-1.0 - worst_mu) / noise_sigma) <= 1e-12:
        raise ValueError(
            "drift pushes the kernel mass outside [-1, 1]; "
            "reduce |drift_gain| or increase noise_sigma"
        )
    mean_reward, _ = _resolve_reward(reward, horizon)

    def key(Z):  # the Gaussian's mean
        return Z[:, 0] + drift_gain * Z[:, 1]

    def _bounds(mu):
        lo = ndtr((-1.0 - mu) / noise_sigma)
        hi = ndtr((1.0 - mu) / noise_sigma)
        return lo, hi

    def sample(Z, rng):
        mu = key(Z)
        lo, hi = _bounds(mu)
        u = rng.uniform(lo, hi)
        out = mu + noise_sigma * ndtri(u)
        return np.clip(out, -1.0, 1.0)[:, None]

    def density(mu, Sp):
        lo, hi = _bounds(mu)
        # exp(-0.5 * x * x) / sqrt(2 pi) / (sigma * mass), all in the one (n, m)
        # array, which is as large as an oracle kernel; scaling by -0.5 is
        # exact, so (x * x) * -0.5 equals (-0.5 * x) * x bit for bit.
        x = Sp[:, 0][None, :] - mu[:, None]
        x /= noise_sigma
        x *= x
        x *= -0.5
        np.exp(x, out=x)
        x /= np.sqrt(2.0 * np.pi)
        x /= (noise_sigma * (hi - lo))[:, None]
        return x

    c_t = 1.0 + (1.0 + abs(drift_gain)) / noise_sigma  # coarse scale estimate
    env = EnvironmentModel(
        name="smooth_drift",
        horizon=horizon,
        transition_sample=sample,
        transition_key=key,
        transition_density=density,
        reward_mean=mean_reward,
        reward_noise_sigma=reward_noise_sigma,
        c_t=c_t,
    )
    _check_normalization(env)
    _check_density_integral(env)
    return env


def env_exact_linear(
    theta: np.ndarray,
    fmap: TaylorFeatureMap,
    horizon: int,
    reward_noise_sigma: float = 0.05,
) -> EnvironmentModel:
    """Sanity instance whose Bellman backups are exactly linear in ``fmap``.

    Mean rewards are feature-linear, r_h(z) = phi(z)^T theta_h, and transitions
    ignore the state-action pair (uniform over the state cube). Applying the
    Bellman operator to any feature-linear function then adds a constant,
    which the constant feature absorbs, so the class fits Bellman images with
    zero error.
    """
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    if theta.shape != (horizon, fmap.dim_features):
        raise ValueError(
            f"theta must have shape ({horizon}, {fmap.dim_features}), got {theta.shape}"
        )
    if fmap.index_set.indices[0].sum() != 0:
        raise ValueError("feature map must include the constant monomial")
    if fmap.partition.dim != Z_DIM:
        raise ValueError(f"feature map must partition rows (s, a), got dim {fmap.partition.dim}")

    def mean_reward(h, Z):  # einsum, not BLAS, so a row's bits do not depend on the batch
        return np.einsum("zf,f->z", feature_matrix(fmap, Z), theta[h - 1])

    def sample(Z, rng):
        return rng.uniform(-1.0, 1.0, size=(Z.shape[0], 1))

    def key(Z):  # the kernel ignores z
        return np.zeros(Z.shape[0])

    def density(keys, Sp):
        return np.full((keys.shape[0], Sp.shape[0]), 0.5)

    env = EnvironmentModel(
        name="exact_linear",
        horizon=horizon,
        transition_sample=sample,
        transition_key=key,
        transition_density=density,
        reward_mean=mean_reward,
        reward_noise_sigma=reward_noise_sigma,
        c_t=None,
    )
    try:
        _check_normalization(env)
    except ValueError as exc:
        raise ValueError(f"invalid theta for exact-linear environment: {exc}") from exc
    return env
