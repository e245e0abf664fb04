"""Optimistic region-wise least-squares value iteration.

One ridge regression per (step, region). At the start of every episode the
value parameters are re-fit backward from step H to 1 against targets
``reward + next-step optimistic value``; optimism comes from per-region
confidence radii. Two planners are available:

* ``relaxation`` (default): a pointwise additive bonus
  ``radius * ||phi||_{Lambda^-1}`` on top of the ridge mean, tractable at any
  scale.
* ``exact-grid``: exhaustive search over the uncertainty vectors on a small
  grid, feasible only for tiny instances, used to study optimism.

Action maximization is over a fixed uniform grid; ties go to the smallest
grid index. Value estimates are clipped to [0, 1]; regression targets to the
configured clip bounds. Action selection uses the unclipped optimistic score,
so rescaling all estimates by a positive constant never changes the choice.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .envs import run_episode
from .features import TaylorFeatureMap, features_at_centers
from .geometry import Partition, assign_regions
from .regression import ridge_update

log = logging.getLogger(__name__)


@dataclass
class BonusSchedule:
    """Constants sizing the per-region confidence radii.

    ``r_max`` bounds the parameter-set diameter, ``inherent_bound`` is the
    user's bound on the class misspecification (0 when the class is exact),
    and ``bonus_scale`` rescales the concentration radius; theory constants
    correspond to ``bonus_scale = 1``.
    """

    delta: float
    lam_reg: float
    l_phi: float
    r_max: float
    n_regions: int
    d_feat: int
    episodes: int
    horizon: int
    inherent_bound: float = 0.0
    bonus_scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        for name in ("lam_reg", "l_phi", "r_max", "inherent_bound", "bonus_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lam_reg <= 0 or self.l_phi <= 0:
            raise ValueError("regularizer and feature bound must be positive")
        if self.r_max < 0 or self.inherent_bound < 0 or self.bonus_scale < 0:
            raise ValueError("radii, misspecification bound and scale must be >= 0")
        if min(self.n_regions, self.d_feat, self.episodes, self.horizon) < 1:
            raise ValueError("region/feature/episode/horizon counts must be >= 1")


def beta_radius(schedule: BonusSchedule, k: int) -> float:
    """Concentration radius for the regression noise at episode k.

    Folds the covering-number bound of the per-region linear class into one
    closed form; the covering log term is floored at zero since covering
    numbers never drop below one.
    """
    if k < 1:
        raise ValueError(f"episode index must be >= 1, got {k}")
    s = schedule
    covering = max(math.log(3.0 * s.r_max * max(math.sqrt(k), 1.0)), 0.0) if s.r_max > 0 else 0.0
    inside = (
        s.d_feat * math.log1p(k * s.l_phi**2 / s.lam_reg)
        + s.n_regions * s.d_feat * covering
        + math.log(s.horizon * s.n_regions * s.episodes / s.delta)
    )
    return s.bonus_scale * (math.sqrt(max(inside, 0.0)) + 2.0)


def alpha_radius(schedule: BonusSchedule, k: int, counts):
    """Feasibility radius: concentration + misspecification + prior terms.

    ``counts`` is a visit count or an array of them; the result has its shape.
    """
    return (
        beta_radius(schedule, k)
        + np.sqrt(np.maximum(counts, 0)) * schedule.inherent_bound
        + schedule.r_max / schedule.lam_reg
    )


@dataclass
class ThetaTable:
    """Planned parameters per (step, region); arrays indexed by h starting at 1."""

    theta_bar: np.ndarray  # (H + 1, N, d)
    theta_hat: np.ndarray  # (H + 1, N, d)
    xi_norm: np.ndarray  # (H + 1, N)
    alpha: np.ndarray  # (H + 1, N) feasibility radii used
    objective: float


class _StepHistory:
    """Growable per-step visit record; next-state blocks cached for re-fits."""

    def __init__(self, capacity: int, d_feat: int, n_actions: int, has_next: bool):
        self.feats = np.zeros((capacity, d_feat))
        self.rewards = np.zeros(capacity)
        self.regions = np.zeros(capacity, dtype=np.int64)
        self.next_feats = np.zeros((capacity, n_actions, d_feat)) if has_next else None
        self.next_regions = np.zeros((capacity, n_actions), dtype=np.int64) if has_next else None
        self.size = 0

    def _grow(self):
        def dbl(a):
            out = np.zeros((a.shape[0] * 2,) + a.shape[1:], dtype=a.dtype)
            out[: a.shape[0]] = a
            return out

        self.feats = dbl(self.feats)
        self.rewards = dbl(self.rewards)
        self.regions = dbl(self.regions)
        if self.next_feats is not None:
            self.next_feats = dbl(self.next_feats)
            self.next_regions = dbl(self.next_regions)

    def append(self, phi, reward, region, next_feats=None, next_regions=None):
        if self.size == self.feats.shape[0]:
            self._grow()
        i = self.size
        self.feats[i] = phi
        self.rewards[i] = reward
        self.regions[i] = region
        if self.next_feats is not None and next_feats is not None:
            self.next_feats[i] = next_feats
            self.next_regions[i] = next_regions
        self.size += 1


def action_grid(points_per_axis: int, action_dim: int) -> np.ndarray:
    """Uniform grid over [-1, 1]^action_dim, row-major, shape (m^d_A, d_A)."""
    axis = np.linspace(-1.0, 1.0, points_per_axis)
    mesh = np.meshgrid(*([axis] * action_dim), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


class CinderellaLearner:
    """Episodic learner state: partition, features, per-(h, n) regressions.

    Single-writer: one learner per run. Independent runs may execute
    concurrently with no shared mutable state.
    """

    def __init__(
        self,
        partition: Partition,
        fmap: TaylorFeatureMap,
        schedule: BonusSchedule,
        state_dim: int,
        action_points_per_axis: int = 21,
        planner: str = "relaxation",
        clip_bounds: tuple[float, float] = (-1.0, 2.0),
        exact_grid_resolution: int = 5,
    ):
        if planner not in ("relaxation", "exact-grid"):
            raise ValueError(f"unknown planner: {planner!r}")
        if not (1 <= state_dim < partition.dim):
            raise ValueError("state dimension must leave at least one action dimension")
        self.partition = partition
        self.fmap = fmap
        self.schedule = schedule
        self.state_dim = state_dim
        self.action_dim = partition.dim - state_dim
        self.actions = action_grid(action_points_per_axis, self.action_dim)
        self.planner = planner
        self.clip_lo, self.clip_hi = clip_bounds
        self.exact_grid_resolution = exact_grid_resolution

        H, N, d = schedule.horizon, partition.n_regions, fmap.dim_features
        self.H, self.N, self.d = H, N, d
        lam0 = schedule.lam_reg
        self.lam_all = np.tile(np.eye(d) * lam0, (H + 1, N, 1, 1))
        self.lam_inv_all = np.tile(np.eye(d) / lam0, (H + 1, N, 1, 1))
        self.counts = np.zeros((H + 1, N), dtype=np.int64)
        M = self.actions.shape[0]
        self.history = [
            _StepHistory(max(schedule.episodes, 16), d, M, has_next=(1 <= h < H))
            for h in range(H + 1)
        ]
        self.theta_hat_all = np.zeros((H + 1, N, d))
        self.theta_bar_all = None  # set by the exact planner
        self.alpha_all = np.zeros((H + 1, N))
        self.k = 0
        self._probe_blocks = None
        self.last_policy_actions = None
        self.last_plan_info: dict = {}

    # -- feature plumbing ---------------------------------------------------

    def _blocks(self, state: np.ndarray):
        """Features and regions of (state, a) for every grid action."""
        M = self.actions.shape[0]
        Z = np.concatenate([np.tile(state, (M, 1)), self.actions], axis=1)
        regions = assign_regions(self.partition, Z)
        feats = features_at_centers(self.fmap, Z, self.partition.centers[regions])
        return feats, regions

    def _point(self, state: np.ndarray, action: np.ndarray):
        z = np.concatenate([np.atleast_1d(state), np.atleast_1d(action)])
        region = int(assign_regions(self.partition, z[None, :])[0])
        phi = features_at_centers(self.fmap, z[None, :], self.partition.centers[[region]])[0]
        return phi, region

    # -- scoring ------------------------------------------------------------

    def _scores(self, h: int, feats: np.ndarray, regions: np.ndarray) -> np.ndarray:
        """Raw optimistic scores for feature blocks of any leading shape."""
        if self.theta_bar_all is not None:
            th = self.theta_bar_all[h][regions]
            return np.einsum("...d,...d->...", feats, th)
        th = self.theta_hat_all[h][regions]
        mean = np.einsum("...d,...d->...", feats, th)
        li = self.lam_inv_all[h][regions]
        quad = np.einsum("...d,...de,...e->...", feats, li, feats)
        return mean + self.alpha_all[h][regions] * np.sqrt(np.maximum(quad, 0.0))

    def optimistic_q(self, h: int, z: np.ndarray) -> float:
        """Current optimistic Q at a point, clipped to [0, 1]."""
        z = np.asarray(z, dtype=float)
        region = assign_regions(self.partition, z[None, :])
        feats = features_at_centers(self.fmap, z[None, :], self.partition.centers[region])
        return float(np.clip(self._scores(h, feats, region)[0], 0.0, 1.0))

    def value_estimate(self, state: np.ndarray, h: int = 1) -> float:
        """Optimistic state value: clipped max score over the action grid."""
        feats, regions = self._blocks(np.atleast_1d(np.asarray(state, dtype=float)))
        return float(np.clip(self._scores(h, feats, regions).max(), 0.0, 1.0))

    # -- planning -----------------------------------------------------------

    def _refit(self, h: int, q_next) -> np.ndarray:
        """Ridge estimates (N, d) at step h from the whole step-h history.

        Targets are ``reward + max_a clip(q, 0, 1)``, clipped to the target
        bounds, where ``q_next(feats, regions)`` scores the cached next-state
        blocks with the step-(h+1) tables; the last step has no continuation.
        """
        hist = self.history[h]
        p = hist.size
        targets = hist.rewards[:p]
        if h < self.H:
            q = q_next(hist.next_feats[:p], hist.next_regions[:p])
            targets = targets + np.clip(q, 0.0, 1.0).max(axis=1)
        targets = np.clip(targets, self.clip_lo, self.clip_hi)
        bsum = np.zeros((self.N, self.d))
        np.add.at(bsum, hist.regions[:p], hist.feats[:p] * targets[:, None])
        return np.einsum("nde,ne->nd", self.lam_inv_all[h], bsum)

    def _plan_relaxation(self, k: int) -> None:
        self.theta_bar_all = None
        self.alpha_all[1:] = alpha_radius(self.schedule, k, self.counts[1:])
        for h in range(self.H, 0, -1):
            self.theta_hat_all[h] = self._refit(h, lambda f, r: self._scores(h + 1, f, r))

    def plan(self, s1: np.ndarray | None = None) -> None:
        """Refresh the optimistic tables for the upcoming episode."""
        k = self.k + 1
        if self.planner == "exact-grid":
            if s1 is None:
                raise ValueError("exact-grid planning needs the initial state")
            solve_exact_grid(self, s1, self.exact_grid_resolution)
        else:
            self._plan_relaxation(k)
        if self._probe_blocks is not None:
            self.last_policy_actions = self.greedy_action_indices()
        self.last_plan_info = {
            "episode": k,
            "planner": self.planner,
            "alpha_min": float(self.alpha_all[1:].min()),
            "alpha_max": float(self.alpha_all[1:].max()),
            "visits": self.counts[1:].sum(axis=0).tolist(),
        }
        if log.isEnabledFor(logging.DEBUG):
            log.debug("plan %s", self.last_plan_info)

    # -- acting -------------------------------------------------------------

    def act(self, h: int, state: np.ndarray) -> np.ndarray:
        """Greedy action on the grid for the raw optimistic score."""
        state = np.atleast_1d(np.asarray(state, dtype=float))
        feats, regions = self._blocks(state)
        return self.actions[int(np.argmax(self._scores(h, feats, regions)))]

    def observe_transition(self, h, state, action, reward, next_state) -> None:
        """Absorb one transition into the (h, region) design matrix and history."""
        if not math.isfinite(reward):
            raise ValueError("non-finite reward")
        phi, region = self._point(state, action)
        nf = nr = None
        if h < self.H and next_state is not None:
            nf, nr = self._blocks(np.atleast_1d(np.asarray(next_state, dtype=float)))
        count = self.counts[h, region] + 1
        ridge_update(self.lam_all[h, region], self.lam_inv_all[h, region], phi, count)
        self.counts[h, region] = count
        self.history[h].append(phi, reward, region, nf, nr)

    def plan_and_act_episode(self, env, s1: np.ndarray, rng: np.random.Generator):
        """One full episode: plan, act greedily, then absorb the transitions.

        Returns (transitions, total_return). The learner touches only the
        sampling surface of ``env``.
        """
        s1 = np.atleast_1d(np.asarray(s1, dtype=float))
        if np.any(np.abs(s1) > 1.0):
            raise ValueError("initial state outside [-1, 1]^d_S")
        self.plan(s1)
        transitions, total = run_episode(env, self.act, rng, s1=s1)
        for tr in transitions:
            self.observe_transition(tr.h, tr.state, tr.action, tr.reward_sample, tr.next_state)
        self.k += 1
        return transitions, total

    # -- policy probe (for oracle evaluation) --------------------------------

    def register_probe(self, states: np.ndarray) -> None:
        """Precompute feature blocks of a fixed state grid for fast greedy reads."""
        states = np.asarray(states, dtype=float)
        n = states.shape[0]
        M = self.actions.shape[0]
        Z = np.concatenate(
            [np.repeat(states, M, axis=0), np.tile(self.actions, (n, 1))], axis=1
        )
        regions = assign_regions(self.partition, Z).reshape(n, M)
        feats = features_at_centers(
            self.fmap, Z, self.partition.centers[regions.ravel()]
        ).reshape(n, M, self.d)
        self._probe_blocks = (feats, regions)

    def greedy_action_indices(self) -> np.ndarray:
        """Greedy grid-action index at every probe state, per step: (H+1, n)."""
        if self._probe_blocks is None:
            raise ValueError("no probe registered")
        feats, regions = self._probe_blocks
        out = np.zeros((self.H + 1, feats.shape[0]), dtype=np.int64)
        for h in range(1, self.H + 1):
            out[h] = np.argmax(self._scores(h, feats, regions), axis=1)
        return out


def solve_exact_grid(
    learner: CinderellaLearner, s1: np.ndarray, grid_resolution: int
) -> ThetaTable:
    """Exhaustive search over uncertainty vectors on a per-coordinate grid.

    Feasible candidates (within the per-region confidence ellipsoid) are
    enumerated region by region; every joint assignment is scored by the
    optimistic initial value after a full backward re-fit. Guarded to tiny
    instances: total uncertainty dimension <= 6 and <= 5 grid points per
    coordinate.
    """
    g = int(grid_resolution)
    H, N, d = learner.H, learner.N, learner.d
    if H * N * d > 6 or not (1 <= g <= 5):
        raise ValueError(
            f"exact grid solver limited to <= 6 uncertainty dims and g <= 5, "
            f"got dims={H * N * d}, g={g}"
        )
    k = learner.k + 1
    s1 = np.atleast_1d(np.asarray(s1, dtype=float))
    alpha = np.zeros((H + 1, N))
    alpha[1:] = alpha_radius(learner.schedule, k, learner.counts[1:])

    # Feasible xi candidates per (h, n): grid of the bounding box, filtered by
    # the ellipsoid constraint; the zero vector is always kept.
    keys = [(h, n) for h in range(1, H + 1) for n in range(N)]
    candidates = {}
    for h, n in keys:
        lam = learner.lam_all[h, n]
        lam_min = float(np.linalg.eigvalsh(lam)[0])
        radius = alpha[h, n] / math.sqrt(lam_min)
        axes = [np.linspace(-radius, radius, g)] * d
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        norms = np.sqrt(np.einsum("cd,de,ce->c", pts, lam, pts))
        feas = pts[norms <= alpha[h, n] + 1e-12]
        if feas.shape[0] == 0 or not np.any(np.all(feas == 0.0, axis=1)):
            feas = np.vstack([np.zeros((1, d)), feas])
        candidates[(h, n)] = np.unique(feas, axis=0)

    s1_feats, s1_regions = learner._blocks(s1)

    best_obj = -np.inf
    best = None
    for combo in itertools.product(*[range(candidates[key].shape[0]) for key in keys]):
        xi = np.zeros((H + 1, N, d))
        for (h, n), ci in zip(keys, combo):
            xi[h, n] = candidates[(h, n)][ci]
        theta_hat = np.zeros((H + 1, N, d))
        theta_bar = np.zeros((H + 1, N, d))
        for h in range(H, 0, -1):
            theta_hat[h] = learner._refit(
                h, lambda f, r: np.einsum("pmd,pmd->pm", f, theta_bar[h + 1][r])
            )
            theta_bar[h] = theta_hat[h] + xi[h]
        obj = float(
            np.einsum("md,md->m", s1_feats, theta_bar[1][s1_regions]).max()
        )
        if obj > best_obj:
            best_obj = obj
            best = (theta_hat, theta_bar, xi)
    theta_hat, theta_bar, xi = best
    xi_norm = np.zeros((H + 1, N))
    for h, n in keys:
        xi_norm[h, n] = math.sqrt(max(xi[h, n] @ learner.lam_all[h, n] @ xi[h, n], 0.0))
    learner.theta_hat_all = theta_hat
    learner.theta_bar_all = theta_bar
    learner.alpha_all = alpha
    return ThetaTable(
        theta_bar=theta_bar,
        theta_hat=theta_hat,
        xi_norm=xi_norm,
        alpha=alpha,
        objective=best_obj,
    )
