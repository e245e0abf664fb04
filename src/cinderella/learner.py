"""Optimistic region-wise least-squares value iteration.

One ridge regression per (step, region). At the start of every episode a
plan builds a new ``Policy``, which acting and the oracle read until the
next plan: its tables are re-fit backward from step H to 1 against targets
``reward + next-step optimistic value``, and optimism comes from per-region
confidence radii. Both planners write one table per (step, region), a
parameter ``theta`` and a radius ``alpha``, and every score is
``phi . theta + alpha * ||phi||_{Lambda^-1}``:

* ``relaxation`` (default): ``theta`` is the ridge mean and ``alpha`` the
  confidence radius, a pointwise additive bonus tractable at any scale.
* ``exact-grid``: ``theta`` is the optimistic ``theta_hat + xi`` found by
  exhaustive search over the uncertainty vectors ``||xi||_Lambda <= radius``
  on a small grid, and ``alpha`` is 0 because the optimism is inside
  ``theta``; feasible only for tiny instances, used to study optimism.

The partition is a product grid assigned axis by axis, so a state's
regions follow from its state cell, one (state cell x grid action) table
built at set-up, and its features are separable: ``(s - c_s)^i`` times
per-grid-action powers ``(a - c_a)^j`` precomputed at set-up, multiplied in
the order of the general monomial rule, so the floats are the same.

Each plan scores every step once. At degree 0 (``nu <= 1``) the one feature
is the constant 1, so a score depends only on (state cell, grid action).
Each plan gathers the N region scores into one (state cell x grid action)
table per step, which gives the re-fit targets and every cell's greedy
index, kept in the policy; ``act`` and the probe look that up, and
history rows keep their next state's cell, so acting, absorbing and
re-fitting compute no features. At degree >= 1 each step h >= 2 keeps one
block: the probe states' rows, then the next states of the step-(h-1)
history. One scoring of it gives the plan's greedy picks at the probe and
the re-fit values; it caches each entry's mean and bonus width, and a plan
recomputes only the entries whose inputs moved. The floats are those of the
general rule. The probe covers steps h >= 2 only: the oracle values step 1
at the action the episode played. The last step's targets are its clipped
rewards, fixed once absorbed, so ``observe_transition`` sums them as they
arrive and a plan re-sums only steps h < H.

Blocks and the policy's tables are feature-major: features ``(d, n, M)`` of
n states x M grid actions, so each scoring einsum runs its inner loop over
entries, not over the d features. ``_mean`` and ``_width`` take a region
array of the entries' shape, gathering each entry's theta and Lambda^-1, or
one region index, whose theta ``(d,)`` and Lambda^-1 ``(d, d)`` broadcast
over every entry; both forms give the same bits. The mean adds
``f_d * theta_d`` in feature order, and the width ``(f_d * L_de) * f_e``
over d, then e.

Action maximization is over a fixed uniform grid; ties go to the smallest
grid index. Value estimates are clipped to [0, 1]; regression targets to the
configured clip bounds. Action selection uses the unclipped optimistic score,
so rescaling all estimates by a positive constant never changes the choice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .envs import Z_DIM, run_episode
from .features import TaylorFeatureMap
from .geometry import (
    MAX_HELD_ENTRIES, assign_regions, axis_cell, axis_cells, grid_pairs, uniform_grid
)
from .regression import ridge_update

# Grid points per uncertainty coordinate in the exact-grid planner; odd, so
# each coordinate's grid has 0.0 in the middle.
_EXACT_GRID_RESOLUTION = 5


@dataclass
class BonusSchedule:
    """Constants sizing the per-region confidence radii.

    ``r_max`` bounds the parameter-set diameter, ``inherent_bound`` is the
    user's bound on the class misspecification (0 when the class is exact),
    and ``bonus_scale`` rescales the concentration radius; theory constants
    correspond to ``bonus_scale = 1``. The radii read the region count N,
    feature count d and feature-norm bound L_phi from the feature map.
    """

    delta: float
    lam_reg: float
    r_max: float
    episodes: int
    horizon: int
    inherent_bound: float = 0.0
    bonus_scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        for name in ("lam_reg", "r_max", "inherent_bound", "bonus_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lam_reg <= 0:
            raise ValueError("regularizer must be positive")
        if self.r_max < 0 or self.inherent_bound < 0 or self.bonus_scale < 0:
            raise ValueError("radii, misspecification bound and scale must be >= 0")
        if min(self.episodes, self.horizon) < 1:
            raise ValueError("episodes and horizon must be >= 1")


def beta_radius(schedule: BonusSchedule, fmap: TaylorFeatureMap, k: int) -> float:
    """Concentration radius for the regression noise at episode k.

    Folds the covering-number bound of the per-region linear class into one
    closed form; the covering log term is floored at zero since covering
    numbers never drop below one.
    """
    if k < 1:
        raise ValueError(f"episode index must be >= 1, got {k}")
    s, N, d = schedule, fmap.partition.n_regions, fmap.dim_features
    covering = max(math.log(3.0 * s.r_max * max(math.sqrt(k), 1.0)), 0.0) if s.r_max > 0 else 0.0
    inside = (
        d * math.log1p(k * fmap.norm_bound**2 / s.lam_reg)
        + N * d * covering
        + math.log(s.horizon * N * s.episodes / s.delta)
    )
    return s.bonus_scale * (math.sqrt(max(inside, 0.0)) + 2.0)


def alpha_radius(schedule: BonusSchedule, fmap: TaylorFeatureMap, k: int, counts):
    """Feasibility radius: concentration + misspecification + prior terms.

    ``counts`` is a visit count or an array of them; the result has its shape.
    """
    return (
        beta_radius(schedule, fmap, k)
        + np.sqrt(np.maximum(counts, 0)) * schedule.inherent_bound
        + schedule.r_max / schedule.lam_reg
    )


class Policy:
    """One plan's output, which acting and the oracle read; no later plan writes it.

    Indexed by step h from 1: the table ``theta`` (H+1, d, N) and ``alpha``
    (H+1, N), scored under ``lam_inv`` (H+1, d, d, N), Lambda^-1 copied when
    the plan started; at degree 0 each state cell's greedy grid index in
    ``greedy`` (H+1, C); and ``picks`` (H+1, n), the greedy indices of steps
    h >= 2 at the probe states. Rows 0 and 1 of ``picks`` are 0, as the
    oracle values step 1 at the action played at s1. A new policy is a zero
    table under a feature-major copy of ``lam_inv_all`` (H+1, N, d, d).
    """

    def __init__(self, lam_inv_all: np.ndarray, n_cells: int, n_probe: int):
        self.lam_inv = lam_inv_all.transpose(0, 2, 3, 1).copy()  # a copy even where d = 1
        steps, d, _, N = self.lam_inv.shape
        self.theta, self.alpha = np.zeros((steps, d, N)), np.zeros((steps, N))
        self.greedy = np.zeros((steps, n_cells), dtype=np.int64)
        self.picks = np.zeros((steps, n_probe), dtype=np.int64)


class _Blocks:
    """Feature blocks ``feats`` (d, rows, M) and ``regions`` (rows, M) of one step's scores.

    Step h >= 2 keeps one: its first ``base`` rows are the probe states'
    blocks, written once, and row ``base + i`` is the next state of
    step-(h-1) history row i. ``mean`` and ``width`` cache each entry's
    ``phi . theta`` and bonus width for the rows below ``fresh``. A cached
    mean is valid iff its region's theta column has the bits of that column
    in ``theta`` (d, N), the step's table when the blocks were last scored;
    a cached width iff its region's count equals ``seen``. ``counts[h, n]``
    is the version of region n's step-h inverse, bumped with every
    ``ridge_update``, the only writer of ``lam_inv_all``, which a policy
    copies. ``blocks[i] = (feats, regions)`` writes the one-state blocks
    (d, 1, M) and (1, M) of ``act`` as row ``base + i``.
    """

    def __init__(self, feats: np.ndarray, regions: np.ndarray, n_regions: int, base: int):
        self.feats = feats
        self.regions = regions
        self.base = base
        self.mean = np.zeros(regions.shape)
        self.width = np.zeros(regions.shape)
        self.theta = np.zeros((feats.shape[0], n_regions))
        self.seen = np.zeros(n_regions, dtype=np.int64)
        self.fresh = 0

    def __setitem__(self, i: int, blocks) -> None:
        feats, regions = blocks
        i += self.base
        self.feats[:, i], self.regions[i] = feats[:, 0], regions[0]

    def refresh(self, cache: np.ndarray, stale: np.ndarray, rows: int, entries) -> None:
        """Make ``cache`` current for ``rows`` rows, given the (N,) mask of ``stale`` regions.

        Rows below ``fresh`` are recomputed only at entries of stale regions,
        one region at a time: its entries' features (d, E), gathered by flat
        index, with the one region index. Later rows are recomputed in full;
        when every region is stale all rows are recomputed at once. Those two
        pass a region array. ``entries(feats, regions)`` gives the cached
        value of feature-major blocks in either form.
        """
        fresh, n_stale = self.fresh, np.count_nonzero(stale)
        if n_stale == stale.size:
            cache[:rows] = entries(self.feats[:, :rows], self.regions[:rows])
            return
        if fresh and n_stale:
            feats = self.feats.reshape(len(self.feats), -1)
            for n in np.flatnonzero(stale):
                flat = np.flatnonzero(self.regions[:fresh] == n)
                cache.put(flat, entries(feats.take(flat, 1), n))
        if rows > fresh:
            cache[fresh:rows] = entries(self.feats[:, fresh:rows], self.regions[fresh:rows])


class _StepHistory:
    """Per-step visit record, one row per episode.

    ``next`` holds each row's next-state key: its blocks in a ``_Blocks``,
    or at degree 0 its state cell in an int array; steps without a next
    state have ``next = None``.
    """

    def __init__(self, capacity: int, d_feat: int, next_keys):
        self.feats = np.zeros((capacity, d_feat))
        self.rewards = np.zeros(capacity)
        self.regions = np.zeros(capacity, dtype=np.int64)
        self.next = next_keys
        self.size = 0

    def append(self, phi, reward, region, next_key=None):
        i = self.size
        self.feats[i] = phi
        self.rewards[i] = reward
        self.regions[i] = region
        if self.next is not None:
            self.next[i] = next_key
        self.size += 1


def check_learner(fmap, schedule, n_probe, action_points_per_axis, planner, clip_bounds) -> None:
    """Refuse, allocating nothing, the ``CinderellaLearner`` with these arguments and
    ``n_probe`` probe states; its ``__init__`` calls this first."""
    if planner not in ("relaxation", "exact-grid"):
        raise ValueError(f"unknown planner: {planner!r}")
    if action_points_per_axis < 2:
        raise ValueError(f"action grid needs at least 2 points, got {action_points_per_axis}")
    lo, hi = clip_bounds  # a pair, or a ValueError
    if not -math.inf < lo < hi < math.inf:  # a NaN fails every <
        raise ValueError(f"clip bounds must be finite and increasing, got {clip_bounds}")
    partition = fmap.partition
    if partition.dim != Z_DIM:
        raise ValueError(f"partition must cover rows (s, a), got dim {partition.dim}")
    H, N, d = schedule.horizon, partition.n_regions, fmap.dim_features
    if planner == "exact-grid" and H * N * d > 6:
        raise ValueError(
            f"exact grid solver limited to <= 6 uncertainty dims, got dims={H * N * d}"
        )
    # Entries held, floats and int64s alike, counted with Python ints. Per step: the ridge
    # matrices and counts, the history, and two policies (the plan's, and the one it replaces,
    # which its caller may hold); per step h >= 2 the store of what it scores; the probe's
    # cells, the last step's running sums, the largest temporaries of a plan, the actions,
    # their powers, and the m x M cell table with its temporaries.
    M, K, m, n_s = action_points_per_axis, schedule.episodes, partition.cells_per_axis, n_probe
    if fmap.index_set.degree == 0:  # cells; a re-fit at h < H holds targets, ids and weights
        store, cells, plan = K, n_s, 4 * K
    else:  # one block of the probe's n_s rows and the step-(h-1) history's K next states. Per
        # entry a plan holds at most a _width over a region array, its Lambda^-1 gather and three
        # results, plus _Blocks.refresh's partial path, one region's gathered feats, its mask and
        # flat index and no Lambda^-1; the probe's blocks are built once, before their copies
        store, cells = (n_s + K) * M * (d + 3) + N * (d + 1), 0
        plan = (n_s + K) * M * (d * d + d + 5)
    if H == 1:  # no step keeps a block, and the one re-fit reads the running sums
        plan = 0
    held = (H + 1) * (N * (4 * d * d + 2 * d + 3) + K * (d + 2) + 2 * (m + n_s))
    held += (H - 1) * store + cells + N * d + plan + M * (d + 3) + 6 * m * M
    if held > MAX_HELD_ENTRIES:
        raise ValueError(f"learner too large: {held} entries held, over {MAX_HELD_ENTRIES}")


class CinderellaLearner:
    """Episodic learner state: partition, features, per-(h, n) regressions.

    Single-writer: one learner per run. Independent runs may execute
    concurrently with no shared mutable state.

    Each step holds ``schedule.episodes`` transitions, one per episode.
    ``plan`` builds a new ``policy`` (see ``Policy``), which ``_scores``, the
    one scoring rule, reads. Both planners score each step h >= 2 once per
    re-fit, in ``_next_values``, which records the step's greedy picks at
    the ``probe_states`` (n, 1) from the scores that give the re-fit values.
    At degree >= 1 that is one ``_block_scores`` call on the step's
    ``_Blocks``, the probe's rows and then the step-(h-1) history's next
    states, which caches their means and bonus widths (see ``_Blocks`` for
    when a cached entry is valid); ``alpha`` changes with ``k`` and stays
    outside the cache. The step-H re-fit reads ``_sums`` (N, d), the sums of
    ``phi * clip(reward)`` that ``observe_transition`` adds in row order.

    ``_cell_regions`` (C, M) holds the regions of every state cell x grid
    action, and ``_blocks`` reads a state's regions from it. At degree 0 a
    state is its state cell: ``_cell_scores(h)`` gathers the N region scores
    into the (C, M) step-h table, once per plan and step. The history stores
    next cells and ``_probe_cells`` the probe states' cells.

    ``plan_and_act_episode`` plans, then runs the episode through ``act`` and
    ``observe_transition``, the learner's only greedy and absorb paths. Each
    visited state is located once per episode: ``act`` returns the greedy
    pick's regression row and the state's key, its blocks or at degree 0 its
    cell, which is the next-state key of the step before.
    """

    def __init__(
        self,
        fmap: TaylorFeatureMap,
        schedule: BonusSchedule,
        probe_states: np.ndarray,
        action_points_per_axis: int = 21,
        planner: str = "relaxation",
        clip_bounds: tuple[float, float] = (-1.0, 2.0),
    ):
        self._n_probe = len(probe_states)
        check_learner(fmap, schedule, self._n_probe, action_points_per_axis, planner, clip_bounds)
        partition = fmap.partition
        H, N, d = schedule.horizon, partition.n_regions, fmap.dim_features
        M, K, m = action_points_per_axis, schedule.episodes, partition.cells_per_axis
        self.partition = partition
        self.fmap = fmap
        self.schedule = schedule
        self.actions = uniform_grid(M, 1)
        self.planner = planner
        self.clip_lo, self.clip_hi = clip_bounds

        self.H, self.N, self.d = H, N, d
        lam0 = schedule.lam_reg
        self.lam_all = np.tile(np.eye(d) * lam0, (H + 1, N, 1, 1))
        self.lam_inv_all = np.tile(np.eye(d) / lam0, (H + 1, N, 1, 1))
        self.counts = np.zeros((H + 1, N), dtype=np.int64)
        # The first center of each state cell: its action coordinate lies in
        # the first action cell, which repeats every m centers.
        cell_centers = partition.centers[::m, :1]
        regions = assign_regions(partition, grid_pairs(cell_centers, self.actions))
        self._cell_regions = regions.reshape(-1, M)
        self._cell_centers = cell_centers[:, 0]
        # Features are (s - c_s)^i * (a - c_a)^j, the order in which
        # features_at_centers' product runs; each grid action's offset from
        # its cell center is the same in every state cell.
        exps = fmap.index_set.indices
        offsets = self.actions[:, 0] - partition.centers[self._cell_regions[0], 1]
        self._state_exps = exps[:, :1]  # (d, 1)
        self._action_powers = offsets ** exps[:, 1:]  # (d, M)
        self._cells = fmap.index_set.degree == 0
        n_s = self._n_probe
        if self._cells:
            self._one = np.ones(1)  # the one feature, the same for every row
            self._one.flags.writeable = False
            self._probe_cells = self._state_cells(probe_states)
        elif H > 1:
            probe = self._blocks(probe_states)

        def next_keys():  # the history's record of next states, at steps that have one: at
            # degree >= 1 the next step's block, whose first n_s rows are the probe's
            if self._cells:
                return np.zeros(K, dtype=np.int64)
            blocks = _Blocks(
                np.zeros((d, n_s + K, M)), np.zeros((n_s + K, M), dtype=np.int64), N, n_s
            )
            blocks.feats[:, :n_s], blocks.regions[:n_s] = probe
            return blocks

        self.history = [
            _StepHistory(K, d, next_keys() if 1 <= h < H else None) for h in range(H + 1)
        ]
        self._sums = np.zeros((N, d))
        self.k = 0
        self.policy = Policy(self.lam_inv_all, m, n_s)

    # -- feature plumbing ---------------------------------------------------

    def _blocks(self, states: np.ndarray):
        """Features (d, n, M), feature-major, and regions (n, M) of (s, a) for every grid action.

        ``states`` is (n, 1), or one state of shape (1,) giving n = 1. The
        floats are those of ``features_at_centers`` on ``assign_regions``.
        """
        cells = self._state_cells(states)
        offsets = np.reshape(states, -1) - self._cell_centers[cells]
        feats = (offsets ** self._state_exps)[:, :, None] * self._action_powers[:, None]
        return feats, self._cell_regions[cells]

    def _state_cells(self, states: np.ndarray):
        """State cell (n,) of ``states`` (n, 1), or ``[cell]`` of one state of shape (1,)."""
        if np.ndim(states) == 1:  # one state, as act passes it
            return [axis_cell(float(states[0]), self.partition.cells_per_axis)]
        return axis_cells(np.reshape(states, -1), self.partition.cells_per_axis)

    # -- scoring ------------------------------------------------------------

    def _width(self, h: int, feats: np.ndarray, regions) -> np.ndarray:
        """Bonus width ``sqrt(max(phi^T Lambda^-1 phi, 0))`` under the policy's step-h inverses.

        ``feats`` is (d, ...), feature-major, and ``regions`` an int array of
        its entries' shape, each entry's Lambda^-1 gathered as (d, d, ...),
        or one region index, whose (d, d) inverse broadcasts. Either way
        ``(f_d * L_de) * f_e`` is summed over d, then e.
        """
        li = self.policy.lam_inv[h].take(regions, 2)
        quad = np.einsum("d...,de...,e...->...", feats, li, feats)
        return np.sqrt(np.maximum(quad, 0.0))

    def _mean(self, h: int, feats: np.ndarray, regions) -> np.ndarray:
        """Mean ``phi . theta`` under the policy's step-h table, added in feature order.

        ``feats`` and ``regions`` are as for ``_width``: a region array
        gathers each entry's theta as (d, ...), one region index broadcasts
        its (d,) theta. The feature axis must be outermost in memory, as
        ``_blocks`` and ``take`` lay it out: over a feature axis of the
        smallest stride einsum adds the products in its SIMD order.
        """
        return np.einsum("d...,d...->...", feats, self.policy.theta[h].take(regions, 1))

    def _scores(self, h: int, feats: np.ndarray, regions: np.ndarray) -> np.ndarray:
        """Raw optimistic scores ``phi . theta + alpha * width`` of feature-major blocks."""
        mean = self._mean(h, feats, regions)
        return mean + self.policy.alpha[h][regions] * self._width(h, feats, regions)

    def _block_scores(self, h: int, blocks: _Blocks, rows: int) -> np.ndarray:
        """Raw optimistic step-h scores (rows, M) of the first ``rows`` block rows.

        Rows from ``blocks.fresh`` on are computed in full. Of older rows, a
        mean is recomputed only where its region's step-h theta column
        differs in bits from ``blocks.theta`` (so -0.0 against 0.0 counts as
        moved), and a width only where its region's step-h count differs from
        ``blocks.seen``. The caches are then current for ``rows`` rows.
        """
        theta, alpha = self.policy.theta[h], self.policy.alpha[h]
        moved = (theta.view(np.int64) != blocks.theta.view(np.int64)).any(axis=0)
        blocks.refresh(blocks.mean, moved, rows, lambda f, r: self._mean(h, f, r))
        stale = self.counts[h] != blocks.seen
        blocks.refresh(blocks.width, stale, rows, lambda f, r: self._width(h, f, r))
        blocks.theta[:] = theta
        blocks.seen[:] = self.counts[h]
        blocks.fresh = rows
        return blocks.mean[:rows] + alpha[blocks.regions[:rows]] * blocks.width[:rows]

    def _cell_scores(self, h: int) -> np.ndarray:
        """Raw optimistic step-h scores (C, M) of every state cell x grid action, at degree 0.

        The N region scores gathered by ``_cell_regions``: ``1.0 * theta`` and
        ``1.0 * Lambda^-1 * 1.0`` are exact, so the floats are ``_scores``'.
        """
        width = np.sqrt(np.maximum(self.policy.lam_inv[h, 0, 0], 0.0))
        return (self.policy.theta[h, 0] + self.policy.alpha[h] * width)[self._cell_regions]

    def value_estimate(self, state: np.ndarray) -> float:
        """Optimistic initial-state value of the policy: clipped max step-1 score over the grid."""
        feats, regions = self._blocks(state)
        return float(np.clip(self._scores(1, feats, regions).max(), 0.0, 1.0))

    # -- planning -----------------------------------------------------------

    def _next_values(self, h: int, next_keys, rows: int) -> np.ndarray:
        """``max_a clip(score, 0, 1)`` under the step-h tables of the first ``rows`` next states.

        The same one scoring gives the step's greedy picks, which this records
        in the policy: at degree 0 every cell's in ``greedy[h]``, and the probe
        states' in ``picks[h]``.
        """
        if self._cells:
            scores = self._cell_scores(h)
            self.policy.greedy[h] = np.argmax(scores, axis=1)
            self.policy.picks[h] = self.policy.greedy[h, self._probe_cells]
            return np.clip(scores, 0.0, 1.0).max(axis=1)[next_keys[:rows]]
        base = next_keys.base
        scores = self._block_scores(h, next_keys, base + rows)
        self.policy.picks[h] = np.argmax(scores[:base], axis=1)
        return np.clip(scores[base:], 0.0, 1.0).max(axis=1)

    def _refit(self, h: int, v_next) -> np.ndarray:
        """Ridge estimates (N, d) at step h from the whole step-h history.

        Targets are ``reward + v_next(next_keys, rows)``, clipped to the target
        bounds, where ``v_next`` values the first ``rows`` next-state keys of
        the step-h history as ``_next_values(h + 1, ...)`` does. The last step
        has no continuation: its sums are ``_sums``, kept by
        ``observe_transition``.
        """
        if h == self.H:
            bsum = self._sums
        else:
            hist = self.history[h]
            p = hist.size
            targets = hist.rewards[:p] + v_next(hist.next, p)
            targets = np.clip(targets, self.clip_lo, self.clip_hi)
            # Summed per flat (region, feature) id in row order, as np.add.at would;
            # at degree 0 the weights are the targets, times the exact feature 1.0.
            ids = (hist.regions[:p, None] * self.d + np.arange(self.d)).ravel()
            weights = (hist.feats[:p] * targets[:, None]).ravel()
            bsum = np.bincount(ids, weights, minlength=self.N * self.d).reshape(self.N, self.d)
        return np.einsum("nde,ne->nd", self.lam_inv_all[h], bsum)

    def _backward(self, xi=None) -> None:
        """Re-fit ``policy.theta`` from step H down to 1, adding ``xi[h]`` (d, N) when given.

        Each step's targets are scored with the step-(h+1) table just written.
        """
        theta = self.policy.theta
        for h in range(self.H, 0, -1):
            theta[h] = self._refit(h, lambda keys, rows: self._next_values(h + 1, keys, rows)).T
            if xi is not None:
                theta[h] += xi[h]

    def _plan_exact_grid(self, s1: np.ndarray) -> None:
        """Exhaustive search over uncertainty vectors on a per-coordinate grid.

        Feasible candidates (within the per-region confidence ellipsoid
        ``||xi||_Lambda <= alpha``) are enumerated region by region; every
        joint assignment is scored by the optimistic initial value, the max
        step-1 ``phi . theta`` over the action grid at s1, after a full
        backward re-fit with ``theta = theta_hat + xi``. The best ``xi`` is
        re-fit once more, so the policy records its picks; its radii stay 0.
        """
        H, N, d, g = self.H, self.N, self.d, _EXACT_GRID_RESOLUTION
        alpha = alpha_radius(self.schedule, self.fmap, self.k + 1, self.counts)
        keys = [(h, n) for h in range(1, H + 1) for n in range(N)]
        # Feasible xi per (h, n): grid of the bounding box, filtered by the
        # ellipsoid constraint. The resolution is odd, so the grid holds the
        # zero vector, whose norm 0 is within every radius: it is always kept.
        candidates = []
        for h, n in keys:
            lam = self.lam_all[h, n]
            radius = alpha[h, n] / math.sqrt(float(np.linalg.eigvalsh(lam)[0]))
            mesh = np.meshgrid(*[np.linspace(-radius, radius, g)] * d, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
            norms = np.sqrt(np.einsum("cd,de,ce->c", pts, lam, pts))
            candidates.append(np.unique(pts[norms <= alpha[h, n] + 1e-12], axis=0))

        s1_feats, s1_regions = self._blocks(s1)
        xi = np.zeros_like(self.policy.theta)
        best_obj, best = -np.inf, None
        for combo in itertools.product(*candidates):
            for (h, n), c in zip(keys, combo):
                xi[h, :, n] = c
            self._backward(xi)
            obj = self._mean(1, s1_feats, s1_regions).max()
            if obj > best_obj:
                best_obj, best = obj, xi.copy()
        self._backward(best)

    def plan(self, s1: np.ndarray | None = None) -> None:
        """Build the ``policy`` of the upcoming episode under the inverses as they stand."""
        if self.planner == "exact-grid" and s1 is None:
            raise ValueError("exact-grid planning needs the initial state")
        self.policy = policy = Policy(self.lam_inv_all, len(self._cell_regions), self._n_probe)
        if self.planner == "exact-grid":
            self._plan_exact_grid(s1)
        else:
            policy.alpha[1:] = alpha_radius(self.schedule, self.fmap, self.k + 1, self.counts[1:])
            self._backward()
        if self._cells:  # the re-fit scored steps h >= 2; act reads step 1's picks too
            policy.greedy[1] = np.argmax(self._cell_scores(1), axis=1)

    # -- acting -------------------------------------------------------------

    def act(self, h: int, state: np.ndarray):
        """The policy's greedy step-h pick at ``state``: ``(phi, region, index, key)``.

        ``(phi, region)`` is the regression row of grid action ``index`` and
        ``key`` what a history row keeps of ``state`` as its next state: its
        blocks ``(feats, regions)``, or at degree 0 its state cell, whose
        greedy index the policy stores.
        """
        if self._cells:
            cell = axis_cell(float(state[0]), self.partition.cells_per_axis)
            i = int(self.policy.greedy[h, cell])
            return self._one, int(self._cell_regions[cell, i]), i, cell
        feats, regions = self._blocks(state)
        i = int(np.argmax(self._scores(h, feats, regions)))
        # A contiguous row: BLAS sums a strided dot product in another order.
        return feats[:, 0, i].copy(), int(regions[0, i]), i, (feats, regions)

    def _check_transition(self, h: int, reward, next_key) -> None:
        """Raise unless ``observe_transition`` can absorb this step-h row."""
        if not 1 <= h <= self.H:
            raise ValueError(f"step must be in 1..{self.H}, got {h}")
        if self.history[h].size == self.schedule.episodes:
            raise ValueError(f"history full: step {h} holds one transition per episode")
        if h < self.H and next_key is None:
            raise ValueError(f"step {h} < {self.H} needs a next state")
        if not math.isfinite(reward):
            raise ValueError("non-finite reward")

    def observe_transition(self, h: int, phi, region: int, reward, next_key) -> None:
        """Add one step-h row to the (h, region) design matrix and the history.

        ``phi`` and ``region`` are the row's features and region, and
        ``next_key`` is the next state's key as ``act`` returns it, required
        at every step but the last.
        """
        self._check_transition(h, reward, next_key)
        count = self.counts[h, region] + 1
        ridge_update(self.lam_all[h, region], self.lam_inv_all[h, region], phi, count)
        self.counts[h, region] = count
        self.history[h].append(phi, reward, region, next_key)
        if h == self.H:  # the additions _refit's bincount makes at h < H, in row order from 0.0
            self._sums[region] += phi * min(max(reward, self.clip_lo), self.clip_hi)

    def plan_and_act_episode(self, env, s1: np.ndarray, rng: np.random.Generator):
        """One full episode: plan, act greedily, then absorb the transitions.

        Every transition is checked before the first is absorbed, so a failed
        episode leaves the regressions and the history as they were.
        Returns (transitions, total_return). The learner touches only the
        sampling surface of ``env``.
        """
        if env.horizon != self.H:
            raise ValueError(f"env horizon {env.horizon} is not the learner's horizon {self.H}")
        s1 = np.atleast_1d(np.asarray(s1, dtype=float))
        if s1.shape != (1,) or not abs(s1[0]) <= 1.0:
            raise ValueError(f"initial state must be one coordinate in [-1, 1], got {s1}")
        self.plan(s1)
        visits = []  # act's (phi, region, index, key) per visited state

        def play(h, state):
            visits.append(self.act(h, state))
            return self.actions[visits[-1][2]]

        transitions, total = run_episode(env, play, rng, s1=s1)
        nexts = [visit[3] for visit in visits[1:]] + [None]
        for tr, nxt in zip(transitions, nexts):
            self._check_transition(tr.h, tr.reward_sample, nxt)
        for tr, (phi, region, _, _), nxt in zip(transitions, visits, nexts):
            self.observe_transition(tr.h, phi, region, tr.reward_sample, nxt)
        self.k += 1
        return transitions, total

    # -- policy probe (for oracle evaluation) --------------------------------

    def greedy_action_indices(self) -> np.ndarray:
        """The policy's ``picks`` (H+1, n), which its plan's re-fit recorded; nothing is scored
        here, and a later plan leaves the returned array as it is."""
        return self.policy.picks
