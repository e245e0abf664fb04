"""Optimistic region-wise least-squares value iteration.

One ridge regression per (step, region). At the start of every episode the
value parameters are re-fit backward from step H to 1 against targets
``reward + next-step optimistic value``; optimism comes from per-region
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

At degree 0 (``nu <= 1``) the one feature is the constant 1, so a score
depends only on (state cell, grid action). Each plan gathers the N region
scores into one (state cell x grid action) table per step, which gives the
re-fit targets and every cell's greedy index; ``act`` and the probe look
that up, and history rows keep their next state's cell, so acting,
absorbing and re-fitting compute no features. At degree >= 1 the history's
next-state blocks and the probe's blocks cache each entry's mean and bonus
width, and a plan recomputes only the entries whose inputs moved. The
floats are those of the general rule. The probe covers steps h >= 2 only:
the oracle values step 1 at the action the episode played.

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
from .geometry import assign_regions, axis_cell, axis_cells, grid_pairs, uniform_grid
from .regression import ridge_update

# Grid points per uncertainty coordinate in the exact-grid planner.
_EXACT_GRID_RESOLUTION = 5


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


class _Blocks:
    """Feature blocks ``feats`` (rows, M, d) and ``regions`` (rows, M) of one step's scores.

    ``mean`` and ``width`` cache each entry's ``phi . theta`` and bonus width
    for the rows below ``fresh``. A cached mean is valid iff its region's
    theta row has the bits of that row in ``theta``, the step's table when
    the blocks were last scored; a cached width iff its region's count equals
    ``seen``. ``counts[h, n]`` is the version of region n's step-h inverse:
    it is bumped with every ``ridge_update``, the only writer of
    ``lam_inv_all``. ``blocks[i] = (feats, regions)`` writes one row.
    """

    def __init__(self, feats: np.ndarray, regions: np.ndarray, n_regions: int):
        self.feats = feats
        self.regions = regions
        self.mean = np.zeros(regions.shape)
        self.width = np.zeros(regions.shape)
        self.theta = np.zeros((n_regions, feats.shape[-1]))
        self.seen = np.zeros(n_regions, dtype=np.int64)
        self.fresh = 0

    def __setitem__(self, i: int, blocks) -> None:
        self.feats[i], self.regions[i] = blocks

    def refresh(self, cache: np.ndarray, stale: np.ndarray, rows: int, entries) -> None:
        """Make ``cache`` current for ``rows`` rows, given the (N,) mask of ``stale`` regions.

        Rows below ``fresh`` are recomputed only at entries of stale regions,
        gathered by flat index, and later rows in full; when every region is
        stale all rows are recomputed at once. ``entries(feats, regions)``
        gives the cached value of blocks of any leading shape.
        """
        fresh, n_stale = self.fresh, np.count_nonzero(stale)
        if n_stale == stale.size:
            cache[:rows] = entries(self.feats[:rows], self.regions[:rows])
            return
        if fresh and n_stale:
            flat = np.flatnonzero(stale.take(self.regions[:fresh]))
            feats = self.feats.reshape(-1, self.feats.shape[-1]).take(flat, 0)
            cache.put(flat, entries(feats, self.regions.take(flat)))
        if rows > fresh:
            cache[fresh:rows] = entries(self.feats[fresh:rows], self.regions[fresh:rows])


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


class CinderellaLearner:
    """Episodic learner state: partition, features, per-(h, n) regressions.

    Single-writer: one learner per run. Independent runs may execute
    concurrently with no shared mutable state.

    Each step holds ``schedule.episodes`` transitions, one per episode.
    ``plan`` writes the planned table ``theta_all`` (H+1, N, d) and
    ``alpha_all`` (H+1, N), indexed by h starting at 1, and ``_scores`` is
    the one scoring rule that reads them. Both planners score the history's
    next-state blocks and the probe's blocks of steps h >= 2 through
    ``_block_scores``, which caches their means ``phi . theta`` and bonus widths
    ``sqrt(max(phi^T Lambda^-1 phi, 0))`` (see ``_Blocks`` for when a cached
    entry is valid). ``alpha`` stays outside the cache because it changes
    with ``k``.

    ``_cell_regions`` (C, M) holds the regions of every state cell x grid
    action, and ``_blocks`` reads a state's regions from it. At degree 0 a
    state is its state cell: ``_cell_scores(h)`` gathers the N region scores
    ``theta + alpha * sqrt(Lambda^-1)`` into the (C, M) step-h table, and
    ``plan`` keeps its argmax per cell in ``_greedy`` (H+1, C). The history
    stores next cells and the probe its states' cells.

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
        action_points_per_axis: int = 21,
        planner: str = "relaxation",
        clip_bounds: tuple[float, float] = (-1.0, 2.0),
    ):
        if planner not in ("relaxation", "exact-grid"):
            raise ValueError(f"unknown planner: {planner!r}")
        partition = fmap.partition
        if partition.dim != Z_DIM:
            raise ValueError(f"partition must cover rows (s, a), got dim {partition.dim}")
        H, N, d = schedule.horizon, partition.n_regions, fmap.dim_features
        if (schedule.n_regions, schedule.d_feat) != (N, d):
            raise ValueError(
                f"schedule sized for n_regions={schedule.n_regions}, d_feat={schedule.d_feat}; "
                f"the feature map has {N} regions and {d} features"
            )
        if planner == "exact-grid" and H * N * d > 6:
            raise ValueError(
                f"exact grid solver limited to <= 6 uncertainty dims, got dims={H * N * d}"
            )
        self.partition = partition
        self.fmap = fmap
        self.schedule = schedule
        self.actions = uniform_grid(action_points_per_axis, 1)
        self.planner = planner
        self.clip_lo, self.clip_hi = clip_bounds

        self.H, self.N, self.d = H, N, d
        lam0 = schedule.lam_reg
        self.lam_all = np.tile(np.eye(d) * lam0, (H + 1, N, 1, 1))
        self.lam_inv_all = np.tile(np.eye(d) / lam0, (H + 1, N, 1, 1))
        self.counts = np.zeros((H + 1, N), dtype=np.int64)
        M, K = self.actions.shape[0], schedule.episodes
        # The first center of each state cell: its action coordinate lies in
        # the first action cell, which repeats every m centers.
        m = partition.cells_per_axis
        cell_centers = partition.centers[::m, :1]
        regions = assign_regions(partition, grid_pairs(cell_centers, self.actions))
        self._cell_regions = regions.reshape(-1, M)
        self._cell_centers = cell_centers[:, 0]
        # Features are (s - c_s)^i * (a - c_a)^j, the order in which
        # features_at_centers' product runs; each grid action's offset from
        # its cell center is the same in every state cell.
        exps = fmap.index_set.indices
        offsets = self.actions[:, 0] - partition.centers[self._cell_regions[0], 1]
        self._state_exps = exps[:, 0]
        self._action_powers = offsets[:, None] ** exps[:, 1]  # (M, d)
        self._cells = fmap.index_set.degree == 0
        if self._cells:
            self._greedy = np.zeros((H + 1, m), dtype=np.int64)
            self._one = np.ones(1)  # the one feature, the same for every row
            self._one.flags.writeable = False

        def next_keys():  # the history's record of next states, at steps that have one
            if self._cells:
                return np.zeros(K, dtype=np.int64)
            return _Blocks(np.zeros((K, M, d)), np.zeros((K, M), dtype=np.int64), N)

        self.history = [
            _StepHistory(K, d, next_keys() if 1 <= h < H else None) for h in range(H + 1)
        ]
        self.theta_all = np.zeros((H + 1, N, d))
        self.alpha_all = np.zeros((H + 1, N))
        self.k = 0
        # The probe states' cells at degree 0, else one _Blocks per step h >= 2
        # (at index h), all sharing the states' feats and regions.
        self._probe = None
        self._n_probe = 0
        self.last_policy_actions = None

    # -- feature plumbing ---------------------------------------------------

    def _blocks(self, states: np.ndarray):
        """Features (n, M, d) and regions (n, M) of (s, a) for every grid action.

        ``states`` is (n, 1), or one state of shape (1,) giving n = 1. The
        floats are those of ``features_at_centers`` on ``assign_regions``.
        """
        cells = self._state_cells(states)
        offsets = np.reshape(states, -1) - self._cell_centers[cells]
        feats = (offsets[:, None] ** self._state_exps)[:, None, :] * self._action_powers
        return feats, self._cell_regions[cells]

    def _state_cells(self, states: np.ndarray):
        """State cell (n,) of ``states`` (n, 1), or ``[cell]`` of one state of shape (1,)."""
        if np.ndim(states) == 1:  # one state, as act passes it
            return [axis_cell(float(states[0]), self.partition.cells_per_axis)]
        return axis_cells(np.reshape(states, -1), self.partition.cells_per_axis)

    # -- scoring ------------------------------------------------------------

    def _width(self, h: int, feats: np.ndarray, regions: np.ndarray) -> np.ndarray:
        """Bonus width ``sqrt(max(phi^T Lambda^-1 phi, 0))`` under the step-h inverses."""
        li = self.lam_inv_all[h].take(regions, 0)  # as [regions], faster on large blocks
        quad = np.einsum("...d,...de,...e->...", feats, li, feats)
        return np.sqrt(np.maximum(quad, 0.0))

    def _mean(self, h: int, feats: np.ndarray, regions: np.ndarray) -> np.ndarray:
        """Mean ``phi . theta`` under the step-h table."""
        return np.einsum("...d,...d->...", feats, self.theta_all[h].take(regions, 0))

    def _scores(self, h: int, feats, regions: np.ndarray, width=None, mean=None) -> np.ndarray:
        """Raw optimistic scores ``phi . theta + alpha * width`` of blocks of any leading shape.

        ``width`` and ``mean`` are the blocks' cached values; each is computed
        from ``feats`` when None.
        """
        if mean is None:
            mean = self._mean(h, feats, regions)
        if width is None:
            width = self._width(h, feats, regions)
        return mean + self.alpha_all[h][regions] * width

    def _block_scores(self, h: int, blocks: _Blocks, rows: int) -> np.ndarray:
        """Raw optimistic step-h scores (rows, M) of the first ``rows`` block rows.

        Rows from ``blocks.fresh`` on are computed in full. Of older rows, a
        mean is recomputed only where its region's step-h theta row differs
        in bits from ``blocks.theta`` (so -0.0 against 0.0 counts as moved),
        and a width only where its region's step-h count differs from
        ``blocks.seen``. The caches are then current for ``rows`` rows.
        """
        theta = self.theta_all[h]
        moved = (theta.view(np.int64) != blocks.theta.view(np.int64)).any(axis=1)
        blocks.refresh(blocks.mean, moved, rows, lambda f, r: self._mean(h, f, r))
        stale = self.counts[h] != blocks.seen
        blocks.refresh(blocks.width, stale, rows, lambda f, r: self._width(h, f, r))
        blocks.theta[:] = theta
        blocks.seen[:] = self.counts[h]
        blocks.fresh = rows
        return self._scores(h, None, blocks.regions[:rows], blocks.width[:rows], blocks.mean[:rows])

    def _cell_scores(self, h: int) -> np.ndarray:
        """Raw optimistic step-h scores (C, M) of every state cell x grid action, at degree 0.

        The N region scores gathered by ``_cell_regions``: ``1.0 * theta`` and
        ``1.0 * Lambda^-1 * 1.0`` are exact, so the floats are ``_scores``'.
        """
        width = np.sqrt(np.maximum(self.lam_inv_all[h][:, 0, 0], 0.0))
        return (self.theta_all[h][:, 0] + self.alpha_all[h] * width)[self._cell_regions]

    def value_estimate(self, state: np.ndarray) -> float:
        """Optimistic initial-state value: clipped max step-1 score over the action grid."""
        feats, regions = self._blocks(state)
        return float(np.clip(self._scores(1, feats, regions).max(), 0.0, 1.0))

    # -- planning -----------------------------------------------------------

    def _next_values(self, h: int, next_keys, rows: int) -> np.ndarray:
        """``max_a clip(score, 0, 1)`` under the step-h tables of the first ``rows`` next states."""
        if self._cells:
            return np.clip(self._cell_scores(h), 0.0, 1.0).max(axis=1)[next_keys[:rows]]
        return np.clip(self._block_scores(h, next_keys, rows), 0.0, 1.0).max(axis=1)

    def _refit(self, h: int, v_next) -> np.ndarray:
        """Ridge estimates (N, d) at step h from the whole step-h history.

        Targets are ``reward + v_next(next_keys, rows)``, clipped to the target
        bounds, where ``v_next`` values the first ``rows`` next-state keys of
        the step-h history as ``_next_values(h + 1, ...)`` does; the last step
        has no continuation.
        """
        hist = self.history[h]
        p = hist.size
        targets = hist.rewards[:p]
        if h < self.H:
            targets = targets + v_next(hist.next, p)
        targets = np.clip(targets, self.clip_lo, self.clip_hi)
        # Summed per flat (region, feature) id in row order, as np.add.at would;
        # at degree 0 the weights are the targets, times the exact feature 1.0.
        ids = (hist.regions[:p, None] * self.d + np.arange(self.d)).ravel()
        weights = (hist.feats[:p] * targets[:, None]).ravel()
        bsum = np.bincount(ids, weights, minlength=self.N * self.d).reshape(self.N, self.d)
        return np.einsum("nde,ne->nd", self.lam_inv_all[h], bsum)

    def _backward(self, xi=None) -> None:
        """Re-fit ``theta_all`` from step H down to 1, adding ``xi[h]`` when given.

        Each step's targets are scored with the step-(h+1) table just written.
        """
        for h in range(self.H, 0, -1):
            self.theta_all[h] = self._refit(
                h, lambda keys, rows: self._next_values(h + 1, keys, rows)
            )
            if xi is not None:
                self.theta_all[h] += xi[h]

    def _plan_relaxation(self) -> None:
        self.alpha_all[1:] = alpha_radius(self.schedule, self.k + 1, self.counts[1:])
        self._backward()

    def _plan_exact_grid(self, s1: np.ndarray) -> None:
        """Exhaustive search over uncertainty vectors on a per-coordinate grid.

        Feasible candidates (within the per-region confidence ellipsoid
        ``||xi||_Lambda <= alpha``) are enumerated region by region; every
        joint assignment is scored by the optimistic initial value, the max
        step-1 ``phi . theta`` over the action grid at s1, after a full
        backward re-fit with ``theta = theta_hat + xi``. The best ``theta`` is
        kept with zero radii.
        """
        H, N, d, g = self.H, self.N, self.d, _EXACT_GRID_RESOLUTION
        alpha = alpha_radius(self.schedule, self.k + 1, self.counts)
        keys = [(h, n) for h in range(1, H + 1) for n in range(N)]
        # Feasible xi per (h, n): grid of the bounding box, filtered by the
        # ellipsoid constraint; the zero vector is always kept.
        candidates = []
        for h, n in keys:
            lam = self.lam_all[h, n]
            radius = alpha[h, n] / math.sqrt(float(np.linalg.eigvalsh(lam)[0]))
            mesh = np.meshgrid(*[np.linspace(-radius, radius, g)] * d, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
            norms = np.sqrt(np.einsum("cd,de,ce->c", pts, lam, pts))
            feas = pts[norms <= alpha[h, n] + 1e-12]
            if feas.shape[0] == 0 or not np.any(np.all(feas == 0.0, axis=1)):
                feas = np.vstack([np.zeros((1, d)), feas])
            candidates.append(np.unique(feas, axis=0))

        s1_feats, s1_regions = self._blocks(s1)
        self.alpha_all[:] = 0.0
        xi = np.zeros((H + 1, N, d))
        best_obj, best = -np.inf, None
        for combo in itertools.product(*candidates):
            for (h, n), c in zip(keys, combo):
                xi[h, n] = c
            self._backward(xi)
            obj = self._mean(1, s1_feats, s1_regions).max()
            if obj > best_obj:
                best_obj, best = obj, self.theta_all.copy()
        self.theta_all[:] = best

    def plan(self, s1: np.ndarray | None = None) -> None:
        """Refresh the planned table for the upcoming episode."""
        if self.planner == "exact-grid":
            if s1 is None:
                raise ValueError("exact-grid planning needs the initial state")
            self._plan_exact_grid(s1)
        else:
            self._plan_relaxation()
        if self._cells:
            for h in range(1, self.H + 1):
                self._greedy[h] = np.argmax(self._cell_scores(h), axis=1)
        if self._probe is not None:
            self.last_policy_actions = self.greedy_action_indices()

    # -- acting -------------------------------------------------------------

    def act(self, h: int, state: np.ndarray):
        """Greedy step-h pick at ``state``: ``(phi, region, index, key)``.

        ``(phi, region)`` is the regression row of grid action ``index`` and
        ``key`` what a history row keeps of ``state`` as its next state: its
        blocks ``(feats, regions)``, or at degree 0 its state cell, whose
        greedy index the last plan stored.
        """
        if self._cells:
            cell = axis_cell(float(state[0]), self.partition.cells_per_axis)
            i = int(self._greedy[h, cell])
            return self._one, int(self._cell_regions[cell, i]), i, cell
        feats, regions = self._blocks(state)
        i = int(np.argmax(self._scores(h, feats, regions)))
        return feats[0, i], int(regions[0, i]), i, (feats, regions)

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

    def plan_and_act_episode(self, env, s1: np.ndarray, rng: np.random.Generator):
        """One full episode: plan, act greedily, then absorb the transitions.

        Every transition is checked before the first is absorbed, so a failed
        episode leaves the regressions and the history as they were.
        Returns (transitions, total_return). The learner touches only the
        sampling surface of ``env``.
        """
        s1 = np.atleast_1d(np.asarray(s1, dtype=float))
        if not np.all(np.abs(s1) <= 1.0):
            raise ValueError("initial state outside [-1, 1]")
        self.plan(s1)
        visits = []  # act's (phi, region, index, key) per visited state

        def policy(h, state):
            visits.append(self.act(h, state))
            return self.actions[visits[-1][2]]

        transitions, total = run_episode(env, policy, rng, s1=s1)
        nexts = [visit[3] for visit in visits[1:]] + [None]
        for tr, nxt in zip(transitions, nexts):
            self._check_transition(tr.h, tr.reward_sample, nxt)
        for tr, (phi, region, _, _), nxt in zip(transitions, visits, nexts):
            self.observe_transition(tr.h, phi, region, tr.reward_sample, nxt)
        self.k += 1
        return transitions, total

    # -- policy probe (for oracle evaluation) --------------------------------

    def register_probe(self, states: np.ndarray) -> None:
        """Precompute the blocks, or at degree 0 the cells, of the probe states (n, 1)."""
        if self._cells:
            self._probe = self._state_cells(states)
        else:
            feats, regions = self._blocks(states)
            feats.flags.writeable = False
            regions.flags.writeable = False
            steps = [_Blocks(feats, regions, self.N) for _ in range(self.H - 1)]
            self._probe = [None, None] + steps
        self._n_probe = len(states)

    def greedy_action_indices(self) -> np.ndarray:
        """Greedy grid-action index of each step h >= 2 at every probe state: (H+1, n).

        Rows 0 and 1 are 0: the oracle values step 1 at the action played at
        s1, not at the probe states. At degree 0 each entry is a lookup in the
        plan's cell table.
        """
        if self._probe is None:
            raise ValueError("no probe registered")
        out = np.zeros((self.H + 1, self._n_probe), dtype=np.int64)
        for h in range(2, self.H + 1):
            if self._cells:
                out[h] = self._greedy[h, self._probe]
            else:
                out[h] = np.argmax(self._block_scores(h, self._probe[h], self._n_probe), axis=1)
        return out
