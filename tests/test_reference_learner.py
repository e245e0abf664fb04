"""Differential pin: the vectorized learner against a naive reference.

The reference rebuilds every (step, region) regression from the raw
transitions, solves ``(lambda*I + sum phi phi^T) theta = sum phi * target``
with ``np.linalg.solve``, and scores grid actions one at a time in Python
loops. The learner keeps Sherman-Morrison inverses, re-fits from its cached
history blocks and scores whole blocks at once; both must plan the same
tables and pick the same actions. A second pin holds the learner's cached
bonus widths to a fresh computation over many plans, and a third holds the
oracle probe's greedy indices to the actions ``act`` picks. A fourth holds
the degree-0 cell path, which plans, acts and probes from one (state cell x
grid action) table per step, to the general per-entry scoring path bit for
bit. A fifth holds ``plan_and_act_episode``, which absorbs the keys its
rollout located, bit for bit to a loop of ``plan``, ``run_episode`` and
``observe_transition`` fed with rows computed point by point and next-state
keys computed afresh. A sixth holds the separable blocks of ``_blocks`` to
``assign_regions`` and ``features_at_centers`` bit for bit, and a seventh
every cached block score to the uncached scoring rule, whether a plan moved
the table in no region, in some or in all. An eighth holds the re-fit's
per-region sums to a loop that adds the history rows in order, bit for bit,
and a ninth the played policy, its step-1 action at s1 and its probe picks
of steps 2..H, to the greedy picks of the planned table before the episode
absorbs its transitions. A tenth holds the feature-major ``_mean`` and
``_width``, over a region array and over one region index, to a loop that
adds in feature order and to the row-major width rule, bit for bit, and an
eleventh bounds a plan's width work after one absorb to the absorbed
region's entries and the new rows. A twelfth holds the last step's table,
re-fit from sums kept as rows are absorbed, to a re-sum of the whole step-H
history after every plan, bit for bit, a thirteenth counts one scoring
of each step per plan, and a fourteenth holds a policy's picks and scores
through the absorb of the episode it plays, and the policy itself through
the next plan, bit for bit.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest
from conftest import clipped_q, naive_row

from cinderella.envs import run_episode
from cinderella.features import TaylorFeatureMap, enumerate_multi_indices, features_at_centers
from cinderella.geometry import assign_regions, build_partition, grid_pairs
from cinderella.harness import RunConfig, build_env, build_learner, make_rng
from cinderella.learner import BonusSchedule, CinderellaLearner, beta_radius
from cinderella.regression import REINVERT_EVERY

HOT_VISITS = REINVERT_EVERY + 8  # region 0 crosses one re-inversion at every step
SPREAD_VISITS = 40
PROBE_STATES = np.linspace(-1.0, 1.0, 9)[:, None]


def _learner(
    degree, horizon, epsilon=0.5, planner="relaxation", general_path=False, points=9,
    probe_states=PROBE_STATES, clip_bounds=(-1.0, 2.0),
):
    """A learner on a 2-d partition with ``points`` grid actions per axis, the given
    probe states and target clip bounds.

    ``general_path`` keeps a degree-0 learner off the cell path. The cell
    path is chosen when the learner is built, from the index set's degree;
    with that label cleared the same one constant feature runs through the
    general blocks, history and scoring rule.
    """
    part = build_partition(2, epsilon)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, degree))
    if general_path:
        fmap = dataclasses.replace(fmap, index_set=dataclasses.replace(fmap.index_set, degree=None))
    schedule = BonusSchedule(
        delta=0.1,
        lam_reg=1.0,
        r_max=1.0,
        episodes=HOT_VISITS + SPREAD_VISITS,  # history rows per step that _feed writes
        horizon=horizon,
        inherent_bound=0.01,
        bonus_scale=0.3,
    )
    return CinderellaLearner(
        fmap, schedule, probe_states, action_points_per_axis=points, planner=planner,
        clip_bounds=clip_bounds,
    )


def _feed(learner, rng, hot=HOT_VISITS, spread=SPREAD_VISITS):
    """Random transitions at every step; returns them as (h, s, a, r, s') tuples.

    The first ``hot`` rounds all land in region 0, the next ``spread`` anywhere.
    """
    records = []
    for i in range(hot + spread):
        for h in range(1, learner.H + 1):
            hi = -0.05 if i < hot else 1.0
            s, a = rng.uniform(-1.0, hi, size=1), rng.uniform(-1.0, hi, size=1)
            r = float(rng.uniform(-1.5, 1.5))  # wide enough to hit both target clips
            s_next = rng.uniform(-1.0, 1.0, size=1) if h < learner.H else None
            next_key = None if s_next is None else learner.act(h + 1, s_next)[3]
            learner.observe_transition(h, *naive_row(learner.fmap, s, a), r, next_key)
            records.append((h, s, a, r, s_next))
    return records


class _Reference:
    """Per-(h, n) linear solves and loop-based scoring over the raw records."""

    def __init__(self, learner, records, k):
        self.fmap = learner.fmap
        self.actions = list(learner.actions)
        sch = learner.schedule
        H, N, d = learner.H, learner.N, learner.d
        lo, hi = learner.clip_lo, learner.clip_hi
        self.lam = np.zeros((H + 1, N, d, d))
        self.lam[1:] = np.eye(d) * sch.lam_reg
        counts = np.zeros((H + 1, N), dtype=int)
        for h, s, a, _, _ in records:
            phi, n = naive_row(self.fmap, s, a)
            self.lam[h, n] += np.outer(phi, phi)
            counts[h, n] += 1
        self.counts = counts
        self.alpha = np.zeros((H + 1, N))
        for h in range(1, H + 1):
            for n in range(N):
                self.alpha[h, n] = (
                    beta_radius(sch, self.fmap, k)
                    + math.sqrt(counts[h, n]) * sch.inherent_bound
                    + sch.r_max / sch.lam_reg
                )
        self.theta = np.zeros((H + 1, N, d))
        for h in range(H, 0, -1):
            rhs = np.zeros((N, d))
            for hh, s, a, r, s_next in records:
                if hh != h:
                    continue
                v_next = 0.0
                if h < H:
                    v_next = max(
                        min(max(self.score(h + 1, s_next, b), 0.0), 1.0) for b in self.actions
                    )
                phi, n = naive_row(self.fmap, s, a)
                rhs[n] += phi * min(max(r + v_next, lo), hi)
            for n in range(N):
                self.theta[h, n] = np.linalg.solve(self.lam[h, n], rhs[n])

    def score(self, h, s, a):
        phi, n = naive_row(self.fmap, s, a)
        quad = phi @ np.linalg.solve(self.lam[h, n], phi)
        return phi @ self.theta[h, n] + self.alpha[h, n] * math.sqrt(max(quad, 0.0))

    def act(self, h, s):
        best, best_score = 0, -math.inf
        for i, a in enumerate(self.actions):
            sc = self.score(h, s, a)
            if sc > best_score:
                best, best_score = i, sc
        return self.actions[best]


@pytest.mark.parametrize("horizon", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2])  # d = 1, 3, 6 features in two dimensions
def test_learner_matches_naive_reference(degree, horizon):
    rng = np.random.default_rng(1000 + 10 * degree + horizon)
    learner = _learner(degree, horizon)
    records = _feed(learner, rng)
    learner.k = 37
    learner.plan()
    ref = _Reference(learner, records, learner.k + 1)

    assert learner.d == (1, 3, 6)[degree]
    assert learner.counts[1:, 0].min() > REINVERT_EVERY
    np.testing.assert_array_equal(learner.counts, ref.counts)
    np.testing.assert_allclose(learner.lam_all[1:], ref.lam[1:], rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(learner.policy.alpha, ref.alpha, rtol=0, atol=1e-9)
    np.testing.assert_allclose(
        learner.policy.theta, ref.theta.transpose(0, 2, 1), rtol=0, atol=1e-9
    )
    for h in range(1, horizon + 1):
        for s in rng.uniform(-1.0, 1.0, size=(6, 1)):
            np.testing.assert_array_equal(learner.actions[learner.act(h, s)[2]], ref.act(h, s))


def _uncached_plan(learner, probe_states):
    """The policy's theta and greedy probe actions re-planned by the general rule, widths
    computed afresh.

    At degree 0 a history row keeps its next state's cell; the blocks of the
    cell's center are those of every state in the cell. Else its next state's
    blocks follow the probe's rows in the step's block.
    """

    def next_values(h, keys, p):
        if learner._cells:
            m = learner.partition.cells_per_axis
            blocks = learner._blocks(learner.partition.centers[keys[:p] * m, :1])
        else:
            rows = slice(keys.base, keys.base + p)
            blocks = keys.feats[:, rows], keys.regions[rows]
        return np.clip(learner._scores(h, *blocks), 0.0, 1.0).max(axis=1)

    cached = learner.policy
    learner.policy = copy.copy(cached)
    theta = learner.policy.theta = np.zeros_like(cached.theta)
    try:
        for h in range(learner.H, 0, -1):
            theta[h] = learner._refit(h, lambda keys, p: next_values(h + 1, keys, p)).T
        feats, regions = learner._blocks(probe_states)
        greedy = np.zeros((learner.H + 1, feats.shape[1]), dtype=np.int64)
        for h in range(1, learner.H + 1):
            greedy[h] = np.argmax(learner._scores(h, feats, regions), axis=1)
    finally:
        learner.policy = cached
    return theta, greedy


def _assert_same_state(learner, other):
    """The two learners' regressions and their policies' tables are equal."""
    for name in ("counts", "lam_all", "lam_inv_all"):
        np.testing.assert_array_equal(getattr(learner, name), getattr(other, name))
    for name in ("theta", "alpha", "lam_inv"):
        np.testing.assert_array_equal(getattr(learner.policy, name), getattr(other.policy, name))


def _assert_probe_picks(got, want):
    """The probe's greedy indices ``got`` equal ``want`` at steps 2..H, and rows 0 and 1
    are 0: the oracle values step 1 at the action played, not at the probe states."""
    assert not got[:2].any()
    np.testing.assert_array_equal(got[2:], want[2:])


# (hot, spread) visits per step before each plan. Region 0 ends round one
# below REINVERT_EVERY and crosses it in round two while the other regions
# stay unchanged, so only region 0's cached widths go stale and the rows
# appended since the last plan are new; the last plan sees no new data.
ROUNDS = [(REINVERT_EVERY - 12, 0), (20, 0), (0, 30), (0, 0)]


@pytest.mark.parametrize("horizon", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2])  # d = 1, 3, 6 features in two dimensions
def test_cached_widths_match_uncached_scores(degree, horizon):
    rng = np.random.default_rng(2000 + 10 * degree + horizon)
    probe_states = np.sort(rng.uniform(-1.0, 1.0, size=(23, 1)), axis=0)
    learner = _learner(degree, horizon, probe_states=probe_states)
    for i, (hot, spread) in enumerate(ROUNDS):
        before = learner.counts[1:, 0].copy()
        _feed(learner, rng, hot, spread)
        if i == 1:
            assert np.all(before < REINVERT_EVERY)
            assert np.all(learner.counts[1:, 0] >= REINVERT_EVERY)
        learner.k = 11 * i  # alpha changes between plans
        learner.plan()

        theta, greedy = _uncached_plan(learner, probe_states)
        np.testing.assert_array_equal(learner.policy.theta, theta)
        got = learner.policy.picks
        _assert_probe_picks(got, greedy)
        np.testing.assert_array_equal(learner.greedy_action_indices(), got)
        if learner._cells:
            continue  # degree-0 histories and probes keep cells, with no widths to cache
        for h in range(2, horizon + 1):  # the probe's rows, then the history's next states
            blocks = learner.history[h - 1].next
            rows = blocks.base + learner.history[h - 1].size
            assert blocks.fresh == rows
            feats, regions = blocks.feats[:, :rows], blocks.regions[:rows]
            np.testing.assert_array_equal(blocks.width[:rows], learner._width(h, feats, regions))


@pytest.mark.parametrize(
    "degree, horizon, epsilon, planner",
    [  # d = 1, 3, 6 features in two dimensions; exact-grid on one region, at its size limit
        pytest.param(0, 3, 0.5, "relaxation", id="0"),
        pytest.param(1, 3, 0.5, "relaxation", id="1"),
        pytest.param(2, 3, 0.5, "relaxation", id="2"),
        pytest.param(1, 2, 1.0, "exact-grid", id="exact-grid"),
    ],
)
def test_probe_greedy_indices_match_act(degree, horizon, epsilon, planner):
    """The probe's greedy indices of steps 2..H, whose value the harness measures, are the
    actions ``act`` plays there, from the keys ``act`` computes; under exact-grid, those
    of the table the search kept."""
    # Under exact-grid, a seed at which the search's last candidate picks otherwise than the
    # kept one at step 2, in both plans: at degree 1 a step-2 pick is an end of the grid.
    rng = np.random.default_rng(3000 + 10 * degree + 1 if planner == "relaxation" else 3032)
    states = np.sort(rng.uniform(-1.0, 1.0, size=(17, 1)), axis=0)
    learner = _learner(degree, horizon, epsilon, planner, probe_states=states)
    for i, s in enumerate(states):
        key = learner.act(2, s)[3]
        if learner._cells:
            assert learner._probe_cells[i] == key
            continue
        for blocks in [hist.next for hist in learner.history[1:horizon]]:  # steps 2..H
            np.testing.assert_array_equal(blocks.feats[:, i], key[0][:, 0])
            np.testing.assert_array_equal(blocks.regions[i], key[1][0])
    for (hot, spread), s1 in zip([(30, 10), (0, 20)], [states[5], np.zeros(1)]):
        _feed(learner, rng, hot, spread)
        learner.k += 7
        learner.plan(s1)
        greedy = learner.greedy_action_indices()
        _assert_probe_picks(learner.policy.picks, greedy)
        for h in range(2, learner.H + 1):
            for i, s in enumerate(states):
                assert learner.act(h, s)[2] == greedy[h, i]


@pytest.mark.parametrize(
    "horizon, epsilon, planner",
    [
        (1, 0.5, "relaxation"),
        (2, 0.5, "relaxation"),
        (3, 0.5, "relaxation"),
        (2, 1.0, "exact-grid"),
        (1, 1.0, "exact-grid"),
        (3, 1.0, "exact-grid"),
    ],
)
def test_region_scores_match_general_path(horizon, epsilon, planner):
    """At degree 0 the cell path gives the general path's floats and picks, bit for bit.

    Both learners absorb the same random rows, then each runs episodes of its
    own; the cell path's history keeps next cells where the general path keeps
    next-state blocks, and those must agree through the cell regions.
    """
    seed = 4000 + 10 * horizon + (planner == "exact-grid")
    rng = np.random.default_rng(seed)
    probe_states = np.sort(rng.uniform(-1.0, 1.0, size=(19, 1)), axis=0)
    cell = _learner(0, horizon, epsilon, planner, probe_states=probe_states)
    general = _learner(0, horizon, epsilon, planner, general_path=True, probe_states=probe_states)
    learners = (cell, general)
    assert cell._cells and not general._cells and cell.d == general.d == 1
    env = build_env(RunConfig(env_name="uniform_shift", horizon=horizon))
    for i, (hot, spread) in enumerate(ROUNDS):
        for learner in learners:
            _feed(learner, np.random.default_rng([seed, i]), hot, spread)
            learner.k = 11 * i + 3  # alpha changes between plans
        s1 = rng.uniform(-1.0, 1.0, size=1)
        for learner in learners:
            learner.plan(s1)

        _assert_same_state(cell, general)
        want = cell.policy.picks
        _assert_probe_picks(want, want)
        _assert_probe_picks(general.policy.picks, want)
        for s in rng.uniform(-1.0, 1.0, size=(5, 1)):
            assert cell.value_estimate(s) == general.value_estimate(s)
            for h in range(1, horizon + 1):
                (phi, region, index, _), want = cell.act(h, s), general.act(h, s)
                np.testing.assert_array_equal(phi, want[0])
                assert (region, index) == want[1:3]
        for z in rng.uniform(-1.0, 1.0, size=(5, 2)):
            for h in range(1, horizon + 1):
                assert clipped_q(cell, h, z) == clipped_q(general, h, z)

        s1 = rng.uniform(-1.0, 1.0, size=1)
        got, want = [
            learner.plan_and_act_episode(env, s1, make_rng(seed, i, 0, 1)) for learner in learners
        ]
        assert got[1] == want[1]
        for a, b in zip(got[0], want[0]):
            np.testing.assert_array_equal(a.action, b.action)
            assert a.reward_sample == b.reward_sample
        _assert_same_state(cell, general)
    assert cell.counts[1:, 0].min() > REINVERT_EVERY
    for a, b in zip(cell.history[1:], general.history[1:]):
        p = a.size
        assert p == b.size == sum(map(sum, ROUNDS)) + len(ROUNDS)  # fed rows, then episodes
        for name in ("feats", "rewards", "regions"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        if a.next is not None:  # the general path's next states follow the probe's rows
            rows = slice(b.next.base, b.next.base + p)
            np.testing.assert_array_equal(b.next.feats[:, rows], 1.0)
            np.testing.assert_array_equal(cell._cell_regions[a.next[:p]], b.next.regions[rows])


@pytest.mark.parametrize(
    "env_name, nu, horizon, epsilon, planner",
    [
        ("uniform_shift", 1.0, 2, 0.25, "relaxation"),  # degree 0, d = 1
        ("uniform_shift", 2.0, 3, 0.5, "relaxation"),  # d = 3
        ("smooth_drift", 3.0, 2, 0.5, "relaxation"),  # d = 6
        ("uniform_shift", 2.0, 2, 1.0, "exact-grid"),  # d = 3, N = 1
    ],
)
def test_episode_path_matches_public_path(env_name, nu, horizon, epsilon, planner):
    """The episode path's reused rollout keys give the floats of rows computed afresh."""
    cfg = RunConfig(
        env_name=env_name, episodes=40, horizon=horizon, nu=nu, epsilon=epsilon, planner=planner,
        oracle_m_state=9,  # probe states np.linspace(-1, 1, 9)
    )
    env = build_env(cfg)
    episode, public = build_learner(cfg, PROBE_STATES), build_learner(cfg, PROBE_STATES)
    assert episode.d == {1.0: 1, 2.0: 3, 3.0: 6}[nu]
    for k in range(1, cfg.episodes + 1):
        s1 = make_rng(7, k, 0, 0).uniform(-1.0, 1.0, 1)
        got, got_total = episode.plan_and_act_episode(env, s1, make_rng(7, k, 0, 1))
        public.plan(s1)
        want, want_total = run_episode(
            env, lambda h, s: public.actions[public.act(h, s)[2]], make_rng(7, k, 0, 1), s1=s1
        )
        for tr in want:
            row = naive_row(public.fmap, tr.state, tr.action)
            nxt = None if tr.next_state is None else public.act(tr.h + 1, tr.next_state)[3]
            public.observe_transition(tr.h, *row, tr.reward_sample, nxt)
        public.k += 1

        assert got_total == want_total and len(got) == len(want) == horizon
        for a, b in zip(got, want):
            assert (a.h, a.reward_sample) == (b.h, b.reward_sample)
            np.testing.assert_array_equal(a.state, b.state)
            np.testing.assert_array_equal(a.action, b.action)
            assert (a.next_state is None) == (b.next_state is None)
            if a.next_state is not None:
                np.testing.assert_array_equal(a.next_state, b.next_state)
        _assert_same_state(episode, public)
        np.testing.assert_array_equal(episode.policy.picks, public.policy.picks)
        assert episode.k == public.k == k
    for a, b in zip(episode.history, public.history):
        assert a.size == b.size
        for name in ("feats", "rewards", "regions"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert (a.next is None) == (b.next is None)
        if a.next is not None and episode._cells:
            np.testing.assert_array_equal(a.next, b.next)  # next cells
        elif a.next is not None:
            np.testing.assert_array_equal(a.next.feats, b.next.feats)
            np.testing.assert_array_equal(a.next.regions, b.next.regions)
    assert sum(hist.size for hist in episode.history) == horizon * cfg.episodes


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_refit_sums_rows_in_order_bit_for_bit(degree):
    """``_refit``'s per-(region, feature) sums add the history rows in row order, bit for bit."""
    learner = _learner(degree, 2)
    rng = np.random.default_rng(7000 + degree)
    _feed(learner, rng)
    for h in (1, 2):
        hist = learner.history[h]
        p = hist.size
        v_next = rng.uniform(-0.5, 1.5, p)  # with the rewards, past both target clips
        got = learner._refit(h, lambda keys, rows: v_next[:rows])
        targets = hist.rewards[:p] + (v_next if h < learner.H else 0.0)
        targets = np.clip(targets, learner.clip_lo, learner.clip_hi)
        bsum = np.zeros((learner.N, learner.d))
        for phi, region, target in zip(hist.feats[:p], hist.regions[:p], targets):
            bsum[region] += phi * target
        want = np.einsum("nde,ne->nd", learner.lam_inv_all[h], bsum)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("epsilon, points", [(0.5, 9), (0.4, 7)])  # 3 cells: inexact offsets
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_blocks_match_assign_regions_and_features_at_centers(degree, epsilon, points):
    """Separable blocks, cell by cell, are the general rule's floats bit for bit.

    States cover -1, every cell edge, 0, +1 and random points; both action
    grids put actions on action-cell edges too. With 3 cells per axis the
    offsets from cell centers are inexact, so the product order shows.
    """
    learner = _learner(degree, 1, epsilon, points=points)
    m = learner.partition.cells_per_axis
    rng = np.random.default_rng(5001 + 10 * degree)
    edges = -1.0 + 2.0 * np.arange(m + 1) / m
    states = np.concatenate([edges, [0.0, 1.0], rng.uniform(-1.0, 1.0, 400)])[:, None]
    feats, regions = learner._blocks(states)

    pairs = grid_pairs(states, learner.actions)
    want_regions = assign_regions(learner.partition, pairs)
    want = features_at_centers(learner.fmap, pairs, learner.partition.centers[want_regions])
    M = learner.actions.shape[0]
    assert feats.shape == (learner.d, len(states), M) and regions.shape == (len(states), M)
    np.testing.assert_array_equal(regions.reshape(-1), want_regions)
    # Compared as bits, so a zero of the other sign counts as a difference.
    rows = feats.reshape(learner.d, -1).T
    np.testing.assert_array_equal(rows.view(np.int64), want.view(np.int64))
    # One state of shape (1,), as act passes it: -1, every edge, 0, +1 and one random point.
    for i in range(m + 4):
        one, one_regions = learner._blocks(states[i])
        np.testing.assert_array_equal(one.view(np.int64), feats[:, i : i + 1].view(np.int64))
        np.testing.assert_array_equal(one_regions, regions[i : i + 1])
    with pytest.raises(ValueError, match="outside"):
        learner._blocks(np.array([np.nan]))


def _checked_block_scores(learner, moves):
    """Wrap ``learner._block_scores`` to hold every call to the uncached rule, bit for bit.

    Each call on blocks scored before records in ``moves`` whether the
    step's table moved, since that scoring, in no region, some or all.
    """
    cached = learner._block_scores

    def checked(h, blocks, rows):
        if blocks.fresh:
            moved = [
                not np.array_equal(a, b) for a, b in zip(learner.policy.theta[h].T, blocks.theta.T)
            ]
            moves.add("all" if all(moved) else "some" if any(moved) else "none")
        got = cached(h, blocks, rows)
        feats, regions = blocks.feats[:, :rows], blocks.regions[:rows]
        for name, fresh in [("mean", learner._mean), ("width", learner._width)]:
            np.testing.assert_array_equal(
                getattr(blocks, name)[:rows].view(np.int64),
                fresh(h, feats, regions).view(np.int64),
            )
        np.testing.assert_array_equal(got, learner._scores(h, feats, regions))
        return got

    return checked


@pytest.mark.parametrize(
    "degree, horizon, epsilon, planner, general_path",
    [
        (1, 2, 0.5, "relaxation", False),  # d = 3, N = 4: history and probe blocks
        (2, 3, 0.5, "relaxation", False),  # d = 6
        (1, 2, 1.0, "exact-grid", False),  # d = 3, N = 1: each candidate moves the one region
        (0, 2, 0.5, "relaxation", True),  # one feature off the cell path, N = 4
    ],
)
def test_cached_block_scores_match_uncached_scores(
    monkeypatch, degree, horizon, epsilon, planner, general_path
):
    """Cached means and widths give the uncached scores over plans moving the table anywhere.

    Rounds alternate: new rows everywhere and a new ``k`` (the table moves in
    every region), a plan of unchanged data (in none), and rows in region 0
    alone at the same ``k`` (in some, where there are several regions).
    """
    rng = np.random.default_rng(6000 + 10 * degree + horizon)
    probe_states = np.sort(rng.uniform(-1.0, 1.0, size=(13, 1)), axis=0)
    learner = _learner(degree, horizon, epsilon, planner, general_path, probe_states=probe_states)
    assert not learner._cells
    moves = set()
    monkeypatch.setattr(learner, "_block_scores", _checked_block_scores(learner, moves))
    s1 = rng.uniform(-1.0, 1.0, size=1)
    for hot, spread, k_step in [(0, 24, 5), (0, 0, 0), (8, 0, 0)] * 3:
        _feed(learner, rng, hot, spread)
        learner.k += k_step
        learner.plan(s1)
    assert moves == ({"all", "none"} if learner.N == 1 else {"all", "some", "none"})


@pytest.mark.parametrize("s1", [-1.0, 1.0, 0.25, 0.3], ids=["minus_one", "one", "grid", "off_grid"])
@pytest.mark.parametrize("horizon", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_played_step_1_is_the_planned_greedy_around_s1(monkeypatch, degree, horizon, s1):
    """The played policy is the planned table's, taken before the episode absorbs: its
    step-1 action is the greedy pick at s1, and its steps 2..H the picks at every probe
    state.

    The want is the uncached re-plan's greedy indices at the probe states and at s1,
    recorded right after each plan. The probe's grid holds 0.25, and -1 and +1 are its
    ends.
    """
    learner = _learner(degree, horizon)
    env = build_env(RunConfig(env_name="uniform_shift", horizon=horizon))
    plan, planned = learner.plan, []
    start = np.full(1, s1)

    def recording(state):
        plan(state)
        planned.append(_uncached_plan(learner, np.vstack([PROBE_STATES, start]))[1])

    monkeypatch.setattr(learner, "plan", recording)
    for k in range(1, 9):
        transitions, _ = learner.plan_and_act_episode(env, start, make_rng(8, k, 0, 1))
        want = planned[-1]
        _assert_probe_picks(learner.policy.picks, want[:, :-1])
        np.testing.assert_array_equal(transitions[0].action, learner.actions[want[1, -1]])
    assert len(planned) == 8


def _row_major_width(lam_inv, rows, regions):
    """The width rule on row-major blocks ``rows`` (..., d): each entry's Lambda^-1 gathered
    as (..., d, d), or the one (d, d) of a region index, then summed over d, then e."""
    quad = np.einsum("...d,...de,...e->...", rows, lam_inv.take(regions, 0), rows)
    return np.sqrt(np.maximum(quad, 0.0))


def _assert_bits(got, want):
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("degree", [0, 1, 2, 3])  # d = 1, 3, 6, 10 features in two dimensions
def test_feature_major_mean_and_width_match_references(degree):
    """``_width`` of feature-major blocks (d, n, M) is the row-major rule's, and ``_mean`` a
    loop adding ``f_d * theta_d`` in feature order, bit for bit; one region index gives the
    floats of the region array over the same entries."""
    learner = _learner(degree, 2, general_path=degree == 0)
    d, N = learner.d, learner.N
    assert d == (1, 3, 6, 10)[degree] and N == 4
    rng = np.random.default_rng(8000 + degree)
    root = rng.standard_normal((N, d, d))
    lam_inv = root @ root.transpose(0, 2, 1) / d
    theta = rng.standard_normal((N, d))
    learner.policy.lam_inv[2], learner.policy.theta[2] = lam_inv.transpose(1, 2, 0), theta.T
    feats = rng.uniform(-1.0, 1.0, size=(d, 17, 9))
    regions = rng.integers(0, N, size=(17, 9))
    rows = np.ascontiguousarray(np.moveaxis(feats, 0, -1))  # (17, 9, d)

    width = learner._width(2, feats, regions)
    _assert_bits(width, _row_major_width(lam_inv, rows, regions))
    mean = learner._mean(2, feats, regions)
    loop = np.zeros(regions.shape)
    for i in range(d):
        loop = loop + feats[i] * theta[regions, i]
    _assert_bits(mean, loop)

    for n in range(N):
        flat = np.flatnonzero(regions == n)
        one = feats.reshape(d, -1).take(flat, 1)  # feature-major, as _Blocks.refresh gathers
        _assert_bits(learner._width(2, one, n), width.reshape(-1)[flat])
        row_major = _row_major_width(lam_inv, rows.reshape(-1, d)[flat], n)
        _assert_bits(learner._width(2, one, n), row_major)
        _assert_bits(learner._mean(2, one, n), mean.reshape(-1)[flat])


@pytest.mark.parametrize("step", [2, 3])
@pytest.mark.parametrize("degree", [1, 2])  # d = 3, 6
def test_one_absorb_rescores_only_its_regions_widths(monkeypatch, degree, step):
    """After one step-h absorb in region r, the next plan computes the bonus width only at
    region r's entries of the step-h block, the probe's and the step-(h - 1) history's next
    states, in one call for the one region, and at the absorbed row's new next-state
    entries, once. The probe's greedy indices are still ``act``'s picks."""
    rng = np.random.default_rng(9000 + 10 * degree + step)
    states = np.sort(rng.uniform(-1.0, 1.0, size=(11, 1)), axis=0)
    learner = _learner(degree, 3, probe_states=states)
    _feed(learner, rng, 0, 12)
    learner.plan()
    phi, r = naive_row(learner.fmap, rng.uniform(-1.0, 1.0, 1), rng.uniform(-1.0, 1.0, 1))
    next_key = learner.act(step + 1, rng.uniform(-1.0, 1.0, 1))[3] if step < 3 else None
    learner.observe_transition(step, phi, r, 0.5, next_key)

    width, calls = learner._width, []

    def counting(h, feats, regions):
        calls.append((h, int(regions) if np.ndim(regions) == 0 else None, feats[0].size))
        return width(h, feats, regions)

    monkeypatch.setattr(learner, "_width", counting)
    learner.plan()
    monkeypatch.undo()
    blocks, p = learner.history[step - 1].next, learner.history[step - 1].size
    in_history = np.count_nonzero(blocks.regions[blocks.base : blocks.base + p] == r)
    in_probe = np.count_nonzero(blocks.regions[: blocks.base] == r)
    assert in_history and in_probe
    new_row = [(step + 1, None, learner.actions.shape[0])] if step < 3 else []
    assert calls == new_row + [(step, r, in_probe + in_history)]
    for h in (2, 3):
        for i, s in enumerate(states):
            assert learner.act(h, s)[2] == learner.policy.picks[h, i]


@pytest.mark.parametrize("horizon", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2])  # d = 1, 3, 6 features in two dimensions
def test_last_step_sums_match_a_re_sum_per_plan(degree, horizon):
    """After every plan, the step-H table is the re-sum of the whole step-H history, bit
    for bit: ``np.bincount`` of the features times the clipped rewards over the rows in
    order, then each region's ``Lambda^-1``. The rewards pass both clip bounds."""
    rng = np.random.default_rng(10000 + 10 * degree + horizon)
    learner = _learner(degree, horizon, clip_bounds=(-1.0, 1.0))
    N, d, hist = learner.N, learner.d, learner.history[horizon]
    for i, (hot, spread) in enumerate(ROUNDS):
        _feed(learner, rng, hot, spread)
        learner.k = 11 * i
        learner.plan()
        p = hist.size
        targets = np.clip(hist.rewards[:p], learner.clip_lo, learner.clip_hi)
        ids = (hist.regions[:p, None] * d + np.arange(d)).ravel()
        weights = (hist.feats[:p] * targets[:, None]).ravel()
        bsum = np.bincount(ids, weights, minlength=N * d).reshape(N, d)
        want = np.einsum("nde,ne->nd", learner.lam_inv_all[horizon], bsum)
        _assert_bits(learner.policy.theta[horizon], want.T)
    assert hist.rewards[:p].min() < learner.clip_lo and hist.rewards[:p].max() > learner.clip_hi


@pytest.mark.parametrize("horizon", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2])  # d = 1, 3, 6 features in two dimensions
def test_a_plan_scores_each_step_once(monkeypatch, degree, horizon):
    """A plan scores each step once, from H down: at degree >= 1 one ``_block_scores`` call
    per step h >= 2, on the probe's rows and the history's next states together, and at
    degree 0 one ``_cell_scores`` call per step. ``greedy_action_indices`` scores nothing."""
    rng = np.random.default_rng(11000 + 10 * degree + horizon)
    learner = _learner(degree, horizon)
    calls = []

    def counting(name):
        scores = getattr(learner, name)

        def wrapper(h, *args):
            calls.append((name, h))
            return scores(h, *args)

        return wrapper

    for name in ("_block_scores", "_cell_scores"):
        monkeypatch.setattr(learner, name, counting(name))
    if learner._cells:
        want = [("_cell_scores", h) for h in range(horizon, 0, -1)]
    else:
        want = [("_block_scores", h) for h in range(horizon, 1, -1)]
    for hot, spread in ROUNDS:
        _feed(learner, rng, hot, spread)
        calls.clear()
        learner.plan()
        learner.greedy_action_indices()
        assert calls == want


@pytest.mark.parametrize("horizon", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2])  # d = 1, 3, 6 features in two dimensions
def test_the_policy_stays_frozen_until_the_next_plan(degree, horizon):
    """Absorbing an episode's rows, with no plan between, changes no ``act`` pick at the probe
    states and no bit of the unclipped step-1 scores at s1; the next plan builds a new
    policy and leaves the one it replaces as it was."""
    rng = np.random.default_rng(12000 + 10 * degree + horizon)
    learner = _learner(degree, horizon)
    _feed(learner, rng, 0, 12)
    learner.k = 12
    s1 = np.array([0.3])
    learner.plan(s1)
    policy = learner.policy
    kept = {name: table.copy() for name, table in vars(policy).items()}

    def picks():
        return [[learner.act(h, s)[2] for s in PROBE_STATES] for h in range(1, horizon + 1)]

    want_picks, want_scores = picks(), learner._scores(1, *learner._blocks(s1))
    visits = []

    def play(h, state):
        visits.append(learner.act(h, state))
        return learner.actions[visits[-1][2]]

    env = build_env(RunConfig(env_name="uniform_shift", horizon=horizon))
    transitions, _ = run_episode(env, play, make_rng(12, 1, 0, 1), s1=s1)
    counts = learner.counts.copy()
    nexts = [visit[3] for visit in visits[1:]] + [None]
    for tr, (phi, region, _, _), nxt in zip(transitions, visits, nexts):
        learner.observe_transition(tr.h, phi, region, tr.reward_sample, nxt)
    assert (learner.counts - counts).sum() == horizon
    assert learner.policy is policy and picks() == want_picks
    _assert_bits(learner._scores(1, *learner._blocks(s1)), want_scores)

    learner.k += 1
    learner.plan(s1)
    assert learner.policy is not policy
    assert vars(policy).keys() == kept.keys()
    for name, want in kept.items():
        _assert_bits(getattr(policy, name), want)
