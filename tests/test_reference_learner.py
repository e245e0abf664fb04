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
absorbs its transitions.
"""

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


def _learner(
    degree, horizon, epsilon=0.5, planner="relaxation", general_path=False, dim=2, points=9
):
    """A learner on a ``dim``-d partition with ``points`` grid actions per axis.

    ``general_path`` keeps a degree-0 learner off the cell path. The cell
    path is chosen when the learner is built, from the index set's degree;
    with that label cleared the same one constant feature runs through the
    general blocks, history and scoring rule.
    """
    part = build_partition(dim, epsilon)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(dim, degree))
    if general_path:
        fmap = dataclasses.replace(fmap, index_set=dataclasses.replace(fmap.index_set, degree=None))
    schedule = BonusSchedule(
        delta=0.1,
        lam_reg=1.0,
        l_phi=fmap.norm_bound,
        r_max=1.0,
        n_regions=part.n_regions,
        d_feat=fmap.dim_features,
        episodes=HOT_VISITS + SPREAD_VISITS,  # history rows per step that _feed writes
        horizon=horizon,
        inherent_bound=0.01,
        bonus_scale=0.3,
    )
    return CinderellaLearner(fmap, schedule, action_points_per_axis=points, planner=planner)


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
                    beta_radius(sch, k)
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
    np.testing.assert_allclose(learner.alpha_all, ref.alpha, rtol=0, atol=1e-9)
    np.testing.assert_allclose(learner.theta_all, ref.theta, rtol=0, atol=1e-9)
    for h in range(1, horizon + 1):
        for s in rng.uniform(-1.0, 1.0, size=(6, 1)):
            np.testing.assert_array_equal(learner.actions[learner.act(h, s)[2]], ref.act(h, s))


def _uncached_plan(learner, probe_states):
    """theta_all and greedy probe actions re-planned by the general rule, widths computed afresh.

    At degree 0 a history row keeps its next state's cell; the blocks of the
    cell's center are those of every state in the cell.
    """

    def next_values(h, keys, p):
        if learner._cells:
            m = learner.partition.cells_per_axis
            blocks = learner._blocks(learner.partition.centers[keys[:p] * m, :1])
        else:
            blocks = keys.feats[:p], keys.regions[:p]
        return np.clip(learner._scores(h, *blocks), 0.0, 1.0).max(axis=1)

    cached = learner.theta_all
    theta = learner.theta_all = np.zeros_like(cached)
    try:
        for h in range(learner.H, 0, -1):
            theta[h] = learner._refit(h, lambda keys, p: next_values(h + 1, keys, p))
        feats, regions = learner._blocks(probe_states)
        greedy = np.zeros((learner.H + 1, feats.shape[0]), dtype=np.int64)
        for h in range(1, learner.H + 1):
            greedy[h] = np.argmax(learner._scores(h, feats, regions), axis=1)
    finally:
        learner.theta_all = cached
    return theta, greedy


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
    learner = _learner(degree, horizon)
    probe_states = np.sort(rng.uniform(-1.0, 1.0, size=(23, 1)), axis=0)
    learner.register_probe(probe_states)
    for i, (hot, spread) in enumerate(ROUNDS):
        before = learner.counts[1:, 0].copy()
        _feed(learner, rng, hot, spread)
        if i == 1:
            assert np.all(before < REINVERT_EVERY)
            assert np.all(learner.counts[1:, 0] >= REINVERT_EVERY)
        learner.k = 11 * i  # alpha changes between plans
        learner.plan()

        theta, greedy = _uncached_plan(learner, probe_states)
        np.testing.assert_array_equal(learner.theta_all, theta)
        got = learner.last_policy_actions
        _assert_probe_picks(got, greedy)
        np.testing.assert_array_equal(learner.greedy_action_indices(), got)
        if learner._cells:
            continue  # degree-0 histories and probes keep cells, with no widths to cache
        for h in range(2, horizon + 1):
            probe = learner._probe[h]
            np.testing.assert_array_equal(
                probe.width, learner._width(h, probe.feats, probe.regions)
            )
        for h in range(1, horizon):
            nxt, p = learner.history[h].next, learner.history[h].size
            assert nxt.fresh == p
            np.testing.assert_array_equal(
                nxt.width[:p], learner._width(h + 1, nxt.feats[:p], nxt.regions[:p])
            )


@pytest.mark.parametrize("degree", [0, 1, 2])  # d = 1, 3, 6 features in two dimensions
def test_probe_greedy_indices_match_act(degree):
    """The probe's greedy indices of steps 2..H, whose value the harness measures, are the
    actions ``act`` plays there, from the keys ``act`` computes."""
    rng = np.random.default_rng(3000 + 10 * degree + 1)
    learner = _learner(degree, 3)
    states = np.sort(rng.uniform(-1.0, 1.0, size=(17, 1)), axis=0)
    learner.register_probe(states)
    for i, s in enumerate(states):
        key = learner.act(2, s)[3]
        if learner._cells:
            assert learner._probe[i] == key
        else:
            np.testing.assert_array_equal(learner._probe[2].feats[i], key[0][0])
            np.testing.assert_array_equal(learner._probe[2].regions[i], key[1][0])
    for (hot, spread), s1 in zip([(30, 10), (0, 20)], [states[5], np.zeros(1)]):
        _feed(learner, rng, hot, spread)
        learner.k += 7
        learner.plan(s1)
        greedy = learner.greedy_action_indices()
        _assert_probe_picks(learner.last_policy_actions, greedy)
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
    cell = _learner(0, horizon, epsilon, planner)
    general = _learner(0, horizon, epsilon, planner, general_path=True)
    learners = (cell, general)
    assert cell._cells and not general._cells and cell.d == general.d == 1
    env = build_env(RunConfig(env_name="uniform_shift", horizon=horizon))
    rng = np.random.default_rng(seed)
    probe_states = np.sort(rng.uniform(-1.0, 1.0, size=(19, 1)), axis=0)
    for learner in learners:
        learner.register_probe(probe_states)
    for i, (hot, spread) in enumerate(ROUNDS):
        for learner in learners:
            _feed(learner, np.random.default_rng([seed, i]), hot, spread)
            learner.k = 11 * i + 3  # alpha changes between plans
        s1 = rng.uniform(-1.0, 1.0, size=1)
        for learner in learners:
            learner.plan(s1)

        for name in ("counts", "lam_all", "lam_inv_all", "theta_all", "alpha_all"):
            np.testing.assert_array_equal(getattr(cell, name), getattr(general, name))
        want = cell.last_policy_actions
        _assert_probe_picks(want, want)
        _assert_probe_picks(general.last_policy_actions, want)
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
        for name in ("counts", "lam_all", "lam_inv_all", "theta_all", "alpha_all"):
            np.testing.assert_array_equal(getattr(cell, name), getattr(general, name))
    assert cell.counts[1:, 0].min() > REINVERT_EVERY
    for a, b in zip(cell.history[1:], general.history[1:]):
        p = a.size
        assert p == b.size == sum(map(sum, ROUNDS)) + len(ROUNDS)  # fed rows, then episodes
        for name in ("feats", "rewards", "regions"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        if a.next is not None:
            np.testing.assert_array_equal(b.next.feats[:p], 1.0)
            np.testing.assert_array_equal(cell._cell_regions[a.next[:p]], b.next.regions[:p])


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
        env_name=env_name, episodes=40, horizon=horizon, nu=nu, epsilon=epsilon, planner=planner
    )
    env = build_env(cfg)
    episode, public = build_learner(cfg), build_learner(cfg)
    assert episode.d == {1.0: 1, 2.0: 3, 3.0: 6}[nu]
    for learner in (episode, public):
        learner.register_probe(np.linspace(-1.0, 1.0, 9)[:, None])
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
        for name in ("lam_all", "lam_inv_all", "counts", "theta_all", "alpha_all"):
            np.testing.assert_array_equal(getattr(episode, name), getattr(public, name))
        np.testing.assert_array_equal(episode.last_policy_actions, public.last_policy_actions)
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
@pytest.mark.parametrize("action_dim", [1])  # two factors per monomial
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_blocks_match_assign_regions_and_features_at_centers(degree, action_dim, epsilon, points):
    """Separable blocks, cell by cell, are the general rule's floats bit for bit.

    States cover -1, every cell edge, 0, +1 and random points; both action
    grids put actions on action-cell edges too. With 3 cells per axis the
    offsets from cell centers are inexact, so the product order shows.
    """
    learner = _learner(degree, 1, epsilon, dim=1 + action_dim, points=points)
    m = learner.partition.cells_per_axis
    rng = np.random.default_rng(5000 + 10 * degree + action_dim)
    edges = -1.0 + 2.0 * np.arange(m + 1) / m
    states = np.concatenate([edges, [0.0, 1.0], rng.uniform(-1.0, 1.0, 400)])[:, None]
    feats, regions = learner._blocks(states)

    pairs = grid_pairs(states, learner.actions)
    want_regions = assign_regions(learner.partition, pairs)
    want = features_at_centers(learner.fmap, pairs, learner.partition.centers[want_regions])
    M = learner.actions.shape[0]
    assert feats.shape == (len(states), M, learner.d) and regions.shape == (len(states), M)
    np.testing.assert_array_equal(regions.reshape(-1), want_regions)
    # Compared as bits, so a zero of the other sign counts as a difference.
    np.testing.assert_array_equal(feats.reshape(want.shape).view(np.int64), want.view(np.int64))
    # One state of shape (1,), as act passes it: -1, every edge, 0, +1 and one random point.
    for i in range(m + 4):
        one, one_regions = learner._blocks(states[i])
        np.testing.assert_array_equal(one.view(np.int64), feats[i : i + 1].view(np.int64))
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
            moved = [not np.array_equal(a, b) for a, b in zip(learner.theta_all[h], blocks.theta)]
            moves.add("all" if all(moved) else "some" if any(moved) else "none")
        got = cached(h, blocks, rows)
        feats, regions = blocks.feats[:rows], blocks.regions[:rows]
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
    learner = _learner(degree, horizon, epsilon, planner, general_path)
    assert not learner._cells
    rng = np.random.default_rng(6000 + 10 * degree + horizon)
    learner.register_probe(np.sort(rng.uniform(-1.0, 1.0, size=(13, 1)), axis=0))
    moves = set()
    monkeypatch.setattr(learner, "_block_scores", _checked_block_scores(learner, moves))
    s1 = rng.uniform(-1.0, 1.0, size=1)
    for hot, spread, k_step in [(0, 24, 5), (0, 0, 0), (8, 0, 0)] * 3:
        _feed(learner, rng, hot, spread)
        learner.k += k_step
        learner.plan(s1)
    assert moves == ({"all", "none"} if learner.N == 1 else {"all", "some", "none"})


PROBE_STATES = np.linspace(-1.0, 1.0, 9)[:, None]


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
    learner.register_probe(PROBE_STATES)
    plan, planned = learner.plan, []
    start = np.full(1, s1)

    def recording(state):
        plan(state)
        planned.append(_uncached_plan(learner, np.vstack([PROBE_STATES, start]))[1])

    monkeypatch.setattr(learner, "plan", recording)
    for k in range(1, 9):
        transitions, _ = learner.plan_and_act_episode(env, start, make_rng(8, k, 0, 1))
        want = planned[-1]
        _assert_probe_picks(learner.last_policy_actions, want[:, :-1])
        np.testing.assert_array_equal(transitions[0].action, learner.actions[want[1, -1]])
    assert len(planned) == 8
