import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinderella.features import TaylorFeatureMap, enumerate_multi_indices
from cinderella.geometry import build_partition
from cinderella.learner import BonusSchedule, CinderellaLearner
from cinderella.regression import REINVERT_EVERY, mahalanobis_inv_norm, ridge_update


def _fresh(d, lam_reg=1.0):
    return np.eye(d) * lam_reg, np.eye(d) / lam_reg


def _absorb(lam, lam_inv, phis):
    for count, phi in enumerate(phis, start=1):
        ridge_update(lam, lam_inv, phi, count)


def _fresh_learner(degree, lam_reg):
    part = build_partition(2, 0.5)
    fmap = TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(2, degree))
    schedule = BonusSchedule(
        delta=0.1,
        lam_reg=lam_reg,
        l_phi=fmap.norm_bound,
        r_max=1.0,
        n_regions=part.n_regions,
        d_feat=fmap.dim_features,
        episodes=4,
        horizon=2,
    )
    return CinderellaLearner(part, fmap, schedule, state_dim=1)


def test_init_identity():
    learner = _fresh_learner(degree=1, lam_reg=1.0)
    assert learner.lam_all.shape == (3, 4, 3, 3)
    np.testing.assert_allclose(learner.lam_all, np.tile(np.eye(3), (3, 4, 1, 1)))
    np.testing.assert_allclose(learner.lam_inv_all, np.tile(np.eye(3), (3, 4, 1, 1)))
    assert np.all(learner.counts == 0)


def test_init_scalar_inverse():
    learner = _fresh_learner(degree=0, lam_reg=2.0)
    np.testing.assert_allclose(learner.lam_inv_all[1, 0], [[0.5]])


def test_init_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        _fresh_learner(degree=1, lam_reg=0.0)
    with pytest.raises(ValueError):
        _fresh_learner(degree=1, lam_reg=-1.0)


def test_rank_one_update_2x2():
    lam, lam_inv = _fresh(2)
    ridge_update(lam, lam_inv, np.array([1.0, 1.0]), 1)
    np.testing.assert_allclose(lam, [[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(lam_inv, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0)


def test_zero_feature_update_is_noop_except_count():
    lam, lam_inv = _fresh(3)
    ridge_update(lam, lam_inv, np.zeros(3), 1)
    np.testing.assert_allclose(lam, np.eye(3))
    np.testing.assert_allclose(lam_inv, np.eye(3))


def test_rejects_non_finite():
    lam, lam_inv = _fresh(2)
    with pytest.raises(ValueError):
        ridge_update(lam, lam_inv, np.array([np.nan, 0.0]), 1)
    with pytest.raises(ValueError):
        ridge_update(lam, lam_inv, np.array([1.0, float("inf")]), 1)
    np.testing.assert_array_equal(lam, np.eye(2))


def test_reinverts_exactly_on_schedule(rng):
    d = 3
    lam, lam_inv = _fresh(d)
    phis = rng.normal(size=(REINVERT_EVERY, d))
    _absorb(lam, lam_inv, phis[:-1])
    ridge_update(lam, lam_inv, phis[-1], REINVERT_EVERY)
    np.testing.assert_array_equal(lam_inv, np.linalg.inv(lam))


def test_theta_hat_fresh_state_is_zero():
    _, lam_inv = _fresh(4)
    assert np.all(lam_inv @ np.zeros(4) == 0.0)


def test_theta_hat_single_update():
    lam, lam_inv = _fresh(3)
    phi = np.array([1.0, 0.0, 0.0])
    ridge_update(lam, lam_inv, phi, 1)
    np.testing.assert_allclose(lam_inv @ (phi * 1.0), [0.5, 0.0, 0.0])


def test_theta_hat_recovers_noiseless_linear(rng):
    d = 4
    theta_true = rng.normal(size=d)
    theta_true /= np.linalg.norm(theta_true)
    lam, lam_inv = _fresh(d)
    phis = rng.uniform(-1, 1, size=(500, d))
    _absorb(lam, lam_inv, phis)
    theta = lam_inv @ (phis.T @ (phis @ theta_true))
    assert np.linalg.norm(theta - theta_true) <= 0.05


def test_mahalanobis_identity():
    _, lam_inv = _fresh(2)
    assert mahalanobis_inv_norm(lam_inv, np.array([3.0, 4.0])) == pytest.approx(5.0)
    assert mahalanobis_inv_norm(lam_inv, np.zeros(2)) == 0.0


def test_mahalanobis_diagonal():
    lam_inv = np.diag([0.25, 1.0])
    assert mahalanobis_inv_norm(lam_inv, np.array([2.0, 0.0])) == pytest.approx(1.0)


def test_incremental_inverse_matches_direct(rng):
    d = 10
    lam, lam_inv = _fresh(d)
    _absorb(lam, lam_inv, rng.normal(size=(1000, d)))
    direct = np.linalg.inv(lam)
    assert np.max(np.abs(lam_inv - direct)) <= 1e-8


def test_symmetry_preserved_many_updates(rng):
    lam, lam_inv = _fresh(6)
    _absorb(lam, lam_inv, rng.normal(size=(10_000, 6)))
    assert np.max(np.abs(lam - lam.T)) <= 1e-12


def test_monotone_bonus_shrinkage(rng):
    lam, lam_inv = _fresh(5)
    probe = rng.normal(size=5)
    prev = mahalanobis_inv_norm(lam_inv, probe)
    for count in range(1, 201):
        ridge_update(lam, lam_inv, rng.normal(size=5), count)
        cur = mahalanobis_inv_norm(lam_inv, probe)
        assert cur <= prev + 1e-12
        prev = cur


@given(st.lists(st.floats(-1, 1), min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_update_keeps_inverse_consistent(phi):
    lam, lam_inv = _fresh(2)
    ridge_update(lam, lam_inv, np.array(phi), 1)
    np.testing.assert_allclose(lam @ lam_inv, np.eye(2), atol=1e-10)
