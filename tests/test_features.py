import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinderella.features import (
    TaylorFeatureMap,
    enumerate_multi_indices,
    extend_features,
    feature_matrix,
    nu_star,
    taylor_features,
    taylor_remainder_check,
)
from cinderella.geometry import assign_regions, build_partition
from conftest import sin2x, sin2x_derivative


def test_multi_index_order_d2_deg2():
    idx = enumerate_multi_indices(2, 2)
    assert idx.size == 6
    assert [tuple(map(int, row)) for row in idx.indices] == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]


def test_multi_index_degree_zero():
    idx = enumerate_multi_indices(3, 0)
    assert idx.size == 1
    assert tuple(idx.indices[0]) == (0, 0, 0)


def test_multi_index_univariate():
    assert enumerate_multi_indices(1, 4).size == 5


@given(dim=st.integers(1, 4), degree=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_multi_index_count_is_binomial(dim, degree):
    idx = enumerate_multi_indices(dim, degree)
    assert idx.size == math.comb(degree + dim, degree)
    # duplicate-free and degree-bounded
    seen = {tuple(map(int, row)) for row in idx.indices}
    assert len(seen) == idx.size
    assert all(sum(t) <= degree for t in seen)


def test_multi_index_order_matches_sorted_product():
    """The vectorized enumeration against the plain loop: the product, filtered and sorted."""
    for dim in range(1, 5):
        for degree in range(7):
            want = sorted(
                (t for t in itertools.product(range(degree + 1), repeat=dim) if sum(t) <= degree),
                key=lambda t: (sum(t), tuple(-x for x in t)),
            )
            got = enumerate_multi_indices(dim, degree).indices
            assert got.dtype == np.int64
            assert [tuple(map(int, row)) for row in got] == want


def test_nu_star():
    assert nu_star(1.0) == 0
    assert nu_star(2.5) == 2
    assert nu_star(3.0) == 2
    with pytest.raises(ValueError):
        nu_star(0.0)


def _fmap(dim, eps, degree):
    part = build_partition(dim, eps)
    return TaylorFeatureMap(partition=part, index_set=enumerate_multi_indices(dim, degree))


def test_features_at_center_are_unit_vector():
    fmap = _fmap(2, 0.5, 2)
    center = fmap.partition.centers[2]
    phi = taylor_features(fmap, center)
    expected = np.zeros(fmap.dim_features)
    expected[0] = 1.0
    np.testing.assert_allclose(phi, expected)


def test_features_monomials_1d():
    fmap = _fmap(1, 1.0, 2)
    phi = taylor_features(fmap, np.array([0.5]))  # center is 0
    np.testing.assert_allclose(phi, [1.0, 0.5, 0.25])


def test_features_monomials_2d():
    fmap = _fmap(2, 1.0, 1)
    phi = taylor_features(fmap, np.array([0.1, 0.2]))
    np.testing.assert_allclose(phi, [1.0, 0.1, 0.2])


def test_feature_norm_bound(rng):
    fmap = _fmap(2, 0.5, 3)
    pts = rng.uniform(-1, 1, size=(10_000, 2))
    norms = np.linalg.norm(feature_matrix(fmap, pts), axis=1)
    assert norms.max() <= 1.0 + 2.0 * math.sqrt(fmap.dim_features)


def test_extend_features_single_block():
    fmap = _fmap(2, 1.0, 1)
    z = np.array([0.3, -0.4])
    np.testing.assert_allclose(extend_features(fmap, z), taylor_features(fmap, z))


def test_extend_features_block_placement():
    fmap = _fmap(1, 0.5, 1)
    z = np.array([0.7])  # region 1
    ext = extend_features(fmap, z)
    k = fmap.dim_features
    np.testing.assert_allclose(ext[:k], 0.0)
    np.testing.assert_allclose(ext[k:], taylor_features(fmap, z))


def test_extension_dot_product_equivalence(rng):
    fmap = _fmap(2, 0.5, 2)
    n_regions = fmap.partition.n_regions
    theta = rng.normal(size=(n_regions, fmap.dim_features))
    stacked = theta.ravel()
    for _ in range(2000):
        z = rng.uniform(-1, 1, size=2)
        lhs = extend_features(fmap, z) @ stacked
        rhs = taylor_features(fmap, z) @ theta[assign_regions(fmap.partition, z[None, :])[0]]
        assert abs(lhs - rhs) <= 1e-12


def test_taylor_remainder_bound_for_sin():
    err = taylor_remainder_check(sin2x, sin2x_derivative, nu=3.0, epsilon=0.25, lipschitz=8.0)
    assert err <= 8.0 * 0.25**3
