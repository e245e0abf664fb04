"""Piecewise Taylor feature maps over a cell partition.

A feature vector collects the monomials ``(z - c)^alpha`` for all multi-indices
``alpha`` with total degree at most ``degree``, where ``c`` is the center of
the cell containing ``z``. Q-functions that are linear in these features are
exactly the per-cell Taylor polynomials of that degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import MAX_HELD_ENTRIES, Partition, assign_regions, build_partition, uniform_grid


def nu_star(nu: float) -> int:
    """Polynomial degree matched to smoothness ``nu``: ceil(nu - 1)."""
    if nu <= 0:
        raise ValueError(f"smoothness must be positive, got {nu}")
    return int(math.ceil(nu - 1.0))


@dataclass(frozen=True)
class MultiIndexSet:
    """All d-tuples of nonnegative integers with coordinate sum <= degree.

    Ordered by total degree, then descending lexicographically within a
    degree, so the zero index (constant monomial) always comes first.
    """

    dim: int
    degree: int
    indices: np.ndarray = field(repr=False)  # (size, dim) int array

    @property
    def size(self) -> int:
        return self.indices.shape[0]


def enumerate_multi_indices(dim: int, degree: int) -> MultiIndexSet:
    """Enumerate multi-indices of dimension ``dim`` and total degree <= ``degree``.

    The count is binomial(degree + dim, degree).
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if (degree + 1) ** dim * (dim + 2) > MAX_HELD_ENTRIES:  # the box below, with its sums
        raise ValueError(f"too many multi-indices at dim={dim}, degree={degree}")
    box = np.indices((degree + 1,) * dim, dtype=np.int64).reshape(dim, -1).T
    kept = box[box.sum(axis=1) <= degree]
    order = np.lexsort((*(-kept.T[::-1]), kept.sum(axis=1)))  # last key first
    return MultiIndexSet(dim=dim, degree=degree, indices=kept[order])


@dataclass(frozen=True)
class TaylorFeatureMap:
    """Per-cell monomial features (z - center)^alpha on a partition."""

    partition: Partition
    index_set: MultiIndexSet

    def __post_init__(self):
        if self.index_set.dim != self.partition.dim:
            raise ValueError("multi-index dimension does not match partition dimension")

    @property
    def dim_features(self) -> int:
        return self.index_set.size

    @property
    def norm_bound(self) -> float:
        """Certified bound on the feature 2-norm."""
        return 1.0 + 2.0 * math.sqrt(self.index_set.size)


def taylor_features(fmap: TaylorFeatureMap, z: np.ndarray) -> np.ndarray:
    """Feature vector of a single point; component alpha is (z - c)^alpha."""
    return feature_matrix(fmap, np.asarray(z, dtype=float)[None, :])[0]


def feature_matrix(fmap: TaylorFeatureMap, points: np.ndarray) -> np.ndarray:
    """Vectorized features for an (n, d) array of points -> (n, dim_features)."""
    pts = np.asarray(points, dtype=float)
    regions = assign_regions(fmap.partition, pts)
    return features_at_centers(fmap, pts, fmap.partition.centers[regions])


def features_at_centers(
    fmap: TaylorFeatureMap, points: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Monomials of (points - centers); callers supply matching centers."""
    diffs = np.asarray(points, dtype=float) - centers
    # (n, 1, d) ** (1, k, d) -> product over d gives the k monomials per point.
    powers = diffs[:, None, :] ** fmap.index_set.indices[None, :, :]
    return np.prod(powers, axis=-1)


def extend_features(fmap: TaylorFeatureMap, z: np.ndarray) -> np.ndarray:
    """Block feature vector of length n_regions * dim_features.

    Block rho(z) holds taylor_features(z); all other blocks are zero, so a dot
    product with stacked per-region parameters equals the per-cell evaluation.
    """
    z = np.asarray(z, dtype=float)
    region = int(assign_regions(fmap.partition, z[None, :])[0])
    k = fmap.dim_features
    out = np.zeros(fmap.partition.n_regions * k)
    out[region * k : (region + 1) * k] = taylor_features(fmap, z)
    return out


def taylor_remainder_check(
    f, derivative, nu: float, epsilon: float, lipschitz: float | None = None
) -> float:
    """Max gap between ``f`` and its per-cell Taylor fit of degree ceil(nu - 1), on 4001 points.

    ``f`` maps an (n, d) array to values; ``derivative(alpha, center)`` returns
    the mixed partial D^alpha f at a point. With ``lipschitz`` given, asserts
    the measured error stays below lipschitz * epsilon^nu.
    """
    part, idx = build_partition(1, epsilon), enumerate_multi_indices(1, nu_star(nu))
    fmap = TaylorFeatureMap(partition=part, index_set=idx)
    factorials = np.array(
        [np.prod([math.factorial(int(a)) for a in alpha]) for alpha in idx.indices]
    )
    thetas = np.zeros((part.n_regions, idx.size))
    for n, c in enumerate(part.centers):
        thetas[n] = np.array([derivative(tuple(alpha), c) for alpha in idx.indices]) / factorials
    pts = uniform_grid(4001, 1)
    regions = assign_regions(part, pts)
    feats = features_at_centers(fmap, pts, part.centers[regions])
    fit = np.einsum("zf,zf->z", feats, thetas[regions])
    err = float(np.max(np.abs(np.asarray(f(pts), dtype=float) - fit)))
    if lipschitz is not None:
        bound = lipschitz * epsilon**nu
        if err > bound:
            raise AssertionError(f"Taylor remainder {err:.6g} exceeds bound {bound:.6g}")
    return err
