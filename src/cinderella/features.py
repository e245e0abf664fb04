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

from .geometry import MAX_HELD_ENTRIES, Partition, assign_regions


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
