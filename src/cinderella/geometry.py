"""Regular epsilon-cover partitions of the state-action cube [-1, 1]^d.

The cube is split into ``m = ceil(1/epsilon)`` equal boxes per axis, so every
point lies within infinity-distance ``1/m <= epsilon`` of its cell center.
Cell boundaries are resolved deterministically: a point on a boundary belongs
to the earliest cell in row-major enumeration order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Partition:
    """Regular grid cover of [-1, 1]^dim with cells of half-width 1/cells_per_axis.

    Immutable after construction; safe to share across threads.
    """

    dim: int
    epsilon: float
    cells_per_axis: int
    centers: np.ndarray = field(repr=False)  # (n_regions, dim), row-major order

    @property
    def n_regions(self) -> int:
        return self.centers.shape[0]

    @property
    def effective_radius(self) -> float:
        """Infinity-norm distance from any point to its assigned center."""
        return 1.0 / self.cells_per_axis

    def to_json(self) -> str:
        """Serialize the defining parameters; centers are recomputed on load."""
        return json.dumps(
            {"dim": self.dim, "epsilon": self.epsilon, "cells_per_axis": self.cells_per_axis}
        )

    @staticmethod
    def from_json(payload: str) -> "Partition":
        doc = json.loads(payload)
        part = build_partition(doc["dim"], doc["epsilon"])
        if part.cells_per_axis != doc["cells_per_axis"]:
            raise ValueError("serialized cells_per_axis inconsistent with epsilon")
        return part


def build_partition(dim: int, epsilon: float) -> Partition:
    """Build the regular grid cover of [-1, 1]^dim with radius epsilon.

    Per-axis center coordinates are -1 + (2i - 1)/m for i = 1..m with
    m = ceil(1/epsilon); centers are enumerated in row-major order (first
    axis slowest). The number of regions is m^dim <= (2/epsilon)^dim.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    # Guarded ceil: 1/epsilon can land a hair above an integer (e.g. 1/0.2).
    m = int(math.ceil(1.0 / epsilon - 1e-12))
    axis = -1.0 + (2.0 * np.arange(1, m + 1) - 1.0) / m
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    centers = np.stack([g.ravel() for g in grids], axis=-1)
    return Partition(dim=dim, epsilon=float(epsilon), cells_per_axis=m, centers=centers)


def assign_region(partition: Partition, z: np.ndarray) -> int:
    """Map a point of [-1, 1]^d to the index of its infinity-nearest center.

    Ties on cell boundaries go to the smallest row-major index, which matches
    assigning each point to the first covering cell in enumeration order.
    """
    return int(assign_regions(partition, np.asarray(z, dtype=float)[None, :])[0])


def assign_regions(partition: Partition, points: np.ndarray) -> np.ndarray:
    """Vectorized region assignment for an (n, dim) array of points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != partition.dim:
        raise ValueError(f"expected points of shape (n, {partition.dim}), got {pts.shape}")
    if np.any(np.abs(pts) > 1.0):
        raise ValueError("point outside [-1, 1]^d")
    m = partition.cells_per_axis
    # Cell j covers (-1 + 2j/m, -1 + 2(j+1)/m]; boundary points fall to cell j.
    axis_idx = np.ceil((pts + 1.0) * (m / 2.0)).astype(np.int64) - 1
    np.clip(axis_idx, 0, m - 1, out=axis_idx)
    flat = axis_idx[:, 0]
    for a in range(1, partition.dim):
        flat = flat * m + axis_idx[:, a]
    return flat


def auto_epsilon(episodes: int, dim: int, nu: float) -> float:
    """Cover radius balancing approximation bias against region count.

    Returns min(1, K^(-1/(2d + 2 nu))) for K episodes, dimension d and
    smoothness nu; larger radii add nothing over a single cell.
    """
    if episodes < 1:
        raise ValueError(f"episode count must be >= 1, got {episodes}")
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if nu <= 0:
        raise ValueError(f"smoothness must be positive, got {nu}")
    return min(1.0, float(episodes) ** (-1.0 / (2.0 * dim + 2.0 * nu)))
