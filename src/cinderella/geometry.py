"""Regular epsilon-cover partitions of the state-action cube [-1, 1]^d.

The cube is split into ``m = ceil(1/epsilon)`` equal boxes per axis, so every
point lies within infinity-distance ``1/m <= epsilon`` of its cell center.
Cell boundaries are resolved deterministically: a point on a boundary belongs
to the earliest cell in row-major enumeration order.
"""

from __future__ import annotations

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
    centers.flags.writeable = False
    return Partition(dim=dim, epsilon=float(epsilon), cells_per_axis=m, centers=centers)


def axis_cells(coords: np.ndarray, m: int) -> np.ndarray:
    """Cell index along one axis of each coordinate, for ``m`` cells per axis.

    Cell j covers (-1 + 2j/m, -1 + 2(j+1)/m]; boundary points fall to cell j,
    and -1 to cell 0. Every axis of ``assign_regions`` uses this rule.
    """
    coords = np.asarray(coords, dtype=float)
    if not (np.abs(coords) <= 1.0).all():  # also catches NaN
        raise ValueError("point outside [-1, 1]^d")
    idx = np.ceil((coords + 1.0) * (m / 2.0)).astype(np.int64) - 1
    # Clamps as np.clip does; np.clip's Python wrapper costs more than this on one state.
    return np.minimum(np.maximum(idx, 0, out=idx), m - 1, out=idx)


def axis_cell(coord: float, m: int) -> int:
    """``axis_cells`` of one coordinate: the same rule, clamp and error, in Python floats.

    Python floats are numpy's float64, so the cell is the same; ``axis_cells``
    makes about eight numpy calls for one coordinate, several times this cost.
    """
    if not abs(coord) <= 1.0:  # also catches NaN
        raise ValueError("point outside [-1, 1]^d")
    return min(max(math.ceil((coord + 1.0) * (m / 2.0)) - 1, 0), m - 1)


def assign_regions(partition: Partition, points: np.ndarray) -> np.ndarray:
    """Index of the infinity-nearest center of each row of an (n, dim) array of points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != partition.dim:
        raise ValueError(f"expected points of shape (n, {partition.dim}), got {pts.shape}")
    m = partition.cells_per_axis
    axis_idx = axis_cells(pts, m)
    flat = axis_idx[:, 0]
    for a in range(1, partition.dim):
        flat = flat * m + axis_idx[:, a]
    return flat


def grid_pairs(states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Every (state, action) pair, (n_s * n_a, d_S + d_A): states slowest, actions fastest.

    Row ``i * n_a + j`` pairs ``states[i]`` with ``actions[j]``, so per-pair
    values reshape to (n_s, n_a) tables indexed by state, then action.
    """
    n_s, n_a = states.shape[0], actions.shape[0]
    return np.concatenate([np.repeat(states, n_a, axis=0), np.tile(actions, (n_s, 1))], axis=1)


def uniform_grid(points_per_axis: int, dim: int) -> np.ndarray:
    """Uniform grid over [-1, 1]^dim, row-major (first axis slowest): (m^dim, dim)."""
    axis = np.linspace(-1.0, 1.0, points_per_axis)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


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
