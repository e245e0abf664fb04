import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinderella.geometry import (
    assign_regions,
    auto_epsilon,
    axis_cell,
    axis_cells,
    build_partition,
    grid_pairs,
)


def test_build_partition_half_radius():
    part = build_partition(1, 0.5)
    assert part.cells_per_axis == 2
    np.testing.assert_allclose(part.centers.ravel(), [-0.5, 0.5])
    assert part.n_regions == 2


def test_build_partition_single_cell_2d():
    part = build_partition(2, 1.0)
    assert part.n_regions == 1
    np.testing.assert_allclose(part.centers, [[0.0, 0.0]])


def test_build_partition_fractional_radius():
    part = build_partition(1, 0.4)
    assert part.cells_per_axis == 3
    np.testing.assert_allclose(part.centers.ravel(), [-2 / 3, 0.0, 2 / 3])
    assert part.n_regions == 3
    assert part.n_regions <= (2 / 0.4) ** 1


@pytest.mark.parametrize("eps,m", [(0.2, 5), (1 / 3, 3), (0.25, 4), (1.0, 1)])
def test_cells_per_axis_float_safe(eps, m):
    assert build_partition(1, eps).cells_per_axis == m


def test_assign_nearest_center():
    part = build_partition(1, 0.5)
    assert assign_regions(part, np.array([[0.2]]))[0] == 1


def test_assign_boundary_tie_goes_to_earlier_cell():
    part = build_partition(1, 0.5)
    assert assign_regions(part, np.array([[0.0]]))[0] == 0


def test_assign_single_region():
    part = build_partition(2, 1.0)
    for z in ([0.0, 0.0], [1.0, -1.0], [-0.3, 0.7]):
        assert assign_regions(part, np.array([z]))[0] == 0


def test_assign_matches_bruteforce_nearest(rng):
    part = build_partition(2, 0.25)
    pts = rng.uniform(-1, 1, size=(500, 2))
    got = assign_regions(part, pts)
    dists = np.max(np.abs(pts[:, None, :] - part.centers[None, :, :]), axis=2)
    want = np.argmin(dists, axis=1)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("eps", [1.0, 0.5, 0.25])
def test_cover_radius_and_region_count(dim, eps, rng):
    part = build_partition(dim, eps)
    assert part.n_regions == part.cells_per_axis**dim
    assert part.n_regions <= (2.0 / eps) ** dim + 1e-9
    pts = rng.uniform(-1, 1, size=(2000, dim))
    idx = assign_regions(part, pts)
    dist = np.max(np.abs(pts - part.centers[idx]), axis=1)
    assert np.all(dist <= part.effective_radius + 1e-12)
    assert np.all(dist <= eps + 1e-12)


def test_assignment_deterministic(rng):
    part = build_partition(3, 0.5)
    pts = rng.uniform(-1, 1, size=(1000, 3))
    a = assign_regions(part, pts)
    b = assign_regions(part, pts)
    np.testing.assert_array_equal(a, b)


@given(
    dim=st.integers(1, 3),
    eps=st.floats(0.05, 1.0),
    coords=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_every_point_lands_in_exactly_one_cell(dim, eps, coords):
    part = build_partition(dim, eps)
    z = np.array(coords[:dim])
    idx = assign_regions(part, z[None, :])[0]
    assert 0 <= idx < part.n_regions
    assert np.max(np.abs(z - part.centers[idx])) <= eps + 1e-12


def test_auto_epsilon_values():
    assert auto_epsilon(4096, 1, 1) == pytest.approx(0.125)
    assert auto_epsilon(1, 3, 2.0) == 1.0
    assert auto_epsilon(65536, 2, 2) == pytest.approx(0.25)


def test_auto_epsilon_rejects_bad_nu():
    with pytest.raises(ValueError):
        auto_epsilon(10, 1, 0.0)
    with pytest.raises(ValueError):
        auto_epsilon(10, 1, -1.0)


def test_build_partition_validation():
    with pytest.raises(ValueError):
        build_partition(0, 0.5)
    with pytest.raises(ValueError):
        build_partition(1, 0.0)
    with pytest.raises(ValueError):
        build_partition(1, 1.5)


def test_assign_rejects_out_of_domain():
    part = build_partition(2, 0.5)
    with pytest.raises(ValueError):
        assign_regions(part, np.array([[1.2, 0.0]]))
    with pytest.raises(ValueError, match="outside"):
        assign_regions(part, np.array([[np.nan, 0.0]]))


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.4, 0.25, 0.2])
def test_axis_cells_are_assign_regions_in_one_dimension(eps):
    """-1, every cell boundary -1 + 2j/m and +1 get the cell of a 1-d partition."""
    part = build_partition(1, eps)
    m = part.cells_per_axis
    coords = np.concatenate([[-1.0], -1.0 + 2.0 * np.arange(1, m) / m, [1.0]])
    cells = axis_cells(coords, m)
    np.testing.assert_array_equal(cells, assign_regions(part, coords[:, None]))
    assert [axis_cell(float(x), m) for x in coords] == cells.tolist()  # one coordinate
    # The boundary between cells j and j + 1 falls to cell j.
    np.testing.assert_array_equal(cells, [0, *range(m - 1), m - 1])


@pytest.mark.parametrize("coord", [np.nan, 1.0 + 1e-9, -1.5, np.inf])
def test_axis_cells_reject_what_assign_regions_rejects(coord):
    with pytest.raises(ValueError, match=r"point outside \[-1, 1\]\^d"):
        axis_cells(np.array([0.0, coord]), 4)
    with pytest.raises(ValueError, match=r"point outside \[-1, 1\]\^d"):
        axis_cell(float(coord), 4)
    with pytest.raises(ValueError, match=r"point outside \[-1, 1\]\^d"):
        assign_regions(build_partition(1, 0.25), np.array([[0.0], [coord]]))


def test_grid_pairs_states_slowest_actions_fastest():
    states = np.array([[0.1], [0.2], [0.3]])
    actions = np.array([[-1.0, 0.5], [0.0, 0.25]])
    Z = grid_pairs(states, actions)
    assert Z.shape == (6, 3)
    for i, s in enumerate(states):
        for j, a in enumerate(actions):
            np.testing.assert_array_equal(Z[i * 2 + j], np.concatenate([s, a]))
