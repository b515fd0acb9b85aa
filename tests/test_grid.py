"""Grid specification tests."""

import numpy as np
import pytest

from sheetlab import GridSpec


def test_scalar_broadcast():
    grid = GridSpec(d=3, T=1.0, N=4)
    assert grid.T == (1.0, 1.0, 1.0)
    assert grid.N == (4, 4, 4)
    assert grid.node_shape == (5, 5, 5)
    assert grid.cell_volume == pytest.approx((1 / 4) ** 3)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        GridSpec(d=0)
    with pytest.raises(ValueError):
        GridSpec(d=2, T=(1.0, -1.0), N=4)
    with pytest.raises(ValueError):
        GridSpec(d=2, T=1.0, N=(4, 0))
    with pytest.raises(ValueError):
        GridSpec(d=2, T=(1.0,) * 3, N=4)


def test_axis_nodes_from_indices():
    grid = GridSpec(d=1, T=(0.3,), N=(3,))
    np.testing.assert_allclose(grid.axis_nodes(0), [0.0, 0.1, 0.2, 0.3])
    np.testing.assert_allclose(grid.axis_cell_centers(0), [0.05, 0.15, 0.25])


def test_node_index_roundtrip_and_offgrid():
    grid = GridSpec(d=2, T=(1.0, 2.0), N=(4, 8))
    idx = (3, 5)
    assert grid.node_index(grid.node_coords(idx)) == idx
    with pytest.raises(ValueError):
        grid.node_index((0.13, 0.25))


def test_cell_index_half_open_last_closed():
    grid = GridSpec(d=1, T=1.0, N=4)
    assert grid.cell_index((0.25,)) == (1,)  # boundary belongs to the right cell
    assert grid.cell_index((1.0,)) == (3,)  # except the domain edge
    assert grid.cell_index((0.0,)) == (0,)


def test_point_in_domain_rejects_outside():
    grid = GridSpec(d=2, T=1.0, N=2)
    with pytest.raises(ValueError):
        grid.point_in_domain((0.5, 1.5))
    with pytest.raises(ValueError):
        grid.point_in_domain((0.5,))


def test_grid_roundtrip_dict():
    grid = GridSpec(d=2, T=(1.0, 0.5), N=(4, 2))
    assert GridSpec.from_dict(grid.to_dict()) == grid

