"""Grid specification tests."""

import numpy as np
import pytest

from sheetlab import GridSpec
from sheetlab.grid import uniform_cells


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"N": 4.7}, "cell counts N must be a whole number, got 4.7"),
        ({"N": (4, 2.5)}, "cell counts N must be a whole number, got 2.5"),
        ({"T": float("nan")}, "axis lengths T must be finite and positive"),
        ({"T": float("inf")}, "axis lengths T must be finite and positive"),
        ({"T": (1.0, -float("inf"))}, "axis lengths T must be finite and positive"),
    ],
)
def test_unusable_cell_counts_and_lengths_are_refused(kwargs, message):
    # int() truncated N = 4.7 to 4, and a non-finite T made a non-finite cell_volume
    with pytest.raises(ValueError, match=message):
        GridSpec(d=2, **kwargs)
    assert GridSpec(d=2, N=4.0).N == (4, 4)


def test_axis_nodes_from_indices():
    grid = GridSpec(d=1, T=(0.3,), N=(3,))
    np.testing.assert_allclose(grid.axis_nodes(0), [0.0, 0.1, 0.2, 0.3])
    np.testing.assert_allclose(grid.axis_cell_centers(0), [0.05, 0.15, 0.25])


@pytest.mark.parametrize("k", [1, 8, 10, 12, 49, 64])
@pytest.mark.parametrize("t", [1.0, 0.28, 1.7])
def test_uniform_cells_keeps_the_former_formulas(k, t):
    # the formulas GridSpec and ks_rule each wrote out: edges j w, midpoints (j + 1/2) w
    w = t / k
    edges, mids = uniform_cells(k, t)
    assert edges.tobytes() == (np.arange(k + 1) * w).tobytes()
    assert mids.tobytes() == ((np.arange(k) + 0.5) * w).tobytes()
    grid = GridSpec(d=2, T=(1.0, t), N=(3, k))
    assert grid.axis_nodes(1).tobytes() == edges.tobytes()
    assert grid.axis_cell_centers(1).tobytes() == mids.tobytes()


def test_node_index_roundtrip_and_offgrid():
    grid = GridSpec(d=2, T=(1.0, 2.0), N=(4, 8))
    assert grid.node_index((0.75, 1.25)) == (3, 5)
    with pytest.raises(ValueError):
        grid.node_index((0.13, 0.25))


def test_point_in_domain_rejects_outside():
    grid = GridSpec(d=2, T=1.0, N=2)
    with pytest.raises(ValueError):
        grid.point_in_domain((0.5, 1.5))
    with pytest.raises(ValueError):
        grid.point_in_domain((0.5,))
