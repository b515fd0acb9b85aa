"""The Brownian sheet: the Donsker field at n = N, its node values and Wiener integrals."""

import numpy as np
import pytest

from sheetlab import GridSpec, RngStream, sample_donsker, sheet_covariance, zeta_on_axes
from sheetlab.integrals import indicator_integrand, noise_integrator
from sheetlab.kernels import DonskerField


def _nodes(grid):
    return [grid.axis_nodes(i) for i in range(grid.d)]


def _sheet_at_nodes(grid, rng):
    """W at the grid nodes: zeta of the Donsker field at n = N."""
    return zeta_on_axes(sample_donsker(grid, grid.N[0], rng=rng), _nodes(grid))


def test_single_cell_is_standard_normal():
    grid = GridSpec(d=2, T=1.0, N=1)
    rng = RngStream(21)
    vals = np.array([_sheet_at_nodes(grid, rng.substream(i))[1, 1] for i in range(5000)])
    assert abs(vals.mean()) <= 3.0 / np.sqrt(vals.size)
    assert abs(vals.var(ddof=1) - 1.0) <= 3.0 * np.sqrt(2.0 / vals.size)


def test_zero_on_lower_boundary():
    W = _sheet_at_nodes(GridSpec(d=3, T=1.0, N=3), RngStream(22))
    assert np.all(W[0, :, :] == 0.0)
    assert np.all(W[:, 0, :] == 0.0)
    assert np.all(W[:, :, 0] == 0.0)


def test_node_values_are_cumulative_sums():
    # increments sqrt(cell_volume) Z = Z / N^{d/2} with N = 2
    incr = np.array([[1.0, 2.0], [3.0, 4.0]])
    W = zeta_on_axes(DonskerField(n=2, T=(1.0, 1.0), Z=2.0 * incr), [[0.0, 0.5, 1.0]] * 2)
    assert W[2, 2] == pytest.approx(10.0)
    assert W[1, 2] == pytest.approx(3.0)
    assert W[2, 1] == pytest.approx(4.0)
    assert W[1, 1] == pytest.approx(1.0)


def test_wiener_integral_of_one_is_total_mass():
    grid = GridSpec(d=2, T=1.0, N=4)
    # the indicator at x = (1, 1) is 1 on D
    f, x = indicator_integrand(), np.ones(2)
    total = noise_integrator("sheet", f, [x], grid, None).replicates([RngStream(23)])
    Z = sample_donsker(grid, 4, rng=RngStream(23)).Z
    assert total[0, 0] == pytest.approx(Z.sum() * np.sqrt(grid.cell_volume))
    assert total[0, 0] == pytest.approx(_sheet_at_nodes(grid, RngStream(23))[4, 4])


def test_wiener_integral_isometry():
    grid = GridSpec(d=1, T=1.0, N=16)
    x = 0.75
    integ = noise_integrator("sheet", indicator_integrand(), [[x]], grid, None)
    M = 20_000
    vals = integ.replicates(RngStream(24), M)[:, 0]
    assert abs(vals.mean()) <= 3.0 * vals.std(ddof=1) / np.sqrt(M)
    sq = vals**2
    assert abs(sq.mean() - x) <= 3.0 * sq.std(ddof=1) / np.sqrt(M)


def test_sheet_covariance_values():
    assert sheet_covariance((0.5, 1.0), (1.0, 0.25)) == pytest.approx(0.125)
    assert sheet_covariance((0.3, 0.4), (0.3, 0.4)) == pytest.approx(0.12)
    assert sheet_covariance((0.0, 0.9), (0.5, 0.9)) == 0.0
    with pytest.raises(ValueError):
        sheet_covariance((0.5,), (0.5, 0.5))
