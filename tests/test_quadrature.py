"""The one axis-by-axis contraction, quadrature.contract_axes, and its callers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheetlab import GridSpec, RngStream, sample_donsker, sample_kac_stroock, zeta_on_axes
from sheetlab.kernels import (
    DonskerField,
    donsker_edges,
    ks_rule,
    ks_values_on_grid,
)
from sheetlab.quadrature import contract_axes


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 3),
    B=st.integers(2, 130),
    seed=st.integers(0, 2**16),
)
def test_contract_axes_is_per_field_and_matches_einsum(data, d, B, seed):
    """Each field of a stack equals the same field contracted alone, bit for
    bit, and the stack agrees with einsum to 1e-12 of its largest entry."""
    sizes = data.draw(st.lists(st.integers(1, 8), min_size=d, max_size=d))
    cols = data.draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((B, *sizes))
    mats = [gen.standard_normal((a, k)) for a, k in zip(sizes, cols)]
    got = contract_axes(x, mats)
    assert got.shape == (B, *cols)
    for i in range(B):
        np.testing.assert_array_equal(got[i], contract_axes(x[i : i + 1], mats)[0])
    # einsum's sublist form: stack axes 0..d, output axes d+1..2d
    operands = [x, [0, *range(1, d + 1)]]
    for i, M in enumerate(mats):
        operands += [M, [i + 1, d + 1 + i]]
    want = np.einsum(*operands, [0, *range(d + 1, 2 * d + 1)])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_contract_axes_wants_one_matrix_per_axis():
    x = np.ones((2, 3, 4))
    with pytest.raises(ValueError, match="expected 2 per-axis arrays, got 1"):
        contract_axes(x, [np.ones((3, 2))])


def _former_zeta_on_axes(f, axes, r=1):
    """zeta_on_axes as one np.tensordot per axis over the cell values."""
    axes = [np.asarray(a, dtype=float) for a in axes]
    if isinstance(f, DonskerField):
        scale, vals = f.n ** (f.d / 2.0), f.Z
        edges = donsker_edges(f.n, f.T)
    else:
        edges, mids = ks_rule(f.grid, f.n, r)
        scale, vals = 1.0, ks_values_on_grid(f, mids)
    for a, e in zip(axes, edges):
        overlap = np.clip(np.minimum(a[:, None], e[1:]) - e[:-1], 0.0, None)
        vals = np.tensordot(vals, overlap, axes=([0], [1]))
    return scale * vals


@pytest.mark.parametrize("family", ["donsker", "kac-stroock"])
@pytest.mark.parametrize("T", [1.0, 0.28, 1.7])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_zeta_on_axes_matches_former_tensordot_loop(d, T, family):
    for N, n, seed in [(4, 3, 1), (8, 16, 2), (16 if d < 3 else 6, 21, 3)]:
        grid = GridSpec(d=d, T=T, N=N)
        stream = RngStream(seed)
        if family == "donsker":
            f, r = sample_donsker(grid, n, rng=stream), 1
        else:
            f, r = sample_kac_stroock(grid, n, rng=stream), 2
        gen = stream.substream(1).generator()
        node_axes = [grid.axis_nodes(i) for i in range(d)]
        random_axes = [np.sort(gen.uniform(0.0, T, 5)) for _ in range(d)]
        for axes in (node_axes, random_axes):
            np.testing.assert_array_equal(
                zeta_on_axes(f, axes, r), _former_zeta_on_axes(f, axes, r)
            )
