"""Dirichlet Green function: series, walk-on-spheres, norms, spectral solve."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sheetlab import (
    GreenSeries,
    GridSpec,
    RngStream,
    WosConfig,
    green_eval,
    green_l2_norm,
    green_mc_estimate,
    holder_probe,
    k_apply,
    lambda_sup,
    poincare_constant,
)
import sheetlab
from sheetlab import kernels
from sheetlab.grid import GridField
from sheetlab.green import (
    POINT_CHUNK,
    WalkTruncationError,
    _interior_sine_bases,
    _lam_tensor,
    _project_to_face,
    _sine_matrix,
    _x_modes,
    free_space_green,
    green_integrand,
    green_l2_norm_on_axes,
    green_on_axes,
    green_tail_estimate,
    green_values,
    k_apply_stack,
    sine_synthesis,
    walk_on_spheres_exit,
)
from sheetlab.kernels import BudgetExceededError
from sheetlab.quadrature import tensor_points
from sheetlab.solver import SpdeSampler, nonlinearity_preset


def test_series_defaults():
    assert GreenSeries(d=2).kmax == 64
    assert GreenSeries(d=3).kmax == 32
    with pytest.raises(ValueError):
        GreenSeries(d=1)
    with pytest.raises(ValueError):
        GreenSeries(d=2, kmax=-4)


@pytest.mark.parametrize("kmax", [2.5, float("nan"), float("inf")])
def test_series_refuses_a_kmax_that_is_not_whole(kmax):
    # kmax = 2.5 once passed, and green_l2_norm then raised a TypeError from range
    with pytest.raises(ValueError, match=f"kmax must be a whole number, got {kmax}"):
        GreenSeries(d=2, kmax=kmax)
    assert GreenSeries(d=2, kmax=4.0).kmax == 4


def test_series_mode_tensor_budget(monkeypatch):
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 10**3 - 1)
    with pytest.raises(BudgetExceededError, match="would need 1000 modes"):
        GreenSeries(d=3, kmax=10)
    # the tail estimate's series has 4 kmax modes per axis
    gs = GreenSeries(d=2, kmax=8)
    with pytest.raises(BudgetExceededError, match="would need 1024 modes"):
        green_tail_estimate(gs, (0.5, 0.5), (0.25, 0.25))
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 10**3)
    assert GreenSeries(d=3, kmax=10).kmax == 10


def test_symmetry_exact():
    gs = GreenSeries(d=2, kmax=32)
    x, y = (0.31, 0.77), (0.64, 0.12)
    assert green_eval(gs, x, y) == green_eval(gs, y, x)
    gs3 = GreenSeries(d=3, kmax=8)
    a, b = (0.2, 0.5, 0.9), (0.7, 0.3, 0.4)
    assert green_eval(gs3, a, b) == green_eval(gs3, b, a)


def test_boundary_values_vanish():
    gs = GreenSeries(d=2, kmax=16)
    for x in [(0.0, 0.5), (1.0, 0.3), (0.4, 0.0), (0.7, 1.0)]:
        assert abs(green_eval(gs, x, (0.5, 0.5))) < 1e-12


def test_green_values_matches_scalar():
    gs = GreenSeries(d=2, kmax=16)
    x = (0.4, 0.6)
    Y = RngStream(51).generator().uniform(0.1, 0.9, (20, 2))
    vals = green_values(gs, x, Y)
    for v, y in zip(vals, Y):
        assert v == pytest.approx(green_eval(gs, x, y), abs=1e-13)


def _green_values_einsum(gs, x, Y):
    """The one-pass einsum evaluator that the chunked GEMM replaced."""
    coef = _x_modes(gs, [x])[0]
    mats = [_sine_matrix(Y[:, i], gs.kmax) for i in range(gs.d)]
    if gs.d == 2:
        return np.einsum("ja,ab,jb->j", mats[0], coef, mats[1])
    return np.einsum("ja,jb,jc,abc->j", mats[0], mats[1], mats[2], coef)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "m", [1, POINT_CHUNK - 1, POINT_CHUNK, POINT_CHUNK + 1, 2 * POINT_CHUNK + 3]
)
def test_green_values_chunks_match_references(d, m):
    """Every chunk boundary: the ends, the points beside each chunk start and a
    seeded sample against green_eval, all points against the einsum."""
    gs = GreenSeries(d=d, kmax=24 if d == 2 else 12)
    x = (0.35, 0.6, 0.45)[:d]
    Y = np.random.default_rng(1000 * d + m).uniform(0.0, 1.0, (m, d))
    vals = green_values(gs, x, Y)
    assert vals.shape == (m,)
    picked = {0, m - 1, *np.random.default_rng(7).integers(0, m, 256).tolist()}
    for lo in range(0, m, POINT_CHUNK):
        picked |= {i for i in (lo - 1, lo, lo + 1) if 0 <= i < m}
    for i in sorted(picked):
        assert abs(vals[i] - green_eval(gs, x, Y[i])) <= 1e-13
    ref = _green_values_einsum(gs, x, Y)
    assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))


def _green_values_per_point(gs, x, Y):
    """The block loop that evaluates the sines of every point's coordinates."""
    coef = _x_modes(gs, [x])[0].reshape(gs.kmax, -1)
    out = np.empty(Y.shape[0])
    for lo in range(0, Y.shape[0], POINT_CHUNK):
        block = Y[lo : lo + POINT_CHUNK]
        mats = [_sine_matrix(block[:, i], gs.kmax) for i in range(gs.d)]
        acc = mats[0] @ coef
        if gs.d == 3:
            acc = (acc.reshape(-1, gs.kmax, gs.kmax) * mats[2][:, None, :]).sum(-1)
        out[lo : lo + POINT_CHUNK] = (acc * mats[1]).sum(-1)
    return out


def _points_with_repeats(gen, kind, m, d, side):
    """m points in [0, 1]^d whose coordinates repeat in the way kind names."""
    if kind in ("grid", "shuffled-grid"):
        # side distinct values on every axis but the first, which takes what m needs
        rest = side ** (d - 1)
        axes = [np.sort(gen.uniform(size=-(-m // rest)))] + [
            np.sort(gen.uniform(size=side)) for _ in range(d - 1)
        ]
        Y = tensor_points(axes)[:m]
        return gen.permutation(Y) if kind == "shuffled-grid" else Y
    if kind == "duplicated-rows":
        return gen.uniform(size=(side, d))[gen.integers(0, side, m)]
    Y = gen.uniform(size=(m, d))
    Y[:, gen.integers(d)] = gen.uniform()
    return Y


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    kmax=st.sampled_from([1, 5, 16]),
    m=st.sampled_from([1, POINT_CHUNK - 1, POINT_CHUNK, POINT_CHUNK + 1]),
    kind=st.sampled_from(["grid", "shuffled-grid", "duplicated-rows", "constant-column"]),
    side=st.sampled_from([1, 2, 16, 90]),
    seed=st.integers(0, 2**16),
)
def test_green_values_with_repeated_coordinates_matches_per_point_loop(d, kmax, m, kind, side, seed):
    """Sines once per distinct coordinate give every value bit for bit."""
    gen = np.random.default_rng(seed)
    gs = GreenSeries(d=d, kmax=kmax)
    x = gen.uniform(0.05, 0.95, d)
    Y = _points_with_repeats(gen, kind, m, d, side)
    np.testing.assert_array_equal(green_values(gs, x, Y), _green_values_per_point(gs, x, Y))


def test_green_values_rejects_bad_shape():
    gs = GreenSeries(d=2, kmax=8)
    for Y in (np.full((5, 3), 0.5), np.full((5, 1), 0.5), np.full(2, 0.5)):
        with pytest.raises(ValueError, match="shape"):
            green_values(gs, (0.4, 0.6), Y)
    with pytest.raises(ValueError, match="shape"):
        green_values(GreenSeries(d=3, kmax=4), (0.4, 0.6, 0.5), np.full((5, 2), 0.5))


def test_green_evaluators_reject_wrong_point_dimension():
    gs = GreenSeries(d=2, kmax=8)
    f = green_integrand(gs)
    edges = [np.linspace(0.0, 1.0, 5)] * 2
    Y = np.full((4, 2), 0.5)
    for bad in [(0.3, 0.4, 0.9), (0.3,)]:
        calls = [
            lambda: green_eval(gs, bad, (0.5, 0.5)),
            lambda: green_eval(gs, (0.5, 0.5), bad),
            lambda: green_values(gs, bad, Y),
            lambda: green_on_axes(gs, bad, [np.array([0.5])] * 2),
            lambda: green_l2_norm(gs, bad),
            lambda: f.cell_integral(np.array([bad]), edges),
            lambda: f.evaluator(np.array([bad]), [np.array([0.5])] * 2),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="coordinates"):
                call()
    # one y axis per dimension: three axes on a 2-d series would contract silently
    for axes in ([np.array([0.5])] * 3, [np.array([0.5])]):
        with pytest.raises(ValueError, match="per-axis arrays"):
            f.evaluator(np.array([[0.5, 0.5]]), axes)


@pytest.mark.parametrize("bad", [(1.5, 0.5), (0.5, -0.25), (0.3, 1.0 + 1e-9)])
def test_green_series_refuses_points_outside_the_cube(bad):
    """The sine series is odd and 2-periodic: outside [0, 1]^d it would return
    the value at a reflected point, e.g. green_l2_norm at (1.5, 0.5) equals the
    one at (0.5, 0.5). That holds on the y side too, where the cell oracle
    takes a zero-width cell at y. Boundary points stay valid."""
    gs = GreenSeries(d=2, kmax=8)
    f = green_integrand(gs)
    edges = [np.linspace(0.0, 1.0, 5)] * 2
    inside = (0.5, 0.5)
    for x in (bad, (1.0, 0.0)):
        calls = [
            lambda: green_eval(gs, x, inside),
            lambda: green_eval(gs, inside, x),
            lambda: green_tail_estimate(gs, x, inside),
            lambda: green_l2_norm(gs, x),
            lambda: green_l2_norm_on_axes(gs, [np.array([c]) for c in x]),
            lambda: green_values(gs, x, np.full((4, 2), 0.5)),
            lambda: green_on_axes(gs, x, [np.array([0.5])] * 2),
            lambda: f.cell_integral(np.array([x]), edges),
            lambda: f.evaluator(np.array([x]), [np.array([0.5])] * 2),
            lambda: green_values(gs, inside, np.array([x])),
            lambda: green_on_axes(gs, inside, [np.array([c]) for c in x]),
            lambda: f.evaluator(np.array([inside]), [np.array([c]) for c in x]),
            lambda: f.cell_integral(np.array([inside]), [np.array([c, c]) for c in x]),
        ]
        for call in calls:
            if x == bad:
                with pytest.raises(ValueError, match="unit cube"):
                    call()
            else:
                assert np.all(np.abs(call()) < 1e-12)


@pytest.mark.parametrize("T", [2.0, 0.5, (1.0, 1.7)])
def test_lambda_sup_refuses_grids_off_the_unit_cube(T):
    # at T = 2 the nodes past 1 reflect back, and the T = 1 value came out
    with pytest.raises(ValueError, match="unit cube"):
        lambda_sup(GreenSeries(d=2, kmax=8), GridSpec(d=2, T=T, N=8))


@pytest.mark.parametrize("d, kmax", [(2, 64), (3, 32)])
def test_green_cell_integral_blocks_match_single_rows(d, kmax):
    """Every x-block boundary of the cell oracle against one-row calls."""
    gs = GreenSeries(d=d, kmax=kmax)
    R = max(1, POINT_CHUNK * kmax // kmax**d)
    oracle = green_integrand(gs).cell_integral
    edges = [np.linspace(0.0, 1.0, 4)] * d
    for n in (1, R - 1, R, R + 1, 2 * R + 3):
        xs = np.random.default_rng(n).uniform(0.0, 1.0, (n, d))
        got = oracle(xs, edges)
        ref = np.stack([oracle(x[None], edges)[0] for x in xs])
        assert got.shape == (n,) + (3,) * d
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def _sampler_build_peak(family, n):
    """tracemalloc peak of building a sampler on a d=3 grid with N=8 at the default kmax."""
    grid = GridSpec(d=3, T=1.0, N=8)
    g = GridField(grid, np.ones(grid.node_shape))
    tracemalloc.start()
    try:
        SpdeSampler(family, n, g, nonlinearity_preset("zero"), GreenSeries(d=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_green_cell_oracle_memory_bounded():
    # 729 nodes x 32^3 modes: the mode tensor of all nodes at once is 182 MiB
    assert _sampler_build_peak("donsker", 4) < 16 * 2**20


def test_green_evaluator_memory_bounded():
    # 729 nodes x 512 midpoints: a 2.8 MiB weight matrix; a flat mode matrix
    # of all nodes would be 182 MiB, and of the midpoints 128 MiB
    assert _sampler_build_peak("kac-stroock", 8) < 16 * 2**20


@pytest.mark.parametrize("d, kmax", [(2, 64), (3, 32)])
def test_green_evaluator_on_tensor_grid_matches_green_eval(d, kmax):
    """Every x-block boundary of the evaluator: each node within 1e-13 of green_eval."""
    gs = GreenSeries(d=d, kmax=kmax)
    R = max(1, POINT_CHUNK * kmax // kmax**d)
    # axes of different lengths, so that a transposed axis changes the shape
    axes = [np.array([0.05, 0.5, 0.9]), np.array([0.3, 0.7]), np.array([0.2, 0.6, 0.8, 0.95])][:d]
    evaluator = green_integrand(gs).evaluator
    for n in (1, R - 1, R, R + 1, 2 * R + 3):
        xs = np.random.default_rng(n).uniform(0.0, 1.0, (n, d))
        got = evaluator(xs, axes)
        assert got.shape == (n,) + tuple(len(a) for a in axes)
        for x, row in zip(xs, got):
            for y, v in zip(tensor_points(axes), row.ravel()):
                assert abs(v - green_eval(gs, x, y)) <= 1e-13


def test_green_l2_norm_is_one_point_of_axes_evaluator():
    for d, x in [(2, (0.3, 0.4)), (3, (0.3, 0.4, 0.7))]:
        gs = GreenSeries(d=d, kmax=8)
        on_axes = green_l2_norm_on_axes(gs, [np.array([c]) for c in x])
        assert green_l2_norm(gs, x) == float(on_axes[(0,) * d])


def test_truncation_tail_small():
    gs = GreenSeries(d=2, kmax=64)
    fine = GreenSeries(d=2, kmax=128)
    x, y = (0.5, 0.5), (0.25, 0.5)
    assert abs(green_eval(gs, x, y) - green_eval(fine, x, y)) < 1e-3


def test_free_space_kernels():
    assert free_space_green(3, 2.0) == pytest.approx(1.0 / (8.0 * np.pi))
    assert free_space_green(2, 1.0) == pytest.approx(0.0)
    # decreasing in r for both dimensions
    assert free_space_green(2, 0.1) > free_space_green(2, 0.2)
    with pytest.raises(ValueError):
        free_space_green(4, 1.0)


def test_walk_on_spheres_exits_on_boundary():
    cfg = WosConfig(walks=500, delta=1e-4)
    exits = walk_on_spheres_exit((0.3, 0.7), cfg, RngStream(52))
    on_face = np.isclose(exits, 0.0) | np.isclose(exits, 1.0)
    assert np.all(np.any(on_face, axis=1))
    assert np.all((exits >= -1e-12) & (exits <= 1.0 + 1e-12))


def _wos_exit_reference(x, cfg, rng):
    """The uncompacted loop: every step touches every walk, and walks still
    live at max_steps are snapped to a face. Returns (exits, snapped walks)."""
    xp = np.asarray(x, dtype=float)
    gen = rng.generator()
    pos = np.tile(xp, (cfg.walks, 1))

    def dist(p):
        return np.minimum(p.min(axis=1), (1.0 - p).min(axis=1))

    for _ in range(cfg.max_steps):
        r = dist(pos)
        active = r >= cfg.delta
        if not np.any(active):
            break
        dirs = gen.standard_normal((int(active.sum()), xp.size))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pos[active] += r[active, None] * dirs
    return _project_to_face(pos), int(np.sum(dist(pos) >= cfg.delta))


@settings(max_examples=80, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    coords=st.lists(st.floats(0.01, 0.99), min_size=3, max_size=3),
    walks=st.integers(1, 300),
    delta=st.sampled_from([1e-6, 1e-4, 1e-2, 0.1, 0.3]),
    max_steps=st.integers(1, 60),
    seed=st.integers(0, 2**16),
)
# thousands of walks from criterion 6's first start points, so that steps
# capture many walks at once: run to the end, and refused at a step cap
@example(d=2, coords=[0.3, 0.4, 0.5], walks=4000, delta=1e-4, max_steps=10_000, seed=606)
@example(d=3, coords=[0.3, 0.4, 0.5], walks=4000, delta=1e-4, max_steps=10_000, seed=606)
@example(d=3, coords=[0.3, 0.4, 0.5], walks=3000, delta=1e-4, max_steps=40, seed=607)
def test_compacted_walk_on_spheres_matches_reference(d, coords, walks, delta, max_steps, seed):
    """Exit points equal the uncompacted loop bit for bit, as a C-contiguous
    (walks, d) array, and the walk is refused exactly when that loop would
    have snapped live walks to a face. The start point is coords[:d]."""
    x = coords[:d]
    cfg = WosConfig(walks=walks, delta=delta, max_steps=max_steps)
    ref, snapped = _wos_exit_reference(x, cfg, RngStream(seed))
    if snapped:
        with pytest.raises(WalkTruncationError, match=f"^{snapped} of {walks} walks"):
            walk_on_spheres_exit(x, cfg, RngStream(seed))
    else:
        exits = walk_on_spheres_exit(x, cfg, RngStream(seed))
        assert exits.shape == (walks, d) and exits.flags.c_contiguous
        np.testing.assert_array_equal(exits, ref)


def test_mc_cross_validates_series_d2():
    gs = GreenSeries(d=2)
    x, y = (0.5, 0.5), (0.25, 0.5)
    est, se = green_mc_estimate(x, y, WosConfig(walks=40_000), RngStream(53))
    tol = 3.0 * se + green_tail_estimate(gs, x, y)
    assert abs(green_eval(gs, x, y) - est) <= tol


def test_mc_near_boundary_vanishes():
    est, se = green_mc_estimate(
        (0.001, 0.5), (0.5, 0.5), WosConfig(walks=20_000), RngStream(54)
    )
    assert abs(est) <= 3.0 * se + 1e-3


def test_mc_rejects_bad_points():
    with pytest.raises(ValueError):
        green_mc_estimate((0.5, 0.5), (0.5, 0.5))
    with pytest.raises(ValueError):
        green_mc_estimate((0.0, 0.5), (0.6, 0.5))


def test_mc_rejects_y_of_another_dimension():
    with pytest.raises(ValueError, match="y has 1 coordinates, x has 3"):
        green_mc_estimate((0.3, 0.4, 0.5), (0.6,))


def test_mc_rejects_y_outside_the_cube():
    with pytest.raises(ValueError, match="y must be interior"):
        green_mc_estimate((0.3, 0.4), (1.5, 0.5))


def test_parseval_matches_quadrature():
    gs = GreenSeries(d=2, kmax=32)
    x = np.array([0.5, 0.5])
    m = 256
    mids = [(np.arange(m) + 0.5) / m] * 2
    pts = tensor_points(mids)
    vals = green_values(gs, x, pts)
    mask = np.linalg.norm(pts - x, axis=1) > 1e-3
    quad = float(np.sum(vals[mask] ** 2) / m**2)
    assert quad == pytest.approx(green_l2_norm(gs, x) ** 2, rel=0.02)


def test_lambda_sup_monotone_and_centered():
    gs = GreenSeries(d=2)
    coarse = lambda_sup(gs, GridSpec(d=2, T=1.0, N=8))
    fine = lambda_sup(gs, GridSpec(d=2, T=1.0, N=32))
    assert fine >= coarse
    # the grid maximizer is the center, by symmetry
    grid = GridSpec(d=2, T=1.0, N=16)
    assert fine == pytest.approx(green_l2_norm(gs, (0.5, 0.5)), rel=1e-6)
    assert lambda_sup(gs, grid) == pytest.approx(green_l2_norm(gs, (0.5, 0.5)))


def test_lambda_sup_stable_under_kmax_doubling():
    grid = GridSpec(d=2, T=1.0, N=16)
    a = lambda_sup(GreenSeries(d=2, kmax=64), grid)
    b = lambda_sup(GreenSeries(d=2, kmax=128), grid)
    assert abs(a - b) < 1e-3


def test_poincare_constant_value():
    assert poincare_constant(GreenSeries(d=2)) == pytest.approx(2.0 * np.pi**2)
    assert poincare_constant(GreenSeries(d=3)) == pytest.approx(3.0 * np.pi**2)


def _eigenfield(grid, k):
    pts = grid.node_points()
    vals = np.prod(np.sqrt(2.0) * np.sin(np.pi * np.asarray(k) * pts), axis=1)
    return GridField(grid, vals.reshape(grid.node_shape))


def test_k_apply_eigenfunction():
    grid = GridSpec(d=2, T=1.0, N=16)
    gs = GreenSeries(d=2, kmax=8)
    k = (2, 3)
    lam = np.pi**2 * (4 + 9)
    u = k_apply(gs, _eigenfield(grid, k))
    np.testing.assert_allclose(u.values, _eigenfield(grid, k).values / lam, atol=1e-12)


def test_k_apply_zero_and_boundary():
    grid = GridSpec(d=2, T=1.0, N=8)
    gs = GreenSeries(d=2, kmax=4)
    u = k_apply(gs, GridField.zeros(grid))
    assert np.all(u.values == 0.0)
    w = k_apply(gs, _eigenfield(grid, (1, 1)))
    assert np.all(w.values[0, :] == 0.0) and np.all(w.values[:, -1] == 0.0)


def test_k_apply_requires_unit_cube():
    grid = GridSpec(d=2, T=(1.0, 2.0), N=8)
    gs = GreenSeries(d=2, kmax=4)
    with pytest.raises(ValueError):
        k_apply(gs, GridField.zeros(grid))


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    data=st.data(),
    kmax_offset=st.integers(-3, 3),
    batch=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    seed=st.integers(0, 2**16),
)
def test_k_apply_stack_matches_per_field(d, data, kmax_offset, batch, seed):
    """A stacked solve equals one k_apply per field, bit for bit, with kmax
    below, at and above the N - 1 modes the grid resolves."""
    N = tuple(data.draw(st.lists(st.integers(2, 10), min_size=d, max_size=d)))
    grid = GridSpec(d=d, T=1.0, N=N)
    gs = GreenSeries(d=d, kmax=max(1, min(N) - 1 + kmax_offset))
    stack = np.random.default_rng(seed).standard_normal(tuple(batch) + grid.node_shape)
    out = k_apply_stack(gs, stack, grid)
    assert out.shape == stack.shape
    fields = (-1,) + grid.node_shape
    for phi, u in zip(stack.reshape(fields), out.reshape(fields)):
        np.testing.assert_array_equal(u, k_apply(gs, GridField(grid, phi)).values)


def test_cached_spectral_tensors_are_read_only():
    for arr in _interior_sine_bases(8, 5):
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("d, kmax", [(1, 9), (2, 17), (3, 64)])
def test_lam_tensor_matches_meshgrid_sum_and_builds_one_array(d, kmax):
    k = np.arange(1, kmax + 1, dtype=float)
    want = np.pi**2 * sum(g**2 for g in np.meshgrid(*([k] * d), indexing="ij"))
    tracemalloc.start()
    try:
        got = _lam_tensor(d, kmax)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, want)
    # d grids and their squares would be several times the result: at d = 3,
    # kmax = 128 that transient was 80 MB
    assert peak < 1.25 * want.nbytes + 2**16


def test_green_eval_keeps_no_mode_tensor():
    # the eigenvalues are built, inverted and contracted slab by slab, and
    # freed on return
    gs = GreenSeries(d=3, kmax=144)
    tracemalloc.start()
    try:
        green_eval(gs, (0.3, 0.4, 0.5), (0.6, 0.7, 0.4))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 2**20
    assert peak < 1.25 * 144**3 * 8


def test_lambda_sup_holds_one_mode_tensor():
    # lambda_k^{-2} is squared and inverted in place: one kmax^d array, not two
    gs, grid = GreenSeries(d=3, kmax=64), GridSpec(d=3, T=1.0, N=8)
    tracemalloc.start()
    try:
        lambda_sup(gs, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 64**3 * 8


def test_tail_estimate_holds_no_mode_tensor():
    # the d = 3 tail's series at kmax 128 would be a 16 MiB tensor; its slabs
    # hold 2^18 entries (2 MiB) at a time
    gs = GreenSeries(d=3)
    tracemalloc.start()
    try:
        green_tail_estimate(gs, (0.3, 0.4, 0.5), (0.6, 0.7, 0.4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _run_python(code, threads):
    """stdout of code in a fresh interpreter at OPENBLAS_NUM_THREADS=threads."""
    src = str(Path(sheetlab.__file__).resolve().parent.parent)
    rest = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    path = os.pathsep.join([src] + rest)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(threads))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=300, check=True).stdout


_WHOLE_TENSOR_BITS = """
    import numpy as np
    from sheetlab.green import (GreenSeries, _lam_tensor, _sine_matrix, green_eval,
                                green_l2_norm_on_axes)
    from sheetlab.quadrature import contract_axes

    def whole_eval(gs, x, y):
        # green_eval as it was: the whole kmax^d reciprocal, then contract_axes
        inv = _lam_tensor(gs.d, gs.kmax)
        np.divide(1.0, inv, out=inv)
        cols = [(_sine_matrix(np.array([a]), gs.kmax) * _sine_matrix(np.array([b]), gs.kmax)).T
                for a, b in zip(x, y)]
        return float(contract_axes(inv[None], cols).item())

    def whole_norm(gs, axes):
        # green_l2_norm_on_axes as it was: lambda^-2 squared and inverted in place
        inv = _lam_tensor(gs.d, gs.kmax)
        inv *= inv
        np.divide(1.0, inv, out=inv)
        mats = [_sine_matrix(a, gs.kmax).T ** 2 for a in axes]
        return np.sqrt(contract_axes(inv[None], mats)[0])

    gen = np.random.default_rng(30)
    kmaxes = [*range(1, 21), 31, 32, 33, 63, 64, 65, 128]
    cases = [(d, k) for d in (2, 3) for k in kmaxes] + [(3, 150), (2, 511), (2, 512)]
    split = [(2, 600), (2, 1031)]  # d = 2 slabs split the rows above kmax 512
    worst = 0.0
    for d, k in cases + split:
        gs = GreenSeries(d=d, kmax=k)
        pairs = []
        for _ in range(5):
            x, y = gen.uniform(0, 1, d), gen.uniform(0, 1, d)
            pairs.append((green_eval(gs, x, y), whole_eval(gs, x, y)))
        for n in (1, 3, 15):
            axes = [gen.uniform(0, 1, n) for _ in range(d)]
            pairs.append((green_l2_norm_on_axes(gs, axes), whole_norm(gs, axes)))
        for got, want in pairs:
            if (d, k) in split:
                worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
            elif not np.array_equal(got, want):
                print("differs", d, k, np.shape(want))
    print("split", worst)
"""


def test_slab_contraction_matches_the_whole_tensor_bit_for_bit():
    """green_eval and green_l2_norm_on_axes equal the whole-tensor code they
    replaced, bit for bit, on one BLAS thread (the whole tensor's own bits move
    with the thread count at d = 3). At d = 3, slabs of 1, 2 or 3 planes did
    not match, nor slabs not rounded to 4 planes (62 at kmax 65, 11 at 150)."""
    out = _run_python(_WHOLE_TENSOR_BITS, 1).splitlines()
    assert out[:-1] == []
    assert float(out[-1].split()[1]) < 1e-12


def test_green_eval_bits_do_not_depend_on_blas_threads():
    # the whole 150^3 tensor's product woke a second OpenBLAS thread, and one
    # of these 20 values moved at 2 and at 4 threads
    code = """
        import numpy as np
        from sheetlab.green import GreenSeries, green_eval
        gs, gen = GreenSeries(d=3, kmax=150), np.random.default_rng(5)
        for _ in range(20):
            print(green_eval(gs, gen.uniform(0, 1, 3), gen.uniform(0, 1, 3)).hex())
    """
    runs = [_run_python(code, threads) for threads in (1, 2, 4)]
    assert len(runs[0].split()) == 20
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_k_apply_inverts_discrete_laplacian():
    """-Laplace(k_apply phi) = phi + O(h^2) at interior nodes."""
    gs = GreenSeries(d=2, kmax=4)
    gen = RngStream(55).generator()
    coef = gen.standard_normal((4, 4))
    errs = []
    for N in (16, 32):
        grid = GridSpec(d=2, T=1.0, N=N)
        phi = sine_synthesis(coef, grid)
        u = k_apply(gs, phi).values
        h = 1.0 / N
        lap = (
            u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:] - 4 * u[1:-1, 1:-1]
        ) / h**2
        errs.append(np.max(np.abs(-lap - phi.values[1:-1, 1:-1])))
    assert errs[1] < errs[0] / 3.0  # second-order decay


def test_holder_probe_validation():
    gs = GreenSeries(d=2, kmax=16)
    pairs = [((0.4, 0.5), (0.4, 0.5)), ((0.4, 0.5), (0.5, 0.5))]
    with pytest.raises(ValueError):
        holder_probe(gs, 2.5, pairs, r=16, rho=1e-2)
    with pytest.raises(ValueError):
        holder_probe(gs, 2.5, [((0.4, 0.5), (0.5, 0.5))] * 4, r=16, rho=0.0)


def test_holder_alpha_window_warning():
    gs = GreenSeries(d=2, kmax=8)
    dists = (0.05, 0.1, 0.2)
    pairs = [((0.4, 0.5), (0.4 + t, 0.5)) for t in dists]
    with pytest.warns(UserWarning):
        holder_probe(gs, 1.5, pairs, r=32, rho=1e-2)


def test_holder_probe_positive_slope():
    gs = GreenSeries(d=2, kmax=32)
    dists = np.logspace(-2, -1, 5)
    pairs = [((0.45, 0.55), (0.45 + t, 0.55)) for t in dists]
    est = holder_probe(gs, 2.5, pairs, r=64, rho=1e-2)
    assert est.beta > 0
    assert est.r_squared >= 0.9
