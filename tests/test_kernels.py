"""Donsker and Kac-Stroock kernel families and the primitive process zeta_n."""

import itertools

import numpy as np
import pytest

from sheetlab import kernels
from sheetlab import (
    GridSpec,
    QuadSpec,
    RngStream,
    donsker_eval,
    kac_stroock_eval,
    sample_donsker,
    sample_kac_stroock,
    zeta,
    zeta_on_axes,
)
from sheetlab.kernels import (
    BudgetExceededError,
    DonskerField,
    PoissonField,
    ks_parity_bits,
    ks_sign_grid,
    ks_values_on_grid,
)


# ------------------------------------------------------------------- Donsker


def test_donsker_innovation_counts():
    assert sample_donsker(GridSpec(d=1, T=1.0, N=1), 4).Z.shape == (4,)
    assert sample_donsker(GridSpec(d=2, T=1.0, N=1), 3).Z.shape == (3, 3)
    # non-unit domain rounds up per axis
    assert sample_donsker(GridSpec(d=1, T=(1.3,), N=1), 4).Z.shape == (6,)


def test_donsker_budget_refusal():
    with pytest.raises(BudgetExceededError):
        sample_donsker(GridSpec(d=2, T=1.0, N=1), 10_000)


def test_donsker_budget_read_at_call_time(monkeypatch):
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 10)
    with pytest.raises(BudgetExceededError, match="256 innovations"):
        sample_donsker(GridSpec(d=2, T=1.0, N=4), 16)


def test_rademacher_moments():
    grid = GridSpec(d=1, T=1.0, N=1)
    fld = sample_donsker(grid, 100_000, law="rademacher", rng=RngStream(5))
    assert set(np.unique(fld.Z)) == {-1.0, 1.0}
    var = fld.Z.var()
    assert abs(var - 1.0) <= 3.0 * np.sqrt(2.0 / fld.Z.size)


def test_centered_uniform_variance():
    grid = GridSpec(d=1, T=1.0, N=1)
    Z = sample_donsker(grid, 100_000, law="centered-uniform", rng=RngStream(6)).Z
    assert abs(Z.mean()) <= 3.0 / np.sqrt(Z.size)
    assert abs(Z.var() - 1.0) <= 3.0 * np.sqrt(Z.var(ddof=0) ** 2 * 2 / Z.size) + 0.01


def test_donsker_eval_cell_lookup():
    Z = np.array([1.0, 2.0, 3.0, 4.0])
    fld = DonskerField(n=4, T=(1.0,), Z=Z)
    # nx = 1.2 lies in [1, 2): innovation index 2 (one-based), value 2 Z_2
    assert donsker_eval(fld, (0.3,)) == pytest.approx(2.0 * Z[1])
    assert donsker_eval(fld, (0.0,)) == pytest.approx(2.0 * Z[0])
    assert donsker_eval(fld, (1.0,)) == pytest.approx(2.0 * Z[3])


def test_donsker_eval_d2():
    Z = np.arange(1.0, 5.0).reshape(2, 2)
    fld = DonskerField(n=2, T=(1.0, 1.0), Z=Z)
    # nx = (1.2, 0.4) -> multi-index (2, 1), prefactor n^{d/2} = 2
    assert donsker_eval(fld, (0.6, 0.2)) == pytest.approx(2.0 * Z[1, 0])
    with pytest.raises(ValueError):
        donsker_eval(fld, (1.2, 0.2))


# --------------------------------------------------------------- Kac-Stroock


def test_poisson_count_mean():
    grid = GridSpec(d=2, T=1.0, N=1)
    rng = RngStream(8)
    counts = [
        sample_kac_stroock(grid, 100.0, rng.substream(i)).points.shape[0]
        for i in range(10_000)
    ]
    counts = np.asarray(counts, dtype=float)
    assert abs(counts.mean() - 100.0) <= 3.0 * counts.std(ddof=1) / 100.0


def test_poisson_points_inside_domain():
    grid = GridSpec(d=2, T=(1.0, 0.5), N=1)
    fld = sample_kac_stroock(grid, 200.0, RngStream(9))
    assert np.all(fld.points >= 0.0)
    assert np.all(fld.points <= np.array(grid.T))


def test_kac_stroock_eval_examples():
    grid1 = GridSpec(d=1, T=1.0, N=2)
    fld = PoissonField(n=9.0, grid=grid1, points=np.array([[0.2], [0.7]]))
    # one point below x = 0.5, prefactor (prod x)^0 = 1
    assert kac_stroock_eval(fld, (0.5,)) == pytest.approx(-3.0)

    grid2 = GridSpec(d=2, T=1.0, N=2)
    fld2 = PoissonField(
        n=4.0, grid=grid2, points=np.array([[0.1, 0.2], [0.4, 0.9]])
    )
    assert kac_stroock_eval(fld2, (0.5, 0.5)) == pytest.approx(-2.0)


def test_kac_stroock_empty_pointset():
    grid = GridSpec(d=2, T=1.0, N=2)
    fld = PoissonField(n=4.0, grid=grid, points=np.zeros((0, 2)))
    x = (0.5, 0.8)
    assert kac_stroock_eval(fld, x) == pytest.approx(4.0 * np.sqrt(0.4))


def test_ks_sign_grid_matches_pointwise_eval():
    grid = GridSpec(d=2, T=1.0, N=4)
    fld = sample_kac_stroock(grid, 20.0, RngStream(10))
    mids = [grid.axis_cell_centers(i) for i in range(2)]
    signs = ks_sign_grid(fld.points, mids)
    for i, a in enumerate(mids[0]):
        for j, b in enumerate(mids[1]):
            count = int(np.sum(np.all(fld.points <= (a, b), axis=1)))
            assert signs[i, j] == (-1) ** count


def _brute_parity(points, mid_axes):
    """N(y) mod 2 at every midpoint, counting the points <= y coordinatewise."""
    grid_pts = np.stack(np.meshgrid(*mid_axes, indexing="ij"), axis=-1)
    below = np.all(points[:, None, :] <= grid_pts.reshape(-1, len(mid_axes)), axis=2)
    return (below.sum(axis=0) % 2).reshape(grid_pts.shape[:-1])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ks_parity_bits_pack_each_fields_own_sign_grid(d):
    grid = GridSpec(d=d, T=1.0, N=3)
    mids = [grid.axis_cell_centers(i) for i in range(d)]
    gen = RngStream(11).generator()
    sets = [sample_kac_stroock(grid, 12.0, RngStream(11, b)).points for b in range(64)]
    # a field without points, one point on midpoints (counted at that midpoint),
    # one point twice, one point shared with another field, one past the last midpoint
    sets[3] = np.zeros((0, d))
    sets[5] = np.array([[m[1] for m in mids]])
    sets[7] = np.repeat(gen.uniform(size=(1, d)), 2, axis=0)
    sets[63] = np.concatenate([sets[63], sets[0][:1]])
    sets[9] = np.full((1, d), 0.99)
    bits = ks_parity_bits(sets, mids)
    assert bits.dtype == np.uint64 and bits.shape == (3,) * d
    for b, pts in enumerate(sets):
        own = (bits >> np.uint64(b)) & np.uint64(1)
        np.testing.assert_array_equal(own, (1 - ks_sign_grid(pts, mids)) / 2)
        np.testing.assert_array_equal(own, _brute_parity(pts, mids))
    assert not np.any(ks_parity_bits(sets[:0], mids))
    with pytest.raises(ValueError, match="at most 64 point sets"):
        ks_parity_bits(sets + sets[:1], mids)


# ---------------------------------------------------------------------- zeta


def test_zeta_at_origin_is_zero():
    fld = sample_donsker(GridSpec(d=2, T=1.0, N=1), 4, rng=RngStream(2))
    assert zeta(fld, (0.0, 0.0)) == 0.0
    ks = sample_kac_stroock(GridSpec(d=2, T=1.0, N=2), 4.0, RngStream(2))
    assert zeta(ks, (0.0, 0.0)) == 0.0


def test_zeta_donsker_partial_sums_d1():
    fld = sample_donsker(GridSpec(d=1, T=1.0, N=1), 8, rng=RngStream(4))
    for k in range(1, 9):
        expect = fld.Z[:k].sum() / np.sqrt(8.0)
        assert zeta(fld, (k / 8,)) == pytest.approx(expect, abs=1e-14)


def test_zeta_donsker_partial_sums_d2():
    fld = sample_donsker(GridSpec(d=2, T=1.0, N=1), 4, rng=RngStream(4))
    for k in (1, 2, 4):
        expect = fld.Z[:k, :k].sum() / 4.0
        assert zeta(fld, (k / 4, k / 4)) == pytest.approx(expect, abs=1e-14)


def test_zeta_donsker_off_lattice_interpolates():
    # half a cell contributes half its innovation mass
    Z = np.array([2.0, -4.0])
    fld = DonskerField(n=2, T=(1.0,), Z=Z)
    assert zeta(fld, (0.25,)) == pytest.approx(np.sqrt(2.0) * 2.0 * 0.25)


def test_zeta_kac_stroock_closed_form_empty():
    for d in (1, 2):
        grid = GridSpec(d=d, T=1.0, N=4)
        fld = PoissonField(n=4.0, grid=grid, points=np.zeros((0, d)))
        for xc in (0.7, 1.0):
            x = np.full(d, xc)
            p = (d + 1) / 2.0
            closed = 4.0 ** (d / 2.0) * np.prod(x**p / p)
            got = zeta(fld, x, QuadSpec(r=64))
            assert got == pytest.approx(closed, abs=1e-4)


def test_zeta_kac_stroock_sign_grid_budget(monkeypatch):
    # N=4, n=16, r=2: the rule has 2 * 16 = 32 cells per axis, 16 x 24 inside [0, x]
    fld = sample_kac_stroock(GridSpec(d=2, T=1.0, N=4), 16.0, RngStream(8))
    x, quad = (0.5, 0.75), QuadSpec(r=2)
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 16 * 24 - 1)
    with pytest.raises(BudgetExceededError, match="384 cells"):
        zeta(fld, x, quad)
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 16 * 24)
    assert np.isfinite(zeta(fld, x, quad))


def test_zeta_rejects_mismatch():
    fld = sample_donsker(GridSpec(d=2, T=1.0, N=1), 4, rng=RngStream(1))
    with pytest.raises(ValueError):
        zeta(fld, (0.5,))
    with pytest.raises(ValueError):
        zeta(fld, (0.5, 1.5))


# -------------------------------------------------------- zeta on tensor grids


def _overlap(lo, hi, a):
    """Length of [lo, hi] cap [0, a]."""
    return max(0.0, min(a, hi) - lo)


def _brute_zeta_donsker(f, x):
    total = 0.0
    for k in itertools.product(*(range(s) for s in f.Z.shape)):
        vol = np.prod([_overlap(j / f.n, min((j + 1) / f.n, t), c) for j, t, c in zip(k, f.T, x)])
        total += f.n ** (f.d / 2.0) * f.Z[k] * vol
    return total


def _brute_zeta_kac_stroock(f, x, r):
    # the grid's N_i cells floored at ceil(n T_i), split r-fold, valued at their midpoints
    cells = [r * max(nb, int(np.ceil(f.n * t))) for nb, t in zip(f.grid.N, f.T)]
    widths = [t / k for k, t in zip(cells, f.T)]
    total = 0.0
    for k in itertools.product(*(range(c) for c in cells)):
        vol = np.prod([_overlap(j * w, (j + 1) * w, c) for j, w, c in zip(k, widths, x)])
        if vol > 0.0:
            total += kac_stroock_eval(f, [(j + 0.5) * w for j, w in zip(k, widths)]) * vol
    return total


def _test_axes(T, counts, seed):
    # off-lattice points plus both ends of D, axes of unequal lengths
    gen = RngStream(seed).generator()
    return [np.sort(np.r_[0.0, t, gen.uniform(0.0, t, m - 2)]) for t, m in zip(T, counts)]


@pytest.mark.parametrize(
    "d, T, N, n, r",
    [(1, (1.0,), (3,), 5, 2), (2, (1.0, 0.7), (2, 3), 3, 3), (3, (1.0, 0.7, 1.3), (2, 1, 2), 2, 2)],
)
def test_zeta_on_axes_matches_brute_force(d, T, N, n, r):
    grid = GridSpec(d=d, T=T, N=N)
    axes = _test_axes(T, [5, 4, 3][:d], 50 + d)
    pts = list(itertools.product(*axes))
    don = sample_donsker(grid, n, rng=RngStream(51))
    got = zeta_on_axes(don, axes).ravel()
    want = np.array([_brute_zeta_donsker(don, x) for x in pts])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    ks = sample_kac_stroock(grid, float(n), RngStream(52))
    got = zeta_on_axes(ks, axes, QuadSpec(r=r)).ravel()
    want = np.array([_brute_zeta_kac_stroock(ks, x, r) for x in pts])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _former_zeta_kac_stroock(f, x, r):
    """The per-x rule zeta used before the tensor-grid contraction: ceil(r b_i x_i / T_i)
    cells of width x_i / m_i on [0, x_i]."""
    base = [max(nb, int(np.ceil(f.n * t))) for nb, t in zip(f.grid.N, f.T)]
    m = [max(1, int(np.ceil(r * (b * (c / t))))) for b, c, t in zip(base, x, f.T)]
    h = [c / k for c, k in zip(x, m)]
    vals = ks_values_on_grid(f, [(np.arange(k) + 0.5) * w for k, w in zip(m, h)])
    return float(vals.sum() * np.prod(h))


@pytest.mark.parametrize(
    "d, N, n, r", [(1, 8, 20.0, 2), (2, 4, 4.0, 2), (2, 4, 64.0, 2), (2, 16, 16.0, 4)]
)
def test_zeta_on_axes_matches_former_rule_at_aligned_nodes(d, N, n, r):
    # every node k / N is a sub-cell boundary of the rule, so both rules use the same cells
    grid = GridSpec(d=d, T=1.0, N=N)
    fld = sample_kac_stroock(grid, n, RngStream(53))
    axes = [grid.axis_nodes(i) for i in range(d)]
    got = zeta_on_axes(fld, axes, QuadSpec(r=r))
    inner = got[(slice(1, None),) * d].ravel()
    inside = itertools.product(*(a[1:] for a in axes))
    want = np.array([_former_zeta_kac_stroock(fld, x, r) for x in inside])
    assert np.max(np.abs(inner - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.all(got[(0,) + (slice(None),) * (d - 1)] == 0.0)
