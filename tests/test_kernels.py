"""Donsker and Kac-Stroock kernel families and the primitive process zeta_n."""

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
)
from sheetlab.kernels import (
    BudgetExceededError,
    DonskerField,
    PoissonField,
    ks_sign_grid,
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


def test_donsker_roundtrip_dict():
    fld = sample_donsker(GridSpec(d=2, T=1.0, N=1), 3, rng=RngStream(1))
    back = DonskerField.from_dict(fld.to_dict())
    assert back.n == fld.n and back.T == fld.T
    np.testing.assert_array_equal(back.Z, fld.Z)


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


def test_poisson_roundtrip_dict():
    fld = sample_kac_stroock(GridSpec(d=2, T=1.0, N=2), 10.0, RngStream(3))
    back = PoissonField.from_dict(fld.to_dict())
    assert back.n == fld.n
    np.testing.assert_allclose(back.points, fld.points)


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
