"""Random-field integrals X_n and their Wiener-integral limits."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheetlab import (
    GridSpec,
    QuadSpec,
    RngStream,
    indicator_integrand,
    zeta,
    zeta_on_axes,
)
from sheetlab.integrals import (
    KS_CHUNK,
    DonskerIntegrator,
    Integrand,
    KacStroockIntegrator,
    _eval_matrix,
    _refined_axes,
    noise_integrator,
    restrict,
)
from sheetlab import integrals, kernels
from sheetlab.green import GreenSeries, _lam_tensor, _sine_matrix, green_eval, green_integrand
from sheetlab.kernels import (
    BudgetExceededError,
    PoissonField,
    ks_midpoints,
    ks_rule,
    ks_scale,
    sample_donsker,
    sample_kac_stroock,
)
from sheetlab.quadrature import row_outer, tensor_points


def _on_axes(ev):
    """A point-list evaluator (xs, Y) -> (n, m) as the tensor-grid evaluator
    (xs, axes) -> (n, m_1, ..., m_d) that Integrand takes."""

    def on_axes(xs, axes):
        shape = (len(xs),) + tuple(len(a) for a in axes)
        return ev(np.asarray(xs), tensor_points(axes)).reshape(shape)

    return on_axes


def _ones(xs, Y):
    return np.ones((len(xs), len(Y)))


def _smooth_integrand():
    def ev(xs, Y):
        return np.tile(np.cos(np.pi * Y[:, 0]) * (1.0 + Y[:, -1]), (len(xs), 1))

    return Integrand(evaluator=_on_axes(ev))


def _one_draw(family, f, xs, grid, n, stream, quad=QuadSpec()):
    """The integrator's values at xs for the one kernel field that stream draws."""
    return noise_integrator(family, f, xs, grid, n, quad).replicates([stream])[0]


def test_indicator_reduces_to_zeta_donsker():
    grid = GridSpec(d=2, T=1.0, N=4)
    fld = sample_donsker(grid, 4, rng=RngStream(31))
    f = indicator_integrand()
    for x in [(0.3, 0.9), (0.5, 0.5), (1.0, 1.0)]:
        got = _one_draw("donsker", restrict(f, x), [x], grid, 4, RngStream(31))[0]
        assert got == pytest.approx(zeta(fld, x), abs=1e-12)


@pytest.mark.parametrize("n", [4, 64, 256])
def test_indicator_reduces_to_zeta_kac_stroock(n):
    # x lies on sub-cell boundaries of the one Kac-Stroock rule, so both sum the same cells
    grid = GridSpec(d=2, T=1.0, N=4)
    fld = sample_kac_stroock(grid, float(n), RngStream(32))
    quad = QuadSpec(r=8)
    x = (0.5, 0.75)
    f = restrict(indicator_integrand(), x)
    got = _one_draw("kac-stroock", f, [x], grid, n, RngStream(32), quad)
    assert got[0] == pytest.approx(zeta(fld, x, quad), rel=1e-13)


def test_donsker_oracle_matches_brute_force():
    grid = GridSpec(d=2, T=1.0, N=2)
    n = 4
    fld = sample_donsker(grid, n, rng=RngStream(33))
    f = _smooth_integrand()
    x = np.array([0.4, 0.6])
    got = _one_draw("donsker", f, [x], grid, n, RngStream(33), QuadSpec(r=32))[0]
    # brute force: n^{d/2} sum_k Z_k * (cell integral by dense midpoints)
    m = 40
    total = 0.0
    for i in range(n):
        for j in range(n):
            ys = [(i + (np.arange(m) + 0.5) / m) / n, (j + (np.arange(m) + 0.5) / m) / n]
            total += fld.Z[i, j] * f.evaluator(x[None], ys)[0].mean() / n**2
    assert got == pytest.approx(n * total, rel=1e-4)


def _former_quadrature_weights(f, xs, n, d, r):
    """The per-x midpoint-rule weights that the batched Donsker fallback replaced."""
    edges = [np.minimum(np.arange(n + 1) / n, 1.0)] * d
    mids, widths = _refined_axes(edges, r)
    wt = widths[0]
    for v in widths[1:]:
        wt = np.multiply.outer(wt, v)
    rows = []
    for x in xs:
        contrib = (f.evaluator(x[None], mids)[0].ravel() * wt.ravel()).reshape((n * r,) * d)
        for axis in range(d):
            new = list(contrib.shape)
            new[axis : axis + 1] = [n, r]
            contrib = contrib.reshape(new).sum(axis=axis + 1)
        rows.append(contrib.ravel())
    return np.array(rows)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_donsker_quadrature_matches_per_x_loop(d):
    def ev(xs, Y):
        return np.cos(np.pi * (Y[None, :, 0] - xs[:, :1])) * (1.0 + Y[None, :, -1] * xs[:, -1:])

    xs = RngStream(42).generator().uniform(0.0, 1.0, size=(5, d))
    f = Integrand(_on_axes(ev))
    got = DonskerIntegrator(f, xs, 3, (1.0,) * d, QuadSpec(r=3)).weights
    np.testing.assert_array_equal(got, _former_quadrature_weights(f, xs, 3, d, 3))


def test_wrapped_equals_restricted():
    # restrict(f, x) against f times the indicator of [0, x], written out
    grid = GridSpec(d=2, T=1.0, N=4)
    f = _smooth_integrand()
    x = (0.6, 0.8)

    def masked(xs, axes):
        inside = row_outer([(np.asarray(a) <= c)[None].astype(float) for a, c in zip(axes, x)])
        return f.evaluator(xs, axes) * inside

    quad = QuadSpec(r=16)
    a = _one_draw("donsker", restrict(f, x), [x], grid, 8, RngStream(34), quad)[0]
    b = _one_draw("donsker", Integrand(masked), [x], grid, 8, RngStream(34), quad)[0]
    assert a == pytest.approx(b, abs=1e-12)


def test_restricted_at_origin_is_zero():
    grid = GridSpec(d=2, T=1.0, N=4)
    f = restrict(_smooth_integrand(), (0.0, 0.0))
    assert _one_draw("donsker", f, [(0.0, 0.0)], grid, 4, RngStream(35))[0] == 0.0


def test_piecewise_constant_factorizes_through_zeta():
    # d=1: f(y) = sum g_j I_{(x_{j-1}, x_j]} gives X_n = sum g_j (zeta(x_j) - zeta(x_{j-1}))
    grid = GridSpec(d=1, T=1.0, N=4)
    fld = sample_donsker(grid, 8, rng=RngStream(36))
    knots = np.array([0.0, 0.25, 0.5, 1.0])
    gvals = np.array([2.0, -1.0, 0.5])

    def ev(xs, Y):
        idx = np.clip(np.searchsorted(knots, Y[:, 0], side="left") - 1, 0, 2)
        return np.tile(gvals[idx], (len(xs), 1))

    f = Integrand(_on_axes(ev))
    got = _one_draw("donsker", f, [[0.0]], grid, 8, RngStream(36), QuadSpec(r=8))[0]
    expect = sum(
        g * (zeta(fld, (b,)) - zeta(fld, (a,)))
        for g, a, b in zip(gvals, knots[:-1], knots[1:])
    )
    assert got == pytest.approx(expect, abs=1e-12)


def test_donsker_integrator_second_moment_exact():
    # for the indicator, E[X_n(x)^2] = n^d sum w_k^2 with w_k the overlap volumes
    f = indicator_integrand()
    integ = DonskerIntegrator(f, [np.array([0.5])], 4, (1.0,))
    assert integ.second_moment()[0] == pytest.approx(0.5)


def test_singular_integrand_requires_rho():
    f = Integrand(_on_axes(_ones), smoothness="singular-diagonal")
    grid = GridSpec(d=2, T=1.0, N=4)
    with pytest.raises(ValueError):
        DonskerIntegrator(f, [np.zeros(2)], 4, grid.T, QuadSpec(r=2, rho=0.0))
    with pytest.raises(ValueError):
        KacStroockIntegrator(f, [np.zeros(2)], grid, 4.0, QuadSpec(r=2, rho=0.0))


def test_quadrature_excludes_ball_around_x_for_singular_integrand():
    # midpoints (j + 0.5) / 8: within rho = 0.1 of x = 0.5 are 0.4375 and 0.5625, of x = 0 is 0.0625
    f = Integrand(_on_axes(_ones), smoothness="singular-diagonal")
    quad = QuadSpec(r=4, rho=0.1)
    xs = np.array([[0.5], [0.0]])
    W = DonskerIntegrator(f, xs, 2, (1.0,), quad).weights
    np.testing.assert_array_equal(W, [[0.375, 0.375], [0.375, 0.5]])
    ks = KacStroockIntegrator(f, xs, GridSpec(d=1, T=1.0, N=2), 2.0, quad)
    fmat = ks.weights / (ks_scale(2.0, ks.mids).ravel() / 8)
    np.testing.assert_array_equal(fmat, [[1, 1, 1, 0, 0, 1, 1, 1], [0, 1, 1, 1, 1, 1, 1, 1]])


def test_quadrature_excludes_ball_around_x_in_two_dimensions():
    # T = (1, 0.5), n = 2, r = 4: 2 x 1 cells of 8 x 4 sub-cells of area 1/64
    f = Integrand(_on_axes(_ones), smoothness="singular-diagonal")
    quad = QuadSpec(r=4, rho=0.3)
    xs = np.array([[0.3, 0.1], [0.9, 0.45]])
    W = DonskerIntegrator(f, xs, 2, (1.0, 0.5), quad).weights
    pts = tensor_points([(np.arange(8) + 0.5) / 8, (np.arange(4) + 0.5) / 8])
    first_cell = pts[:, 0] < 0.5
    for x, w in zip(xs, W):
        keep = np.sum((pts - x) ** 2, axis=1) > quad.rho**2
        counts = [np.sum(keep & first_cell), np.sum(keep & ~first_cell)]
        np.testing.assert_array_equal(w, np.array(counts) / 64)


def test_limit_field_matches_sheet_nodes():
    # the sheet integrator of the indicator is zeta of the Donsker field at n = N
    grid = GridSpec(d=2, T=1.0, N=4)
    nodes = [grid.axis_nodes(i) for i in range(2)]
    W = zeta_on_axes(sample_donsker(grid, 4, rng=RngStream(37)), nodes)
    vals = _one_draw("sheet", indicator_integrand(), grid.node_points(), grid, None, RngStream(37))
    np.testing.assert_allclose(vals.reshape(grid.node_shape), W, atol=1e-12)


def test_limit_field_variance_isometry():
    grid = GridSpec(d=1, T=1.0, N=8)
    f = _smooth_integrand()
    x = np.array([0.0])
    integ = noise_integrator("sheet", f, [x], grid, None)
    rng = RngStream(38)
    M = 20_000
    # one generator draws all M rows of 8 standard normals
    vals = integ.replicates(rng, M)[:, 0]
    sq = vals**2
    target = float(integ.second_moment()[0])
    assert abs(sq.mean() - target) <= 3.0 * sq.std(ddof=1) / np.sqrt(M)


def test_green_evaluator_matches_green_eval():
    gs = GreenSeries(d=2, kmax=8)
    xs = np.array([[0.3, 0.4], [0.7, 0.2], [0.5, 0.5]])
    Y = RngStream(39).generator().uniform(0.05, 0.95, size=(50, 2))
    F = green_integrand(gs).evaluator(xs, [Y[:, 0], Y[:, 1]])
    assert F.shape == (3, 50, 50)
    for i, x in enumerate(xs):
        for j, y in enumerate(tensor_points([Y[:, 0], Y[:, 1]])):
            assert abs(F[i].ravel()[j] - green_eval(gs, x, y)) <= 1e-13


def _former_green_cell_integral(gs, x, edges):
    """The per-point Green cell oracle that the batched one replaced: the mode
    tensor e_k(x) / lambda_k, then one tensordot over its first axis per edge array."""
    vecs = [_sine_matrix(np.array([c]), gs.kmax)[0] for c in x]
    coef = vecs[0]
    for v in vecs[1:]:
        coef = np.multiply.outer(coef, v)
    out = coef / _lam_tensor(gs.d, gs.kmax)
    k = np.arange(1, gs.kmax + 1)
    for e in edges:
        C = np.sqrt(2.0) * np.cos(np.outer(e, k) * np.pi) / (k * np.pi)
        out = np.tensordot(out, C[:-1] - C[1:], axes=([0], [1]))
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_green_cell_integral_matches_former_per_point_oracle(d):
    gs = GreenSeries(d=d, kmax=8)
    xs = np.array([[0.3, 0.4, 0.6], [0.7, 0.2, 0.1], [0.5, 0.5, 0.5]])[:, :d]
    edges = [np.linspace(0.0, 1.0, 5)] * d
    got = green_integrand(gs).cell_integral(xs, edges)
    assert got.shape == (3,) + (4,) * d
    for x, row in zip(xs, got):
        np.testing.assert_array_equal(row, _former_green_cell_integral(gs, x, edges))


def _former_sheet(f, xs, grid, rng, M):
    """Replicates and variances of int f(x, y) W(dy) by the arithmetic of the
    former SheetIntegrator: exact cell averages (or values at the cell centers
    when f has no cell-integral oracle) against increments sqrt(cv) Z, and the
    variance sum F^2 cv."""
    cv = grid.cell_volume
    edges = [grid.axis_nodes(k) for k in range(grid.d)]
    if f.cell_integral is not None:
        F = np.asarray(f.cell_integral(xs, edges)).reshape(xs.shape[0], -1) / cv
    else:
        centers = [grid.axis_cell_centers(i) for i in range(grid.d)]
        F = f.evaluator(xs, centers).reshape(xs.shape[0], -1)
    incr = rng.generator().standard_normal((M, F.shape[1])) * np.sqrt(cv)
    return incr @ F.T, np.sum(F**2, axis=1) * cv


def _sheet_case(kind, d, N, T, seed):
    if kind == "green":
        grid = GridSpec(d=d, T=1.0, N=N)
        f = green_integrand(GreenSeries(d=d, kmax=6))
    else:
        grid = GridSpec(d=d, T=T, N=N)
        f = indicator_integrand() if kind == "indicator" else _smooth_integrand()
    xs = RngStream(seed).substream(1).generator().uniform(0.05, 0.95, size=(3, d)) * grid.T
    return f, xs, grid


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["indicator", "smooth", "green"]),
    d=st.sampled_from([1, 2, 3]),
    N=st.integers(1, 10),
    T=st.sampled_from([1.0, 0.28, 1.7]),
    seed=st.integers(0, 2**16),
)
def test_sheet_driver_matches_former_sheet_integrator(kind, d, N, T, seed):
    if kind == "green":
        d = max(d, 2)
    f, xs, grid = _sheet_case(kind, d, N, T, seed)
    integ = noise_integrator("sheet", f, xs, grid, None, QuadSpec(r=1, rho=1e-3))
    assert integ.cell_shape == grid.N
    got = integ.replicates(RngStream(seed), 50)
    ref, ref_var = _former_sheet(f, xs, grid, RngStream(seed), 50)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    var = integ.second_moment()
    assert np.max(np.abs(var - ref_var)) <= 1e-12 * np.max(ref_var)


@pytest.mark.parametrize("kind", ["indicator", "smooth", "green"])
def test_sheet_driver_bit_identical_on_dyadic_grid(kind):
    f, xs, grid = _sheet_case(kind, 2, 16, 1.0, 41)
    integ = noise_integrator("sheet", f, xs, grid, None, QuadSpec(r=1, rho=1e-3))
    ref, ref_var = _former_sheet(f, xs, grid, RngStream(41), 200)
    np.testing.assert_array_equal(integ.replicates(RngStream(41), 200), ref)
    np.testing.assert_array_equal(integ.second_moment(), ref_var)


@pytest.mark.parametrize("kind", ["indicator", "green"])
@pytest.mark.parametrize("d, N", [(2, 16), (2, 32), (3, 8)])
def test_sheet_is_donsker_at_dyadic_n_equals_grid_n(kind, d, N):
    """On the unit cube with a dyadic N, the grid's nodes j / N and the Donsker
    cell edges j / n at n = N are the same doubles, and so are the scales
    cell_volume^{-1/2} and n^{d/2}; at other N (10, 12) the two can differ in
    the last bits."""
    f, xs, grid = _sheet_case(kind, d, N, 1.0, 44)
    sheet = noise_integrator("sheet", f, xs, grid, None, QuadSpec(r=1, rho=1e-3))
    donsker = DonskerIntegrator(f, xs, N, grid.T)
    np.testing.assert_array_equal(sheet.weights, donsker.weights)
    np.testing.assert_array_equal(
        sheet.replicates(RngStream(44), 50), donsker.replicates(RngStream(44), 50)
    )


def _former_ks_values(f, xs, grid, n, quad, fields):
    """Kac-Stroock values by the former dense per-field rule: the integrand on the
    rule's midpoints against theta_n there, counted by cumulative sums, times the
    cell volume; shape (len(fields), npts)."""
    cells, widths = ks_rule(grid, n, quad.r)
    mids = ks_midpoints(cells, widths)
    fmat = _eval_matrix(f, xs, mids, quad.rho).reshape(len(xs), -1)
    d = grid.d
    pref = n ** (d / 2.0) * np.prod(np.meshgrid(*mids, indexing="ij"), axis=0) ** ((d - 1) / 2)
    out = []
    for fld in fields:
        counts = np.zeros(tuple(cells), dtype=np.int64)
        idx = [np.searchsorted(m, fld.points[:, i], side="left") for i, m in enumerate(mids)]
        keep = np.all([j < k for j, k in zip(idx, cells)], axis=0)
        np.add.at(counts, tuple(j[keep] for j in idx), 1)
        for axis in range(d):
            np.cumsum(counts, axis=axis, out=counts)
        theta = pref * (1.0 - 2.0 * (counts & 1))
        out.append(fmat @ theta.ravel() * np.prod(widths))
    return np.array(out)


def _crafted_sampler(anchor, r):
    """A sample_kac_stroock stand-in whose fields hit the parity grid's edge cases:
    no points, one point twice, a point on the r-fold rule's midpoints, a point
    past the last midpoint and a point (anchor) shared by several fields."""

    def sample(grid, n, stream):
        gen = stream.generator()
        T = np.asarray(grid.T)
        cells, widths = ks_rule(grid, n, r)
        on_mid = (gen.integers(0, cells) + 0.5) * np.asarray(widths)
        past = gen.uniform(size=grid.d) * T
        axis = gen.integers(grid.d)
        past[axis] = T[axis]
        pts = gen.uniform(size=(int(gen.integers(0, 6)), grid.d)) * T
        extra = [pts[:1], on_mid[None], past[None], anchor[None]]
        use = gen.integers(0, 2, size=len(extra)).astype(bool)
        pts = np.concatenate([pts] + [e for e, u in zip(extra, use) if u])
        if gen.integers(0, 4) == 0:
            pts = pts[:0]
        return PoissonField(n=float(n), grid=grid, points=pts)

    return sample


def _ks_case(kind, d, N, seed):
    grid = GridSpec(d=d, T=(1.0, 0.75, 1.25)[:d] if kind != "green" else 1.0, N=N)
    if kind == "green":
        f = green_integrand(GreenSeries(d=d, kmax=6))
    else:
        f = indicator_integrand() if kind == "indicator" else _smooth_integrand()
    xs = RngStream(seed).substream(1).generator().uniform(0.05, 0.95, size=(3, d)) * grid.T
    return f, xs, grid


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["indicator", "smooth", "green"]),
    d=st.sampled_from([1, 2, 3]),
    N=st.integers(1, 4),
    n=st.integers(1, 8),
    r=st.integers(1, 3),
    M=st.sampled_from([1, 63, 64, 65, 129]),
    chunk=st.sampled_from([KS_CHUNK, 64, 5]),
    seed=st.integers(0, 2**16),
)
def test_kac_stroock_replicates_match_former_dense_rule(kind, d, N, n, r, M, chunk, seed):
    if kind == "green":
        d = max(d, 2)
    f, xs, grid = _ks_case(kind, d, N, seed)
    quad = QuadSpec(r=r, rho=1e-3)
    integ = KacStroockIntegrator(f, xs, grid, float(n), quad)
    sample = _crafted_sampler(xs[0], r)
    with mock.patch.object(integrals, "sample_kac_stroock", sample), mock.patch.object(
        integrals, "KS_CHUNK", chunk
    ):
        got = integ.replicates(RngStream(seed), M)
    fields = [sample(grid, n, s) for s in RngStream(seed).split(M)]
    ref = _former_ks_values(f, xs, grid, float(n), quad, fields)
    assert got.shape == (M, 3)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_kac_stroock_replicates_over_several_chunks():
    # the field-law rule at n = 64: 128^2 sub-cells
    grid = GridSpec(d=2, T=1.0, N=32)
    xs = np.array([[0.25, 0.25], [0.5, 0.5], [0.75, 0.75]])
    f, quad = indicator_integrand(), QuadSpec(r=2)
    integ = KacStroockIntegrator(f, xs, grid, 64.0, quad)
    assert integ.weights.shape[1] > KS_CHUNK
    got = integ.replicates(RngStream(43), 129)
    fields = [sample_kac_stroock(grid, 64.0, s) for s in RngStream(43).split(129)]
    ref = _former_ks_values(f, xs, grid, 64.0, quad, fields)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    np.testing.assert_array_equal(integ.apply(fields[64:128]), got[64:128])
    with pytest.raises(ValueError, match="at most 64"):
        integ.apply(fields[:65])


def _never_evaluated(oracles) -> Integrand:
    """Integrand whose evaluator and given oracles all fail the test when called."""

    def never(*_):
        raise AssertionError("integrand evaluated before the budget check")

    return Integrand(evaluator=never, **{name: never for name in oracles})


@pytest.mark.parametrize("oracles", [(), ("cell_integral",)])
def test_weight_budget_checked_before_any_evaluation(monkeypatch, oracles):
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 3 * 64 - 1)
    grid = GridSpec(d=2, T=1.0, N=8)
    xs = np.full((3, 2), 0.5)
    f = _never_evaluated(oracles)
    shape = r"\(3, 64\)"
    with pytest.raises(BudgetExceededError, match=rf"{shape} would need 1536 bytes"):
        DonskerIntegrator(f, xs, 8, grid.T)
    with pytest.raises(BudgetExceededError, match=shape):
        KacStroockIntegrator(f, xs, grid, 8.0)
    with pytest.raises(BudgetExceededError, match=shape):
        noise_integrator("sheet", f, xs, grid, None)
    # at exactly the budget the weights are built
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 3 * 64)
    ones = Integrand(_on_axes(_ones))
    assert DonskerIntegrator(ones, xs, 8, grid.T).weights.shape == (3, 64)
    assert KacStroockIntegrator(ones, xs, grid, 8.0).weights.shape == (3, 64)


class _NeverDrawn:
    def generator(self):
        raise AssertionError("innovations drawn before the budget check")


def test_donsker_innovation_block_budget(monkeypatch):
    # 10 rows of 64 innovations, drawn from one stream or from one stream per row
    integ = DonskerIntegrator(indicator_integrand(), np.full((3, 2), 0.5), 8, (1.0, 1.0))
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 10 * 64 - 1)
    with pytest.raises(BudgetExceededError, match="would need 640 innovations"):
        integ.replicates(_NeverDrawn(), 10)
    with pytest.raises(BudgetExceededError, match="would need 640 innovations"):
        integ.replicates([_NeverDrawn()] * 10)
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 10 * 64)
    assert integ.replicates(RngStream(45), 10).shape == (10, 3)
    assert integ.replicates(RngStream(45).split(10)).shape == (10, 3)


@pytest.mark.parametrize("oracles, per_cell", [((), 4), (("cell_integral",), 1)])
def test_donsker_budget_counts_quadrature_nodes(monkeypatch, oracles, per_cell):
    # at r = 2 in d = 2 the quadrature fallback evaluates f at 4 nodes per cell
    quad = QuadSpec(r=2)
    xs = np.full((3, 2), 0.5)
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 3 * 64 * per_cell - 1)
    with pytest.raises(BudgetExceededError, match=rf"\(3, {64 * per_cell}\)"):
        DonskerIntegrator(_never_evaluated(oracles), xs, 8, (1.0, 1.0), quad)
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 3 * 64 * per_cell)
    ones = Integrand(_on_axes(_ones))
    if oracles:
        ones.cell_integral = lambda xs, edges: np.ones((len(xs), 8, 8))
    assert DonskerIntegrator(ones, xs, 8, (1.0, 1.0), quad).weights.shape == (3, 64)


def test_restrict_evaluates_only_inside_box():
    axes = [np.linspace(0.1, 1.0, 10), np.linspace(0.0, 0.9, 7)]
    base = _smooth_integrand()
    seen = []

    def ev(xs, sub):
        seen.append(sub)
        return base.evaluator(xs, sub)

    xs = np.array([[0.2, 0.3], [0.9, 0.1]])
    for x in [(0.55, 0.3), (1.0, 0.9), (0.05, 0.5)]:
        seen.clear()
        got = restrict(Integrand(ev), x).evaluator(xs, axes)
        for sub in seen:
            assert all(np.all(a <= c) for a, c in zip(sub, x))
        inside = np.multiply.outer(axes[0] <= x[0], axes[1] <= x[1])
        np.testing.assert_array_equal(got, np.where(inside, base.evaluator(xs, axes), 0.0))
    # no axis value of the first axis lies in [0, 0.05]: f is not called at all
    assert seen == []
