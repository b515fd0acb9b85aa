"""Random-field integrals X_n and their Wiener-integral limits."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheetlab import (
    GridSpec,
    RngStream,
    indicator_integrand,
    zeta,
    zeta_on_axes,
)
from sheetlab.integrals import (
    DRAW_BLOCK,
    DonskerIntegrator,
    Integrand,
    KacStroockIntegrator,
    noise_integrator,
)
from sheetlab import integrals, kernels
from sheetlab.green import GreenSeries, _lam_tensor, _sine_matrix, green_eval, green_integrand
from sheetlab.kernels import (
    INNOVATION_LAWS,
    BudgetExceededError,
    PoissonField,
    donsker_edges,
    ks_rule,
    sample_donsker,
    sample_kac_stroock,
)
from sheetlab.quadrature import tensor_points


def _piecewise_constant(knots, gvals):
    """d = 1, f(x, y) = g_j on (knots_j, knots_{j+1}] whatever x: its cell
    integrals are differences of the indicator's cell overlaps."""

    def cell_weights(e):
        return gvals @ np.diff(kernels.cell_overlaps(knots, e), axis=0)

    def ev(xs, axes):
        idx = np.clip(np.searchsorted(knots, axes[0], side="left") - 1, 0, len(gvals) - 1)
        return np.tile(gvals[idx], (len(xs), 1))

    def ci(xs, edges):
        return np.tile(cell_weights(edges[0]), (len(xs), 1))

    def cm(xs, edges):
        w = cell_weights(edges[0])
        return (lambda Z: np.repeat((Z @ w)[:, None], len(xs), axis=1)), 1

    return Integrand(evaluator=ev, cell_integral=ci, cell_map=cm)


def _one_draw(family, f, xs, grid, n, stream, r=1):
    """The integrator's values at xs for the one kernel field that stream draws."""
    return noise_integrator(family, f, xs, grid, n, r).replicates([stream])[0]


def test_indicator_reduces_to_zeta_donsker():
    grid = GridSpec(d=2, T=1.0, N=4)
    fld = sample_donsker(grid, 4, rng=RngStream(31))
    f = indicator_integrand()
    for x in [(0.3, 0.9), (0.5, 0.5), (1.0, 1.0)]:
        got = _one_draw("donsker", f, [x], grid, 4, RngStream(31))[0]
        assert got == pytest.approx(zeta(fld, x), abs=1e-12)


@pytest.mark.parametrize("n", [4, 64, 256])
def test_indicator_reduces_to_zeta_kac_stroock(n):
    # (0.5, 0.75) lies on sub-cell edges of the one Kac-Stroock rule; the other
    # two points do not, and both integrate the indicator over the cut cells exactly
    grid = GridSpec(d=2, T=1.0, N=4)
    fld = sample_kac_stroock(grid, float(n), RngStream(32))
    f = indicator_integrand()
    for x in [(0.5, 0.75), (0.3, 0.3), (0.33, 0.71)]:
        got = _one_draw("kac-stroock", f, [x], grid, n, RngStream(32), 8)
        assert got[0] == pytest.approx(zeta(fld, x, 8), rel=1e-13)


def test_donsker_oracle_matches_brute_force():
    grid = GridSpec(d=2, T=1.0, N=2)
    n = 4
    fld = sample_donsker(grid, n, rng=RngStream(33))
    f = green_integrand(GreenSeries(d=2, kmax=8))
    x = np.array([0.4, 0.6])
    got = _one_draw("donsker", f, [x], grid, n, RngStream(33))[0]
    # brute force: n^{d/2} sum_k Z_k * (cell integral by dense midpoints)
    m = 40
    total = 0.0
    for i in range(n):
        for j in range(n):
            ys = [(i + (np.arange(m) + 0.5) / m) / n, (j + (np.arange(m) + 0.5) / m) / n]
            total += fld.Z[i, j] * f.evaluator(x[None], ys)[0].mean() / n**2
    assert got == pytest.approx(n * total, rel=1e-4)


def test_piecewise_constant_factorizes_through_zeta():
    # d=1: f(y) = sum g_j I_{(x_{j-1}, x_j]} gives X_n = sum g_j (zeta(x_j) - zeta(x_{j-1}))
    grid = GridSpec(d=1, T=1.0, N=4)
    fld = sample_donsker(grid, 8, rng=RngStream(36))
    knots = np.array([0.0, 0.25, 0.5, 1.0])
    gvals = np.array([2.0, -1.0, 0.5])
    f = _piecewise_constant(knots, gvals)
    got = _one_draw("donsker", f, [[0.0]], grid, 8, RngStream(36))[0]
    expect = sum(
        g * (zeta(fld, (b,)) - zeta(fld, (a,)))
        for g, a, b in zip(gvals, knots[:-1], knots[1:])
    )
    assert got == pytest.approx(expect, abs=1e-12)


def test_donsker_integrator_second_moment_exact():
    # for the indicator, E[X_n(x)^2] = n^d sum w_k^2 with w_k the overlap volumes
    f = indicator_integrand()
    integ = DonskerIntegrator(f, [np.array([0.5])], donsker_edges(4, (1.0,)), 4**0.5)
    assert integ.second_moment()[0] == pytest.approx(0.5)


def test_limit_field_matches_sheet_nodes():
    # the sheet integrator of the indicator is zeta of the Donsker field at n = N
    grid = GridSpec(d=2, T=1.0, N=4)
    nodes = [grid.axis_nodes(i) for i in range(2)]
    W = zeta_on_axes(sample_donsker(grid, 4, rng=RngStream(37)), nodes)
    vals = _one_draw("sheet", indicator_integrand(), grid.node_points(), grid, None, RngStream(37))
    np.testing.assert_allclose(vals.reshape(grid.node_shape), W, atol=1e-12)


def test_limit_field_variance_isometry():
    grid = GridSpec(d=1, T=1.0, N=8)
    f = _piecewise_constant(np.array([0.0, 0.3, 0.55, 1.0]), np.array([1.5, -0.5, 2.0]))
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
    former SheetIntegrator: exact cell averages against increments sqrt(cv) Z,
    and the variance sum F^2 cv."""
    cv = grid.cell_volume
    edges = [grid.axis_nodes(k) for k in range(grid.d)]
    F = np.asarray(f.cell_integral(xs, edges)).reshape(xs.shape[0], -1) / cv
    incr = rng.generator().standard_normal((M, F.shape[1])) * np.sqrt(cv)
    return incr @ F.T, np.sum(F**2, axis=1) * cv


def _sheet_case(kind, d, N, T, seed):
    if kind == "green":
        grid = GridSpec(d=d, T=1.0, N=N)
        f = green_integrand(GreenSeries(d=d, kmax=6))
    else:
        grid = GridSpec(d=d, T=T, N=N)
        f = indicator_integrand()
    xs = RngStream(seed).substream(1).generator().uniform(0.05, 0.95, size=(3, d)) * grid.T
    return f, xs, grid


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["indicator", "green"]),
    d=st.sampled_from([1, 2, 3]),
    N=st.integers(1, 10),
    T=st.sampled_from([1.0, 0.28, 1.7]),
    seed=st.integers(0, 2**16),
)
def test_sheet_driver_matches_former_sheet_integrator(kind, d, N, T, seed):
    if kind == "green":
        d = max(d, 2)
    f, xs, grid = _sheet_case(kind, d, N, T, seed)
    integ = noise_integrator("sheet", f, xs, grid, None)
    assert integ.cell_shape == grid.N
    got = integ.replicates(RngStream(seed), 50)
    ref, ref_var = _former_sheet(f, xs, grid, RngStream(seed), 50)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    var = integ.second_moment()
    assert np.max(np.abs(var - ref_var)) <= 1e-12 * np.max(ref_var)


@pytest.mark.parametrize("kind", ["indicator", "green"])
@pytest.mark.parametrize("d, N", [(2, 16), (2, 32), (3, 8)])
def test_sheet_is_donsker_at_dyadic_n_equals_grid_n(kind, d, N):
    """On the unit cube with a dyadic N, the grid's nodes j / N and the Donsker
    cell edges j / n at n = N are the same doubles, and so are the scales
    cell_volume^{-1/2} and n^{d/2}; at other N (10, 12) the two can differ in
    the last bits."""
    f, xs, grid = _sheet_case(kind, d, N, 1.0, 44)
    sheet = noise_integrator("sheet", f, xs, grid, None)
    donsker = DonskerIntegrator(f, xs, donsker_edges(N, grid.T), N ** (d / 2.0))
    np.testing.assert_array_equal(sheet.weights, donsker.weights)
    np.testing.assert_array_equal(
        sheet.replicates(RngStream(44), 50), donsker.replicates(RngStream(44), 50)
    )


_MODE_CASES = [(2, 16, 64, n) for n in (4, 10, 64, "sheet")] + [(3, 8, 32, 4), (3, 8, 32, 16)]


@pytest.mark.parametrize(
    "kind, d, N, kmax, n",
    [pytest.param("green", *case, id="-".join(map(str, case))) for case in _MODE_CASES]
    + [pytest.param("indicator", d, N, None, n, id=f"indicator-{d}-{N}-{n}")
       for d, N, _, n in _MODE_CASES],
)
def test_green_mode_route_matches_dense_weights(kind, d, N, kmax, n):
    """Green noise at the interior nodes through the cell moments, 1 / lambda
    and the node sines, and indicator noise through the nodes' cell overlaps,
    agree with the dense cell_integral weights within 1e-14 of the largest
    value, and the sheet's second moment keeps the dense bits."""
    grid = GridSpec(d=d, T=1.0, N=N)
    xs = tensor_points([grid.axis_nodes(i)[1:-1] for i in range(d)])
    f = green_integrand(GreenSeries(d=d, kmax=kmax)) if kind == "green" else indicator_integrand()
    if n == "sheet":
        integ = noise_integrator("sheet", f, xs, grid, None)
        cv = grid.cell_volume
        F = f.cell_integral(xs, [grid.axis_nodes(i) for i in range(d)]).reshape(len(xs), -1) / cv
        np.testing.assert_array_equal(integ.second_moment(), np.sum(F**2, axis=1) * cv)
    else:
        integ = noise_integrator("donsker", f, xs, grid, n)
    assert integ.modes == (kmax**d if kind == "green" else len(xs))
    ncells = int(np.prod(integ.cell_shape))
    got = integ.replicates(RngStream(47), 20)
    Z = kernels._draw_innovations(RngStream(47).generator(), "standard-normal", (20, ncells))
    ref = integ.scale * (Z @ integ.weights.T)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("T", [1.0, 0.28, 1.7])
@pytest.mark.parametrize("seed", [1, 2])
def test_donsker_indicator_replicate_is_zeta_on_axes(d, T, seed):
    # one replicate at the grid nodes is simulate's zeta_n, bit for bit
    grid = GridSpec(d=d, T=T, N=8)
    axes = [grid.axis_nodes(i) for i in range(d)]
    integ = noise_integrator("donsker", indicator_integrand(), tensor_points(axes), grid, 4)
    want = zeta_on_axes(sample_donsker(grid, 4, rng=RngStream(seed)), axes).ravel()
    np.testing.assert_array_equal(integ.replicates(RngStream(seed), 1)[0], want)


def test_donsker_indicator_block_is_its_rows_one_at_a_time():
    # one BLAS call per field, shaped as for a lone field: a block of 64 fields
    # at the 17 x 17 nodes is the same fields applied one at a time
    grid = GridSpec(d=2, T=1.0, N=16)
    xs = tensor_points([grid.axis_nodes(i) for i in range(2)])
    integ = noise_integrator("donsker", indicator_integrand(), xs, grid, 64)
    Z = kernels._draw_innovations(RngStream(51).generator(), "standard-normal", (64, 64 * 64))
    rows = np.concatenate([integ.apply_innovations(z[None]) for z in Z])
    np.testing.assert_array_equal(integ.apply_innovations(Z), rows)


@pytest.mark.parametrize("d", [2, 3])
def test_green_cell_map_gathers_scattered_points(d):
    # points off any tensor grid, two sharing a coordinate, one on the boundary
    gs = GreenSeries(d=d, kmax=8)
    xs = RngStream(48).generator().uniform(0.0, 1.0, size=(7, d))
    xs[1, 0], xs[2, :] = xs[0, 0], 1.0
    edges = donsker_edges(5, (1.0,) * d)
    apply, modes = green_integrand(gs).cell_map(xs, edges)
    assert modes == 8**d
    Z = RngStream(49).generator().standard_normal((4,) + (5,) * d)
    W = green_integrand(gs).cell_integral(xs, edges).reshape(7, -1)
    ref = Z.reshape(4, -1) @ W.T
    got = apply(Z)
    assert got.shape == (4, 7)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_green_mode_route_coefficients_budgeted(monkeypatch):
    # 16 sheet cells, kmax 8: 3 rows hold 48 innovations and 3 x 64 mode
    # coefficients; a budget of 191 refuses the coefficients before any draw
    grid = GridSpec(d=2, T=1.0, N=4)
    f = green_integrand(GreenSeries(d=2, kmax=8))
    integ = noise_integrator("sheet", f, [(0.5, 0.5)], grid, None)
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 3 * 64 - 1)
    refusal = r"mode coefficients of shape \(3, 64\) would need 1536 bytes"
    with pytest.raises(BudgetExceededError, match=refusal):
        integ.replicates(_NeverDrawn(), 3)
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 3 * 64)
    assert integ.replicates(RngStream(50), 3).shape == (3, 1)


def _ks_reference(f, xs, grid, n, r, fields):
    """Kac-Stroock values sum_c theta_n(mid_c) int_c f(x, y) dy over the rule's
    sub-cells c, with theta_n's parity counted by cumulative sums and int_c f
    from f's cell_integral oracle; shape (len(fields), npts)."""
    edges, mids = ks_rule(grid, n, r)
    cells = [len(m) for m in mids]
    wmat = f.cell_integral(xs, edges).reshape(len(xs), -1)
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
        out.append(wmat @ theta.ravel())
    return np.array(out)


def _crafted_sampler(anchor, r):
    """A kernels._poisson_points stand-in whose fields hit the parity grid's edge
    cases: no points, one point twice, a point on the r-fold rule's midpoints, a
    point past the last midpoint and a point (anchor) shared by several fields."""

    def sample(gen, grid, n):
        T = np.asarray(grid.T)
        mids = ks_rule(grid, n, r)[1]
        on_mid = np.array([m[j] for m, j in zip(mids, gen.integers(0, [len(m) for m in mids]))])
        past = gen.uniform(size=grid.d) * T
        axis = gen.integers(grid.d)
        past[axis] = T[axis]
        pts = gen.uniform(size=(int(gen.integers(0, 6)), grid.d)) * T
        extra = [pts[:1], on_mid[None], past[None], anchor[None]]
        use = gen.integers(0, 2, size=len(extra)).astype(bool)
        pts = np.concatenate([pts] + [e for e, u in zip(extra, use) if u])
        if gen.integers(0, 4) == 0:
            pts = pts[:0]
        return pts

    return sample


def _ks_case(kind, d, N, seed):
    grid = GridSpec(d=d, T=(1.0, 0.75, 1.25)[:d] if kind != "green" else 1.0, N=N)
    f = green_integrand(GreenSeries(d=d, kmax=6)) if kind == "green" else indicator_integrand()
    xs = RngStream(seed).substream(1).generator().uniform(0.05, 0.95, size=(3, d)) * grid.T
    return f, xs, grid


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["indicator", "green"]),
    d=st.sampled_from([1, 2, 3]),
    N=st.integers(1, 4),
    n=st.integers(1, 8),
    r=st.integers(1, 3),
    M=st.sampled_from([1, 63, 64, 65, 129]),
    seed=st.integers(0, 2**16),
)
def test_kac_stroock_replicates_match_former_dense_rule(kind, d, N, n, r, M, seed):
    if kind == "green":
        d = max(d, 2)
    f, xs, grid = _ks_case(kind, d, N, seed)
    integ = KacStroockIntegrator(f, xs, grid, float(n), r)
    sample = _crafted_sampler(xs[0], r)
    with mock.patch.object(integrals, "_poisson_points", sample):
        got = integ.replicates(RngStream(seed), M)
    fields = [
        PoissonField(n=float(n), grid=grid, points=sample(s.generator(), grid, float(n)))
        for s in RngStream(seed).split(M)
    ]
    ref = _ks_reference(f, xs, grid, float(n), r, fields)
    assert got.shape == (M, 3)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_kac_stroock_replicates_over_several_chunks():
    # the field-law rule at n = 64: 128^2 sub-cells, 129 fields in three parity grids
    grid = GridSpec(d=2, T=1.0, N=32)
    xs = np.array([[0.25, 0.25], [0.5, 0.5], [0.75, 0.75]])
    f = indicator_integrand()
    integ = KacStroockIntegrator(f, xs, grid, 64.0, 2)
    assert integ.cell_shape == (128, 128)
    got = integ.replicates(RngStream(43), 129)
    streams = RngStream(43).split(129)
    ref = _ks_reference(f, xs, grid, 64.0, 2, [sample_kac_stroock(grid, 64.0, s) for s in streams])
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    # a stream list draws the same fields in blocks of its own
    np.testing.assert_array_equal(integ.replicates(streams[64:128]), got[64:128])


@pytest.mark.parametrize("kind, d", [("indicator", 1), ("indicator", 2), ("indicator", 3),
                                     ("green", 2), ("green", 3)])
def test_kac_stroock_block_is_its_fields_one_at_a_time(kind, d):
    # 70 fields: a full parity grid, then one of 6 fields (a partial byte);
    # each cell map contracts every field by its own BLAS calls
    f, xs, grid = _ks_case(kind, d, 3, 47)
    integ = KacStroockIntegrator(f, xs, grid, 6.0, 2)
    got = integ.replicates(RngStream(47), 70)
    for k in range(70):
        np.testing.assert_array_equal(got[k], integ.replicates([RngStream(47).substream(k)])[0])


def test_no_points_give_an_empty_stack():
    grid = GridSpec(d=2, T=1.0, N=4)
    for family in ("donsker", "kac-stroock", "sheet"):
        integ = noise_integrator(family, indicator_integrand(), np.empty((0, 2)), grid, 8)
        assert integ.replicates(RngStream(46), 3).shape == (3, 0)


def _never_evaluated(oracles) -> Integrand:
    """The indicator, but the given oracles fail the test when called."""

    def never(*_):
        raise AssertionError("integrand evaluated before the budget check")

    f = indicator_integrand()
    for name in oracles:
        setattr(f, name, never)
    return f


@pytest.mark.parametrize("oracles", [("cell_integral",), ("cell_integral", "evaluator")])
def test_weight_budget_checked_before_any_evaluation(monkeypatch, oracles):
    # every integrator is built through the cell map; its (3, 64) weights are
    # refused before the cell integrals (or the evaluator) are called
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 3 * 64 - 1)
    grid = GridSpec(d=2, T=1.0, N=8)
    xs = np.full((3, 2), 0.5)
    f = _never_evaluated(oracles)
    shape = r"\(3, 64\)"
    donsker = DonskerIntegrator(f, xs, donsker_edges(8, grid.T), 8.0)
    with pytest.raises(BudgetExceededError, match=rf"{shape} would need 1536 bytes"):
        donsker.weights
    with pytest.raises(BudgetExceededError, match=shape):
        donsker.second_moment()
    with pytest.raises(BudgetExceededError, match=shape):
        KacStroockIntegrator(f, xs, grid, 8.0).weights
    with pytest.raises(BudgetExceededError, match=shape):
        noise_integrator("sheet", f, xs, grid, None).weights
    # at exactly the budget the weights are built
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 3 * 64)
    f = indicator_integrand()
    assert DonskerIntegrator(f, xs, donsker_edges(8, grid.T), 8.0).weights.shape == (3, 64)
    assert KacStroockIntegrator(f, xs, grid, 8.0).weights.shape == (3, 64)


class _NeverDrawn:
    def generator(self):
        raise AssertionError("innovations drawn before the budget check")

    def split(self, count):
        raise AssertionError("streams split before the budget check")


def test_donsker_innovation_block_budget(monkeypatch):
    # 10 rows of 64 innovations are one block: a budget of 640 entries draws
    # it, from one stream or from one stream per row
    integ = DonskerIntegrator(
        indicator_integrand(), np.full((3, 2), 0.5), donsker_edges(8, (1.0, 1.0)), 8.0
    )
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 10 * 64)
    assert integ.replicates(RngStream(45), 10).shape == (10, 3)
    assert integ.replicates(RngStream(45).split(10)).shape == (10, 3)
    # one entry less refuses the block before any innovation is drawn
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 10 * 64 - 1)
    block = r"innovation block of shape \(10, 8, 8\) would need 5120 bytes"
    with pytest.raises(BudgetExceededError, match=block):
        integ.replicates(_NeverDrawn(), 10)
    with pytest.raises(BudgetExceededError, match=block):
        integ.replicates([_NeverDrawn()] * 10)
    # values above the budget are refused first
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 10 * 3 - 1)
    with pytest.raises(BudgetExceededError, match=r"shape \(10, 3\) would need 240 bytes"):
        integ.replicates(_NeverDrawn(), 10)
    with pytest.raises(BudgetExceededError, match=r"shape \(10, 3\) would need 240 bytes"):
        integ.replicates([_NeverDrawn()] * 10)


def test_kac_stroock_replicate_values_budget(monkeypatch):
    # the (5, 2) values, then the 5 fields of the first parity byte on the
    # 4 x 4 rule cells: each refused before any substream is made or field drawn
    integ = KacStroockIntegrator(indicator_integrand(), np.full((2, 2), 0.5), GridSpec(d=2, N=4), 4.0)
    for budget, refusal in ((5 * 2 - 1, r"replicate values of shape \(5, 2\) would need 80 bytes"),
                            (5 * 16 - 1, r"cell value block of shape \(5, 4, 4\) would need 640 bytes")):
        monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", budget)
        with pytest.raises(BudgetExceededError, match=refusal):
            integ.replicates(_NeverDrawn(), 5)
        with pytest.raises(BudgetExceededError, match=refusal):
            integ.replicates([_NeverDrawn()] * 5)
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 5 * 16)
    assert integ.replicates(RngStream(46), 5).shape == (5, 2)


def _donsker_case(law, d, n, seed):
    xs = RngStream(seed).substream(1).generator().uniform(0.05, 0.95, size=(3, d))
    return DonskerIntegrator(
        indicator_integrand(), xs, donsker_edges(n, (1.0,) * d), n ** (d / 2.0), law=law
    )


@settings(max_examples=60, deadline=None)
@given(
    law=st.sampled_from(INNOVATION_LAWS),
    d=st.sampled_from([1, 2, 3]),
    n=st.integers(1, 20),
    block=st.sampled_from([DRAW_BLOCK, 64, 5]),
    count=st.sampled_from(["one", "one block", "blocks"]),
    extra=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
)
def test_donsker_row_blocks_match_one_draw(law, d, n, block, count, extra, seed):
    """Row blocks drawn from one generator are the innovations of one
    (M, cells) draw; the per-block products agree with the one-shot product
    to rounding (OpenBLAS picks its kernel by the block's size)."""
    integ = _donsker_case(law, d, n, seed)
    ncells = n**d
    rows = max(1, block // ncells)
    M = {"one": 1, "one block": rows, "blocks": (2 + extra % 2) * rows + extra % rows}[count]
    with mock.patch.object(integrals, "DRAW_BLOCK", block):
        got = integ.replicates(RngStream(seed), M)
    Z = kernels._draw_innovations(RngStream(seed).generator(), law, (M, ncells))
    ref = integ.scale * (Z @ integ.weights.T)
    assert got.shape == (M, 3)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=30, deadline=None)
@given(
    law=st.sampled_from(INNOVATION_LAWS),
    d=st.sampled_from([1, 2, 3]),
    n=st.integers(1, 6),
    block=st.sampled_from([DRAW_BLOCK, 64, 5]),
    M=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_donsker_stream_list_draws_one_row_per_stream(law, d, n, block, M, seed):
    integ = _donsker_case(law, d, n, seed)
    streams = RngStream(seed).split(M)
    with mock.patch.object(integrals, "DRAW_BLOCK", block):
        got = integ.replicates(streams)
    Z = np.stack([kernels._draw_innovations(s.generator(), law, n**d) for s in streams])
    ref = integ.scale * (Z @ integ.weights.T)
    assert got.shape == (M, 3)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_donsker_replicates_never_hold_all_innovations():
    # field-law's Donsker report at n = 64: 5000 x 4096 innovations, 156 MiB at once
    integ = DonskerIntegrator(
        indicator_integrand(), np.full((5, 2), 0.5), donsker_edges(64, (1.0, 1.0)), 64.0
    )
    tracemalloc.start()
    try:
        integ.replicates(RngStream(1), 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_donsker_integrator_refuses_a_non_whole_scale():
    # int(4.5) would build the n = 4 weights under the name n = 4.5
    grid = GridSpec(d=2, T=1.0, N=4)
    with pytest.raises(ValueError, match="whole number, got 4.5"):
        noise_integrator("donsker", indicator_integrand(), [(0.5, 0.5)], grid, 4.5)


def test_donsker_lattice_refused_before_any_edge():
    # n = 2.5e6 on the unit square: 6.25e12 cells, refused before the
    # 2 x 2.5e6 edges (40 MB) are built
    grid = GridSpec(d=2, T=1.0, N=4)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="Donsker lattice would need 6250000000000 cells"):
            noise_integrator("donsker", indicator_integrand(), [(0.5, 0.5)], grid, 2_500_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "oracles, r", [(("cell_integral", "evaluator"), 2), (("cell_integral",), 1)]
)
def test_donsker_budget_counts_quadrature_nodes(monkeypatch, oracles, r):
    # r refines the Kac-Stroock rule alone: at any r the Donsker weights count
    # one exact cell integral per cell, refused before any is computed
    grid = GridSpec(d=2, T=1.0, N=4)
    xs = np.full((3, 2), 0.5)
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 3 * 64 - 1)
    integ = noise_integrator("donsker", _never_evaluated(oracles), xs, grid, 8, r)
    with pytest.raises(BudgetExceededError, match=r"\(3, 64\)"):
        integ.weights
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 3 * 64)
    integ = noise_integrator("donsker", indicator_integrand(), xs, grid, 8, r)
    assert integ.weights.shape == (3, 64)


def _former_donsker_block_loop(integ, rng, M=None):
    """Reference: the Donsker block loop before slabs. Blocks of about 2^18
    innovations or mode coefficients were drawn whole, from one generator in
    order or from one generator per stream, and applied at once."""
    streams = list(rng) if M is None else None
    M = len(streams) if M is None else M
    ncells = int(np.prod(integ.cell_shape))
    rows = max(1, (1 << 18) // max(ncells, integ.modes, 1))
    gen = rng.generator() if streams is None else None
    out = np.empty((M, integ.npts))
    for lo in range(0, M, rows):
        hi = min(lo + rows, M)
        if gen is not None:
            Z = kernels._draw_innovations(gen, integ.law, (hi - lo, ncells))
        else:
            Z = np.empty((hi - lo, ncells))
            for row, s in zip(Z, streams[lo:hi]):
                row[:] = kernels._draw_innovations(s.generator(), integ.law, ncells)
        out[lo:hi] = integ.apply_innovations(Z)
    return out


# (integrand, d, n): each lattice or mode tensor has 4096 entries, so a block
# holds 64 fields and a slab 16
_SLAB_CASES = [("indicator", 1, 4096), ("indicator", 2, 64), ("indicator", 3, 16),
               ("green", 2, 64), ("green", 3, 16)]


@pytest.fixture(scope="module", params=_SLAB_CASES, ids=lambda c: "-".join(map(str, c)))
def slab_case(request):
    kind, d, n = request.param
    grid = GridSpec(d=d, T=1.0, N=4)
    xs = RngStream(52).generator().uniform(0.05, 0.95, size=(5, d))
    f = green_integrand(GreenSeries(d=d, kmax=n)) if kind == "green" else indicator_integrand()
    return {law: noise_integrator("donsker", f, xs, grid, n, law=law) for law in INNOVATION_LAWS}


@pytest.mark.parametrize("law", INNOVATION_LAWS)
@pytest.mark.parametrize("route", ["one generator", "streams"])
@pytest.mark.parametrize("M", [1, 15, 16, 17, 64, 65, 129])
def test_donsker_slabs_match_the_former_block_loop_bit_for_bit(slab_case, law, route, M):
    """Blocks of 64 fields, drawn and applied in slabs of 16, give the bits of
    whole 64-field blocks, on both routes and for every law and integrand."""
    integ = slab_case[law]
    assert (integ._rows, integ._applied) == (64, 16)
    rng = RngStream(53, 2) if route == "one generator" else RngStream(53, 2).split(M)
    count = M if route == "one generator" else None
    got = integ.replicates(rng, count)
    np.testing.assert_array_equal(got, _former_donsker_block_loop(integ, rng, count))


def test_donsker_replicates_hold_one_slab_of_innovations_and_coefficients():
    # the 64 fields of a 64 x 64 Green block at kmax 64: whole, its innovations
    # and two mode tensors took 6 MiB; slabs of 16 hold a quarter of each
    grid = GridSpec(d=2, T=1.0, N=4)
    integ = noise_integrator("donsker", green_integrand(GreenSeries(d=2, kmax=64)),
                             np.full((3, 2), 0.5), grid, 64)
    for rng, M in ((RngStream(54), 64), (RngStream(54).split(64), None)):
        tracemalloc.start()
        try:
            integ.replicates(rng, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak
