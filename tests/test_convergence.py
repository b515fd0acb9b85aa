"""Statistical diagnostics: FDD tests, moment bounds, tightness, variance."""

import tracemalloc

import numpy as np
import pytest

from sheetlab import (
    DiagConfig,
    GridSpec,
    RngStream,
    fdd_test,
    holder_probe,
    indicator_integrand,
    moment_bound_probe,
    tightness_modulus_probe,
    variance_convergence_report,
)
from sheetlab import convergence, kernels
from sheetlab.green import GreenSeries, green_integrand
from sheetlab.grid import GridField, uniform_cells
from sheetlab.integrals import FAMILIES, Integrand
from sheetlab.kernels import BudgetExceededError
from sheetlab.quadrature import tensor_points
from sheetlab.solver import SpdeSampler, nonlinearity_preset


def test_diagconfig_validation():
    with pytest.raises(ValueError):
        DiagConfig(n_list=(16, 4))
    with pytest.raises(ValueError):
        DiagConfig(M=50)
    with pytest.raises(ValueError):
        DiagConfig(m=1)
    with pytest.raises(ValueError):
        DiagConfig(significance=1.5)
    with pytest.raises(ValueError):
        DiagConfig(q=0.5)
    with pytest.raises(ValueError, match="projections"):
        DiagConfig(projections=0)
    with pytest.raises(ValueError, match="non-empty"):
        DiagConfig(n_list=())


def test_fdd_requires_large_m():
    cfg = DiagConfig(M=500)
    grid = GridSpec(d=1, T=1.0, N=8)
    with pytest.raises(ValueError):
        fdd_test(indicator_integrand(), "donsker", grid, [(0.5,)], cfg, RngStream(0))


def test_fdd_null_case_calibrated():
    # sheet replicates against independent sheet replicates: rejection
    # fraction should sit near the significance level
    grid = GridSpec(d=2, T=1.0, N=8)
    cfg = DiagConfig(n_list=(2,), M=1000, projections=10, significance=0.01)
    rep = fdd_test(
        indicator_integrand(), "sheet", grid, [(0.5, 0.5), (0.75, 0.25)], cfg, RngStream(41)
    )
    final = rep.per_n[-1]
    assert final["rejection_fraction"] <= 0.01 + 3.0 * np.sqrt(0.01 * 0.99 / 10)
    assert rep.passed()


def test_fdd_degenerate_n1_rejected():
    # rademacher partial sum at n=1 is a two-point law, far from Gaussian
    grid = GridSpec(d=1, T=1.0, N=4)
    cfg = DiagConfig(n_list=(1,), M=2000, projections=10, law="rademacher")
    rep = fdd_test(indicator_integrand(), "donsker", grid, [(1.0,)], cfg, RngStream(42))
    assert rep.per_n[-1]["rejection_fraction"] == 1.0
    assert not rep.passed()


def test_unknown_family_is_one_error():
    grid = GridSpec(d=2, T=1.0, N=4)
    cfg = DiagConfig(n_list=(4,), M=1000)
    with pytest.raises(ValueError, match="unknown noise family 'bogus'") as fdd:
        fdd_test(indicator_integrand(), "bogus", grid, [[0.5, 0.5]], cfg, RngStream(0))
    g = GridField.zeros(grid)
    with pytest.raises(ValueError) as solver:
        SpdeSampler("bogus", 4, g, nonlinearity_preset("zero"), GreenSeries(d=2, kmax=4))
    assert str(fdd.value) == str(solver.value)
    assert str(FAMILIES) in str(fdd.value)


@pytest.mark.parametrize("law", ["rademacher", "centered-uniform"])
def test_solution_report_refuses_a_law_it_cannot_draw(monkeypatch, law):
    # SpdeSampler draws standard normals only: refused before any sampler exists
    def no_sampler(*args, **kwargs):
        raise AssertionError("a sampler was built")

    monkeypatch.setattr(convergence, "SpdeSampler", no_sampler)
    grid = GridSpec(d=2, T=1.0, N=4)
    cfg = DiagConfig(n_list=(2, 4), M=100, law=law)
    with pytest.raises(ValueError, match=f"standard-normal innovations, not '{law}'"):
        convergence.solution_convergence_report(
            "donsker", [(0.5, 0.5)], GridField.zeros(grid), nonlinearity_preset("zero"),
            GreenSeries(d=2, kmax=4), cfg, RngStream(0),
        )


def test_moment_probe_rejects_zero_norm():
    # refused on its norm, before any integrator reaches the oracles
    def never(*_):
        raise AssertionError("oracle called before the norm was checked")

    zero = Integrand(
        evaluator=lambda xs, axes: np.zeros((len(xs),) + tuple(len(a) for a in axes)),
        cell_integral=never,
        cell_map=never,
    )
    cfg = DiagConfig()
    with pytest.raises(ValueError):
        moment_bound_probe(zero, "donsker", GridSpec(d=1, T=1.0, N=4), cfg, RngStream(0))


def test_norm_quadrature_budget(monkeypatch):
    # r = 4 on an 8 x 8 grid: the norm's midpoint rule has 32^2 = 1024 nodes
    grid, cfg = GridSpec(d=2, T=1.0, N=8), DiagConfig(r=4)
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 1023)
    with pytest.raises(BudgetExceededError, match="norm quadrature would need 1024"):
        moment_bound_probe(indicator_integrand(), "donsker", grid, cfg, RngStream(0))
    with pytest.raises(BudgetExceededError, match="norm quadrature would need 1024"):
        variance_convergence_report(
            indicator_integrand(), "donsker", grid, (0.5, 0.5), cfg, RngStream(0)
        )
    # off the refined edges each axis's cell that holds x is split in two: 33^2
    with pytest.raises(BudgetExceededError, match="norm quadrature would need 1089"):
        variance_convergence_report(
            indicator_integrand(), "donsker", grid, (0.33, 0.33), cfg, RngStream(0)
        )


def _norm_axes(grid, x):
    """The per-axis midpoints at which _lp_norm (r = 1) evaluates its integrand."""
    seen = []

    def values(axes):
        seen.extend(axes)
        return np.ones(tuple(len(a) for a in axes))

    convergence._lp_norm(values, grid, 1.0, 1, np.asarray(x, dtype=float))
    return seen


@pytest.mark.parametrize("T, N", [(1.0, 8), (1.0, 49), (1.7, 13), (1.7, 5), (0.28, 10)])
def test_norm_quadrature_adds_no_cell_at_T_or_on_an_edge(T, N):
    # at N = 49 and T = 1, 49 * (1 / 49) < 1; at N = 13 and T = 1.7 the last
    # edge lies past 1.7: neither x = T nor an edge of the lattice splits a cell
    grid = GridSpec(d=2, T=T, N=N)
    edges = uniform_cells(N, T)[0]
    for x in ((T, T), (edges[3], edges[-2]), (0.0, T)):
        axes = _norm_axes(grid, x)
        assert [len(a) for a in axes] == [N, N]
        assert all(np.all(a < T) for a in axes)
    # strictly inside a cell, x is one more edge
    axes = _norm_axes(grid, ((edges[2] + edges[3]) / 2, T))
    assert [len(a) for a in axes] == [N + 1, N]


def test_variance_target_off_the_grid_is_the_indicator_volume():
    # x = (0.33, 0.33) lies inside a cell of the r = 2 refined 16 x 16 grid;
    # whole sub-cells past x gave 0.11816 against |[0, x]| = 0.1089
    grid, cfg = GridSpec(d=2, T=1.0, N=16), DiagConfig(n_list=(4,), M=100, r=2)
    rep = variance_convergence_report(
        indicator_integrand(), "donsker", grid, (0.33, 0.33), cfg, RngStream(0)
    )
    assert rep.config["target"] == pytest.approx(0.33**2, rel=1e-15, abs=0.0)


def _at_edge_and_clipped(run):
    """run(p) at p = (1 + 5e-10, 0.5), within point_in_domain's tolerance of D,
    and at its clipped point (1, 0.5)."""
    return run((1.0 + 5e-10, 0.5)), run((1.0, 0.5))


@pytest.mark.parametrize("kmax", [None, 16])
def test_variance_report_integrates_and_records_the_clipped_point(kmax):
    # the point was checked, then discarded: the Green integrand refused
    # 1.0000000005 and the indicator's report recorded it, outside D
    grid, cfg = GridSpec(d=2, T=1.0, N=16), DiagConfig(n_list=(4,), M=100)
    f = indicator_integrand() if kmax is None else green_integrand(GreenSeries(d=2, kmax=kmax))
    off, on = _at_edge_and_clipped(
        lambda p: variance_convergence_report(f, "donsker", grid, p, cfg, RngStream(0))
    )
    assert off.config["x"] == [1.0, 0.5]
    assert (off.config, off.per_n) == (on.config, on.per_n)


def test_fdd_test_integrates_and_records_the_clipped_point():
    grid, cfg = GridSpec(d=2, T=1.0, N=16), DiagConfig(n_list=(4,), M=1000, projections=2)
    f = green_integrand(GreenSeries(d=2, kmax=16))
    off, on = _at_edge_and_clipped(
        lambda p: fdd_test(f, "donsker", grid, [p, (0.5, 0.5)], cfg, RngStream(0))
    )
    assert off.config["probes"][0] == [1.0, 0.5]
    assert (off.config, off.per_n) == (on.config, on.per_n)


def test_tightness_probe_integrates_the_clipped_point():
    # the distance of a pair is that of the points integrated
    grid, cfg = GridSpec(d=2, T=1.0, N=16), DiagConfig(n_list=(4,), M=100)
    f = green_integrand(GreenSeries(d=2, kmax=16))
    x = (0.5, 0.5)
    off, on = _at_edge_and_clipped(
        lambda p: tightness_modulus_probe(
            f, "donsker", grid, [(x, p), (x, (0.7, 0.5)), (x, (0.6, 0.5))], cfg, RngStream(0)
        )
    )
    assert off.per_n[0]["distance"] == 0.5
    assert (off.per_n, off.extra) == (on.per_n, on.extra)


def test_moment_probe_donsker_ratio_exactly_one():
    # E[zeta_n(1)^2] = 1 for g == 1 in d=1, any n: exact weight arithmetic
    cfg = DiagConfig(n_list=(4, 16, 64), m=2)
    rep = moment_bound_probe(
        indicator_integrand(), "donsker", GridSpec(d=1, T=1.0, N=4), cfg, RngStream(43)
    )
    for row in rep.per_n:
        assert row["exact"]
        assert row["ratio"] == pytest.approx(1.0, abs=1e-12)
    assert rep.passed()


def test_moment_probe_kac_stroock_bounded():
    cfg = DiagConfig(n_list=(4, 16, 64), m=2, M=2000, r=4)
    rep = moment_bound_probe(
        indicator_integrand(), "kac-stroock", GridSpec(d=1, T=1.0, N=4), cfg, RngStream(44)
    )
    assert rep.passed()
    assert rep.verdicts["ratios_bounded"]["value"] <= 1.5


def test_report_rows_keep_a_real_kac_stroock_intensity():
    # a whole n is an int, any other a float: n = 4.5 is not written as 4
    assert DiagConfig(n_list=(4.0, 16)).n_list == (4, 16)
    assert all(type(n) is int for n in DiagConfig(n_list=(4.0, 16)).n_list)
    grid, f = GridSpec(d=1, T=1.0, N=4), indicator_integrand()
    cfg = DiagConfig(n_list=(4.5, 16.25), M=1000, projections=2)
    fdd = fdd_test(f, "kac-stroock", grid, [(0.5,)], cfg, RngStream(47))
    var = variance_convergence_report(f, "kac-stroock", grid, (0.5,), cfg, RngStream(48))
    for rep in (fdd, var):
        assert [row["n"] for row in rep.per_n] == [4.5, 16.25]
        assert rep.config["n_list"] == [4.5, 16.25]


def test_tightness_rejects_equal_pairs():
    cfg = DiagConfig()
    grid = GridSpec(d=1, T=1.0, N=8)
    with pytest.raises(ValueError):
        tightness_modulus_probe(
            indicator_integrand(),
            "donsker",
            grid,
            [((0.2,), (0.2,)), ((0.1,), (0.3,)), ((0.1,), (0.5,))],
            cfg,
            RngStream(0),
        )


def test_tightness_rejects_equal_pairs_before_any_integrator(monkeypatch):
    # three distinct distances, then a zero-distance fourth pair
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        raise AssertionError("integrator built before the pairs were checked")

    monkeypatch.setattr(convergence, "noise_integrator", counted)
    pairs = [((0.1,), (0.2,)), ((0.1,), (0.3,)), ((0.1,), (0.5,)), ((0.4,), (0.4,))]
    grid, cfg = GridSpec(d=1, T=1.0, N=8), DiagConfig()
    with pytest.raises(ValueError, match="x = z"):
        tightness_modulus_probe(indicator_integrand(), "donsker", grid, pairs, cfg, RngStream(0))
    assert calls == []


def test_holder_probe_refuses_equal_pairs():
    # three distinct distances, then a zero-distance fourth pair: refused, not skipped
    pairs = [((0.4, 0.5), (0.4 + t, 0.5)) for t in (0.05, 0.1, 0.2)] + [((0.4, 0.5), (0.4, 0.5))]
    with pytest.raises(ValueError, match="x = z"):
        holder_probe(GreenSeries(d=2, kmax=8), 2.5, pairs, r=16, rho=1e-2)


def _holder_pairs(d):
    base = np.array([0.4] + [0.5] * (d - 1))
    return [(base, base + t * np.eye(d)[0]) for t in (0.01, 0.02, 0.04)]


def test_holder_probe_budget_refused_before_any_kernel_value(monkeypatch):
    def never(*_):
        raise AssertionError("kernel values built before the budget check")

    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 16**2 - 1)
    monkeypatch.setattr(convergence, "green_on_axes", never)
    with pytest.raises(BudgetExceededError, match=r"kernel values of shape \(16, 16\)"):
        holder_probe(GreenSeries(d=2, kmax=8), 2.5, _holder_pairs(2), r=16)


@pytest.mark.parametrize("d", [2, 3])
def test_holder_distances_match_the_norm_of_the_node_array(d):
    # the exclusion mask keeps every bit of np.linalg.norm over tensor_points
    axes = [uniform_cells(k, 1.0)[1] for k in (10, 7, 12)[:d]]
    p = np.array([0.3, 0.47, 0.61][:d])
    want = np.linalg.norm(tensor_points(axes) - p, axis=1)
    np.testing.assert_array_equal(convergence._distances(axes, p).ravel(), want)


def test_holder_probe_d3_builds_no_node_array():
    # the (r^3, 3) node array and its two differences peaked at 212 MiB
    tracemalloc.start()
    try:
        est = holder_probe(GreenSeries(d=3, kmax=32), 2.2, _holder_pairs(3), r=128, rho=0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
    # the node-array probe's beta; its last bits follow the BLAS kernel
    assert est.beta == pytest.approx(0.7710980409793974, rel=1e-12, abs=0.0)


def test_probes_outside_domain_rejected():
    grid = GridSpec(d=2, T=1.0, N=4)
    f, cfg, rng = indicator_integrand(), DiagConfig(n_list=(4,)), RngStream(0)
    with pytest.raises(ValueError, match="outside"):
        fdd_test(f, "donsker", grid, [[1.5, 1.5], [0.5, 0.5]], cfg, rng)
    with pytest.raises(ValueError, match="outside"):
        variance_convergence_report(f, "donsker", grid, (2.0, 2.0), cfg, rng)
    pairs = [((0.3, 0.3), (0.3 + t, 0.3 + t)) for t in (0.1, 0.2, 1.4)]
    with pytest.raises(ValueError, match="outside"):
        tightness_modulus_probe(f, "donsker", grid, pairs, cfg, rng)


def test_tightness_donsker_d1_fourth_moment():
    # E|X_n(x) - X_n(z)|^4 ~ 3|x-z|^2 in the limit: slope near 2 > d = 1
    grid = GridSpec(d=1, T=1.0, N=8)
    pairs = [((0.1,), (0.1 + t,)) for t in (0.1, 0.2, 0.4, 0.8)]
    cfg = DiagConfig(n_list=(8, 32), m=4, M=4000)
    rep = tightness_modulus_probe(
        indicator_integrand(), "donsker", grid, pairs, cfg, RngStream(45)
    )
    assert rep.passed()
    assert rep.extra["slope"] == pytest.approx(2.0, abs=0.35)


def test_variance_report_indicator_at_corner():
    grid = GridSpec(d=2, T=1.0, N=8)
    cfg = DiagConfig(n_list=(4, 16), M=3000, r=2)
    rep = variance_convergence_report(
        indicator_integrand(), "donsker", grid, (1.0, 1.0), cfg, RngStream(46)
    )
    assert rep.config["target"] == pytest.approx(1.0)
    assert rep.passed()
