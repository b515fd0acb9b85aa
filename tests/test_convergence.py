"""Statistical diagnostics: FDD tests, moment bounds, tightness, variance."""

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
from sheetlab.green import GreenSeries
from sheetlab.grid import GridField
from sheetlab.integrals import FAMILIES, Integrand
from sheetlab.kernels import BudgetExceededError
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


def test_variance_target_off_the_grid_is_the_indicator_volume():
    # x = (0.33, 0.33) lies inside a cell of the r = 2 refined 16 x 16 grid;
    # whole sub-cells past x gave 0.11816 against |[0, x]| = 0.1089
    grid, cfg = GridSpec(d=2, T=1.0, N=16), DiagConfig(n_list=(4,), M=100, r=2)
    rep = variance_convergence_report(
        indicator_integrand(), "donsker", grid, (0.33, 0.33), cfg, RngStream(0)
    )
    assert rep.config["target"] == pytest.approx(0.33**2, rel=1e-15, abs=0.0)


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
