"""Statistical diagnostics: FDD tests, moment bounds, tightness, variance."""

import json

import numpy as np
import pytest

from sheetlab import (
    DiagConfig,
    GridSpec,
    QuadSpec,
    RngStream,
    fdd_test,
    indicator_integrand,
    moment_bound_probe,
    tightness_modulus_probe,
    variance_convergence_report,
)
from sheetlab.green import GreenSeries
from sheetlab.grid import GridField
from sheetlab.integrals import FAMILIES, Integrand
from sheetlab.solver import SpdeSampler, nonlinearity_preset


def _ones_integrand():
    return Integrand(lambda xs, axes: np.ones((len(xs),) + tuple(len(a) for a in axes)))


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


def test_moment_probe_rejects_zero_norm():
    zero = Integrand(lambda xs, axes: np.zeros((len(xs),) + tuple(len(a) for a in axes)))
    cfg = DiagConfig()
    with pytest.raises(ValueError):
        moment_bound_probe(zero, "donsker", GridSpec(d=1, T=1.0, N=4), cfg, RngStream(0))


def test_moment_probe_donsker_ratio_exactly_one():
    # E[zeta_n(1)^2] = 1 for g == 1 in d=1, any n: exact weight arithmetic
    cfg = DiagConfig(n_list=(4, 16, 64), m=2)
    rep = moment_bound_probe(
        _ones_integrand(), "donsker", GridSpec(d=1, T=1.0, N=4), cfg, RngStream(43)
    )
    for row in rep.per_n:
        assert row["exact"]
        assert row["ratio"] == pytest.approx(1.0, abs=1e-12)
    assert rep.passed()


def test_moment_probe_kac_stroock_bounded():
    cfg = DiagConfig(n_list=(4, 16, 64), m=2, M=2000, quad=QuadSpec(r=4))
    rep = moment_bound_probe(
        _ones_integrand(), "kac-stroock", GridSpec(d=1, T=1.0, N=4), cfg, RngStream(44)
    )
    assert rep.passed()
    assert rep.verdicts["ratios_bounded"]["value"] <= 1.5


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
    cfg = DiagConfig(n_list=(4, 16), M=3000, quad=QuadSpec(r=2))
    rep = variance_convergence_report(
        indicator_integrand(), "donsker", grid, (1.0, 1.0), cfg, RngStream(46)
    )
    assert rep.config["target"] == pytest.approx(1.0)
    assert rep.passed()


def test_report_serialization(tmp_path):
    grid = GridSpec(d=1, T=1.0, N=4)
    cfg = DiagConfig(n_list=(4,), m=2)
    rep = moment_bound_probe(_ones_integrand(), "donsker", grid, cfg, RngStream(47))
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    rep.to_json(jpath)
    rep.to_csv(cpath)
    data = json.loads(jpath.read_text())
    assert data["name"] == "moment_bound_probe"
    assert data["verdicts"]["ratios_bounded"]["ok"] is True
    header = cpath.read_text().splitlines()[0].split(",")
    assert "ratio" in header and "n" in header
