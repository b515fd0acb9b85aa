"""Acceptance gate: twelve quantitative criteria, one test (and one printed
pass/fail line) per criterion.  Seeds and tolerances are pinned; every
reference value is computed by an independent oracle or a closed form."""

import json
import os

import numpy as np
import pytest
from scipy import stats

from sheetlab import (
    DiagConfig,
    GreenSeries,
    GridSpec,
    RngStream,
    SolveConfig,
    WosConfig,
    fdd_test,
    green_eval,
    green_l2_norm,
    green_mc_estimate,
    holder_probe,
    indicator_integrand,
    k_apply,
    lambda_sup,
    moment_bound_probe,
    poincare_constant,
    psi_continuity_check,
    sheet_covariance,
    solution_convergence_report,
    solve_contraction,
    variance_convergence_report,
    zeta,
)
from sheetlab.grid import GridField
from sheetlab.green import (
    _lam_tensor,
    green_integrand,
    green_tail_estimate,
    green_values,
    grid_sine_coefficients,
    sine_synthesis,
)
from sheetlab.integrals import noise_integrator
from sheetlab.kernels import PoissonField, sample_donsker
from sheetlab.quadrature import tensor_points
from sheetlab.solver import SpdeSampler, nonlinearity_preset

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_01_sheet_covariance():
    """Empirical Cov(W(x), W(z)) matches prod min(x_i, z_i) within 3 SE."""
    M = 20_000
    rng = RngStream(404)
    ok = True
    for d, N in [(1, 64), (2, 16), (3, 8)]:
        grid = GridSpec(d=d, T=1.0, N=N)
        pgen = rng.substream(10 + d).generator()
        pairs = pgen.uniform(0.1, 1.0, size=(10, 2, d))
        pts = np.vstack([pairs[:, 0], pairs[:, 1]])
        integ = noise_integrator("sheet", indicator_integrand(), pts, grid, None)
        # M rows of standard normals from the generator of rng.substream(d)
        W = integ.replicates(rng.substream(d), M)
        for i in range(10):
            prod = W[:, i] * W[:, 10 + i]
            se = prod.std(ddof=1) / np.sqrt(M)
            target = sheet_covariance(pairs[i, 0], pairs[i, 1])
            ok &= abs(prod.mean() - target) <= 3.0 * se
    _report(1, "sheet covariance", ok)


def test_criterion_02_zeta_exactness():
    """Donsker zeta = scaled partial sums exactly; Kac-Stroock empty-set zeta
    matches the closed-form integral within 1e-4 at r = 64."""
    ok = True
    rng = RngStream(100)
    for d in (1, 2):
        grid = GridSpec(d=d, T=1.0, N=4)
        for n in (2, 4, 8):
            fld = sample_donsker(grid, n, rng=rng.substream(10 * d + n))
            for k in range(1, n + 1):
                x = np.full(d, k / n)
                partial = n ** (-d / 2.0) * fld.Z[
                    tuple(slice(0, k) for _ in range(d))
                ].sum()
                ok &= abs(zeta(fld, x) - partial) < 1e-12
    for d in (1, 2):
        grid = GridSpec(d=d, T=1.0, N=4)
        empty = PoissonField(n=4.0, grid=grid, points=np.zeros((0, d)))
        for xc in (0.7, 1.0):
            x = np.full(d, xc)
            p = (d + 1) / 2.0
            closed = 4.0 ** (d / 2.0) * float(np.prod(x**p / p))
            ok &= abs(zeta(empty, x, 64) - closed) <= 1e-4
    _report(2, "zeta exactness", ok)


def test_criterion_03_variance_convergence():
    """E[X_n(x)^2] at n = 64 within 3 SE of prod x_i, both families, d = 2."""
    grid = GridSpec(d=2, T=1.0, N=64)
    x = (0.75, 0.75)
    ok = True
    for stream, family in enumerate(("donsker", "kac-stroock")):
        cfg = DiagConfig(n_list=(64,), M=5000, r=2)
        rep = variance_convergence_report(
            indicator_integrand(), family, grid, x, cfg, RngStream(303).substream(stream)
        )
        assert rep.config["target"] == pytest.approx(0.5625)
        ok &= rep.passed()
    _report(3, "variance convergence", ok)


def test_criterion_04_fdd_convergence():
    """Cramer-Wold FDD probe: n = 32 mostly accepted, n = 1 rejected."""
    grid = GridSpec(d=2, T=1.0, N=32)
    probes = [(0.25, 0.5), (0.5, 0.25), (0.75, 0.75)]
    cfg = DiagConfig(
        n_list=(1, 32), M=5000, projections=10, significance=0.01, law="rademacher"
    )
    rep = fdd_test(indicator_integrand(), "donsker", grid, probes, cfg, RngStream(2024))
    degenerate_rejected = rep.per_n[0]["rejection_fraction"] > 0.2
    ok = rep.passed() and degenerate_rejected
    _report(4, "fdd convergence", ok)


def test_criterion_05_moment_bound():
    """Donsker m = 2 ratio exactly one across n; Kac-Stroock ratios bounded."""
    grid = GridSpec(d=1, T=1.0, N=4)
    # at x = T the indicator is g = 1 on D
    ones = indicator_integrand()
    cfg = DiagConfig(n_list=(4, 16, 64), m=2, M=10_000, r=4)
    rep_d = moment_bound_probe(ones, "donsker", grid, cfg, RngStream(515))
    exact_one = all(
        row["exact"] and abs(row["ratio"] - 1.0) < 1e-12 for row in rep_d.per_n
    )
    rep_k = moment_bound_probe(ones, "kac-stroock", grid, cfg, RngStream(516))
    ok = exact_one and rep_d.passed() and rep_k.passed()
    _report(5, "moment bound", ok)


def test_criterion_06_green_cross_validation():
    """|series - walk-on-spheres| <= 3 SE + tail bound at 5 pairs, d in {2,3}."""
    pairs = {
        2: [
            ((0.3, 0.4), (0.6, 0.7)),
            ((0.25, 0.25), (0.75, 0.75)),
            ((0.5, 0.5), (0.2, 0.8)),
            ((0.4, 0.6), (0.5, 0.5)),
            ((0.7, 0.3), (0.3, 0.3)),
        ],
        3: [
            ((0.3, 0.4, 0.5), (0.6, 0.7, 0.4)),
            ((0.25, 0.25, 0.25), (0.75, 0.75, 0.75)),
            ((0.5, 0.5, 0.5), (0.2, 0.8, 0.4)),
            ((0.4, 0.6, 0.5), (0.5, 0.5, 0.5)),
            ((0.7, 0.3, 0.6), (0.3, 0.3, 0.3)),
        ],
    }
    cfg = WosConfig(walks=100_000)
    rng = RngStream(606)
    ok = True
    for d in (2, 3):
        gs = GreenSeries(d=d)  # kmax 64 and 32
        for i, (x, y) in enumerate(pairs[d]):
            est, se = green_mc_estimate(x, y, cfg, rng.substream(100 * d + i))
            gap = abs(green_eval(gs, x, y) - est)
            ok &= gap <= 3.0 * se + green_tail_estimate(gs, x, y)
    _report(6, "green cross-validation", ok)


def test_criterion_07_parseval():
    """Parseval norm vs rho-excluded quadrature within 2% at 5 probes, d = 2."""
    gs = GreenSeries(d=2, kmax=64)
    m = 512
    mids = [(np.arange(m) + 0.5) / m] * 2
    pts = tensor_points(mids)
    ok = True
    for x in [(0.5, 0.5), (0.3, 0.7), (0.25, 0.4), (0.8, 0.8), (0.6, 0.45)]:
        xv = np.asarray(x)
        vals = green_values(gs, xv, pts)
        mask = np.linalg.norm(pts - xv, axis=1) > 1e-3
        quad = float(np.sum(vals[mask] ** 2) / m**2)
        ref = green_l2_norm(gs, xv) ** 2
        ok &= abs(quad - ref) <= 0.02 * ref
    _report(7, "parseval consistency", ok)


def test_criterion_08_poincare():
    """Spectral inequality with a = d pi^2 holds termwise; equality on the
    minimal mode."""
    grid = GridSpec(d=2, T=1.0, N=16)
    gs = GreenSeries(d=2)
    a = poincare_constant(gs)
    gen = RngStream(707).generator()
    ok = True
    for _ in range(100):
        phi = GridField.zeros(grid)
        phi.values[1:-1, 1:-1] = gen.standard_normal((15, 15))
        coef = grid_sine_coefficients(gs, phi)
        lam = _lam_tensor(2, coef.shape[0])
        lhs = coef**2 / lam
        rhs = a * coef**2 / lam**2
        ok &= bool(np.all(lhs >= rhs - 1e-15 * np.abs(lhs)))
    lam_min = _lam_tensor(2, 1)[0, 0]
    ok &= abs(a - lam_min) < 1e-12  # equality achieved on the minimal mode
    _report(8, "poincare inequality", ok)


def test_criterion_09_holder_probe():
    """Holder regression slopes positive with R^2 >= 0.9, matching the frozen
    values from the pre-registered oracle run."""
    with open(os.path.join(GOLDEN, "holder_thresholds.json")) as fh:
        golden = json.load(fh)
    ok = True
    for case in golden["cases"]:
        gs = GreenSeries(d=case["d"], kmax=case["kmax"])
        base = np.asarray(case["base"])
        dists = np.asarray(case["distances"])
        if case["direction"] == "diagonal":
            pairs = [(base, base + t / np.sqrt(2.0)) for t in dists]
        else:
            offs = np.zeros(case["d"])
            offs[0] = 1.0
            pairs = [(base, base + t * offs) for t in dists]
        est = holder_probe(gs, case["alpha"], pairs, **case["quad"])
        ok &= est.beta > 0 and est.r_squared >= 0.9
        ok &= abs(est.beta - case["beta"]) <= 1e-6
        ok &= abs(est.r_squared - case["r_squared"]) <= 1e-6
    _report(9, "holder probe", ok)


def test_criterion_10_solver():
    """Manufactured recovery over 20 random cases with Lambda L <= 0.5,
    contraction ratios within Lambda_hat L + 0.05, Psi-continuity on 100
    random data pairs."""
    grid = GridSpec(d=2, T=1.0, N=16)
    gs = GreenSeries(d=2)
    lam_hat = lambda_sup(gs, grid)
    cfg = SolveConfig(tolerance=1e-8, max_iterations=500)
    gen = RngStream(808).generator()
    ok = True
    for case in range(20):
        L = gen.uniform(0.2, 0.5) / lam_hat
        F = nonlinearity_preset(
            f"tanh:{L:.6f}" if case % 2 else f"linear:{L:.6f}"
        )
        coef = gen.standard_normal((6, 6)) / (
            1.0 + np.arange(6)[:, None] + np.arange(6)[None, :]
        ) ** 2
        u_star = sine_synthesis(coef, grid)
        g = GridField(grid, gen.standard_normal(grid.node_shape))
        eta = GridField(
            grid,
            u_star.values
            + k_apply(gs, GridField(grid, F(u_star.values))).values
            - k_apply(gs, g).values,
        )
        res = solve_contraction(F, g, eta, gs, cfg)
        ok &= np.max(np.abs(res.u[0] - u_star.values)) <= 10 * cfg.tolerance
        ratios = res.contraction_ratios(0)
        if ratios:
            ok &= max(ratios) <= lam_hat * L + 0.05
    F = nonlinearity_preset("tanh:2.0")
    g = GridField(grid, np.ones(grid.node_shape))
    gen = RngStream(909).generator()
    for _ in range(100):
        eta = GridField(grid, gen.standard_normal(grid.node_shape) * 0.1)
        etap = GridField(grid, eta.values + gen.standard_normal(grid.node_shape) * 0.05)
        ok &= psi_continuity_check(F, g, eta, etap, gs)["ok"]
    _report(10, "solver recovery and continuity", ok)


def test_criterion_11_linear_case_law():
    """F = 0 with a sheet driver: u(x*) Gaussian with the discrete Parseval
    variance; two-sample KS against an exact Gaussian draw not rejected."""
    grid = GridSpec(d=2, T=1.0, N=16)
    gs = GreenSeries(d=2)
    g = GridField(grid, np.ones(grid.node_shape))
    F = nonlinearity_preset("zero")
    xstar = (0.5, 0.5)
    M = 10_000
    sampler = SpdeSampler("sheet", None, g, F, gs, SolveConfig())
    rng = RngStream(1010)
    idx = grid.node_index(xstar)
    blocks = sampler.solve_blocks(rng.substream(0).split(M))
    vals = np.concatenate([solved.u[(slice(None),) + idx] for solved in blocks])
    integ = noise_integrator("sheet", green_integrand(gs), [np.asarray(xstar)], grid, None)
    var_ref = float(integ.second_moment()[0])
    emp_var = vals.var(ddof=1)
    se_var = emp_var * np.sqrt(2.0 / (M - 1))
    ok = abs(emp_var - var_ref) <= 3.0 * se_var
    mean_ref = k_apply(gs, g).values[idx]
    exact = mean_ref + np.sqrt(var_ref) * rng.substream(1).generator().standard_normal(M)
    ok &= stats.ks_2samp(vals, exact, method="asymp").pvalue >= 0.01
    _report(11, "linear-case law", ok)


def test_criterion_12_end_to_end():
    """Mild-solution law converges to the sheet-driven law along the Donsker
    scale: per-probe KS distance improves and the final n is accepted."""
    grid = GridSpec(d=2, T=1.0, N=16)
    gs = GreenSeries(d=2)
    g = GridField(grid, np.ones(grid.node_shape))
    F = nonlinearity_preset("tanh:1.0")
    probes = [(0.25, 0.25), (0.5, 0.25), (0.5, 0.5), (0.75, 0.5), (0.75, 0.75)]
    cfg = DiagConfig(n_list=(4, 16, 64), M=2000, significance=0.01, r=1)
    rep = solution_convergence_report("donsker", probes, g, F, gs, cfg, RngStream(1105))
    _report(12, "end-to-end solution law", rep.passed())
