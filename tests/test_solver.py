"""Fixed-point solvers and mild-solution sampling."""

import numpy as np
import pytest

from sheetlab import (
    GreenSeries,
    GridSpec,
    Nonlinearity,
    RngStream,
    SolveConfig,
    k_apply,
    poincare_constant,
    psi_continuity_check,
    residual,
    solution_convergence_report,
    solve_contraction,
)
from sheetlab.grid import GridField
from sheetlab.green import k_apply_stack, sine_synthesis
from sheetlab.solver import (
    SOLVE_BLOCK,
    GateError,
    SpdeSampler,
    _check_gate,
    _solve_stack,
    nonlinearity_preset,
)

GRID = GridSpec(d=2, T=1.0, N=12)
GS = GreenSeries(d=2, kmax=11)


def _random_field(seed, scale=1.0):
    gen = RngStream(seed).generator()
    return GridField(GRID, gen.standard_normal(GRID.node_shape) * scale)


def test_nonlinearity_presets():
    z = nonlinearity_preset("zero")
    assert z.lipschitz == 0.0 and z.bound == 0.0
    assert np.all(z(np.array([1.0, -2.0])) == 0.0)
    lin = nonlinearity_preset("linear:-1.5")
    assert lin.lipschitz == 1.5
    np.testing.assert_allclose(lin(np.array([2.0])), [-3.0])
    th = nonlinearity_preset("tanh:2.0")
    assert th.lipschitz == 2.0 and th.bound == 1.0
    with pytest.raises(ValueError):
        nonlinearity_preset("cubic:1.0")


def test_solveconfig_validation():
    with pytest.raises(ValueError):
        SolveConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolveConfig(relaxation=0.0)
    with pytest.raises(ValueError):
        SolveConfig(relaxation=1.5)
    with pytest.raises(ValueError, match="max_iterations"):
        SolveConfig(max_iterations=0)


def test_zero_nonlinearity_one_step():
    g = _random_field(61)
    eta = _random_field(62, scale=0.1)
    res = solve_contraction(nonlinearity_preset("zero"), g, eta, GS)
    expect = k_apply(GS, g).values + eta.values
    np.testing.assert_allclose(res.u.values, expect, atol=1e-12)
    assert res.converged
    assert res.final_residual < 1e-12


def test_constant_nonlinearity_closed_form():
    c = 0.7
    F = Nonlinearity(lambda u: np.full_like(u, c), lipschitz=0.0, bound=c)
    g = _random_field(63)
    eta = _random_field(64, scale=0.1)
    res = solve_contraction(F, g, eta, GS)
    ones = GridField(GRID, np.ones(GRID.node_shape))
    expect = k_apply(GS, g).values + eta.values - c * k_apply(GS, ones).values
    np.testing.assert_allclose(res.u.values, expect, atol=1e-10)


def test_manufactured_solution_recovery():
    F = nonlinearity_preset("tanh:2.0")
    gen = RngStream(65).generator()
    coef = gen.standard_normal((5, 5)) / 10.0
    u_star = sine_synthesis(coef, GRID)
    g = _random_field(66)
    eta = GridField(
        GRID,
        u_star.values
        + k_apply(GS, GridField(GRID, F(u_star.values))).values
        - k_apply(GS, g).values,
    )
    cfg = SolveConfig(tolerance=1e-10, max_iterations=300)
    res = solve_contraction(F, g, eta, GS, cfg)
    assert res.converged
    assert np.max(np.abs(res.u.values - u_star.values)) <= 10 * cfg.tolerance
    assert residual(res.u, F, g, eta, GS) <= 100 * cfg.tolerance


def test_contraction_gate_refusal():
    F = nonlinearity_preset("linear:20.0")  # 1.05 * 0.108 * 20 > 1
    with pytest.raises(GateError):
        solve_contraction(F, _random_field(67), _random_field(68), GS)


def test_relaxed_matches_contraction_for_zero_f():
    g = _random_field(69)
    eta = _random_field(70, scale=0.1)
    cfg = SolveConfig(tolerance=1e-9, relaxation=0.5)
    a = solve_contraction(nonlinearity_preset("zero"), g, eta, GS, cfg)
    b = solve_contraction(nonlinearity_preset("zero"), g, eta, GS)
    assert a.converged
    np.testing.assert_allclose(a.u.values, b.u.values, atol=1e-7)


def test_relaxed_bounded_sigmoid_converges():
    cfg = SolveConfig(tolerance=1e-8, relaxation=0.5, max_iterations=300)
    res = solve_contraction(
        nonlinearity_preset("tanh:3.0"), _random_field(71), _random_field(72, 0.1), GS, cfg
    )
    assert res.converged and res.final_residual <= cfg.tolerance
    # the contraction-only residual bound is not reported in the damped regime
    assert res.diagnostics == {"gate": 3.0 / poincare_constant(GS)}


def test_relaxed_rejects_unbounded_or_strong_f():
    cfg = SolveConfig(relaxation=0.5)
    with pytest.raises(ValueError):
        solve_contraction(
            nonlinearity_preset("linear:1.0"), _random_field(1), _random_field(2), GS, cfg
        )
    strong = Nonlinearity(lambda u: 30.0 * np.tanh(u), lipschitz=30.0, bound=30.0)
    with pytest.raises(GateError):
        solve_contraction(strong, _random_field(1), _random_field(2), GS, cfg)


def _banach_stack(F, Kg, eta, cfg):
    """Reference: the undamped block iteration u <- Kg + eta - K F(u), written
    without relaxation; (u, iterations, ratios, converged) per replicate."""
    M = eta.shape[0]
    b = Kg + eta
    u_out = np.empty_like(b)
    iterations = np.zeros(M, dtype=int)
    converged = np.zeros(M, dtype=bool)
    ratios = [[] for _ in range(M)]
    active = np.arange(M)
    u = np.zeros_like(b)
    prev_delta = None
    for it in range(1, cfg.max_iterations + 1):
        u_new = b - k_apply_stack(GS, F(u), GRID)
        delta = np.max(np.abs(u_new - u), axis=tuple(range(1, u.ndim)))
        if prev_delta is not None:
            for row, dl, pd in zip(active, delta, prev_delta):
                if pd > 0:
                    ratios[row].append(float(dl / pd))
        iterations[active] = it
        done = delta <= cfg.tolerance
        converged[active[done]] = True
        u_out[active[done]] = u_new[done]
        keep = ~done
        active, u, b, prev_delta = active[keep], u_new[keep], b[keep], delta[keep]
        if active.size == 0:
            break
    u_out[active] = u
    return u_out, iterations, ratios, converged


@pytest.mark.parametrize("spec", ["tanh:1.0", "linear:-1.5"])
@pytest.mark.parametrize("M", [1, SOLVE_BLOCK, SOLVE_BLOCK + 1])
@pytest.mark.parametrize("max_iterations", [200, 4])
def test_unit_relaxation_is_the_banach_iteration(spec, M, max_iterations):
    """At relaxation 1 the one loop does the undamped iteration's arithmetic."""
    F = nonlinearity_preset(spec)
    cfg = SolveConfig(max_iterations=max_iterations)
    gen = RngStream(85).generator()
    Kg = k_apply(GS, _random_field(86)).values
    eta = gen.standard_normal((M,) + GRID.node_shape) * 0.1
    gate = _check_gate(GS, GRID, F, cfg)
    got = _solve_stack(F, Kg, eta, GS, GRID, gate, cfg)
    u, iterations, ratios, converged = _banach_stack(F, Kg, eta, cfg)
    assert not converged.all() if max_iterations == 4 else converged.all()
    for i, res in enumerate(got):
        np.testing.assert_array_equal(res.u.values, u[i])
        assert res.iterations == iterations[i]
        assert res.contraction_ratios == ratios[i]
        assert res.converged == converged[i]
        assert list(res.diagnostics) == ["lambda_hat", "gate", "residual_bound"]


def test_residual_positive_for_random_guess():
    g = _random_field(73)
    eta = _random_field(74)
    u = _random_field(75)
    assert residual(u, nonlinearity_preset("zero"), g, eta, GS) > 0


def test_psi_continuity_identical_eta():
    g = _random_field(76)
    eta = _random_field(77, scale=0.1)
    cfg = SolveConfig(tolerance=1e-9)
    chk = psi_continuity_check(nonlinearity_preset("tanh:1.0"), g, eta, eta, GS, cfg)
    assert chk["lhs"] <= 2 * cfg.tolerance
    assert chk["ok"]


def test_psi_continuity_affine_case():
    # F == 0 makes Psi affine in eta: the gap passes through exactly
    g = _random_field(78)
    eta = _random_field(79, scale=0.1)
    etap = _random_field(80, scale=0.1)
    chk = psi_continuity_check(nonlinearity_preset("zero"), g, eta, etap, GS)
    assert chk["lhs"] == pytest.approx(chk["data_gap"], abs=1e-12)
    assert chk["ok"]


def test_spde_sample_deterministic_and_boundary_zero():
    g = GridField(GRID, np.ones(GRID.node_shape))
    F = nonlinearity_preset("tanh:1.0")
    rng = RngStream(81)
    for family, n in (("donsker", 8), ("kac-stroock", 8), ("sheet", None)):
        u1 = SpdeSampler(family, n, g, F, GS).sample_solution(rng).u
        u2 = SpdeSampler(family, n, g, F, GS).sample_solution(rng).u
        np.testing.assert_array_equal(u1.values, u2.values)
        tol = 1e-7
        assert np.all(np.abs(u1.values[0, :]) < tol)
        assert np.all(np.abs(u1.values[-1, :]) < tol)
        assert np.all(np.abs(u1.values[:, 0]) < tol)
        assert np.all(np.abs(u1.values[:, -1]) < tol)


DRIVERS = [("donsker", 8), ("kac-stroock", 8), ("sheet", None)]


@pytest.mark.parametrize(
    "family, n, spec, relaxation",
    [pytest.param(f, n, "tanh:1.0", 1.0, id=f"{f}-{n}") for f, n in DRIVERS]
    # L = 19 is past the contraction gate and inside the monotonicity gate 2 pi^2
    + [pytest.param(f, n, "tanh:19", 0.5, id=f"{f}-{n}-relaxed") for f, n in DRIVERS],
)
@pytest.mark.parametrize("max_iterations", [200, 6])
def test_sample_solutions_match_single_solves(family, n, spec, relaxation, max_iterations):
    """Block solves reproduce one solve_contraction per replicate substream:
    the same iterations and verdict, values within 1e-12 of the sup norm
    (the block's noise product sums in another order than a lone one)."""
    g = GridField(GRID, np.ones(GRID.node_shape))
    F = nonlinearity_preset(spec)
    # 6 stops some replicates unconverged
    cfg = SolveConfig(max_iterations=max_iterations, relaxation=relaxation)
    sampler = SpdeSampler(family, n, g, F, GS, cfg)
    B = SOLVE_BLOCK
    streams = RngStream(84).split(2 * B + 3)
    ref = [solve_contraction(F, g, sampler.sample_noise_field(s), GS, cfg) for s in streams]
    for M in (1, B - 1, B, B + 1, 2 * B + 3):
        got = sampler.sample_solutions(streams[:M])
        assert len(got) == M
        for res, want in zip(got, ref):
            assert res.iterations == want.iterations
            assert res.converged == want.converged
            tol = 1e-12 * np.max(np.abs(want.u.values))
            np.testing.assert_allclose(res.u.values, want.u.values, rtol=0, atol=tol)


def test_linear_case_decomposition():
    # F == 0 and a sheet driver: u = k_apply(g) + Wiener-integral field
    g = GridField(GRID, np.ones(GRID.node_shape))
    sampler = SpdeSampler("sheet", None, g, nonlinearity_preset("zero"), GS)
    rng = RngStream(82)
    eta = sampler.sample_noise_field(rng)
    u = sampler.sample_solution(rng).u
    np.testing.assert_allclose(u.values, k_apply(GS, g).values + eta.values, atol=1e-12)


def test_solution_report_null_case():
    g = GridField(GRID, np.ones(GRID.node_shape))
    rep = solution_convergence_report(
        "sheet",
        (1, 2),
        [(0.25, 0.25), (0.5, 0.5), (0.75, 0.75)],
        300,
        g,
        nonlinearity_preset("zero"),
        GS,
        rng=RngStream(83),
    )
    final = rep.per_n[-1]
    # same law on both sides: most probes accepted
    assert final["rejection_fraction"] <= 1.0 / 3.0
    assert rep.passed()


def test_solution_report_rejects_empty_n_list():
    g = GridField(GRID, np.ones(GRID.node_shape))
    with pytest.raises(ValueError, match="non-empty"):
        solution_convergence_report(
            "donsker", [], [(0.5, 0.5)], 300, g, nonlinearity_preset("zero"), GS
        )
