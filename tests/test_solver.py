"""Fixed-point solvers and mild-solution sampling."""

import tracemalloc

import numpy as np
import pytest

from sheetlab import (
    DiagConfig,
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
from sheetlab import kernels
from sheetlab.grid import GridField
from sheetlab.integrals import KacStroockIntegrator, indicator_integrand
from sheetlab.kernels import KS_BLOCK, BudgetExceededError
from sheetlab.green import k_apply_stack, sine_synthesis
from sheetlab.solver import (
    SOLVE_BLOCK,
    GateError,
    Nonlinearity,
    SpdeSampler,
    _check_gate,
    _solve_stack,
    nonlinearity_preset,
)
from sheetlab import convergence

GRID = GridSpec(d=2, T=1.0, N=12)
GS = GreenSeries(d=2, kmax=11)


def _random_field(seed, scale=1.0):
    gen = RngStream(seed).generator()
    return GridField(GRID, gen.standard_normal(GRID.node_shape) * scale)


def _row(solved, i=0):
    """Row i of a SolvedBlock's u as a field on GRID."""
    return GridField(GRID, solved.u[i])


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
    F = nonlinearity_preset("zero")
    res = solve_contraction(F, g, eta, GS)
    expect = k_apply(GS, g).values + eta.values
    np.testing.assert_allclose(res.u[0], expect, atol=1e-12)
    assert res.converged[0]
    assert residual(_row(res), F, g, eta, GS) < 1e-12


def test_constant_nonlinearity_closed_form():
    c = 0.7
    F = Nonlinearity(lambda u: np.full_like(u, c), lipschitz=0.0, bound=c)
    g = _random_field(63)
    eta = _random_field(64, scale=0.1)
    res = solve_contraction(F, g, eta, GS)
    ones = GridField(GRID, np.ones(GRID.node_shape))
    expect = k_apply(GS, g).values + eta.values - c * k_apply(GS, ones).values
    np.testing.assert_allclose(res.u[0], expect, atol=1e-10)


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
    assert res.converged[0]
    assert np.max(np.abs(res.u[0] - u_star.values)) <= 10 * cfg.tolerance
    assert residual(_row(res), F, g, eta, GS) <= 100 * cfg.tolerance


def test_contraction_gate_refusal():
    F = nonlinearity_preset("linear:20.0")  # 1.05 * 0.108 * 20 > 1
    with pytest.raises(GateError):
        solve_contraction(F, _random_field(67), _random_field(68), GS)


def test_gate_refuses_a_nan_product():
    # nan >= 1 is false: each gate is written so that a NaN fails it
    F = Nonlinearity(lambda u: u, lipschitz=float("nan"), bound=1.0)
    with pytest.raises(GateError, match="contraction gate failed"):
        _check_gate(GS, GRID, F, SolveConfig())
    with pytest.raises(GateError, match="monotonicity gate failed"):
        _check_gate(GS, GRID, F, SolveConfig(relaxation=0.5))


def test_nonlinearity_parameter_must_be_finite():
    for spec in ("linear:nan", "tanh:nan", "linear:inf", "tanh:-inf"):
        with pytest.raises(ValueError, match="nonlinearity parameter must be finite"):
            nonlinearity_preset(spec)


def test_relaxed_matches_contraction_for_zero_f():
    g = _random_field(69)
    eta = _random_field(70, scale=0.1)
    cfg = SolveConfig(tolerance=1e-9, relaxation=0.5)
    a = solve_contraction(nonlinearity_preset("zero"), g, eta, GS, cfg)
    b = solve_contraction(nonlinearity_preset("zero"), g, eta, GS)
    assert a.converged[0]
    np.testing.assert_allclose(a.u[0], b.u[0], atol=1e-7)


def test_relaxed_bounded_sigmoid_converges():
    cfg = SolveConfig(tolerance=1e-8, relaxation=0.5, max_iterations=300)
    F, g, eta = nonlinearity_preset("tanh:3.0"), _random_field(71), _random_field(72, 0.1)
    res = solve_contraction(F, g, eta, GS, cfg)
    assert res.converged[0] and residual(_row(res), F, g, eta, GS) <= cfg.tolerance
    # the contraction-only residual bound is not reported in the damped regime
    assert _check_gate(GS, GRID, F, cfg) == {"gate": 3.0 / poincare_constant(GS)}


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
    got = _solve_stack(F, Kg, eta, GS, GRID, cfg)
    u, iterations, ratios, converged = _banach_stack(F, Kg, eta, cfg)
    assert not converged.all() if max_iterations == 4 else converged.all()
    np.testing.assert_array_equal(got.u, u)
    np.testing.assert_array_equal(got.iterations, iterations)
    np.testing.assert_array_equal(got.converged, converged)
    assert [got.contraction_ratios(i) for i in range(M)] == ratios
    assert list(_check_gate(GS, GRID, F, cfg)) == ["lambda_hat", "gate", "residual_bound"]


def _former_solve_stack(F, Kg, eta, cfg):
    """Reference: the block loop that built its ratio lists row by row while it
    iterated and its per-row records at once, with the final residuals of one
    k_apply_stack of the whole block."""
    w = cfg.relaxation
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
        if w != 1.0:
            u_new = (1.0 - w) * u + w * u_new
        delta = np.max(np.abs(u_new - u), axis=tuple(range(1, u.ndim))) / w
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
    r = u_out + k_apply_stack(GS, F(u_out), GRID) - Kg - eta
    res = np.max(np.abs(r), axis=tuple(range(1, r.ndim)))
    return [
        (u_out[i], int(iterations[i]), float(res[i]), bool(converged[i]), ratios[i])
        for i in range(M)
    ]


@pytest.mark.parametrize("spec, relaxation", [("tanh:1.0", 1.0), ("tanh:19", 0.5)])
@pytest.mark.parametrize("M", [1, SOLVE_BLOCK + 1])
@pytest.mark.parametrize("max_iterations", [200, 5])
def test_block_record_gives_the_former_solve_results(spec, relaxation, M, max_iterations):
    """The SolvedBlock's arrays, with residual() of each row, rebuild every
    field of the former loop's per-row records bit for bit: u, iterations,
    verdict, final residual, ratios."""
    F = nonlinearity_preset(spec)
    cfg = SolveConfig(max_iterations=max_iterations, relaxation=relaxation)
    g = _random_field(92)
    Kg = k_apply(GS, g).values
    eta = RngStream(93).generator().standard_normal((M,) + GRID.node_shape) * 0.1
    solved = _solve_stack(F, Kg, eta, GS, GRID, cfg)
    assert solved.deltas.shape == (solved.iterations.max(), M)
    want = _former_solve_stack(F, Kg, eta, cfg)
    # 5 steps stop some replicates unconverged, 200 none
    converged = [w[3] for w in want]
    assert all(converged) if max_iterations == 200 else not all(converged)
    for i, (u, iterations, final_residual, converged, ratios) in enumerate(want):
        np.testing.assert_array_equal(solved.u[i], u)
        assert solved.iterations[i] == iterations
        assert residual(_row(solved, i), F, g, GridField(GRID, eta[i]), GS) == final_residual
        assert solved.converged[i] == converged
        assert solved.contraction_ratios(i) == ratios


def test_solution_report_probe_values_are_those_of_lone_solves(monkeypatch):
    # the report reads its probe values from each block's u by one fancy index;
    # they are the values that lone solves of its replicates hold at the probes
    g = GridField(GRID, np.ones(GRID.node_shape))
    F = nonlinearity_preset("tanh:1.0")
    probes = [(0.25, 0.5), (0.5, 0.5), (0.75, 0.25)]
    cfg = DiagConfig(n_list=(4,), M=SOLVE_BLOCK + 36, r=1)
    samples = []
    ks_2samp = convergence.stats.ks_2samp

    def capture(sample, target):
        samples.append((sample, target))
        return ks_2samp(sample, target)

    monkeypatch.setattr(convergence.stats, "ks_2samp", capture)
    rng = RngStream(94)
    solution_convergence_report("donsker", probes, g, F, GS, cfg, rng)
    idx = [GRID.node_index(p) for p in probes]

    def values(family, n, stream):
        sampler = SpdeSampler(family, n, g, F, GS)
        solves = [sampler.sample_solution(s).u[0] for s in stream.split(cfg.M)]
        return np.array([[u[i] for i in idx] for u in solves])

    target, vals = values("sheet", None, rng.substream(0)), values("donsker", 4, rng.substream(1))
    assert len(samples) == len(probes)
    for p, (sample, tgt) in enumerate(samples):
        np.testing.assert_array_equal(sample, vals[:, p])
        np.testing.assert_array_equal(tgt, target[:, p])


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


@pytest.mark.parametrize("relaxation", [1.0, 0.5])
def test_psi_continuity_stack_is_two_lone_solves(relaxation):
    # eta and eta' are solved as one two-row stack: the gap of two lone solves
    F, g = nonlinearity_preset("tanh:1.0"), _random_field(98)
    eta, etap = _random_field(99, scale=0.1), _random_field(100, scale=0.1)
    cfg = SolveConfig(relaxation=relaxation, max_iterations=300)
    u, up = (solve_contraction(F, g, e, GS, cfg).u[0] for e in (eta, etap))
    assert psi_continuity_check(F, g, eta, etap, GS, cfg)["lhs"] == np.max(np.abs(u - up))


def test_psi_continuity_checks_the_gate_of_a_damped_solve():
    # linear:1 passes the contraction gate of the bound, not the damped regime's
    cfg = SolveConfig(relaxation=0.5)
    with pytest.raises(ValueError, match="bounded nonlinearity"):
        psi_continuity_check(
            nonlinearity_preset("linear:1.0"), _random_field(1), _random_field(2),
            _random_field(3), GS, cfg,
        )


def test_spde_sample_deterministic_and_boundary_zero():
    g = GridField(GRID, np.ones(GRID.node_shape))
    F = nonlinearity_preset("tanh:1.0")
    rng = RngStream(81)
    for family, n in (("donsker", 8), ("kac-stroock", 8), ("sheet", None)):
        u1 = SpdeSampler(family, n, g, F, GS).sample_solution(rng).u[0]
        u2 = SpdeSampler(family, n, g, F, GS).sample_solution(rng).u[0]
        np.testing.assert_array_equal(u1, u2)
        tol = 1e-7
        assert np.all(np.abs(u1[0, :]) < tol)
        assert np.all(np.abs(u1[-1, :]) < tol)
        assert np.all(np.abs(u1[:, 0]) < tol)
        assert np.all(np.abs(u1[:, -1]) < tol)


DRIVERS = [("donsker", 8), ("kac-stroock", 8), ("sheet", None)]


@pytest.mark.parametrize(
    "family, n, spec, relaxation",
    [pytest.param(f, n, "tanh:1.0", 1.0, id=f"{f}-{n}") for f, n in DRIVERS]
    # L = 19 is past the contraction gate and inside the monotonicity gate 2 pi^2
    + [pytest.param(f, n, "tanh:19", 0.5, id=f"{f}-{n}-relaxed") for f, n in DRIVERS],
)
@pytest.mark.parametrize("max_iterations", [200, 6])
def test_solve_blocks_match_single_solves(family, n, spec, relaxation, max_iterations):
    """Block solves reproduce one solve_contraction per replicate substream:
    the same iterations and verdict, and the same values bit for bit, since
    every driver's block noise equals lone noise fields."""
    g = GridField(GRID, np.ones(GRID.node_shape))
    F = nonlinearity_preset(spec)
    # 6 stops some replicates unconverged
    cfg = SolveConfig(max_iterations=max_iterations, relaxation=relaxation)
    sampler = SpdeSampler(family, n, g, F, GS, cfg)
    B = SOLVE_BLOCK
    streams = RngStream(84).split(2 * B + 3)
    ref = [solve_contraction(F, g, sampler.sample_noise_field(s), GS, cfg) for s in streams]
    for M in (1, B - 1, B, B + 1, 2 * B + 3):
        got = [(b, i) for b in sampler.solve_blocks(streams[:M]) for i in range(len(b.u))]
        assert len(got) == M
        for (block, i), want in zip(got, ref):
            assert block.iterations[i] == want.iterations[0]
            assert block.converged[i] == want.converged[0]
            np.testing.assert_array_equal(block.u[i], want.u[0])


def test_block_noise_equals_lone_noise_fields():
    g = GridField(GRID, np.ones(GRID.node_shape))
    streams = RngStream(89).split(SOLVE_BLOCK + 3)
    for family, n in (("donsker", 8), ("donsker", 5), ("sheet", None), ("kac-stroock", 8)):
        sampler = SpdeSampler(family, n, g, nonlinearity_preset("zero"), GS)
        lone = np.stack([sampler.sample_noise_field(s).values for s in streams])
        for block in (slice(0, SOLVE_BLOCK), slice(SOLVE_BLOCK, None)):
            np.testing.assert_array_equal(sampler._noise_block(streams[block]), lone[block])


def test_sheet_noise_is_donsker_noise_at_dyadic_n():
    # on a dyadic grid the sheet's cells and scale are the Donsker lattice's at n = N
    grid = GridSpec(d=2, T=1.0, N=16)
    g = GridField(grid, np.ones(grid.node_shape))
    gs, F = GreenSeries(d=2, kmax=16), nonlinearity_preset("zero")
    sheet = SpdeSampler("sheet", None, g, F, gs)
    donsker = SpdeSampler("donsker", 16, g, F, gs)
    streams = RngStream(90).split(5)
    np.testing.assert_array_equal(sheet._noise_block(streams), donsker._noise_block(streams))


def test_d3_mode_route_sampler_memory_bounded():
    # d = 3, N = 16, n = 32: dense Green weights would need 3375 x 32768 entries
    # (885 MB, over the budget); the mode route holds per-axis matrices and one
    # row block of innovations and mode coefficients at a time
    grid = GridSpec(d=3, T=1.0, N=16)
    g = GridField(grid, np.ones(grid.node_shape))
    tracemalloc.start()
    try:
        sampler = SpdeSampler("donsker", 32, g, nonlinearity_preset("zero"), GreenSeries(d=3))
        eta = sampler._noise_block(RngStream(91).split(SOLVE_BLOCK))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eta.shape == (SOLVE_BLOCK,) + grid.node_shape
    assert peak < 20 * 2**20, peak


def test_linear_case_decomposition():
    # F == 0 and a sheet driver: u = k_apply(g) + Wiener-integral field
    g = GridField(GRID, np.ones(GRID.node_shape))
    sampler = SpdeSampler("sheet", None, g, nonlinearity_preset("zero"), GS)
    rng = RngStream(82)
    eta = sampler.sample_noise_field(rng)
    u = sampler.sample_solution(rng).u[0]
    np.testing.assert_allclose(u, k_apply(GS, g).values + eta.values, atol=1e-12)


def test_solution_report_null_case():
    g = GridField(GRID, np.ones(GRID.node_shape))
    rep = solution_convergence_report(
        "sheet",
        [(0.25, 0.25), (0.5, 0.5), (0.75, 0.75)],
        g,
        nonlinearity_preset("zero"),
        GS,
        DiagConfig(n_list=(1, 2), M=300, significance=0.01, r=1),
        RngStream(83),
    )
    final = rep.per_n[-1]
    # same law on both sides: most probes accepted
    assert final["rejection_fraction"] <= 1.0 / 3.0
    assert rep.passed()


def test_noise_stack_refused_before_allocation(monkeypatch):
    # a block of 64 noise fields on the 13 x 13 nodes holds 10816 values
    g = GridField(GRID, np.ones(GRID.node_shape))
    sampler = SpdeSampler("sheet", None, g, nonlinearity_preset("zero"), GS)
    streams = [RngStream(86).substream(k) for k in range(SOLVE_BLOCK)]
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", SOLVE_BLOCK * 13 * 13 - 1)
    assert [len(b.u) for b in sampler.solve_blocks(streams[:-1])] == [SOLVE_BLOCK - 1]
    with pytest.raises(BudgetExceededError, match=r"noise stack of shape \(64, 13, 13\)"):
        list(sampler.solve_blocks(streams))


def test_no_stream_list_is_built(monkeypatch):
    # the solution report and the Kac-Stroock replicates make each substream
    # when its block is drawn, never a list of all M of them
    def never(*_):
        raise AssertionError("RngStream.split called")

    monkeypatch.setattr(RngStream, "split", never)
    integ = KacStroockIntegrator(indicator_integrand(), [(0.5, 0.5)], GRID, 4.0)
    assert integ.replicates(RngStream(87), KS_BLOCK + 1).shape == (KS_BLOCK + 1, 1)
    g = GridField(GRID, np.ones(GRID.node_shape))
    cfg = DiagConfig(n_list=(2,), M=100, r=1)
    rep = solution_convergence_report(
        "kac-stroock", [(0.5, 0.5)], g, nonlinearity_preset("zero"), GS, cfg, RngStream(88)
    )
    assert [row["n"] for row in rep.per_n] == [2]


def _former_shrinking_stack(F, Kg, eta, cfg):
    """Reference: the block loop that copied u, b and active by fancy index on
    every iteration, whether or not a replicate had finished."""
    w = cfg.relaxation
    M = eta.shape[0]
    b = Kg + eta
    u_out = np.empty_like(b)
    iterations = np.zeros(M, dtype=int)
    converged = np.zeros(M, dtype=bool)
    deltas = []
    active = np.arange(M)
    u = np.zeros_like(b)
    for it in range(1, cfg.max_iterations + 1):
        u_new = b - k_apply_stack(GS, F(u), GRID)
        if w != 1.0:
            u_new = (1.0 - w) * u + w * u_new
        delta = np.max(np.abs(u_new - u), axis=tuple(range(1, u.ndim))) / w
        step = np.full(M, np.nan)
        step[active] = delta
        deltas.append(step)
        iterations[active] = it
        done = delta <= cfg.tolerance
        converged[active[done]] = True
        u_out[active[done]] = u_new[done]
        keep = ~done
        active, u, b = active[keep], u_new[keep], b[keep]
        if active.size == 0:
            break
    u_out[active] = u
    return u_out, iterations, converged, np.array(deltas)


@pytest.mark.parametrize(
    "spec, relaxation, max_iterations", [("tanh:1.0", 1.0, 5), ("tanh:19", 0.5, 30)]
)
def test_solve_stack_copies_only_when_a_replicate_finishes(spec, relaxation, max_iterations):
    """Rows of data scaled from 0 to 10 finish at different steps, with steps in
    between where none does, and one runs into max_iterations; the SolvedBlock
    keeps the bits of the loop that copied on every step."""
    F = nonlinearity_preset(spec)
    cfg = SolveConfig(max_iterations=max_iterations, relaxation=relaxation)
    Kg = k_apply(GS, _random_field(95, 1e-3)).values
    scales = np.array([0.0, 1e-9, 1e-4, 0.1, 10.0])
    eta = RngStream(96).generator().standard_normal((5,) + GRID.node_shape) * scales[:, None, None]
    solved = _solve_stack(F, Kg, eta, GS, GRID, cfg)
    u, iterations, converged, deltas = _former_shrinking_stack(F, Kg, eta, cfg)
    assert converged.any() and not converged.all()
    assert iterations.max() == cfg.max_iterations
    assert len(set(iterations[converged])) > 1
    np.testing.assert_array_equal(solved.u, u)
    np.testing.assert_array_equal(solved.iterations, iterations)
    np.testing.assert_array_equal(solved.converged, converged)
    np.testing.assert_array_equal(solved.deltas, deltas)  # NaN where a row has stopped


def test_solve_block_memory_bounded():
    # spde-law's finest level, d = 2, N = 16, kmax 64, n = 64: a block's 64
    # fields held their 64 x 64 innovations and two 64^3 mode tensors at once,
    # 6.3 MiB; drawn and applied 16 fields at a time they stay under 3 MiB
    grid = GridSpec(d=2, T=1.0, N=16)
    g = GridField(grid, np.ones(grid.node_shape))
    sampler = SpdeSampler("donsker", 64, g, nonlinearity_preset("tanh:1.0"), GreenSeries(d=2, kmax=64))
    streams = RngStream(97).split(SOLVE_BLOCK)
    tracemalloc.start()
    try:
        solved = next(sampler.solve_blocks(streams))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solved.converged.all()
    assert peak < 3 * 2**20, peak
