"""Fixed-point solvers for the mild stochastic Poisson equation
u + int_D K(.,y) F(u(y)) dy = int_D K(.,y) g(y) dy + eta."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .convergence import ConvergenceReport
from .grid import GridField, GridSpec
from .integrals import noise_integrator
from .green import (
    GreenSeries,
    green_integrand,
    k_apply,
    k_apply_stack,
    lambda_sup,
    poincare_constant,
)
from .quadrature import QuadSpec
from .rng import RngStream
from . import stats

__all__ = [
    "Nonlinearity",
    "SolveConfig",
    "SolveResult",
    "GateError",
    "solve_contraction",
    "solve_relaxed",
    "residual",
    "psi_continuity_check",
    "SpdeSampler",
    "solution_convergence_report",
    "nonlinearity_preset",
]

# safety factor absorbing grid-maximum underestimation of sup ||K(x,.)||_2
GATE_INFLATION = 1.05

# replicates solved together by SpdeSampler.sample_solutions; keeps a Donsker
# innovation block at n=64, d=2 to 2 MiB
SOLVE_BLOCK = 64


class GateError(RuntimeError):
    """Raised when the contraction gate Lambda * L < 1 fails."""


@dataclass
class Nonlinearity:
    """Pointwise nonlinearity F with declared Lipschitz constant L."""

    evaluator: Callable
    lipschitz: float
    bound: Optional[float] = None  # sup |F| when F is bounded

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(u), dtype=float)


def nonlinearity_preset(spec: str) -> Nonlinearity:
    """Presets: 'zero', 'linear:<c>', 'tanh:<scale>'."""
    if spec == "zero":
        return Nonlinearity(lambda u: np.zeros_like(u), lipschitz=0.0, bound=0.0)
    kind, _, arg = spec.partition(":")
    if kind == "linear":
        c = float(arg)
        return Nonlinearity(lambda u: c * u, lipschitz=abs(c))
    if kind == "tanh":
        s = float(arg)
        return Nonlinearity(lambda u: np.tanh(s * u), lipschitz=abs(s), bound=1.0)
    raise ValueError(f"unknown nonlinearity preset {spec!r}")


@dataclass(frozen=True)
class SolveConfig:
    tolerance: float = 1e-8
    max_iterations: int = 200
    relaxation: float = 1.0

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not 0 < self.relaxation <= 1:
            raise ValueError("relaxation must lie in (0, 1]")


@dataclass
class SolveResult:
    u: GridField
    iterations: int
    final_residual: float
    converged: bool
    contraction_ratios: list
    diagnostics: dict = field(default_factory=dict)

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "iterations": self.iterations,
                    "final_residual": self.final_residual,
                    "converged": self.converged,
                    "contraction_ratios": self.contraction_ratios,
                    "diagnostics": self.diagnostics,
                },
                fh,
                indent=2,
            )


def _sup_residual(u: np.ndarray, KFu: np.ndarray, Kg: np.ndarray, eta: np.ndarray, d: int):
    """Sup norm of u + K F(u) - K g - eta over the last d (node) axes."""
    r = u + KFu - Kg - eta
    return np.max(np.abs(r), axis=tuple(range(r.ndim - d, r.ndim)))


def residual(u: GridField, F: Nonlinearity, g: GridField, eta: GridField, gs: GreenSeries) -> float:
    """Sup norm of u + int K F(u) - int K g - eta over the grid nodes."""
    KFu = k_apply(gs, GridField(u.grid, F(u.values))).values
    return float(_sup_residual(u.values, KFu, k_apply(gs, g).values, eta.values, u.grid.d))


def _check_gate(gs: GreenSeries, grid: GridSpec, L: float) -> float:
    lam = lambda_sup(gs, grid)
    if GATE_INFLATION * lam * L >= 1.0:
        raise GateError(
            f"contraction gate failed: {GATE_INFLATION} * Lambda({lam:.4g}) * L({L:.4g}) >= 1"
        )
    return lam


def _solve_stack(
    F: Nonlinearity,
    Kg: np.ndarray,
    eta: np.ndarray,
    gs: GreenSeries,
    grid: GridSpec,
    lam: float,
    cfg: SolveConfig,
) -> list:
    """Banach fixed-point iteration for a stack eta of shape (M, *node_shape).

    Each replicate stops on its own delta <= tolerance; finished replicates
    leave the stack, so every replicate takes the iterations, ratios and
    verdict of a lone solve.  Kg = int K g and lam = Lambda were computed by
    the caller, which also checked the gate.
    """
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
        u_new = b - k_apply_stack(gs, F(u), grid)
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
    res = _sup_residual(u_out, k_apply_stack(gs, F(u_out), grid), Kg, eta, grid.d)
    return [
        SolveResult(
            u=GridField(grid, u_out[i]),
            iterations=int(iterations[i]),
            final_residual=float(res[i]),
            converged=bool(converged[i]),
            contraction_ratios=ratios[i],
            diagnostics={
                "lambda_hat": lam,
                "gate": GATE_INFLATION * lam * F.lipschitz,
                "residual_bound": cfg.tolerance / max(1.0 - lam * F.lipschitz, 1e-12),
            },
        )
        for i in range(M)
    ]


def solve_contraction(
    F: Nonlinearity,
    g: GridField,
    eta: GridField,
    gs: GreenSeries,
    cfg: SolveConfig = SolveConfig(),
) -> SolveResult:
    """Banach fixed-point iteration u <- -int K F(u) + int K g + eta from u0 = 0."""
    grid = eta.grid
    lam = _check_gate(gs, grid, F.lipschitz)
    Kg = k_apply(gs, g).values
    return _solve_stack(F, Kg, eta.values[None], gs, grid, lam, cfg)[0]


def solve_relaxed(
    F: Nonlinearity,
    g: GridField,
    eta: GridField,
    gs: GreenSeries,
    cfg: SolveConfig = SolveConfig(relaxation=0.5),
    patience: int = 10,
) -> SolveResult:
    """Damped iteration for bounded F under L < d pi^2; accepts on residual only."""
    if F.bound is None:
        raise ValueError("solve_relaxed requires a bounded nonlinearity")
    a = poincare_constant(gs)
    if F.lipschitz >= a:
        raise GateError(f"monotonicity gate failed: L({F.lipschitz:.4g}) >= a({a:.4g})")
    if cfg.relaxation >= 1.0:
        raise ValueError("solve_relaxed requires relaxation < 1")
    grid = eta.grid
    Kg = k_apply(gs, g).values
    b = Kg + eta.values
    u = np.zeros(grid.node_shape)
    # K F(u) at the current u: the residual of one step is the proposal of the next
    KFu = k_apply(gs, GridField(grid, F(u))).values
    history = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        proposal = b - KFu
        u = (1.0 - cfg.relaxation) * u + cfg.relaxation * proposal
        KFu = k_apply(gs, GridField(grid, F(u))).values
        res = float(_sup_residual(u, KFu, Kg, eta.values, grid.d))
        history.append(res)
        if res <= cfg.tolerance:
            converged = True
            break
        if len(history) > patience and history[-1] >= history[-1 - patience]:
            raise RuntimeError(
                f"relaxed iteration stalled: residual {history[-1]:.3g} after "
                f"{iterations} iterations; history={history[-patience:]}"
            )
    uf = GridField(grid, u)
    return SolveResult(
        u=uf,
        iterations=iterations,
        final_residual=history[-1],
        converged=converged,
        contraction_ratios=[],
        diagnostics={"residual_history": history},
    )


def psi_continuity_check(
    F: Nonlinearity,
    g: GridField,
    eta: GridField,
    eta_prime: GridField,
    gs: GreenSeries,
    cfg: SolveConfig = SolveConfig(),
) -> dict:
    """Verify the data-continuity bound of the solution map Psi:
    ||Psi(eta) - Psi(eta')||_inf <= (1 - Lambda L)^{-1} ||eta - eta'||_inf."""
    lam = _check_gate(gs, eta.grid, F.lipschitz)
    u = solve_contraction(F, g, eta, gs, cfg)
    u_prime = solve_contraction(F, g, eta_prime, gs, cfg)
    lhs = float(np.max(np.abs(u.u.values - u_prime.u.values)))
    data_gap = float(np.max(np.abs(eta.values - eta_prime.values)))
    rhs = data_gap / (1.0 - lam * F.lipschitz) + 2.0 * cfg.tolerance
    return {
        "lhs": lhs,
        "rhs": rhs,
        "data_gap": data_gap,
        "lambda_hat": lam,
        "ok": lhs <= rhs,
    }


class SpdeSampler:
    """Replicate sampler for mild-solution fields under a chosen noise driver.

    Precomputes the Green-kernel quadrature weights at the grid nodes, the
    contraction gate and int K g once.  Replicates are then solved in blocks
    of SOLVE_BLOCK: each replicate draws its noise from its own stream, the
    block's noise is applied at once (one matrix product for the Donsker and
    sheet drivers, one packed parity grid for Kac-Stroock), and one
    fixed-point iteration runs over the whole block.
    """

    def __init__(
        self,
        family: str,
        n,
        g: GridField,
        F: Nonlinearity,
        gs: GreenSeries,
        cfg: SolveConfig = SolveConfig(),
        quad: QuadSpec | None = None,
    ):
        self.family = family
        self.n = n
        self.g = g
        self.F = F
        self.gs = gs
        self.cfg = cfg
        grid = g.grid
        self.grid = grid
        self.lam = _check_gate(gs, grid, F.lipschitz)
        if quad is None:
            # tie the refinement to the noise scale (r >= n for Donsker cells)
            quad = QuadSpec(r=1, rho=1e-3)
        self.quad = quad
        kernel = green_integrand(gs)
        self._integ = noise_integrator(family, kernel, grid.node_points(), grid, n, quad)
        self._Kg = k_apply(gs, g).values

    def _noise_block(self, streams) -> np.ndarray:
        """eta at the grid nodes for one replicate per stream, shape (len(streams), *node_shape)."""
        eta = self._integ.replicates(streams).reshape((len(streams),) + self.grid.node_shape)
        # the Green kernel vanishes for boundary x; enforce exactly
        for axis in range(self.grid.d):
            sl = [slice(None)] * (self.grid.d + 1)
            for edge in (0, -1):
                sl[axis + 1] = edge
                eta[tuple(sl)] = 0.0
        return eta

    def sample_noise_field(self, rng: RngStream) -> GridField:
        """One realization of eta(x) = int_D K(x,y) (noise)(dy) at the grid nodes."""
        return GridField(self.grid, self._noise_block([rng])[0])

    def sample_solutions(self, streams) -> list:
        """One solve per stream, in order; replicate i depends only on streams[i]."""
        streams = list(streams)
        out = []
        for lo in range(0, len(streams), SOLVE_BLOCK):
            eta = self._noise_block(streams[lo : lo + SOLVE_BLOCK])
            out += _solve_stack(self.F, self._Kg, eta, self.gs, self.grid, self.lam, self.cfg)
        return out

    def sample_solution(self, rng: RngStream) -> SolveResult:
        return self.sample_solutions([rng])[0]


def solution_convergence_report(
    family: str,
    n_list,
    probes,
    M: int,
    g: GridField,
    F: Nonlinearity,
    gs: GreenSeries,
    cfg: SolveConfig = SolveConfig(),
    rng: RngStream = RngStream(0),
    significance: float = 0.01,
    quad: QuadSpec | None = None,
) -> ConvergenceReport:
    """Two-sample KS comparison of u_n against the sheet-driven solution law.

    For each n, M replicate solutions are evaluated at the probe points and
    compared per probe with M sheet-driven solutions.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    grid = g.grid
    probe_idx = [grid.node_index(p) for p in probes]

    def solution_values(sampler: SpdeSampler, stream: RngStream) -> np.ndarray:
        results = sampler.sample_solutions(stream.split(M))
        return np.array([[r.u.values[idx] for idx in probe_idx] for r in results])

    target_sampler = SpdeSampler("sheet", None, g, F, gs, cfg, quad)
    target = solution_values(target_sampler, rng.substream(0))
    per_n = []
    for j, n in enumerate(n_list):
        sampler = SpdeSampler(family, n, g, F, gs, cfg, quad)
        vals = solution_values(sampler, rng.substream(1 + j))
        pvals, dists = [], []
        for k in range(len(probe_idx)):
            res = stats.ks_2samp(vals[:, k], target[:, k])
            pvals.append(float(res.pvalue))
            dists.append(float(res.statistic))
        per_n.append(
            {
                "n": None if n is None else int(n),
                "p_values": pvals,
                "ks_distances": dists,
                "rejection_fraction": float(np.mean(np.array(pvals) < significance)),
            }
        )
    first, last = per_n[0], per_n[-1]
    improved = np.mean(
        [lf <= ff for lf, ff in zip(last["ks_distances"], first["ks_distances"])]
    )
    majority = float(np.mean(np.array(last["p_values"]) >= significance))
    verdicts = {
        "ks_distance_improves": {"ok": bool(improved >= 0.8), "threshold": 0.8, "value": float(improved)},
        "final_n_majority_accepted": {"ok": bool(majority > 0.5), "threshold": 0.5, "value": majority},
    }
    return ConvergenceReport(
        name="solution_convergence_report",
        config={
            "family": family,
            "n_list": [int(n) for n in n_list],
            "M": M,
            "probes": probes.tolist(),
            "significance": significance,
            "grid": grid.to_dict(),
        },
        per_n=per_n,
        verdicts=verdicts,
    )
