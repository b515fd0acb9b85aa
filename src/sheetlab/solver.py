"""Fixed-point solvers for the mild stochastic Poisson equation
u + int_D K(.,y) F(u(y)) dy = int_D K(.,y) g(y) dy + eta."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
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
    """Raised when F fails the gate of the regime that the relaxation selects:
    the contraction gate Lambda * L < 1 or the monotonicity gate L < d pi^2."""


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
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
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


def _check_gate(gs: GreenSeries, grid: GridSpec, F: Nonlinearity, cfg: SolveConfig) -> dict:
    """Refuse F outside the regime that cfg.relaxation selects; return the
    diagnostics that every solve in that regime reports.

    Relaxation 1 iterates the mild-solution map itself, which converges under
    the contraction gate GATE_INFLATION * Lambda * L < 1, with the a-posteriori
    bound tolerance / (1 - Lambda L).  A relaxation below 1 damps each step,
    which converges for bounded F under the monotonicity gate
    L < poincare_constant; the contraction bound does not hold there.
    """
    L = F.lipschitz
    if cfg.relaxation == 1.0:
        lam = lambda_sup(gs, grid)
        if GATE_INFLATION * lam * L >= 1.0:
            raise GateError(
                f"contraction gate failed: {GATE_INFLATION} * Lambda({lam:.4g}) * L({L:.4g}) >= 1"
            )
        return {
            "lambda_hat": lam,
            "gate": GATE_INFLATION * lam * L,
            "residual_bound": cfg.tolerance / max(1.0 - lam * L, 1e-12),
        }
    if F.bound is None:
        raise ValueError("a relaxation below 1 requires a bounded nonlinearity")
    a = poincare_constant(gs)
    if L >= a:
        raise GateError(f"monotonicity gate failed: L({L:.4g}) >= a({a:.4g})")
    return {"gate": L / a}


def _solve_stack(
    F: Nonlinearity,
    Kg: np.ndarray,
    eta: np.ndarray,
    gs: GreenSeries,
    grid: GridSpec,
    gate: dict,
    cfg: SolveConfig,
) -> list:
    """Fixed-point iteration for a stack eta of shape (M, *node_shape).

    With b = Kg + eta and relaxation w, each step is u <- b - K F(u) at w = 1
    and u <- (1 - w) u + w (b - K F(u)) below.  The step is -w times the
    residual at u, so each replicate stops on its own delta / w <= tolerance;
    finished replicates leave the stack, so every replicate takes the
    iterations, ratios and verdict of a lone solve.  Kg = int K g and the gate
    diagnostics were computed by the caller, which also checked the gate.
    """
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
        u_new = b - k_apply_stack(gs, F(u), grid)
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
    res = _sup_residual(u_out, k_apply_stack(gs, F(u_out), grid), Kg, eta, grid.d)
    return [
        SolveResult(
            u=GridField(grid, u_out[i]),
            iterations=int(iterations[i]),
            final_residual=float(res[i]),
            converged=bool(converged[i]),
            contraction_ratios=ratios[i],
            diagnostics=dict(gate),
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
    """Fixed-point iteration u <- -int K F(u) + int K g + eta from u0 = 0,
    damped by cfg.relaxation, under the gate that the relaxation selects."""
    grid = eta.grid
    gate = _check_gate(gs, grid, F, cfg)
    Kg = k_apply(gs, g).values
    return _solve_stack(F, Kg, eta.values[None], gs, grid, gate, cfg)[0]


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
    # the bound assumes a contraction, whatever relaxation cfg sets
    lam = _check_gate(gs, eta.grid, F, replace(cfg, relaxation=1.0))["lambda_hat"]
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
    solver gate and int K g once.  Replicates are then solved in blocks of
    SOLVE_BLOCK: each replicate draws its noise from its own stream, the
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
        self.gate = _check_gate(gs, grid, F, cfg)
        if quad is None:
            # r = 1 suffices: Donsker and the sheet integrate the Green kernel's
            # exact cell integrals, and Kac-Stroock's rule already has at least
            # ceil(n T_i) cells per axis
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
            out += _solve_stack(self.F, self._Kg, eta, self.gs, self.grid, self.gate, self.cfg)
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
    if len(n_list) == 0:
        raise ValueError("n_list must be non-empty")
    if M < 100:
        raise ValueError("need at least 100 replicates per n")
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
                "n": int(n),
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
