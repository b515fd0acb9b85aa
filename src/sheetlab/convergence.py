"""Statistical diagnostics: FDD convergence, moment bounds, tightness modulus, variances."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import GridSpec, as_point
from .integrals import Integrand, noise_integrator

# re-exported: bench/layers.py traces the integrator classes it finds on this module
from .integrals import DonskerIntegrator, KacStroockIntegrator  # noqa: F401
from .quadrature import QuadSpec
from .rng import RngStream
from . import stats

__all__ = [
    "DiagConfig",
    "ConvergenceReport",
    "fdd_test",
    "moment_bound_probe",
    "tightness_modulus_probe",
    "variance_convergence_report",
]


@dataclass(frozen=True)
class DiagConfig:
    """Configuration for the statistical diagnostics."""

    n_list: tuple = (4, 16, 64)
    M: int = 1000
    m: int = 2
    q: float = 1.0
    significance: float = 0.01
    projections: int = 10
    law: str = "standard-normal"
    quad: QuadSpec = field(default_factory=QuadSpec)

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(self.n_list))
        if not self.n_list or list(self.n_list) != sorted(set(self.n_list)):
            raise ValueError("n_list must be non-empty and strictly increasing")
        if self.M < 100:
            raise ValueError("need at least 100 replicates per n")
        if self.m < 2:
            raise ValueError("moment order m must be >= 2")
        if not 0 < self.significance < 1:
            raise ValueError("significance must lie in (0, 1)")
        if self.q < 1:
            raise ValueError("integrability index q must be >= 1")
        if self.projections < 1:
            raise ValueError("projections must be >= 1")


@dataclass
class ConvergenceReport:
    """Structured diagnostic output; every verdict stores its numeric threshold."""

    name: str
    config: dict
    per_n: list
    verdicts: dict
    extra: dict = field(default_factory=dict)

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "name": self.name,
                    "config": self.config,
                    "per_n": self.per_n,
                    "verdicts": self.verdicts,
                    "extra": self.extra,
                },
                fh,
                indent=2,
                default=_jsonable,
            )

    def to_csv(self, path) -> None:
        rows = self.per_n
        if not rows:
            return
        keys = sorted({k for row in rows for k in row if np.isscalar(row[k]) or row[k] is None})
        with open(path, "w") as fh:
            fh.write(",".join(keys) + "\n")
            for row in rows:
                fh.write(",".join(str(row.get(k, "")) for k in keys) + "\n")

    def passed(self) -> bool:
        return all(v["ok"] for v in self.verdicts.values())


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _unit_directions(count: int, dim: int, gen: np.random.Generator) -> np.ndarray:
    dirs = np.empty((count, dim))
    i = 0
    while i < count:
        v = gen.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-12:  # degenerate directions resampled, never emitted
            dirs[i] = v / norm
            i += 1
    return dirs


def fdd_test(
    f: Integrand,
    family: str,
    grid: GridSpec,
    probes,
    cfg: DiagConfig,
    rng: RngStream,
) -> ConvergenceReport:
    """Cramer-Wold probe of finite-dimensional-distribution convergence.

    For each n, projects M replicates of (X_n at the probe points) and of the
    limit field onto random unit directions and runs a two-sample KS test per
    direction.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if probes.size == 0:
        raise ValueError("probe set must be nonempty")
    for p in probes:
        grid.point_in_domain(p)
    if cfg.M < 1000:
        raise ValueError("asymptotic two-sample KS needs M >= 1000")
    gen = rng.substream(0).generator()
    dirs = _unit_directions(cfg.projections, probes.shape[0], gen)
    target = noise_integrator("sheet", f, probes, grid, None, cfg.quad).replicates(
        rng.substream(1), cfg.M
    )
    per_n = []
    for j, n in enumerate(cfg.n_list):
        integ = noise_integrator(family, f, probes, grid, n, cfg.quad, cfg.law)
        Xn = integ.replicates(rng.substream(2 + j), cfg.M)
        pvals, ks = [], []
        for a in dirs:
            res = stats.ks_2samp(Xn @ a, target @ a)
            pvals.append(float(res.pvalue))
            ks.append(float(res.statistic))
        rej = float(np.mean(np.array(pvals) < cfg.significance))
        per_n.append(
            {
                "n": int(n),
                "p_values": pvals,
                "ks_statistics": ks,
                "rejection_fraction": rej,
            }
        )
    accept_threshold = 0.8
    final = per_n[-1]
    verdicts = {
        "final_n_mostly_accepted": {
            "ok": bool(1.0 - final["rejection_fraction"] >= accept_threshold),
            "threshold": accept_threshold,
            "value": 1.0 - final["rejection_fraction"],
        }
    }
    return ConvergenceReport(
        name="fdd_test",
        config={
            "family": family,
            "grid": grid.to_dict(),
            "probes": probes.tolist(),
            "n_list": list(cfg.n_list),
            "M": cfg.M,
            "projections": cfg.projections,
            "significance": cfg.significance,
            "law": cfg.law,
        },
        per_n=per_n,
        verdicts=verdicts,
        extra={"directions": dirs.tolist()},
    )


def _lp_norm(g: Integrand, grid: GridSpec, p: float, quad: QuadSpec) -> float:
    """||g||_p over D by the composite midpoint rule on the refined grid."""
    mids = [
        (np.arange(quad.r * nb) + 0.5) * (t / (quad.r * nb))
        for nb, t in zip(grid.N, grid.T)
    ]
    vol = float(np.prod([t / (quad.r * nb) for nb, t in zip(grid.N, grid.T)]))
    vals = g.evaluator(np.zeros((1, grid.d)), mids)[0].ravel()
    return float(np.sum(np.abs(vals) ** p * vol) ** (1.0 / p))


def moment_bound_probe(
    g: Integrand,
    family: str,
    grid: GridSpec,
    cfg: DiagConfig,
    rng: RngStream,
) -> ConvergenceReport:
    """Estimate E|int g theta_n|^m / ||g||_{2q}^m per n and check boundedness.

    For Donsker kernels at m = 2 the moment is computed exactly from the
    quadrature weights (unit-variance innovations); otherwise Monte Carlo.
    """
    norm = _lp_norm(g, grid, 2.0 * cfg.q, cfg.quad)
    if norm == 0.0:
        raise ValueError("moment_bound_probe requires ||g||_{2q} > 0")
    x0 = np.zeros(grid.d)
    per_n = []
    for j, n in enumerate(cfg.n_list):
        integ = noise_integrator(family, g, [x0], grid, n, cfg.quad, cfg.law)
        if family == "donsker" and cfg.m == 2:
            moment = float(integ.second_moment()[0])
            se = 0.0
            exact = True
        else:
            vals = integ.replicates(rng.substream(j), cfg.M)[:, 0]
            powered = np.abs(vals) ** cfg.m
            moment = float(powered.mean())
            se = float(powered.std(ddof=1) / np.sqrt(cfg.M))
            exact = False
        per_n.append(
            {
                "n": int(n),
                "moment": moment,
                "moment_se": se,
                "ratio": moment / norm**cfg.m,
                "exact": exact,
            }
        )
    ratios = np.array([row["ratio"] for row in per_n])
    spread = float(ratios.max() / np.median(ratios))
    bound_factor = 1.5
    verdicts = {
        "ratios_bounded": {
            "ok": bool(spread <= bound_factor),
            "threshold": bound_factor,
            "value": spread,
        }
    }
    return ConvergenceReport(
        name="moment_bound_probe",
        config={
            "family": family,
            "grid": grid.to_dict(),
            "n_list": list(cfg.n_list),
            "M": cfg.M,
            "m": cfg.m,
            "q": cfg.q,
            "norm_2q": norm,
        },
        per_n=per_n,
        verdicts=verdicts,
    )


def tightness_modulus_probe(
    f: Integrand,
    family: str,
    grid: GridSpec,
    pairs,
    cfg: DiagConfig,
    rng: RngStream,
) -> ConvergenceReport:
    """Regress log E|X_n(x) - X_n(z)|^m on log sum_i |x_i - z_i|, pooled over n."""
    pts = [(as_point(x), as_point(z)) for x, z in pairs]
    for p in (q for pair in pts for q in pair):
        grid.point_in_domain(p)
    dists = [float(np.sum(np.abs(x - z))) for x, z in pts]
    if len({round(np.log(max(t, 1e-300)), 12) for t in dists if t > 0}) < 3:
        raise ValueError("tightness probe needs pairs at >= 3 distinct distances")
    log_d, log_m, rows = [], [], []
    for j, n in enumerate(cfg.n_list):
        for i, ((x, z), dist) in enumerate(zip(pts, dists)):
            if dist == 0.0:
                raise ValueError("pairs with x = z are not admissible")
            integ = noise_integrator(family, f, [x, z], grid, n, cfg.quad, cfg.law)
            vals = integ.replicates(rng.substream(j * len(pts) + i), cfg.M)
            moment = float(np.mean(np.abs(vals[:, 0] - vals[:, 1]) ** cfg.m))
            log_d.append(np.log(dist))
            log_m.append(np.log(moment))
            rows.append({"n": int(n), "distance": dist, "moment": moment})
    res = stats.linregress(log_d, log_m)
    slope = float(res.slope)
    verdicts = {
        "modulus_exponent_exceeds_dimension": {
            "ok": bool(slope > grid.d),
            "threshold": float(grid.d),
            "value": slope,
        }
    }
    return ConvergenceReport(
        name="tightness_modulus_probe",
        config={
            "family": family,
            "grid": grid.to_dict(),
            "n_list": list(cfg.n_list),
            "M": cfg.M,
            "m": cfg.m,
        },
        per_n=rows,
        verdicts=verdicts,
        extra={"slope": slope, "r_squared": float(res.rvalue**2)},
    )


def variance_convergence_report(
    f: Integrand,
    family: str,
    grid: GridSpec,
    x,
    cfg: DiagConfig,
    rng: RngStream,
) -> ConvergenceReport:
    """Check E[X_n(x)^2] -> int_D f^2(x,y) dy across the n list."""
    grid.point_in_domain(x)
    xp = as_point(x)

    def fsq(xs, axes):
        return f.evaluator(np.broadcast_to(xp, (len(xs), xp.size)), axes) ** 2

    target = _lp_norm(Integrand(fsq), grid, 1.0, cfg.quad)
    per_n = []
    for j, n in enumerate(cfg.n_list):
        integ = noise_integrator(family, f, [xp], grid, n, cfg.quad, cfg.law)
        vals = integ.replicates(rng.substream(j), cfg.M)[:, 0]
        sq = vals**2
        per_n.append(
            {
                "n": int(n),
                "second_moment": float(sq.mean()),
                "se": float(sq.std(ddof=1) / np.sqrt(cfg.M)),
            }
        )
    final = per_n[-1]
    verdicts = {
        "final_n_matches_l2_limit": {
            "ok": bool(abs(final["second_moment"] - target) <= 3.0 * final["se"]),
            "threshold": 3.0 * final["se"],
            "value": abs(final["second_moment"] - target),
        }
    }
    return ConvergenceReport(
        name="variance_convergence_report",
        config={
            "family": family,
            "grid": grid.to_dict(),
            "x": xp.tolist(),
            "n_list": list(cfg.n_list),
            "M": cfg.M,
            "target": target,
        },
        per_n=per_n,
        verdicts=verdicts,
    )
