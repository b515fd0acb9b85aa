"""Statistical diagnostics: FDD and solution-law convergence, moment bounds,
tightness modulus, variances, and the Holder exponent of the Green kernel."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import GridField, GridSpec, as_point, uniform_cells, whole_number
from .green import GreenSeries, green_on_axes
from .integrals import Integrand, noise_integrator
from .kernels import check_budget, check_shape_budget

# re-exported: bench/layers.py traces the integrator classes it finds on this module
from .integrals import DonskerIntegrator, KacStroockIntegrator  # noqa: F401
from .quadrature import row_outer
from .rng import RngStream
from .solver import Nonlinearity, SolveConfig, SpdeSampler
from . import stats

__all__ = [
    "DiagConfig",
    "ConvergenceReport",
    "HolderEstimate",
    "fdd_test",
    "moment_bound_probe",
    "tightness_modulus_probe",
    "variance_convergence_report",
    "solution_convergence_report",
    "holder_probe",
]


@dataclass(frozen=True)
class DiagConfig:
    """The plan of every report: the n list, M replicates per n, the moment
    order m and integrability index q, the KS significance, the Cramer-Wold
    projections, the innovation law and the refinement r: of the Kac-Stroock
    rule, and of the norm quadrature of the moment and variance reports."""

    n_list: tuple = (4, 16, 64)
    M: int = 1000
    m: int = 2
    q: float = 1.0
    significance: float = 0.01
    projections: int = 10
    law: str = "standard-normal"
    r: int = 1

    def __post_init__(self):
        # a whole n is an int, any other (a Kac-Stroock intensity) a float, so
        # that every report row writes n as it was run
        n_list = tuple(int(n) if float(n).is_integer() else float(n) for n in self.n_list)
        object.__setattr__(self, "n_list", n_list)
        if len(self.n_list) == 0 or list(self.n_list) != sorted(set(self.n_list)):
            raise ValueError("n_list must be non-empty and strictly increasing")
        if self.M < 100:
            raise ValueError("need at least 100 replicates per n")
        if not 0 < self.significance < 1:
            raise ValueError("significance must lie in (0, 1)")
        if self.m < 2:
            raise ValueError("moment order m must be >= 2")
        if self.q < 1:
            raise ValueError("integrability index q must be >= 1")
        if self.projections < 1:
            raise ValueError("projections must be >= 1")
        object.__setattr__(self, "r", whole_number(self.r, "refinement factor r", 1))


@dataclass
class ConvergenceReport:
    """Structured diagnostic output; every verdict stores its numeric threshold."""

    name: str
    config: dict
    per_n: list
    verdicts: dict
    extra: dict = field(default_factory=dict)

    def passed(self) -> bool:
        return all(v["ok"] for v in self.verdicts.values())


def _unit_directions(count: int, dim: int, gen: np.random.Generator) -> np.ndarray:
    check_shape_budget("directions", (count, dim))
    dirs = np.empty((count, dim))
    i = 0
    while i < count:
        v = gen.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-12:  # degenerate directions resampled, never emitted
            dirs[i] = v / norm
            i += 1
    return dirs


def _verdict(name: str, value, threshold, ok) -> dict:
    """The one verdict record, {name: {ok, threshold, value}}."""
    return {name: {"ok": bool(ok), "threshold": float(threshold), "value": float(value)}}


def _mc_moment(vals: np.ndarray, m) -> tuple:
    """Monte Carlo mean of |X|^m over the replicates vals, and its standard error."""
    powered = np.abs(vals) ** m
    return float(powered.mean()), float(powered.std(ddof=1) / np.sqrt(len(vals)))


def _check_distances(dists, probe: str) -> None:
    """Refuse a pair with x = z, then fewer than 3 distinct distances."""
    if 0.0 in dists:
        raise ValueError(f"{probe}: pairs with x = z are not admissible")
    if len(set(np.round(np.log(dists), 12))) < 3:
        raise ValueError(f"{probe} needs pairs at >= 3 distinct distances")


def _slope_fit(dists, values) -> tuple:
    """Least-squares slope of log values on log dists, and its r^2."""
    res = stats.linregress(np.log(dists), np.log(values))
    return float(res.slope), float(res.rvalue**2)


def _ks_row(n, pairs, significance: float, key: str) -> dict:
    """One per_n row: a two-sample KS test of each (sample, target) pair, and
    the fraction rejected at significance. pairs may be a generator, so that
    only one pair is held at a time.

    key names the KS statistics, which the fdd and the solution reports store
    as "ks_statistics" and "ks_distances".
    """
    pvals, ks = [], []
    for sample, target in pairs:
        res = stats.ks_2samp(sample, target)
        pvals.append(float(res.pvalue))
        ks.append(float(res.statistic))
    return {
        "n": n,
        "p_values": pvals,
        key: ks,
        "rejection_fraction": float(np.mean(np.array(pvals) < significance)),
    }


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
    probes = np.array([grid.point_in_domain(p) for p in probes])
    if cfg.M < 1000:
        raise ValueError("asymptotic two-sample KS needs M >= 1000")
    gen = rng.substream(0).generator()
    dirs = _unit_directions(cfg.projections, probes.shape[0], gen)
    limit = noise_integrator("sheet", f, probes, grid, None, cfg.r).replicates(
        rng.substream(1), cfg.M
    )
    per_n = []
    for j, n in enumerate(cfg.n_list):
        integ = noise_integrator(family, f, probes, grid, n, cfg.r, cfg.law)
        Xn = integ.replicates(rng.substream(2 + j), cfg.M)
        pairs = ((Xn @ a, limit @ a) for a in dirs)
        per_n.append(_ks_row(n, pairs, cfg.significance, "ks_statistics"))
    accepted = 1.0 - per_n[-1]["rejection_fraction"]
    verdicts = _verdict("final_n_mostly_accepted", accepted, 0.8, accepted >= 0.8)
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


def _lp_norm(values, grid: GridSpec, p: float, r: int, x) -> float:
    """||g||_p over D by the composite midpoint rule on the cells of
    uniform_cells(r N_i, T_i), with x_i one more edge on each axis where it lies
    strictly inside a cell and below T_i, so that a g that jumps at x (the
    indicator of [0, x]) has no cell across its jump, and no cell starts at or
    beyond T_i.

    values(axes) gives g on the tensor grid of the per-axis midpoints. The cells
    are counted, and refused over the budget, before any edge array exists.
    """
    splits = [_splits_a_cell(c, r * nb, t) for nb, t, c in zip(grid.N, grid.T, x)]
    cells = np.prod([r * nb + s for nb, s in zip(grid.N, splits)], dtype=float)
    check_budget(cells, f"norm quadrature would need {cells:.0f} integrand values")
    edges = []
    for nb, t, c, split in zip(grid.N, grid.T, x, splits):
        e = uniform_cells(r * nb, t)[0]
        edges.append(np.insert(e, np.searchsorted(e, c), c) if split else e)
    mids = [(e[:-1] + e[1:]) / 2 for e in edges]
    vol = row_outer([np.diff(e)[None] for e in edges])[0]
    return float(np.sum(np.abs(values(mids)) ** p * vol) ** (1.0 / p))


def _splits_a_cell(c: float, k: int, t: float) -> bool:
    """Whether c lies strictly inside one of the cells of uniform_cells(k, t) and
    below t, decided without the edges j w: an edge equal to c is one of the
    three products j w around c / w, the floats that uniform_cells computes."""
    w = t / k
    j = round(c / w)
    return c < min(k * w, t) and all(c != i * w for i in (j - 1, j, j + 1) if 0 <= i <= k)


def moment_bound_probe(
    g: Integrand,
    family: str,
    grid: GridSpec,
    cfg: DiagConfig,
    rng: RngStream,
) -> ConvergenceReport:
    """Estimate E|int g theta_n|^m / ||g||_{2q}^m per n and check boundedness.

    At m = 2 the moment is exact wherever the integrator computes it
    (second_moment: the Donsker and sheet weights, unit-variance innovations);
    otherwise Monte Carlo. g is integrated at x0 = T, the upper corner of D,
    so a g of y alone and the indicator of [0, T] (g = 1 on D) are the same.
    """
    x0 = np.array(grid.T, dtype=float)
    norm = _lp_norm(lambda axes: g.evaluator(x0[None], axes)[0], grid, 2.0 * cfg.q, cfg.r, x0)
    if norm == 0.0:
        raise ValueError("moment_bound_probe requires ||g||_{2q} > 0")
    per_n = []
    for j, n in enumerate(cfg.n_list):
        integ = noise_integrator(family, g, [x0], grid, n, cfg.r, cfg.law)
        exact = cfg.m == 2 and hasattr(integ, "second_moment")
        if exact:
            moment, se = float(integ.second_moment()[0]), 0.0
        else:
            moment, se = _mc_moment(integ.replicates(rng.substream(j), cfg.M)[:, 0], cfg.m)
        per_n.append(
            {
                "n": n,
                "moment": moment,
                "moment_se": se,
                "ratio": moment / norm**cfg.m,
                "exact": exact,
            }
        )
    ratios = np.array([row["ratio"] for row in per_n])
    spread = float(ratios.max() / np.median(ratios))
    verdicts = _verdict("ratios_bounded", spread, 1.5, spread <= 1.5)
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
    pts = [(grid.point_in_domain(x), grid.point_in_domain(z)) for x, z in pairs]
    dists = [float(np.sum(np.abs(x - z))) for x, z in pts]
    _check_distances(dists, "tightness probe")
    rows = []
    for j, n in enumerate(cfg.n_list):
        for i, ((x, z), dist) in enumerate(zip(pts, dists)):
            integ = noise_integrator(family, f, [x, z], grid, n, cfg.r, cfg.law)
            vals = integ.replicates(rng.substream(j * len(pts) + i), cfg.M)
            moment, _ = _mc_moment(vals[:, 0] - vals[:, 1], cfg.m)
            rows.append({"n": n, "distance": dist, "moment": moment})
    slope, r_squared = _slope_fit([r["distance"] for r in rows], [r["moment"] for r in rows])
    verdicts = _verdict("modulus_exponent_exceeds_dimension", slope, grid.d, slope > grid.d)
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
        extra={"slope": slope, "r_squared": r_squared},
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
    xp = grid.point_in_domain(x)
    target = _lp_norm(lambda axes: f.evaluator(xp[None], axes)[0] ** 2, grid, 1.0, cfg.r, xp)
    per_n = []
    for j, n in enumerate(cfg.n_list):
        integ = noise_integrator(family, f, [xp], grid, n, cfg.r, cfg.law)
        second, se = _mc_moment(integ.replicates(rng.substream(j), cfg.M)[:, 0], 2)
        per_n.append({"n": n, "second_moment": second, "se": se})
    gap, bound = abs(second - target), 3.0 * se  # the final n's moment and error
    verdicts = _verdict("final_n_matches_l2_limit", gap, bound, gap <= bound)
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


def solution_convergence_report(
    family: str,
    probes,
    g: GridField,
    F: Nonlinearity,
    gs: GreenSeries,
    cfg: DiagConfig,
    rng: RngStream,
    solve: SolveConfig = SolveConfig(),
) -> ConvergenceReport:
    """Two-sample KS comparison of u_n against the sheet-driven solution law.

    For each n of cfg.n_list, cfg.M replicate solutions are evaluated at the
    probe points and compared per probe with cfg.M sheet-driven solutions.
    The noise is integrated with cfg.r and standard-normal innovations;
    any other cfg.law is refused.
    """
    if cfg.law != "standard-normal":
        raise ValueError(f"the solution report draws standard-normal innovations, not {cfg.law!r}")
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    grid = g.grid
    # the probes' node indices per axis, so that one fancy index reads them all
    at_probes = (slice(None),) + tuple(np.array([grid.node_index(p) for p in probes]).T)

    def solution_values(family: str, n, stream: RngStream) -> np.ndarray:
        # solutions arrive a block at a time; only their probe values are kept
        sampler = SpdeSampler(family, n, g, F, gs, solve, cfg.r)
        blocks = sampler.solve_blocks(stream.substream(k) for k in range(cfg.M))
        return np.concatenate([solved.u[at_probes] for solved in blocks])

    target = solution_values("sheet", None, rng.substream(0))
    per_n = []
    for j, n in enumerate(cfg.n_list):
        vals = solution_values(family, n, rng.substream(1 + j))
        per_n.append(_ks_row(n, zip(vals.T, target.T), cfg.significance, "ks_distances"))
    first, last = per_n[0], per_n[-1]
    improved = np.mean(
        [lf <= ff for lf, ff in zip(last["ks_distances"], first["ks_distances"])]
    )
    majority = float(np.mean(np.array(last["p_values"]) >= cfg.significance))
    verdicts = {
        **_verdict("ks_distance_improves", improved, 0.8, improved >= 0.8),
        **_verdict("final_n_majority_accepted", majority, 0.5, majority > 0.5),
    }
    return ConvergenceReport(
        name="solution_convergence_report",
        config={
            "family": family,
            "n_list": list(cfg.n_list),
            "M": cfg.M,
            "probes": probes.tolist(),
            "significance": cfg.significance,
            "grid": grid.to_dict(),
        },
        per_n=per_n,
        verdicts=verdicts,
    )


@dataclass
class HolderEstimate:
    """Log-log regression of ||K(x,.) - K(z,.)||_alpha against |x - z|."""

    alpha: float
    distances: np.ndarray
    norms: np.ndarray
    beta: float
    r_squared: float


def _alpha_window_check(d: int, alpha: float) -> None:
    if d == 2 and alpha <= 2:
        warnings.warn(f"alpha={alpha} outside the proven window alpha > 2 for d=2")
    if d == 3 and not (2 < alpha < 2.25):
        warnings.warn(f"alpha={alpha} outside the proven window 2 < alpha < 9/4 for d=3")


def holder_probe(
    gs: GreenSeries, alpha: float, pairs, r: int = 256, rho: float = 1e-3
) -> HolderEstimate:
    """Estimate beta in ||K(x,.) - K(z,.)||_alpha <= C |x-z|^beta by log-log regression.

    The norm is the midpoint rule on the r^d cells of uniform_cells(r, 1.0) per
    axis, without the midpoints within rho of x or of z, where K is singular.
    The r^d kernel values are refused over the budget before they are built."""
    _alpha_window_check(gs.d, alpha)
    r = whole_number(r, "holder_probe's midpoint count r", 1)
    if rho <= 0:
        raise ValueError("holder_probe requires a positive exclusion radius")
    pts = [(as_point(x), as_point(z)) for x, z in pairs]
    dists = [float(np.linalg.norm(x - z)) for x, z in pts]
    _check_distances(dists, "holder_probe")
    check_shape_budget("holder_probe kernel values", (r,) * gs.d)
    mids = [uniform_cells(r, 1.0)[1]] * gs.d
    vol = (1.0 / r) ** gs.d
    norms = []
    for x, z in pts:
        diff = green_on_axes(gs, x, mids) - green_on_axes(gs, z, mids)
        keep = (_distances(mids, x) > rho) & (_distances(mids, z) > rho)
        norms.append(float(np.sum(np.abs(diff[keep]) ** alpha * vol) ** (1.0 / alpha)))
    beta, r_squared = _slope_fit(dists, norms)
    return HolderEstimate(
        alpha=alpha, distances=np.array(dists), norms=np.array(norms), beta=beta, r_squared=r_squared
    )


def _distances(axes, p) -> np.ndarray:
    """|y - p| on the tensor grid of axes, without its (prod m_i, d) points: the
    per-axis squared distances are broadcast and summed axis by axis, the order
    in which np.linalg.norm sums a row, so every bit matches it."""
    return np.sqrt(sum(np.ix_(*[(a - c) ** 2 for a, c in zip(axes, p)])))
