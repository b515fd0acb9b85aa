"""Dirichlet Green function on the unit cube (0,1)^d, d in {2,3}.

Two independent evaluators: the sine eigenfunction series
K(x,y) = sum_k e_k(x) e_k(y) / lambda_k with lambda_k = pi^2 |k|^2 and
e_k(x) = prod sqrt(2) sin(k_i pi x_i), and a walk-on-spheres Monte Carlo
estimator based on K(x,y) = G(x,y) - E^x[G(B_tau, y)] with the free-space
kernel G.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridField, GridSpec, as_point
from .integrals import Integrand
from .quadrature import QuadSpec, row_outer, tensor_points
from .rng import RngStream
from . import stats

__all__ = [
    "GreenSeries",
    "WosConfig",
    "WalkTruncationError",
    "HolderEstimate",
    "green_eval",
    "green_mc_estimate",
    "green_tail_estimate",
    "green_l2_norm",
    "lambda_sup",
    "poincare_constant",
    "k_apply",
    "k_apply_stack",
    "holder_probe",
    "green_integrand",
    "free_space_green",
]


@dataclass(frozen=True)
class GreenSeries:
    """Truncated eigenfunction expansion: modes k in {1..kmax}^d."""

    d: int
    kmax: int = 0

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError("Green function supported for d in {2, 3}")
        if self.kmax == 0:
            object.__setattr__(self, "kmax", 64 if self.d == 2 else 32)
        if self.kmax < 1:
            raise ValueError("kmax must be >= 1")

    @property
    def modes(self) -> np.ndarray:
        return np.arange(1, self.kmax + 1)


@dataclass(frozen=True)
class WosConfig:
    """Walk-on-spheres controls: walk count, capture tolerance, step cap."""

    walks: int = 100_000
    delta: float = 1e-4
    max_steps: int = 10_000

    def __post_init__(self):
        if self.delta <= 0 or self.delta >= 0.5:
            raise ValueError("capture tolerance delta must lie in (0, 0.5)")
        if self.walks < 1 or self.max_steps < 1:
            raise ValueError("walks and max_steps must be positive")


class WalkTruncationError(RuntimeError):
    """Raised when walks are still farther than delta from the boundary after max_steps steps."""


# points per block in green_values: bounds the per-axis sine matrices to
# kmax * 64 KiB; also bounds every x block's mode tensor to POINT_CHUNK * kmax doubles
POINT_CHUNK = 8192


@dataclass
class HolderEstimate:
    """Log-log regression of ||K(x,.) - K(z,.)||_alpha against |x - z|."""

    alpha: float
    distances: np.ndarray
    norms: np.ndarray
    beta: float
    r_squared: float


@lru_cache(maxsize=16)
def _lam_tensor(d: int, kmax: int) -> np.ndarray:
    """Eigenvalues pi^2 |k|^2 on {1..kmax}^d; cached, so read-only."""
    k = np.arange(1, kmax + 1, dtype=float)
    grids = np.meshgrid(*([k] * d), indexing="ij")
    lam = np.pi**2 * sum(g**2 for g in grids)
    lam.flags.writeable = False
    return lam


def _sine_matrix(pts: np.ndarray, kmax: int) -> np.ndarray:
    """V[j, k] = sqrt(2) sin((k+1) pi x_j) for arbitrary coordinates."""
    k = np.arange(1, kmax + 1)
    return np.sqrt(2.0) * np.sin(np.outer(pts, k) * np.pi)


def _series_point(gs: GreenSeries, x) -> np.ndarray:
    """x as a point of the series' domain: exactly gs.d coordinates."""
    p = as_point(x)
    if p.size != gs.d:
        raise ValueError(f"expected a point with {gs.d} coordinates, got {p.size}")
    return p


def _x_modes(gs: GreenSeries, xs) -> np.ndarray:
    """e_k(x) / lambda_k for each point of xs (n, d): shape (n, kmax, ..., kmax)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.ndim != 2 or xs.shape[1] != gs.d:
        raise ValueError(f"expected points with {gs.d} coordinates, got shape {xs.shape}")
    modes = row_outer([_sine_matrix(xs[:, i], gs.kmax) for i in range(gs.d)])
    return modes / _lam_tensor(gs.d, gs.kmax)


def _contract(coef: np.ndarray, mats) -> np.ndarray:
    """Contract a stack (n, kmax, ..., kmax) of mode tensors with one matrix
    (pts_i, kmax) per axis: shape (n, pts_1, ..., pts_d)."""
    out = coef
    for V in mats:
        out = np.tensordot(out, V, axes=([1], [1]))
    return out


def _contract_x_modes(gs: GreenSeries, xs, mats) -> np.ndarray:
    """_contract(_x_modes(gs, xs), mats) over blocks of x points.

    A block holds max(1, POINT_CHUNK * kmax // kmax^d) points, so no mode
    tensor exceeds POINT_CHUNK * kmax doubles.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if len(mats) != gs.d:
        raise ValueError(f"expected {gs.d} per-axis arrays, got {len(mats)}")
    block = max(1, POINT_CHUNK * gs.kmax // gs.kmax**gs.d)
    out = np.empty((xs.shape[0],) + tuple(M.shape[0] for M in mats))
    for lo in range(0, xs.shape[0], block):
        out[lo : lo + block] = _contract(_x_modes(gs, xs[lo : lo + block]), mats)
    return out


def green_eval(gs: GreenSeries, x, y) -> float:
    """Series value sum_{k <= kmax} lambda_k^{-1} e_k(x) e_k(y)."""
    xp, yp = _series_point(gs, x), _series_point(gs, y)
    # symmetric per-axis products keep green_eval(x, y) == green_eval(y, x) exactly
    out = 1.0 / _lam_tensor(gs.d, gs.kmax)
    for i in range(gs.d):
        axis = _sine_matrix(np.array([xp[i]]), gs.kmax)[0] * _sine_matrix(
            np.array([yp[i]]), gs.kmax
        )[0]
        out = np.tensordot(out, axis, axes=([0], [0]))
    return float(out)


def green_values(gs: GreenSeries, x, Y: np.ndarray) -> np.ndarray:
    """K(x, y_j) for arbitrary points Y of shape (m, d)."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != gs.d:
        raise ValueError(f"Y must have shape (m, {gs.d}), got {Y.shape}")
    coef = _x_modes(gs, [x])[0].reshape(gs.kmax, -1)
    out = np.empty(Y.shape[0])
    for lo in range(0, Y.shape[0], POINT_CHUNK):
        block = Y[lo : lo + POINT_CHUNK]
        # sines once per distinct coordinate of the block, gathered per point
        uniq, inv = zip(*(np.unique(block[:, i], return_inverse=True) for i in range(gs.d)))
        mats = [_sine_matrix(u, gs.kmax) for u in uniq]
        # the first mode axis by one GEMM on the distinct rows, the others by
        # products and row sums. numpy sends a one-row product to GEMV, which
        # sums in another order, so a block of two or more points keeps at
        # least two rows: every point is summed as by a GEMM over the block
        rows = np.resize(mats[0], (max(len(uniq[0]), min(2, len(block))), gs.kmax))
        acc = (rows @ coef)[inv[0]]
        if gs.d == 3:
            acc = (acc.reshape(-1, gs.kmax, gs.kmax) * mats[2][inv[2], None, :]).sum(-1)
        out[lo : lo + POINT_CHUNK] = (acc * mats[1][inv[1]]).sum(-1)
    return out


def green_on_axes(gs: GreenSeries, x, axes) -> np.ndarray:
    """K(x, .) on a tensor grid given by per-axis coordinate arrays."""
    return _contract_x_modes(gs, [x], [_sine_matrix(np.asarray(a), gs.kmax) for a in axes])[0]


def free_space_green(d: int, r) -> np.ndarray:
    """Free-space kernel of -Laplace: -(2 pi)^{-1} log r in 2-d, (4 pi r)^{-1} in 3-d."""
    r = np.asarray(r, dtype=float)
    if d == 2:
        return -np.log(r) / (2.0 * np.pi)
    if d == 3:
        return 1.0 / (4.0 * np.pi * r)
    raise ValueError("free-space kernel supported for d in {2, 3}")


def _distance_to_boundary(pos: np.ndarray) -> np.ndarray:
    """Distance of each row of pos (walks, d) to the cube's boundary, one column at a time."""
    r = np.minimum(pos[:, 0], 1.0 - pos[:, 0])
    for i in range(1, pos.shape[1]):
        r = np.minimum(r, pos[:, i])
        r = np.minimum(r, 1.0 - pos[:, i])
    return r


def _project_to_face(pos: np.ndarray) -> np.ndarray:
    """Snap each point to the nearest face of the unit cube."""
    out = pos.copy()
    d = pos.shape[1]
    dist = np.concatenate([pos, 1.0 - pos], axis=1)  # (walks, 2d)
    face = np.argmin(dist, axis=1)
    for i in range(d):
        out[face == i, i] = 0.0
        out[face == d + i, i] = 1.0
    return out


def walk_on_spheres_exit(x, cfg: WosConfig, rng: RngStream) -> np.ndarray:
    """Brownian exit points from (0,1)^d via walk-on-spheres, shape (walks, d).

    Only the live walks are stepped: a walk within delta of the boundary is
    written out once and dropped. Each step draws one direction per live walk,
    in ascending walk order. Raises WalkTruncationError when walks are still
    live after cfg.max_steps steps.
    """
    xp = as_point(x)
    d = xp.size
    gen = rng.generator()
    pos = np.empty((cfg.walks, d))
    idx = np.arange(cfg.walks)
    live = np.tile(xp, (cfg.walks, 1))
    for step in range(cfg.max_steps + 1):
        r = _distance_to_boundary(live)
        captured = r < cfg.delta
        if np.any(captured):
            pos[idx[captured]] = live[captured]
            keep = ~captured
            idx, live, r = idx[keep], live[keep], r[keep]
        if idx.size == 0 or step == cfg.max_steps:
            break
        dirs = gen.standard_normal((idx.size, d))
        # squares summed column by column in the order np.linalg.norm sums a row
        norm2 = dirs[:, 0] * dirs[:, 0]
        for i in range(1, d):
            norm2 += dirs[:, i] * dirs[:, i]
        dirs /= np.sqrt(norm2)[:, None]
        live += r[:, None] * dirs
    if idx.size:
        raise WalkTruncationError(
            f"{idx.size} of {cfg.walks} walks still active after max_steps={cfg.max_steps}"
        )
    return _project_to_face(pos)


def green_mc_estimate(x, y, cfg: WosConfig = WosConfig(), rng: RngStream | None = None):
    """Monte Carlo estimate of K(x,y) = G(x,y) - E^x[G(B_tau, y)].

    Returns (estimate, standard_error).
    """
    xp, yp = as_point(x), as_point(y)
    d = xp.size
    if yp.size != d:
        raise ValueError(f"y has {yp.size} coordinates, x has {d}")
    if np.allclose(xp, yp):
        raise ValueError("free-space kernel is singular at x = y")
    if np.any(xp <= 0) or np.any(xp >= 1):
        raise ValueError("walk-on-spheres start point must be interior")
    if np.any(yp <= 0) or np.any(yp >= 1):
        raise ValueError("y must be interior")
    if rng is None:
        rng = RngStream(0)
    exits = walk_on_spheres_exit(xp, cfg, rng)
    g_exit = free_space_green(d, np.linalg.norm(exits - yp, axis=1))
    est = float(free_space_green(d, float(np.linalg.norm(xp - yp))) - g_exit.mean())
    se = float(g_exit.std(ddof=1) / np.sqrt(cfg.walks))
    return est, se


def green_tail_estimate(gs: GreenSeries, x, y) -> float:
    """Empirical series-tail bound: twice the kmax-to-(4 kmax) delta."""
    fine = GreenSeries(gs.d, 4 * gs.kmax)
    return 2.0 * abs(green_eval(fine, x, y) - green_eval(gs, x, y))


def green_l2_norm(gs: GreenSeries, x) -> float:
    """||K(x,.)||_2 via Parseval: sqrt(sum lambda_k^{-2} e_k(x)^2)."""
    axes = [np.array([c]) for c in _series_point(gs, x)]
    return float(green_l2_norm_on_axes(gs, axes).ravel()[0])


def green_l2_norm_on_axes(gs: GreenSeries, axes) -> np.ndarray:
    """||K(x,.)||_2 on a tensor grid of x points, one axis array per dimension."""
    lam2 = _lam_tensor(gs.d, gs.kmax) ** 2
    mats = [_sine_matrix(np.asarray(a), gs.kmax) ** 2 for a in axes]
    return np.sqrt(_contract((1.0 / lam2)[None], mats)[0])


def lambda_sup(gs: GreenSeries, grid: GridSpec) -> float:
    """Grid maximum of ||K(x,.)||_2 (a lower bound of the true supremum)."""
    if grid.d != gs.d:
        raise ValueError("grid dimension must match the series dimension")
    axes = [grid.axis_nodes(i) for i in range(grid.d)]
    return float(np.max(green_l2_norm_on_axes(gs, axes)))


def poincare_constant(gs: GreenSeries) -> float:
    """Largest a with <int K phi, phi> >= a ||int K phi||_2^2: the minimal eigenvalue d pi^2."""
    return gs.d * np.pi**2


@lru_cache(maxsize=32)
def _interior_sine_bases(N: int, kuse: int) -> tuple:
    """(analysis, synthesis) matrices on the interior nodes j = 1..N-1.

    synthesis[j, k] = sqrt(2) sin((k+1) pi j / N) and analysis = synthesis / N.
    Cached, so both are read-only.
    """
    synthesis = _sine_matrix(np.arange(1, N) / N, kuse)
    analysis = synthesis / N
    synthesis.flags.writeable = False
    analysis.flags.writeable = False
    return analysis, synthesis


def _check_sine_grid(gs: GreenSeries, grid: GridSpec) -> int:
    """Validate the grid for sine expansion; return the number of modes used per axis."""
    if grid.d != gs.d:
        raise ValueError("grid dimension must match the series dimension")
    if any(abs(t - 1.0) > 1e-12 for t in grid.T):
        raise ValueError("sine expansion requires the unit cube T = (1,...,1)")
    kuse = min(gs.kmax, min(grid.N) - 1)
    if kuse < 1:
        raise ValueError("grid too coarse for any sine mode")
    return kuse


def _contract_first_axis(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Contract axis 1 of a stack x (B, a, *rest) with M (a, k): shape (B, *rest, k).

    np.matmul makes one BLAS call per stacked field, shaped as for a lone
    field, so a field's result does not depend on what else is in the stack.
    """
    B, a, rest = x.shape[0], x.shape[1], x.shape[2:]
    rows = np.moveaxis(x, 1, -1).reshape(B, -1, a)
    return np.matmul(rows, M).reshape((B,) + rest + (M.shape[1],))


def _analysis(values: np.ndarray, grid: GridSpec, kuse: int) -> np.ndarray:
    """Sine coefficients of a stack (B, *node_shape) of fields: shape (B, kuse, ..., kuse)."""
    coef = values[(slice(None),) + tuple(slice(1, -1) for _ in range(grid.d))]
    for i in range(grid.d):
        coef = _contract_first_axis(coef, _interior_sine_bases(grid.N[i], kuse)[0])
    return coef


def _synthesis(coef: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Node values (zero boundary) of a stack (B, kuse, ..., kuse) of coefficient tensors."""
    kuse = coef.shape[-1]
    out = coef
    for i in range(grid.d):
        out = _contract_first_axis(out, _interior_sine_bases(grid.N[i], kuse)[1].T)
    vals = np.zeros((coef.shape[0],) + grid.node_shape)
    vals[(slice(None),) + tuple(slice(1, -1) for _ in range(grid.d))] = out
    return vals


def grid_sine_coefficients(gs: GreenSeries, phi: GridField) -> np.ndarray:
    """Discrete sine coefficients of a boundary-vanishing grid field."""
    kuse = _check_sine_grid(gs, phi.grid)
    return _analysis(phi.values[None], phi.grid, kuse)[0]


def sine_synthesis(coef: np.ndarray, grid: GridSpec) -> GridField:
    """Evaluate a sine-coefficient tensor at the grid nodes (zero boundary)."""
    return GridField(grid, _synthesis(np.asarray(coef)[None], grid)[0])


def k_apply_stack(gs: GreenSeries, values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """k_apply on an array of node values with leading batch axes.

    values has shape (*batch, *grid.node_shape); every field is solved
    independently and the result has the same shape.
    """
    kuse = _check_sine_grid(gs, grid)
    values = np.asarray(values, dtype=float)
    batch = values.shape[: values.ndim - grid.d]
    if values.shape[values.ndim - grid.d :] != grid.node_shape:
        raise ValueError("trailing axes must match the grid node shape")
    flat = values.reshape((-1,) + grid.node_shape)
    coef = _analysis(flat, grid, kuse) / _lam_tensor(gs.d, kuse)
    return _synthesis(coef, grid).reshape(batch + grid.node_shape)


def k_apply(gs: GreenSeries, phi: GridField) -> GridField:
    """Spectral solve u = int_D K(.,y) phi(y) dy: divide sine coefficients by lambda_k."""
    return GridField(phi.grid, k_apply_stack(gs, phi.values, phi.grid))


def green_integrand(gs: GreenSeries) -> Integrand:
    """The Green kernel K(x, .) as a singular-diagonal integrand.

    Carries an exact cell-integral oracle built from the sine antiderivatives,
    so Donsker integration against it is exact for the truncated series.
    """
    k = np.arange(1, gs.kmax + 1)

    def evaluator(xs, axes):
        return _contract_x_modes(gs, xs, [_sine_matrix(np.asarray(a), gs.kmax) for a in axes])

    def cell_integral(xs, edges):
        mats = []
        for e in edges:
            e = np.asarray(e, dtype=float)
            # int_a^b sqrt(2) sin(k pi y) dy = sqrt(2) (cos(k pi a) - cos(k pi b)) / (k pi)
            C = np.sqrt(2.0) * np.cos(np.outer(e, k) * np.pi) / (k * np.pi)
            mats.append(C[:-1] - C[1:])  # (ncells, kmax)
        return _contract_x_modes(gs, xs, mats)

    return Integrand(evaluator=evaluator, smoothness="singular-diagonal", cell_integral=cell_integral)


def _alpha_window_check(d: int, alpha: float) -> None:
    if d == 2 and alpha <= 2:
        warnings.warn(f"alpha={alpha} outside the proven window alpha > 2 for d=2")
    if d == 3 and not (2 < alpha < 2.25):
        warnings.warn(f"alpha={alpha} outside the proven window 2 < alpha < 9/4 for d=3")


def holder_probe(
    gs: GreenSeries, alpha: float, pairs, quad: QuadSpec = QuadSpec(r=256, rho=1e-3)
) -> HolderEstimate:
    """Estimate beta in ||K(x,.) - K(z,.)||_alpha <= C |x-z|^beta by log-log regression."""
    _alpha_window_check(gs.d, alpha)
    if quad.rho <= 0:
        raise ValueError("holder_probe requires a positive exclusion radius")
    mids = [(np.arange(quad.r) + 0.5) / quad.r] * gs.d
    vol = (1.0 / quad.r) ** gs.d
    pts = tensor_points(mids)
    dists, norms = [], []
    for x, z in pairs:
        xp, zp = as_point(x), as_point(z)
        dist = float(np.linalg.norm(xp - zp))
        if dist == 0.0:
            continue
        kx = green_on_axes(gs, xp, mids).ravel()
        kz = green_on_axes(gs, zp, mids).ravel()
        mask = (np.linalg.norm(pts - xp, axis=1) > quad.rho) & (
            np.linalg.norm(pts - zp, axis=1) > quad.rho
        )
        norm = float(np.sum(np.abs(kx - kz)[mask] ** alpha * vol) ** (1.0 / alpha))
        dists.append(dist)
        norms.append(norm)
    if len(set(np.round(np.log(dists), 12))) < 3:
        raise ValueError("holder_probe needs pairs at >= 3 distinct distances")
    res = stats.linregress(np.log(dists), np.log(norms))
    return HolderEstimate(
        alpha=alpha,
        distances=np.array(dists),
        norms=np.array(norms),
        beta=float(res.slope),
        r_squared=float(res.rvalue**2),
    )
