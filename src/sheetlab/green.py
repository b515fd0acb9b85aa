"""Dirichlet Green function on the unit cube (0,1)^d, d in {2,3}.

Two independent evaluators: the sine eigenfunction series
K(x,y) = sum_k e_k(x) e_k(y) / lambda_k with lambda_k = pi^2 |k|^2 and
e_k(x) = prod sqrt(2) sin(k_i pi x_i), and a walk-on-spheres Monte Carlo
estimator based on K(x,y) = G(x,y) - E^x[G(B_tau, y)] with the free-space
kernel G.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridField, GridSpec, as_point, whole_number
from .integrals import Integrand
from .kernels import check_budget
from .quadrature import contract_axes, contract_axis, distinct_coordinates, row_outer
from .rng import RngStream

__all__ = [
    "GreenSeries",
    "WosConfig",
    "WalkTruncationError",
    "green_eval",
    "green_mc_estimate",
    "green_tail_estimate",
    "green_l2_norm",
    "lambda_sup",
    "poincare_constant",
    "k_apply",
    "k_apply_stack",
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
        kmax = self.kmax or (64 if self.d == 2 else 32)  # kmax = 0 asks for d's default
        object.__setattr__(self, "kmax", whole_number(kmax, "kmax", 1))
        modes = self.kmax**self.d
        check_budget(modes, f"Green mode tensor would need {modes} modes")


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

# entries per eigenvalue slab in _contract_inv_lam, as integrals.DRAW_BLOCK (2 MiB):
# a product of 2^18 entries stays on one OpenBLAS thread, one of 2^19 woke a second
LAM_SLAB = 1 << 18


def _lam_tensor(d: int, kmax: int, planes: slice = slice(None)) -> np.ndarray:
    """Eigenvalues pi^2 |k|^2 on {1..kmax}^d, a fresh array on every call;
    `planes` keeps a range of k_2 planes (d >= 2)."""
    # |k|^2 summed axis by axis through broadcasting, in the order of
    # k_1^2 + k_2^2 + ...: the result is the only kmax^d-sized array built
    k2 = np.arange(1, kmax + 1, dtype=float) ** 2
    lam = k2.reshape((-1,) + (1,) * (d - 1))
    for i in range(1, d):
        ki = k2[planes] if i == 1 else k2
        lam = lam + ki.reshape((-1,) + (1,) * (d - 1 - i))
    lam *= np.pi**2
    return lam


def _contract_inv_lam(gs: GreenSeries, p: int, mats) -> np.ndarray:
    """lambda_k^{-p} on {1..kmax}^d contracted with one matrix (kmax, m_i) per
    axis: contract_axes(lambda^{-p}[None], mats)[0], shape (m_1, ..., m_d), with
    the same bits and without the kmax^d tensor.

    The first mode axis is contracted over slabs of whole k_2 planes, each slab
    a multiple of 4 planes and at most LAM_SLAB entries (unless 4 planes
    exceed it), built, inverted and handed to BLAS as contract_axes does with
    the whole tensor; fewer planes per slab move the bits. The other axes are
    contracted as contract_axes does.
    """
    d, kmax = gs.d, gs.kmax
    if len(mats) != d:
        raise ValueError(f"expected {d} per-axis arrays, got {len(mats)}")
    rows_per_plane = kmax ** (d - 2)
    step = max(4, LAM_SLAB // (kmax * rows_per_plane) // 4 * 4)
    for lo in range(0, kmax, step):
        slab = _lam_tensor(d, kmax, slice(lo, lo + step))
        if p == 2:
            slab *= slab
        np.divide(1.0, slab, out=slab)
        if lo == 0:
            # allocated after the first slab's build, whose buffers it would add to
            first = np.empty((kmax * rows_per_plane, mats[0].shape[1]))
        # rows (k_2, ..., k_d) of a Fortran-ordered view, as in contract_axis
        rows = np.moveaxis(slab, 0, -1).reshape(-1, kmax)
        np.matmul(rows, mats[0], out=first[lo * rows_per_plane : (lo + step) * rows_per_plane])
        del slab, rows  # the next slab is built after this one is freed
    out = first.reshape((1,) + (kmax,) * (d - 1) + (mats[0].shape[1],))
    for M in mats[1:]:
        out = contract_axis(out, M)
    return out[0]


def _sine_matrix(pts: np.ndarray, kmax: int) -> np.ndarray:
    """V[j, k] = sqrt(2) sin((k+1) pi x_j) for arbitrary coordinates."""
    k = np.arange(1, kmax + 1)
    return np.sqrt(2.0) * np.sin(np.outer(pts, k) * np.pi)


def _unit_coords(a, what: str) -> np.ndarray:
    """a as floats in [0, 1]: outside it the odd, 2-periodic series would reflect them."""
    a = np.asarray(a, dtype=float)
    if np.any(a < 0.0) or np.any(a > 1.0):
        raise ValueError(f"{what} must lie in the unit cube, got {a[(a < 0.0) | (a > 1.0)][0]}")
    return a


def _series_points(gs: GreenSeries, xs) -> np.ndarray:
    """xs as (n, d) points of [0, 1]^d."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.ndim != 2 or xs.shape[1] != gs.d:
        raise ValueError(f"expected points with {gs.d} coordinates, got shape {xs.shape}")
    return _unit_coords(xs, "points")


def _x_modes(gs: GreenSeries, xs) -> np.ndarray:
    """e_k(x) / lambda_k for each point of xs (n, d): shape (n, kmax, ..., kmax)."""
    xs = _series_points(gs, xs)
    modes = row_outer([_sine_matrix(xs[:, i], gs.kmax) for i in range(gs.d)])
    return modes / _lam_tensor(gs.d, gs.kmax)


def _contract_x_modes(gs: GreenSeries, xs, mats) -> np.ndarray:
    """The mode tensors _x_modes(gs, xs) contracted with one matrix (kmax, pts_i)
    per axis, over blocks of x points: shape (n, pts_1, ..., pts_d).

    A block holds max(1, POINT_CHUNK * kmax // kmax^d) points, so no mode
    tensor exceeds POINT_CHUNK * kmax doubles.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    block = max(1, POINT_CHUNK * gs.kmax // gs.kmax**gs.d)
    out = np.empty((xs.shape[0],) + tuple(M.shape[1] for M in mats))
    for lo in range(0, xs.shape[0], block):
        out[lo : lo + block] = contract_axes(_x_modes(gs, xs[lo : lo + block]), mats)
    return out


def green_eval(gs: GreenSeries, x, y) -> float:
    """Series value sum_{k <= kmax} lambda_k^{-1} e_k(x) e_k(y)."""
    xp, yp = _series_points(gs, [x]).T, _series_points(gs, [y]).T
    # symmetric per-axis products keep green_eval(x, y) == green_eval(y, x) exactly
    cols = [(_sine_matrix(a, gs.kmax) * _sine_matrix(b, gs.kmax)).T for a, b in zip(xp, yp)]
    return float(_contract_inv_lam(gs, 1, cols).item())


def green_values(gs: GreenSeries, x, Y: np.ndarray) -> np.ndarray:
    """K(x, y_j) for arbitrary points Y of shape (m, d)."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != gs.d:
        raise ValueError(f"Y must have shape (m, {gs.d}), got {Y.shape}")
    _unit_coords(Y, "y points")
    coef = _x_modes(gs, [x])[0].reshape(gs.kmax, -1)
    out = np.empty(Y.shape[0])
    for lo in range(0, Y.shape[0], POINT_CHUNK):
        block = Y[lo : lo + POINT_CHUNK]
        # sines once per distinct coordinate of the block, gathered per point
        uniq, inv = distinct_coordinates(block)
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
    """K(x, .) on a tensor grid given by per-axis coordinate arrays: the
    evaluator of green_integrand at the one point x."""
    return green_integrand(gs).evaluator([x], axes)[0]


def free_space_green(d: int, r) -> np.ndarray:
    """Free-space kernel of -Laplace: -(2 pi)^{-1} log r in 2-d, (4 pi r)^{-1} in 3-d."""
    r = np.asarray(r, dtype=float)
    if d == 2:
        return -np.log(r) / (2.0 * np.pi)
    if d == 3:
        return 1.0 / (4.0 * np.pi * r)
    raise ValueError("free-space kernel supported for d in {2, 3}")


def _distance_to_boundary(rows: np.ndarray) -> np.ndarray:
    """Distance of each walk to the cube's boundary, from its axis rows (d, walks)."""
    r = np.minimum(rows[0], 1.0 - rows[0])
    for row in rows[1:]:
        np.minimum(r, row, out=r)
        np.minimum(r, 1.0 - row, out=r)
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
    written out once and dropped. The live walks are kept axis-major, one
    contiguous row per axis, and dropped by `take` on the kept indices. Each
    step draws one direction per live walk, in ascending walk order. Raises
    WalkTruncationError when walks are still live after cfg.max_steps steps.
    """
    xp = as_point(x)
    d = xp.size
    gen = rng.generator()
    pos = np.empty((cfg.walks, d))
    idx = np.arange(cfg.walks)
    live = np.repeat(xp[:, None], cfg.walks, axis=1)  # (d, live walks)
    for step in range(cfg.max_steps + 1):
        r = _distance_to_boundary(live)
        captured = r < cfg.delta
        if np.any(captured):
            out = np.flatnonzero(captured)
            pos[idx.take(out)] = live.take(out, axis=1).T
            keep = np.flatnonzero(~captured)
            idx, live, r = idx.take(keep), live.take(keep, axis=1), r.take(keep)
        if idx.size == 0 or step == cfg.max_steps:
            break
        dirs = gen.standard_normal((idx.size, d))
        # squares summed column by column in the order np.linalg.norm sums a row
        norm2 = dirs[:, 0] * dirs[:, 0]
        for i in range(1, d):
            norm2 += dirs[:, i] * dirs[:, i]
        norm = np.sqrt(norm2)
        # per element the same quotient, product and sum as the row-major
        # `live += r[:, None] * (dirs / norm[:, None])`, so the bits match
        for i in range(d):
            live[i] += r * (dirs[:, i] / norm)
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
    return float(green_l2_norm_on_axes(gs, _series_points(gs, [x]).T).item())


def green_l2_norm_on_axes(gs: GreenSeries, axes) -> np.ndarray:
    """||K(x,.)||_2 on a tensor grid of x points, one axis array per dimension."""
    mats = [_sine_matrix(_unit_coords(a, "x axes"), gs.kmax).T ** 2 for a in axes]
    return np.sqrt(_contract_inv_lam(gs, 2, mats))


def lambda_sup(gs: GreenSeries, grid: GridSpec) -> float:
    """Grid maximum of ||K(x,.)||_2 (a lower bound of the true supremum)."""
    if any(abs(t - 1.0) > 1e-12 for t in grid.T):
        raise ValueError("lambda_sup requires the unit cube T = (1,...,1)")
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


def _analysis(values: np.ndarray, grid: GridSpec, kuse: int) -> np.ndarray:
    """Sine coefficients of a stack (B, *node_shape) of fields: shape (B, kuse, ..., kuse)."""
    interior = values[(slice(None),) + tuple(slice(1, -1) for _ in range(grid.d))]
    return contract_axes(interior, [_interior_sine_bases(n, kuse)[0] for n in grid.N])


def _synthesis(coef: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Node values (zero boundary) of a stack (B, kuse, ..., kuse) of coefficient tensors."""
    kuse = coef.shape[-1]
    out = contract_axes(coef, [_interior_sine_bases(n, kuse)[1].T for n in grid.N])
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


def _cell_moments(e, kmax: int) -> np.ndarray:
    """int_{e_j}^{e_{j+1}} sqrt(2) sin(k pi y) dy for the cells of one axis's
    edges e and k = 1..kmax: shape (cells, kmax)."""
    e = _unit_coords(e, "cell edges")
    k = np.arange(1, kmax + 1)
    # sqrt(2) (cos(k pi a) - cos(k pi b)) / (k pi)
    C = np.sqrt(2.0) * np.cos(np.outer(e, k) * np.pi) / (k * np.pi)
    return C[:-1] - C[1:]


def green_integrand(gs: GreenSeries) -> Integrand:
    """The Green kernel K(x, .) as an integrand.

    Its cell integrals come from the sine antiderivatives, so every integral
    against it is exact for the truncated series, and its cell map takes the
    same integrals in mode space.
    """

    def evaluator(xs, axes):
        mats = [_sine_matrix(_unit_coords(a, "y axes"), gs.kmax).T for a in axes]
        return _contract_x_modes(gs, xs, mats)

    def cell_integral(xs, edges):
        return _contract_x_modes(gs, xs, [_cell_moments(e, gs.kmax).T for e in edges])

    def cell_map(xs, edges):
        # sum_c Z_c int_c K(x, y) dy = sum_k e_k(x) lambda_k^{-1} (Z x_1 M_1 ... x_d M_d)_k
        # with the cell moments M_i: contract, divide, synthesise at x
        xs = _series_points(gs, xs)
        moments = [_cell_moments(e, gs.kmax) for e in edges]
        lam = _lam_tensor(gs.d, gs.kmax)
        # sines once per distinct coordinate on each axis, gathered per point
        uniq, inv = distinct_coordinates(xs)
        sines = [_sine_matrix(u, gs.kmax).T for u in uniq]

        def apply(Z):
            coef = contract_axes(Z, moments)
            coef /= lam
            return contract_axes(coef, sines)[(slice(None),) + inv]

        return apply, gs.kmax**gs.d

    return Integrand(evaluator=evaluator, cell_integral=cell_integral, cell_map=cell_map)
