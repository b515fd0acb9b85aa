"""Random-field integrals X_n(x) = int_D f(x,y) theta_n(y) dy and their Wiener limits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import GridSpec
from .kernels import (
    KS_BLOCK,
    _donsker_scale,
    _draw_innovations,
    cell_overlaps,
    check_budget,
    donsker_edges,
    ks_midpoints,
    ks_parity_bits,
    ks_rule,
    ks_scale,
    sample_kac_stroock,
)
from .quadrature import QuadSpec, contract_axes, row_outer

__all__ = [
    "Integrand",
    "indicator_integrand",
    "DonskerIntegrator",
    "KacStroockIntegrator",
    "FAMILIES",
    "noise_integrator",
]

FAMILIES = ("donsker", "kac-stroock", "sheet")

# rule cells per unpacked sign chunk in KacStroockIntegrator.apply: a block's
# 2048 x 64 float signs (1 MiB) stay in cache, and the GEMM of a few points
# against them stays on one BLAS thread
KS_CHUNK = 2048

# innovations per drawn row block in DonskerIntegrator.replicates (2 MiB of
# doubles): the (M, cells) innovation matrix is never held at once
DRAW_BLOCK = 1 << 18


@dataclass
class Integrand:
    """Deterministic integrand f(x, y), evaluated on batches of x and tensor grids of y.

    evaluator(xs, axes) takes xs of shape (n, d) and one 1-d array of y
    coordinates per axis and returns the values f(x_i, y) on the tensor grid,
    shape (n, m_1, ..., m_d).  cell_integral, when supplied, takes (xs, edges)
    with per-axis edge arrays and returns, with shape (n, *cells), the exact
    integrals of f(x_i, .) over the tensor-product cells; the Donsker path
    then integrates exactly. cell_map, when supplied, takes the same
    (xs, edges) and returns (apply, modes): apply maps a block of cell
    innovations Z of shape (B, *cells) to sum_c Z_c int_c f(x_i, y) dy, shape
    (B, n), through B * modes coefficients and without the (n, cells)
    weights. Its cost grows with the product, over the axes, of the number
    of distinct coordinates of xs: tensor grids are cheap, scattered points not.
    singular-diagonal integrands are finite for x != y and require a positive
    exclusion radius in quadrature.
    """

    evaluator: Callable
    smoothness: str = "smooth"
    cell_integral: Optional[Callable] = None
    cell_map: Optional[Callable] = None

    @property
    def singular(self) -> bool:
        return self.smoothness == "singular-diagonal"


def indicator_integrand() -> Integrand:
    """f(x, y) = I_{[0,x]}(y), for which X_n reduces to zeta_n."""

    def ev(xs, axes):
        xs = np.asarray(xs, dtype=float)
        return row_outer([(a <= xs[:, i : i + 1]).astype(float) for i, a in enumerate(axes)])

    def ci(xs, edges):
        xs = np.asarray(xs, dtype=float)
        return row_outer([cell_overlaps(xs[:, i], e) for i, e in enumerate(edges)])

    def cm(xs, edges):
        # zeta_on_axes at the distinct coordinates on each axis, gathered per point
        uniq, inv = zip(*(np.unique(xs[:, i], return_inverse=True) for i in range(xs.shape[1])))
        mats = [cell_overlaps(u, e).T for u, e in zip(uniq, edges)]

        def apply(Z):
            return contract_axes(Z, mats)[(slice(None),) + inv]

        return apply, int(np.prod([len(u) for u in uniq]))

    return Integrand(evaluator=ev, cell_integral=ci, cell_map=cm)


def _eval_matrix(f: Integrand, xs: np.ndarray, axes, rho: float) -> np.ndarray:
    """f(x_i, .) on the tensor grid of axes, shape (npts, m_1, ..., m_d),
    zeroed inside the exclusion ball, which a singular f needs (rho > 0)."""
    if f.singular and rho <= 0:
        raise ValueError("singular integrand requires exclusion radius rho > 0")
    F = np.asarray(f.evaluator(xs, axes), dtype=float)
    if f.singular:
        d2 = 0.0
        for i, a in enumerate(axes):
            shape = [1] * len(axes)
            shape[i] = len(a)
            d2 = d2 + ((xs[:, i : i + 1] - a) ** 2).reshape([xs.shape[0]] + shape)
        F = np.where(d2 > rho**2, F, 0.0)
    return F


def _refined_axes(edges, r: int):
    """Split each cell [e_j, e_{j+1}] into r equal sub-cells per axis.

    Returns (mids, widths) per axis; widths are arrays matching mids.
    """
    mids, widths = [], []
    for e in edges:
        lo = np.repeat(e[:-1], r)
        w = np.repeat(np.diff(e) / r, r)
        offs = np.tile(np.arange(r) + 0.5, len(e) - 1)
        mids.append(lo + offs * w)
        widths.append(w)
    return mids, widths


def _budgeted_points(xs, ncells: int) -> np.ndarray:
    """xs as an (npts, d) array, once an (npts, ncells) weight matrix fits the budget.

    ncells counts the cells or quadrature nodes per x. The budget is checked
    before any integrand is evaluated or any weight is allocated.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    entries = xs.shape[0] * ncells
    shape = (xs.shape[0], ncells)
    check_budget(entries, f"weight matrix of shape {shape} would need {8 * entries} bytes")
    return xs


def _replicate_values(M: int, npts: int) -> np.ndarray:
    """The uninitialised (M, npts) array of replicate values, once it fits the budget."""
    check_budget(M * npts, f"replicate values of shape {(M, npts)} would need {8 * M * npts} bytes")
    return np.empty((M, npts))


def _cell_weights(f: Integrand, xs, edges, quad: QuadSpec) -> np.ndarray:
    """The (npts, cells) weights int_{cell_k} f(x, y) dy over the tensor cells of
    edges: the cell_integral oracle when f has one, else the r-fold midpoint rule.
    Budgeted before f is evaluated."""
    shape = tuple(len(e) - 1 for e in edges)
    ncells = int(np.prod(shape))
    # the quadrature fallback evaluates f at r^d nodes per cell
    nodes = ncells if f.cell_integral is not None else ncells * quad.r ** len(edges)
    xs = _budgeted_points(xs, nodes)
    if f.cell_integral is not None:
        return np.asarray(f.cell_integral(xs, edges)).reshape(xs.shape[0], ncells)
    mids, widths = _refined_axes(edges, quad.r)
    wt = widths[0]
    for v in widths[1:]:
        wt = np.multiply.outer(wt, v)
    W = _eval_matrix(f, xs, mids, quad.rho) * wt
    # aggregate r^d sub-cells back onto the cells
    for axis in range(len(edges)):
        new = list(W.shape)
        new[axis + 1 : axis + 2] = [shape[axis], quad.r]
        W = W.reshape(new).sum(axis=axis + 2)
    return W.reshape(xs.shape[0], ncells)


class DonskerIntegrator:
    """X(x) = s sum_k Z_k w_k(x) with i.i.d. innovations Z_k.

    w_k(x) = int_{cell_k} f(x, y) dy over the tensor cells of the per-axis
    edges; s = scale. noise_integrator passes the donsker_edges lattice with
    s = n^{d/2} (the Donsker kernel), or the grid's own cells with
    s = cell_volume^{-1/2}, so that s Z_k w_k = (w_k / cell_volume)
    (sqrt(cell_volume) Z_k) is the discrete Wiener integral against the
    Brownian sheet's cell increments.

    The innovations go through f's cell_map, which holds no weight matrix, or,
    for an f without one, through its (npts, cells) weights, built once.
    """

    def __init__(
        self,
        f: Integrand,
        xs,
        edges,
        scale: float,
        quad: QuadSpec = QuadSpec(),
        law: str = "standard-normal",
    ):
        self.scale = scale
        self.law = law
        self.cell_shape = tuple(len(e) - 1 for e in edges)
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        self.npts = xs.shape[0]
        self._oracle = (f, xs, edges, quad)
        if f.cell_map is not None:
            self._map, self.modes = f.cell_map(xs, edges)
        else:
            W = _cell_weights(f, xs, edges, quad)
            self._map, self.modes = (lambda Z: Z.reshape(len(Z), -1) @ W.T), 0

    @property
    def weights(self) -> np.ndarray:
        """The (npts, cells) weights, built anew from the integrand on each access."""
        return _cell_weights(*self._oracle)

    def apply_innovations(self, Z: np.ndarray) -> np.ndarray:
        """Batch apply: Z of shape (M, ncells) -> values of shape (M, npts)."""
        return self.scale * self._map(Z.reshape((-1,) + self.cell_shape))

    def replicates(self, rng, M: Optional[int] = None) -> np.ndarray:
        """Values at xs for a stack of realizations, shape (M, npts).

        rng is one RngStream whose generator draws all M innovation rows, or,
        with M omitted, a list of streams drawing one row each. Rows are drawn
        and applied in blocks of about DRAW_BLOCK innovations (or mode
        coefficients, if more), so one generator gives the same innovations in
        the same order as a single (M, cells) draw without holding them all.
        The (M, npts) values, then the first block's innovations and mode
        coefficients, are checked against the budget before any draw.
        """
        streams = list(rng) if M is None else None
        M = len(streams) if M is None else M
        out = _replicate_values(M, self.npts)
        ncells = int(np.prod(self.cell_shape))
        rows = max(1, DRAW_BLOCK // max(ncells, self.modes, 1))
        B = min(rows, M)
        for what, shape in (("innovation block", (B,) + self.cell_shape),
                            ("mode coefficients", (B, self.modes))):
            entries = int(np.prod(shape))
            check_budget(entries, f"{what} of shape {shape} would need {8 * entries} bytes")
        gen = rng.generator() if streams is None else None

        def draw(lo, hi):
            if gen is not None:
                return _draw_innovations(gen, self.law, (hi - lo, ncells))
            Z = np.empty((hi - lo, ncells))
            for row, s in zip(Z, streams[lo:hi]):
                row[:] = _draw_innovations(s.generator(), self.law, ncells)
            return Z

        for lo in range(0, M, rows):
            # the block is a temporary: freed before the next one is drawn
            out[lo : lo + rows] = self.apply_innovations(draw(lo, min(lo + rows, M)))
        return out

    def second_moment(self) -> np.ndarray:
        """Exact E[X(x)^2] = s^2 sum_k w_k(x)^2 (unit-variance innovations)."""
        return self.scale**2 * np.sum(self.weights**2, axis=1)


class KacStroockIntegrator:
    """Precomputed midpoint rule for Kac-Stroock integrals.

    The integration grid is the field's grid refined r-fold per axis with a
    floor of ceil(n T_i) base cells, so the rule resolves the sign staircase
    at the noise scale. On the rule's midpoints
    X(x) = sum_c w_c(x) (-1)^{N(mid_c)} = total(x) - 2 sum_{c : N(mid_c) odd} w_c(x),
    with weights w_c(x) = f(x, mid_c) n^{d/2} (prod mid_c)^{(d-1)/2} |c| shared by
    every field, so KS_BLOCK fields are integrated from one packed parity grid.
    """

    def __init__(self, f: Integrand, xs, grid: GridSpec, n: float, quad: QuadSpec = QuadSpec()):
        self.grid = grid
        self.n = float(n)
        cells, widths = ks_rule(grid, self.n, quad.r)
        ncells = int(np.prod(cells))
        xs = _budgeted_points(xs, ncells)
        self.mids = ks_midpoints(cells, widths)
        W = _eval_matrix(f, xs, self.mids, quad.rho).reshape(xs.shape[0], ncells)
        # scaled in place: no second weight-sized array
        W *= ks_scale(self.n, self.mids).reshape(-1)
        W *= float(np.prod(widths))
        self.weights = W
        self.total = W.sum(axis=1)

    def apply(self, fields) -> np.ndarray:
        """Values at xs for up to KS_BLOCK Poisson fields, shape (len(fields), npts)."""
        B = len(fields)
        bits = ks_parity_bits([fld.points for fld in fields], self.mids).reshape(-1)
        # little-endian bytes, so that bit b of a cell is unpacked as column b
        packed = bits.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        odd = np.zeros((self.weights.shape[0], B))
        for start in range(0, packed.shape[0], KS_CHUNK):
            chunk = slice(start, start + KS_CHUNK)
            signs = np.unpackbits(packed[chunk], axis=1, count=B, bitorder="little")
            odd += self.weights[:, chunk] @ signs.astype(float)
        return (self.total[:, None] - 2.0 * odd).T

    def replicates(self, rng, M: Optional[int] = None) -> np.ndarray:
        """Values at xs for a stack of realizations, shape (M, npts).

        One Poisson field per stream: the substreams 0..M-1 of the RngStream
        rng, or, with M omitted, each stream of the list rng. Fields are drawn
        and integrated in blocks of KS_BLOCK streams, in stream order, and a
        substream is made only when its block is drawn. The (M, npts) values
        are checked against the budget before any field is drawn.
        """
        if M is None:
            rng = list(rng)
        out = _replicate_values(len(rng) if M is None else M, self.weights.shape[0])
        stream = rng.__getitem__ if M is None else rng.substream
        for start in range(0, len(out), KS_BLOCK):
            stop = min(start + KS_BLOCK, len(out))
            fields = [sample_kac_stroock(self.grid, self.n, stream(k)) for k in range(start, stop)]
            out[start:stop] = self.apply(fields)
        return out


def noise_integrator(
    family: str,
    f: Integrand,
    xs,
    grid: GridSpec,
    n,
    quad: QuadSpec = QuadSpec(),
    law: str = "standard-normal",
):
    """The integrator of f against one noise family on grid's domain.

    "donsker": the Donsker kernel at scale n with innovation law `law`;
    "kac-stroock": the Kac-Stroock kernel of intensity n; "sheet": the
    Brownian sheet, i.e. the Donsker integrator on the grid's own cells with
    standard-normal innovations (n and law unused).
    """
    if family == "donsker":
        n = _donsker_scale(n)
        return DonskerIntegrator(f, xs, donsker_edges(n, grid.T), n ** (grid.d / 2.0), quad, law)
    if family == "kac-stroock":
        return KacStroockIntegrator(f, xs, grid, float(n), quad)
    if family == "sheet":
        # the grid's own cells: ceil(n T) would miscount them when T is not a multiple of 1/n
        nodes = [grid.axis_nodes(i) for i in range(grid.d)]
        return DonskerIntegrator(f, xs, nodes, grid.cell_volume**-0.5, quad)
    raise ValueError(f"unknown noise family {family!r}; choose one of {FAMILIES}")

