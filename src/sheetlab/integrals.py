"""Random-field integrals X_n(x) = int_D f(x,y) theta_n(y) dy and their Wiener limits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import GridSpec, whole_number
from .kernels import (
    KS_BLOCK,
    _draw_innovations,
    cell_overlaps,
    check_shape_budget,
    donsker_edges,
    ks_parity_bits,
    ks_rule,
    ks_theta,
    sample_kac_stroock,
)
from .quadrature import contract_axes, distinct_coordinates, row_outer

__all__ = [
    "Integrand",
    "indicator_integrand",
    "DonskerIntegrator",
    "KacStroockIntegrator",
    "FAMILIES",
    "noise_integrator",
]

FAMILIES = ("donsker", "kac-stroock", "sheet")

# innovations per drawn row block in DonskerIntegrator.replicates (2 MiB of
# doubles): the (M, cells) innovation matrix is never held at once
DRAW_BLOCK = 1 << 18


@dataclass
class Integrand:
    """Deterministic integrand f(x, y), integrated exactly over tensor cells.

    evaluator(xs, axes) takes xs of shape (n, d) and one 1-d array of y
    coordinates per axis and returns the values f(x_i, y) on the tensor grid,
    shape (n, m_1, ..., m_d). cell_integral takes (xs, edges) with per-axis
    edge arrays and returns, with shape (n, *cells), the exact integrals of
    f(x_i, .) over the tensor-product cells. cell_map takes the same
    (xs, edges) and returns (apply, modes): apply maps a block of cell
    values Z of shape (B, *cells) to sum_c Z_c int_c f(x_i, y) dy, shape
    (B, n), through B * modes coefficients and without the (n, cells)
    weights. Its cost grows with the product, over the axes, of the number
    of distinct coordinates of xs: tensor grids are cheap, scattered points not.
    """

    evaluator: Callable
    cell_integral: Callable
    cell_map: Callable


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
        uniq, inv = distinct_coordinates(xs)
        mats = [cell_overlaps(u, e).T for u, e in zip(uniq, edges)]

        def apply(Z):
            return contract_axes(Z, mats)[(slice(None),) + inv]

        return apply, int(np.prod([len(u) for u in uniq]))

    return Integrand(evaluator=ev, cell_integral=ci, cell_map=cm)


class _CellIntegrator:
    """X(x) = s sum_k v_k w_k(x) for the values v_k that a noise field takes on
    the tensor cells of the per-axis edges, with w_k(x) = int_{cell_k} f(x, y) dy
    and s = scale.

    The cell values go through f's cell_map, which holds no weight matrix. A
    subclass draws them: _block_values(rng, streams) maps (lo, hi) to the values
    at xs of fields lo..hi-1, for blocks of _rows fields applied as
    (_applied, *cells) arrays named _block_name.
    """

    def __init__(self, f: Integrand, xs, edges, scale: float):
        self.scale = scale
        self.cell_shape = tuple(len(e) - 1 for e in edges)
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        self.npts = xs.shape[0]
        self._oracle = (f, xs, edges)
        self._map, self.modes = f.cell_map(xs, edges)

    @property
    def weights(self) -> np.ndarray:
        """The (npts, cells) weights w_k(x), built anew from f's cell integrals
        on each access, and budgeted before they are."""
        f, xs, edges = self._oracle
        check_shape_budget("weight matrix", (self.npts, math.prod(self.cell_shape)))
        return np.asarray(f.cell_integral(xs, edges)).reshape(self.npts, -1)

    def apply_innovations(self, Z: np.ndarray) -> np.ndarray:
        """Batch apply: cell values Z of shape (M, ncells) -> values of shape (M, npts)."""
        return self.scale * self._map(Z.reshape((-1,) + self.cell_shape))

    def replicates(self, rng, M: Optional[int] = None) -> np.ndarray:
        """Values at xs for a stack of realizations, shape (M, npts).

        rng is one RngStream that draws all M fields, or, with M omitted, a
        list of streams drawing one field each. Fields are drawn in blocks of
        _rows and applied _applied at a time, so the (M, cells) values are never
        held at once. The (M, npts) values, then the first block's cell values
        and mode coefficients, are checked against the budget before any draw.
        """
        streams = list(rng) if M is None else None
        M = len(streams) if M is None else M
        check_shape_budget("replicate values", (M, self.npts))
        out = np.empty((M, self.npts))
        B = min(self._applied, M)
        check_shape_budget(self._block_name, (B,) + self.cell_shape)
        check_shape_budget("mode coefficients", (B, self.modes))
        values = self._block_values(rng, streams)
        for lo in range(0, M, self._rows):
            out[lo : lo + self._rows] = values(lo, min(lo + self._rows, M))
        return out


class DonskerIntegrator(_CellIntegrator):
    """X(x) = s sum_k Z_k w_k(x) with i.i.d. innovations Z_k.

    w_k(x) = int_{cell_k} f(x, y) dy over the tensor cells of the per-axis
    edges; s = scale. noise_integrator passes the donsker_edges lattice with
    s = n^{d/2} (the Donsker kernel), or the grid's own cells with
    s = cell_volume^{-1/2}, so that s Z_k w_k = (w_k / cell_volume)
    (sqrt(cell_volume) Z_k) is the discrete Wiener integral against the
    Brownian sheet's cell increments.

    Innovation rows are drawn and applied in blocks of about DRAW_BLOCK
    innovations (or mode coefficients, if more), so one generator gives the
    same innovations in the same order as a single (M, cells) draw.
    """

    _block_name = "innovation block"

    def __init__(
        self,
        f: Integrand,
        xs,
        edges,
        scale: float,
        law: str = "standard-normal",
    ):
        super().__init__(f, xs, edges, scale)
        self.law = law
        self._rows = self._applied = max(1, DRAW_BLOCK // max(math.prod(self.cell_shape), self.modes, 1))

    def _block_values(self, rng, streams):
        ncells = math.prod(self.cell_shape)
        gen = rng.generator() if streams is None else None

        def values(lo, hi):
            if gen is not None:
                Z = _draw_innovations(gen, self.law, (hi - lo, ncells))
            else:
                Z = np.empty((hi - lo, ncells))
                for row, s in zip(Z, streams[lo:hi]):
                    row[:] = _draw_innovations(s.generator(), self.law, ncells)
            return self.apply_innovations(Z)

        return values

    def second_moment(self) -> np.ndarray:
        """Exact E[X(x)^2] = s^2 sum_k w_k(x)^2 (unit-variance innovations)."""
        return self.scale**2 * np.sum(self.weights**2, axis=1)


class KacStroockIntegrator(_CellIntegrator):
    """X(x) = sum_c theta_n(mid_c) int_c f(x, y) dy over the ks_rule sub-cells c.

    The rule refines the field's grid r-fold per axis with a floor of
    ceil(n T_i) base cells, so that it resolves the sign staircase at the noise
    scale; theta_n takes its value at each sub-cell's midpoint, as in
    zeta_on_axes. f is integrated over the sub-cells exactly, by its
    cell_map. The fields of a block of KS_BLOCK streams share one packed
    parity grid and are applied eight at a time, their theta_n built by
    kernels.ks_theta.
    """

    _rows, _applied, _block_name = KS_BLOCK, 8, "cell value block"

    def __init__(self, f: Integrand, xs, grid: GridSpec, n: float, r: int = 1):
        self.grid = grid
        self.n = float(n)
        edges, self.mids = ks_rule(grid, self.n, r)
        super().__init__(f, xs, edges, 1.0)

    def _block_values(self, rng, streams):
        """One field per stream: the substreams of rng, or each stream of the
        list, made only when its block is drawn."""
        stream = rng.substream if streams is None else streams.__getitem__

        def values(lo, hi):
            fields = [sample_kac_stroock(self.grid, self.n, stream(k)) for k in range(lo, hi)]
            bits = ks_parity_bits([fld.points for fld in fields], self.mids).reshape(-1)
            out = np.empty((hi - lo, self.npts))
            for j in range(0, hi - lo, self._applied):
                sets = np.arange(j, min(j + self._applied, hi - lo), dtype=np.uint64)
                theta = ks_theta(bits, sets, self.n, self.mids)
                out[j : j + len(sets)] = self.apply_innovations(theta)
            return out

        return values


def noise_integrator(
    family: str,
    f: Integrand,
    xs,
    grid: GridSpec,
    n,
    r: int = 1,
    law: str = "standard-normal",
):
    """The integrator of f against one noise family on grid's domain.

    "donsker": the Donsker kernel at scale n with innovation law `law`;
    "kac-stroock": the Kac-Stroock kernel of intensity n, on the ks_rule
    sub-cells refined r-fold; "sheet": the Brownian sheet, i.e. the
    Donsker integrator on the grid's own cells with standard-normal
    innovations (n and law unused). Only Kac-Stroock reads r.
    """
    if family == "donsker":
        n = whole_number(n, "Donsker scale n", 1)
        return DonskerIntegrator(f, xs, donsker_edges(n, grid.T), n ** (grid.d / 2.0), law)
    if family == "kac-stroock":
        return KacStroockIntegrator(f, xs, grid, float(n), r)
    if family == "sheet":
        # the grid's own cells: ceil(n T) would miscount them when T is not a multiple of 1/n
        nodes = [grid.axis_nodes(i) for i in range(grid.d)]
        return DonskerIntegrator(f, xs, nodes, grid.cell_volume**-0.5)
    raise ValueError(f"unknown noise family {family!r}; choose one of {FAMILIES}")

