"""Random-field integrals X_n(x) = int_D f(x,y) theta_n(y) dy and their Wiener limits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .grid import GridSpec, as_point
from .kernels import (
    KS_BLOCK,
    BudgetExceededError,
    _draw_innovations,
    ks_midpoints,
    ks_parity_bits,
    ks_rule,
    ks_scale,
    sample_kac_stroock,
)
from .quadrature import QuadSpec, row_outer

__all__ = [
    "Integrand",
    "indicator_integrand",
    "restrict",
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


@dataclass
class Integrand:
    """Deterministic integrand f(x, y), evaluated on batches of x and tensor grids of y.

    evaluator(xs, axes) takes xs of shape (n, d) and one 1-d array of y
    coordinates per axis and returns the values f(x_i, y) on the tensor grid,
    shape (n, m_1, ..., m_d).  cell_integral, when supplied, takes (xs, edges)
    with per-axis edge arrays and returns, with shape (n, *cells), the exact
    integrals of f(x_i, .) over the tensor-product cells; the Donsker path
    then integrates exactly.
    singular-diagonal integrands are finite for x != y and require a positive
    exclusion radius in quadrature.
    """

    evaluator: Callable
    smoothness: str = "smooth"
    cell_integral: Optional[Callable] = None

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
        # per x, the overlap of each cell's axis interval with [0, x_i]
        lens = [np.diff(np.clip(e, 0.0, xs[:, i : i + 1]), axis=1) for i, e in enumerate(edges)]
        return row_outer(lens)

    return Integrand(evaluator=ev, cell_integral=ci)


def restrict(f: Integrand, x) -> Integrand:
    """Indicator-wrapped integrand I_{[0,x]}(y) f(., y)."""
    xr = as_point(x)

    def ev(xs, axes):
        # f is evaluated only on the sub-grid inside [0, x]
        inside = [np.asarray(a) <= xr[i] for i, a in enumerate(axes)]
        vals = np.zeros((len(xs),) + tuple(m.size for m in inside))
        if all(m.any() for m in inside):
            sub = [np.asarray(a)[m] for a, m in zip(axes, inside)]
            vals[(slice(None),) + np.ix_(*inside)] = f.evaluator(xs, sub)
        return vals

    ci = None
    if f.cell_integral is not None:

        def ci(xs, edges):
            clipped = [np.clip(e, 0.0, xr[i]) for i, e in enumerate(edges)]
            return f.cell_integral(xs, clipped)

    return Integrand(evaluator=ev, smoothness=f.smoothness, cell_integral=ci)


def _eval_matrix(f: Integrand, xs: np.ndarray, axes, rho: float) -> np.ndarray:
    """f(x_i, .) on the tensor grid of axes, shape (npts, m_1, ..., m_d),
    zeroed inside the exclusion ball."""
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

    ncells counts the cells or quadrature nodes per x. The budget is
    kernels.DEFAULT_MAX_CELLS entries, read at call time and checked before
    any integrand is evaluated or any weight is allocated.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    entries = xs.shape[0] * ncells
    if entries > kernels.DEFAULT_MAX_CELLS:
        raise BudgetExceededError(
            f"weight matrix of shape ({xs.shape[0]}, {ncells}) would need {8 * entries} "
            f"bytes (> budget of {kernels.DEFAULT_MAX_CELLS} entries)"
        )
    return xs


class DonskerIntegrator:
    """Precomputed weights for X(x) = s sum_k Z_k w_k(x) with i.i.d. innovations Z_k.

    w_k(x) = int_{cell_k cap D} f(x, y) dy, evaluated once per x and reused
    across kernel realizations.  With an integer n the cells have side 1/n on
    D = [0, T] and s = n^{d/2}: the Donsker kernel.  With n = None, T is a
    GridSpec whose own cells are used and s = cell_volume^{-1/2}, so that
    s Z_k w_k = (w_k / cell_volume) (sqrt(cell_volume) Z_k) is the discrete
    Wiener integral against the Brownian sheet's cell increments.
    """

    def __init__(
        self, f: Integrand, xs, n, T, quad: QuadSpec = QuadSpec(), law: str = "standard-normal"
    ):
        if n is None:
            # T is a GridSpec; ceil(n T) would miscount its cells when T is not a multiple of 1/n
            edges = [T.axis_nodes(i) for i in range(T.d)]
            self.scale = T.cell_volume**-0.5
        else:
            n = int(n)
            edges = [np.minimum(np.arange(int(np.ceil(n * t)) + 1) / n, t) for t in T]
            self.scale = n ** (len(edges) / 2.0)
        self.n = n
        self.d = len(edges)
        self.law = law
        shape = tuple(len(e) - 1 for e in edges)
        self.cell_shape = shape
        ncells = int(np.prod(shape))
        # the quadrature fallback evaluates f at r^d nodes per cell
        nodes = ncells if f.cell_integral is not None else ncells * quad.r**self.d
        xs = _budgeted_points(xs, nodes)
        self.xs = xs
        if f.cell_integral is not None:
            W = np.asarray(f.cell_integral(xs, edges)).reshape(xs.shape[0], ncells)
        else:
            if f.singular and quad.rho <= 0:
                raise ValueError("singular integrand requires exclusion radius rho > 0")
            mids, widths = _refined_axes(edges, quad.r)
            wt = widths[0]
            for v in widths[1:]:
                wt = np.multiply.outer(wt, v)
            W = _eval_matrix(f, xs, mids, quad.rho) * wt
            # aggregate r^d sub-cells back onto the cells
            for axis in range(self.d):
                new = list(W.shape)
                new[axis + 1 : axis + 2] = [shape[axis], quad.r]
                W = W.reshape(new).sum(axis=axis + 2)
            W = W.reshape(xs.shape[0], ncells)
        self.weights = W

    def apply_innovations(self, Z: np.ndarray) -> np.ndarray:
        """Batch apply: Z of shape (M, ncells) -> values of shape (M, npts)."""
        return self.scale * (Z @ self.weights.T)

    def replicates(self, rng, M: Optional[int] = None) -> np.ndarray:
        """Values at xs for a stack of realizations, shape (M, npts).

        rng is one RngStream whose generator draws all M innovation rows, or,
        with M omitted, a list of streams drawing one row each. Refuses, before
        drawing, more than kernels.DEFAULT_MAX_CELLS innovations in all.
        """
        ncells = int(np.prod(self.cell_shape))
        total = (len(rng) if M is None else M) * ncells
        if total > kernels.DEFAULT_MAX_CELLS:
            raise BudgetExceededError(
                f"Donsker innovation block would need {total} innovations "
                f"(> budget {kernels.DEFAULT_MAX_CELLS})"
            )
        if M is None:
            Z = np.empty((len(rng), ncells))
            for row, s in zip(Z, rng):
                row[:] = _draw_innovations(s.generator(), self.law, ncells)
        else:
            Z = _draw_innovations(rng.generator(), self.law, (M, ncells))
        return self.apply_innovations(Z)

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
        if f.singular and quad.rho <= 0:
            raise ValueError("singular integrand requires exclusion radius rho > 0")
        self.grid = grid
        self.n = float(n)
        cells, widths = ks_rule(grid, self.n, quad.r)
        xs = _budgeted_points(xs, int(np.prod(cells)))
        self.xs = xs
        self.mids = ks_midpoints(cells, widths)
        W = _eval_matrix(f, xs, self.mids, quad.rho).reshape(xs.shape[0], -1)
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

        One Poisson field per stream: the M substreams of the RngStream rng,
        or, with M omitted, each stream of the list rng. Fields are drawn and
        integrated in blocks of KS_BLOCK streams, in stream order.
        """
        streams = list(rng if M is None else rng.split(M))
        out = np.empty((len(streams), self.weights.shape[0]))
        for start in range(0, len(streams), KS_BLOCK):
            block = streams[start : start + KS_BLOCK]
            fields = [sample_kac_stroock(self.grid, self.n, s) for s in block]
            out[start : start + len(block)] = self.apply(fields)
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
        return DonskerIntegrator(f, xs, int(n), grid.T, quad, law)
    if family == "kac-stroock":
        return KacStroockIntegrator(f, xs, grid, float(n), quad)
    if family == "sheet":
        return DonskerIntegrator(f, xs, None, grid, quad)
    raise ValueError(f"unknown noise family {family!r}; choose one of {FAMILIES}")

