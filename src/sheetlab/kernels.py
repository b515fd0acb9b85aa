"""Donsker and Kac-Stroock kernel families and their primitive processes.

A Donsker kernel takes the value n^{d/2} Z_k on the cube {y : ny in [k-1, k)}
for i.i.d. standardized innovations Z_k; a Kac-Stroock kernel is
n^{d/2} (prod x_i)^{(d-1)/2} (-1)^{N(x)} for a Poisson point count N of
intensity n.  The primitive zeta_n(x) = int_{[0,x]} theta_n(y) dy of either
family approximates the Brownian sheet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, as_point
from .quadrature import QuadSpec
from .rng import RngStream

__all__ = [
    "DonskerField",
    "PoissonField",
    "INNOVATION_LAWS",
    "sample_donsker",
    "donsker_eval",
    "sample_kac_stroock",
    "kac_stroock_eval",
    "ks_rule",
    "ks_midpoints",
    "ks_parity_bits",
    "ks_scale",
    "zeta_on_axes",
    "zeta",
]

INNOVATION_LAWS = ("standard-normal", "rademacher", "centered-uniform")

# refuse to materialize innovation arrays beyond this many entries by default
DEFAULT_MAX_CELLS = 50_000_000


class BudgetExceededError(RuntimeError):
    """Raised when a sampling request would exceed the memory budget."""


@dataclass
class DonskerField:
    """One realization of a Donsker kernel on D = [0, T]."""

    n: int
    T: tuple
    Z: np.ndarray

    @property
    def d(self) -> int:
        return len(self.T)


@dataclass
class PoissonField:
    """One realization of a Kac-Stroock kernel: Poisson points of intensity n on D."""

    n: float
    grid: GridSpec
    points: np.ndarray  # shape (count, d)

    @property
    def d(self) -> int:
        return self.grid.d

    @property
    def T(self) -> tuple:
        return self.grid.T


def _draw_innovations(rng: np.random.Generator, law: str, shape) -> np.ndarray:
    if law == "standard-normal":
        return rng.standard_normal(shape)
    if law == "rademacher":
        return rng.integers(0, 2, size=shape) * 2.0 - 1.0
    if law == "centered-uniform":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=shape)
    raise ValueError(f"unsupported innovation law {law!r}; choose one of {INNOVATION_LAWS}")


def sample_donsker(
    grid: GridSpec,
    n: int,
    law: str = "standard-normal",
    rng: RngStream | None = None,
) -> DonskerField:
    """Draw i.i.d. innovations for every multi-index covering D at scale 1/n.

    Refuses more than kernels.DEFAULT_MAX_CELLS innovations, read at call time.
    """
    if n < 1:
        raise ValueError("Donsker scale n must be >= 1")
    shape = tuple(int(np.ceil(n * t)) for t in grid.T)
    total = int(np.prod(shape))
    if total > DEFAULT_MAX_CELLS:
        raise BudgetExceededError(
            f"Donsker field would need {total} innovations (> budget {DEFAULT_MAX_CELLS})"
        )
    gen = rng.generator() if rng is not None else np.random.default_rng()
    Z = _draw_innovations(gen, law, shape)
    return DonskerField(n=int(n), T=grid.T, Z=Z)


def donsker_eval(f: DonskerField, x) -> float:
    """Kernel value n^{d/2} Z_k at the unique k with nx in [k-1, k)."""
    p = as_point(x)
    if p.size != f.d:
        raise ValueError("dimension mismatch")
    idx = []
    for i in range(f.d):
        if p[i] < 0 or p[i] > f.T[i]:
            raise ValueError(f"coordinate {p[i]} outside [0, {f.T[i]}]")
        # last cell closed at T_i (grid boundary convention)
        idx.append(min(int(np.floor(f.n * p[i])), f.Z.shape[i] - 1))
    return float(f.n ** (f.d / 2.0) * f.Z[tuple(idx)])


def sample_kac_stroock(grid: GridSpec, n: float, rng: RngStream | None = None) -> PoissonField:
    """Homogeneous Poisson point process of intensity n on D."""
    if n <= 0:
        raise ValueError("Kac-Stroock intensity n must be positive")
    gen = rng.generator() if rng is not None else np.random.default_rng()
    volume = float(np.prod(grid.T))
    count = int(gen.poisson(n * volume))
    pts = gen.uniform(0.0, 1.0, size=(count, grid.d)) * np.asarray(grid.T)
    return PoissonField(n=float(n), grid=grid, points=pts)


def ks_rule(grid: GridSpec, n: float, r: int) -> tuple:
    """Sub-cells per axis and their widths in the Kac-Stroock midpoint rule: the
    grid's N_i cells, floored at ceil(n T_i) so that the rule resolves the noise
    scale, each split r-fold."""
    cells = [r * max(nb, int(np.ceil(n * t))) for nb, t in zip(grid.N, grid.T)]
    return cells, [t / k for k, t in zip(cells, grid.T)]


def ks_midpoints(cells, widths) -> list:
    """Midpoints of the first cells[i] sub-cells of width widths[i] on each axis."""
    return [(np.arange(k) + 0.5) * w for k, w in zip(cells, widths)]


def _ks_prefactor_exponent(d: int) -> float:
    return (d - 1) / 2.0


def kac_stroock_eval(f: PoissonField, x) -> float:
    """Kernel value n^{d/2} (prod x_i)^{(d-1)/2} (-1)^{N(x)}."""
    p = as_point(x)
    if p.size != f.d:
        raise ValueError("dimension mismatch")
    for i in range(f.d):
        if p[i] < 0 or p[i] > f.T[i]:
            raise ValueError(f"coordinate {p[i]} outside [0, {f.T[i]}]")
    expo = _ks_prefactor_exponent(f.d)
    pref = 1.0 if expo == 0.0 else float(np.prod(p)) ** expo
    count = int(np.sum(np.all(f.points <= p, axis=1))) if f.points.size else 0
    return float(f.n ** (f.d / 2.0) * pref * (-1) ** count)


# point sets per packed parity grid: one bit of a uint64 each
KS_BLOCK = 64


def _midpoint_cells(mids: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.searchsorted(mids, x, side="left") for the midpoints mids[j] = (j + 1/2) w.

    floor(x / w + 1/2) is never below that index (w = 2 mids[0] exactly), and
    one above it only when x is on or just below a midpoint, so one comparison
    with the midpoint below makes it exact: a coordinate on a midpoint gets that
    midpoint's index, and one past the last midpoint gets len(mids).
    """
    j = np.clip(np.floor(x / (2.0 * mids[0]) + 0.5), 0, len(mids)).astype(np.intp)
    below = np.concatenate(([-np.inf], mids))  # below[j] = mids[j - 1]
    j -= below[j] >= x
    return j


def ks_parity_bits(point_sets, mid_axes) -> np.ndarray:
    """N(y) mod 2 on the tensor grid of midpoints for up to KS_BLOCK point sets.

    mid_axes are uniform midpoints (j + 1/2) w per axis, as ks_midpoints gives.
    Bit b of each uint64 entry is the parity for point_sets[b]. A point's cell on
    axis i is the first midpoint at or above its coordinate; points past the last
    midpoint are dropped. One XOR scatter of per-cell toggles and one cumulative
    XOR per axis give every parity at once.
    """
    if len(point_sets) > KS_BLOCK:
        raise ValueError(f"at most {KS_BLOCK} point sets per parity grid, got {len(point_sets)}")
    shape = tuple(len(m) for m in mid_axes)
    bits = np.zeros(shape, dtype=np.uint64)
    counts = [len(p) for p in point_sets]
    if not sum(counts) or not bits.size:
        return bits
    pts = np.concatenate(point_sets)
    owner = np.repeat(np.arange(len(point_sets), dtype=np.uint64), counts)
    idx = [_midpoint_cells(mids, pts[:, i]) for i, mids in enumerate(mid_axes)]
    keep = np.all([j < k for j, k in zip(idx, shape)], axis=0)
    flat = np.ravel_multi_index(tuple(j[keep] for j in idx), shape)
    # ufunc.at toggles a cell once per point; fancy-index ^= would drop repeats
    np.bitwise_xor.at(bits.reshape(-1), flat, np.left_shift(np.uint64(1), owner[keep]))
    for axis in range(len(shape)):
        np.bitwise_xor.accumulate(bits, axis=axis, out=bits)
    return bits


def ks_scale(n: float, mid_axes) -> np.ndarray:
    """The sign-free factor n^{d/2} (prod y_i)^{(d-1)/2} of theta_n on the tensor
    grid of midpoints."""
    d = len(mid_axes)
    expo = _ks_prefactor_exponent(d)
    if expo == 0.0:
        return np.full(tuple(len(m) for m in mid_axes), n ** (d / 2.0))
    vecs = [np.power(m, expo) for m in mid_axes]
    pref = vecs[0]
    for v in vecs[1:]:
        pref = np.multiply.outer(pref, v)
    return n ** (d / 2.0) * pref


def ks_values_on_grid(f: PoissonField, mid_axes) -> np.ndarray:
    """Kernel values theta_n = ks_scale * (-1)^{N(y)} on the tensor grid of midpoints."""
    return ks_scale(f.n, mid_axes) * (1.0 - 2.0 * (ks_parity_bits([f.points], mid_axes) & 1))


def zeta_on_axes(f, axes, quad: QuadSpec = QuadSpec()) -> np.ndarray:
    """zeta_n(x) = int_{[0,x]} theta_n(y) dy at every point of the tensor grid of
    axes, shape (len(a_1), ..., len(a_d)).

    theta_n is constant on the cells of a tensor grid, so zeta is its cell values
    contracted with one overlap matrix |cell_j cap [0, a_p]| per axis. Donsker
    fields integrate exactly on their cells of side 1/n. Kac-Stroock fields take
    their midpoint values on the ks_rule sub-cells, kept up to the one that
    straddles max a_i, and refuse a sign grid of more than
    kernels.DEFAULT_MAX_CELLS cells.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    if len(axes) != f.d:
        raise ValueError("dimension mismatch")
    if isinstance(f, DonskerField):
        scale, vals = f.n ** (f.d / 2.0), f.Z
        edges = [np.minimum(np.arange(k + 1) / f.n, t) for k, t in zip(f.Z.shape, f.T)]
    elif isinstance(f, PoissonField):
        cells, widths = ks_rule(f.grid, f.n, quad.r)
        m = [min(k, int(np.ceil(a.max(initial=0.0) / w))) for k, a, w in zip(cells, axes, widths)]
        kept = np.prod(m, dtype=float)
        if kept > DEFAULT_MAX_CELLS:
            raise BudgetExceededError(
                f"Kac-Stroock sign grid would need {kept:.0f} cells (> budget {DEFAULT_MAX_CELLS})"
            )
        scale, vals = 1.0, ks_values_on_grid(f, ks_midpoints(m, widths))
        edges = [np.arange(k + 1) * w for k, w in zip(m, widths)]
    else:
        raise TypeError(f"unsupported kernel field type {type(f)!r}")
    for a, e in zip(axes, edges):
        overlap = np.clip(np.minimum(a[:, None], e[1:]) - e[:-1], 0.0, None)
        vals = np.tensordot(vals, overlap, axes=([0], [1]))
    return scale * vals


def zeta(f, x, quad: QuadSpec = QuadSpec()) -> float:
    """zeta_n at one point x of D: zeta_on_axes on the one-point grid."""
    p = as_point(x)
    if p.size != f.d:
        raise ValueError("dimension mismatch")
    if np.any(p < 0) or np.any(p > np.asarray(f.T)):
        raise ValueError("x outside D")
    return zeta_on_axes(f, p[:, None], quad).item()
