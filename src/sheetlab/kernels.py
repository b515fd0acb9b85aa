"""Donsker and Kac-Stroock kernel families and their primitive processes.

A Donsker kernel takes the value n^{d/2} Z_k on the cube {y : ny in [k-1, k)}
for i.i.d. standardized innovations Z_k; a Kac-Stroock kernel is
n^{d/2} (prod x_i)^{(d-1)/2} (-1)^{N(x)} for a Poisson point count N of
intensity n.  The primitive zeta_n(x) = int_{[0,x]} theta_n(y) dy of either
family approximates the Brownian sheet, whose covariance is sheet_covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, as_point, uniform_cells, whole_number
from .quadrature import contract_axes, row_outer
from .rng import RngStream

__all__ = [
    "DonskerField",
    "PoissonField",
    "INNOVATION_LAWS",
    "check_budget",
    "check_shape_budget",
    "sample_donsker",
    "donsker_edges",
    "donsker_eval",
    "sample_kac_stroock",
    "kac_stroock_eval",
    "ks_rule",
    "ks_parity_bits",
    "ks_scale",
    "ks_theta",
    "cell_overlaps",
    "zeta_on_axes",
    "zeta",
    "sheet_covariance",
]

INNOVATION_LAWS = ("standard-normal", "rademacher", "centered-uniform")

# the most entries check_budget lets any one array grow to
DEFAULT_MAX_CELLS = 50_000_000


class BudgetExceededError(RuntimeError):
    """Raised when a sampling request would exceed the memory budget."""


def check_budget(entries, need: str) -> None:
    """Refuse an array of more than DEFAULT_MAX_CELLS entries before it is allocated.

    need names it, e.g. "Donsker field would need 256 innovations". The budget
    is read at call time: rebinding kernels.DEFAULT_MAX_CELLS changes it for all.
    """
    if entries > DEFAULT_MAX_CELLS:
        raise BudgetExceededError(f"{need} (> budget of {DEFAULT_MAX_CELLS} entries)")


def check_shape_budget(name: str, shape) -> None:
    """check_budget for a float64 array: "<name> of shape <shape> would need <bytes> bytes"."""
    entries = math.prod(shape)
    check_budget(entries, f"{name} of shape {shape} would need {8 * entries} bytes")


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


def _draw_innovations(rng: np.random.Generator, law: str, shape, out=None) -> np.ndarray:
    """Innovations of the law, of the given shape, written into out if given:
    the same draws either way."""
    if law == "standard-normal":
        return rng.standard_normal(shape, out=out)
    if law == "rademacher":
        Z = rng.integers(0, 2, size=shape) * 2.0 - 1.0
    elif law == "centered-uniform":
        Z = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=shape)
    else:
        raise ValueError(f"unsupported innovation law {law!r}; choose one of {INNOVATION_LAWS}")
    if out is None:
        return Z
    out[...] = Z
    return out


def sample_donsker(
    grid: GridSpec, n: int, law: str = "standard-normal", *, rng: RngStream
) -> DonskerField:
    """Draw i.i.d. innovations for every multi-index covering D at scale 1/n."""
    n = whole_number(n, "Donsker scale n", 1)
    shape = tuple(int(np.ceil(n * t)) for t in grid.T)
    total = int(np.prod(shape))
    check_budget(total, f"Donsker field would need {total} innovations")
    Z = _draw_innovations(rng.generator(), law, shape)
    return DonskerField(n=n, T=grid.T, Z=Z)


def donsker_edges(n: int, T) -> list:
    """Cell edges per axis of the Donsker lattice on D = [0, T]: min(j / n, T_i)
    for j <= ceil(n T_i), so the last cell on each axis ends at T_i.

    A lattice of more cells than the budget of check_budget is refused before
    any edge is built.
    """
    shape = [int(np.ceil(n * t)) for t in T]
    cells = np.prod(shape, dtype=float)
    check_budget(cells, f"Donsker lattice would need {cells:.0f} cells")
    return [np.minimum(np.arange(k + 1) / n, t) for k, t in zip(shape, T)]


def _point_in(f, x) -> np.ndarray:
    """x as a point of the field f's domain D = [0, T], refused unless it is one."""
    p = as_point(x)
    if p.size != f.d:
        raise ValueError("dimension mismatch")
    for c, t in zip(p, f.T):
        if not 0 <= c <= t:
            raise ValueError(f"coordinate {c} outside [0, {t}]")
    return p


def donsker_eval(f: DonskerField, x) -> float:
    """Kernel value n^{d/2} Z_k at the unique k with nx in [k-1, k)."""
    # last cell closed at T_i (grid boundary convention)
    idx = tuple(min(int(np.floor(f.n * c)), k - 1) for c, k in zip(_point_in(f, x), f.Z.shape))
    return float(f.n ** (f.d / 2.0) * f.Z[idx])


def _ks_intensity(n) -> float:
    """The Kac-Stroock intensity n as a float, once it is finite and positive."""
    n = float(n)
    if not (math.isfinite(n) and n > 0):
        raise ValueError(f"Kac-Stroock intensity n must be finite and positive, got {n}")
    return n


def _ks_field_intensity(grid: GridSpec, n) -> float:
    """The intensity n as a float, once a Poisson field of intensity n on D fits
    the budget with its expected n |D| d point coordinates. A block of fields
    is checked once, before any of them is drawn."""
    n = _ks_intensity(n)
    expected = n * math.prod(grid.T) * grid.d
    check_budget(expected, f"Kac-Stroock field would need about {expected:.0f} point coordinates")
    return n


def _poisson_points(gen: np.random.Generator, grid: GridSpec, n: float) -> np.ndarray:
    """The points, shape (count, d), of one Poisson field of intensity n on D
    drawn from gen: a Poisson count of mean n |D|, then that many uniform points."""
    # math.prod: np.prod's product, without its cost on every field
    count = int(gen.poisson(n * math.prod(grid.T)))
    return gen.uniform(0.0, 1.0, size=(count, grid.d)) * np.asarray(grid.T)


def sample_kac_stroock(grid: GridSpec, n: float, rng: RngStream) -> PoissonField:
    """Homogeneous Poisson point process of intensity n on D."""
    n = _ks_field_intensity(grid, n)
    return PoissonField(n=n, grid=grid, points=_poisson_points(rng.generator(), grid, n))


def ks_rule(grid: GridSpec, n: float, r: int) -> tuple:
    """(edges, midpoints) per axis of the Kac-Stroock midpoint rule: the grid's
    N_i cells, floored at ceil(n T_i) so that the rule resolves the noise scale,
    each split r-fold: uniform_cells(k_i, T_i) of k_i sub-cells.

    The rule depends on no Poisson point, so a sign grid over the budget of
    check_budget is refused before any point is drawn.
    """
    n, r = _ks_intensity(n), whole_number(r, "refinement factor r", 1)
    cells = [r * max(nb, int(np.ceil(n * t))) for nb, t in zip(grid.N, grid.T)]
    total = np.prod(cells, dtype=float)
    check_budget(total, f"Kac-Stroock sign grid would need {total:.0f} cells")
    return tuple(zip(*(uniform_cells(k, t) for k, t in zip(cells, grid.T))))


def _ks_prefactor_exponent(d: int) -> float:
    return (d - 1) / 2.0


def kac_stroock_eval(f: PoissonField, x) -> float:
    """Kernel value n^{d/2} (prod x_i)^{(d-1)/2} (-1)^{N(x)}."""
    p = _point_in(f, x)
    pref = float(np.prod(p)) ** _ks_prefactor_exponent(f.d)
    count = int(np.sum(np.all(f.points <= p, axis=1))) if f.points.size else 0
    return float(f.n ** (f.d / 2.0) * pref * (-1) ** count)


# point sets per packed parity grid: one bit of an unsigned integer each
KS_BLOCK = 64


def ks_parity_bits(point_sets, mid_axes) -> np.ndarray:
    """N(y) mod 2 on the tensor grid of midpoints for up to KS_BLOCK point sets.

    mid_axes are uniform midpoints (j + 1/2) w per axis, as ks_rule gives.
    Bit b of each entry, the narrowest unsigned integer with a bit per set, is
    the parity for point_sets[b]. A point's cell on axis i is the first midpoint
    at or above its coordinate; points past the last midpoint are dropped. One
    XOR scatter of per-cell toggles and one cumulative XOR per axis give every
    parity at once.
    """
    if len(point_sets) > KS_BLOCK:
        raise ValueError(f"at most {KS_BLOCK} point sets per parity grid, got {len(point_sets)}")
    shape = tuple(len(m) for m in mid_axes)
    kind = np.min_scalar_type((1 << len(point_sets)) - 1).type
    bits = np.zeros(shape, dtype=kind)
    counts = [len(p) for p in point_sets]
    if not sum(counts) or not bits.size:
        return bits
    pts = np.concatenate(point_sets)
    owner = np.repeat(np.arange(len(point_sets), dtype=kind), counts)
    idx = [np.searchsorted(mids, pts[:, i], side="left") for i, mids in enumerate(mid_axes)]
    keep = np.all([j < k for j, k in zip(idx, shape)], axis=0)
    flat = np.ravel_multi_index(tuple(j[keep] for j in idx), shape)
    # ufunc.at toggles a cell once per point; fancy-index ^= would drop repeats
    np.bitwise_xor.at(bits.reshape(-1), flat, np.left_shift(kind(1), owner[keep]))
    for axis in range(len(shape)):
        np.bitwise_xor.accumulate(bits, axis=axis, out=bits)
    return bits


def ks_scale(n: float, mid_axes) -> np.ndarray:
    """The sign-free factor n^{d/2} (prod y_i)^{(d-1)/2} of theta_n on the tensor
    grid of midpoints."""
    d = len(mid_axes)
    expo = _ks_prefactor_exponent(d)
    pref = row_outer([np.power(m, expo)[None] for m in mid_axes])[0]
    return np.multiply(pref, n ** (d / 2.0), out=pref)  # in place: pref is a fresh array


def ks_theta(bits, sets, n: float, mid_axes) -> np.ndarray:
    """theta_n = ks_scale * (-1)^{N(y)} on the tensor grid of midpoints for each
    point set b of sets, whose parity is bit b of the packed grid bits (from
    ks_parity_bits, flat or not): shape (len(sets), *bits.shape).

    Bit b shifted to bit 63 flips the sign bit of the scale, an exact negation.
    The scale is made on each call, so a caller that builds theta a few sets at
    a time never holds the scale beside it.
    """
    shifts = np.asarray(sets, dtype=np.uint64).reshape((-1,) + (1,) * bits.ndim)
    theta = np.right_shift(bits, shifts)
    theta <<= np.uint64(63)
    theta ^= ks_scale(n, mid_axes).reshape(bits.shape).view(np.uint64)
    return theta.view(np.float64)


def ks_values_on_grid(f: PoissonField, mid_axes) -> np.ndarray:
    """Kernel values theta_n on the tensor grid of midpoints: ks_theta of f's points alone."""
    return ks_theta(ks_parity_bits([f.points], mid_axes), [0], f.n, mid_axes)[0]


def cell_overlaps(a, e) -> np.ndarray:
    """|[e_j, e_{j+1}] cap [0, a_p]| for the coordinates a and the cell edges e
    (from 0 up) of one axis: shape (len(a), cells)."""
    return np.clip(np.minimum(np.asarray(a, dtype=float)[:, None], e[1:]) - e[:-1], 0.0, None)


def zeta_on_axes(f, axes, r: int = 1) -> np.ndarray:
    """zeta_n(x) = int_{[0,x]} theta_n(y) dy at every point of the tensor grid of
    axes, shape (len(a_1), ..., len(a_d)).

    theta_n is constant on the cells of a tensor grid, so zeta is its cell values
    contracted with one overlap matrix |cell_j cap [0, a_p]| per axis. Donsker
    fields integrate exactly on the donsker_edges lattice. Kac-Stroock fields
    take their midpoint values on the ks_rule sub-cells, refined r-fold, as
    KacStroockIntegrator does; r is read by no other family.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    if len(axes) != f.d:
        raise ValueError("dimension mismatch")
    if isinstance(f, DonskerField):
        scale, vals = f.n ** (f.d / 2.0), f.Z
        edges = donsker_edges(f.n, f.T)
    elif isinstance(f, PoissonField):
        edges, mids = ks_rule(f.grid, f.n, r)
        scale, vals = 1.0, ks_values_on_grid(f, mids)
    else:
        raise TypeError(f"unsupported kernel field type {type(f)!r}")
    # each overlap is built (points, cells) and passed as a transposed view: built
    # (cells, points), a d = 1 field sums in another order and moves in the last bit
    return scale * contract_axes(vals[None], [cell_overlaps(a, e).T for a, e in zip(axes, edges)])[0]


def zeta(f, x, r: int = 1) -> float:
    """zeta_n at one point x of D: zeta_on_axes on the one-point grid."""
    return zeta_on_axes(f, _point_in(f, x)[:, None], r).item()


def sheet_covariance(x, z) -> float:
    """Cov(W(x), W(z)) = prod_i min(x_i, z_i), the covariance of zeta_n's limit,
    the Brownian sheet."""
    a, b = as_point(x), as_point(z)
    if a.size != b.size:
        raise ValueError("dimension mismatch")
    return float(np.prod(np.minimum(a, b)))
