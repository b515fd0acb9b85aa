"""Rectangular parameter domain D = [0, T] in R^d: grids and fields on their nodes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import tensor_points

__all__ = [
    "GridSpec",
    "GridField",
    "as_point",
    "uniform_cells",
    "whole_number",
]

_NODE_TOL = 1e-9


def as_point(x) -> np.ndarray:
    """Coerce a lattice point to a float array of shape (d,)."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"lattice point must be one-dimensional, got shape {p.shape}")
    return p


def whole_number(value, name: str, least: int | None = None) -> int:
    """value as an int, refused unless it is a whole number (and at least least,
    if given): 2.5 is never truncated to 2, "1e3" is 1000, and an int or a
    decimal integer string keeps its exact value. Every refusal starts with name."""
    try:
        number = float(value)
    except (TypeError, ValueError):  # "abc"
        number = math.nan
    if not number.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value}")
    try:
        whole = int(value)  # exact, where float would round an int above 2**53
    except ValueError:  # a string such as "1e3"
        whole = int(number)
    if least is not None and whole < least:
        raise ValueError(f"{name} must be >= {least}")
    return whole


def uniform_cells(k: int, t: float) -> tuple:
    """(edges, midpoints) of [0, t] cut into k cells of width w = t / k: the
    edges j w (j = 0..k) and the midpoints (j + 1/2) w (j = 0..k-1), each from
    its integer index, never by accumulation. The one derivation of a uniform
    lattice: grid nodes, Kac-Stroock sub-cells, norm and Holder quadratures and
    the sine bases of the spectral solve all read it."""
    w = t / k
    return np.arange(k + 1) * w, (np.arange(k) + 0.5) * w


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on D = [0, T_1] x ... x [0, T_d].

    Nodes along axis i are the edges of uniform_cells(N_i, T_i).
    """

    d: int
    T: tuple = (1.0,)
    N: tuple = (1,)

    def __post_init__(self):
        T = tuple(float(t) for t in np.atleast_1d(self.T))
        N = tuple(whole_number(n, "cell counts N", 1) for n in np.atleast_1d(self.N))
        if len(T) == 1 and self.d > 1:
            T = T * self.d
        if len(N) == 1 and self.d > 1:
            N = N * self.d
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "N", N)
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.T) != self.d or len(self.N) != self.d:
            raise ValueError("T and N must have length d")
        if not all(math.isfinite(t) and t > 0 for t in self.T):
            raise ValueError(f"axis lengths T must be finite and positive, got {self.T}")

    @property
    def cell_volume(self) -> float:
        return float(np.prod([t / n for t, n in zip(self.T, self.N)]))

    @property
    def node_shape(self) -> tuple:
        return tuple(n + 1 for n in self.N)

    def axis_nodes(self, i: int) -> np.ndarray:
        return uniform_cells(self.N[i], self.T[i])[0]

    def axis_cell_centers(self, i: int) -> np.ndarray:
        return uniform_cells(self.N[i], self.T[i])[1]

    def node_index(self, x) -> tuple:
        """Map a grid-aligned point to its node multi-index; raise if off-grid."""
        p = self.point_in_domain(x)
        idx = []
        for i in range(self.d):
            h = self.T[i] / self.N[i]
            j = int(round(p[i] / h))
            if abs(p[i] - j * h) > _NODE_TOL * max(1.0, self.T[i]):
                raise ValueError(f"coordinate {p[i]} is not a grid node on axis {i}")
            idx.append(j)
        return tuple(idx)

    def point_in_domain(self, x) -> np.ndarray:
        p = as_point(x)
        if p.size != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {p.size}")
        for i in range(self.d):
            if p[i] < -_NODE_TOL or p[i] > self.T[i] + _NODE_TOL:
                raise ValueError(f"coordinate {p[i]} outside [0, {self.T[i]}] on axis {i}")
        return np.clip(p, 0.0, self.T)

    def node_points(self) -> np.ndarray:
        """All grid nodes, shape (prod (N+1), d), in C-order of the node lattice."""
        return tensor_points([self.axis_nodes(i) for i in range(self.d)])

    def to_dict(self) -> dict:
        return {"d": self.d, "T": list(self.T), "N": list(self.N)}


@dataclass
class GridField:
    """Real values attached to the nodes of a grid."""

    grid: GridSpec
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.node_shape:
            if v.size == int(np.prod(self.grid.node_shape)):
                v = v.reshape(self.grid.node_shape)
            else:
                raise ValueError(
                    f"values shape {v.shape} incompatible with node shape {self.grid.node_shape}"
                )
        self.values = v

    @classmethod
    def zeros(cls, grid: GridSpec) -> "GridField":
        return cls(grid, np.zeros(grid.node_shape))
