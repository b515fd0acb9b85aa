"""Rectangular parameter domain D = [0, T] in R^d: grids and fields on their nodes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quadrature import tensor_points

__all__ = [
    "GridSpec",
    "GridField",
    "as_point",
]

_NODE_TOL = 1e-9


def as_point(x) -> np.ndarray:
    """Coerce a lattice point to a float array of shape (d,)."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"lattice point must be one-dimensional, got shape {p.shape}")
    return p


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on D = [0, T_1] x ... x [0, T_d].

    Nodes along axis i sit at j * T_i / N_i, j = 0..N_i.
    """

    d: int
    T: tuple = (1.0,)
    N: tuple = (1,)

    def __post_init__(self):
        T = tuple(float(t) for t in np.atleast_1d(self.T))
        N = tuple(int(n) for n in np.atleast_1d(self.N))
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
        if any(t <= 0 for t in self.T):
            raise ValueError("all axis lengths T_i must be positive")
        if any(n < 1 for n in self.N):
            raise ValueError("all cell counts N_i must be >= 1")

    @property
    def cell_volume(self) -> float:
        return float(np.prod([t / n for t, n in zip(self.T, self.N)]))

    @property
    def node_shape(self) -> tuple:
        return tuple(n + 1 for n in self.N)

    def axis_nodes(self, i: int) -> np.ndarray:
        # derive coordinates from integer indices, never by accumulation
        return np.arange(self.N[i] + 1) * (self.T[i] / self.N[i])

    def axis_cell_centers(self, i: int) -> np.ndarray:
        return (np.arange(self.N[i]) + 0.5) * (self.T[i] / self.N[i])

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
