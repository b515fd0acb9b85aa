"""Composite midpoint quadrature on refined tensor grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadSpec", "tensor_points", "row_outer"]


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature control: r sub-cells per axis per grid cell, optional
    diagonal-exclusion radius rho for singular integrands."""

    r: int = 1
    rho: float = 0.0

    def __post_init__(self):
        if int(self.r) < 1:
            raise ValueError("refinement factor r must be an integer >= 1")
        if self.rho < 0:
            raise ValueError("exclusion radius rho must be >= 0")
        object.__setattr__(self, "r", int(self.r))


def tensor_points(axes) -> np.ndarray:
    """Flattened tensor-product points, shape (prod m_i, d), C-order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def row_outer(mats) -> np.ndarray:
    """Row-wise tensor product of matrices (n, k_i): shape (n, k_1, ..., k_d)."""
    out = mats[0]
    for M in mats[1:]:
        out = out[..., None] * M.reshape((M.shape[0],) + (1,) * (out.ndim - 1) + (M.shape[1],))
    return out
