"""Tensor grids and the axis-by-axis contraction."""

from __future__ import annotations

import numpy as np

__all__ = [
    "tensor_points",
    "row_outer",
    "distinct_coordinates",
    "contract_axes",
    "contract_axis",
]


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


def distinct_coordinates(xs) -> tuple:
    """(uniq, inv) for points xs of shape (n, d): per axis, the sorted distinct
    coordinates and the index of each point's coordinate among them."""
    return tuple(zip(*(np.unique(xs[:, i], return_inverse=True) for i in range(xs.shape[1]))))


def contract_axes(stack: np.ndarray, mats) -> np.ndarray:
    """Contract axes 1..d of a stack (B, a_1, ..., a_d) with one matrix (a_i, k_i)
    per axis: shape (B, k_1, ..., k_d).

    np.matmul makes one BLAS call per stacked field, shaped as for a lone
    field, so a field's result does not depend on what else is in the stack.
    """
    if len(mats) != stack.ndim - 1:
        raise ValueError(f"expected {stack.ndim - 1} per-axis arrays, got {len(mats)}")
    out = stack
    for M in mats:
        out = contract_axis(out, M)
    return out


def contract_axis(stack: np.ndarray, M: np.ndarray) -> np.ndarray:
    """One step of contract_axes: axis 1 of a stack (B, a, *rest) contracted with
    M (a, k), shape (B, *rest, k).

    Axis 1 moves last, as the rows (B, prod(rest), a) of a Fortran-ordered view;
    k comes out last, so d steps leave the axes in order.
    """
    B, a, rest = stack.shape[0], stack.shape[1], stack.shape[2:]
    rows = np.moveaxis(stack, 1, -1).reshape(B, -1, a)
    return np.matmul(rows, M).reshape((B,) + rest + (M.shape[1],))
