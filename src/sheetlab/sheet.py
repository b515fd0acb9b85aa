"""Covariance of the Brownian sheet.

The sheet itself is drawn as the Donsker field at n = N with standard-normal
innovations: its primitive at the grid nodes is kernels.zeta_on_axes, and its
Wiener integrals are noise_integrator("sheet", ...).
"""

from __future__ import annotations

import numpy as np

from .grid import as_point

__all__ = ["sheet_covariance"]


def sheet_covariance(x, z) -> float:
    """Cov(W(x), W(z)) = prod_i min(x_i, z_i)."""
    a, b = as_point(x), as_point(z)
    if a.size != b.size:
        raise ValueError("dimension mismatch")
    return float(np.prod(np.minimum(a, b)))
