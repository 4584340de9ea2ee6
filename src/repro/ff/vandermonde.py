"""Vandermonde matrices over a prime field.

The Berlekamp–Welch systems of the Reed–Solomon decoder and the
polynomial code's interpolation are built from them. Every ``K x K``
submatrix of a ``K x N`` Vandermonde matrix on distinct points is
invertible, which is the MDS property both decoders rely on.
"""

from __future__ import annotations

import numpy as np

from repro.ff.field import PrimeField

__all__ = ["vandermonde_matrix"]


def vandermonde_matrix(field: PrimeField, xs, n_cols: int) -> np.ndarray:
    """Rows ``[1, x, x^2, ..., x^(n_cols-1)]`` for each point ``x``."""
    xs = field.asarray(xs)
    if xs.ndim != 1:
        raise ValueError("xs must be 1-D")
    out = np.ones((xs.size, n_cols), dtype=np.int64)
    for c in range(1, n_cols):
        out[:, c] = out[:, c - 1] * xs % field.q
    return out

