"""Lagrange interpolation machinery over a prime field.

This is the mathematical heart of both codecs:

* **Encoding** (paper Eq. 12–13): evaluate the interpolation polynomial
  through ``(beta_j, X_j)`` at the worker points ``alpha_i``. That is a
  linear map given by the matrix ``L[j, i] = l_j(alpha_i)``, which
  :func:`lagrange_coeff_matrix` builds in closed form.
* **Decoding**: interpolate ``f(u(z))`` through the returned worker
  evaluations and re-evaluate at the data points ``beta_j`` — again a
  coefficient matrix, built by the same routine with source/destination
  swapped.

Everything is vectorized: one ``(n_src, n_dst)`` difference table, batch
inversions, and a couple of products. Coincident source/destination
points (the systematic-code case, where ``beta ⊂ alpha``) are handled
exactly: the basis collapses to an indicator column.
"""

from __future__ import annotations

import numpy as np

from repro.ff.arith import mod_inverse
from repro.ff.field import PrimeField
from repro.ff.linalg import matmul_reduced, matvec_reduced

__all__ = [
    "barycentric_weights",
    "eval_lagrange_basis",
    "lagrange_coeff_matrix",
    "interpolate_eval",
]


def _check_distinct(field: PrimeField, pts: np.ndarray, name: str) -> None:
    if len(np.unique(pts)) != pts.size:
        raise ValueError(f"{name} must be distinct field points")


def barycentric_weights(field: PrimeField, xs) -> np.ndarray:
    """First-form barycentric weights ``w_j = 1 / prod_{k != j}(x_j - x_k)``."""
    xs = field.asarray(xs)
    _check_distinct(field, xs, "xs")
    diff = (xs[:, None] - xs[None, :]) % field.q
    np.fill_diagonal(diff, 1)
    prods = np.ones(xs.size, dtype=np.int64)
    for col in range(xs.size):
        prods = prods * diff[:, col] % field.q
    return mod_inverse(prods, field.q)


def eval_lagrange_basis(field: PrimeField, xs, z) -> np.ndarray:
    """Evaluate all basis polynomials ``l_j`` (built on nodes ``xs``) at
    points ``z``; returns ``B[j, i] = l_j(z_i)``.

    Exact at coincident points: if ``z_i == xs_j`` the column is the
    ``j``-th indicator.
    """
    xs = field.asarray(xs)
    z = field.asarray(np.atleast_1d(z))
    _check_distinct(field, xs, "xs")
    q = field.q
    w = barycentric_weights(field, xs)          # (n_src,)
    dz = (z[None, :] - xs[:, None]) % q          # (n_src, n_dst), z_i - x_j
    out = np.zeros((xs.size, z.size), dtype=np.int64)

    coincident = dz == 0                         # z_i equals some node
    hit_cols = np.any(coincident, axis=0)

    # Generic columns: l_j(z) = M(z) * w_j / (z - x_j)
    gen = ~hit_cols
    if np.any(gen):
        dz_g = dz[:, gen]
        m = np.ones(int(gen.sum()), dtype=np.int64)
        for j in range(xs.size):
            m = m * dz_g[j] % q                  # M(z_i) = prod_j (z_i - x_j)
        inv_dz = mod_inverse(dz_g, q)
        out[:, gen] = w[:, None] * inv_dz % q * m[None, :] % q

    # Coincident columns: exact indicator
    if np.any(hit_cols):
        idx_cols = np.nonzero(hit_cols)[0]
        for c in idx_cols:
            j = int(np.nonzero(coincident[:, c])[0][0])
            out[:, c] = 0
            out[j, c] = 1
    return out


def lagrange_coeff_matrix(field: PrimeField, src_pts, dst_pts) -> np.ndarray:
    """Matrix ``L`` with ``L[j, i] = l_j(dst_i)`` for nodes ``src``.

    For data blocks stacked as rows of a matrix ``D`` (one block per
    source point), the interpolate-then-evaluate map is ``L.T @ D``.
    """
    return eval_lagrange_basis(field, src_pts, dst_pts)


def interpolate_eval(field: PrimeField, xs, ys, z) -> np.ndarray:
    """Interpolate values ``ys`` at nodes ``xs`` and evaluate at ``z``.

    ``ys`` may be 1-D (scalar samples) or 2-D with one row per node
    (vector-valued samples, e.g. flattened coded blocks); the result has
    one row per evaluation point in the 2-D case.
    """
    ys = field.asarray(ys)
    basis = eval_lagrange_basis(field, xs, z)    # (n_src, n_dst), reduced
    if ys.ndim == 1:
        return matvec_reduced(field, basis.T, ys)
    return matmul_reduced(field, basis.T, ys)
