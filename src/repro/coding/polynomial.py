"""Polynomial codes for coded matrix–matrix multiplication.

The paper's related-work anchor [17] (Yu, Maddah-Ali, Avestimehr,
"Polynomial codes: an optimal design for high-dimensional coded matrix
multiplication", NIPS 2017), which Sec. II cites for "bilinear
computations". AVCC's decoupling applies verbatim: polynomial codes
handle stragglers, Freivalds matmul checks handle Byzantine workers —
see :class:`repro.core.matmul.CodedMatmulAVCCMaster`.

Construction: to compute ``C = A @ B`` with ``A ∈ F^{m×n}`` split into
``p`` row-blocks and ``B ∈ F^{n×r}`` split into ``q`` column-blocks,
worker ``i`` receives::

    A~_i = sum_j A_j · x_i^j          (degree p-1 in x_i)
    B~_i = sum_k B_k · x_i^{p·k}      (degree p(q-1))

and returns ``C~_i = A~_i @ B~_i``, which is the evaluation at ``x_i``
of a matrix polynomial of degree ``pq - 1`` whose coefficients are
*exactly* the ``pq`` products ``A_j @ B_k``. Any ``pq`` evaluations
recover every block of ``C`` — the optimal recovery threshold.
"""

from __future__ import annotations

import numpy as np

from repro.ff.arith import mod_pow
from repro.ff.field import PrimeField
from repro.ff.gauss import gauss_solve
from repro.ff.linalg import matmul_reduced
from repro.ff.vandermonde import vandermonde_matrix

__all__ = ["PolynomialCode"]


class PolynomialCode:
    """An ``(n_workers, p, q)`` polynomial code for ``A @ B``."""

    def __init__(self, field: PrimeField, n_workers: int, p: int, q: int, *, points=None):
        if p < 1 or q < 1:
            raise ValueError("p and q must be >= 1")
        if n_workers < p * q:
            raise ValueError(
                f"need at least p*q = {p * q} workers, got {n_workers}"
            )
        self.field = field
        self.n = n_workers
        self.p = p
        self.q = q
        if points is None:
            points = field.distinct_points(n_workers, start=1)
        points = field.asarray(points)
        if points.shape != (n_workers,) or len(np.unique(points)) != n_workers:
            raise ValueError("points must be n_workers distinct field elements")
        self.points = points

    # ------------------------------------------------------------------
    @property
    def recovery_threshold(self) -> int:
        """``pq`` — optimal for this partitioning (Yu et al., Thm. 1)."""
        return self.p * self.q

    def _encode(self, blocks: np.ndarray, stride: int) -> np.ndarray:
        """Shares ``sum_j blocks[j] * x_i^(stride*j)`` for every worker."""
        field = self.field
        blocks = field.asarray(blocks)
        n_blocks = blocks.shape[0]
        flat = blocks.reshape(n_blocks, -1)
        # coefficient matrix W[i, j] = x_i^(stride*j)
        exps = mod_pow(self.points, stride, field.q) if stride != 1 else self.points
        w = np.ones((self.n, n_blocks), dtype=np.int64)
        for j in range(1, n_blocks):
            w[:, j] = w[:, j - 1] * exps % field.q
        shares = matmul_reduced(field, w, flat)
        return shares.reshape(self.n, *blocks.shape[1:])

    def encode_a(self, a_blocks: np.ndarray) -> np.ndarray:
        """Encode the ``p`` row-blocks of ``A`` (exponent stride 1)."""
        if a_blocks.shape[0] != self.p:
            raise ValueError(f"expected {self.p} A-blocks, got {a_blocks.shape[0]}")
        return self._encode(a_blocks, stride=1)

    def encode_b(self, b_blocks: np.ndarray) -> np.ndarray:
        """Encode the ``q`` column-blocks of ``B`` (exponent stride p)."""
        if b_blocks.shape[0] != self.q:
            raise ValueError(f"expected {self.q} B-blocks, got {b_blocks.shape[0]}")
        return self._encode(b_blocks, stride=self.p)

    # ------------------------------------------------------------------
    def decode(self, indices, products: np.ndarray) -> np.ndarray:
        """Recover all ``p*q`` blocks ``A_j @ B_k`` from any ``pq``
        worker products.

        Returns an array of shape ``(p, q, m/p, r/q)`` with
        ``out[j, k] = A_j @ B_k``.
        """
        field = self.field
        idx = np.asarray(indices, dtype=np.int64)
        products = field.asarray(products)
        need = self.recovery_threshold
        if idx.ndim != 1 or products.shape[0] != idx.size:
            raise ValueError("indices/products mismatch")
        if len(np.unique(idx)) != idx.size:
            raise ValueError("duplicate worker indices")
        if np.any(idx < 0) or np.any(idx >= self.n):
            raise ValueError("worker index out of range")
        if idx.size < need:
            raise ValueError(f"need {need} products to decode, got {idx.size}")
        idx = idx[:need]
        products = products[:need]
        block_shape = products.shape[1:]
        flat = products.reshape(need, -1)
        # coefficients of the degree pq-1 polynomial: solve Vandermonde
        v = vandermonde_matrix(field, self.points[idx], need)
        coeffs = gauss_solve(field, v, flat)          # (pq, block_elems)
        out = coeffs.reshape(self.p * self.q, *block_shape)
        # coefficient index j + p*k  ->  block (j, k)
        return out.reshape(self.q, self.p, *block_shape).transpose(
            1, 0, *range(2, 2 + len(block_shape))
        )

    @staticmethod
    def assemble(blocks: np.ndarray) -> np.ndarray:
        """Stitch the ``(p, q, mb, rb)`` block grid into the full
        ``(p*mb, q*rb)`` product matrix."""
        if blocks.ndim != 4:
            raise ValueError("expected (p, q, mb, rb) block grid")
        p, q, mb, rb = blocks.shape
        return blocks.transpose(0, 2, 1, 3).reshape(p * mb, q * rb)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PolynomialCode(n={self.n}, p={self.p}, q={self.q}, q_field={self.field.q})"
