"""Freivalds verification of matrix–matrix products.

Classic Freivalds (1977): to check a claimed ``C = A @ B`` with
``A ∈ F^{a×n}``, ``B ∈ F^{n×b}``, pick random ``r ∈ F^{a}`` and accept
iff ``r·C == (r·A)·B``. With the probe ``s = r·A`` precomputed as a
private key, one check costs ``O(a·b + n·b)`` versus the worker's
``O(a·n·b)`` — the multiplicative ``a``-factor saving that makes
per-worker verification of coded matmul affordable.

Soundness: for ``C ≠ A@B``, each probe passes with probability at most
``1/q`` (a nonzero row of ``C − A@B`` must be orthogonal to ``r``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ff.field import PrimeField
from repro.ff.linalg import matmul_reduced

__all__ = ["MatmulKey", "MatmulVerifier"]


@dataclass(frozen=True)
class MatmulKey:
    """Private key for one worker's coded left-factor ``A~``.

    Attributes
    ----------
    r:
        ``(probes, a)`` random probe matrix.
    s:
        ``(probes, n)`` precomputed ``r @ A~``.
    """

    r: np.ndarray
    s: np.ndarray

    @property
    def probes(self) -> int:
        return self.r.shape[0]

    @property
    def rows(self) -> int:
        """a: rows of the claimed product."""
        return self.r.shape[1]

    @property
    def inner(self) -> int:
        """n: the contracted dimension."""
        return self.s.shape[1]


class MatmulVerifier:
    """Key generator + checker for ``C~ = A~ @ B~`` worker claims.

    The master keeps each worker's encoded right-factor ``B~`` (it
    produced it during encoding), so only the left-factor probe is a
    precomputed key.
    """

    def __init__(self, field: PrimeField, probes: int = 1):
        if probes < 1:
            raise ValueError("probes must be >= 1")
        self.field = field
        self.probes = probes

    def keygen_single(self, a_share: np.ndarray, rng: np.random.Generator) -> MatmulKey:
        a_share = self.field.ensure_reduced(a_share)
        if a_share.ndim != 2:
            raise ValueError(f"A-share must be a matrix, got {a_share.shape}")
        r = self.field.random((self.probes, a_share.shape[0]), rng)
        return MatmulKey(r=r, s=matmul_reduced(self.field, r, a_share))

    def keygen(self, a_shares: np.ndarray, rng: np.random.Generator) -> list[MatmulKey]:
        a_shares = self.field.asarray(a_shares)
        if a_shares.ndim != 3:
            raise ValueError(f"expected (n, a, inner) shares, got {a_shares.shape}")
        return [self.keygen_single(s, rng) for s in a_shares]

    def check(self, key: MatmulKey, b_share: np.ndarray, claimed: np.ndarray) -> bool:
        """Accept iff ``r @ claimed == s @ b_share`` for all probes."""
        field = self.field
        b_share = field.ensure_reduced(b_share)
        claimed = field.ensure_reduced(claimed)
        if claimed.ndim != 2 or claimed.shape[0] != key.rows:
            raise ValueError(
                f"claimed product has shape {claimed.shape}, expected ({key.rows}, b)"
            )
        if b_share.ndim != 2 or b_share.shape[0] != key.inner:
            raise ValueError(
                f"B-share has shape {b_share.shape}, expected ({key.inner}, b)"
            )
        if b_share.shape[1] != claimed.shape[1]:
            raise ValueError("B-share and claimed product disagree on columns")
        lhs = matmul_reduced(field, key.r, claimed)
        rhs = matmul_reduced(field, key.s, b_share)
        return bool(np.array_equal(lhs, rhs))

    def check_cost_ops(self, key: MatmulKey, out_cols: int) -> int:
        """MACs per check: ``p·(a·b + n·b)``."""
        return self.probes * (key.rows * out_cols + key.inner * out_cols)

    @staticmethod
    def worker_cost_ops(a_rows: int, inner: int, out_cols: int) -> int:
        """What the worker spent: ``a·n·b``."""
        return a_rows * inner * out_cols
