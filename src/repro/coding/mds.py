"""(N, K) MDS codes for linear coded computation.

Two constructions:

* :meth:`MDSCode.systematic` — the default, realized as a systematic
  Lagrange code with ``T = 0`` (exactly the paper's "MDS encoding is a
  special case of LCC encoding when the computations are only linear").
* :meth:`MDSCode.from_generator` — an explicit ``K x N`` generator
  matrix, used to reproduce textbook examples like Fig. 1's
  ``(3, 2)`` code with shares ``X1, X2, X1 + X2``. Decoding inverts the
  ``K x K`` submatrix selected by the responding workers (the classic
  "any K columns are invertible" MDS argument of Sec. IV-A step 4).

Both expose the same interface the masters consume: ``encode``,
``decode``, ``recovery_threshold``.
"""

from __future__ import annotations

import numpy as np

from repro.ff.field import PrimeField
from repro.ff.gauss import SingularMatrixError, gauss_solve
from repro.ff.linalg import matmul_reduced
from repro.coding.lcc import LagrangeCode

__all__ = ["MDSCode"]


class MDSCode:
    """An ``(n, k)`` MDS code for degree-1 (linear) computations."""

    def __init__(self, field: PrimeField, n: int, k: int, *, generator=None, alpha=None):
        if k < 1 or n < k:
            raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
        self.field = field
        self.n = n
        self.k = k
        if generator is not None:
            g = field.asarray(generator)
            if g.shape != (k, n):
                raise ValueError(f"generator must be (k={k}, n={n}), got {g.shape}")
            self._g = g
            self._lcc = None
            self._check_mds_property()
        else:
            self._lcc = LagrangeCode(field, n, k, t=0, alpha=alpha)
            self._g = self._lcc.encoding_matrix()

    # ------------------------------------------------------------------
    @classmethod
    def systematic(cls, field: PrimeField, n: int, k: int) -> "MDSCode":
        """Lagrange-based systematic construction (default points)."""
        return cls(field, n, k)

    @classmethod
    def from_generator(cls, field: PrimeField, generator) -> "MDSCode":
        """Explicit generator construction; validates the MDS property
        on every ``k``-column subset for small codes (n <= 16), else on
        a random sample."""
        g = field.asarray(generator)
        return cls(field, g.shape[1], g.shape[0], generator=g)

    @classmethod
    def fig1_code(cls, field: PrimeField) -> "MDSCode":
        """The paper's Fig. 1 example: shares ``X1, X2, X1 + X2``."""
        return cls.from_generator(field, np.array([[1, 0, 1], [0, 1, 1]]))

    def _check_mds_property(self) -> None:
        from itertools import combinations

        from repro.ff.gauss import gauss_rank

        cols = range(self.n)
        subsets = list(combinations(cols, self.k))
        if len(subsets) > 2000:  # pragma: no cover - big codes sampled
            rng = np.random.default_rng(7)
            subsets = [
                tuple(np.sort(rng.choice(self.n, self.k, replace=False)))
                for _ in range(200)
            ]
        for sub in subsets:
            if gauss_rank(self.field, self._g[:, list(sub)]) != self.k:
                raise ValueError(
                    f"generator is not MDS: columns {sub} are dependent"
                )

    # ------------------------------------------------------------------
    @property
    def is_systematic(self) -> bool:
        return bool(
            np.array_equal(self._g[:, : self.k], np.eye(self.k, dtype=np.int64))
        )

    def generator_matrix(self) -> np.ndarray:
        """The ``(k, n)`` generator ``G`` with shares ``X~ = G.T @ X``."""
        return self._g.copy()

    def recovery_threshold(self, deg_f: int = 1) -> int:
        if deg_f != 1:
            raise ValueError("MDS codes only support linear computations (deg_f=1)")
        return self.k

    # ------------------------------------------------------------------
    def encode(self, blocks: np.ndarray, rng=None) -> np.ndarray:
        """Encode ``(k, ...)`` blocks into ``(n, ...)`` shares.

        ``rng`` is accepted (and ignored) for interface parity with
        :class:`LagrangeCode` — MDS has no privacy padding.
        """
        field = self.field
        blocks = field.asarray(blocks)
        if blocks.ndim < 2 or blocks.shape[0] != self.k:
            raise ValueError(f"expected (k={self.k}, ...) blocks, got {blocks.shape}")
        shape = blocks.shape[1:]
        shares = matmul_reduced(field, self._g.T, blocks.reshape(self.k, -1))
        return shares.reshape(self.n, *shape)

    def decode(self, indices, shares: np.ndarray, deg_f: int = 1) -> np.ndarray:
        """Recover the ``k`` result blocks from any ``k`` worker results
        (for linear ``f``, worker results are the codeword of ``f(X_j)``)."""
        if deg_f != 1:
            raise ValueError("MDS codes only support linear computations (deg_f=1)")
        field = self.field
        idx = np.asarray(indices, dtype=np.int64)
        shares = field.asarray(shares)
        if idx.ndim != 1 or shares.shape[0] != idx.size:
            raise ValueError("indices/shares mismatch")
        if len(np.unique(idx)) != idx.size:
            raise ValueError("duplicate worker indices")
        if idx.size < self.k:
            raise ValueError(f"need {self.k} shares, got {idx.size}")
        idx = idx[: self.k]
        shares = shares[: self.k]
        shape = shares.shape[1:]
        flat = shares.reshape(self.k, -1)
        sub = self._g[:, idx]  # (k, k): columns of responding workers
        try:
            out = gauss_solve(field, sub.T, flat)
        except SingularMatrixError as exc:  # pragma: no cover - MDS guards this
            raise SingularMatrixError(
                f"non-MDS generator: columns {idx.tolist()} dependent"
            ) from exc
        return out.reshape(self.k, *shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MDSCode(n={self.n}, k={self.k}, q={self.field.q}, systematic={self.is_systematic})"
