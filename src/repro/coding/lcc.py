"""Lagrange coded computing: the paper's Eq. (12)–(13) encoder and the
matching interpolate-and-evaluate decoder.

Construction (Sec. IV-B step 1):

* pick ``K + T`` distinct points ``beta_1..beta_{K+T}``;
* build ``u(z)`` with ``u(beta_j) = X_j`` for the ``K`` data blocks and
  ``u(beta_j) = W_j`` (uniformly random) for the ``T`` privacy blocks;
* pick ``N`` distinct points ``alpha_i`` (disjoint from ``beta`` when
  ``T > 0``) and ship ``X~_i = u(alpha_i)`` to worker ``i``.

Workers apply the target polynomial ``f``; since
``deg f(u(z)) <= (K+T-1) deg f``, any ``(K+T-1) deg f + 1`` honest
evaluations determine ``f∘u`` and hence every ``f(X_j) = f(u(beta_j))``.

When ``T = 0`` the ``alpha`` set may overlap ``beta`` — choosing
``beta = alpha[:K]`` makes the code *systematic* (worker ``i < K``
stores ``X_i`` verbatim), which is how the paper's MDS special case and
its Fig. 1 example arise.
"""

from __future__ import annotations

import numpy as np

from repro.ff.field import PrimeField
from repro.ff.lagrange import eval_lagrange_basis
from repro.ff.linalg import matmul_reduced
from repro.ff.rs import ReedSolomon

__all__ = ["LagrangeCode"]

#: decode bases a code keeps (one per responder set seen); at the
#: paper's N = 12, K = 9 there are C(12, 9) = 220 sets in all and a
#: handful occur, so the bound only matters for a large, churning fleet
_BASIS_CACHE_MAX = 256


class LagrangeCode:
    """An ``(N, K, T)`` Lagrange code over a prime field.

    Parameters
    ----------
    field:
        Element field.
    n, k:
        Code length (workers) and dimension (data blocks).
    t:
        Number of uniformly-random padding blocks (privacy parameter).
    alpha, beta:
        Optional explicit point sets (worker points and data points).
        Defaults: with ``t == 0``, ``beta = alpha[:k]`` (systematic);
        with ``t > 0``, ``alpha`` and ``beta`` are consecutive disjoint
        runs, enforcing the paper's ``A ∩ B = ∅`` requirement.
    """

    def __init__(
        self,
        field: PrimeField,
        n: int,
        k: int,
        t: int = 0,
        *,
        alpha=None,
        beta=None,
    ):
        if k < 1 or n < 1 or t < 0:
            raise ValueError("need n >= 1, k >= 1, t >= 0")
        if n < k + t:
            raise ValueError(f"n={n} < k+t={k + t}: code cannot be injective")
        self.field = field
        self.n = n
        self.k = k
        self.t = t

        if alpha is None:
            alpha = field.distinct_points(n, start=1)
        alpha = field.asarray(alpha)
        if alpha.shape != (n,) or len(np.unique(alpha)) != n:
            raise ValueError("alpha must be n distinct points")

        if beta is None:
            if t == 0:
                beta = alpha[:k]  # systematic
            else:
                beta = field.distinct_points(k + t, start=int(alpha.max()) + 1)
        beta = field.asarray(beta)
        if beta.shape != (k + t,) or len(np.unique(beta)) != k + t:
            raise ValueError("beta must be k+t distinct points")
        if t > 0 and np.intersect1d(alpha, beta).size:
            raise ValueError("alpha and beta must be disjoint when t > 0")

        self.alpha = alpha
        self.beta = beta
        # Encoding matrix U[j, i] = l_j(alpha_i), Eq. (13); shape (k+t, n).
        self._u = eval_lagrange_basis(field, beta, alpha)
        #: sorted responder ids -> their decode basis (see _decode_basis)
        self._decode_bases: dict[tuple[int, ...], np.ndarray] = {}

    # ------------------------------------------------------------------
    @property
    def is_systematic(self) -> bool:
        """True when worker ``i < k`` receives ``X_{i+1}`` verbatim."""
        return bool(np.array_equal(self.alpha[: self.k], self.beta[: self.k])) and self.t == 0

    def encoding_matrix(self) -> np.ndarray:
        """The ``(k+t, n)`` matrix ``U`` with ``X~ = U.T @ [X; W]``."""
        return self._u.copy()

    def recovery_threshold(self, deg_f: int = 1) -> int:
        """Evaluations needed to decode: ``(k+t-1) deg_f + 1``."""
        if deg_f < 1:
            raise ValueError("deg_f must be >= 1")
        return (self.k + self.t - 1) * deg_f + 1

    # ------------------------------------------------------------------
    def encode(
        self,
        blocks: np.ndarray,
        rng: np.random.Generator | None = None,
        into: np.ndarray | None = None,
    ) -> np.ndarray:
        """Encode ``(k, ...)`` data blocks into ``(n, ...)`` coded shares.

        With ``t > 0`` the required randomness is drawn from ``rng``
        (mandatory then — privacy with a fixed seed is no privacy).

        ``into``, when given, is the C-contiguous ``(n, ...)`` ``int64``
        array the shares are written to (and returned); otherwise one
        is allocated. ``blocks`` may be ``into[:k]`` itself — the
        set-up path writes the dataset there once and encodes around
        it — or any array that does not overlap ``into``.

        A systematic code (:attr:`is_systematic`) does arithmetic for
        its ``n - k`` parity shares only: the first ``k`` shares *are*
        the blocks, copied unless they are already in place, and the
        rest is ``U[:, k:].T @ blocks mod q`` accumulated and reduced in
        the destination. Any other code is the full product
        ``U.T @ [blocks; W]``, written in place as well.

        ``blocks`` is validated, not re-reduced: reduced ``int64`` input
        costs a min/max scan and no copy
        (:meth:`PrimeField.ensure_reduced`); anything else is reduced
        into a copy, floats raise.
        """
        field = self.field
        blocks = field.ensure_reduced(blocks)
        if blocks.ndim < 2 or blocks.shape[0] != self.k:
            raise ValueError(
                f"expected (k={self.k}, ...) stacked blocks, got {blocks.shape}"
            )
        shape = (self.n, *blocks.shape[1:])
        if into is None:
            into = np.empty(shape, dtype=np.int64)
        elif (
            not isinstance(into, np.ndarray)
            or into.shape != shape
            or into.dtype != np.int64
            or not into.flags.c_contiguous
        ):
            raise ValueError(
                f"destination must be a C-contiguous int64 array of shape {shape}"
            )
        k = self.k
        flat_into = into.reshape(self.n, -1)
        if self.is_systematic:
            data = into[:k]
            if blocks.ctypes.data != data.ctypes.data or blocks.strides != data.strides:
                data[...] = blocks  # not in place already
            if self.n > k:
                matmul_reduced(field, self._u[:, k:].T, flat_into[:k], flat_into[k:])
            return into
        flat = blocks.reshape(k, -1)
        if self.t > 0:
            if rng is None:
                raise ValueError("t > 0 requires an rng for the privacy padding")
            w = field.random((self.t, flat.shape[1]), rng)
            flat = np.concatenate([flat, w], axis=0)
        elif np.may_share_memory(flat, into):
            flat = flat.copy()  # the product below overwrites its input
        matmul_reduced(field, self._u.T, flat, flat_into)
        return into

    def decode(
        self, indices, shares: np.ndarray, deg_f: int = 1
    ) -> np.ndarray:
        """Recover ``f(X_1)..f(X_k)`` from verified worker evaluations.

        ``indices`` are worker ids (positions into ``alpha``); ``shares``
        the corresponding ``f(X~_i)`` blocks. Exactly the recovery
        threshold count is used — callers pass their fastest *verified*
        results. Extra shares are ignored deterministically (the first
        ``threshold`` in the order given).
        """
        field = self.field
        idx = np.asarray(indices, dtype=np.int64)
        shares = field.asarray(shares)
        if idx.ndim != 1 or shares.shape[0] != idx.size:
            raise ValueError("indices/shares mismatch")
        if np.any(idx < 0) or np.any(idx >= self.n):
            raise ValueError("worker index out of range")
        if len(np.unique(idx)) != idx.size:
            raise ValueError("duplicate worker indices")
        need = self.recovery_threshold(deg_f)
        if idx.size < need:
            raise ValueError(
                f"need {need} shares to decode deg_f={deg_f}, got {idx.size}"
            )
        idx = idx[:need]
        shares = shares[:need]
        block_shape = shares.shape[1:]
        flat = shares.reshape(need, -1)
        out = matmul_reduced(field, self._decode_basis(idx).T, flat)
        return out.reshape(self.k, *block_shape)

    def _decode_basis(self, idx: np.ndarray) -> np.ndarray:
        """``B[j, i] = l_j(beta_i)`` on the nodes ``alpha[idx]`` — the
        interpolation matrix of one responder set.

        Row ``j`` depends on *which* workers answered and on which of
        them ``idx[j]`` is, not on the order they answered in, so the
        basis is computed once per set (on the sorted ids) and its rows
        are put in arrival order per call. Residues are canonical, so
        the rows are the bytes a fresh evaluation gives. ``alpha`` and
        ``beta`` never change on a code object — a re-code builds a new
        one — so nothing is ever invalidated; ``idx`` must already be
        validated (distinct, in range).
        """
        order = np.argsort(idx)
        key = tuple(idx[order].tolist())
        basis = self._decode_bases.get(key)
        if basis is None:
            if len(self._decode_bases) >= _BASIS_CACHE_MAX:
                self._decode_bases.clear()
            basis = eval_lagrange_basis(
                self.field, self.alpha[idx[order]], self.beta[: self.k]
            )
            self._decode_bases[key] = basis
        return basis[np.argsort(order)]  # sorted rows back in arrival order

    def decode_corrected(
        self,
        indices,
        shares: np.ndarray,
        deg_f: int = 1,
        max_errors: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        """Error-correcting decode — the **LCC baseline** path.

        Runs Berlekamp–Welch over the received evaluations, correcting
        up to ``(received - threshold) // 2`` corrupted shares (capped
        by ``max_errors``). Returns ``(blocks, local_error_positions)``
        where positions index into ``indices``.

        Raises :class:`repro.ff.rs.DecodingError` when the corruption
        exceeds the error-correction capability — the caller decides the
        fallback (the experiments' LCC baseline then decodes *without*
        correction and silently consumes poisoned data, reproducing the
        degraded-accuracy curves of Fig. 3b/3d).
        """
        field = self.field
        idx = np.asarray(indices, dtype=np.int64)
        shares = field.asarray(shares)
        block_shape = shares.shape[1:]
        flat = shares.reshape(idx.size, -1)
        degree = (self.k + self.t - 1) * deg_f
        rs = ReedSolomon(field, self.alpha, degree)
        res = rs.decode(idx, flat, self.beta[: self.k], max_errors=max_errors, rng=rng)
        return res.values.reshape(self.k, *block_shape), res.error_positions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LagrangeCode(n={self.n}, k={self.k}, t={self.t}, "
            f"q={self.field.q}, systematic={self.is_systematic})"
        )
