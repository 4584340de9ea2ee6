"""Freivalds verification of matrix–vector products (paper Eqs. 6–9).

Protocol for a coded matrix ``A ∈ F^{b×d}`` held by one worker:

* **Key generation** (once, offline): draw ``r ∈ F^{p×b}`` uniformly,
  precompute ``s = r·A ∈ F^{p×d}``. The pair ``(r, s)`` is the private
  verification key; ``p`` is the probe count (``p = 1`` in the paper).
* **Integrity check** (per result): the worker claims ``z = A·w``.
  Accept iff ``r·z == s·w`` (all probes). Cost ``O(p(b + d))``.

Completeness is exact: a correct ``z`` always passes. Soundness: a
wrong ``z`` passes with probability at most ``q^{-p}`` — for any fixed
``δ = z − A·w ≠ 0``, ``r·δ`` is uniform over F_q per probe (Eq. 10–11).

**The operand side, once per round.** Every worker of a round is
checked against the same broadcast ``w``, so ``s_i·w`` is the same kind
of product for every key: :meth:`FreivaldsVerifier.prepare` validates
``w`` once and computes ``s_i·w`` for every participant's key in one
product (the keys' ``s`` rows stacked), and each arrival's
:meth:`~FreivaldsVerifier.check` then pays only for its own side — the
range scan of ``z``, ``r_i·z`` and the compare. The prepared operand
is a value of its round, handed to ``check`` in place of ``w``: two
rounds in flight hold two of them, and neither can be checked against
the other's. The bytes compared are those of the per-key products, so
verdicts and soundness are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ff.field import PrimeField
from repro.ff.linalg import matmul_reduced

__all__ = ["MatvecKey", "PreparedOperand", "FreivaldsVerifier", "soundness_error"]


def soundness_error(q: int, probes: int = 1) -> float:
    """Upper bound on the probability a forged result passes: ``q**-p``."""
    if probes < 1:
        raise ValueError("need at least one probe")
    return float(q) ** (-probes)


@dataclass(frozen=True)
class MatvecKey:
    """Private verification key for one worker's coded matrix.

    Attributes
    ----------
    r:
        ``(p, b)`` random probe matrix (``r^(1)_i`` / ``r^(2)_i`` in the
        paper, generalized to ``p`` probes).
    s:
        ``(p, d)`` precomputed ``r @ A`` (``s^(1)_i`` / ``s^(2)_i``).
    """

    r: np.ndarray
    s: np.ndarray

    @property
    def probes(self) -> int:
        return self.r.shape[0]

    @property
    def rows(self) -> int:
        """b: length of the results this key verifies."""
        return self.r.shape[1]

    @property
    def cols(self) -> int:
        """d: length of the operands this key verifies against."""
        return self.s.shape[1]


class PreparedOperand:
    """One round's broadcast operand, validated, with the operand side
    ``s_i·w`` of every key it was prepared for
    (:meth:`FreivaldsVerifier.prepare`).

    Attributes
    ----------
    operand:
        The validated operand: ``(d,)`` or ``(d, B)`` residues.
    """

    __slots__ = ("operand", "_rows", "_rhs")

    def __init__(self, operand: np.ndarray, keys: tuple[MatvecKey, ...], rhs: np.ndarray):
        self.operand = operand
        self._rhs = rhs  # the keys' s·operand, stacked in key order
        self._rows: dict[int, tuple[MatvecKey, int]] = {}
        row = 0
        for key in keys:
            self._rows[id(key)] = (key, row)
            row += key.probes

    def side(self, key: MatvecKey) -> np.ndarray | None:
        """``s·operand`` as ``(p, B)`` residues (``B = 1`` for a vector),
        or ``None`` when ``key`` is not one this operand was prepared
        for. Keys are matched by identity (the operand holds them, so
        no other object can take a key's id while it lives)."""
        hit = self._rows.get(id(key))
        if hit is None:
            return None
        return self._rhs[hit[1] : hit[1] + key.probes]


class FreivaldsVerifier:
    """Key generator + integrity checker for matrix–vector workloads.

    Parameters
    ----------
    field:
        The computation field.
    probes:
        Independent probes per check. The paper uses 1 (soundness
        ``1/q ≈ 3e-8`` for the 25-bit field); small-field tests use more.
    """

    def __init__(self, field: PrimeField, probes: int = 1):
        if probes < 1:
            raise ValueError("probes must be >= 1")
        self.field = field
        self.probes = probes

    # ------------------------------------------------------------------
    def keygen_single(self, share: np.ndarray, rng: np.random.Generator) -> MatvecKey:
        """Key for one coded matrix ``A`` (``(b, d)``)."""
        share = self.field.ensure_reduced(share)
        if share.ndim != 2:
            raise ValueError(f"share must be a matrix, got shape {share.shape}")
        r = self.field.random((self.probes, share.shape[0]), rng)
        return MatvecKey(r=r, s=matmul_reduced(self.field, r, share))

    def keygen(self, shares: np.ndarray, rng: np.random.Generator) -> list[MatvecKey]:
        """Keys for a stack of coded matrices ``(n, b, d)`` — one per
        worker (the paper's per-worker ``V_i``). Each share is validated
        where its key is made (:meth:`keygen_single`), so the stack is
        never copied whole."""
        shares = np.asarray(shares)
        if shares.ndim != 3:
            raise ValueError(f"expected (n, b, d) shares, got {shares.shape}")
        return [self.keygen_single(s, rng) for s in shares]

    # ------------------------------------------------------------------
    def prepare(self, operand: np.ndarray, keys) -> PreparedOperand:
        """The operand side of one round: ``operand`` validated once
        (:meth:`PrimeField.ensure_reduced`, as :meth:`check` would on
        every call; a float operand raises) and ``s_i·operand`` for
        every key in ``keys``, computed as one product of the keys'
        stacked ``s`` rows. Pass the result to :meth:`check` as its
        ``operand``; it belongs to this round only."""
        operand = self.field.ensure_reduced(operand)
        keys = tuple(keys)
        if operand.ndim not in (1, 2):
            raise ValueError(f"operand must be 1-D or 2-D, got shape {operand.shape}")
        d = operand.shape[0]
        for key in keys:
            if key.cols != d:
                raise ValueError(
                    f"operand has shape {operand.shape}, key expects ({key.cols}, ...)"
                )
        s = np.concatenate([key.s for key in keys])
        rhs = matmul_reduced(self.field, s, operand.reshape(d, -1))
        return PreparedOperand(operand, keys, rhs)

    def check(
        self, key: MatvecKey, operand: np.ndarray | PreparedOperand, claimed: np.ndarray
    ) -> bool:
        """Integrity check (Eq. 8/9): accept iff ``r·claimed == s·operand``.

        ``operand`` is the broadcast vector (``w`` or ``e``), ``claimed``
        the worker's returned product. Batched rounds pass a 2-D
        ``(d, B)`` operand and the worker's stacked ``(b, B)`` products;
        all ``B`` columns are checked in one probe application (the
        soundness bound ``q^{-p}`` holds per column, hence for the
        conjunction too), and the check accepts only when every column
        verifies — a worker that forges any job in the batch is
        rejected whole.

        ``operand`` may be the round's :class:`PreparedOperand`
        (:meth:`prepare`): it was validated once for the round, and the
        ``s·operand`` of a key it was prepared for is looked up, not
        recomputed. A plain array is validated here by one range scan
        (it is the master's own, so the scan finds nothing to reduce,
        and a float operand raises) and multiplied here. ``claimed`` is
        the worker's, and is refused rather than reduced: a result that
        is not an integer array of residues in ``[0, q)`` fails the
        check, as no honest worker sends one. ``key.r`` and ``key.s``
        are residues by construction and are not re-reduced.
        """
        field = self.field
        rhs = None
        if isinstance(operand, PreparedOperand):
            rhs = operand.side(key)
            operand = operand.operand
        else:
            operand = field.ensure_reduced(operand)
        if not field.is_reduced(claimed):
            return False
        claimed = claimed.astype(np.int64, copy=False)
        if operand.ndim == 1:
            if claimed.shape != (key.rows,):
                raise ValueError(
                    f"claimed result has shape {claimed.shape}, key expects ({key.rows},)"
                )
            if operand.shape != (key.cols,):
                raise ValueError(
                    f"operand has shape {operand.shape}, key expects ({key.cols},)"
                )
            operand = operand[:, None]
            claimed = claimed[:, None]
        else:
            if operand.ndim != 2 or operand.shape[0] != key.cols:
                raise ValueError(
                    f"operand has shape {operand.shape}, key expects ({key.cols}, B)"
                )
            if claimed.shape != (key.rows, operand.shape[1]):
                raise ValueError(
                    f"claimed result has shape {claimed.shape}, key expects "
                    f"({key.rows}, {operand.shape[1]})"
                )
        lhs = matmul_reduced(field, key.r, claimed)
        if rhs is None:
            rhs = matmul_reduced(field, key.s, operand)
        return bool(np.array_equal(lhs, rhs))

    # ------------------------------------------------------------------
    # cost accounting (drives the simulator's verification timing)
    # ------------------------------------------------------------------
    def check_cost_ops(self, key: MatvecKey, width: int = 1) -> int:
        """Multiply-accumulate count of one check: ``p(b + d)`` — the
        paper's ``O(m + d)`` with ``b = m/K`` (Sec. IV step 3).
        A batched check over ``width`` columns scales linearly."""
        return self.probes * (key.rows + key.cols) * width

    def keygen_cost_ops(self, n_rows: int, n_cols: int) -> int:
        """One-time key cost per worker: ``p·b·d`` MACs."""
        return self.probes * n_rows * n_cols
