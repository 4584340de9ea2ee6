"""Generalized AVCC: a degree-2 (gramian) coded computation.

The matvec masters serve ``deg f = 1`` rounds. This master demonstrates
the paper's generalization claim (Sec. IV-B: "in principle, AVCC can be
applied to any polynomial f") on the canonical degree-2 workload:

    g = X^T X w = sum_j X_j^T X_j w,      f(X_j) = X_j^T X_j w.

Workers hold a single coded share ``X~_i`` and return both the
intermediate ``z~_i = X~_i w`` and the gramian product
``g~_i = X~_i^T z~_i``. Because ``f`` has degree 2 in the share, the
master needs ``(K + T - 1)·2 + 1`` *verified* evaluations (Eq. 14) —
which is exactly what :class:`~repro.coding.scheme.SchemeParams` with
``deg_f = 2`` accounts for — and verification uses the two-stage
Freivalds protocol (both stages are linear, soundness ``2/q``).

One-round linear regression: ``∇ = (X^T X w − X^T y)/m`` where the
constant ``X^T y`` is computed once at setup.
"""

from __future__ import annotations

import numpy as np

from repro.coding.lcc import LagrangeCode
from repro.coding.scheme import SchemeParams
from repro.core.base import FamilyState, MatvecMasterBase, RoundPlan, encode_padded_rows
from repro.core.results import RoundOutcome
from repro.runtime.backend import Arrival, Backend
from repro.verify.twostage import TwoStageVerifier

__all__ = ["GramianAVCCMaster"]


class GramianAVCCMaster(MatvecMasterBase):
    """AVCC master for the degree-2 computation ``g = X^T X w``."""

    name = "gramian_avcc"
    verify_each = True

    def __init__(
        self,
        cluster: Backend,
        scheme: SchemeParams,
        probes: int = 1,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(cluster, rng)
        if scheme.n != cluster.n:
            raise ValueError(f"scheme.n={scheme.n} != cluster.n={cluster.n}")
        if scheme.deg_f != 2:
            raise ValueError("GramianAVCCMaster requires deg_f=2 in the scheme")
        scheme.validate_for("avcc")
        self.scheme = scheme
        self._budget = (scheme.s, scheme.m)
        self.verifier = TwoStageVerifier(self.field, probes=probes)

    # ------------------------------------------------------------------
    def setup(self, x_field: np.ndarray) -> float:
        t0 = self.backend.now
        x = self.field.ensure_reduced(x_field)
        if x.ndim != 2:
            raise ValueError("dataset must be a matrix")
        d = x.shape[1]
        k = self.scheme.k
        code = LagrangeCode(self.field, n=self.scheme.n, k=k, t=self.scheme.t)
        shares = encode_padded_rows(code, x, d, self.rng if self.scheme.t else None)
        self.backend.distribute("gram", shares, participants=self.active)
        keys = [
            self.verifier.keygen_single(shares[slot], self.rng)
            for slot in range(len(self.active))
        ]
        # one family: each worker returns concat(z~_i, g~_i), z~_i being
        # its share's b = m_pad/k rows; operands are full length d
        b = shares.shape[1]
        gram = FamilyState("gram", d, d, d, b, op="gramian")
        # code positions stay frozen at encoding time, valid when
        # workers are later dropped
        self._install_rounds(
            {"gram": gram}, code, code.recovery_threshold(deg_f=2), self.active,
            keys={"gram": keys},
        )
        return self.backend.now - t0

    def drop_workers(self, worker_ids) -> None:
        """Stop dispatching to ``worker_ids`` (e.g. Byzantine workers the
        matvec master evicted): their redundancy is spent, the code is
        unchanged. The backend pool itself is managed by the caller."""
        self._drop_workers(int(w) for w in worker_ids)

    @property
    def scheme_now(self) -> tuple[int, int]:
        return (len(self.active), self.scheme.k)

    # ------------------------------------------------------------------
    def _check(self, plan: RoundPlan, key, arrival: Arrival) -> bool:
        """Two-stage Freivalds over ``(z~_i, g~_i)``."""
        b = plan.context.st.block_rows
        return self.verifier.check(key, plan.job.operand, arrival.value[:b], arrival.value[b:])

    def _decode(self, plan: RoundPlan, used: list[Arrival], positions: np.ndarray):
        """Degree-2 Lagrange decode of the ``g~_i``; the ``k`` block
        gramians sum to ``X^T X w``."""
        ctx = plan.context
        b, d = ctx.st.block_rows, ctx.st.true_len
        decode_time = self.cost_model.master_compute_time(
            self.lagrange_decode_macs(ctx.need, self.scheme.k, d * plan.width)
        )
        g_vals = np.stack([a.value[b:] for a in used])
        blocks = ctx.code.decode(positions, g_vals, deg_f=2)  # (k, d[, B])
        return blocks.sum(axis=0) % self.field.q, decode_time, (), True

    def gramian_round_many(self, operands) -> list[RoundOutcome]:
        """Serve many gramian jobs in one blocking broadcast round (the
        batched analogue of :meth:`gramian_round`): operands are
        stacked into a ``(d, B)`` batch, each worker returns its
        ``concat(z, g)`` for all columns, and one decode recovers every
        job. Outcomes share the round's record."""
        return self.round_many("gram", operands)

    def gramian_round(self, w) -> RoundOutcome:
        """One blocking coded round computing ``X^T X w``.

        Accepts a single length-``d`` operand or a ``(d, B)`` batch."""
        return self._round("gram", w)
